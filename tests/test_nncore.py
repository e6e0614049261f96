import json
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcheck
from jsonfuzz import DEEP_JSON, json_values
from gnssfsl import nncore
from gnssfsl.nncore import (
    ArchConfig,
    _ConvRelu,
    _MaxPool2,
    init,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax_normalize,
)

SMALL = ArchConfig(height=8, width=8, conv_channels=(2, 3), embed_dim=4, dtype="f64")
# The benchmark architecture, and the batch sizes that training and mining use,
# plus the conv forward's 16-image tile boundaries: exact multiples (16, 32),
# one-image tails (17, 33) and a mining batch (323).
BENCH = ArchConfig(conv_channels=(8, 16, 32), embed_dim=32)
EXACT_BATCHES = (1, 14, 16, 17, 18, 24, 27, 32, 33, 323, 400)
ODD_HEAD = ArchConfig(height=31, width=33, conv_channels=(3, 5), embed_dim=6, num_classes=4)


class TestInit:
    def test_same_seed_identical(self):
        a = init(SMALL, seed=3)
        b = init(SMALL, seed=3)
        assert np.array_equal(a.params, b.params)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init(SMALL, 1).params, init(SMALL, 2).params)

    @pytest.mark.parametrize(
        "cfg",
        [BENCH, ODD_HEAD, replace(SMALL, num_classes=3)],
        ids=["bench", "odd_head", "f64_head"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
    def test_matches_reference_init(self, cfg, seed):
        # One generator draws each weighted layer's He-uniform weights, then
        # its zero biases, in layer order: conv blocks, embedding, head.
        fan_ins = [2 * 9] + [9 * c for c in cfg.conv_channels[:-1]] + [cfg.conv_channels[-1]]
        outs = list(cfg.conv_channels) + [cfg.embed_dim]
        if cfg.num_classes is not None:
            fan_ins.append(cfg.embed_dim)
            outs.append(cfg.num_classes)
        rng = np.random.default_rng(seed)
        params, mask = [], []
        for fan_in, out in zip(fan_ins, outs):
            bound = np.sqrt(6.0 / fan_in)
            params += [rng.uniform(-bound, bound, size=out * fan_in), np.zeros(out)]
            mask += [np.ones(out * fan_in, dtype=bool), np.zeros(out, dtype=bool)]
        net = init(cfg, seed)
        assert net.params.dtype == cfg.np_dtype
        assert np.array_equal(net.params, np.concatenate(params).astype(cfg.np_dtype))
        assert np.array_equal(net.decay_mask(), np.concatenate(mask))

    def test_biases_zero_weights_not(self):
        net = init(SMALL, seed=4)
        mask = net.decay_mask()
        assert np.all(net.params[~mask] == 0.0)
        assert np.any(net.params[mask] != 0.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(height=4, width=4, conv_channels=(2, 2, 2))  # pools to zero
        with pytest.raises(ValueError):
            ArchConfig(embed_dim=0)
        with pytest.raises(ValueError):
            ArchConfig(dtype="f16")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("height", 32.5),
            ("width", 32.0),
            ("embed_dim", True),
            ("num_classes", 4.0),
            ("conv_channels", (8, 16.0)),
            ("conv_channels", (8, False)),
            ("conv_channels", (8, 0)),
            ("conv_channels", [8, 16]),
            ("dtype", ["f32"]),
        ],
    )
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ValueError):
            replace(BENCH, **{field: value})


class TestForward:
    def test_batch_independence(self):
        net = init(SMALL, seed=5)
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(8, 8, 8)).astype(np.uint8)
        full = net.infer(imgs)
        single = net.infer(imgs[3:4])
        # BLAS picks shape-dependent kernels, so agreement is to the ULP,
        # not bit-exact across batch sizes.
        np.testing.assert_allclose(full[3], single[0], rtol=1e-13, atol=1e-15)

    def test_permutation_equivariance(self):
        net = init(SMALL, seed=5)
        rng = np.random.default_rng(1)
        imgs = rng.integers(0, 256, size=(6, 8, 8)).astype(np.uint8)
        perm = rng.permutation(6)
        out = net.infer(imgs)
        out_p = net.infer(imgs[perm])
        np.testing.assert_array_equal(out[perm], out_p)

    def test_zero_image_zero_init_biases(self):
        net = init(SMALL, seed=6)
        net.params[net.decay_mask()] = 0.0  # zero all weights, biases already zero
        out = net.infer(np.zeros((1, 8, 8), dtype=np.uint8))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_shape_mismatch_rejected(self):
        net = init(SMALL, seed=7)
        with pytest.raises(ValueError):
            net.infer(np.zeros((1, 9, 8), dtype=np.uint8))

    def test_finite_embeddings(self):
        net = init(SMALL, seed=8)
        rng = np.random.default_rng(2)
        out = net.infer(rng.integers(0, 256, size=(4, 8, 8)).astype(np.uint8))
        assert np.all(np.isfinite(out))

    def test_freq_coord_breaks_row_shift_invariance(self):
        # with the coordinate plane, shifting a feature along the frequency
        # axis must move the embedding; without it, pooling can wash it out
        net = init(SMALL, seed=12)
        img_low = np.zeros((8, 8), dtype=np.uint8)
        img_low[1, :] = 255
        img_high = np.zeros((8, 8), dtype=np.uint8)
        img_high[5, :] = 255
        out = net.infer(np.stack([img_low, img_high]))
        assert net._layers[0].in_ch == 2  # image plane + coordinate plane
        assert not np.allclose(out[0], out[1])

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_prepared_batch_planes(self, dtype):
        # Image plane x/255 in the network dtype, then the frequency ramp; a
        # caller writing into one prepared batch cannot change the next.
        net = init(replace(SMALL, height=9, dtype=dtype), seed=13)
        np_dtype = net.config.np_dtype
        imgs = np.random.default_rng(4).integers(0, 256, size=(3, 9, 8), dtype=np.uint8)
        ramp = np.broadcast_to(np.linspace(-0.5, 0.5, 9, dtype=np_dtype)[:, None], (3, 9, 8))
        x = net._planes(net._stack(list(imgs)))
        x[:, 1] = 0.0
        for batch in (imgs, imgs.astype(np.float64) / 255.0):
            x = net._planes(net._stack(batch))
            assert x.dtype == np_dtype and x.shape == (3, 2, 9, 8)
            if batch.dtype == np.uint8:
                image_plane = batch.astype(np_dtype) / np.array(255.0, np_dtype)
            else:
                image_plane = batch.astype(np_dtype)
            np.testing.assert_array_equal(x[:, 0], image_plane)
            np.testing.assert_array_equal(x[:, 1], ramp)


class TestBackward:
    def test_zero_upstream_zero_gradient(self):
        net = init(SMALL, seed=10)
        _, cache = net.forward_with_cache(np.full((2, 8, 8), 100, dtype=np.uint8))
        g = net.backward_from(cache, np.zeros((2, 4)))
        assert np.all(g == 0.0)

    def test_gradient_linear_in_upstream(self):
        net = init(SMALL, seed=11)
        rng = np.random.default_rng(3)
        x = rng.integers(0, 256, size=(2, 8, 8)).astype(np.uint8)
        up = rng.normal(size=(2, 4))
        out, cache = net.forward_with_cache(x)
        g1 = net.backward_from(cache, up)
        g2 = net.backward_from(cache, 2.0 * up)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)

    @pytest.mark.parametrize("kind", sorted(gradcheck.LAYER_INSTANCES))
    def test_layer_gradients(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(5):
            assert gradcheck.check_layer(kind, rng) < 1e-4

    def test_composed_network_gradient(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            assert gradcheck.check_composed_network(rng) < 1e-4

    def test_conv_forward_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        layer = nncore._ConvRelu(2, 3)
        p = rng.normal(size=layer.n_params)
        x = rng.normal(size=(2, 2, 5, 5))
        w = p[: layer.n_weights].reshape(3, 2, 3, 3)
        z = gradcheck.naive_conv_preact(x, w, p[layer.n_weights :])
        y, _ = layer.forward(x, p)
        np.testing.assert_allclose(y, np.maximum(z, 0.0), rtol=1e-10, atol=1e-12)


def _assert_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def _perturbed(cfg, seed):
    """Network with its zero-init biases moved off zero, and an image batch."""
    net = init(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    net.params = net.params + rng.normal(scale=0.05, size=net.n_params).astype(net.params.dtype)
    return net, rng


def _check_network_against_reference(net, rng, batch, with_head=False):
    cfg = net.config
    x = rng.integers(0, 256, size=(batch, cfg.height, cfg.width)).astype(np.uint8)
    ref = gradcheck.reference_network(net)
    out, cache = net.forward_with_cache(x, with_head=with_head)
    out_ref, cache_ref = ref.forward_with_cache(x, with_head=with_head)
    _assert_identical(out, out_ref)
    up = rng.normal(size=out.shape)
    _assert_identical(net.backward_from(cache, up), ref.backward_from(cache_ref, up))


class TestBitExact:
    """The conv and pool layers reproduce the tensordot/argmax reference exactly."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("batch", EXACT_BATCHES)
    def test_layers_match_reference(self, dtype, batch):
        net, rng = _perturbed(replace(BENCH, dtype=dtype), batch)
        images = rng.integers(0, 256, size=(batch, 32, 32)).astype(np.uint8)
        x = net._planes(net._stack(images))
        for i, layer in enumerate(net._layers[: net._embed_index]):
            p = net.params[net._param_slice(i)]
            if isinstance(layer, _ConvRelu):
                fast = _ConvRelu(layer.in_ch, layer.out_ch)  # with dx, also for layer 0
                ref = gradcheck.RefConvRelu(layer.in_ch, layer.out_ch)
            elif isinstance(layer, _MaxPool2):
                fast, ref = layer, gradcheck.RefMaxPool2()
            else:
                x = layer.forward(x, p)[0]
                continue
            y, cache = fast.forward(x, p)
            y_ref, cache_ref = ref.forward(x, p)
            _assert_identical(y, y_ref)
            dy = rng.normal(size=y.shape).astype(y.dtype)
            dx, dp = fast.backward(dy, p, cache)
            dx_ref, dp_ref = ref.backward(dy, p, cache_ref)
            _assert_identical(dx, dx_ref)
            _assert_identical(dp, dp_ref)
            x = y

    # In f64 at batch 1, a (2 -> 16) conv's input gradient rounds differently
    # when its (B*H*W, O) operand is made C-contiguous instead of staying the
    # transposed view that reshape gives; the reference keeps the view.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c, o, hw", [(2, 16, 5), (2, 16, 16), (3, 5, 15), (8, 16, 7)])
    @pytest.mark.parametrize("batch", (1, 5))
    def test_conv_shapes_match_reference(self, dtype, c, o, hw, batch):
        rng = np.random.default_rng(c * o * hw + batch)
        fast, ref = _ConvRelu(c, o), gradcheck.RefConvRelu(c, o)
        p = rng.uniform(-0.5, 0.5, size=fast.n_params).astype(dtype)
        x = rng.normal(size=(batch, c, hw, hw)).astype(dtype)
        y, cache = fast.forward(x, p)
        y_ref, cache_ref = ref.forward(x, p)
        _assert_identical(y, y_ref)
        dy = rng.normal(size=y.shape).astype(dtype)
        for got, want in zip(fast.backward(dy, p, cache), ref.backward(dy, p, cache_ref)):
            _assert_identical(got, want)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("batch", EXACT_BATCHES)
    def test_network_matches_reference(self, dtype, batch):
        net, rng = _perturbed(replace(BENCH, dtype=dtype), 100 + batch)
        _check_network_against_reference(net, rng, batch)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("batch", (1, 5, 14))
    def test_odd_input_and_small_net(self, dtype, batch):
        net, rng = _perturbed(replace(ODD_HEAD, dtype=dtype), 200 + batch)
        _check_network_against_reference(net, rng, batch, with_head=True)

    @pytest.mark.parametrize("with_head", [False, True])
    @pytest.mark.parametrize("cfg", [replace(BENCH, num_classes=11), ODD_HEAD], ids=["bench", "odd"])
    def test_infer_matches_reference(self, cfg, with_head):
        # Inference runs the conv/pool stack one 16-image tile at a time: one
        # tile, an exact multiple, one-image tails and a mining batch.
        net, rng = _perturbed(cfg, 300)
        ref = gradcheck.reference_network(net)
        for batch in (1, 15, 16, 17, 33, 400):
            x = rng.integers(0, 256, size=(batch, cfg.height, cfg.width)).astype(np.uint8)
            want, _ = ref.forward_with_cache(x, with_head=with_head)
            _assert_identical(net.infer(x, with_head=with_head), want)

    def test_infer_peak_allocation_is_independent_of_batch(self):
        # Inference keeps one tile's activations (about 2 MB here), not the
        # whole batch's: keeping them for 400 images took 32 MB, for 1600
        # images 128 MB.
        net = init(BENCH, seed=1)
        for batch in (400, 1600):
            x = np.random.default_rng(0).integers(0, 256, size=(batch, 32, 32)).astype(np.uint8)
            tracemalloc.start()
            try:
                net.infer(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3e6, (batch, peak)

    def test_zero_init_biases(self):
        # Zero biases leave whole windows at exactly zero after the ReLU.
        net = init(BENCH, seed=1)
        _check_network_against_reference(net, np.random.default_rng(1), 14)


class TestMaxPoolTies:
    @staticmethod
    def _grad(x):
        pool = _MaxPool2()
        y, cache = pool.forward(x, None)
        dx, _ = pool.backward(np.ones_like(y), None, cache)
        return y, dx

    @pytest.mark.parametrize(
        "window, first",
        [
            ([[1.0, 3.0], [3.0, 2.0]], (0, 1)),
            ([[3.0, 1.0], [2.0, 3.0]], (0, 0)),
            ([[0.5, 1.0], [1.0, 1.0]], (0, 1)),
            ([[0.0, 0.5], [2.0, 2.0]], (1, 0)),
        ],
    )
    def test_tie_goes_to_first_in_row_major_order(self, window, first):
        x = np.array(window)[None, None]
        y, dx = self._grad(x)
        assert y[0, 0, 0, 0] == x.max()
        expect = np.zeros((2, 2))
        expect[first] = 1.0
        np.testing.assert_array_equal(dx[0, 0], expect)

    def test_all_zero_window_matches_reference(self):
        # Post-ReLU zeros are +0.0 or -0.0; the output keeps the first
        # element's sign and the gradient goes to the first element.
        x = np.array([[[[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0]]]], dtype=np.float32)
        dy = np.array([[[[-1.5, 2.0]]]], dtype=np.float32)
        pool, ref = _MaxPool2(), gradcheck.RefMaxPool2()
        y, cache = pool.forward(x, None)
        y_ref, cache_ref = ref.forward(x, None)
        assert y.tobytes() == np.ascontiguousarray(y_ref).tobytes()
        dx, _ = pool.backward(dy, None, cache)
        dx_ref, _ = ref.backward(dy, None, cache_ref)
        _assert_identical(dx, dx_ref)
        np.testing.assert_array_equal(dx[0, 0], [[-1.5, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


class TestFirstLayer:
    def test_first_conv_computes_no_input_gradient(self):
        net = init(SMALL, seed=30)
        convs = [layer for layer in net._layers if isinstance(layer, _ConvRelu)]
        assert [c.input_grad for c in convs] == [False, True]
        x = net._planes(net._stack(np.zeros((2, 8, 8), dtype=np.uint8)))
        _, cache = convs[0].forward(x, net.params[net._param_slice(0)])
        dx, dp = convs[0].backward(np.ones((2, 2, 8, 8)), net.params[net._param_slice(0)], cache)
        assert dx is None
        assert dp.shape == (convs[0].n_params,)

    def test_gradcheck_conv_instance_checks_dx(self):
        rng = np.random.default_rng(31)
        layer, _, _ = gradcheck.LAYER_INSTANCES["conv_relu"](rng)
        assert layer.input_grad
        assert gradcheck.check_layer("conv_relu", rng) < 1e-4


class TestSoftmaxNormalize:
    def test_constant_vector_uniform(self):
        out = softmax_normalize(np.full(5, 3.7))
        np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-12)

    def test_shift_invariance(self):
        v = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            softmax_normalize(v), softmax_normalize(v + 123.4), atol=1e-12
        )

    def test_known_values(self):
        out = softmax_normalize(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        out = softmax_normalize(rng.normal(size=(10, 7)) * 50)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out > 0)


class TestSgd:
    def test_fixed_point(self):
        p = np.array([1.0, -2.0])
        out = sgd_step(p, np.zeros(2), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(out, p)

    def test_exact_update_value(self):
        out = sgd_step(np.array([1.0]), np.array([1.0]), lr=0.01, weight_decay=0.0005)
        np.testing.assert_allclose(out, [0.989995], atol=1e-12)

    def test_decay_contracts(self):
        p = np.array([3.0, -4.0])
        out = sgd_step(p, np.zeros(2), lr=0.1, weight_decay=0.01)
        assert np.all(np.abs(out) < np.abs(p))

    def test_decay_mask_spares_biases(self):
        p = np.array([1.0, 1.0])
        mask = np.array([True, False])
        out = sgd_step(p, np.zeros(2), lr=0.1, weight_decay=0.5, decay_mask=mask)
        assert out[0] < 1.0
        assert out[1] == 1.0

    def test_nan_gradient_aborts(self):
        with pytest.raises(FloatingPointError):
            sgd_step(np.array([1.0]), np.array([np.nan]), lr=0.1)


_SMALL_HEADER = {
    "height": 8,
    "width": 8,
    "conv_channels": [2, 3],
    "embed_dim": 4,
    "num_classes": None,
    "dtype": "f64",
    "seed": 23,
}
_SMALL_PARAMS = init(SMALL, seed=0).n_params


def _read_checkpoint(path):
    """(header, payload) of a checkpoint file."""
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:12], "little")
    return json.loads(data[12 : 12 + hlen]), data[12 + hlen :]


def _checkpoint_bytes(header, payload):
    blob = json.dumps(header).encode()
    return nncore.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = ArchConfig(height=8, width=8, conv_channels=(2,), embed_dim=3, num_classes=4)
        net = init(cfg, seed=21)
        path = tmp_path / "net.gnssnet"
        save_checkpoint(net, path)
        data = path.read_bytes()
        assert data[:8] == b"GNSSNET1"
        back = load_checkpoint(path)
        assert back.config == cfg
        assert back.params.dtype == np.float32
        np.testing.assert_array_equal(back.params, net.params)

    def test_f64_round_trip_is_bit_exact(self, tmp_path):
        net = init(SMALL, seed=22)
        net.params = net.params + np.random.default_rng(0).normal(scale=1e-3, size=net.n_params)
        path = tmp_path / "net.gnssnet"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.config == SMALL
        assert back.params.dtype == np.float64
        assert np.array_equal(back.params, net.params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gnssnet"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "cut",
        [
            lambda data, hlen: data[:10],  # shorter than the 12-byte preamble
            lambda data, hlen: data[: 12 + hlen // 2],  # truncated header
            lambda data, hlen: data[:-3],  # truncated payload
            lambda data, hlen: data + b"\x00" * 8,  # trailing bytes
            lambda data, hlen: data[:8] + (2).to_bytes(4, "little") + b"{}",  # no fields
            lambda data, hlen: data[:8] + (2).to_bytes(4, "little") + b"[]",  # not an object
            lambda data, hlen: data[:8] + (200000).to_bytes(4, "little") + DEEP_JSON,
        ],
        ids=["preamble", "header", "payload", "trailing", "fields", "object", "deep"],
    )
    def test_malformed_file_raises_value_error(self, tmp_path, cut):
        path = tmp_path / "net.gnssnet"
        save_checkpoint(init(SMALL, seed=23), path)
        data = path.read_bytes()
        hlen = int.from_bytes(data[8:12], "little")
        path.write_bytes(cut(data, hlen))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = init(ODD_HEAD, seed=26)
        path = tmp_path / "net.gnssnet"
        save_checkpoint(net, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back = load_checkpoint(path)
        assert back.seed == 26
        assert np.array_equal(back.params, net.params)

    def test_oversized_header_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "net.gnssnet"
        save_checkpoint(init(SMALL, seed=24), path)
        header, payload = _read_checkpoint(path)
        header["conv_channels"] = [100000, 100000]  # 9e10 parameters
        path.write_bytes(_checkpoint_bytes(header, payload))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_float_height_rejected(self, tmp_path):
        path = tmp_path / "net.gnssnet"
        save_checkpoint(init(SMALL, seed=25), path)
        header, payload = _read_checkpoint(path)
        header["height"] = 8.5
        path.write_bytes(_checkpoint_bytes(header, payload))
        with pytest.raises(ValueError, match="height"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(
        changes=st.dictionaries(
            st.sampled_from(sorted(_SMALL_HEADER)),
            st.one_of(
                json_values("f32", "f64"),
                st.integers(-2, 40),
                st.floats(1, 64),
                st.lists(st.integers(-2, 10**5), max_size=3),
            ),
            max_size=3,
        ),
        drop=st.sets(st.sampled_from(sorted(_SMALL_HEADER)), max_size=1),
        payload_delta=st.one_of(st.just(0), st.integers(-8, 8)),
    )
    def test_header_fuzz_raises_only_value_error(self, changes, drop, payload_delta):
        header = {k: v for k, v in {**_SMALL_HEADER, **changes}.items() if k not in drop}
        payload = np.arange(_SMALL_PARAMS, dtype="<f8").tobytes()
        payload = payload[: len(payload) + payload_delta] + b"\x00" * max(payload_delta, 0)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "net.gnssnet"
            path.write_bytes(_checkpoint_bytes(header, payload))
            try:
                net = load_checkpoint(path)
            except ValueError:
                return
        cfg = net.config
        assert net.n_params * np.dtype(cfg.np_dtype).itemsize == len(payload)
        sizes = (cfg.height, cfg.width, cfg.embed_dim) + cfg.conv_channels
        assert all(type(v) is int for v in sizes)

