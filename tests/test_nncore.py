import numpy as np
import pytest

import gradcheck
from gnssfsl import nncore
from gnssfsl.nncore import (
    ArchConfig,
    init,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax_normalize,
)

SMALL = ArchConfig(height=8, width=8, conv_channels=(2, 3), embed_dim=4, dtype="f64")


class TestInit:
    def test_same_seed_identical(self):
        a = init(SMALL, seed=3)
        b = init(SMALL, seed=3)
        assert np.array_equal(a.params, b.params)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init(SMALL, 1).params, init(SMALL, 2).params)

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
        ],
        ids=["preamble", "header", "payload", "trailing", "fields", "object"],
    )
    def test_malformed_file_raises_value_error(self, tmp_path, cut):
        path = tmp_path / "net.gnssnet"
        save_checkpoint(init(SMALL, seed=23), path)
        data = path.read_bytes()
        hlen = int.from_bytes(data[8:12], "little")
        path.write_bytes(cut(data, hlen))
        with pytest.raises(ValueError):
            load_checkpoint(path)
