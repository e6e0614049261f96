import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_member_workers
from jsonfuzz import json_values
from spectro_reference import ref_quantize, ref_resize, ref_stft_magnitude
from gnssfsl import cli, spectro
from gnssfsl.siggen import BackgroundLevel, BackgroundSpec, IQSnapshot, gen_background
from gnssfsl.spectro import (
    DB_FLOOR,
    SpectrogramImage,
    decode_block,
    load_corpus,
    quantize,
    read_image,
    resize,
    save_manifest,
    stft_magnitude,
    write_image,
)


def _tone_snapshot(freq_hz=100_000.0, n=2000, fs=1e6):
    t = np.arange(n) / fs
    samples = np.exp(2j * np.pi * freq_hz * t).astype(np.complex64)
    return IQSnapshot(samples, fs, n / fs * 1000.0)


class TestStft:
    def test_all_zero_snapshot_hits_floor(self):
        snap = IQSnapshot(np.zeros(1000, dtype=np.complex64), 1e6, 1.0)
        grid = stft_magnitude(snap, 256, 64)
        assert np.all(grid == -90.0)

    def test_pure_tone_row(self):
        freq = 100_000.0
        snap = _tone_snapshot(freq)
        grid = stft_magnitude(snap, 256, 64)
        # Row r of the grid is frequency fftshift(fftfreq(window, 1/fs))[r].
        freq_axis_hz = np.fft.fftshift(np.fft.fftfreq(256, d=1.0 / snap.sample_rate_hz))
        expected_bin = int(np.argmin(np.abs(freq_axis_hz - freq)))
        per_frame_argmax = grid.argmax(axis=0)
        assert np.all(per_frame_argmax == expected_bin)

    def test_global_max_is_zero_db(self):
        bg = gen_background(BackgroundSpec(BackgroundLevel.MEDIUM, seed=1), 2.0, 1e6)
        grid = stft_magnitude(bg, 256, 64)
        assert grid.max() == 0.0
        assert grid.min() >= -90.0

    def test_frame_count_formula(self):
        snap = _tone_snapshot(n=2000)
        grid = stft_magnitude(snap, 256, 64)
        assert grid.shape == (256, (2000 - 256) // 64 + 1)

    @given(
        n=st.integers(min_value=64, max_value=1024),
        window=st.integers(min_value=8, max_value=64),
        hop=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_frame_count_property(self, n, window, hop):
        if hop > window:
            return
        snap = IQSnapshot(
            np.ones(n, dtype=np.complex64), 1e6, n / 1e6 * 1000.0
        )
        grid = stft_magnitude(snap, window, hop)
        assert grid.shape[1] == (n - window) // hop + 1

    def test_window_hop_validation(self):
        snap = _tone_snapshot(n=500)
        with pytest.raises(ValueError):
            stft_magnitude(snap, 256, 0)
        with pytest.raises(ValueError):
            stft_magnitude(snap, 256, 300)
        with pytest.raises(ValueError):
            stft_magnitude(snap, 600, 64)


class TestQuantize:
    def _db(self, values):
        return np.asarray(values, dtype=np.float64)

    def test_endpoints_and_midpoint(self):
        img = quantize(self._db([[-90.0, 0.0, -45.0]]))
        assert list(img.pixels[0]) == [0, 255, 128]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize(self._db([[-91.0]]))
        with pytest.raises(ValueError):
            quantize(self._db([[0.5]]))

    @given(st.floats(min_value=-90.0, max_value=-0.01), st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_db(self, v, bump):
        v2 = min(v + bump, 0.0)
        a = quantize(self._db([[v]])).pixels[0, 0]
        b = quantize(self._db([[v2]])).pixels[0, 0]
        assert b >= a

    @given(st.lists(st.floats(min_value=-90.0, max_value=0.0), min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_error_bound(self, values):
        grid = self._db([values])
        img = quantize(grid)
        back = img.pixels.astype(np.float64) * (-DB_FLOOR / 255.0) + DB_FLOOR
        half_step = 90.0 / 255.0 / 2.0
        assert np.max(np.abs(back - grid)) <= half_step + 1e-9


class TestResize:
    def test_identity_when_same_dims(self):
        img = SpectrogramImage(np.arange(12, dtype=np.uint8).reshape(3, 4))
        out = resize(img, 3, 4)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_preserved(self):
        img = SpectrogramImage(np.full((5, 7), 127, dtype=np.uint8))
        out = resize(img, 9, 3)
        assert np.all(out.pixels == 127)

    def test_checkerboard_average(self):
        img = SpectrogramImage(np.array([[0, 255], [255, 0]], dtype=np.uint8))
        out = resize(img, 1, 1)
        assert out.pixels[0, 0] == 128  # 127.5 rounds half-up

    def test_zero_dim_rejected(self):
        img = SpectrogramImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            resize(img, 0, 4)


def _assert_same_db(grid, ref):
    assert grid.dtype == ref.dtype and np.array_equal(grid, ref)


def _assert_same_image(img, ref):
    assert img.pixels.dtype == np.uint8
    assert np.array_equal(img.pixels, ref.pixels)


def _noise_snapshot(n, fs, seed):
    rng = np.random.default_rng(seed)
    samples = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
    return IQSnapshot(samples, fs, n / fs * 1000.0)


class TestMatchesReference:
    """stft_magnitude, quantize and resize against tests/spectro_reference.py:
    grids and pixels must be array_equal, not just close."""

    @pytest.mark.parametrize("seed", [5, 7301])
    def test_every_desk_record(self, tmp_path, monkeypatch, seed):
        # Wrap the three calls gen-data makes per record; each wrapper checks
        # its output against the reference on the same input.
        stft, quant, rsz = spectro.stft_magnitude, spectro.quantize, spectro.resize
        quantized = 0

        def checked_stft(snapshot, window_len, hop):
            db = stft(snapshot, window_len, hop)
            _assert_same_db(db, ref_stft_magnitude(snapshot, window_len, hop))
            return db

        def checked_quantize(db):
            nonlocal quantized
            img = quant(db)
            _assert_same_image(img, ref_quantize(db))
            quantized += 1
            return img

        def checked_resize(image, h_out, w_out):
            img = rsz(image, h_out, w_out)
            _assert_same_image(img, ref_resize(image, h_out, w_out))
            return img

        monkeypatch.setattr(spectro, "stft_magnitude", checked_stft)
        monkeypatch.setattr(spectro, "quantize", checked_quantize)
        monkeypatch.setattr(spectro, "resize", checked_resize)
        force_member_workers(monkeypatch, 1)  # a forked worker's records are not counted here
        corpus = cli.generate_corpus(tmp_path, profile="desk", seed=seed)
        assert quantized == len(corpus)
        assert corpus.classes() == list(range(11))

    def test_all_zero_snapshot(self):
        snap = IQSnapshot(np.zeros(2000, dtype=np.complex64), 1e6, 2.0)
        db, ref = stft_magnitude(snap, 256, 64), ref_stft_magnitude(snap, 256, 64)
        _assert_same_db(db, ref)
        img, ref_img = quantize(db), ref_quantize(ref)
        _assert_same_image(img, ref_img)
        _assert_same_image(resize(img, 32, 32), ref_resize(ref_img, 32, 32))

    @given(
        n=st.integers(min_value=1, max_value=1024),
        window_frac=st.floats(min_value=0.0, max_value=1.0),
        hop_frac=st.floats(min_value=0.0, max_value=1.0),
        fs=st.sampled_from([48_000.0, 1e6, 62.5e6]),
        out=st.tuples(st.integers(1, 70), st.integers(1, 70)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_geometries(self, n, window_frac, hop_frac, fs, out, seed):
        window = max(1, round(window_frac * n))
        hop = max(1, round(hop_frac * window))
        snap = _noise_snapshot(n, fs, seed)
        db, ref = stft_magnitude(snap, window, hop), ref_stft_magnitude(snap, window, hop)
        _assert_same_db(db, ref)
        img, ref_img = quantize(db), ref_quantize(ref)
        _assert_same_image(img, ref_img)
        _assert_same_image(resize(img, *out), ref_resize(ref_img, *out))
        assert spectro._stft_plan.cache_info().currsize <= spectro._stft_plan.cache_info().maxsize
        assert spectro._resize_taps.cache_info().currsize <= spectro._resize_taps.cache_info().maxsize

    @pytest.mark.parametrize(
        "shape,out",
        [
            ((256, 28), (32, 32)),  # desk: rows down, columns up
            ((256, 28), (300, 40)),  # up; the last taps clamp at the edge
            ((32, 32), (32, 32)),  # identity
            ((5, 7), (64, 96)),  # up
            ((200, 300), (16, 8)),  # down
            ((31, 17), (13, 29)),  # odd sizes
            ((1, 1), (3, 5)),
            ((9, 1), (1, 9)),
        ],
    )
    def test_resize_sizes(self, shape, out):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        img = SpectrogramImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
        _assert_same_image(resize(img, *out), ref_resize(img, *out))

    def test_writing_outputs_cannot_change_next_call(self):
        snap = _tone_snapshot()
        db = stft_magnitude(snap, 256, 64)
        db[:] = DB_FLOOR
        img = quantize(stft_magnitude(snap, 256, 64))
        img.pixels[:] = 7
        small = resize(img, 32, 32)
        small.pixels[:] = 9
        ref = ref_stft_magnitude(snap, 256, 64)
        db = stft_magnitude(snap, 256, 64)
        _assert_same_db(db, ref)
        ref_img = ref_quantize(ref)
        _assert_same_image(quantize(db), ref_img)
        _assert_same_image(resize(quantize(db), 32, 32), ref_resize(ref_img, 32, 32))

    def test_plan_caches_are_bounded(self):
        for cache, call in (
            (spectro._stft_plan, lambda i: stft_magnitude(_noise_snapshot(64 + i, 1e6, i), 16, 4)),
            (spectro._resize_taps, lambda i: resize(SpectrogramImage(np.zeros((4, 4), np.uint8)), 5 + i, 3)),
        ):
            bound = cache.cache_info().maxsize
            for i in range(3 * bound):
                call(i)
            assert cache.cache_info().currsize == bound


def _block_bytes(n, h, w, payload):
    return spectro.BLOCK_MAGIC + struct.pack("<III", n, h, w) + payload


class TestImageFormat:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        block = rng.integers(0, 256, size=(3, 17, 9), dtype=np.uint8)
        write_image(block, tmp_path / "b.img")
        data = (tmp_path / "b.img").read_bytes()
        assert data[:8] == b"GNSSBLK1"
        assert [int.from_bytes(data[i : i + 4], "little") for i in (8, 12, 16)] == [3, 17, 9]
        assert data[20:] == block.tobytes()
        assert np.array_equal(decode_block(data), block)

    def test_file_round_trip(self, tmp_path):
        block = np.arange(128, dtype=np.uint8).reshape(2, 8, 8)
        path = tmp_path / "x.img"
        write_image(block[:, ::2, :], path)  # any layout is written row-major
        back = read_image(path)
        assert np.array_equal(back, block[:, ::2, :])
        assert back.dtype == np.uint8 and not back.flags.writeable

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_block(b"NOTMAGIC" + b"\x00" * 16)

    def test_truncation_rejected(self):
        data = _block_bytes(2, 4, 4, b"\0" * 32)
        assert decode_block(data).shape == (2, 4, 4)
        with pytest.raises(ValueError, match="truncated"):
            decode_block(data[:-1])
        with pytest.raises(ValueError, match="over-long"):
            decode_block(data + b"\0")

    @pytest.mark.parametrize("extra", [0, 4, 7, 11])
    def test_short_header_rejected(self, extra):
        with pytest.raises(ValueError, match="header"):
            decode_block(spectro.BLOCK_MAGIC + b"\0" * extra)

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4), (2, 4, 0)])
    def test_empty_block_rejected(self, shape):
        with pytest.raises(ValueError, match="empty"):
            decode_block(_block_bytes(*shape, b""))

    def test_forged_header_allocates_nothing(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_block(_block_bytes(2**32 - 1, 2**32 - 1, 2**32 - 1, b"\0" * 8))

    @given(
        data=st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=24).map(lambda b: spectro.BLOCK_MAGIC + b),
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)
            ).map(
                lambda t: _block_bytes(t[0], t[1], t[2], b"\x07" * max(0, t[0] * t[1] * t[2] + t[3]))
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_fuzz_raises_only_value_error(self, data):
        try:
            block = decode_block(data)
        except ValueError:
            return
        assert block.ndim == 3 and block.size > 0 and not block.flags.writeable
        assert _block_bytes(*block.shape, block.tobytes()) == data


_VALID_ENTRY = {"file": "r0.img", "label": 1, "split": "test", "seed": 3, "jammer_params": {}}
# Valid entries with up to two fields replaced by any JSON value and one dropped.
_MANIFEST_ENTRIES = st.builds(
    lambda changes, drop: {k: v for k, v in {**_VALID_ENTRY, **changes}.items() if k not in drop},
    st.dictionaries(st.sampled_from(sorted(_VALID_ENTRY)), json_values("test", "r0.img"), max_size=2),
    st.sets(st.sampled_from(sorted(_VALID_ENTRY)), max_size=1),
)


class TestManifest:
    def _write_corpus(self, root, n=4):
        records = [
            spectro.CorpusRecord(
                file=f"r{i}.img",
                label=i % 2,
                split="train" if i < 3 else "test",
                seed=100 + i,
                jammer_params={"kind": "tone"} if i % 2 else {},
            )
            for i in range(n)
        ]
        save_manifest(spectro.LabeledCorpus(records), root / "manifest.json")
        block = np.repeat(np.arange(n, dtype=np.uint8), 16).reshape(n, 4, 4)
        write_image(block, root / spectro.BLOCK_FILE)
        return root / "manifest.json"

    def test_save_load_round_trip(self, tmp_path):
        loaded = load_corpus(self._write_corpus(tmp_path))
        assert len(loaded) == 4
        assert loaded.records[1].jammer_params == {"kind": "tone"}
        assert np.array_equal(loaded.records[2].image.pixels, np.full((4, 4), 2))
        assert loaded.subset(split="train").labels().tolist() == [0, 1, 0]
        assert loaded.classes() == [0, 1]

    def test_loaded_pixels_are_read_only_rows_of_one_block(self, tmp_path):
        records = load_corpus(self._write_corpus(tmp_path)).records
        assert len({id(r.image.pixels.base) for r in records}) == 1
        for r in records:
            assert not r.image.pixels.flags.writeable
            with pytest.raises(ValueError):
                r.image.pixels[0, 0] = 9

    @pytest.mark.parametrize("rows", [3, 5])
    def test_row_count_must_match_manifest(self, tmp_path, rows):
        manifest = self._write_corpus(tmp_path)
        write_image(np.zeros((rows, 4, 4), np.uint8), tmp_path / spectro.BLOCK_FILE)
        with pytest.raises(ValueError, match=f"{rows} rows, manifest has 4 entries"):
            load_corpus(manifest)

    @pytest.mark.parametrize(
        "doc",
        [
            [{"label": 1, "split": "test", "seed": 3}],
            {"a": 1},
            [1, 2],
            [{"file": 5, "label": 1, "split": "test", "seed": 3}],
            [{"file": "a.img", "label": True, "split": "test", "seed": 3}],
            [{"file": "a.img", "label": 1.0, "split": "test", "seed": 3}],
            [{"file": "a.img", "label": 1, "split": "test", "seed": 3, "jammer_params": []}],
        ],
        ids=["no-file", "object", "ints", "file-type", "bool-label", "float-label", "params"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest"):
            load_corpus(path)

    @given(
        doc=st.one_of(
            json_values("test", "r0.img"),
            st.lists(st.one_of(_MANIFEST_ENTRIES, json_values()), max_size=4),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_load_corpus_fuzz_raises_only_value_error(self, doc):
        # Beside the manifest, a block whose row i is all i: one row per entry
        # of a non-empty list, one row otherwise.
        rows = len(doc) if isinstance(doc, list) and doc else 1
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "manifest.json"
            path.write_text(json.dumps(doc))
            block = np.repeat(np.arange(rows, dtype=np.uint8), 4).reshape(rows, 2, 2)
            write_image(block, Path(d) / spectro.BLOCK_FILE)
            try:
                corpus = load_corpus(path)
            except ValueError:
                return
        assert [r.to_manifest() for r in corpus.records] == [
            {"jammer_params": {}, **e} for e in doc
        ]
        assert [r.image.pixels.tolist() for r in corpus.records] == [
            [[i, i], [i, i]] for i in range(len(doc))
        ]

