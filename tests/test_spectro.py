import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonfuzz import json_values
from gnssfsl import spectro
from gnssfsl.siggen import BackgroundLevel, BackgroundSpec, IQSnapshot, gen_background
from gnssfsl.spectro import (
    DB_FLOOR,
    SpectrogramDb,
    SpectrogramImage,
    decode_image,
    encode_image,
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
        db = stft_magnitude(snap, 256, 64)
        assert np.all(db.grid == -90.0)

    def test_pure_tone_row(self):
        freq = 100_000.0
        snap = _tone_snapshot(freq)
        db = stft_magnitude(snap, 256, 64)
        expected_bin = int(np.argmin(np.abs(db.freq_axis_hz - freq)))
        per_frame_argmax = db.grid.argmax(axis=0)
        assert np.all(per_frame_argmax == expected_bin)

    def test_global_max_is_zero_db(self):
        bg = gen_background(BackgroundSpec(BackgroundLevel.MEDIUM, seed=1), 2.0, 1e6)
        db = stft_magnitude(bg, 256, 64)
        assert db.grid.max() == 0.0
        assert db.grid.min() >= -90.0

    def test_frame_count_formula(self):
        snap = _tone_snapshot(n=2000)
        db = stft_magnitude(snap, 256, 64)
        assert db.grid.shape == (256, (2000 - 256) // 64 + 1)

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
        db = stft_magnitude(snap, window, hop)
        assert db.grid.shape[1] == (n - window) // hop + 1

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
        grid = np.asarray(values, dtype=np.float64)
        return SpectrogramDb(grid, np.zeros(grid.shape[0]), np.zeros(grid.shape[1]))

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
        db = self._db([values])
        img = quantize(db)
        back = img.pixels.astype(np.float64) * (-DB_FLOOR / 255.0) + DB_FLOOR
        half_step = 90.0 / 255.0 / 2.0
        assert np.max(np.abs(back - db.grid)) <= half_step + 1e-9


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


class TestImageFormat:
    def test_round_trip_bytes(self):
        rng = np.random.default_rng(0)
        img = SpectrogramImage(rng.integers(0, 256, size=(17, 9), dtype=np.uint8).astype(np.uint8))
        data = encode_image(img)
        assert data[:8] == b"GNSSIMG1"
        assert int.from_bytes(data[8:12], "little") == 17
        assert int.from_bytes(data[12:16], "little") == 9
        back = decode_image(data)
        assert np.array_equal(back.pixels, img.pixels)

    def test_file_round_trip(self, tmp_path):
        img = SpectrogramImage(np.arange(64, dtype=np.uint8).reshape(8, 8), label=3)
        path = tmp_path / "x.img"
        write_image(img, path)
        back = read_image(path, label=3)
        assert np.array_equal(back.pixels, img.pixels)
        assert back.label == 3

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_image(b"NOTMAGIC" + b"\x00" * 16)

    def test_truncation_rejected(self):
        img = SpectrogramImage(np.zeros((4, 4), dtype=np.uint8))
        data = encode_image(img)
        with pytest.raises(ValueError):
            decode_image(data[:-1])

    @pytest.mark.parametrize("extra", [0, 4, 7])
    def test_short_header_rejected(self, extra):
        with pytest.raises(ValueError, match="header"):
            decode_image(spectro.IMAGE_MAGIC + b"\0" * extra)

    @given(
        data=st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=24).map(lambda b: spectro.IMAGE_MAGIC + b),
            st.tuples(
                st.integers(0, 6), st.integers(0, 6), st.integers(-2, 2)
            ).map(
                lambda t: spectro.IMAGE_MAGIC
                + struct.pack("<II", t[0], t[1])
                + b"\x07" * max(0, t[0] * t[1] + t[2])
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_fuzz_raises_only_value_error(self, data):
        try:
            img = decode_image(data)
        except ValueError:
            return
        assert len(data) == 16 + img.pixels.size
        assert encode_image(img) == data


_VALID_ENTRY = {"file": "r0.img", "label": 1, "split": "test", "seed": 3, "jammer_params": {}}
# Valid entries with up to two fields replaced by any JSON value and one dropped.
_MANIFEST_ENTRIES = st.builds(
    lambda changes, drop: {k: v for k, v in {**_VALID_ENTRY, **changes}.items() if k not in drop},
    st.dictionaries(st.sampled_from(sorted(_VALID_ENTRY)), json_values("test", "r0.img"), max_size=2),
    st.sets(st.sampled_from(sorted(_VALID_ENTRY)), max_size=1),
)


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        records = []
        for i in range(4):
            img = SpectrogramImage(np.full((4, 4), i, dtype=np.uint8), label=i % 2)
            fname = f"r{i}.img"
            write_image(img, tmp_path / fname)
            records.append(
                spectro.CorpusRecord(
                    file=fname,
                    label=i % 2,
                    split="train" if i < 3 else "test",
                    seed=100 + i,
                    jammer_params={"kind": "tone"} if i % 2 else {},
                )
            )
        corpus = spectro.LabeledCorpus(records, tmp_path)
        save_manifest(corpus, tmp_path / "manifest.json")
        loaded = load_corpus(tmp_path / "manifest.json")
        assert len(loaded) == 4
        assert loaded.records[1].jammer_params == {"kind": "tone"}
        assert np.array_equal(loaded.records[2].image.pixels, np.full((4, 4), 2))
        assert loaded.subset(split="train").labels().tolist() == [0, 1, 0]
        assert loaded.classes() == [0, 1]

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
            load_corpus(path, load_images=False)

    @given(
        doc=st.one_of(
            json_values("test", "r0.img"),
            st.lists(st.one_of(_MANIFEST_ENTRIES, json_values()), max_size=4),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_load_corpus_fuzz_raises_only_value_error(self, doc):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "manifest.json"
            path.write_text(json.dumps(doc))
            try:
                corpus = load_corpus(path, load_images=False)
            except ValueError:
                return
        assert [r.to_manifest() for r in corpus.records] == [
            {"jammer_params": {}, **e} for e in doc
        ]

