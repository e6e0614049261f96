import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gnssfsl import corpus
from gnssfsl.corpus import class_counts

SRC = Path(__file__).resolve().parent.parent / "src"


class TestClassCounts:
    def test_desk_profile_floors_rare_classes(self):
        counts = class_counts("desk")
        assert counts[6] == 8  # rarest class floored to the minimum
        for c in (3, 4, 5, 7, 8, 9, 10):
            assert counts[c] == 8
        assert counts[1] > 1000  # dominant class keeps its share

    def test_total_scales_corpus(self, monkeypatch):
        monkeypatch.setitem(corpus.PROFILES["desk"], "total", 4000)
        counts = class_counts("desk")
        assert 2600 < counts[1] < 2800  # ~67% share of the field distribution
        assert counts[6] == 8


class TestSynthesizeRecord:
    def test_every_class_synthesizes(self):
        for label in range(11):
            img, params = corpus.synthesize_record(label, record_seed=55)
            assert img.pixels.shape == (32, 32)
            if label >= 3:
                assert "jnr_db" in params

    def test_record_is_pure_function_of_seed(self):
        a, _ = corpus.synthesize_record(9, 77, "desk")
        b, _ = corpus.synthesize_record(9, 77, "desk")
        assert np.array_equal(a.pixels, b.pixels)


def test_import_leaves_cli_unloaded():
    # Modules that cli imports, such as fsl, can synthesize records only while
    # corpus does not import cli.
    probe = "import sys, gnssfsl.corpus; print('gnssfsl.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
