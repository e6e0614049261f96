import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssfsl.nncore import ArchConfig, init
from gnssfsl.uncertainty import decompose_uncertainty, predict_member, write_uncertainty_csv

HEAD_CFG = ArchConfig(height=8, width=8, conv_channels=(2,), embed_dim=4, num_classes=3)


def random_simplex(rng, t, k):
    raw = rng.gamma(1.0, size=(t, k))
    return raw / raw.sum(axis=1, keepdims=True)


class TestDecomposition:
    def test_single_pass_epistemic_zero(self):
        rep = decompose_uncertainty([np.array([0.2, 0.3, 0.5])])
        np.testing.assert_allclose(rep.epistemic, 0.0, atol=1e-15)
        assert rep.epistemic_trace == pytest.approx(0.0)

    def test_constant_half_half(self):
        rep = decompose_uncertainty([np.array([0.5, 0.5])] * 4)
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        np.testing.assert_allclose(rep.aleatoric, expected, atol=1e-15)
        np.testing.assert_allclose(rep.epistemic, 0.0, atol=1e-15)

    def test_disagreeing_one_hots(self):
        rep = decompose_uncertainty([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(rep.aleatoric, 0.0, atol=1e-15)
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        np.testing.assert_allclose(rep.epistemic, expected, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose_uncertainty([])

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            decompose_uncertainty([np.array([0.5, 0.6])])
        with pytest.raises(ValueError):
            decompose_uncertainty([np.array([1.2, -0.2])])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_decomposition_identity(self, t, k, seed):
        rng = np.random.default_rng(seed)
        c = random_simplex(rng, t, k)
        rep = decompose_uncertainty(c)
        mean = c.mean(axis=0)
        total = np.diag(np.mean(c, axis=0)) - np.outer(mean, mean)
        np.testing.assert_allclose(rep.aleatoric + rep.epistemic, total, atol=1e-12)

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_epistemic_psd_and_symmetry(self, t, k, seed):
        rng = np.random.default_rng(seed)
        rep = decompose_uncertainty(random_simplex(rng, t, k))
        np.testing.assert_allclose(rep.epistemic, rep.epistemic.T, atol=1e-15)
        np.testing.assert_allclose(rep.aleatoric, rep.aleatoric.T, atol=1e-15)
        eigs = np.linalg.eigvalsh(rep.epistemic)
        assert eigs.min() >= -1e-10

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(9)
        t, n, k = 5, 7, 4
        c = random_simplex(rng, t * n, k).reshape(t, n, k)
        batch = decompose_uncertainty(c)
        assert batch.epistemic.shape == (n, k, k)
        for i in range(n):
            one = decompose_uncertainty(c[:, i, :])
            np.testing.assert_array_equal(batch.aleatoric[i], one.aleatoric)
            np.testing.assert_array_equal(batch.epistemic[i], one.epistemic)
            np.testing.assert_array_equal(batch.mean_softmax[i], one.mean_softmax)
            assert batch.epistemic_trace[i] == one.epistemic_trace


class TestScalar:
    def test_trace_value(self):
        rep = decompose_uncertainty([np.array([0.5, 0.5])] * 2)
        assert rep.aleatoric_trace == pytest.approx(0.5)
        assert rep.epistemic_trace == pytest.approx(0.0)

    def test_trace_permutation_invariant(self):
        rng = np.random.default_rng(8)
        c = random_simplex(rng, 5, 4)
        rep = decompose_uncertainty(c)
        perm = rng.permutation(4)
        rep_p = decompose_uncertainty(c[:, perm])
        assert rep.aleatoric_trace == pytest.approx(rep_p.aleatoric_trace)
        assert rep.epistemic_trace == pytest.approx(rep_p.epistemic_trace)


class TestEnsemble:
    def _members(self, seeds):
        return [init(HEAD_CFG, seed=s) for s in seeds]

    def test_member_count_is_t(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        probs = np.stack([predict_member(m, [img]) for m in self._members([1])])
        assert probs.shape == (1, 1, 3)

    def test_outputs_on_simplex(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        for member in self._members([1, 2, 3]):
            (vec,) = predict_member(member, [img])
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(vec >= 0)

    def test_cloned_members_identical_outputs(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        out = [predict_member(m, [img])[0] for m in self._members([7, 7, 7])]
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])
        rep = decompose_uncertainty(out)
        np.testing.assert_allclose(rep.epistemic, 0.0, atol=1e-15)

    def test_reports_and_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        imgs = rng.integers(0, 256, size=(3, 8, 8)).astype(np.uint8)
        report = decompose_uncertainty(
            np.stack([predict_member(m, imgs) for m in self._members([1, 2])])
        )
        assert report.aleatoric_trace.shape == (3,)
        path = tmp_path / "unc.csv"
        write_uncertainty_csv(path, ["a", "b", "c"], [0, 1, 2], [0, 0, 2], report)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "sample_id",
            "true_label",
            "predicted_label",
            "aleatoric_trace",
            "epistemic_trace",
        ]
        assert len(rows) == 4
        assert float(rows[1][3]) >= 0.0
        assert rows[2][4] == f"{report.epistemic_trace[1]:.9f}"
