import tracemalloc

import numpy as np
import pytest

from gnssfsl import metrics
from gnssfsl.metrics import (
    TSNE_EXAGGERATION_ITERS,
    ConfusionMatrix,
    binary_detection_metrics,
    confusion,
    f_beta,
    macro_f_beta,
    tsne,
    write_metrics_csv,
    write_points_csv,
)
from tsne_reference import ref_tsne


def hand_rolled_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over points; independent of the projection under test."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(n):
        same = (labels == labels[i]) & (np.arange(n) != i)
        if not same.any():
            continue
        a = d[i, same].mean()
        b = min(
            d[i, labels == other].mean() for other in np.unique(labels) if other != labels[i]
        )
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
        assert cm.accuracy() == 1.0

    def test_empty_input(self):
        cm = confusion([], [], 4)
        assert cm.counts.sum() == 0
        assert cm.accuracy() == 0.0

    def test_total_is_partition(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 5, size=100)
        p = rng.integers(0, 5, size=100)
        cm = confusion(t, p, 5)
        assert cm.total == 100
        assert np.array_equal(cm.counts.sum(axis=1), np.bincount(t, minlength=5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 5], [0, 1], 5)

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 4, size=60)
        p = rng.integers(0, 4, size=60)
        cm = confusion(t, p, 4)
        assert cm.accuracy() == pytest.approx(np.trace(cm.counts) / 60)


class TestFBeta:
    def test_perfect(self):
        assert f_beta(1.0, 1.0, 2.0) == 1.0

    def test_degenerate_zero(self):
        assert f_beta(0.0, 0.0, 2.0) == 0.0

    def test_reported_operating_point(self):
        # direct formula value for P=0.151, R=0.929 at beta=2
        assert f_beta(0.151, 0.929, 2.0) == pytest.approx(0.4576, abs=5e-4)

    def test_f1_is_harmonic_mean(self):
        for p in np.linspace(0.05, 1.0, 8):
            for r in np.linspace(0.05, 1.0, 8):
                expected = 2 * p * r / (p + r)
                assert f_beta(p, r, 1.0) == pytest.approx(expected)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            f_beta(1.2, 0.5, 2.0)
        with pytest.raises(ValueError):
            f_beta(0.5, 0.5, 0.0)


class TestBinaryCollapse:
    def test_all_correct(self):
        cm = confusion(list(range(11)), list(range(11)), 11)
        rep = binary_detection_metrics(cm)
        assert rep.binary_accuracy == 1.0
        assert rep.binary_recall == 1.0
        assert rep.binary_precision == 1.0

    def test_wrong_interference_class_still_detected(self):
        # every interference sample predicted as some (wrong) interference class
        truth = [3, 4, 5, 6, 7, 8, 9, 10]
        pred = [4, 5, 6, 7, 8, 9, 10, 3]
        cm = confusion(truth, pred, 11)
        rep = binary_detection_metrics(cm)
        assert rep.binary_recall == 1.0
        assert rep.accuracy == 0.0  # multiclass accuracy is zero

    def test_hand_built_counts(self):
        # one clean correct, one clean flagged, one jammer missed
        truth = [0, 1, 5]
        pred = [0, 7, 2]
        cm = confusion(truth, pred, 11)
        rep = binary_detection_metrics(cm)
        # tn=1, fp=1, fn=1, tp=0 by manual enumeration
        assert rep.binary_accuracy == pytest.approx(1 / 3)
        assert rep.binary_precision == 0.0
        assert rep.binary_recall == 0.0

    def test_wrong_k_rejected(self):
        with pytest.raises(ValueError):
            binary_detection_metrics(ConfusionMatrix(np.zeros((5, 5), dtype=np.int64)))


class TestMacro:
    def test_macro_f_beta_subset(self):
        cm = confusion([3, 3, 7, 7], [3, 3, 7, 0], 11)
        f2_3 = f_beta(1.0, 1.0, 2.0)
        prec7, rec7 = 1.0, 0.5
        f2_7 = f_beta(prec7, rec7, 2.0)
        assert macro_f_beta(cm, 2.0, [3, 7]) == pytest.approx((f2_3 + f2_7) / 2)

    def test_macro_recall(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert metrics.macro_recall(cm) == pytest.approx((0.5 + 1.0) / 2)


class TestTsne:
    def _blobs(self, n_per=50, sep=20.0, seed=0, dim=8):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_per, dim))
        b = rng.normal(size=(n_per, dim))
        b[:, 0] += sep
        x = np.vstack([a, b])
        labels = np.array([0] * n_per + [1] * n_per)
        return x, labels

    def test_p_matrix_symmetric_and_normalized(self):
        x, _ = self._blobs(20, seed=1)
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        cond = metrics._conditional_probs(sq, perplexity=10.0)
        p = (cond + cond.T) / (2.0 * len(x))
        np.testing.assert_allclose(p, p.T, atol=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        # per-row entropy matches log(perplexity) within the stated tolerance
        for i in range(len(x)):
            row = cond[i][cond[i] > 0]
            h = -np.sum(row * np.log(row))
            assert abs(h - np.log(10.0)) < 1e-3

    def test_kl_decreases_on_blobs(self):
        x, _ = self._blobs(30, seed=2)
        _, info = tsne(x, perplexity=10.0, iters=150, seed=0, return_info=True)
        assert info.kl_divergences[-1] < info.kl_divergences[0]

    def test_separated_blobs_silhouette(self):
        x, labels = self._blobs(50, sep=25.0, seed=3)
        points = tsne(x, perplexity=30.0, iters=300, seed=1)
        assert hand_rolled_silhouette(points, labels) > 0.5

    def test_deterministic_per_seed(self):
        x, _ = self._blobs(20, seed=4)
        a = tsne(x, perplexity=10.0, iters=60, seed=7)
        b = tsne(x, perplexity=10.0, iters=60, seed=7)
        np.testing.assert_array_equal(a, b)
        c = tsne(x, perplexity=10.0, iters=60, seed=8)
        assert not np.allclose(a, c)

    def test_labels_never_affect_geometry(self):
        # the projection is a function of the embeddings alone
        x, labels = self._blobs(20, seed=5)
        a = tsne(x, perplexity=10.0, iters=60, seed=0)
        b = tsne(x, perplexity=10.0, iters=60, seed=0)  # labels unused by design
        np.testing.assert_array_equal(a, b)

    def test_perplexity_too_large_rejected(self):
        x, _ = self._blobs(10, seed=6)  # n = 20
        with pytest.raises(ValueError):
            tsne(x, perplexity=10.0, iters=10, seed=0)

    @pytest.mark.parametrize("iters", [0, -5])
    def test_no_iterations_rejected(self, iters):
        # Zero steps would return the random initial points as a projection.
        x, _ = self._blobs(20, seed=6)
        with pytest.raises(ValueError, match="iters"):
            tsne(x, perplexity=10.0, iters=iters, seed=0)

    def test_non_finite_rejected(self):
        x = np.zeros((40, 3))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            tsne(x, perplexity=5.0, iters=10, seed=0)

    # (1, -1e-9) is what the embed stage passes for a one-image test split:
    # it caps perplexity at (n - 1) / 3 - 1e-9.
    @pytest.mark.parametrize(
        "n, perplexity", [(1, -1e-9), (20, 0.0), (20, -5.0), (20, float("nan"))]
    )
    def test_non_positive_perplexity_rejected(self, n, perplexity):
        x = np.random.default_rng(6).normal(size=(n, 4))
        with pytest.raises(ValueError, match="perplexity"):
            tsne(x, perplexity=perplexity, iters=10, seed=0)

    def test_info_run_keeps_p_work_array_kl_scratch_and_row_blocks(self):
        # P, the work array, the n x n KL scratch and two row-block scratches:
        # under four n x n buffers, so a return to a fourth full buffer fails.
        # The distance and conditional matrices are released before the loop.
        n = 323
        x = np.random.default_rng(0).normal(size=(n, 32))
        tracemalloc.start()
        try:
            tsne(x, iters=TSNE_EXAGGERATION_ITERS + 10, seed=1, return_info=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8

    def test_plain_run_keeps_p_and_one_work_array(self):
        # P, the work array and two row-block scratches; the distance matrix
        # is released before P is formed from the conditionals.
        n = 416
        x = np.random.default_rng(0).normal(size=(n, 32))
        tracemalloc.start()
        try:
            tsne(x, iters=TSNE_EXAGGERATION_ITERS + 10, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    @pytest.mark.parametrize("n", [1, 4, 97, 416, 417, 640, 777, 5000])
    def test_row_blocks_tile_the_rows(self, n):
        spans = metrics._row_blocks(n)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))
        rows = spans[0][1]
        assert rows * n * 8 <= max(metrics._TSNE_BLOCK_BYTES, n * 8)
        assert all(0 < b - a <= rows for a, b in spans)


class TestTsneMatchesReference:
    """metrics.tsne equals the allocating reference loop bit for bit.

    iters below 100 stay in early exaggeration, 100-250 cross the
    exaggeration switch, above 250 also cross the momentum switch.
    n = 97 fits one row block, 417 ends in a shorter block, and 640 runs in
    at least five blocks (test_row_block_cases).
    """

    def test_row_block_cases(self):
        assert len(metrics._row_blocks(97)) == 1
        a, b = metrics._row_blocks(417)[-1]
        assert b - a < metrics._row_blocks(417)[0][1]
        assert len(metrics._row_blocks(640)) >= 5

    @pytest.mark.parametrize(
        "n, dtype, perplexity, seed, iters",
        [
            (40, np.float64, 5.0, 0, 60),
            (40, np.float32, 12.0, 3, 300),
            (100, np.float64, 30.0, 1, 180),
            (100, np.float32, 10.0, 7, 260),
            (416, np.float32, 30.0, 42, 270),
            (416, np.float64, 50.0, 5, 120),
            (97, np.float32, 20.0, 2, 260),
            (97, np.float64, 30.0, 9, 255),
            (417, np.float64, 30.0, 11, 270),
            (640, np.float32, 40.0, 4, 260),
        ],
    )
    def test_points_and_kl_identical(self, n, dtype, perplexity, seed, iters):
        rng = np.random.default_rng(n + seed)
        centers = rng.normal(scale=4.0, size=(11, 32))
        x = (centers[rng.integers(0, 11, size=n)] + rng.normal(size=(n, 32))).astype(dtype)
        ref_points, ref_kl = ref_tsne(x, perplexity=perplexity, iters=iters, seed=seed)

        points, info = tsne(x, perplexity=perplexity, iters=iters, seed=seed, return_info=True)
        assert np.array_equal(points, ref_points)
        assert info.kl_divergences == ref_kl
        plain = tsne(x, perplexity=perplexity, iters=iters, seed=seed)
        assert np.array_equal(plain, ref_points)


class TestCsv:
    def test_points_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points_csv(path, np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 5])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,label"
        assert lines[1].endswith(",0")
        assert len(lines) == 3

    def test_metrics_csv(self, tmp_path):
        cm = confusion([0, 3], [0, 3], 11)
        rep = binary_detection_metrics(cm)
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rep, {"extra_stat": 0.5})
        text = path.read_text()
        assert "accuracy,1.000000000" in text
        assert "extra_stat,0.500000000" in text
