"""Classification metrics and an exact (dense) t-SNE projection.

The binary collapse maps multiclass results onto the detection task: labels
0-2 count as clean background, 3-10 as interference. t-SNE is the plain
O(n^2) algorithm with per-point bandwidth found by binary search on the
conditional-distribution entropy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_CLASSES = 11
FIRST_POSITIVE_CLASS = 3

_EPS = np.finfo(np.float64).eps


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # K x K int64, rows true, columns predicted

    def __post_init__(self):
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("negative counts")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        t = self.total
        return float(np.trace(self.counts)) / t if t else 0.0

    def per_class_precision(self) -> np.ndarray:
        col = self.counts.sum(axis=0).astype(np.float64)
        diag = np.diag(self.counts).astype(np.float64)
        return np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)

    def per_class_recall(self) -> np.ndarray:
        row = self.counts.sum(axis=1).astype(np.float64)
        diag = np.diag(self.counts).astype(np.float64)
        return np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)


@dataclass
class MetricReport:
    accuracy: float
    precision: np.ndarray  # per class
    recall: np.ndarray  # per class
    macro_f1: float
    macro_f2: float
    binary_precision: float = float("nan")
    binary_recall: float = float("nan")
    binary_f1: float = float("nan")
    binary_f2: float = float("nan")
    binary_accuracy: float = float("nan")


def confusion(true_labels, predicted_labels, num_classes: int) -> ConfusionMatrix:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"label lists misaligned: {t.shape} vs {p.shape}")
    if t.size and (t.min() < 0 or t.max() >= num_classes or p.min() < 0 or p.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts)


def f_beta(precision: float, recall: float, beta: float) -> float:
    if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
        raise ValueError("precision and recall must lie in [0, 1]")
    if beta <= 0:
        raise ValueError("beta must be positive")
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


def macro_f_beta(cm: ConfusionMatrix, beta: float, classes=None) -> float:
    """Unweighted mean one-vs-rest F-beta over the selected classes."""
    prec = cm.per_class_precision()
    rec = cm.per_class_recall()
    sel = range(cm.num_classes) if classes is None else classes
    return float(np.mean([f_beta(prec[c], rec[c], beta) for c in sel]))


def macro_recall(cm: ConfusionMatrix, classes=None) -> float:
    rec = cm.per_class_recall()
    sel = range(cm.num_classes) if classes is None else classes
    return float(np.mean([rec[c] for c in sel]))


def binary_detection_metrics(cm: ConfusionMatrix) -> MetricReport:
    """Collapse the 11-class matrix onto clean-vs-interference and score it."""
    if cm.num_classes != NUM_CLASSES:
        raise ValueError(f"expected a {NUM_CLASSES}-class matrix, got {cm.num_classes}")
    c = cm.counts
    neg = slice(0, FIRST_POSITIVE_CLASS)
    pos = slice(FIRST_POSITIVE_CLASS, cm.num_classes)
    tn = int(c[neg, neg].sum())
    fp = int(c[neg, pos].sum())
    fn = int(c[pos, neg].sum())
    tp = int(c[pos, pos].sum())

    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    total = tn + fp + fn + tp
    return MetricReport(
        accuracy=cm.accuracy(),
        precision=cm.per_class_precision(),
        recall=cm.per_class_recall(),
        macro_f1=macro_f_beta(cm, 1.0),
        macro_f2=macro_f_beta(cm, 2.0),
        binary_precision=precision,
        binary_recall=recall,
        binary_f1=f_beta(precision, recall, 1.0),
        binary_f2=f_beta(precision, recall, 2.0),
        binary_accuracy=(tp + tn) / total if total else 0.0,
    )


# ---------------------------------------------------------------------------
# Exact t-SNE
# ---------------------------------------------------------------------------


def _conditional_probs(sq_dists: np.ndarray, perplexity: float, tol: float = 1e-4):
    """Per-row Gaussian conditionals whose entropy matches log(perplexity)."""
    n = sq_dists.shape[0]
    target = np.log(perplexity)
    p = np.zeros((n, n))
    for i in range(n):
        d = np.delete(sq_dists[i], i)
        beta, beta_min, beta_max = 1.0, 0.0, np.inf
        row = None
        for _ in range(200):
            w = np.exp(-d * beta)
            sw = w.sum()
            if sw <= 0.0:
                beta_max = beta
                beta = (beta + beta_min) / 2.0
                continue
            row = w / sw
            h = np.log(sw) + beta * float(np.dot(d, row))
            diff = h - target
            if abs(diff) <= tol:
                break
            if diff > 0:  # entropy too high -> sharpen
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = (beta + beta_min) / 2.0
        p[i, np.arange(n) != i] = row
    return p


@dataclass
class TsneResult:
    kl_divergences: list  # one entry per iteration


# The classic optimizer schedule: momentum 0.5 until iteration 250, then 0.8;
# affinities exaggerated 4x for the first 100 iterations.
TSNE_LEARNING_RATE = 200.0
TSNE_MOMENTUM = (0.5, 0.8)
TSNE_MOMENTUM_SWITCH_ITER = 250
TSNE_EXAGGERATION = 4.0
TSNE_EXAGGERATION_ITERS = 100

# Bytes of each t-SNE row-block scratch. Two of them plus the block of the
# work array stay inside a 2 MB per-core L2; at n = 416 this gives 104-row
# blocks, and 64- to 139-row blocks ran within 12% of each other.
_TSNE_BLOCK_BYTES = (1 << 20) // 3


def _row_blocks(n: int) -> list:
    """Row spans [a, b) of near-equal height covering n rows of an n x n
    float64 array, each block at most _TSNE_BLOCK_BYTES (one row at least)."""
    blocks = -(-n // max(1, _TSNE_BLOCK_BYTES // (8 * n)))
    rows = -(-n // blocks)
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


def tsne(
    embeddings: np.ndarray,
    perplexity: float = 30.0,
    iters: int = 1000,
    seed: int = 0,
    return_info: bool = False,
):
    """Dense t-SNE to 2-D with the classic momentum/gain schedule.

    Returns the (n, 2) points, or `(points, TsneResult)` when `return_info`
    is set; the KL objective is evaluated only in that case.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) embeddings, got {x.shape}")
    n = x.shape[0]
    if not np.all(np.isfinite(x)):
        raise ValueError("embeddings contain non-finite values")
    if not perplexity > 0:
        raise ValueError(f"perplexity must be positive, got {perplexity}")
    if n <= 3 * perplexity:
        raise ValueError(f"need n > 3*perplexity, got n={n}, perplexity={perplexity}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    sq = np.sum(x**2, axis=1)
    # sq_dists = max(sq_i + sq_j - 2 x_i.x_j, 0), formed in place.
    gram = x @ x.T
    gram *= 2.0
    sq_dists = np.add(sq[:, None], sq[None, :])
    sq_dists -= gram
    del gram
    np.maximum(sq_dists, 0.0, out=sq_dists)
    cond = _conditional_probs(sq_dists, perplexity)
    del sq_dists
    p = np.add(cond, cond.T)
    del cond
    p /= 2.0 * n
    np.maximum(p, _EPS, out=p)

    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 1e-4
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    initial_momentum, final_momentum = TSNE_MOMENTUM

    # Besides p, one n x n work array w holds y y^T, then the Student-t
    # kernel num, then the negated gradient matrix. The elementwise work runs
    # on row blocks of w with two block scratches (t and u), so each block's
    # passes stay in cache. Each step keeps the operands and operand order of
    # the plain expressions in tests/tsne_reference.py, so the result is
    # bit-for-bit theirs; the whole-matrix calls (y y^T, num.sum() and the
    # gradient product) stay whole because blocking them changes their bits.
    w = np.empty((n, n))
    spans = _row_blocks(n)
    t = np.empty((spans[0][1], n))
    u = np.empty_like(t)
    w_diag = w.reshape(-1)[:: n + 1]
    # (1 + ysq_i) + ysq_j as the product of [1 + ysq, 1] and [1; ysq]: both
    # terms are multiplied by 1.0, so the only rounding is the sum's, and it
    # costs about half the broadcast add.
    lhs = np.ones((n, 2))
    rhs = np.ones((2, n))
    kl_terms = np.empty((n, n)) if return_info else None
    kl_log = []
    for it in range(iters):
        ysq = np.sum(y**2, axis=1)
        np.add(1.0, ysq, out=lhs[:, 0])
        rhs[1] = ysq
        # num = 1 / ((1 + ysq_i) + ysq_j - 2 y_i.y_j), zero on the diagonal
        np.matmul(y, y.T, out=w)
        for a, b in spans:
            w_b, t_b = w[a:b], t[: b - a]
            np.matmul(lhs[a:b], rhs, out=t_b)
            w_b *= 2.0
            t_b -= w_b
            np.divide(1.0, t_b, out=w_b)
            w_diag[a:b] = 0.0
        total = w.sum()

        exaggerate = it < TSNE_EXAGGERATION_ITERS
        for a, b in spans:
            w_b, t_b, q_b, p_b = w[a:b], t[: b - a], u[: b - a], p[a:b]
            np.divide(w_b, total, out=q_b)
            np.maximum(q_b, _EPS, out=q_b)
            if return_info:
                # Objective tracked against the true P even while exaggeration is on.
                kl_b = kl_terms[a:b]
                np.divide(p_b, q_b, out=kl_b)
                np.log(kl_b, out=kl_b)
                kl_b *= p_b
            p_run = np.multiply(p_b, TSNE_EXAGGERATION, out=t_b) if exaggerate else p_b
            # pq = (p_run - q) * num. The gradient matrix is
            # diag(rowsum(pq)) - pq; w keeps its negation.
            np.subtract(p_run, q_b, out=q_b)
            np.multiply(q_b, w_b, out=w_b)
            d = w_b.sum(axis=1) - w_diag[a:b]
            np.negative(d, out=w_diag[a:b])
        if return_info:
            kl_log.append(float(kl_terms.sum()))
        grad = 4.0 * -(w @ y)

        momentum = initial_momentum if it < TSNE_MOMENTUM_SWITCH_ITER else final_momentum
        flip = np.sign(grad) != np.sign(velocity)
        gains = np.where(flip, gains + 0.2, gains * 0.8)
        np.maximum(gains, 0.01, out=gains)
        velocity *= momentum
        velocity -= TSNE_LEARNING_RATE * gains * grad
        y += velocity
        y -= y.mean(axis=0)

    if return_info:
        return y, TsneResult(kl_log)
    return y


def write_points_csv(path: str | Path, points: np.ndarray, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "label"])
        for (px, py), lbl in zip(points, labels):
            writer.writerow([f"{px:.9f}", f"{py:.9f}", int(lbl)])


def write_metrics_csv(path: str | Path, report: MetricReport, extra: dict | None = None) -> None:
    rows = [
        ("accuracy", report.accuracy),
        ("macro_f1", report.macro_f1),
        ("macro_f2", report.macro_f2),
        ("binary_precision", report.binary_precision),
        ("binary_recall", report.binary_recall),
        ("binary_f1", report.binary_f1),
        ("binary_f2", report.binary_f2),
        ("binary_accuracy", report.binary_accuracy),
    ]
    for c, (pr, rc) in enumerate(zip(report.precision, report.recall)):
        rows.append((f"precision_{c}", pr))
        rows.append((f"recall_{c}", rc))
    if extra:
        rows.extend(sorted(extra.items()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name, value in rows:
            writer.writerow([name, f"{value:.9f}"])
