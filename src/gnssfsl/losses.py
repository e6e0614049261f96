"""Batched cross-entropy and the three pairwise embedding losses, with exact gradients.

All pairwise losses sum over batch elements. Hinges take subgradient 0 at the
kink, so satisfied pairs contribute nothing to the gradient. Gradients are
returned per input role, aligned with the embedding arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nncore import softmax_normalize

# Margin grids that `gnssfsl sweep` trains, one model per setting.
TRIPLET_MARGIN_GRID = (2.0, 3.0, 5.0, 7.0, 10.0, 50.0, 100.0)
QUADRUPLET_MARGIN_GRID = (
    (2.0, 5.0),
    (5.0, 6.0),
    (5.0, 10.0),
    (10.0, 50.0),
    (50.0, 60.0),
    (50.0, 100.0),
)

_D_EPS = 1e-12  # distance floor guarding 1/d at coincident points


@dataclass
class PairBatch:
    """Aligned embedding rows for anchor/positive/negative (and similar) roles."""

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    similars: Optional[np.ndarray] = None

    def __post_init__(self):
        arrays = [self.anchors, self.positives, self.negatives]
        if self.similars is not None:
            arrays.append(self.similars)
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"misaligned pair arrays: {sorted(shapes)}")

    def __len__(self) -> int:
        return len(self.anchors)


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((a - b) ** 2, axis=1))


def _unit_diff(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(a - b) / d row-wise, zero where the points coincide."""
    safe = np.maximum(d, _D_EPS)[:, None]
    out = (a - b) / safe
    out[d <= _D_EPS] = 0.0
    return out


def _as_f64(batch: PairBatch):
    a = np.asarray(batch.anchors, dtype=np.float64)
    p = np.asarray(batch.positives, dtype=np.float64)
    n = np.asarray(batch.negatives, dtype=np.float64)
    s = None if batch.similars is None else np.asarray(batch.similars, dtype=np.float64)
    return a, p, n, s


def contrastive_loss(batch: PairBatch, alpha: float):
    """Squared pull on positive pairs plus squared hinge push on negatives.

    loss = sum_i d(a,p)^2 + max(alpha - d(a,n), 0)^2
    """
    if alpha <= 0:
        raise ValueError("margin must be positive")
    if len(batch) == 0:
        z = np.zeros_like(np.asarray(batch.anchors, dtype=np.float64))
        return 0.0, {"anchors": z, "positives": z.copy(), "negatives": z.copy()}
    a, p, n, _ = _as_f64(batch)
    diff_ap = a - p
    d_an = _pair_distances(a, n)
    hinge = np.maximum(alpha - d_an, 0.0)
    loss = float(np.sum(diff_ap**2) + np.sum(hinge**2))

    da = 2.0 * diff_ap
    dp = -2.0 * diff_ap
    # d/d a of max(alpha - d, 0)^2 = -2 * hinge * (a - n)/d on the active set
    u_an = _unit_diff(a, n, d_an)
    push = -2.0 * hinge[:, None] * u_an
    da = da + push
    dn = -push
    return loss, {"anchors": da, "positives": dp, "negatives": dn}


def triplet_loss(batch: PairBatch, alpha: float):
    """loss = sum_i max(d(a,p) - d(a,n) + alpha, 0)."""
    if alpha <= 0:
        raise ValueError("margin must be positive")
    if len(batch) == 0:
        z = np.zeros_like(np.asarray(batch.anchors, dtype=np.float64))
        return 0.0, {"anchors": z, "positives": z.copy(), "negatives": z.copy()}
    a, p, n, _ = _as_f64(batch)
    d_ap = _pair_distances(a, p)
    d_an = _pair_distances(a, n)
    margin = d_ap - d_an + alpha
    active = margin > 0
    loss = float(np.sum(margin[active]))

    u_ap = _unit_diff(a, p, d_ap)
    u_an = _unit_diff(a, n, d_an)
    act = active[:, None].astype(np.float64)
    da = act * (u_ap - u_an)
    dp = act * (-u_ap)
    dn = act * u_an
    return loss, {"anchors": da, "positives": dp, "negatives": dn}


def quadruplet_loss(batch: PairBatch, alpha1: float, alpha2: float):
    """Two hinge sums over (a,p,s) and (a,s,n):

    loss = sum_i max(d(a,p) - d(a,s) + alpha1, 0)
         + sum_i max(d(a,s) - d(a,n) + alpha2, 0)
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("margins must be positive")
    if batch.similars is None:
        raise ValueError("quadruplet loss needs similar samples")
    if len(batch) == 0:
        z = np.zeros_like(np.asarray(batch.anchors, dtype=np.float64))
        return 0.0, {
            "anchors": z,
            "positives": z.copy(),
            "similars": z.copy(),
            "negatives": z.copy(),
        }
    a, p, n, s = _as_f64(batch)
    d_ap = _pair_distances(a, p)
    d_as = _pair_distances(a, s)
    d_an = _pair_distances(a, n)
    m1 = d_ap - d_as + alpha1
    m2 = d_as - d_an + alpha2
    act1 = (m1 > 0)[:, None].astype(np.float64)
    act2 = (m2 > 0)[:, None].astype(np.float64)
    loss = float(np.sum(np.maximum(m1, 0.0)) + np.sum(np.maximum(m2, 0.0)))

    u_ap = _unit_diff(a, p, d_ap)
    u_as = _unit_diff(a, s, d_as)
    u_an = _unit_diff(a, n, d_an)
    da = act1 * (u_ap - u_as) + act2 * (u_as - u_an)
    dp = act1 * (-u_ap)
    ds = act1 * u_as - act2 * u_as
    dn = act2 * u_an
    return loss, {"anchors": da, "positives": dp, "similars": ds, "negatives": dn}


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over rows; gradient of the mean w.r.t. logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    s = softmax_normalize(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(b), labels]))
    grad = s.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b
