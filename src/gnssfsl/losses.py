"""Batched cross-entropy and the two pairwise embedding losses, with exact gradients.

Each pairwise loss takes one stacked `(roles, B, D)` array of embeddings whose
rows are in sampling order: (anchor, positive, negative) for triplet,
(anchor, positive, similar, negative) for quadruplet. It returns
`(loss, gradient)`, with the gradient shaped like the input. Losses sum over
the B batch elements, so B = 0 gives loss 0.0. Hinges take subgradient 0 at
the kink, so satisfied pairs contribute nothing to the gradient.
"""

from __future__ import annotations

import numpy as np

_D_EPS = 1e-12  # distance floor guarding 1/d at coincident points


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((a - b) ** 2, axis=1))


def _unit_diff(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(a - b) / d row-wise, zero where the points coincide."""
    safe = np.maximum(d, _D_EPS)[:, None]
    out = (a - b) / safe
    out[d <= _D_EPS] = 0.0
    return out


def triplet_loss(parts: np.ndarray, alpha: float):
    """loss = sum_i max(d(a,p) - d(a,n) + alpha, 0)."""
    if alpha <= 0:
        raise ValueError("margin must be positive")
    a, p, n = parts
    d_ap = _pair_distances(a, p)
    d_an = _pair_distances(a, n)
    margin = d_ap - d_an + alpha
    active = margin > 0
    loss = float(np.sum(margin[active]))

    u_ap = _unit_diff(a, p, d_ap)
    u_an = _unit_diff(a, n, d_an)
    act = active[:, None].astype(np.float64)
    return loss, act * np.stack([u_ap - u_an, -u_ap, u_an])


def quadruplet_loss(parts: np.ndarray, alpha1: float, alpha2: float):
    """Two hinge sums over (a,p,s) and (a,s,n):

    loss = sum_i max(d(a,p) - d(a,s) + alpha1, 0)
         + sum_i max(d(a,s) - d(a,n) + alpha2, 0)
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("margins must be positive")
    a, p, s, n = parts
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
    ds = act1 * u_as - act2 * u_as
    return loss, np.stack([da, act1 * (-u_ap), ds, act2 * u_an])


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over rows; gradient of the mean w.r.t. logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    rows = np.arange(b)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[rows, labels]))
    grad = e / z
    grad[rows, labels] -= 1.0
    return loss, grad / b
