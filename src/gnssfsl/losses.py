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


def _hinge(a: np.ndarray, x: np.ndarray, y: np.ndarray, margin: float):
    """sum_i max(d(a,x) - d(a,y) + margin, 0) and its gradients for a, x and y."""
    d_ax = _pair_distances(a, x)
    d_ay = _pair_distances(a, y)
    m = d_ax - d_ay + margin
    act = (m > 0)[:, None].astype(np.float64)
    u_ax = _unit_diff(a, x, d_ax)
    u_ay = _unit_diff(a, y, d_ay)
    return np.sum(np.maximum(m, 0.0)), act * (u_ax - u_ay), act * (-u_ax), act * u_ay


def triplet_loss(parts: np.ndarray, alpha: float):
    """loss = sum_i max(d(a,p) - d(a,n) + alpha, 0)."""
    if alpha <= 0:
        raise ValueError("margin must be positive")
    a, p, n = parts
    loss, *grads = _hinge(a, p, n, alpha)
    return float(loss), np.stack(grads)


def quadruplet_loss(parts: np.ndarray, alpha1: float, alpha2: float):
    """Two triplet hinges that share the anchor, over (a,p,s) and (a,s,n):

    loss = sum_i max(d(a,p) - d(a,s) + alpha1, 0)
         + sum_i max(d(a,s) - d(a,n) + alpha2, 0)
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("margins must be positive")
    a, p, s, n = parts
    loss1, da1, dp, ds1 = _hinge(a, p, s, alpha1)
    loss2, da2, ds2, dn = _hinge(a, s, n, alpha2)
    return float(loss1 + loss2), np.stack([da1 + da2, dp, ds1 + ds2, dn])


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
