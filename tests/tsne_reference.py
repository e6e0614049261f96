"""Reference t-SNE gradient loop, kept as a bit-exactness oracle.

`ref_tsne` is the straightforward dense loop: every iteration allocates its
n x n temporaries, builds the gradient matrix with `np.diag`, and evaluates
the KL objective. `metrics.tsne` must return the same points (array_equal)
and the same KL log (==), not just agree to rounding.
"""

import numpy as np

from gnssfsl import metrics
from gnssfsl.metrics import _EPS


def ref_tsne(
    embeddings,
    perplexity=30.0,
    iters=1000,
    momentum_schedule=(0.5, 0.8),
    seed=0,
    learning_rate=200.0,
    momentum_switch_iter=250,
    early_exaggeration=4.0,
    exaggeration_iters=100,
):
    """(points, kl_log) of the dense loop, with metrics' affinities."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    sq = np.sum(x**2, axis=1)
    sq_dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    cond = metrics._conditional_probs(sq_dists, perplexity)
    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, _EPS)

    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 1e-4
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    initial_momentum, final_momentum = momentum_schedule

    p_run = p * early_exaggeration
    kl_log = []
    for it in range(iters):
        if it == exaggeration_iters:
            p_run = p
        ysq = np.sum(y**2, axis=1)
        num = 1.0 / (1.0 + ysq[:, None] + ysq[None, :] - 2.0 * (y @ y.T))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), _EPS)

        kl_log.append(float(np.sum(p * np.log(p / q))))

        pq = (p_run - q) * num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)

        momentum = initial_momentum if it < momentum_switch_iter else final_momentum
        flip = np.sign(grad) != np.sign(velocity)
        gains = np.where(flip, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y, kl_log
