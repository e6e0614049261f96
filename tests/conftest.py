import os

import numpy as np
import pytest

from gnssfsl import cli, fsl


def max_rel_err(analytic, numeric, zero_floor=1e-6):
    """Worst relative disagreement; coordinates where both sides are tiny pass."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    rel = np.where(scale < zero_floor, 0.0, err / np.maximum(scale, 1e-300))
    return float(rel.max()) if rel.size else 0.0


def central_diff(f, x, eps=1e-4):
    """Central finite differences of scalar f over every coordinate of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        fp = f(x)
        xf[i] = orig - eps
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * eps)
    return grad


def force_member_workers(monkeypatch, workers: int) -> None:
    """Make the stages that fork (gen-data, ensemble, mine) run on `workers`
    (1 or 2) processes: two usable cores, with two BLAS threads for one worker
    and one thread for two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(2 // workers))


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small balanced 11-class corpus shared across training-level tests."""
    out = tmp_path_factory.mktemp("tiny") / "corpus"
    counts = {c: 8 for c in range(11)}
    return cli.generate_corpus(out, profile="desk", seed=11, counts=counts)


@pytest.fixture()
def quick_config():
    return fsl.TrainConfig(
        loss="ce",
        epochs=2,
        episodes_per_epoch=3,
        conv_channels=(4, 8),
        embed_dim=16,
        k_shot=2,
        n_query=2,
        pair_batch=4,
        seed=5,
    )
