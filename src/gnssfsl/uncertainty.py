"""Deep-ensemble prediction and softmax-variance uncertainty decomposition.

An ensemble is M independently seeded copies of the classifier network; one
deterministic forward pass per member gives T = M softmax vectors per sample.
The per-sample covariance splits into a data (aleatoric) term, the mean of
diag(c) - c c^T over members, and a model (epistemic) term, the covariance of
the member outputs around their mean.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nncore import EmbeddingNetwork, softmax_normalize


@dataclass
class Ensemble:
    members: list

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        heads = {m.config.num_classes for m in self.members}
        if len(heads) != 1 or None in heads:
            raise ValueError("all members need the same classifier head")


@dataclass
class UncertaintyReport:
    """Decomposition of one sample (K x K matrices) or of N samples (N x K x K)."""

    aleatoric: np.ndarray  # (..., K, K)
    epistemic: np.ndarray  # (..., K, K)
    mean_softmax: np.ndarray  # (..., K)

    @property
    def aleatoric_trace(self):
        return np.trace(self.aleatoric, axis1=-2, axis2=-1)

    @property
    def epistemic_trace(self):
        return np.trace(self.epistemic, axis1=-2, axis2=-1)


def predict_member(member: EmbeddingNetwork, images) -> np.ndarray:
    """Softmax class probabilities for a batch, one member."""
    return softmax_normalize(member.infer(images, with_head=True))


def decompose_uncertainty(probs) -> UncertaintyReport:
    """Split predictive covariance into aleatoric and epistemic K x K parts.

    `probs` holds T softmax vectors: (T, K) for one sample, or (T, N, K) to
    decompose N samples at once, giving matrices with a leading N axis.
    """
    c = np.asarray(probs, dtype=np.float64)
    if c.ndim not in (2, 3):
        raise ValueError(f"expected (T, K) or (T, N, K) probabilities, got shape {c.shape}")
    if c.shape[0] == 0:
        raise ValueError("need at least one softmax vector")
    if np.any(c < -1e-9) or np.any(np.abs(c.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("inputs are not probability vectors")
    t, k = c.shape[0], c.shape[-1]
    mean = c.mean(axis=0)

    outer = np.einsum("t...i,t...j->t...ij", c, c)
    aleatoric = np.zeros(mean.shape + (k,))
    aleatoric[..., np.arange(k), np.arange(k)] = mean
    aleatoric -= outer.mean(axis=0)

    dev = c - mean
    epistemic = np.einsum("t...i,t...j->...ij", dev, dev) / t

    return UncertaintyReport(aleatoric, epistemic, mean)


def write_uncertainty_csv(
    path: str | Path,
    sample_ids,
    true_labels,
    predicted_labels,
    report: UncertaintyReport,
) -> None:
    """One row per sample of a batched report (see decompose_uncertainty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "true_label", "predicted_label", "aleatoric_trace", "epistemic_trace"]
        )
        rows = zip(
            sample_ids, true_labels, predicted_labels,
            report.aleatoric_trace, report.epistemic_trace,
        )
        for sid, t, p, alea, epi in rows:
            writer.writerow([sid, int(t), int(p), f"{alea:.9f}", f"{epi:.9f}"])
