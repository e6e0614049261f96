"""Few-shot GNSS interference classification on synthetic spectrograms."""

from . import corpus, fsl, losses, metrics, nncore, siggen, spectro, uncertainty

__all__ = ["siggen", "spectro", "corpus", "nncore", "losses", "uncertainty", "fsl", "metrics"]
__version__ = "0.1.0"
