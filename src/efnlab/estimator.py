"""The align-and-average estimate and its Pearson correlation with the template.

Averaging pure-noise observations after aligning each to a template produces
an estimate whose Fourier phases drift toward the template's -- the model
bias this package studies.  The averaging and the per-bin phase errors are
computed in :func:`efnlab.experiment.run_trial`; this module holds the
finalized estimate, with its complex unitary spectrum (read its magnitudes and
phases through :func:`efnlab.signals.polar`), and the correlation that
compares it with the template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, UndefinedCorrelationError
from .signals import dft


@dataclass(frozen=True)
class EfnEstimate:
    """Finalized estimate: the average of the aligned observations."""

    samples: np.ndarray
    spectrum: np.ndarray  # complex, read-only: dft(samples)
    M: int

    @classmethod
    def from_samples(cls, samples, M: int) -> "EfnEstimate":
        x = np.ascontiguousarray(samples, dtype=float)
        x.setflags(write=False)
        return cls(samples=x, spectrum=dft(x), M=int(M))


def pearson_correlation(a, b) -> float:
    """Centered, normalized inner product of two equal-length sequences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatchError("pearson_correlation requires equal-length 1-d inputs")
    da = a - a.mean()
    db = b - b.mean()
    na = float(da @ da)
    nb = float(db @ db)
    if na == 0.0 or nb == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant input")
    return float(da @ db / math.sqrt(na * nb))
