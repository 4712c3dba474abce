"""The align-and-average estimate and its phase/magnitude error metrics.

Averaging pure-noise observations after aligning each to a template produces
an estimate whose Fourier phases drift toward the template's -- the model
bias this package studies.  The averaging itself runs in
:func:`efnlab.experiment.run_trial`; this module holds the finalized estimate
and the metrics that compare it with the template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InsufficientDataError, LengthMismatchError, UndefinedCorrelationError
from .signals import SpectralRepr, TemplateSignal, dft, wrap_phase


@dataclass(frozen=True)
class EfnEstimate:
    """Finalized estimate: the average of the aligned observations."""

    samples: np.ndarray
    spectrum: SpectralRepr
    M: int

    @classmethod
    def from_samples(cls, samples, M: int) -> "EfnEstimate":
        x = np.ascontiguousarray(samples, dtype=float)
        x.setflags(write=False)
        return cls(samples=x, spectrum=dft(x), M=int(M))


def phase_error(estimate: EfnEstimate, template: TemplateSignal, k: int) -> float:
    """Wrapped phase difference of the estimate against the template at bin k.

    The raw difference is wrapped into (-pi, pi] before any squaring; bins
    where the template magnitude sits at the floor (in particular a zeroed DC)
    raise ExcludedBinError.
    """
    template.require_bin(k)
    raw = estimate.spectrum.phases[k] - template.spectrum.phases[k]
    return float(wrap_phase(raw))


class PhaseMse(NamedTuple):
    mse: float
    stderr: float


def phase_mse(trials: Iterable[EfnEstimate], template: TemplateSignal, k: int) -> PhaseMse:
    """Mean squared wrapped phase error across independent estimates."""
    sq = np.asarray([phase_error(e, template, k) ** 2 for e in trials])
    if sq.size < 2:
        raise InsufficientDataError("phase_mse needs at least 2 trials")
    return PhaseMse(float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(sq.size)))


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
