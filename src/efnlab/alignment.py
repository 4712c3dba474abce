"""Maximal-correlation shift estimation.

The shift assigned to a noise observation n is the argmax over cyclic lags l
of <n, T_l x>, where T_l is the cyclic shift and x the template.  Three
routes compute the same correlation sequence:

* :func:`align_rows`             -- FFT-based, O(d log d), the production kernel
  behind :func:`correlation_sequence`, the trial loop and the ``C_k``
  Monte-Carlo;
* :func:`correlation_oracle`     -- direct O(d^2) sums, the test reference;
* :func:`fourier_correlation_sequence` -- the magnitude/phase cosine-sum form,
  assembled from the spectra's polar views.  Under the unitary convention it
  equals the real-space inner products exactly (no extra constant).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import LengthMismatchError
from .signals import TemplateSignal, circular_shift, dft, polar

#: Doubles per row chunk: every Monte-Carlo loop in the package (trials, the
#: ``C_k`` moments and the verify samplers) draws ``max(1, BUDGET // d)`` rows
#: at a time, so its peak memory is O(BUDGET) whatever the draw count.  The
#: loops fold chunks in row order or into integer counts, so their results do
#: not depend on it.
BUDGET = 1 << 19


def chunks(count: int, d: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """(start, stop) bounds of the fixed-size row chunks that cover rows ``start`` to ``count``."""
    step = max(1, BUDGET // d)
    for first in range(start, count, step):
        yield first, min(first + step, count)


def align_rows(rows: np.ndarray, template: TemplateSignal):
    """Align each row of an (m, d) block against the template.

    Returns ``(shifts, corr, spec)``: the argmax lag of each row (exact ties
    go to the smallest index), the (m, d) correlation rows, entry l of which
    is <row, T_l x>, and the rows' (m, d/2+1) unnormalized rfft.
    """
    if rows.shape[-1] != template.d:
        raise LengthMismatchError(f"noise length {rows.shape[-1]} != template length {template.d}")
    spec = np.fft.rfft(rows, axis=1)
    corr = np.fft.irfft(spec * np.conj(np.fft.rfft(template.samples))[None, :], template.d, axis=1)
    return np.argmax(corr, axis=1), corr, spec


def correlation_sequence(noise, template: TemplateSignal) -> np.ndarray:
    """Entry l equals <n, T_l x>, computed via fast transforms."""
    return align_rows(np.asarray(noise, dtype=float)[None, :], template)[1][0]


def correlation_oracle(noise, template: TemplateSignal) -> np.ndarray:
    """Direct O(d^2) evaluation of the same inner products (test reference)."""
    n = np.asarray(noise, dtype=float)
    if n.size != template.d:
        raise LengthMismatchError(f"noise length {n.size} != template length {template.d}")
    x = template.samples
    return np.asarray([float(n @ circular_shift(x, ell)) for ell in range(template.d)])


def fourier_correlation_sequence(noise, template: TemplateSignal) -> np.ndarray:
    """Polar-form correlation: entry r is
    sum_k |X[k]| |N[k]| cos(2*pi*k*r/d + phi_N[k] - phi_X[k]).
    """
    mag_n, phase_n = polar(dft(noise))
    d = mag_n.size
    if d != template.d:
        raise LengthMismatchError(f"noise length {d} != template length {template.d}")
    c = template.magnitudes * mag_n * np.exp(1j * (phase_n - template.phases))
    return (d * np.fft.ifft(c)).real

