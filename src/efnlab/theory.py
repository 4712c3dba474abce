"""Analytic predictions and the conditional-Gaussian machinery behind them.

Conditioning the correlation sequence on one Fourier coefficient of the noise
gives a Gaussian vector with a cosine mean and a circulant covariance.  This
module samples its zero-mean part, scaled to unit variance, by a half-spectrum
filter, estimates the phase-convergence constant by Monte-Carlo, evaluates the
closed-form high-dimensional rates, and exposes the extreme-value helpers
(Gumbel normalizing constants, the softmax approximation of argmax
functionals) used to cross-validate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .alignment import Pool, align_rows, blocks, chunk_arrays, chunks, run_blocks
from .errors import InvalidArgumentError, integral
from .signals import TemplateSignal

#: Fewest draws :func:`estimate_ck_profile` accepts.
CK_MIN_DRAWS = 1000


# ---------------------------------------------------------------------------
# Conditional Gaussian construction
# ---------------------------------------------------------------------------

def build_conditional_gaussian(template: TemplateSignal, k: int) -> np.ndarray:
    """The zero-mean part of the correlation sequence's law given one noise
    Fourier coefficient N[k], scaled to unit variance, as its read-only
    half-spectrum filter h.

    The law of c_r = <n, T_r x> for white n given N[k] is A (I - P_k) A^T,
    where row r of A is the template shifted by r and P_k projects onto the
    cosine and sine at k.  It is circulant, with weight w_l = |X[l]|^2 at
    every bin l but the conditioned pair (k, d-k), where w is 0; scaled to a
    unit diagonal, h^2 = d w / sum(w) at bins 0 .. d/2.  The law's cosine
    mean, 2 |X[k]| |N[k]| cos(2*pi*k*r/d + phi_N - phi_X[k]), is the caller's.
    """
    d = template.d
    if not (0 <= k <= d - 1):
        raise InvalidArgumentError(f"frequency index {k} out of range for d={d}")
    w = template.magnitudes**2
    w[[k, (d - k) % d]] = 0.0
    total = w.sum()
    if total <= 0.0:
        raise InvalidArgumentError("covariance weights vanish; template has no usable spectrum")
    h = np.sqrt(d / total * w[: d // 2 + 1])
    h.flags.writeable = False
    return h


def sample_cyclostationary(cg: np.ndarray, rng, size: int) -> np.ndarray:
    """Draw ``size`` rows of the zero-mean law whose half-spectrum filter is ``cg``.

    Returns a (size, d) array, d = 2 (len(cg) - 1).  Each row is irfft(W cg)
    for W the rfft of d white normals, drawn directly from d normals: 0 and 1
    are its real DC and Nyquist bins (variance d), 2j and 2j+1 bin j's real
    and imaginary parts (variance d/2 each).  Row i takes normals d*i ..
    d*(i+1)-1 of the stream, so consecutive calls give one larger call, bit
    for bit.
    """
    d = 2 * (cg.size - 1)
    x = np.random.default_rng(rng).standard_normal((int(size), d))
    spec = np.empty((x.shape[0], cg.size), complex)
    spec[:, 0], spec[:, -1] = x[:, 0], x[:, 1]
    np.multiply(x[:, 2:].view(complex), math.sqrt(0.5), out=spec[:, 1:-1])
    spec *= math.sqrt(d) * cg
    return np.fft.irfft(spec, d, axis=1)


# ---------------------------------------------------------------------------
# Gumbel constants and the softmax argmax approximation
# ---------------------------------------------------------------------------

def gumbel_constants(d: int) -> tuple[float, float]:
    """(a_d, b_d), the normalizing constants for the maximum of d
    near-independent Gaussians: a_d = sqrt(2 ln d);
    b_d = a_d - (ln ln d + ln 4*pi) / (2 a_d)."""
    if d < 3:
        raise InvalidArgumentError("gumbel constants need d >= 3 (ln ln d must be defined)")
    a = math.sqrt(2.0 * math.log(d))
    b = a - (math.log(math.log(d)) + math.log(4.0 * math.pi)) / (2.0 * a)
    return a, b


def softmax_expectation(f, mean) -> float:
    """Softmax approximation of E[f(argmax)]:
    sum_r f(r) e^{mean_r * a_d} / sum_r e^{mean_r * a_d}, a_d = sqrt(2 ln d).

    Computed with max-subtraction; the result is bounded by max |f|.
    """
    f = np.asarray(f, dtype=float)
    mu = np.asarray(mean, dtype=float)
    if f.shape != mu.shape or f.ndim != 1 or f.size == 0:
        raise InvalidArgumentError("f and mean must be equal-length 1-d sequences")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(mu))):
        raise InvalidArgumentError("softmax_expectation requires finite inputs")
    a_d = math.sqrt(2.0 * math.log(f.size)) if f.size > 1 else 0.0
    w = a_d * mu
    w -= w.max()
    e = np.exp(w)
    return float((f * e).sum() / e.sum())


# ---------------------------------------------------------------------------
# Monte-Carlo alignment moments and the phase-rate constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentMoments:
    """Per-frequency moments of a = |N[k]| sin(phi_e[k]), b = |N[k]| cos(phi_e[k])
    over fresh single-observation alignments of unit noise, at the requested
    frequencies, and the phase-rate constant C_k = E[a^2] / E[b]^2 with its
    standard error.  C_k does not depend on the noise level; mu_b scales with it."""

    ks: np.ndarray
    mu_a: np.ndarray
    mu_a_stderr: np.ndarray
    mu_b: np.ndarray
    mu_b_stderr: np.ndarray
    ck: np.ndarray
    ck_stderr: np.ndarray
    trials: int


def _moment_sums(template: TemplateSignal, kset: np.ndarray, seed, draws: int) -> np.ndarray:
    """The (6, len(kset)) sums of a, a^2, a^4, b, b^2 and a^2 b over one block's draws, in row order."""
    d = template.d
    upper = kset > d // 2
    bins = np.where(upper, d - kset, kset)
    scale = 1.0 / (d * template.magnitudes[kset])
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    rng = np.random.default_rng(seed)
    filt, noise, spec, corr = chunk_arrays(template, draws)
    z, turn = np.empty((2, len(noise), kset.size), complex)
    lag = np.empty((len(noise), kset.size), int)
    terms = np.empty((len(noise), 6, kset.size))
    total = 0.0
    for start, stop in chunks(draws, d):
        m = stop - start
        shifts = align_rows(rng.standard_normal(out=noise[:m]), filt, spec, corr)
        # every index is in range; take's default mode would copy through a fresh buffer
        zm = np.take(spec[:m], bins, axis=1, out=z[:m], mode="clip")
        np.conjugate(zm, out=zm, where=upper)
        np.remainder(np.multiply.outer(shifts, kset, out=lag[:m]), d, out=lag[:m])
        zm *= np.multiply(np.take(roots, lag[:m], out=turn[:m], mode="clip"), scale, out=turn[:m])
        # a, a^2, a^4, b, b^2, a^2 b side by side, as numpy sums 1-entry rows pairwise
        a, a2, a4, b, b2, a2b = terms[:m].transpose(1, 0, 2)
        a[:], b[:] = zm.imag, zm.real
        np.square(a, out=a2)
        np.square(a2, out=a4)
        np.square(b, out=b2)
        np.multiply(a2, b, out=a2b)
        terms[0] += total
        total = terms[:m].sum(axis=0)
    return total


def alignment_moments(
    template: TemplateSignal, trials: int, seed, *, ks: Sequence[int], workers: Optional[int] | Pool = None,
) -> AlignmentMoments:
    """Run ``trials`` (a whole number >= 1) single-observation alignments of
    unit noise and collect the per-k moments of the residual-phase sine/cosine
    terms at the bins ``ks`` (see :meth:`~efnlab.signals.TemplateSignal.require_bins`).

    The draws are split into keyed blocks (:func:`~efnlab.alignment.blocks`
    of ``seed``, an int or a SeedSequence) that run on up to ``workers``
    processes, or on the :class:`~efnlab.alignment.Pool` ``workers``, ahead
    of the loop it holds back (a walk's trials).  Within a block the
    alignment runs through the production kernel, in fixed-size chunks of
    draws.  Bin k is read from the kernel's
    filtered product d N[k] conj(X[k]) (unitary N and X; the conjugate of
    bin d-k for k > d/2), turned by the shift's root of unity from a table
    and scaled by 1/(d |X[k]|) to N[k] e^{2 pi i k s / d} e^{-i phi_X[k]}:
    its imaginary part is a and its real part b.  The scale needs every bin
    above the template's floor; an excluded bin, such as a zeroed DC bin,
    raises ExcludedBinError.  Each chunk's terms are summed into the
    block's totals in draw order, and the block totals are added in block
    order, so the result depends on neither the chunk size nor the worker
    count.
    """
    template.require_alignable()
    trials = integral("trials", trials, 1)
    kset = template.require_bins(ks)
    parts = run_blocks(_moment_sums, [(template, kset, ss, n) for ss, n in blocks(trials, seed)], workers)
    total = sum(parts)

    mu_a, m2a, m4a, mu_b, m2b, m2ab = total / trials
    var_a = np.maximum(m2a - mu_a**2, 0.0)
    var_b = np.maximum(m2b - mu_b**2, 0.0)
    # C_k = m2a / mu_b^2; its variance by the delta method, from the
    # variances of m2a and mu_b and their covariance
    var_m2a = np.maximum(m4a - m2a**2, 0.0) / trials
    cov = (m2ab - m2a * mu_b) / trials
    g1 = 1.0 / mu_b**2
    g2 = -2.0 * m2a / mu_b**3
    var_ck = g1 * g1 * var_m2a + g2 * g2 * (var_b / trials) + 2.0 * g1 * g2 * cov
    return AlignmentMoments(
        ks=kset,
        mu_a=mu_a,
        mu_a_stderr=np.sqrt(var_a / trials),
        mu_b=mu_b,
        mu_b_stderr=np.sqrt(var_b / trials),
        ck=m2a / mu_b**2,
        ck_stderr=np.sqrt(np.maximum(var_ck, 0.0)),
        trials=trials,
    )


def estimate_ck_profile(
    template: TemplateSignal, trials: int, seed, *, ks: Sequence[int], workers: Optional[int] | Pool = None,
) -> AlignmentMoments:
    """The unit-noise alignment moments and C_k at several frequencies, from
    ``trials`` draws, a whole number >= :data:`CK_MIN_DRAWS`.

    The numerator of C_k is the plain second moment of the sine term: its
    mean is 0 by the sign-flip symmetry of the argmax, so the second moment
    equals the variance the limit theorem wants.
    """
    trials = integral("trials", trials, CK_MIN_DRAWS)
    return alignment_moments(template, trials, seed, ks=ks, workers=workers)


# ---------------------------------------------------------------------------
# Closed-form high-dimensional predictions
# ---------------------------------------------------------------------------

def predict_phase_mse(template: TemplateSignal, ks, M: int) -> np.ndarray:
    """Predicted phase MSE at bins ks for M observations, a whole number >= 1:
    1 / (4 |X[k]|^2 M ln d).

    This is the d -> infinity limit: it uses a_d^2 = 2 ln d for the squared
    expected maximum of the correlation sequence.  At finite d with a white
    correlation sequence (flat template) that maximum has mean m_d < a_d, and
    the true rate sits a factor kappa_d = (a_d / m_d)^2 above this form (1.29
    at d = 2048, 1.17 at d = 2^20).  The fixed-d rate is C_k / M, with C_k
    from :func:`estimate_ck_profile`.
    """
    M = integral("M", M, 1)
    return 1.0 / (4.0 * template.magnitudes[template.require_bins(ks)] ** 2 * M * math.log(template.d))


def predict_magnitude(template: TemplateSignal, ks) -> np.ndarray:
    """Predicted estimator magnitude at bins ks for unit noise: sqrt(2 ln d) * |X[k]|.

    This is the d -> infinity limit.  At finite d with a white correlation
    sequence (flat template) the expected magnitude is m_d |X[k]|, where m_d
    is the expected maximum of the correlation sequence, so this form is off
    by the factor m_d / a_d (0.88 at d = 2048).  The fixed-d magnitude is the
    Monte-Carlo E[|N[k]| cos(phi_e[k])], ``mu_b`` of
    :func:`estimate_ck_profile`.
    """
    return math.sqrt(2.0 * math.log(template.d)) * template.magnitudes[template.require_bins(ks)]
