"""Analytic predictions and the conditional-Gaussian machinery behind them.

Conditioning the correlation sequence on one Fourier coefficient of the noise
gives a Gaussian vector with a cosine mean and a circulant covariance.  This
module builds that object, samples it spectrally, estimates the
phase-convergence constant by Monte-Carlo, evaluates the closed-form
high-dimensional rates, and exposes the extreme-value helpers (Gumbel
normalizing constants, the softmax approximation of argmax functionals) used
to cross-validate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import align_rows, chunks
from .errors import InvalidArgumentError
from .signals import TemplateSignal

#: Fewest draws :func:`estimate_ck_profile` accepts.
CK_MIN_DRAWS = 1000


# ---------------------------------------------------------------------------
# Conditional Gaussian construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalGaussian:
    """Law of the correlation sequence given one noise Fourier coefficient.

    mean[r] = 2 |X[k]| nmag cos(2*pi*k*r/d + nphase - phi_X[k]); the covariance
    is circulant with Fourier weights ``spectral_eigenvalues`` (already scaled
    by sigma2, so they sum to 1 and the diagonal is exactly 1).
    """

    mean: np.ndarray
    spectral_eigenvalues: np.ndarray
    sigma2: float

    @property
    def d(self) -> int:
        return self.mean.size

    def covariance(self) -> np.ndarray:
        """Dense circulant covariance (for tests and small-d checks)."""
        first = (self.d * np.fft.ifft(self.spectral_eigenvalues)).real
        i = np.arange(self.d)
        return first[(i[:, None] - i[None, :]) % self.d]


def build_conditional_gaussian(
    template: TemplateSignal, k: int, noise_magnitude: float, noise_phase: float
) -> ConditionalGaussian:
    """Construct the conditional law at frequency k.

    The covariance weights zero the conditioned pair (k, d-k), keep bins 0 and
    d/2 as-is, and scale every other bin by sqrt(2); sigma2 is then fixed so
    the diagonal equals 1.
    """
    d = template.d
    if not (0 <= k <= d - 1):
        raise InvalidArgumentError(f"frequency index {k} out of range for d={d}")
    if noise_magnitude < 0:
        raise InvalidArgumentError("noise magnitude must be nonnegative")
    w = template.magnitudes**2
    t = 2.0 * w
    t[0] = w[0]
    t[d // 2] = w[d // 2]
    t[k] = 0.0
    t[(d - k) % d] = 0.0
    total = t.sum()
    if total <= 0.0:
        raise InvalidArgumentError("covariance weights vanish; template has no usable spectrum")
    sigma2 = 1.0 / total
    r = np.arange(d)
    phase = 2.0 * np.pi * k * r / d + noise_phase - template.phases[k]
    mean = 2.0 * template.magnitudes[k] * noise_magnitude * np.cos(phase)
    return ConditionalGaussian(
        mean=mean,
        spectral_eigenvalues=sigma2 * t,
        sigma2=sigma2,
    )


def sample_cyclostationary(cg: ConditionalGaussian, rng, size: int) -> np.ndarray:
    """Draw ``size`` rows from the conditional law by filtering white noise.

    Returns a (size, d) array.  Each row is mean + irfft(rfft(w) * h) for a
    white row w of d standard normals, with h[l] = sqrt(d (lambda_l +
    lambda_{d-l}) / 2) on the half spectrum l = 0 .. d/2.  The filter is
    circulant with eigenvalues h^2, which are the eigenvalues of the target
    covariance sum_l lambda_l cos(2*pi*l*(r-s)/d), so the law is exact;
    lambda is symmetrised here rather than required to be symmetric, since
    template spectra are symmetric only to rounding.  Row i takes normals
    d*i .. d*(i+1)-1 of the stream, so consecutive calls give the rows of
    one larger call, bit for bit.
    """
    lam = np.asarray(cg.spectral_eigenvalues, dtype=float)
    if np.any(lam < 0):
        raise InvalidArgumentError("spectral eigenvalues must be nonnegative")
    rng = np.random.default_rng(rng)
    d = cg.d
    half = np.arange(d // 2 + 1)
    h = np.sqrt(0.5 * d * (lam[half] + lam[(d - half) % d]))
    spec = np.fft.rfft(rng.standard_normal((int(size), d)), axis=1)
    spec *= h
    rows = np.fft.irfft(spec, d, axis=1)
    rows += cg.mean
    return rows


# ---------------------------------------------------------------------------
# Gumbel constants and the softmax argmax approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GumbelConstants:
    """Normalizing constants for the maximum of d near-independent Gaussians."""

    a_d: float
    b_d: float


def gumbel_constants(d: int) -> GumbelConstants:
    """a_d = sqrt(2 ln d);  b_d = a_d - (ln ln d + ln 4*pi) / (2 a_d)."""
    if d < 3:
        raise InvalidArgumentError("gumbel constants need d >= 3 (ln ln d must be defined)")
    a = math.sqrt(2.0 * math.log(d))
    b = a - (math.log(math.log(d)) + math.log(4.0 * math.pi)) / (2.0 * a)
    return GumbelConstants(a_d=a, b_d=b)


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
    over fresh single-observation alignments, at the requested frequencies,
    and the phase-rate constant C_k = E[a^2] / E[b]^2 with its standard error."""

    ks: np.ndarray
    mu_a: np.ndarray
    mu_a_stderr: np.ndarray
    mu_b: np.ndarray
    mu_b_stderr: np.ndarray
    ck: np.ndarray
    ck_stderr: np.ndarray
    trials: int


def alignment_moments(
    template: TemplateSignal,
    trials: int,
    seed,
    *,
    sigma: float = 1.0,
    ks: Sequence[int],
) -> AlignmentMoments:
    """Run ``trials`` single-observation alignments and collect the per-k
    moments of the residual-phase sine/cosine terms.

    The alignment runs through the production kernel, in fixed-size chunks of
    draws; ``N[k]`` is read from the kernel's rfft, as the conjugate of bin
    d-k for k > d/2, and turned into the template's phase frame by one
    complex rotation, N[k] e^{2 pi i k s / d} e^{-i phi_X[k]} / sqrt(d), whose
    root of unity comes from a table; its imaginary part is a and its real
    part b.  Each chunk's terms are summed into the running totals in draw
    order, so the result does not depend on the chunk size.
    """
    template.require_alignable()
    if trials < 1:
        raise InvalidArgumentError("alignment_moments needs at least 1 draw")
    d = template.d
    kset = np.asarray(list(ks), dtype=int)
    if kset.size and (kset.min() < 0 or kset.max() > d - 1):
        raise InvalidArgumentError("requested frequency outside [0, d-1]")
    upper = kset > d // 2
    bins = np.where(upper, d - kset, kset)
    frame = np.exp(-1j * template.phases[kset]) / math.sqrt(d)
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    rng = np.random.default_rng(seed)

    total = 0.0
    for start, stop in chunks(trials, d):
        # correlation rows dropped; spec kept, as freeing it made each chunk fault in new pages
        shifts, spec = align_rows(sigma * rng.standard_normal((stop - start, d)), template)[::2]
        z = spec[:, bins]
        np.conjugate(z, out=z, where=upper)
        z *= roots[np.outer(shifts, kset) % d] * frame
        # a, a^2, a^4, b, b^2, a^2 b side by side, as numpy sums 1-entry rows pairwise
        terms = np.empty((stop - start, 6, kset.size))
        a, a2, a4, b, b2, a2b = terms.transpose(1, 0, 2)
        a[:], b[:] = z.imag, z.real
        np.square(a, out=a2)
        np.square(a2, out=a4)
        np.square(b, out=b2)
        np.multiply(a2, b, out=a2b)
        terms[0] += total
        total = terms.sum(axis=0)
        del z, terms, a, a2, a4, b, b2, a2b  # freed before the next chunk aligns

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
    template: TemplateSignal, trials: int, seed, *, sigma: float = 1.0, ks: Sequence[int],
) -> AlignmentMoments:
    """The alignment moments and C_k at several frequencies, from at least
    :data:`CK_MIN_DRAWS` draws.

    The numerator of C_k is the plain second moment of the sine term: its
    mean is 0 by the sign-flip symmetry of the argmax, so the second moment
    equals the variance the limit theorem wants.
    """
    if trials < CK_MIN_DRAWS:
        raise InvalidArgumentError(f"estimate_ck_profile needs at least {CK_MIN_DRAWS} trials")
    return alignment_moments(template, trials, seed, sigma=sigma, ks=ks)


# ---------------------------------------------------------------------------
# Closed-form high-dimensional predictions
# ---------------------------------------------------------------------------

def predict_phase_mse(template: TemplateSignal, ks, M: int) -> np.ndarray:
    """Predicted phase MSE at bins ks for M observations: 1 / (4 |X[k]|^2 M ln d).

    This is the d -> infinity limit: it uses a_d^2 = 2 ln d for the squared
    expected maximum of the correlation sequence.  At finite d with a white
    correlation sequence (flat template) that maximum has mean m_d < a_d, and
    the true rate sits a factor kappa_d = (a_d / m_d)^2 above this form (1.29
    at d = 2048, 1.17 at d = 2^20).  The fixed-d rate is C_k / M, with C_k
    from :func:`estimate_ck_profile`.
    """
    if M < 1:
        raise InvalidArgumentError("M must be >= 1")
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
    return math.sqrt(2.0 * math.log(template.d)) * template.magnitudes[np.asarray(ks, dtype=int)]
