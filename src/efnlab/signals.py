"""Signals, their spectra and template generation.

Everything downstream works with real length-d signals (d even) and their
unitary DFTs: X[k] = (1/sqrt(d)) * sum_l x_l exp(-2j*pi*k*l/d).  With this
convention a unit-norm signal has unit spectral energy (Parseval), so
real-space and Fourier-space normalizations coincide.  A spectrum is a
complex array; :func:`polar` gives its magnitudes and phases, at whichever
bins a caller reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ExcludedBinError, InvalidArgumentError, RejectedTemplateError, entries, integral, real, typed,
)

#: Relative floor under which a spectral magnitude counts as vanishing.
NON_VANISHING_FLOOR = 1e-8


def wrap_phase(phi):
    """Wrap angles into (-pi, pi].  Accepts scalars or arrays."""
    return np.pi - (np.pi - np.asarray(phi)) % (2.0 * np.pi)


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def dft(samples) -> np.ndarray:
    """Unitary DFT of a real signal: the read-only complex array fft(x) / sqrt(d).
    A signal that is not 1-d with d >= 2 raises InvalidArgumentError."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidArgumentError("dft requires a 1-d signal with d >= 2")
    return _readonly(np.fft.fft(x) / math.sqrt(x.size), complex)


def idft(spectrum) -> np.ndarray:
    """Inverse of :func:`dft`; returns the real signal."""
    z = np.asarray(spectrum, dtype=complex)
    return np.fft.ifft(z * math.sqrt(z.size)).real


def polar(spectrum) -> tuple[np.ndarray, np.ndarray]:
    """(magnitudes, phases) of a complex spectrum.

    Phases are wrapped to (-pi, pi] and set to 0 at bins whose magnitude is
    exactly zero (those bins carry no phase information).
    """
    z = np.asarray(spectrum, dtype=complex)
    mags = np.abs(z)
    return mags, wrap_phase(np.where(mags == 0.0, 0.0, np.angle(z)))


def circular_shift(signal, ell: int) -> np.ndarray:
    """Cyclic shift: output index i holds input index (i - ell) mod d."""
    return np.roll(np.asarray(signal), int(ell))


class TemplateSignal:
    """Unit-norm real template with its spectrum's read-only ``magnitudes``
    and ``phases``.

    Parameters
    ----------
    samples : array-like
        Real signal of even length d >= 2 with Euclidean norm 1 (to 1e-12).

    The template is flagged usable for alignment only if min_{0<k} |X[k]|
    exceeds ``NON_VANISHING_FLOOR * max_k |X[k]|``.
    """

    def __init__(self, samples):
        x = _readonly(samples)
        if x.ndim != 1 or x.size < 2:
            raise InvalidArgumentError("template must be a 1-d signal with d >= 2")
        if x.size % 2 != 0:
            raise InvalidArgumentError(f"template length must be even, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise InvalidArgumentError("template samples must be finite")
        nrm = float(np.linalg.norm(x))
        if abs(nrm - 1.0) > 1e-12:
            raise InvalidArgumentError(f"template must have unit norm (got {nrm!r})")
        self.samples = x
        self.d = x.size
        self.magnitudes, self.phases = map(_readonly, polar(dft(x)))
        self.non_vanishing = bool(self.magnitudes[1:].min() > NON_VANISHING_FLOOR * self.magnitudes.max())

    def require_alignable(self):
        """Raise RejectedTemplateError unless the spectrum clears the floor."""
        if not self.non_vanishing:
            raise RejectedTemplateError(
                "template spectrum falls below the non-vanishing floor "
                f"({NON_VANISHING_FLOOR:g} relative)"
            )

    def require_bins(self, ks) -> np.ndarray:
        """The bins ``ks`` (an array, or one bin) as an int array; raises ExcludedBinError
        for the first whose magnitude is at or below the floor, such as a zeroed DC bin.

        Bins are whole numbers, as a config's frequencies are: a whole float
        counts, and 1.7, a bool or a string raises InvalidArgumentError.
        """
        ks, mags = np.asarray(ks), self.magnitudes
        if ks.dtype.kind not in "iu":  # each entry checked; an int array passes as it is
            ks = np.reshape([integral("frequencies", k, -math.inf) for k in ks.ravel().tolist()], ks.shape)
        ks = ks.astype(int, copy=False)
        bad = ks[(ks < 0) | (ks > self.d - 1)]
        if bad.size:
            raise InvalidArgumentError(f"frequency index {bad[0]} out of range for d={self.d}")
        bad = ks[mags[ks] <= NON_VANISHING_FLOOR * mags.max()]
        if bad.size:
            raise ExcludedBinError(
                f"bin {bad[0]} excluded: template magnitude {mags[bad[0]]:.3e} is at or below the floor"
            )
        return ks

    def __repr__(self):
        return f"TemplateSignal(d={self.d}, non_vanishing={self.non_vanishing})"


FAMILIES = ("delta", "power-law-psd", "zero-padded-pulse", "explicit-samples")


@dataclass(frozen=True)
class SignalFamilySpec:
    """Parameterization of the template generator.

    family:
        "delta"             -- x = e_0 (flat spectrum).
        "power-law-psd"     -- |X[k]| proportional to (1 + min(k, d-k))^(-beta/2),
                               random phases from phase_seed.
        "zero-padded-pulse" -- smooth bump occupying d/(1+pad_ratio) samples,
                               spectral magnitudes floored to stay non-vanishing.
        "explicit-samples"  -- caller-supplied samples, exactly d numbers (normalized).
    zero_dc:
        For the spectral families, zero the DC bin before synthesis (the
        high-dimensional theory assumes a zero DC component).
    """

    family: str
    d: int
    beta: float = 0.0
    pad_ratio: float = 0.0
    phase_seed: int = 0
    zero_dc: bool = True
    samples: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidArgumentError(f"template.family must be one of {FAMILIES}, got {self.family!r}")
        d = integral("template.d", self.d, 2)
        if d % 2 != 0:
            raise InvalidArgumentError(f"template.d must be even, got {self.d!r}")
        object.__setattr__(self, "d", d)
        real("template.beta", self.beta, 0)
        real("template.pad_ratio", self.pad_ratio, 0)
        object.__setattr__(self, "phase_seed", integral("template.phase_seed", self.phase_seed, 0))
        typed("template.zero_dc", self.zero_dc, bool, "true or false")
        if self.samples is not None:
            if self.family != "explicit-samples":
                raise InvalidArgumentError(f"template.samples needs an explicit-samples template, got {self.family!r}")
            samples = entries("template.samples", self.samples)
            for v in samples:
                real("template.samples", v, -math.inf)
            if len(samples) != d:
                raise InvalidArgumentError(f"template.samples must hold d = {d} numbers, got {len(samples)}")
            object.__setattr__(self, "samples", samples)
        elif self.family == "explicit-samples":
            raise InvalidArgumentError("explicit-samples family requires samples")


def _unit(x: np.ndarray) -> TemplateSignal:
    """The template x / |x|; a zero or non-finite x cannot be normalized."""
    nrm = np.linalg.norm(x)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise InvalidArgumentError("cannot normalize a zero or non-finite signal")
    return TemplateSignal(x / nrm)


def _synthesize(mag_half: np.ndarray, phase_half: np.ndarray, d: int) -> TemplateSignal:
    """The template of half-spectrum magnitudes/phases (bins 0..d/2)."""
    return _unit(np.fft.irfft(mag_half * np.exp(1j * phase_half), d))


def generate_template(spec: SignalFamilySpec) -> TemplateSignal:
    """Deterministically build the template described by ``spec``.

    The result is unit-norm; for the spectral families the phases at bins 0
    and d/2 are fixed to 0 so the synthesized signal is exactly real.
    """
    d = spec.d
    if spec.family == "delta":
        x = np.zeros(d)
        x[0] = 1.0
        return TemplateSignal(x)

    if spec.family == "explicit-samples":
        return _unit(np.asarray(spec.samples, dtype=float))

    half = d // 2 + 1
    rng = np.random.default_rng(spec.phase_seed)
    phases = rng.uniform(-np.pi, np.pi, half)
    phases[0] = 0.0
    phases[-1] = 0.0

    if spec.family == "power-law-psd":
        k = np.arange(half)
        mag = (1.0 + k) ** (-spec.beta / 2.0)
        if spec.zero_dc:
            mag[0] = 0.0
        return _synthesize(mag, phases, d)

    # zero-padded-pulse: a centered Gaussian bump whose support shrinks as the
    # pad ratio grows; tiny spectral bins are floored so the template keeps a
    # non-vanishing spectrum and stays usable for alignment.  Past 40 standard
    # deviations the bump is exp(-800) == 0.0, so offsets are clipped there and
    # no pad ratio overflows the quotient: the limit is the centre sample alone.
    sd = d / (1.0 + spec.pad_ratio) / 8.0
    bump = np.exp(-0.5 * (np.minimum(np.abs(np.arange(d) - d / 2), 40.0 * sd) / sd) ** 2)
    z = np.fft.rfft(bump)
    mag = np.abs(z)
    mag = np.maximum(mag, 1e-6 * mag.max())
    ph = np.where(np.abs(z) == 0.0, phases, np.angle(z))
    ph[0] = 0.0
    ph[-1] = 0.0
    if spec.zero_dc:
        mag[0] = 0.0
    return _synthesize(mag, ph, d)

