"""Named verification suites: exactness, symmetry, and limit-theorem checks.

Each suite returns a list of :class:`CheckRow` so the CLI can print a
pass/fail table and the test suite can assert on the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import chunks, correlation_oracle, correlation_sequence, fourier_correlation_sequence
from .errors import InsufficientDataError, InvalidArgumentError
from .signals import (
    SignalFamilySpec,
    TemplateSignal,
    circular_shift,
    dft,
    generate_template,
    idft,
    polar,
    wrap_phase,
)
from .theory import (
    alignment_moments,
    build_conditional_gaussian,
    gumbel_constants,
    sample_cyclostationary,
    softmax_expectation,
)

#: One-sided 99% normal quantile, the package-wide strict-inequality bar.
Z99 = 2.3263478740408408

#: Fewest draws :func:`lemma1_check` accepts.
LEMMA1_MIN_DRAWS = 100_000

#: Fewest samples :func:`ks_statistic` accepts.
KS_MIN_SAMPLES = 100


@dataclass(frozen=True)
class CheckRow:
    name: str
    measured: float
    threshold: float
    comparator: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        """False for a non-finite measurement, whatever the comparator."""
        if self.comparator == "<=":
            return math.isfinite(self.measured) and self.measured <= self.threshold
        if self.comparator == ">=":
            return math.isfinite(self.measured) and self.measured >= self.threshold
        raise InvalidArgumentError(f"bad comparator {self.comparator!r}")

    def format(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: measured {self.measured:.6g} (need {self.comparator} {self.threshold:g})"


def _random_template(d: int, rng) -> TemplateSignal:
    spec = SignalFamilySpec(
        family="power-law-psd",
        d=d,
        beta=float(rng.uniform(0.0, 2.0)),
        phase_seed=int(rng.integers(0, 2**31)),
        zero_dc=False,
    )
    return generate_template(spec)


def alignment_suite(cases: int = 1000, d: int = 64, seed=12345) -> list[CheckRow]:
    """Exactness checks: dual correlation routes, argmax equality, transform
    round trips, the shift group law, and shift-phase duality."""
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    agree = 0
    worst_round = 0.0
    group_ok = 0
    worst_duality = 0.0
    for _ in range(cases):
        template = _random_template(d, rng)
        noise = rng.standard_normal(d)
        fast = correlation_sequence(noise, template)
        direct = correlation_oracle(noise, template)
        scale = np.abs(direct).max()
        worst_rel = max(worst_rel, float(np.abs(fast - direct).max() / scale))
        fourier = fourier_correlation_sequence(noise, template)
        agree += int(np.argmax(fast) == np.argmax(fourier))

        y = rng.standard_normal(d)
        back = idft(dft(y))
        worst_round = max(worst_round, float(np.linalg.norm(back - y) / np.linalg.norm(y)))

        a, b = int(rng.integers(-2 * d, 2 * d)), int(rng.integers(-2 * d, 2 * d))
        lhs = circular_shift(circular_shift(y, a), b)
        rhs = circular_shift(y, (a + b) % d)
        group_ok += int(np.array_equal(lhs, rhs))

        ell = int(rng.integers(0, d))
        shifted = polar(dft(circular_shift(y, ell)))[1]
        mags, phases = polar(dft(y))
        keep = mags > 1e-9
        k = np.arange(d)[keep]
        expected = phases[keep] - 2.0 * np.pi * k * ell / d
        defect = np.abs(wrap_phase(shifted[keep] - expected)).max(initial=0.0)
        worst_duality = max(worst_duality, float(defect))

    return [
        CheckRow("fft-vs-direct correlation (max rel err)", worst_rel, 1e-9, "<="),
        CheckRow("real-vs-fourier argmax agreement", agree / cases, 1.0, ">="),
        CheckRow("dft/idft round trip (max rel err)", worst_round, 1e-10, "<="),
        CheckRow("shift group law (fraction exact)", group_ok / cases, 1.0, ">="),
        CheckRow("shift-phase duality (max wrapped defect)", worst_duality, 1e-8, "<="),
    ]


def _symmetry_templates(d: int) -> list[tuple[str, TemplateSignal]]:
    return [
        ("delta", generate_template(SignalFamilySpec(family="delta", d=d))),
        ("power-law-1", generate_template(
            SignalFamilySpec(family="power-law-psd", d=d, beta=1.0, phase_seed=4)
        )),
        ("flat", generate_template(
            SignalFamilySpec(family="power-law-psd", d=d, beta=0.0, phase_seed=4)
        )),
    ]


def symmetry_suite(draws: int = 100_000, d: int = 64, seed=202) -> list[CheckRow]:
    """The sine term averages to zero; the cosine term is strictly positive."""
    rows = []
    freqs = [1, 5, 11]
    for i, (name, template) in enumerate(_symmetry_templates(d)):
        m = alignment_moments(template, draws, seed + i, ks=freqs)
        # a zero stderr (one draw) gives a non-finite z, which fails its row
        with np.errstate(divide="ignore", invalid="ignore"):
            za = np.abs(m.mu_a) / m.mu_a_stderr
            zb = m.mu_b / m.mu_b_stderr
        for j, k in enumerate(freqs):
            rows.append(CheckRow(f"mu_A zero ({name}, k={k}) |z|", float(za[j]), 3.0, "<="))
            rows.append(CheckRow(f"mu_B positive ({name}, k={k}) z", float(zb[j]), Z99, ">="))
    return rows


def ks_statistic(samples) -> float:
    """Sup distance between the empirical CDF and the standard Gumbel CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < KS_MIN_SAMPLES:
        raise InsufficientDataError(f"ks_statistic needs at least {KS_MIN_SAMPLES} samples")
    ref = np.exp(-np.exp(-x))
    i = np.arange(1, x.size + 1)
    upper = np.max(i / x.size - ref)
    lower = np.max(ref - (i - 1) / x.size)
    return float(max(upper, lower))


def gumbel_suite(d: int = 4096, replicates: int = 10_000, seed=0) -> list[CheckRow]:
    """Normalized maxima of i.i.d. Gaussians against the standard Gumbel law."""
    g = gumbel_constants(d)
    rng = np.random.default_rng(seed)
    maxima = np.concatenate(
        [rng.standard_normal((stop - start, d)).max(axis=1) for start, stop in chunks(replicates, d)]
    )
    ks = ks_statistic(g.a_d * (maxima - g.b_d))
    return [CheckRow(f"gumbel KS (d={d}, n={replicates})", ks, 0.05, "<=")]


# Pinned construction for the softmax-approximation check: flat zero-DC
# template, conditioning bin k=5 with unit noise magnitude and phase 0.7.
PROP3_K = 5
PROP3_NOISE_MAG = 1.0
PROP3_NOISE_PHASE = 0.7


def prop3_case(d: int, draws: int, seed) -> tuple[float, float]:
    """Return (softmax value, Monte-Carlo E[f(argmax)]) for the pinned case."""
    spec = SignalFamilySpec(family="power-law-psd", d=d, beta=0.0, phase_seed=0)
    template = generate_template(spec)
    cg = build_conditional_gaussian(template, PROP3_K, PROP3_NOISE_MAG, PROP3_NOISE_PHASE)
    r = np.arange(d)
    f = np.cos(
        2.0 * np.pi * PROP3_K * r / d + PROP3_NOISE_PHASE - template.phases[PROP3_K]
    )
    soft = softmax_expectation(f, cg.mean)
    rng = np.random.default_rng(seed)
    counts = np.zeros(d, dtype=np.int64)
    for start, stop in chunks(draws, d):
        s = sample_cyclostationary(cg, rng, size=stop - start)
        counts += np.bincount(np.argmax(s, axis=1), minlength=d)
    return soft, float(f @ counts) / draws


@dataclass(frozen=True)
class Lemma1Report:
    """Empirical argmax frequencies of S1 ~ N(+mu, Sigma) vs S2 ~ N(-mu, Sigma).

    mu[l] = cos(2*pi*k*l/d + phi); Sigma is the sigma2-normalized conditional
    covariance built from the template at frequency k.  diff[l] estimates
    P[argmax S1 = l] - P[argmax S2 = l], whose sign should match sign(mu[l]);
    conc_sum estimates sum_l cos(2*pi*k*l/d + phi) * diff[l], which should be
    positive.
    """

    mu: np.ndarray
    freq_pos: np.ndarray
    freq_neg: np.ndarray
    diff: np.ndarray
    diff_stderr: np.ndarray
    conc_sum: float
    conc_sum_stderr: float


def lemma1_check(
    template: TemplateSignal, k: int, phi: float, trials: int, seed
) -> Lemma1Report:
    """Sample the +mu and -mu processes on common noise and tabulate argmaxes.

    Pairing the draws cancels most of the sampling noise in the frequency
    differences; standard errors come from the per-draw paired statistics.
    The draws are counted in one integer histogram ``joint[r1, r2]`` of the
    two argmaxes, chunk by chunk, so the report does not depend on the chunk
    size.
    """
    if trials < LEMMA1_MIN_DRAWS:
        raise InsufficientDataError(f"lemma1_check needs at least {LEMMA1_MIN_DRAWS} draws")
    d = template.d
    cg = build_conditional_gaussian(template, k, 0.0, 0.0)
    mu = np.cos(2.0 * np.pi * k * np.arange(d) / d + phi)
    rng = np.random.default_rng(seed)

    joint = np.zeros(d * d, dtype=np.int64)
    for start, stop in chunks(trials, d):
        z = sample_cyclostationary(cg, rng, size=stop - start)
        r1 = np.argmax(z + mu[None, :], axis=1)
        r2 = np.argmax(z - mu[None, :], axis=1)
        joint += np.bincount(r1 * d + r2, minlength=d * d)
    joint = joint.reshape(d, d)
    term = mu[:, None] - mu[None, :]  # per-draw concentration term at (r1, r2)

    n = float(trials)
    count1, count2 = joint.sum(axis=1), joint.sum(axis=0)
    freq1 = count1 / n
    freq2 = count2 / n
    diff = freq1 - freq2
    var_diff = np.maximum((count1 + count2 - 2 * np.diag(joint)) / n - diff**2, 0.0)
    mean_conc = float((joint * term).sum()) / n
    var_conc = max(float((joint * term**2).sum()) / n - mean_conc**2, 0.0)
    return Lemma1Report(
        mu=mu,
        freq_pos=freq1,
        freq_neg=freq2,
        diff=diff,
        diff_stderr=np.sqrt(var_diff / n),
        conc_sum=mean_conc,
        conc_sum_stderr=float(math.sqrt(var_conc / n)),
    )


def prop3_suite(draws: int = 100_000, seed=31) -> list[CheckRow]:
    """Softmax approximation of the argmax functional, normalized by max|f|=1."""
    rows = []
    for d, tol in ((1024, 0.10), (4096, 0.05)):
        soft, mc = prop3_case(d, draws, seed)
        rows.append(CheckRow(f"prop3 |softmax - MC| (d={d})", abs(soft - mc), tol, "<="))
    return rows


def lemma1_suite(draws: int = 200_000, seed=100) -> list[CheckRow]:
    """Argmax-probability sign pattern at d=8, k=1 for three phase offsets."""
    d, k = 8, 1
    template = generate_template(SignalFamilySpec(family="delta", d=d))
    rows = []
    for phi in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        rep = lemma1_check(template, k, phi, draws, seed)
        sel = np.abs(rep.mu) > 0.3
        signed_z = (np.sign(rep.mu[sel]) * rep.diff[sel]) / rep.diff_stderr[sel]
        rows.append(
            CheckRow(f"lemma1 sign pattern (phi={phi:.3f}) min signed z", float(signed_z.min()), Z99, ">=")
        )
        rows.append(
            CheckRow(
                f"lemma1 conc-sum positive (phi={phi:.3f}) z",
                rep.conc_sum / rep.conc_sum_stderr,
                Z99,
                ">=",
            )
        )
    return rows


SUITES = {
    "alignment": alignment_suite,
    "symmetry": symmetry_suite,
    "gumbel": gumbel_suite,
    "prop3": prop3_suite,
    "lemma1": lemma1_suite,
}

#: Smallest value each suite accepts for its one count override; a suite
#: takes that count and ``seed``, and no other override.
MIN_COUNTS = {
    "alignment": {"cases": 1},
    "symmetry": {"draws": 2},
    "gumbel": {"replicates": KS_MIN_SAMPLES},
    "prop3": {"draws": 1},
    "lemma1": {"draws": LEMMA1_MIN_DRAWS},
}


def run_suite(name: str, **overrides) -> list[CheckRow]:
    """Run one named suite, or 'all' with each suite taking its own overrides.

    Overrides are checked before any suite runs: a named suite rejects one it
    does not take, and every count must reach its suite's minimum.
    """
    if name != "all" and name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    given = {k: v for k, v in overrides.items() if v is not None}
    unused = sorted(given.keys() - {*MIN_COUNTS[name], "seed"}) if name != "all" else []
    if unused:
        raise InvalidArgumentError(f"{name} takes no --{', --'.join(unused)}")
    for suite in names:
        for key, least in MIN_COUNTS[suite].items():
            if given.get(key, least) < least:
                raise InvalidArgumentError(f"{suite} needs --{key} >= {least}, got {given[key]}")
    if given.get("seed", 0) < 0:
        raise InvalidArgumentError(f"{name} needs --seed >= 0, got {given['seed']}")
    rows = []
    for suite in names:
        takes = {*MIN_COUNTS[suite], "seed"}
        rows.extend(SUITES[suite](**{k: v for k, v in given.items() if k in takes}))
    return rows
