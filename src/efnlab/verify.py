"""Named verification suites: exactness, symmetry, and limit-theorem checks.

Each suite returns a list of :class:`CheckRow` so the CLI can print a
pass/fail table and the test suite can assert on the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alignment import (
    Pool,
    blocks,
    chunks,
    correlation_oracle,
    correlation_sequence,
    fourier_correlation_sequence,
    run_blocks,
)
from .errors import InsufficientDataError, InvalidArgumentError, integral
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


def alignment_suite(cases: int, seed, d: int = 64) -> list[CheckRow]:
    """Exactness checks: dual correlation routes, argmax equality, transform
    round trips, the shift group law, and shift-phase duality, over ``cases``
    random cases.  ``cases`` and ``seed`` are checked as :func:`run_suite` checks them."""
    cases = integral("alignment --cases", cases, COUNTS["alignment"][1])
    seed = integral("alignment --seed", seed, 0)
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


def symmetry_suite(draws: int, seed, d: int = 64, workers: Optional[int] | Pool = None) -> list[CheckRow]:
    """The sine term averages to zero; the cosine term is strictly positive,
    over ``draws`` alignments per template on ``workers``, a worker count or a
    :class:`~efnlab.alignment.Pool`.  ``draws`` and ``seed`` are checked as
    :func:`run_suite` checks them; template i draws from seed + i."""
    draws = integral("symmetry --draws", draws, COUNTS["symmetry"][1])
    seed = integral("symmetry --seed", seed, 0)
    rows = []
    freqs = [1, 5, 11]
    for i, (name, template) in enumerate(_symmetry_templates(d)):
        m = alignment_moments(template, draws, seed + i, ks=freqs, workers=workers)
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


def gumbel_suite(replicates: int, seed, d: int = 4096) -> list[CheckRow]:
    """Normalized maxima of i.i.d. Gaussians against the standard Gumbel law.

    The maxima come from one stream, as one job, not keyed blocks: the
    fixed 0.05 bound fails on some seeds at the :data:`COUNTS` default (KS
    0.039 to 0.055 over seeds 0 to 19), so new draws would be a new gamble
    on it.  ``replicates``, ``seed`` and ``d`` (see :func:`gumbel_constants`)
    are checked before any draw.
    """
    replicates = integral("gumbel --replicates", replicates, COUNTS["gumbel"][1])
    seed = integral("gumbel --seed", seed, 0)
    a_d, b_d = gumbel_constants(d)
    rng = np.random.default_rng(seed)
    maxima = np.concatenate(
        [rng.standard_normal((stop - start, d)).max(axis=1) for start, stop in chunks(replicates, d)]
    )
    ks = ks_statistic(a_d * (maxima - b_d))
    return [CheckRow(f"gumbel KS (d={d}, n={replicates})", ks, 0.05, "<=")]


# Pinned construction for the softmax-approximation check: flat zero-DC
# template, conditioning bin k=5 with unit noise magnitude and phase 0.7.
PROP3_K = 5
PROP3_NOISE_MAG = 1.0
PROP3_NOISE_PHASE = 0.7


def _argmax_counts(cg, mean: np.ndarray, seed, draws: int) -> np.ndarray:
    """How often each lag is the argmax over one block's ``draws`` samples of ``mean`` plus ``cg``.

    ``cg`` is a zero-mean law, so each row ``z`` the block draws from it gives
    two samples, ``mean + z`` and ``mean - z``: the block draws
    ``(draws + 1) // 2`` rows, counts the plus side of every row and the minus
    side of the first ``draws // 2``.
    """
    d = mean.size
    rng = np.random.default_rng(seed)
    counts = np.zeros(d, dtype=np.int64)
    for start, stop in chunks((draws + 1) // 2, d):
        z = sample_cyclostationary(cg, rng, size=stop - start)
        s = mean + z
        counts += np.bincount(np.argmax(s, axis=1), minlength=d)
        m = min(stop, draws // 2) - start  # rows of this chunk whose minus side counts
        counts += np.bincount(np.argmax(np.subtract(mean, z[:m], out=s[:m]), axis=1), minlength=d)
    return counts


def prop3_case(d: int, draws: int, seed, workers: Optional[int] | Pool = None) -> tuple[float, float]:
    """Return (softmax value, Monte-Carlo E[f(argmax)]) for the pinned case.

    The Monte-Carlo side counts ``draws`` argmax samples of the conditional
    law ``N(mean, Sigma)`` in antithetic pairs: each row ``z`` of the
    zero-mean law gives the exact samples ``mean + z`` and ``mean - z``, so
    half as many rows are drawn.  ``mean`` is ``2 |X[k]| PROP3_NOISE_MAG
    f``, the law's cosine mean at the pinned noise magnitude and phase.
    ``draws`` and ``seed`` are checked as :func:`run_suite` checks them.
    The draws run in keyed blocks of ``seed`` on up to ``workers``
    processes, or on the :class:`~efnlab.alignment.Pool` ``workers``; their
    argmax counts are integers, so the result does not depend on the pool.
    """
    draws = integral("prop3 --draws", draws, COUNTS["prop3"][1])
    seed = integral("prop3 --seed", seed, 0)
    spec = SignalFamilySpec(family="power-law-psd", d=d, beta=0.0, phase_seed=0)
    template = generate_template(spec)
    cg = build_conditional_gaussian(template, PROP3_K)
    r = np.arange(d)
    f = np.cos(2.0 * np.pi * PROP3_K * r / d + PROP3_NOISE_PHASE - template.phases[PROP3_K])
    mean = 2.0 * template.magnitudes[PROP3_K] * PROP3_NOISE_MAG * f
    soft = softmax_expectation(f, mean)
    counts = sum(run_blocks(_argmax_counts, [(cg, mean, ss, n) for ss, n in blocks(draws, seed)], workers))
    return soft, float(f @ counts) / draws


@dataclass(frozen=True)
class Lemma1Report:
    """Paired argmax statistics of S1 ~ N(+mu, Sigma) vs S2 ~ N(-mu, Sigma).

    mu[l] = cos(2*pi*k*l/d + phi); Sigma is the conditional covariance built
    from the template at frequency k, normalized so the diagonal is 1.
    diff[l] estimates P[argmax S1 = l] - P[argmax S2 = l], whose sign should
    match sign(mu[l]); conc_sum estimates sum_l cos(2*pi*k*l/d + phi) *
    diff[l], which should be positive.  Each comes with the standard error
    of its per-draw paired statistic.
    """

    mu: np.ndarray
    diff: np.ndarray
    diff_stderr: np.ndarray
    conc_sum: float
    conc_sum_stderr: float


def _joint_counts(cg, mu: np.ndarray, seed, draws: int) -> np.ndarray:
    """The flat histogram of (argmax of z + mu, argmax of z - mu) over one block's draws z from ``cg``."""
    d = mu.size
    rng = np.random.default_rng(seed)
    joint = np.zeros(d * d, dtype=np.int64)
    for start, stop in chunks(draws, d):
        z = sample_cyclostationary(cg, rng, size=stop - start)
        r1 = np.argmax(z + mu[None, :], axis=1)
        r2 = np.argmax(z - mu[None, :], axis=1)
        joint += np.bincount(r1 * d + r2, minlength=d * d)
    return joint


def lemma1_check(
    template: TemplateSignal, k: int, phi: float, trials: int, seed, workers: Optional[int] | Pool = None
) -> Lemma1Report:
    """Sample the +mu and -mu processes on common noise and tabulate argmaxes.

    Pairing the draws cancels most of the sampling noise in the frequency
    differences; standard errors come from the per-draw paired statistics.
    ``trials`` and ``seed`` are checked as :func:`run_suite` checks lemma1's,
    and ``k`` as :meth:`~efnlab.signals.TemplateSignal.bins` checks a bin.  The
    draws run in keyed blocks of ``seed`` on up to ``workers`` processes, or
    on the :class:`~efnlab.alignment.Pool` ``workers``, and are counted in
    one integer histogram ``joint[r1, r2]`` of the two argmaxes, chunk by
    chunk, so the report depends on neither the chunk size nor the pool.
    The report gives the paired differences and their standard errors (see
    :class:`Lemma1Report`).
    """
    trials = integral("lemma1 --draws", trials, COUNTS["lemma1"][1])
    seed = integral("lemma1 --seed", seed, 0)
    d = template.d
    cg = build_conditional_gaussian(template, k)
    mu = np.cos(2.0 * np.pi * k * np.arange(d) / d + phi)
    parts = run_blocks(_joint_counts, [(cg, mu, ss, n) for ss, n in blocks(trials, seed)], workers)
    joint = sum(parts).reshape(d, d)
    term = mu[:, None] - mu[None, :]  # per-draw concentration term at (r1, r2)

    n = float(trials)
    count1, count2 = joint.sum(axis=1), joint.sum(axis=0)
    diff = count1 / n - count2 / n
    var_diff = np.maximum((count1 + count2 - 2 * np.diag(joint)) / n - diff**2, 0.0)
    mean_conc = float((joint * term).sum()) / n
    var_conc = max(float((joint * term**2).sum()) / n - mean_conc**2, 0.0)
    return Lemma1Report(
        mu=mu,
        diff=diff,
        diff_stderr=np.sqrt(var_diff / n),
        conc_sum=mean_conc,
        conc_sum_stderr=float(math.sqrt(var_conc / n)),
    )


def prop3_suite(draws: int, seed, workers: Optional[int] | Pool = None) -> list[CheckRow]:
    """Softmax approximation of the argmax functional, normalized by max|f|=1.

    ``draws`` counts argmax samples per case, taken in antithetic pairs from
    ``(draws + 1) // 2`` rows on ``workers``, a worker count or a
    :class:`~efnlab.alignment.Pool` (see :func:`prop3_case`).
    """
    rows = []
    for d, tol in ((1024, 0.10), (4096, 0.05)):
        soft, mc = prop3_case(d, draws, seed, workers)
        rows.append(CheckRow(f"prop3 |softmax - MC| (d={d})", abs(soft - mc), tol, "<="))
    return rows


def lemma1_suite(draws: int, seed, workers: Optional[int] | Pool = None) -> list[CheckRow]:
    """Argmax-probability sign pattern at d=8, k=1 for three phase offsets,
    each from ``draws`` draws on ``workers``, a worker count or a
    :class:`~efnlab.alignment.Pool` (see :func:`lemma1_check`)."""
    d, k = 8, 1
    template = generate_template(SignalFamilySpec(family="delta", d=d))
    rows = []
    for phi in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        rep = lemma1_check(template, k, phi, draws, seed, workers)
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

#: The suites whose draws run in keyed blocks on the command's pool; the
#: others draw from one stream each and run as one job.
POOLED = ("symmetry", "prop3", "lemma1")

#: Each suite's one count and its seed, as (count flag, minimum count,
#: default count, default seed).  :func:`run_suite` passes every suite its
#: count and seed from here, checks the overrides against it and sizes the
#: pool from the :data:`POOLED` suites' counts; each suite also checks its
#: count against its minimum here when called.  The CLI declares its count
#: flags, and prints their defaults, minimums and seeds, from it.
COUNTS = {
    "alignment": ("cases", 1, 1000, 12345),
    "symmetry": ("draws", 2, 100_000, 202),
    "gumbel": ("replicates", KS_MIN_SAMPLES, 10_000, 0),
    "prop3": ("draws", 1, 100_000, 31),
    "lemma1": ("draws", 100_000, 200_000, 100),
}


def _suite_rows(name: str, kwargs: dict) -> list[CheckRow]:
    """``SUITES[name](**kwargs)``: a one-stream suite as a job on a pool,
    which looks the suite up by name where it runs."""
    return SUITES[name](**kwargs)


def run_suite(name: str, workers: Optional[int] = None, **overrides) -> list[CheckRow]:
    """Run one named suite, or 'all', each suite at its count and seed in
    :data:`COUNTS` unless ``overrides`` give them.

    Overrides are checked before any suite runs: one that no suite run takes
    is rejected (a misspelt one too, under 'all'), every count must be a
    whole number at its suite's minimum and every seed one >= 0 (a whole
    float runs as its int), or InvalidArgumentError names the suite and its
    flag, as in ``alignment --cases``.  The command runs on one
    :class:`~efnlab.alignment.Pool` of up to ``workers`` processes (None: the
    usable cores), at most one per block of its largest loop.  The
    :data:`POOLED` suites run their blocks on it, and the one-stream suites
    run on it as one loop of jobs, held until the first pooled loop is
    queued; a command whose every loop has one block or job runs in this
    process.  No row depends on the pool.
    """
    if name != "all" and name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    given = {k: v for k, v in overrides.items() if v is not None}
    unused = sorted(given.keys() - {*(COUNTS[suite][0] for suite in names), "seed"})
    if unused:
        raise InvalidArgumentError(f"{name} takes no --{', --'.join(unused)}")
    kwargs = {}
    for suite in names:
        key, least, count, seed = COUNTS[suite]
        seed = integral(f"{suite} --seed", given.get("seed", seed), 0)
        kwargs[suite] = {key: integral(f"{suite} --{key}", given.get(key, count), least), "seed": seed}
    pooled = [suite for suite in names if suite in POOLED]
    jobs = [suite for suite in names if suite not in POOLED]
    loops = [len(jobs), *(len(blocks(kwargs[s][COUNTS[s][0]], 0)) for s in pooled)]
    with Pool(workers, max(loops)) as pool:
        held = pool.later(_suite_rows, [(suite, kwargs[suite]) for suite in jobs])
        rows = {suite: SUITES[suite](**kwargs[suite], workers=pool) for suite in pooled}
        rows.update(zip(jobs, held()))
    return [row for suite in names for row in rows[suite]]
