"""Acceptance criteria at desk scale.

Each criterion runs at its stated parameters and tolerances and prints one
PASS/FAIL line (run with ``pytest -s`` to see the lines for passing tests).
Heavy simulations are shared across criteria through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special

import efnlab as E
from efnlab import verify

MASTER = 20260809


def _report(criterion, ok, detail):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# Finite-d expected values for the flat zero-DC template
# ---------------------------------------------------------------------------
#
# The high-dimensional forms use a_d = sqrt(2 ln d) for the expected maximum
# of the correlation sequence, which is its d -> infinity limit.  For the flat
# template the correlation sequence is white, so at finite d the expected
# maximum is m_d below, computed by quadrature (never from simulation).

def _gaussian_max_expectation(d, g):
    """E[g(max of d i.i.d. standard normals)], by quadrature of the max's density."""
    a_d = math.sqrt(2.0 * math.log(d))

    def integrand(x):
        log_density = math.log(d) + (d - 1) * special.log_ndtr(x) - 0.5 * x * x
        return g(x) * math.exp(log_density) / math.sqrt(2.0 * math.pi)

    value, _ = integrate.quad(integrand, -10.0, a_d + 10.0, points=[a_d], limit=200)
    return value


def _gaussian_max_mean(d):
    """E[max of d i.i.d. standard normals]."""
    return _gaussian_max_expectation(d, lambda x: x)


def _flat_max_mean(d):
    """m_d = E[max_r c[r]] for a flat zero-DC unit-norm template and unit white noise.

    The correlation c has covariance (d*delta - 1)/(d - 1), the law of
    sqrt(d/(d-1)) (Z - mean(Z)) with Z i.i.d. standard normal.
    """
    return math.sqrt(d / (d - 1)) * _gaussian_max_mean(d)


def _flat_rate_bias(d):
    """kappa_d = (a_d / m_d)^2: finite-d phase MSE over the thm2 rate, flat template.

    E[|N[k]| cos phi_e] = |X[k]| m_d and E[(|N[k]| sin phi_e)^2] = 1/2, so
    C_k = 1 / (2 |X[k]|^2 m_d^2), while the thm2 rate uses a_d^2 = 2 ln d.
    """
    return 2.0 * math.log(d) / _flat_max_mean(d) ** 2


def _flat_pearson(d, M):
    """rho(d) = sqrt(m_d^2 / (m_d^2 + (d-1)/M)) for a flat zero-DC unit-norm template.

    Each of the d-1 non-DC bins carries signal |X[k]| m_d with
    |X[k]|^2 = 1/(d-1), and averaging-noise variance 1/M.
    """
    m2 = _flat_max_mean(d) ** 2
    return math.sqrt(m2 / (m2 + (d - 1) / M))


def test_gaussian_max_mean_closed_forms():
    """The quadrature reproduces E[max] = 1/sqrt(pi) (d=2) and 3/(2 sqrt(pi)) (d=3)."""
    assert _gaussian_max_mean(2) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)
    assert _gaussian_max_mean(3) == pytest.approx(1.5 / math.sqrt(math.pi), rel=1e-9)


def _flat_alignment_moments(d):
    """(E[a^2], mu_b, C_k) at any bin k other than 0 and d/2, for the flat
    zero-DC unit-norm template and unit white noise, by quadrature.

    With the template's phases taken out, the noise is d white normals w, and
    alignment moves their maximum m to lag 0.  Given m, the other d - 1 are
    i.i.d. N(0,1) truncated above at m: mean -r and variance 1 - m r - r^2,
    with r = phi(m)/Phi(m).  So a = -(1/sqrt d) sum_l w_l sin(2 pi k l/d) has
    E[a^2] = E_m[1 - m r - r^2] / 2, and E[b] = |X[k]| m_d with
    |X[k]| = 1/sqrt(d-1).
    """
    def truncated_variance(x):
        r = math.exp(-0.5 * x * x - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(x))
        return 1.0 - x * r - r * r

    e_a2 = 0.5 * _gaussian_max_expectation(d, truncated_variance)
    mu_b = _flat_max_mean(d) / math.sqrt(d - 1)
    return e_a2, mu_b, e_a2 / mu_b**2


def test_flat_alignment_moments_quadrature():
    """The quadrature moments against ``alignment_moments`` on the flat template.

    Quadrature only: E[a^2], and C_k over the thm2 form, C_k 4 ln d / (d-1),
    are pinned at d = 256, 2048 and 2^15 (100 000 draws of
    ``alignment_moments`` at d = 256 gave 1.3447 +- 0.0077 against 1.3434).

    Monte-Carlo: 20 000 draws of ``alignment_moments`` at d = 64 and 256,
    seed MASTER, at bins 1, d/4+1, d/2-1 and d-3.  Each mu_b and C_k is
    compared by z against its own stderr.  The band |z| <= 4, fixed before
    the first run, is Bonferroni over the 16 comparisons (family-wise level
    about 1e-3).
    """
    pins = {256: (0.48588, 1.3434), 2048: (0.49732, 1.2798), 2**15: (0.49975, 1.2161)}
    for d, (e_a2_pin, ratio_pin) in pins.items():
        e_a2, _, ck = _flat_alignment_moments(d)
        assert e_a2 == pytest.approx(e_a2_pin, abs=5e-6), d
        assert ck * 4.0 * math.log(d) / (d - 1) == pytest.approx(ratio_pin, abs=5e-5), d

    zs = []
    for d in (64, 256):
        template = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=d, beta=0.0, phase_seed=1))
        ks = (1, d // 4 + 1, d // 2 - 1, d - 3)
        moments = E.alignment_moments(template, 20_000, MASTER, ks=ks)
        _, mu_b, ck = _flat_alignment_moments(d)
        zs += list((moments.mu_b - mu_b) / moments.mu_b_stderr)
        zs += list((moments.ck - ck) / moments.ck_stderr)
    ok = bool(np.all(np.abs(zs) <= 4.0))
    _report(
        "flat-template moments: quadrature vs alignment_moments",
        ok,
        f"mu_b and C_k z at d=64, 256: {np.round(zs, 2)} (need all |z| <= 4)",
    )
    assert ok, f"z-scores {zs}"


# ---------------------------------------------------------------------------
# Shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def m_sweep_beta1():
    """Criterion 1 workload: beta=1, d=1024, M in {200,500,1500,5000}, 200 trials."""
    cfg = E.ExperimentConfig(
        template=E.SignalFamilySpec(family="power-law-psd", d=1024, beta=1.0, phase_seed=1),
        M=200,
        trials=200,
        master_seed=MASTER,
        frequencies=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
        sweep=E.SweepSpec("M", (200, 500, 1500, 5000)),
    )
    t0 = time.perf_counter()
    results = E.run_sweep(cfg)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def flat_2048():
    """Criteria 2+3 workload: flat zero-DC template, d=2048, M=2000, 500 trials."""
    d = 2048
    cfg = E.ExperimentConfig(
        template=E.SignalFamilySpec(family="power-law-psd", d=d, beta=0.0, phase_seed=1),
        M=2000,
        trials=500,
        master_seed=MASTER,
        frequencies=tuple(range(d // 8, 3 * d // 8 + 1)),
    )
    t0 = time.perf_counter()
    stats = E.run_experiment(cfg)
    return stats, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_phase_mse_inverse_in_m(m_sweep_beta1):
    results, elapsed = m_sweep_beta1
    ms = [M for M, _ in results]
    ks = results[0][1].ks
    in_band = 0
    slopes = []
    for i in range(ks.size):
        mse = [stats.phase_mse[i] for _, stats in results]
        slope = float(np.polyfit(np.log(ms), np.log(mse), 1)[0])
        slopes.append(slope)
        in_band += int(-1.15 <= slope <= -0.85)
    frac = in_band / ks.size
    ok = frac >= 0.90 and elapsed <= 180.0
    _report(
        "criterion 1: MSE ~ 1/M",
        ok,
        f"slope in [-1.15,-0.85] for {in_band}/{ks.size} k "
        f"(range {min(slopes):.3f}..{max(slopes):.3f}); runtime {elapsed:.0f}s (limit 180s)",
    )
    assert frac >= 0.90, f"only {frac:.0%} of slopes in band: {np.round(slopes, 3)}"
    assert elapsed <= 180.0, f"sweep took {elapsed:.0f}s > 180s"
    assert ms == [200, 500, 1500, 5000]


def test_monotone_convergence_in_m(m_sweep_beta1):
    """Fig. 2(a)/(b) analog: every M step improves Pearson and per-k MSE at 3 SE."""
    results, _ = m_sweep_beta1
    for (m_lo, lo), (m_hi, hi) in zip(results, results[1:]):
        dp = hi.mean_pearson - lo.mean_pearson
        se = math.hypot(hi.pearson_stderr, lo.pearson_stderr)
        assert dp > 3 * se, f"pearson step {m_lo}->{m_hi} not significant"
        dm = lo.phase_mse - hi.phase_mse
        se_k = np.hypot(lo.phase_mse_stderr, hi.phase_mse_stderr)
        assert np.all(dm > 3 * se_k), f"MSE step {m_lo}->{m_hi} not significant at all k"
    _report("invariant: monotone convergence in M", True, "all steps significant at 3 SE")


def test_criterion_2_thm2_rate_ratio(flat_2048):
    """Empirical phase MSE over 1/(4 |X[k]|^2 M ln d), corrected by kappa_d.

    The thm2 rate is a d -> infinity limit; at d = 2048 the flat template's
    finite-d rate sits kappa_d = (a_d/m_d)^2 = 1.29 above it, and kappa_d - 1
    shrinks only like ln ln d / ln d.  The check compares the simulation with
    the finite-d rate, kappa_d times the thm2 rate.
    """
    stats, elapsed = flat_2048
    d = stats.config.template.d
    kappa = _flat_rate_bias(d)
    raw = stats.mse_ratio_thm2
    ratio = raw / kappa
    frac = float(np.mean((ratio >= 0.6) & (ratio <= 1.4)))
    med = float(np.median(ratio))
    ok = frac >= 0.80 and 0.75 <= med <= 1.25 and elapsed <= 300.0
    _report(
        "criterion 2: thm2 rate ratio",
        ok,
        f"kappa_d = (a_d/m_d)^2 = {kappa:.4f} at d={d}; raw median {float(np.median(raw)):.3f}; "
        f"ratio / kappa_d in [0.6,1.4] for {frac:.1%} of mid-band k (need >=80%); "
        f"median {med:.3f} (need in [0.75,1.25]); runtime {elapsed:.0f}s (limit 300s)",
    )
    assert elapsed <= 300.0, f"run took {elapsed:.0f}s > 300s"
    assert frac >= 0.80, f"ratio in band for only {frac:.1%} of mid-band k"
    assert 0.75 <= med <= 1.25, f"median ratio {med:.3f} outside [0.75, 1.25]"


def test_criterion_3_thm2_magnitude_scaling(flat_2048):
    stats, _ = flat_2048
    scale = stats.mean_magnitude / stats.predicted_magnitude_thm2
    med = float(np.median(scale))
    ok = 0.8 <= med <= 1.2
    _report(
        "criterion 3: thm2 magnitude scaling",
        ok,
        f"median |Xhat[k]| / (sqrt(2 ln d) |X[k]|) = {med:.3f} over mid-band (need in [0.8,1.2])",
    )
    assert ok, f"median magnitude ratio {med:.3f} outside [0.8, 1.2]"


def test_criterion_4_thm1_magnitude_limit():
    ks = (1, 2, 4, 8, 16)
    cfg = E.ExperimentConfig(
        template=E.SignalFamilySpec(family="power-law-psd", d=256, beta=1.0, phase_seed=2),
        M=5000,
        trials=200,
        master_seed=MASTER,
        frequencies=ks,
    )
    stats = E.run_experiment(cfg)
    template = E.generate_template(cfg.template)
    moments = E.alignment_moments(template, 200_000, MASTER + 1, ks=ks)
    z = np.abs(stats.mean_magnitude - moments.mu_b) / np.hypot(
        stats.magnitude_stderr, moments.mu_b_stderr
    )
    ok = bool(np.all(z <= 3.0))
    _report(
        "criterion 4: thm1 magnitude limit",
        ok,
        f"|mean - MC| / combined SE at k={ks}: {np.round(z, 2)} (need all <= 3)",
    )
    assert ok, f"z-scores {z}"


def test_criterion_5_symmetry_identities():
    t0 = time.perf_counter()
    rows = verify.symmetry_suite(draws=100_000, seed=MASTER)
    elapsed = time.perf_counter() - t0
    bad = [r for r in rows if not r.passed]
    ok = not bad and elapsed <= 120.0
    worst_mu_a = max(r.measured for r in rows if "mu_A" in r.name)
    worst_mu_b = min(r.measured for r in rows if "mu_B" in r.name)
    _report(
        "criterion 5: symmetry identities",
        ok,
        f"max |z(mu_A)| = {worst_mu_a:.2f} (<=3); min z(mu_B) = {worst_mu_b:.1f} "
        f"(>=2.33); runtime {elapsed:.0f}s (limit 120s)",
    )
    assert not bad, "\n".join(r.format() for r in bad)
    assert elapsed <= 120.0


def test_criterion_6_lemma1_sign_pattern():
    rows = verify.lemma1_suite(draws=200_000, seed=MASTER)
    bad = [r for r in rows if not r.passed]
    ok = not bad
    _report(
        "criterion 6: argmax sign pattern",
        ok,
        f"min signed z over phis/bins = {min(r.measured for r in rows):.1f} (need >= 2.33)",
    )
    assert ok, "\n".join(r.format() for r in bad)


def test_criterion_7_softmax_approximation():
    gaps = {}
    for d in (256, 1024, 4096):
        soft, mc = verify.prop3_case(d, draws=100_000, seed=MASTER)
        gaps[d] = abs(soft - mc)  # max|f| = 1 for the pinned cosine functional
    ok = gaps[1024] <= 0.10 and gaps[4096] <= 0.05
    non_increasing = gaps[256] >= gaps[1024] >= gaps[4096]
    detail = (
        f"gap/max|f| = {gaps[1024]:.4f} at d=1024 (<=0.1), {gaps[4096]:.4f} at d=4096 "
        f"(<=0.05); non-increasing over d: {gaps[256]:.4f} >= {gaps[1024]:.4f} >= {gaps[4096]:.4f}"
    )
    _report("criterion 7: softmax approximation", ok and non_increasing, detail)
    assert ok, detail
    assert non_increasing, detail


def test_criterion_8_gumbel_convergence():
    rows = verify.gumbel_suite(d=4096, replicates=10_000, seed=0)
    ok = all(r.passed for r in rows)
    _report(
        "criterion 8: gumbel convergence",
        ok,
        f"KS = {rows[0].measured:.4f} (need <= 0.05)",
    )
    assert ok, rows[0].format()


def test_criterion_9_exactness_suites():
    t0 = time.perf_counter()
    rows = verify.alignment_suite(cases=1000, d=128, seed=MASTER)
    elapsed = time.perf_counter() - t0
    bad = [r for r in rows if not r.passed]
    ok = not bad and elapsed <= 30.0
    detail = "; ".join(f"{r.name}: {r.measured:.3g}" for r in rows)
    _report("criterion 9: exactness suites", ok, f"{detail}; runtime {elapsed:.0f}s (limit 30s)")
    assert not bad, "\n".join(r.format() for r in bad)
    assert elapsed <= 30.0


def test_criterion_10_psd_flatness_effect():
    t0 = time.perf_counter()
    cfg = E.ExperimentConfig(
        template=E.SignalFamilySpec(family="power-law-psd", d=512, beta=2.0, phase_seed=1),
        M=1000,
        trials=150,
        master_seed=MASTER,
        frequencies=(),
        sweep=E.SweepSpec("beta", (0.0, 1.0, 2.0)),
    )
    results = dict((beta, stats) for beta, stats in E.run_sweep(cfg))
    elapsed = time.perf_counter() - t0
    order = [2.0, 1.0, 0.0]  # flatter PSD (smaller beta) must win
    gaps = []
    for hi_beta, lo_beta in zip(order, order[1:]):
        a, b = results[hi_beta], results[lo_beta]
        gap = b.mean_pearson - a.mean_pearson
        se = math.hypot(a.pearson_stderr, b.pearson_stderr)
        gaps.append(gap / se)
    ok = all(g > 3.0 for g in gaps) and elapsed <= 300.0
    means = {b: round(s.mean_pearson, 4) for b, s in results.items()}
    _report(
        "criterion 10a: PSD flatness effect",
        ok,
        f"pearson by beta {means}; step z-scores {np.round(gaps, 1)} (need > 3); "
        f"runtime {elapsed:.0f}s",
    )
    assert ok, f"step z-scores {gaps}"


def test_criterion_10_dimension_effect():
    """Pearson across d at fixed M moves the way the finite-d theory predicts.

    Templates are unit-norm, so the flat template has |X[k]|^2 = 1/(d-1): the
    estimator carries signal energy m_d^2 against averaging noise (d-1)/M, and
    rho(d) falls with d at fixed M.  Each simulated step must have the sign of
    the predicted step at more than 3 SE.
    """
    t0 = time.perf_counter()
    cfg = E.ExperimentConfig(
        template=E.SignalFamilySpec(family="power-law-psd", d=512, beta=0.0, phase_seed=1),
        M=1000,
        trials=60,
        master_seed=MASTER,
        frequencies=(),
        sweep=E.SweepSpec("d", (512, 2048, 8192)),
    )
    results = E.run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    rho = {int(d): _flat_pearson(int(d), cfg.M) for d, _ in results}
    gaps = []
    for (d_lo, lo), (d_hi, hi) in zip(results, results[1:]):
        sign = math.copysign(1.0, rho[int(d_hi)] - rho[int(d_lo)])
        gap = hi.mean_pearson - lo.mean_pearson
        se = math.hypot(lo.pearson_stderr, hi.pearson_stderr)
        gaps.append(sign * gap / se)
    ok = all(g > 3.0 for g in gaps) and elapsed <= 300.0
    means = ", ".join(
        f"{int(d)}: {s.mean_pearson:.4f} (rho {rho[int(d)]:.4f})" for d, s in results
    )
    _report(
        "criterion 10b: dimension effect",
        ok,
        f"pearson by d {{{means}}}; step z-scores along the predicted sign {np.round(gaps, 1)} "
        f"(need > 3); runtime {elapsed:.0f}s (limit 300s)",
    )
    assert ok, (
        f"Pearson steps across d do not follow rho(d) at 3 SE: {means}, z={gaps}, "
        f"runtime {elapsed:.0f}s"
    )
