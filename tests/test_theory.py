"""Conditional Gaussian, Gumbel constants, softmax approximation, C_k."""

import math

import numpy as np
import pytest

import efnlab as E
from efnlab import alignment, experiment, verify
from efnlab.errors import ExcludedBinError, InvalidArgumentError


def delta(d):
    return E.generate_template(E.SignalFamilySpec(family="delta", d=d))


def flat(d, seed=0):
    return E.generate_template(
        E.SignalFamilySpec(family="power-law-psd", d=d, beta=0.0, phase_seed=seed)
    )


def beta_one(d):
    return E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=d, beta=1.0))


class FixedNormals(np.random.Generator):
    """A Generator whose standard_normal returns one given block."""

    def __init__(self, block):
        super().__init__(np.random.PCG64(0))
        self.block = block

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        assert tuple(size) == self.block.shape
        return self.block.copy()


def covariance(template, k):
    """The law's covariance from its definition, the reference for the
    builder's filter and the sampler: A (I - P_k) A^T, where row r of A is
    the template shifted by r and P_k projects onto the cosine and sine at
    k, scaled to a unit diagonal."""
    d = template.d
    A = np.stack([np.roll(template.samples, r) for r in range(d)])
    angle = 2.0 * np.pi * k * np.arange(d) / d
    # at k = 0 and d/2 the sine vanishes and P_k projects onto the cosine alone
    P = sum(np.outer(v, v) / (v @ v) for v in (np.cos(angle), np.sin(angle)) if v @ v > 1e-9)
    C = A @ (np.eye(d) - P) @ A.T
    s = np.sqrt(np.diag(C))
    return C / np.outer(s, s)


def sample_from(h, w):
    """The sampler's rows for the white block ``w``."""
    return E.sample_cyclostationary(h, FixedNormals(w), size=w.shape[0])


def gram(h):
    """The covariance of the sampler's rows: row i is the filter F applied to
    e_i, so the rows form G = F^T and the covariance F F^T is G^T G."""
    g = sample_from(h, np.eye(2 * (h.size - 1)))
    return g.T @ g


class TestConditionalGaussian:
    def test_delta_template_structure(self):
        d, k = 16, 3
        h = E.build_conditional_gaussian(delta(d), k)
        assert h.shape == (d // 2 + 1,) and h[k] == 0.0
        others = np.delete(h, k)
        assert np.ptp(others) <= 1e-15  # every other bin, 0 and d/2 included, carries equal weight
        # the conditioned pair (k, d-k) is the Gram matrix's null space
        waves = np.exp(2j * np.pi * k * np.arange(d) / d)
        np.testing.assert_allclose(gram(h) @ waves, 0.0, rtol=0, atol=1e-12)

    def test_eigenvalues_sum_to_one(self):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=8, beta=1.0))
        for k in range(8):
            h = E.build_conditional_gaussian(t, k)
            eigenvalues = np.concatenate([h, h[1:-1]]) ** 2  # every bin of the full spectrum
            assert abs(eigenvalues.sum() / 8 - 1.0) <= 1e-12

    def test_k_zero_boundary(self):
        d = 8
        h = E.build_conditional_gaussian(delta(d), 0)
        assert h[0] == 0.0
        assert h[d // 2] > 0.0  # only bin 0 was zeroed
        np.testing.assert_allclose(np.diag(gram(h)), 1.0, rtol=0, atol=1e-12)

    def test_covariance_diagonal_is_one(self):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=8, beta=2.0))
        np.testing.assert_allclose(np.diag(gram(E.build_conditional_gaussian(t, 2))), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.diag(covariance(t, 2)), 1.0, rtol=0, atol=1e-12)

    def test_sigma2_approaches_half_for_flat_family(self):
        # the normalizer, read off a bin outside the pair k: h_j^2 = d |X[j]|^2 / sum_l |X[l]|^2
        for d in (64, 256, 1024):
            t = flat(d)
            h = E.build_conditional_gaussian(t, 3)
            assert abs(h[1] ** 2 / (2.0 * d * t.magnitudes[1] ** 2) - 0.5) <= 2.0 / d

    @pytest.mark.parametrize(
        "family, k",
        [("delta", k) for k in (0, 3, 7, 8)] + [("flat", k) for k in (3, 7, 8)] + [("beta1-dc", k) for k in (0, 3, 7, 8)],
    )
    def test_filter_gram_is_the_exact_law(self, family, k):
        # flat is zero-DC, so its bin 0 is not conditioned on
        template = {
            "delta": delta(16),
            "flat": flat(16),
            "beta1-dc": E.generate_template(
                E.SignalFamilySpec(family="power-law-psd", d=16, beta=1.0, zero_dc=False)
            ),
        }[family]
        h = E.build_conditional_gaussian(template, k)
        assert h.dtype == float and not h.flags.writeable
        np.testing.assert_allclose(gram(h), covariance(template, k), rtol=0, atol=1e-12)

    def test_invalid_k(self):
        with pytest.raises(InvalidArgumentError):
            E.build_conditional_gaussian(delta(8), 8)


class TestSampler:
    def test_zero_eigenvalues_give_deterministic_mean(self):
        np.testing.assert_array_equal(E.sample_cyclostationary(np.zeros(5), 0, size=3), np.zeros((3, 8)))

    def test_flat_eigenvalues_have_no_lag_correlation(self):
        d = 16
        z = E.sample_cyclostationary(np.ones(d // 2 + 1), 5, size=100_000)
        lag1 = (z[:, :-1] * z[:, 1:]).mean()
        se = (z[:, :-1] * z[:, 1:]).std(ddof=1) / math.sqrt(z[:, 1:].size)
        assert abs(lag1) <= 3 * se

    @pytest.mark.parametrize("k", [0, 2, 8])
    def test_filter_gram_is_target_covariance(self, k):
        t = beta_one(16)
        np.testing.assert_allclose(gram(E.build_conditional_gaussian(t, k)), covariance(t, k), rtol=0, atol=1e-12)

    def test_empirical_covariance_matches_target(self):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=8, beta=1.0))
        z = E.sample_cyclostationary(E.build_conditional_gaussian(t, 1), 21, size=100_000)
        emp = (z.T @ z) / z.shape[0]
        target = covariance(t, 1)
        # entrywise 3-SE window; SE of a covariance entry is ~sqrt((1+c^2)/n)
        se = np.sqrt((1.0 + target**2) / z.shape[0])
        assert np.all(np.abs(emp - target) <= 3 * se)

    def test_consecutive_calls_continue_one_stream(self):
        h = E.build_conditional_gaussian(flat(16), 3)
        rng = np.random.default_rng(8)
        parts = [E.sample_cyclostationary(h, rng, size=m) for m in (1, 5, 4)]
        whole = E.sample_cyclostationary(h, np.random.default_rng(8), size=10)
        np.testing.assert_array_equal(np.concatenate(parts), whole)


class TestGumbelConstants:
    def test_frozen_values(self):
        a_d, b_d = E.gumbel_constants(1024)
        assert a_d == pytest.approx(3.7232974110590341, abs=1e-12)
        assert b_d == pytest.approx(3.1234129637256856, abs=1e-12)
        a_d, b_d = E.gumbel_constants(256)
        assert a_d == pytest.approx(3.330218444630791, abs=1e-12)
        assert b_d == pytest.approx(2.693030083172122, abs=1e-12)

    def test_monotone_structure(self):
        prev = 0.0
        for d in (3, 8, 64, 1024, 1 << 20):
            a_d, b_d = E.gumbel_constants(d)
            assert a_d > prev
            assert b_d < a_d
            prev = a_d

    def test_small_d_rejected(self):
        with pytest.raises(InvalidArgumentError):
            E.gumbel_constants(2)


class TestSoftmaxExpectation:
    def test_uniform_weights_give_plain_mean(self):
        assert E.softmax_expectation(np.arange(4.0), np.zeros(4)) == pytest.approx(1.5, abs=1e-14)

    def test_indicator_gives_one_over_d(self):
        d = 10
        f = np.zeros(d)
        f[3] = 1.0
        assert E.softmax_expectation(f, np.zeros(d)) == pytest.approx(1.0 / d, abs=1e-14)

    def test_bounded_by_max_f(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(2, 200))
            f = rng.standard_normal(d) * float(rng.uniform(0.1, 50))
            mu = rng.standard_normal(d) * float(rng.uniform(0.1, 20))
            assert abs(E.softmax_expectation(f, mu)) <= np.abs(f).max() + 1e-12

    def test_overflow_safe(self):
        f = np.array([1.0, 2.0])
        mu = np.array([500.0, -500.0])
        assert E.softmax_expectation(f, mu) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            E.softmax_expectation(np.zeros(3), np.zeros(4))


def m_star(mean, f, alpha):
    """Tilted log-mean-exp a_d^{-1} ln(d^{-1} sum_i e^{a_d (mean_i + alpha f_i)})."""
    a_d = math.sqrt(2.0 * math.log(mean.size))
    return (np.logaddexp.reduce(a_d * (mean + alpha * f)) - math.log(mean.size)) / a_d


class TestMStar:
    def test_derivative_identity(self):
        # the softmax expectation is the alpha-derivative of m_star at 0
        rng = np.random.default_rng(10)
        d = 256
        mu = rng.standard_normal(d) * 0.3
        f = rng.standard_normal(d)
        h = 1e-5
        fd = (m_star(mu, f, h) - m_star(mu, f, -h)) / (2.0 * h)
        assert abs(fd - E.softmax_expectation(f, mu)) <= 1e-6


class TestCkEstimate:
    def test_symmetry_and_positivity(self):
        t = delta(8)
        est = E.estimate_ck_profile(t, 20_000, 3, ks=[1])
        assert abs(est.mu_a[0]) <= 3.0 * est.mu_a_stderr[0]
        assert est.mu_b[0] >= 2.3263 * est.mu_b_stderr[0]

    def test_split_sample_agreement(self):
        t = delta(8)
        a = E.estimate_ck_profile(t, 30_000, 100, ks=[1])
        b = E.estimate_ck_profile(t, 30_000, 200, ks=[1])
        combined = math.hypot(a.ck_stderr[0], b.ck_stderr[0])
        assert abs(a.ck[0] - b.ck[0]) <= 3.0 * combined

    def test_trials_floor(self):
        with pytest.raises(InvalidArgumentError):
            E.estimate_ck_profile(delta(8), 999, 0, ks=[1])

    def test_profile_matches_single(self):
        t = delta(8)
        single = E.estimate_ck_profile(t, 5000, 42, ks=[2])
        prof = E.estimate_ck_profile(t, 5000, 42, ks=[1, 2, 3])
        # same draws either way; only the reduction shapes differ (ulp noise)
        assert prof.ck[1] == pytest.approx(single.ck[0], rel=1e-12)
        assert prof.ck_stderr[1] == pytest.approx(single.ck_stderr[0], rel=1e-12)


class TestPredictions:
    def test_thm2_phase_mse_frozen_value(self):
        t = delta(1024)
        pred = E.predict_phase_mse(t, 5, 1000)
        assert pred == pytest.approx(0.036932993046757463, abs=1e-12)

    def test_doubling_m_halves_both_regimes(self):
        t = delta(64)
        p1 = E.predict_phase_mse(t, 3, 500)
        p2 = E.predict_phase_mse(t, 3, 1000)
        assert p2 == p1 / 2.0
        # the fixed-d prediction is C_k / M from a profile that does not depend on M
        spec = E.SignalFamilySpec(family="delta", d=64)
        profile = E.estimate_ck_profile(t, 1000, 0, ks=[3])
        q1, q2 = (
            E.aggregate_trials(
                E.ExperimentConfig(template=spec, M=M, trials=2, frequencies=(3,), ck_trials=1000),
                [E.TrialResult(i, np.zeros(1), np.ones(1), 0.5, M) for i in range(2)],
                profile,
            ).predicted_mse_thm1[0]
            for M in (500, 1000)
        )
        assert q2 == q1 / 2.0

    def test_prediction_slope_is_exactly_minus_one(self):
        t = delta(256)
        pts = [(M, E.predict_phase_mse(t, 3, M)) for M in (200, 500, 1500, 5000)]
        M, mse = np.asarray(pts).T
        assert np.polyfit(np.log(M), np.log(mse), 1)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_thm2_magnitude_frozen_value(self):
        t = delta(1024)
        pred = E.predict_magnitude(t, 7)
        assert pred == pytest.approx(0.11635304409559482, abs=1e-12)

    def test_thm2_magnitude_linear_in_template_magnitude(self):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0))
        m = t.magnitudes
        r1 = E.predict_magnitude(t, 1) / m[1]
        r2 = E.predict_magnitude(t, 9) / m[9]
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_thm1_magnitude_is_mu_b(self):
        # the fixed-d magnitude prediction is the profile's mu_b at each bin
        spec = E.SignalFamilySpec(family="delta", d=8)
        cfg = E.ExperimentConfig(
            template=spec, M=10, trials=2, master_seed=5, frequencies=(1, 2), ck_trials=5000
        )
        stats = E.run_experiment(cfg)
        profile = E.estimate_ck_profile(delta(8), 5000, experiment._ck_seed(5), ks=[1, 2])
        np.testing.assert_array_equal(stats.predicted_magnitude_thm1, profile.mu_b)

    def test_thm2_rejects_floor_bins(self):
        t = flat(16)  # zero DC
        with pytest.raises(ExcludedBinError, match="bin 0 excluded"):
            E.predict_phase_mse(t, 0, 100)
        with pytest.raises(ExcludedBinError, match="bin 0 excluded"):
            E.predict_magnitude(t, [1, 0])
        for k in (-1, 16):  # out of range, not wrapped round or an IndexError
            with pytest.raises(InvalidArgumentError, match=f"frequency index {k} out of range"):
                E.predict_phase_mse(t, k, 100)
            with pytest.raises(InvalidArgumentError, match=f"frequency index {k} out of range"):
                E.predict_magnitude(t, k)

    @pytest.mark.parametrize(
        "template, ks",
        [(lambda: flat(2048, seed=1), range(256, 769)),  # the benchmark's flat_hd template and bins
         (lambda: E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=1024, beta=1.0, phase_seed=1)),
          range(1, 1024))],
        ids=["flat_hd", "beta-one-1024"],
    )
    def test_array_forms_match_a_per_bin_loop(self, template, ks):
        t = template()
        m, d, M = t.magnitudes, t.d, 2000
        mse = np.asarray([1.0 / (4.0 * m[k] ** 2 * M * math.log(d)) for k in ks])
        mag = np.asarray([math.sqrt(2.0 * math.log(d)) * float(m[k]) for k in ks])
        ks = np.asarray(ks)
        assert E.predict_phase_mse(t, ks, M).tobytes() == mse.tobytes()
        assert E.predict_magnitude(t, ks).tobytes() == mag.tobytes()


class TestLemma1:
    def test_peak_bin_dominates_at_phi_zero(self):
        rep = E.lemma1_check(delta(8), 1, 0.0, 100_000, 9)
        # at l=0, mu=1: the +mu process wins the argmax more often
        assert rep.diff[0] > 0
        assert rep.diff[0] / rep.diff_stderr[0] >= 2.3263
        # where |mu| > 0.3, each argmax-frequency difference has the sign of mu
        sel = np.abs(rep.mu) > 0.3
        np.testing.assert_array_equal(np.sign(rep.diff[sel]), np.sign(rep.mu[sel]))
        assert rep.conc_sum - 2.3263 * rep.conc_sum_stderr > 0

    def test_zero_mean_control_is_balanced(self):
        # independent zero-mean draws: per-bin argmax frequencies must agree
        t = delta(8)
        cg = E.build_conditional_gaussian(t, 1)
        rng = np.random.default_rng(33)
        n = 100_000
        r1 = np.argmax(E.sample_cyclostationary(cg, rng, size=n), axis=1)
        r2 = np.argmax(E.sample_cyclostationary(cg, rng, size=n), axis=1)
        f1 = np.bincount(r1, minlength=8) / n
        f2 = np.bincount(r2, minlength=8) / n
        se = np.sqrt(f1 * (1 - f1) / n + f2 * (1 - f2) / n)
        assert np.all(np.abs(f1 - f2) <= 3 * se)

    def test_draws_go_through_verify_sampler(self, monkeypatch):
        # the benchmark's trace counts sampler draws under efnlab.verify
        drawn = []
        sampler = verify.sample_cyclostationary

        def counting(cg, rng, size):
            drawn.append(size)
            return sampler(cg, rng, size)

        monkeypatch.setattr(verify, "sample_cyclostationary", counting)
        verify.lemma1_check(delta(8), 1, 0.0, 100_000, 9, workers=1)  # counted in this process
        assert sum(drawn) == 100_000
        # prop3 pairs its argmax samples: a block of n samples draws (n + 1) // 2 rows
        drawn.clear()
        n = 2 * alignment.BLOCK + 5
        verify.prop3_case(64, n, 2, workers=1)
        assert sum(drawn) == sum((size + 1) // 2 for _, size in alignment.blocks(n, 2))

    def test_insufficient_draws_rejected(self):
        with pytest.raises(InvalidArgumentError, match="lemma1 --draws must be >= 100000, got 50000"):
            E.lemma1_check(delta(8), 1, 0.0, 50_000, 0)

    def test_chunk_size_invariant(self, monkeypatch):
        d, phi = 8, math.pi / 3.0
        whole = E.lemma1_check(delta(d), 1, phi, 100_003, 4)
        monkeypatch.setattr(alignment, "BUDGET", 7 * d)
        chunked = E.lemma1_check(delta(d), 1, phi, 100_003, 4)
        for name in ("diff", "diff_stderr"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))
        assert chunked.conc_sum == whole.conc_sum
        assert chunked.conc_sum_stderr == whole.conc_sum_stderr

    def test_matches_per_draw_reference(self):
        # one sampler call per keyed block, then the per-draw paired statistics
        d, k, phi, n, seed = 8, 1, 2.0 * math.pi / 3.0, 100_000, 6
        t = delta(d)
        rep = E.lemma1_check(t, k, phi, n, seed)
        cg = E.build_conditional_gaussian(t, k)
        z = np.concatenate([E.sample_cyclostationary(cg, ss, size=size) for ss, size in alignment.blocks(n, seed)])
        mu = np.cos(2.0 * np.pi * k * np.arange(d) / d + phi)
        r1 = np.argmax(z + mu, axis=1)
        r2 = np.argmax(z - mu, axis=1)
        count1 = np.bincount(r1, minlength=d)
        count2 = np.bincount(r2, minlength=d)
        count_both = np.bincount(r1[r1 == r2], minlength=d)
        diff = (count1 - count2) / n
        var_diff = (count1 + count2 - 2.0 * count_both) / n - diff**2
        term = np.cos(2.0 * np.pi * k * r1 / d + phi) - np.cos(2.0 * np.pi * k * r2 / d + phi)
        np.testing.assert_allclose(rep.diff, diff, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.diff_stderr, np.sqrt(var_diff / n), rtol=1e-12)
        assert rep.conc_sum == pytest.approx(term.sum() / n, rel=0, abs=1e-12)
        var_conc = (term**2).sum() / n - (term.sum() / n) ** 2
        assert rep.conc_sum_stderr == pytest.approx(math.sqrt(var_conc / n), rel=1e-12)


class TestVerifyMonteCarlo:
    def test_prop3_matches_paired_reference(self):
        # one sampler call per keyed block of n samples: (n + 1) // 2 zero-mean
        # rows z, each counted as mean + z, and as mean - z for the first n // 2
        d, draws, seed = 64, 2 * alignment.BLOCK + 5, 3
        t = flat(d)
        k, phase = verify.PROP3_K, verify.PROP3_NOISE_PHASE
        cg0 = E.build_conditional_gaussian(t, k)
        f = np.cos(2.0 * np.pi * k * np.arange(d) / d + phase - t.phases[k])
        mean = 2.0 * t.magnitudes[k] * verify.PROP3_NOISE_MAG * f
        counts = np.zeros(d, dtype=np.int64)
        for ss, n in alignment.blocks(draws, seed):
            z = E.sample_cyclostationary(cg0, ss, size=(n + 1) // 2)
            counts += np.bincount(np.argmax(mean + z, axis=1), minlength=d)
            counts += np.bincount(np.argmax(mean - z, axis=1)[: n // 2], minlength=d)
        assert counts.sum() == draws
        soft, mc = verify.prop3_case(d, draws, seed)
        assert soft == E.softmax_expectation(f, mean)
        assert mc == float(f @ counts) / draws

    def test_prop3_chunk_size_invariant(self, monkeypatch):
        d = 64
        whole = verify.prop3_case(d, 20_003, 2)
        monkeypatch.setattr(alignment, "BUDGET", 7 * d)
        assert verify.prop3_case(d, 20_003, 2) == whole

    @pytest.mark.parametrize(
        "run",
        [
            lambda workers: verify.prop3_case(64, 3 * alignment.BLOCK + 5, 2, workers),
            lambda workers: verify.lemma1_check(delta(8), 1, math.pi / 3.0, 100_003, 4, workers),
            lambda workers: E.alignment_moments(
                beta_one(64), 2 * alignment.BLOCK + 7, 11, ks=[1, 5, 32, 40], workers=workers
            ),
        ],
        ids=["prop3_case", "lemma1_check", "alignment_moments"],
    )
    def test_keyed_blocks_are_worker_and_chunk_invariant(self, monkeypatch, run):
        def as_bytes(result):
            values = result if isinstance(result, tuple) else vars(result).values()
            return b"".join(np.asarray(v).tobytes() for v in values)

        want = None
        for budget in (alignment.BUDGET, 7 * 64):
            monkeypatch.setattr(alignment, "BUDGET", budget)
            for workers in (1, 2, 3):
                got = as_bytes(run(workers))
                want = want or got
                assert got == want, (budget, workers)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify.alignment_suite(0, 1),
            lambda: verify.prop3_case(64, 0, 1),
            lambda: verify.prop3_suite(0, 1),
            lambda: verify.gumbel_suite(0, 1),
        ],
        ids=["alignment_suite", "prop3_case", "prop3_suite", "gumbel_suite"],
    )
    def test_count_below_one_rejected(self, run):
        with pytest.raises(InvalidArgumentError):
            run()

    def test_gumbel_matches_single_block(self, monkeypatch):
        d, n, seed = 64, 5000, 3
        monkeypatch.setattr(alignment, "BUDGET", 7 * d)
        row = verify.gumbel_suite(d=d, replicates=n, seed=seed)[0]
        a_d, b_d = E.gumbel_constants(d)
        maxima = np.random.default_rng(seed).standard_normal((n, d)).max(1)
        assert row.measured == E.ks_statistic(a_d * (maxima - b_d))


class TestCheckRow:
    @pytest.mark.parametrize("measured", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("comparator", ["<=", ">="])
    def test_non_finite_measurement_fails(self, measured, comparator):
        assert not verify.CheckRow("z", measured, 2.33, comparator).passed
        assert verify.CheckRow("z", 2.33, 2.33, comparator).passed
        with pytest.raises(InvalidArgumentError):
            verify.CheckRow("z", measured, 2.33, "<").passed


class TestAlignmentMoments:
    def test_bad_frequency_rejected(self):
        with pytest.raises(InvalidArgumentError):
            E.alignment_moments(delta(8), 1000, 0, ks=[9])

    def test_excluded_bin_rejected(self):
        # the moments divide the kernel's product by |X[k]|, so a zeroed DC
        # bin (|X[0]| = 6.9e-18 here) is refused rather than read as noise
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1))
        with pytest.raises(ExcludedBinError):
            E.alignment_moments(t, 1000, 0, ks=[1, 0])

    def test_deterministic_per_seed(self):
        t = delta(16)
        a = E.alignment_moments(t, 2000, 7, ks=[1, 2])
        b = E.alignment_moments(t, 2000, 7, ks=[1, 2])
        np.testing.assert_array_equal(a.mu_b, b.mu_b)

    def test_chunk_size_invariant(self, monkeypatch):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=2))
        # both sides of d/2 and d/2 itself; and one frequency, where a per-bin
        # row sum would be summed pairwise rather than in row order
        profiles = ([1, 5, 31, 32, 33, 40, 63], [5])
        whole = [E.alignment_moments(t, 2000, 11, ks=ks) for ks in profiles]
        monkeypatch.setattr(alignment, "BUDGET", 7 * 64)
        chunked = [E.alignment_moments(t, 2000, 11, ks=ks) for ks in profiles]
        for w, c in zip(whole, chunked):
            for name in ("mu_a", "mu_a_stderr", "mu_b", "mu_b_stderr", "ck", "ck_stderr"):
                np.testing.assert_array_equal(getattr(c, name), getattr(w, name))

    def test_matches_full_fft_reference(self):
        # N[k] for k > d/2 comes from the conjugate of rfft bin d-k
        d, n, seed = 16, 1000, 4
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=d, beta=0.5, phase_seed=3))
        ks = np.arange(1, d)  # every bin but the zeroed DC
        m = E.alignment_moments(t, n, seed, ks=ks)
        blocks = alignment.blocks(n, seed)
        noise = np.concatenate([np.random.default_rng(ss).standard_normal((size, d)) for ss, size in blocks])
        shifts = np.array([np.argmax(E.correlation_oracle(row, t)) for row in noise])
        spec = np.fft.fft(noise, axis=1)[:, ks] / math.sqrt(d)
        phi_e = 2.0 * np.pi * ks[None, :] * shifts[:, None] / d + np.angle(spec) - t.phases[ks]
        a = np.abs(spec) * np.sin(phi_e)
        b = np.abs(spec) * np.cos(phi_e)
        np.testing.assert_allclose(m.mu_a, a.mean(0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.mu_b, b.mean(0), rtol=0, atol=1e-12)
        m2a, mb = (a**2).mean(0), b.mean(0)
        # delta method: gradient of m2a / mb^2 through the covariance of (a^2, b)
        grad = np.stack([1.0 / mb**2, -2.0 * m2a / mb**3])
        dev = np.stack([a**2 - m2a, b - mb])
        cov = np.einsum("inj,mnj->imj", dev, dev) / n**2
        var_ck = np.einsum("ij,imj,mj->j", grad, cov, grad)
        # at the real bin d/2, C_k and its stderr are rounding residue of a
        # zero second moment on both sides, so only their size is compared
        real = ks == d // 2
        np.testing.assert_allclose(m.ck[~real], (m2a / mb**2)[~real], rtol=1e-10)
        np.testing.assert_allclose(m.ck_stderr[~real], np.sqrt(var_ck)[~real], rtol=1e-8)
        np.testing.assert_allclose(m.ck[real], (m2a / mb**2)[real], rtol=0, atol=1e-25)
        np.testing.assert_allclose(m.ck_stderr[real], np.sqrt(var_ck)[real], rtol=0, atol=1e-25)
