"""Monte-Carlo orchestration: seeding, determinism, aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import efnlab as E
from efnlab import alignment, cli, experiment
from efnlab.errors import InsufficientDataError, InvalidArgumentError, RejectedTemplateError


def small_config(**kw):
    base = dict(
        template=E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1),
        M=50,
        trials=8,
        master_seed=3,
        frequencies=(1, 3, 5),
    )
    base.update(kw)
    return E.ExperimentConfig(**base)


def oracle_trial(cfg, trial_index, drawn=None):
    """Observation o is row o of the trial's stream, aligned by direct sums.

    ``drawn`` rows are taken from the stream and the first M kept.
    """
    template = E.generate_template(cfg.template)
    rng = E.observation_rng(cfg.master_seed, trial_index)
    noise = rng.standard_normal((drawn or cfg.M, template.d))[: cfg.M]
    rows = []
    for n in noise:
        shift = int(np.argmax(E.correlation_oracle(n, template)))
        rows.append(E.circular_shift(n, -shift))
    return template, E.EfnEstimate.from_samples(np.mean(rows, axis=0), cfg.M)


def assert_trial_matches(res, template, ref, ks):
    mags, phases = E.polar(ref.spectrum[ks])
    np.testing.assert_allclose(res.magnitudes, mags, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        res.phase_errors,
        E.wrap_phase(phases - template.phases[ks]),
        rtol=0,
        atol=1e-12,
    )
    assert res.pearson == pytest.approx(
        E.pearson_correlation(ref.samples, template.samples), abs=1e-12
    )


class TestSeeding:
    def test_streams_are_distinct(self):
        draws = {t: E.observation_rng(9, t).standard_normal(4).tobytes() for t in range(9)}
        assert len(set(draws.values())) == 9

    def test_swapped_indices_differ(self):
        a = E.observation_rng(0, 1).standard_normal(4)
        b = E.observation_rng(1, 0).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_trial_stream_differs_from_ck_lane(self):
        # a one-element (lane,) C_k key would give block 0 the key (lane, 0) of trial `lane`
        lane = experiment._CK_SEED_LANE
        ck = np.random.default_rng(alignment.blocks(16_000, experiment._ck_seed(9))[0][0])
        assert not np.array_equal(E.observation_rng(9, lane).standard_normal(8), ck.standard_normal(8))

    def test_no_ck_block_key_is_a_trial_key(self):
        keys = [ss.spawn_key for ss, _ in alignment.blocks(100 * alignment.BLOCK, experiment._ck_seed(9))]
        assert len(set(keys)) == 100 and {len(k) for k in keys} == {3}
        trial_keys = {(t, 0) for t in (*range(200), experiment._CK_SEED_LANE)}
        assert not trial_keys & set(keys)

    def test_trial_is_prefix_of_longer_trial(self):
        # the first M' rows of the M-row stream are the M'-observation trial
        cfg = small_config(M=20)
        template, ref = oracle_trial(cfg, 1, drawn=50)
        (res,) = E.run_trial(cfg, 1)
        assert_trial_matches(res, template, ref, np.asarray(cfg.frequencies))


class TestRunTrial:
    def test_bit_reproducible(self):
        cfg = small_config()
        (a,) = E.run_trial(cfg, 0)
        (b,) = E.run_trial(cfg, 0)
        np.testing.assert_array_equal(a.phase_errors, b.phase_errors)
        np.testing.assert_array_equal(a.magnitudes, b.magnitudes)
        assert a.pearson == b.pearson

    def test_sigma_doubling_scales_magnitudes_only(self):
        # a trial draws unit noise, whatever the config's sigma
        (one,) = E.run_trial(small_config(sigma=1.0), 0)
        (two,) = E.run_trial(small_config(sigma=2.0), 0)
        for field in dataclasses.fields(E.TrialResult):
            np.testing.assert_array_equal(getattr(one, field.name), getattr(two, field.name))
        # the aggregate doubles the mean magnitudes and both their predictions; no phase statistic moves
        lo, hi = (E.run_experiment(small_config(sigma=s, trials=2, ck_trials=1000)) for s in (1.0, 2.0))
        for name in ("mean_magnitude", "predicted_magnitude_thm1", "predicted_magnitude_thm2"):
            np.testing.assert_array_equal(2.0 * getattr(lo, name), getattr(hi, name))
        for name in ("phase_mse", "predicted_mse_thm1", "predicted_mse_thm2"):
            np.testing.assert_array_equal(getattr(lo, name), getattr(hi, name))

    def test_single_observation_trial(self):
        cfg = small_config(M=1)
        (res,) = E.run_trial(cfg, 4)
        template = E.generate_template(cfg.template)
        noise = E.observation_rng(cfg.master_seed, 4).standard_normal((1, 64))[0]
        shift = int(np.argmax(E.correlation_oracle(noise, template)))
        manual = E.EfnEstimate.from_samples(E.circular_shift(noise, -shift), 1)
        ks = np.asarray(cfg.frequencies)
        np.testing.assert_allclose(res.magnitudes, E.polar(manual.spectrum[ks])[0], atol=1e-12)
        assert res.pearson == pytest.approx(
            E.pearson_correlation(manual.samples, template.samples), abs=1e-12
        )

    def test_matches_per_observation_oracle(self, monkeypatch):
        # 7-row chunks against one direct-sum alignment per observation
        cfg = small_config()
        monkeypatch.setattr(alignment, "BUDGET", 7 * 64)
        (res,) = E.run_trial(cfg, 2)
        template, ref = oracle_trial(cfg, 2)
        assert_trial_matches(res, template, ref, np.asarray(cfg.frequencies))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([8, 16, 32]),
        M=st.integers(1, 30),
        shift=st.integers(0, 31),
        template_seed=st.integers(0, 2**32 - 1),
        master_seed=st.integers(0, 2**32 - 1),
    )
    def test_shift_equivariance_of_whole_estimator(self, d, M, shift, template_seed, master_seed):
        # rolling the template rolls every alignment, hence the estimate, by
        # the same lag: magnitudes, Pearson and phase errors stay put
        x = np.random.default_rng(template_seed).standard_normal(d)
        configs = [
            small_config(
                template=E.SignalFamilySpec(family="explicit-samples", d=d, samples=tuple(samples)),
                M=M,
                master_seed=master_seed,
                frequencies=tuple(range(d)),
            )
            for samples in (x, np.roll(x, shift))
        ]
        (base,), (moved,) = (E.run_trial(cfg, 0) for cfg in configs)
        np.testing.assert_allclose(moved.magnitudes, base.magnitudes, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            E.wrap_phase(moved.phase_errors - base.phase_errors), 0.0, rtol=0, atol=1e-9
        )
        assert moved.pearson == pytest.approx(base.pearson, abs=1e-9)


class TestAggregation:
    def test_order_independent_and_parallel_identical(self):
        cfg = small_config()
        serial = E.run_experiment(cfg, workers=1)
        parallel = E.run_experiment(cfg, workers=2)
        np.testing.assert_array_equal(serial.phase_mse, parallel.phase_mse)
        assert serial.mean_pearson == parallel.mean_pearson

        results = [E.run_trial(cfg, t)[0] for t in range(cfg.trials)]
        shuffled = [results[i] for i in (5, 0, 7, 2, 6, 1, 4, 3)]
        profile = E.estimate_ck_profile(E.generate_template(cfg.template), 1000, 0, ks=cfg.frequencies)
        a = E.aggregate_trials(cfg, results, profile)
        b = E.aggregate_trials(cfg, shuffled, profile)
        np.testing.assert_array_equal(a.phase_mse, b.phase_mse)
        np.testing.assert_array_equal(a.mean_magnitude, b.mean_magnitude)

    def test_stderr_shrinks_like_root_trials(self):
        freqs = (1, 2, 3, 5, 8, 13)
        cfg_small = small_config(trials=100, M=30, frequencies=freqs)
        cfg_big = small_config(trials=400, M=30, frequencies=freqs)
        s_small = E.run_experiment(cfg_small)
        s_big = E.run_experiment(cfg_big)
        # stderr estimates of squared wrapped errors are heavy-tailed per k;
        # the 1/sqrt(trials) law is asserted on the mean ratio across bins
        ratio = float(np.mean(s_small.phase_mse_stderr / s_big.phase_mse_stderr))
        assert 1.6 <= ratio <= 2.4

    def test_empty_frequency_list_keeps_pearson(self):
        cfg = small_config(frequencies=())
        stats = E.run_experiment(cfg)
        assert stats.ks.size == 0
        for column in cli.STATS_COLUMNS:
            values = getattr(stats, column)
            assert values.shape == (0,) and values.dtype == np.float64, column
        assert np.isfinite(stats.mean_pearson)
        assert stats.pearson_stderr > 0
        one = E.run_experiment(small_config(frequencies=(), trials=1))
        assert np.isfinite(one.mean_pearson) and math.isnan(one.pearson_stderr)

    def test_predictions_attached_for_both_regimes(self):
        stats = E.run_experiment(small_config(trials=4, ck_trials=1000))
        assert stats.predicted_mse_thm1.shape == stats.phase_mse.shape
        assert stats.predicted_mse_thm2.shape == stats.phase_mse.shape
        assert np.all(stats.predicted_mse_thm1 > 0)
        assert np.all(stats.mse_ratio_thm2 > 0)

    def test_thm1_stderr_is_profile_stderr_over_m(self):
        # the experiment's C_k profile is drawn from its own seed lane
        cfg = small_config(trials=2, ck_trials=1000)
        stats = E.run_experiment(cfg)
        profile = E.estimate_ck_profile(
            E.generate_template(cfg.template), 1000, experiment._ck_seed(cfg.master_seed), ks=cfg.frequencies
        )
        np.testing.assert_array_equal(stats.predicted_mse_thm1_stderr, profile.ck_stderr / cfg.M)
        assert np.all(stats.predicted_mse_thm1_stderr > 0)

    def test_no_trials_rejected(self):
        with pytest.raises(InsufficientDataError):
            E.aggregate_trials(small_config(), [], None)

    def test_profile_must_be_at_the_config_bins(self):
        # a missing profile, or one for other bins, would put no C_k or the
        # C_k of other bins beside the config's bins
        cfg = small_config(M=20, trials=3, frequencies=(1, 5))
        template = E.generate_template(cfg.template)
        results = [E.run_trial(cfg, t)[0] for t in range(cfg.trials)]
        for profile in (None, E.estimate_ck_profile(template, 1000, 0, ks=[2, 7, 9])):
            with pytest.raises(InvalidArgumentError):
                E.aggregate_trials(cfg, results, profile)
        no_bins = small_config(M=20, trials=3, frequencies=())
        with pytest.raises(InvalidArgumentError):
            E.aggregate_trials(no_bins, [E.run_trial(no_bins, 0)[0]], E.estimate_ck_profile(template, 1000, 0, ks=[1]))
        stats = E.aggregate_trials(cfg, results, E.estimate_ck_profile(template, 1000, 0, ks=[1, 5]))
        assert stats.predicted_mse_thm1.shape == (2,)


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(InvalidArgumentError):
            small_config(M=0)
        with pytest.raises(InvalidArgumentError):
            small_config(trials=0)
        with pytest.raises(InvalidArgumentError):
            small_config(sigma=0.0)
        with pytest.raises(InvalidArgumentError):
            small_config(master_seed=-1)
        with pytest.raises(InvalidArgumentError):
            small_config(frequencies=(64,))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidArgumentError, match="sigma"):
            small_config(sigma=sigma)

    @pytest.mark.parametrize("frequencies", [(), (2,)])
    def test_non_alignable_template_rejected_before_trials(self, frequencies, monkeypatch):
        # ones at indices 0 and 8 of 16: every odd bin vanishes
        spec = E.SignalFamilySpec(
            family="explicit-samples", d=16, samples=tuple(float(i in (0, 8)) for i in range(16))
        )
        cfg = small_config(template=spec, M=20, trials=3, frequencies=frequencies)
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        with pytest.raises(RejectedTemplateError):
            E.run_experiment(cfg)
        assert ran == []

    def test_excluded_frequency_reported(self):
        cfg = small_config(frequencies=(0,))  # DC is zeroed for this family
        with pytest.raises(InvalidArgumentError, match="bin 0"):
            E.run_experiment(cfg)

    def test_from_dict_round_trip_and_unknown_fields(self):
        cfg = small_config()
        back = E.ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg
        with pytest.raises(InvalidArgumentError, match="unknown"):
            E.ExperimentConfig.from_dict({**cfg.to_dict(), "bogus": 1})

    @pytest.mark.parametrize("field", ["M", "trials", "ck_trials", "master_seed", "frequencies"])
    def test_from_dict_rejects_non_integral_counts(self, field):
        cfg = small_config(ck_trials=1000)
        doc = cfg.to_dict()
        whole = np.asarray(doc[field], dtype=float)
        doc[field] = (whole + 0.5).tolist()
        with pytest.raises(InvalidArgumentError, match=field):
            E.ExperimentConfig.from_dict(doc)
        doc[field] = whole.tolist()  # a whole float is still accepted
        assert E.ExperimentConfig.from_dict(doc) == cfg

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frequencies", 5),
            ("frequencies", [1, True]),
            ("sigma", "abc"),
            ("sigma", None),
            ("template", 5),
            ("sweep", 5),
            ("sweep", {"axis": "M"}),
            ("sweep", {"axis": "beta", "values": ["a", "b"]}),
            ("template", {"family": "explicit-samples", "d": 4, "samples": 5}),
            ("template", {"family": "explicit-samples", "d": 4, "samples": ["a", 1, 2, 3]}),
            ("template", {"family": "explicit-samples", "d": 4, "samples": [1.0] * 8}),
            ("template", {"family": "power-law-psd", "d": 16, "zero_dc": "no"}),
            ("template", {"family": "power-law-psd", "d": 16, "phase_seed": 1.5}),
            ("template", {"family": "power-law-psd", "d": 16, "phase_seed": -1}),
            ("sweep", {"axis": "M", "values": [10, 20], "extra": 1}),
            ("trials", True),
            ("frequencies", [1, 1]),
        ],
    )
    def test_from_dict_rejects_wrong_types(self, field, value):
        doc = {**small_config().to_dict(), field: value}
        with pytest.raises(InvalidArgumentError, match=field):
            E.ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value", [("M", 10.5), ("trials", "3"), ("sigma", "1"), ("master_seed", 1.5), ("ck_trials", 2000.5)]
    )
    def test_python_construction_checks_types(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            small_config(**{field: value})
        with pytest.raises(InvalidArgumentError, match=field):
            dataclasses.replace(small_config(), **{field: value})

    @pytest.mark.parametrize(
        "family, axis, values",
        [("delta", "beta", (0.0, 1.0)), ("power-law-psd", "pad-ratio", (0.0, 1.0)),
         ("zero-padded-pulse", "beta", (0.0, 1.0))],
    )
    def test_sweep_axis_the_family_ignores_is_rejected(self, family, axis, values):
        template = E.SignalFamilySpec(family=family, d=64)
        with pytest.raises(InvalidArgumentError, match=f"{axis} sweep"):
            small_config(template=template, sweep=E.SweepSpec(axis, values))

    @pytest.mark.parametrize("axis", ["M", "d"])
    def test_sweep_rejects_non_integral_values(self, axis):
        with pytest.raises(InvalidArgumentError, match=axis):
            E.SweepSpec(axis, (10.9, 20.5, 30.2))
        values = E.SweepSpec(axis, (200.0, 500)).values  # stored as ints
        assert values == (200, 500) and all(type(v) is int for v in values)

    @pytest.mark.parametrize("values", [(0, 10), (-5, 10)])
    def test_m_sweep_rejects_values_below_one(self, values):
        with pytest.raises(InvalidArgumentError, match="must be >= 1"):
            E.SweepSpec("M", values)

    def test_checkpoints(self):
        sweep = E.SweepSpec("M", (10, 20, 40))
        assert small_config().checkpoints == (50,)
        assert small_config(M=40, sweep=sweep).checkpoints == (10, 20, 40)
        # the swept M takes the sweep's last value, whatever the config gave
        cfg = small_config(M=30, sweep=sweep)
        assert cfg.M == 40 and cfg.checkpoints == (10, 20, 40)
        assert small_config(M=40, sweep=E.SweepSpec("d", (64, 128))).checkpoints == (40,)

    @pytest.mark.parametrize("axis", ["beta", "pad-ratio"])
    def test_template_field_sweep_values_are_floats(self, axis):
        spec = E.SweepSpec(axis, (0, 1))
        assert spec.values == (0.0, 1.0)
        assert all(type(v) is float for v in spec.values)

    @pytest.mark.parametrize(
        "template, sweep",
        [
            (E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1), E.SweepSpec("M", (10, 20))),
            (E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1), E.SweepSpec("d", (64, 128))),
            (E.SignalFamilySpec(family="power-law-psd", d=64, phase_seed=1), E.SweepSpec("beta", (0.5, 2))),
            (E.SignalFamilySpec(family="zero-padded-pulse", d=64), E.SweepSpec("pad-ratio", (0, 3))),
        ],
        ids=["M", "d", "beta", "pad-ratio"],
    )
    def test_sweep_config_is_its_last_values_config(self, template, sweep):
        cfg = small_config(template=template, sweep=sweep)
        assert dataclasses.replace(cfg, sweep=None) == E.sweep_configs(cfg)[-1][1]

    def test_sweep_values_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            E.SweepSpec("M", (100, 100))
        with pytest.raises(InvalidArgumentError):
            E.SweepSpec("nope", (1, 2))


class TestSweeps:
    def test_sweep_config_expansion(self):
        cfg = small_config(sweep=E.SweepSpec("M", (10, 20)))
        pairs = E.sweep_configs(cfg)
        assert [v for v, _ in pairs] == [10, 20]
        assert all(c.sweep is None for _, c in pairs)
        assert pairs[0][1].M == 10 and pairs[1][1].M == 20

    def test_d_sweep_resizes_template(self):
        cfg = small_config(sweep=E.SweepSpec("d", (64, 128)), frequencies=(1, 3))
        pairs = E.sweep_configs(cfg)
        assert pairs[1][1].template.d == 128

    def test_run_sweep_matches_individual_runs(self, monkeypatch):
        # 7-row chunks: checkpoints 3, 10 and 25 fall mid-chunk, 7 and 21 on a boundary
        monkeypatch.setattr(alignment, "BUDGET", 7 * 64)
        cfg = small_config(trials=3, sweep=E.SweepSpec("M", (3, 7, 10, 21, 25)), ck_trials=1000)
        for workers in (1, 2):
            swept = E.run_sweep(cfg, workers=workers)
            assert [v for v, _ in swept] == [3, 7, 10, 21, 25]
            for (_, stats), (_, solo_cfg) in zip(swept, E.sweep_configs(cfg)):
                solo = E.run_experiment(solo_cfg, workers=workers)
                assert stats.config == solo.config and stats.n_trials == solo.n_trials
                for column in cli.STATS_COLUMNS:
                    np.testing.assert_array_equal(getattr(stats, column), getattr(solo, column))
                assert stats.mean_pearson == solo.mean_pearson
                assert stats.pearson_stderr == solo.pearson_stderr

    def test_run_experiment_on_an_m_sweep_runs_its_largest_m(self):
        cfg = small_config(M=5, trials=2, sweep=E.SweepSpec("M", (10, 20)), ck_trials=1000)
        telemetry = E.Telemetry()
        stats = E.run_experiment(cfg, workers=1, telemetry=telemetry)
        solo = E.run_experiment(E.sweep_configs(cfg)[-1][1], workers=1)
        assert stats.config.M == 20 and stats.config == solo.config
        assert telemetry.observations == 2 * 20
        for column in cli.STATS_COLUMNS:
            np.testing.assert_array_equal(getattr(stats, column), getattr(solo, column))

    def test_run_sweep_without_a_sweep_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="no sweep"):
            E.run_sweep(small_config())

    def test_every_sweep_value_is_checked_before_any_trial(self, monkeypatch):
        # at beta = 100 the d=16 spectrum falls below the non-vanishing floor
        ran, run_trial = [], experiment.run_trial
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t) or run_trial(config, t))
        spec = E.SignalFamilySpec(family="power-law-psd", d=16, phase_seed=1)
        cfg = small_config(template=spec, M=20, trials=3, frequencies=(1, 3), sweep=E.SweepSpec("beta", (0, 1, 100)))
        with pytest.raises(RejectedTemplateError):
            E.run_sweep(cfg)
        assert ran == []

    def test_m_sweep_is_one_walk_and_one_profile(self, monkeypatch):
        drawn, profiles = [], []

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *, out):
                drawn[-1] += out.shape[0]
                return self.rng.standard_normal(out=out)

        def counting_rng(master_seed, trial_index):
            drawn.append(0)
            return CountingRng(E.observation_rng(master_seed, trial_index))

        def counting_profile(*args, **kwargs):
            profiles.append(kwargs["ks"])
            return E.estimate_ck_profile(*args, **kwargs)

        monkeypatch.setattr(experiment, "observation_rng", counting_rng)
        monkeypatch.setattr(experiment, "estimate_ck_profile", counting_profile)
        cfg = small_config(trials=3, sweep=E.SweepSpec("M", (5, 10, 20, 40)), ck_trials=1000)
        telemetry = E.Telemetry()
        E.run_sweep(cfg, workers=1, telemetry=telemetry)  # counted in this process
        assert drawn == [40, 40, 40]
        assert len(profiles) == 1
        assert (telemetry.trials, telemetry.observations, telemetry.ck_draws) == (3, 120, 1000)

        drawn.clear()
        profiles.clear()
        E.run_sweep(small_config(trials=2, sweep=E.SweepSpec("d", (64, 128)), ck_trials=1000), workers=1)
        assert drawn == [50] * 4
        assert len(profiles) == 2


class TestKsStatistic:
    def test_self_consistency_via_inverse_cdf(self):
        rng = np.random.default_rng(12)
        samples = -np.log(-np.log(rng.uniform(size=10_000)))  # standard Gumbel inverse CDF
        assert E.ks_statistic(samples) <= 0.02

    def test_constant_samples_are_far(self):
        assert E.ks_statistic(np.full(200, -5.0)) >= 0.99

    def test_preconditions(self):
        with pytest.raises(InsufficientDataError):
            E.ks_statistic(np.zeros(50))
