"""The running aligned sum, phase metrics, Pearson correlation."""

import math

import numpy as np
import pytest

import efnlab as E
from efnlab import alignment, experiment
from efnlab.errors import (
    ExcludedBinError,
    InvalidArgumentError,
    LengthMismatchError,
    UndefinedCorrelationError,
)


def delta(d):
    return E.generate_template(E.SignalFamilySpec(family="delta", d=d))


def plaw(d, beta=1.0, seed=1, zero_dc=True):
    return E.generate_template(
        E.SignalFamilySpec(family="power-law-psd", d=d, beta=beta, phase_seed=seed, zero_dc=zero_dc)
    )


def trial_config(template_spec, M, **kw):
    d = template_spec.d
    return E.ExperimentConfig(
        template=template_spec, M=M, trials=1, frequencies=tuple(range(d)), **kw
    )


class _RepeatedRow:
    """Stand-in trial stream whose every observation is the same row."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def standard_normal(self, *, out):
        out[:] = self.row
        return out


class TestAccumulator:
    """The running sum of aligned observations that run_trial folds chunk by chunk."""

    def test_single_observation_unwind(self, monkeypatch):
        row = [0.5, 2.0, -1.0, 0.3]  # peak at lag 1
        monkeypatch.setattr(experiment, "observation_rng", lambda *key: _RepeatedRow(row))
        (res,) = E.run_trial(trial_config(E.SignalFamilySpec(family="delta", d=4), M=1), 0)
        mags, phases = E.polar(E.EfnEstimate.from_samples([2.0, -1.0, 0.3, 0.5], 1).spectrum)
        np.testing.assert_array_equal(res.magnitudes, mags)
        np.testing.assert_array_equal(res.phase_errors, phases)

    def test_duplicate_averaging_idempotent(self, monkeypatch):
        row = np.random.default_rng(4).standard_normal(16)
        monkeypatch.setattr(experiment, "observation_rng", lambda *key: _RepeatedRow(row))
        spec = E.SignalFamilySpec(family="power-law-psd", d=16, beta=0.5, phase_seed=1, zero_dc=False)
        (one,) = E.run_trial(trial_config(spec, M=1), 0)
        (two,) = E.run_trial(trial_config(spec, M=2), 0)
        np.testing.assert_array_equal(one.magnitudes, two.magnitudes)
        np.testing.assert_array_equal(one.phase_errors, two.phase_errors)
        assert one.pearson == two.pearson

    def test_merge_equals_sequential_exactly(self, monkeypatch):
        # folding each chunk into the running total equals one row-order sum
        spec = E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1)
        cfg = E.ExperimentConfig(template=spec, M=50, trials=1, master_seed=3, frequencies=(1, 3, 5))
        (whole,) = E.run_trial(cfg, 0)
        for rows_per_chunk in (1, 7):
            monkeypatch.setattr(alignment, "BUDGET", rows_per_chunk * 64)
            (chunked,) = E.run_trial(cfg, 0)
            np.testing.assert_array_equal(chunked.phase_errors, whole.phase_errors)
            np.testing.assert_array_equal(chunked.magnitudes, whole.magnitudes)
            assert chunked.pearson == whole.pearson

    def test_length_mismatch(self):
        filt, _, spec, corr = alignment.chunk_arrays(delta(8), 3)
        with pytest.raises(LengthMismatchError):
            alignment.align_rows(np.zeros((3, 16)), filt, spec, corr)

    def test_fourier_consistency_with_phasor_average(self):
        # averaging aligned signals in real space == averaging spectral phasors
        spec = E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1, zero_dc=False)
        cfg = trial_config(spec, M=100, master_seed=5)
        t = E.generate_template(spec)
        phasors = np.zeros(64, dtype=complex)
        k = np.arange(64)
        for n in E.observation_rng(5, 0).standard_normal((cfg.M, 64)):
            r = int(np.argmax(E.correlation_oracle(n, t)))
            mags, phases = E.polar(E.dft(n))
            phasors += mags * np.exp(1j * (phases + 2.0 * np.pi * k * r / 64))
        phasors /= cfg.M
        (res,) = E.run_trial(cfg, 0)
        direct = res.magnitudes * np.exp(1j * (res.phase_errors + t.phases))
        assert np.abs(direct - phasors).max() <= 1e-9


def one_row_trial(monkeypatch, spec, row, ks):
    """run_trial on the one observation ``row``, measured at bins ``ks``."""
    monkeypatch.setattr(experiment, "observation_rng", lambda *key: _RepeatedRow(row))
    (res,) = E.run_trial(E.ExperimentConfig(template=spec, M=1, trials=1, frequencies=ks), 0)
    return res


def plaw_spec(d, zero_dc=False):
    return E.SignalFamilySpec(family="power-law-psd", d=d, beta=1.0, phase_seed=1, zero_dc=zero_dc)


class TestPhaseError:
    """The wrapped per-bin phase errors that run_trial reports."""

    def test_identity_is_zero(self, monkeypatch):
        spec = plaw_spec(16)
        res = one_row_trial(monkeypatch, spec, E.generate_template(spec).samples, tuple(range(16)))
        np.testing.assert_allclose(res.phase_errors, 0.0, rtol=0, atol=1e-12)

    def test_wrapping_rule(self, monkeypatch):
        # bump one conjugate bin pair by 1.9*pi: the wrapped error is -0.1*pi
        spec = plaw_spec(8)
        z = E.dft(E.generate_template(spec).samples).copy()
        bump = 1.9 * np.pi
        z[1] *= np.exp(1j * bump)
        z[7] *= np.exp(-1j * bump)
        res = one_row_trial(monkeypatch, spec, E.idft(z), (1,))
        assert res.phase_errors[0] == pytest.approx(-0.1 * np.pi, abs=1e-9)

    def test_matches_complex_ratio_oracle(self, monkeypatch):
        rng = np.random.default_rng(14)
        spec = plaw_spec(16)
        t = E.generate_template(spec)
        for _ in range(100):
            y = rng.standard_normal(16)
            res = one_row_trial(monkeypatch, spec, y, (1, 5, 7))
            aligned = E.circular_shift(y, -int(np.argmax(E.correlation_oracle(y, t))))
            zhat = E.dft(aligned)[[1, 5, 7]]
            z = E.dft(t.samples)[[1, 5, 7]]
            np.testing.assert_allclose(res.phase_errors, np.angle(zhat / z), rtol=0, atol=1e-12)

    def test_excluded_bins(self, monkeypatch):
        spec = plaw_spec(16, zero_dc=True)  # DC magnitude is zero
        with pytest.raises(ExcludedBinError):
            one_row_trial(monkeypatch, spec, np.eye(16)[0], (0,))
        with pytest.raises(InvalidArgumentError):
            one_row_trial(monkeypatch, spec, np.eye(16)[0], (16,))


def trial_results(errors):
    """TrialResults at one bin whose wrapped phase errors are ``errors``."""
    return [
        experiment.TrialResult(i, np.array([e]), np.ones(1), 0.5 + 0.01 * i, 1)
        for i, e in enumerate(errors)
    ]


class TestPhaseMse:
    """The phase MSE and its standard error that aggregate_trials reports."""

    def aggregate(self, d, k, errors):
        config = E.ExperimentConfig(template=plaw_spec(d), M=1, trials=1, frequencies=(k,))
        profile = E.estimate_ck_profile(E.generate_template(config.template), 1000, 0, ks=[k])
        return E.aggregate_trials(config, trial_results(errors), profile)

    def test_zero_for_identical_trials(self):
        stats = self.aggregate(8, 2, [0.0] * 5)
        assert stats.phase_mse[0] == 0.0

    def test_uniform_phases_give_pi2_over_3(self):
        # no alignment information: error uniform on (-pi, pi], MSE -> pi^2/3
        errors = E.wrap_phase(np.random.default_rng(77).uniform(-np.pi, np.pi, 10_000))
        stats = self.aggregate(4, 1, errors)
        assert abs(stats.phase_mse[0] - math.pi**2 / 3.0) <= 3.0 * stats.phase_mse_stderr[0]

    def test_needs_two_trials(self):
        # one trial gives an MSE but no standard error
        stats = self.aggregate(8, 1, [0.3])
        assert stats.phase_mse[0] == pytest.approx(0.09, abs=1e-15)
        assert math.isnan(stats.phase_mse_stderr[0])


class TestPearson:
    def test_perfect_and_anti_correlation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(32)
        assert E.pearson_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert E.pearson_correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        y = x + 0.1 * rng.standard_normal(64)
        # independent two-pass formula
        mx, my = x.mean(), y.mean()
        num = float(((x - mx) * (y - my)).sum())
        den = math.sqrt(float(((x - mx) ** 2).sum()) * float(((y - my) ** 2).sum()))
        assert E.pearson_correlation(x, y) == pytest.approx(num / den, abs=1e-12)
        assert E.pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            E.pearson_correlation(np.ones(8), np.arange(8.0))

