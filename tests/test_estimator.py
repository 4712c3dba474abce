"""The running aligned sum, phase metrics, Pearson correlation."""

import math

import numpy as np
import pytest

import efnlab as E
from efnlab import alignment, experiment
from efnlab.errors import (
    ExcludedBinError,
    InsufficientDataError,
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

    def standard_normal(self, shape):
        return np.tile(self.row, (shape[0], 1))


class TestAccumulator:
    """The running sum of aligned observations that run_trial folds chunk by chunk."""

    def test_single_observation_unwind(self, monkeypatch):
        row = [0.5, 2.0, -1.0, 0.3]  # peak at lag 1
        monkeypatch.setattr(experiment, "observation_rng", lambda *key: _RepeatedRow(row))
        res = E.run_trial(trial_config(E.SignalFamilySpec(family="delta", d=4), M=1), 0)
        unwound = E.EfnEstimate.from_samples([2.0, -1.0, 0.3, 0.5], 1)
        np.testing.assert_array_equal(res.magnitudes, unwound.spectrum.magnitudes)
        np.testing.assert_array_equal(res.phase_errors, unwound.spectrum.phases)

    def test_duplicate_averaging_idempotent(self, monkeypatch):
        row = np.random.default_rng(4).standard_normal(16)
        monkeypatch.setattr(experiment, "observation_rng", lambda *key: _RepeatedRow(row))
        spec = E.SignalFamilySpec(family="power-law-psd", d=16, beta=0.5, phase_seed=1, zero_dc=False)
        one = E.run_trial(trial_config(spec, M=1), 0)
        two = E.run_trial(trial_config(spec, M=2), 0)
        np.testing.assert_array_equal(one.magnitudes, two.magnitudes)
        np.testing.assert_array_equal(one.phase_errors, two.phase_errors)
        assert one.pearson == two.pearson

    def test_merge_equals_sequential_exactly(self, monkeypatch):
        # folding each chunk into the running total equals one row-order sum
        spec = E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1)
        cfg = E.ExperimentConfig(template=spec, M=50, trials=1, master_seed=3, frequencies=(1, 3, 5))
        whole = E.run_trial(cfg, 0)
        for rows_per_chunk in (1, 7):
            monkeypatch.setattr(alignment, "BUDGET", rows_per_chunk * 64)
            chunked = E.run_trial(cfg, 0)
            np.testing.assert_array_equal(chunked.phase_errors, whole.phase_errors)
            np.testing.assert_array_equal(chunked.magnitudes, whole.magnitudes)
            assert chunked.pearson == whole.pearson

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            alignment.align_rows(np.zeros((3, 16)), delta(8))

    def test_fourier_consistency_with_phasor_average(self):
        # averaging aligned signals in real space == averaging spectral phasors
        spec = E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1, zero_dc=False)
        cfg = trial_config(spec, M=100, master_seed=5)
        t = E.generate_template(spec)
        phasors = np.zeros(64, dtype=complex)
        k = np.arange(64)
        for n in E.observation_rng(5, 0).standard_normal((cfg.M, 64)):
            r = E.estimate_shift(n, t).shift
            spec = E.dft(n)
            phasors += spec.magnitudes * np.exp(1j * (spec.phases + 2.0 * np.pi * k * r / 64))
        phasors /= cfg.M
        res = E.run_trial(cfg, 0)
        direct = res.magnitudes * np.exp(1j * (res.phase_errors + t.spectrum.phases))
        assert np.abs(direct - phasors).max() <= 1e-9


class TestPhaseError:
    def test_identity_is_zero(self):
        t = plaw(16, zero_dc=False)
        est = E.EfnEstimate.from_samples(t.samples, 1)
        for k in range(16):
            assert E.phase_error(est, t, k) == pytest.approx(0.0, abs=1e-12)

    def test_wrapping_rule(self):
        # bump one conjugate bin pair by 1.9*pi: the wrapped error is -0.1*pi
        t = plaw(8, zero_dc=False)
        z = t.spectrum.to_complex()
        bump = 1.9 * np.pi
        z[1] *= np.exp(1j * bump)
        z[7] *= np.exp(-1j * bump)
        est = E.EfnEstimate.from_samples(E.idft(E.SpectralRepr.from_complex(z)), 1)
        assert E.phase_error(est, t, 1) == pytest.approx(-0.1 * np.pi, abs=1e-9)

    def test_matches_complex_ratio_oracle(self):
        rng = np.random.default_rng(14)
        t = plaw(16, zero_dc=False)
        for _ in range(100):
            y = rng.standard_normal(16)
            est = E.EfnEstimate.from_samples(y, 1)
            for k in (1, 5, 7):
                zhat = est.spectrum.to_complex()[k]
                z = t.spectrum.to_complex()[k]
                oracle = float(np.angle(zhat / z))
                assert E.phase_error(est, t, k) == pytest.approx(oracle, abs=1e-12)

    def test_excluded_bins(self):
        t = plaw(16, zero_dc=True)  # DC magnitude is zero
        est = E.EfnEstimate.from_samples(np.eye(16)[0], 1)
        with pytest.raises(ExcludedBinError):
            E.phase_error(est, t, 0)
        with pytest.raises(InvalidArgumentError):
            E.phase_error(est, t, 16)


class TestPhaseMse:
    def test_zero_for_identical_trials(self):
        t = plaw(8, zero_dc=False)
        ests = [E.EfnEstimate.from_samples(t.samples, 1) for _ in range(5)]
        res = E.phase_mse(ests, t, 2)
        assert res.mse == pytest.approx(0.0, abs=1e-20)

    def test_uniform_phases_give_pi2_over_3(self):
        # no alignment information: error uniform on (-pi, pi], MSE -> pi^2/3
        rng = np.random.default_rng(77)
        t = plaw(4, zero_dc=False)
        base = t.spectrum.to_complex()
        ests = []
        for _ in range(10_000):
            z = base.copy()
            phi = rng.uniform(-np.pi, np.pi)
            z[1] *= np.exp(1j * phi)
            z[3] *= np.exp(-1j * phi)
            ests.append(E.EfnEstimate.from_samples(E.idft(E.SpectralRepr.from_complex(z)), 1))
        res = E.phase_mse(ests, t, 1)
        assert abs(res.mse - math.pi**2 / 3.0) <= 3.0 * res.stderr

    def test_needs_two_trials(self):
        t = plaw(8, zero_dc=False)
        with pytest.raises(InsufficientDataError):
            E.phase_mse([E.EfnEstimate.from_samples(t.samples, 1)], t, 1)


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


class TestEstimateSerialization:
    def test_shares_the_signal_schema(self):
        t = plaw(16, zero_dc=False)
        est = E.EfnEstimate.from_samples(t.samples, 3)
        text = E.signal_to_json(est.samples, est.spectrum)
        np.testing.assert_array_equal(E.signal_from_json(text), est.samples)
        csv_text = E.signal_to_csv(est.samples)
        np.testing.assert_array_equal(E.signal_from_csv(csv_text), est.samples)
