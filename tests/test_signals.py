"""Signal core: transforms, shifts, template generation, the signal-file round trip."""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

import efnlab as E
from efnlab.cli import main
from efnlab.errors import ExcludedBinError, InvalidArgumentError


class TestDft:
    def test_delta_has_flat_spectrum(self):
        mags, phases = E.polar(E.dft([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(mags, [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(phases, 0.0, atol=1e-15)

    def test_constant_signal_is_all_dc(self):
        mags, _ = E.polar(E.dft([0.5, 0.5, 0.5, 0.5]))
        np.testing.assert_allclose(mags, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_matches_direct_summation_oracle(self):
        # O(d^2) evaluation of the transform definition, unitary scale.
        rng = np.random.default_rng(8)
        y = rng.standard_normal(8)
        d = y.size
        direct = np.array(
            [sum(y[l] * np.exp(-2j * np.pi * k * l / d) for l in range(d)) for k in range(d)]
        ) / math.sqrt(d)
        mags, phases = E.polar(E.dft(y))
        np.testing.assert_allclose(mags, np.abs(direct), atol=1e-10)
        np.testing.assert_allclose(
            E.wrap_phase(phases - np.angle(direct)), 0.0, atol=1e-10
        )

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for d in (2, 16, 130):
            y = rng.standard_normal(d)
            back = E.idft(E.dft(y))
            assert np.linalg.norm(back - y) <= 1e-10 * np.linalg.norm(y)

    def test_parseval_for_generated_families(self):
        specs = [
            E.SignalFamilySpec(family="delta", d=32),
            E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.5, phase_seed=9),
            E.SignalFamilySpec(family="zero-padded-pulse", d=64, pad_ratio=2.0),
        ]
        for s in specs:
            t = E.generate_template(s)
            energy_real = float(t.samples @ t.samples)
            energy_fourier = float((t.magnitudes**2).sum())
            assert abs(energy_real - energy_fourier) <= 1e-10
            assert abs(energy_fourier - 1.0) <= 1e-10

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            E.dft([])

    def test_conjugate_symmetry_of_real_spectra(self):
        rng = np.random.default_rng(21)
        for d in (6, 32):
            mags, phases = E.polar(E.dft(rng.standard_normal(d)))
            k = np.arange(1, d)
            np.testing.assert_allclose(mags[k], mags[d - k], rtol=0, atol=1e-9)
            defect = E.wrap_phase(phases[k] + phases[d - k])
            np.testing.assert_allclose(defect, 0.0, rtol=0, atol=1e-9)

    def test_real_bins_have_zero_or_pi_phase(self):
        rng = np.random.default_rng(4)
        mags, phases = E.polar(E.dft(rng.standard_normal(16)))
        for k in (0, 8):
            if mags[k] > 1e-12:
                assert min(abs(phases[k]), abs(abs(phases[k]) - np.pi)) <= 1e-12
        # a zero bin has phase +0 whatever the signs of its zero parts, where
        # np.angle gives pi, -pi or -0; an angle of exactly -pi reads as pi
        signed_zeros = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        assert sorted(np.angle(signed_zeros).tolist()) == [-np.pi, -0.0, np.pi]
        mags, phases = E.polar(np.append(signed_zeros, complex(-2.0, -0.0)))
        np.testing.assert_array_equal(mags, [0.0, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(phases, [0.0, 0.0, 0.0, np.pi])
        assert not np.signbit(phases).any()


class TestWrapPhase:
    def test_example_values(self):
        assert E.wrap_phase(1.9 * np.pi) == pytest.approx(-0.1 * np.pi, abs=1e-12)
        assert E.wrap_phase(np.pi) == pytest.approx(np.pi)
        assert E.wrap_phase(-np.pi) == pytest.approx(np.pi)

    def test_range(self):
        x = np.linspace(-20.0, 20.0, 10001)
        w = E.wrap_phase(x)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        np.testing.assert_allclose(np.cos(w), np.cos(x), atol=1e-12)
        np.testing.assert_allclose(np.sin(w), np.sin(x), atol=1e-12)


class TestCircularShift:
    def test_shift_by_one(self):
        np.testing.assert_array_equal(
            E.circular_shift([1.0, 2.0, 3.0, 4.0], 1), [4.0, 1.0, 2.0, 3.0]
        )

    def test_identity_and_inverse(self):
        y = np.arange(4.0)
        np.testing.assert_array_equal(E.circular_shift(y, 0), y)
        np.testing.assert_array_equal(E.circular_shift(E.circular_shift(y, 2), -2), y)

    def test_group_law(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(2, 40)) * 2
            y = rng.standard_normal(d)
            a, b = int(rng.integers(-99, 99)), int(rng.integers(-99, 99))
            lhs = E.circular_shift(E.circular_shift(y, a), b)
            rhs = E.circular_shift(y, (a + b) % d)
            np.testing.assert_array_equal(lhs, rhs)

    def test_shift_phase_duality(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = 32
            y = rng.standard_normal(d)
            ell = int(rng.integers(0, d))
            mags, phases = E.polar(E.dft(y))
            _, shifted = E.polar(E.dft(E.circular_shift(y, ell)))
            keep = mags > 1e-9
            k = np.arange(d)[keep]
            expected = phases[keep] - 2.0 * np.pi * k * ell / d
            np.testing.assert_allclose(
                E.wrap_phase(shifted[keep] - expected), 0.0, atol=1e-8
            )


class TestAutocorrelation:
    """A template's correlation sequence against itself is its circular
    autocorrelation R[l] = sum_i x_i x_{(i+l) mod d}."""

    def test_delta(self):
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=8))
        np.testing.assert_allclose(E.correlation_sequence(t.samples, t), np.eye(8)[0], atol=1e-14)

    def test_constant_signal(self):
        t = E.TemplateSignal(np.full(8, 1.0 / math.sqrt(8)))
        np.testing.assert_allclose(E.correlation_sequence(t.samples, t), 1.0, atol=1e-12)

    def test_matches_direct_sum_oracle(self):
        t = E.generate_template(
            E.SignalFamilySpec(family="power-law-psd", d=64, beta=2.0, phase_seed=5)
        )
        x = t.samples
        direct = np.array([sum(x[i] * x[(i + l) % 64] for i in range(64)) for l in range(64)])
        np.testing.assert_allclose(E.correlation_sequence(x, t), direct, atol=1e-10)

    def test_lag_zero_is_energy_and_even_symmetric(self):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=32, beta=1.0))
        r = E.correlation_sequence(t.samples, t)
        assert r[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r[1:], r[:0:-1], atol=1e-12)


class TestGenerateTemplate:
    def test_delta_construction(self):
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=8))
        np.testing.assert_array_equal(t.samples, np.eye(8)[0])
        np.testing.assert_allclose(t.magnitudes, 1.0 / math.sqrt(8), atol=1e-14)

    def test_deterministic_given_seed(self):
        spec = E.SignalFamilySpec(family="power-law-psd", d=16, beta=0.0, phase_seed=7)
        a = E.generate_template(spec)
        b = E.generate_template(spec)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_power_law_psd_ratio(self):
        # |X[1]|^2 / |X[8]|^2 = ((1+8)/(1+1))^2 for beta = 2.
        t = E.generate_template(
            E.SignalFamilySpec(family="power-law-psd", d=64, beta=2.0, phase_seed=1, zero_dc=False)
        )
        m = t.magnitudes
        assert (m[1] / m[8]) ** 2 == pytest.approx(20.25, abs=1e-9)

    def test_zero_dc_flag(self):
        on = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=32, beta=1.0))
        off = E.generate_template(
            E.SignalFamilySpec(family="power-law-psd", d=32, beta=1.0, zero_dc=False)
        )
        assert on.magnitudes[0] <= 1e-14
        assert off.magnitudes[0] > 0.1

    def test_zero_padded_pulse_stays_alignable(self):
        for pad in (0.0, 1.0, 3.0):
            t = E.generate_template(
                E.SignalFamilySpec(family="zero-padded-pulse", d=128, pad_ratio=pad)
            )
            assert t.non_vanishing

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            E.SignalFamilySpec(family="power-law-psd", d=16, beta=-0.5)
        with pytest.raises(InvalidArgumentError):
            E.SignalFamilySpec(family="explicit-samples", d=16, samples=(1.0, 2.0, 3.0))
        with pytest.raises(InvalidArgumentError):
            E.SignalFamilySpec(family="nope", d=16)
        with pytest.raises(InvalidArgumentError):
            E.SignalFamilySpec(family="delta", d=15)

    @pytest.mark.parametrize(
        "kw",
        [{"d": "16"}, {"phase_seed": 1.5}, {"phase_seed": -1}, {"zero_dc": "no"}, {"beta": "1"},
         {"pad_ratio": math.inf}, {"family": "explicit-samples", "samples": (1.0,) * 8}],
    )
    def test_every_field_is_checked(self, kw):
        with pytest.raises(InvalidArgumentError, match="template"):
            E.SignalFamilySpec(**{"family": "power-law-psd", "d": 16, **kw})

    def test_explicit_samples_normalized(self):
        spec = E.SignalFamilySpec(family="explicit-samples", d=4, samples=(3.0, 0.0, 4.0, 0.0))
        t = E.generate_template(spec)
        assert np.linalg.norm(t.samples) == pytest.approx(1.0, abs=1e-14)


class TestTemplateInvariants:
    def test_rejects_odd_length(self):
        x = np.zeros(5)
        x[0] = 1.0
        with pytest.raises(InvalidArgumentError):
            E.TemplateSignal(x)

    def test_rejects_bad_norm(self):
        with pytest.raises(InvalidArgumentError):
            E.TemplateSignal(np.ones(4))

    def test_samples_read_only(self):
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=8))
        for values in (t.samples, t.magnitudes, t.phases, E.dft(t.samples)):
            with pytest.raises(ValueError):
                values[0] = 2.0


class TestRequireBins:
    def test_returns_the_bins_as_an_int_array(self):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=16, beta=1.0))
        ks = t.require_bins((1, 5, 15))
        assert ks.dtype == np.dtype(int) and ks.tolist() == [1, 5, 15]
        one = t.require_bins(3)
        assert one.dtype == np.dtype(int) and one == 3
        assert t.require_bins(()).dtype == np.dtype(int) and t.require_bins(()).size == 0

    def test_names_the_first_excluded_bin(self):
        # ones at indices 0 and 8 of 16: every odd bin vanishes
        t = E.TemplateSignal(np.asarray([float(i in (0, 8)) for i in range(16)]) / math.sqrt(2.0))
        with pytest.raises(ExcludedBinError, match=r"^bin 3 excluded: template magnitude .* is at or below the floor$"):
            t.require_bins([2, 4, 3, 5])
        zero_dc = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=16))
        for ks in (0, [1, 0]):
            with pytest.raises(ExcludedBinError, match="^bin 0 excluded"):
                zero_dc.require_bins(ks)

    @pytest.mark.parametrize("ks, bad", [(16, 16), ([1, 16, 17], 16), ([2, -1], -1)])
    def test_rejects_a_bin_outside_the_range(self, ks, bad):
        t = E.generate_template(E.SignalFamilySpec(family="power-law-psd", d=16, beta=1.0))
        with pytest.raises(InvalidArgumentError, match=f"frequency index {bad} out of range for d=16") as exc:
            t.require_bins(ks)
        assert not isinstance(exc.value, ExcludedBinError)


class TestNoiseDistribution:
    def test_spectral_magnitude_and_phase_laws(self):
        d, n, k = 64, 10_000, 5
        rng = np.random.default_rng(1234)
        block = rng.standard_normal((n, d))
        spec = np.fft.fft(block, axis=1)[:, k] / math.sqrt(d)
        power = np.abs(spec) ** 2
        se = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - 1.0) <= 3 * se

        phases = np.angle(spec)
        bins = 20
        counts, _ = np.histogram(phases, bins=bins, range=(-np.pi, np.pi))
        expected = n / bins
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat <= chi2.ppf(0.99, bins - 1)


class TestSerialization:
    """A template written by ``efn gen-template`` reads back bit for bit."""

    @staticmethod
    def write(tmp_path, name, spec):
        out = tmp_path / name
        argv = ["gen-template", "--family", spec.family, "--d", str(spec.d), "--beta", str(spec.beta),
                "--phase-seed", str(spec.phase_seed), "--out", str(out)]
        assert main(argv) == 0
        return E.generate_template(spec), out.read_text()

    def test_json_round_trip(self, tmp_path):
        spec = E.SignalFamilySpec(family="power-law-psd", d=16, beta=1.0)
        t, text = self.write(tmp_path, "t.json", spec)
        rec = json.loads(text)
        assert rec["d"] == 16
        np.testing.assert_array_equal(rec["magnitudes"], t.magnitudes)
        np.testing.assert_array_equal(rec["phases"], t.phases)
        np.testing.assert_array_equal(rec["samples"], t.samples)

    def test_csv_round_trip(self, tmp_path):
        spec = E.SignalFamilySpec(family="power-law-psd", d=12, beta=0.5, phase_seed=3)
        t, text = self.write(tmp_path, "t.csv", spec)
        lines = text.splitlines()
        assert lines[0] == "sample"
        np.testing.assert_array_equal([float(v) for v in lines[1:]], t.samples)
