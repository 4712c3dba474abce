"""Alignment: correlation routes, argmax estimation, equivariances, the block runner."""

import json
import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

import efnlab as E
from efnlab import alignment, cli, experiment, theory, verify
from efnlab.errors import InvalidArgumentError, LengthMismatchError, RejectedTemplateError


def plaw(d, beta=1.0, seed=1, zero_dc=False):
    return E.generate_template(
        E.SignalFamilySpec(family="power-law-psd", d=d, beta=beta, phase_seed=seed, zero_dc=zero_dc)
    )


class TestCorrelationSequence:
    def test_delta_template_selects_samples(self):
        n = np.array([0.5, -1.0, 2.0, 0.3])
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=4))
        np.testing.assert_array_equal(E.correlation_oracle(n, t), n)
        np.testing.assert_allclose(E.correlation_sequence(n, t), n, atol=1e-12)

    def test_planted_copy_peaks_at_its_shift(self):
        t = plaw(64, beta=2.0)
        planted = E.circular_shift(t.samples, 5)
        corr = E.correlation_sequence(planted, t)
        assert corr[5] == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(corr)) == 5

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(42)
        t = plaw(32, beta=1.0)
        for _ in range(50):
            n = rng.standard_normal(32)
            fast = E.correlation_sequence(n, t)
            direct = E.correlation_oracle(n, t)
            assert np.abs(fast - direct).max() <= 1e-9 * np.abs(direct).max()

    def test_oracle_is_one_dot_product_per_shift(self):
        rng = np.random.default_rng(43)
        for d in (8, 14, 64, 128):
            t = plaw(d, seed=d)
            n = rng.standard_normal(d)
            loop = np.asarray([float(n @ E.circular_shift(t.samples, ell)) for ell in range(d)])
            assert E.correlation_oracle(n, t).tobytes() == loop.tobytes()

    def test_zero_noise_gives_zero_sequence(self):
        t = plaw(16)
        np.testing.assert_array_equal(E.correlation_oracle(np.zeros(16), t), np.zeros(16))

    def test_length_mismatch_rejected(self):
        t = plaw(16)
        bad = np.zeros(8)
        for fn in (E.correlation_sequence, E.correlation_oracle, E.fourier_correlation_sequence):
            with pytest.raises(LengthMismatchError):
                fn(bad, t)


def align(rows, t):
    """(argmax lags, correlation rows) of ``rows`` (one row or a block) through the production kernel."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    step = max(1, alignment.BUDGET // t.d)
    assert len(rows) <= step, f"align takes one chunk of at most BUDGET // d = {step} rows, got {len(rows)}"
    filt, _, spec, corr = alignment.chunk_arrays(t, len(rows))
    return alignment.align_rows(rows, filt, spec, corr), corr


def shifts_of(rows, t):
    """Argmax lags of ``rows`` through the production kernel."""
    return align(rows, t)[0]


class TestEstimateShift:
    """Shift estimation: the argmax lag of each row that align_rows returns."""

    def test_noise_argmax_example(self):
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=4))
        shifts, corr = align([[0.5, -1.0, 2.0, 0.3]], t)
        assert shifts[0] == 2
        assert corr[0, shifts[0]] == pytest.approx(2.0, abs=1e-12)

    def test_noiseless_planted_shift(self):
        t = plaw(64, beta=2.0)
        assert shifts_of(E.circular_shift(t.samples, 5), t)[0] == 5

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        t = plaw(32)
        n = rng.standard_normal((300, 32))
        c = rng.uniform(0.01, 100.0, (300, 1))
        np.testing.assert_array_equal(shifts_of(n, t), shifts_of(c * n, t))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(17)
        t = plaw(48)
        for _ in range(100):
            n = rng.standard_normal(48)
            s = int(rng.integers(0, 48))
            base = shifts_of(n, t)[0]
            moved = shifts_of(E.circular_shift(n, s), t)[0]
            assert moved == (base + s) % 48

    def test_tie_break_smallest_index(self):
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=4))
        assert shifts_of([1.0, 1.0, 0.0, 0.0], t)[0] == 0

    def test_degenerate_flat_sequence(self):
        t = E.generate_template(E.SignalFamilySpec(family="delta", d=8))
        shifts, corr = align(np.zeros((1, 8)), t)
        assert np.all(corr == corr[0, 0]) and shifts[0] == 0

    def test_vanishing_template_rejected(self):
        # all energy at DC: every non-DC magnitude is below the floor
        t = E.TemplateSignal(np.full(8, 1.0 / np.sqrt(8.0)))
        assert not t.non_vanishing
        with pytest.raises(RejectedTemplateError):
            t.require_alignable()

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_near_tie_argmax_matches_oracle(self, gap):
        # rows whose correlation sequence has two peaks a relative ``gap``
        # apart: the FFT argmax and the direct-sum argmax both pick the higher
        rng = np.random.default_rng(29)
        d = 64
        t = plaw(d, beta=0.5)  # DC kept, so every bin can be divided out
        x_conj = np.conj(np.fft.rfft(t.samples))
        for _ in range(50):
            high, low = rng.choice(d, size=2, replace=False)
            target = rng.uniform(-0.5, 0.5, d)
            target[high], target[low] = 1.0, 1.0 - gap
            row = np.fft.irfft(np.fft.rfft(target) / x_conj, d)
            oracle = int(np.argmax(E.correlation_oracle(row, t)))
            assert oracle == high
            assert shifts_of(row, t)[0] == oracle


class TestChunkArrays:
    def test_spec_holds_the_filtered_spectra(self):
        # the C_k moments read N[k] conj(X[k]) from spec after the kernel ran
        rows = np.random.default_rng(5).standard_normal((3, 32))
        t = plaw(32)
        filt, _, spec, corr = alignment.chunk_arrays(t, 5)
        alignment.align_rows(rows, filt, spec, corr)
        np.testing.assert_array_equal(spec[:3], np.fft.rfft(rows, axis=1) * filt)

    def test_each_block_writes_every_chunk_into_one_buffer(self, monkeypatch):
        d = 64
        monkeypatch.setattr(alignment, "BUDGET", 7 * d)  # 20 rows: chunks of 7, 7 and 6
        outs = []
        irfft = np.fft.irfft

        def recording_irfft(a, *args, out=None, **kwargs):
            if np.ndim(a) == 2:  # the kernel's; template synthesis inverts one row
                outs.append(out)
            return irfft(a, *args, out=out, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        spec = E.SignalFamilySpec(family="power-law-psd", d=d, beta=1.0, phase_seed=1)
        cfg = E.ExperimentConfig(template=spec, M=20, trials=1, frequencies=(1, 2))
        for block in (
            lambda: experiment.run_trial(cfg, 0),
            lambda: theory._moment_sums(E.generate_template(spec), np.array([1, 40]), 0, 20),
        ):
            outs.clear()
            block()
            assert len(outs) == 3 and all(out is not None for out in outs)
            assert len({out.__array_interface__["data"][0] for out in outs}) == 1


class TestFourierRoute:
    def test_argmax_agreement_random_pairs(self):
        rng = np.random.default_rng(3)
        agree = 0
        cases = 200
        for i in range(cases):
            t = plaw(64, beta=float(rng.uniform(0, 2)), seed=int(rng.integers(1 << 30)))
            n = rng.standard_normal(64)
            a = int(np.argmax(E.correlation_sequence(n, t)))
            b = int(np.argmax(E.fourier_correlation_sequence(n, t)))
            agree += int(a == b)
        assert agree == cases

    def test_equals_real_route_in_value(self):
        # under the unitary convention the polar cosine sum IS the inner product
        rng = np.random.default_rng(5)
        t = plaw(32)
        n = rng.standard_normal(32)
        np.testing.assert_allclose(
            E.fourier_correlation_sequence(n, t),
            E.correlation_sequence(n, t),
            atol=1e-11,
        )

    def test_constant_template_with_zero_dc_noise_is_flat(self):
        t = E.TemplateSignal(np.full(8, 1.0 / np.sqrt(8.0)))
        noise = np.arange(8.0) - np.arange(8.0).mean()
        seq = E.fourier_correlation_sequence(noise, t)
        np.testing.assert_allclose(seq, 0.0, atol=1e-12)
        assert int(np.argmax(seq)) == 0

    def test_two_term_cosine_expansion_at_d2(self):
        t = E.TemplateSignal(np.array([0.8, 0.6]))
        n = np.array([1.3, -0.4])
        mag_n, phase_n = E.polar(E.dft(n))
        expected = np.array(
            [
                sum(
                    t.magnitudes[k] * mag_n[k]
                    * np.cos(2 * np.pi * k * r / 2 + phase_n[k] - t.phases[k])
                    for k in range(2)
                )
                for r in range(2)
            ]
        )
        np.testing.assert_allclose(E.fourier_correlation_sequence(n, t), expected, atol=1e-12)

    def test_phase_flip_antisymmetry(self):
        # negating every phase difference reflects the realized argmax
        rng = np.random.default_rng(23)
        t = plaw(32, beta=0.5, seed=9)
        for _ in range(100):
            n = rng.standard_normal(32)
            mag_n, phase_n = E.polar(E.dft(n))
            flipped_phases = E.wrap_phase(2.0 * t.phases - phase_n)
            n_flip = E.idft(mag_n * np.exp(1j * flipped_phases))
            r = int(np.argmax(E.fourier_correlation_sequence(n, t)))
            r_flip = int(np.argmax(E.fourier_correlation_sequence(n_flip, t)))
            assert r_flip == (-r) % 32


class _RecordingPool:
    """A serial stand-in for ProcessPoolExecutor that records how it was made
    and the name of each function submitted to it, in submission order."""

    made = []
    submitted = []

    def __init__(self, max_workers, mp_context):
        self.made.append((max_workers, mp_context.get_start_method()))

    def submit(self, fn, *args):
        self.submitted.append(fn.__name__)
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def recording_pool(monkeypatch):
    """ProcessPoolExecutor is the :class:`_RecordingPool` stand-in, with empty records."""
    monkeypatch.setattr(alignment, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.made.clear()
    _RecordingPool.submitted.clear()
    return _RecordingPool


class TestRunBlocks:
    def test_blocks_are_keyed_and_cover_the_draws(self):
        parent = np.random.SeedSequence(5, spawn_key=(7,))
        for seed, key in ((5, ()), (parent, (7,))):
            got = alignment.blocks(2 * alignment.BLOCK + 3, seed)
            assert [n for _, n in got] == [alignment.BLOCK, alignment.BLOCK, 3]
            assert [(ss.entropy, ss.spawn_key) for ss, _ in got] == [(5, (*key, b)) for b in range(3)]
        assert alignment.blocks(0, 5) == []

    @pytest.mark.parametrize("workers", [None, 1, 2, 3])
    def test_results_come_back_in_block_order(self, workers):
        assert alignment.run_blocks(pow, [(2, i) for i in range(9)], workers) == [2**i for i in range(9)]

    def test_pool_size(self):
        cores = alignment.usable_cores()
        if hasattr(os, "sched_getaffinity"):
            assert cores == len(os.sched_getaffinity(0))
        assert alignment.pool_size(None, 10**6) == cores
        assert alignment.pool_size(3, 2) == 2
        assert alignment.pool_size(3, 0) == 1

    def test_one_block_or_one_worker_starts_no_pool(self, no_pool):
        assert alignment.run_blocks(pow, [(2, 5)], 4) == [32]
        assert alignment.run_blocks(pow, [(2, 5), (3, 2)], 1) == [32, 9]
        E.alignment_moments(plaw(16), alignment.BLOCK, 0, ks=[1], workers=4)
        with pytest.raises(AssertionError, match="pool was started"):
            alignment.run_blocks(pow, [(2, 5), (3, 2)], 2)

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize(
        "run",
        [
            lambda w: E.run_experiment(_walk_config(), workers=w),
            lambda w: verify.run_suite("alignment", w, cases=2),
            lambda w: E.alignment_moments(plaw(16), 10, 0, ks=[1], workers=w),
            lambda w: alignment.pool_size(w, 5),
        ],
        ids=["run_experiment", "run_suite", "alignment_moments", "pool_size"],
    )
    def test_workers_below_one_rejected(self, no_pool, run, workers):
        # None means the usable cores; a count below one is an error, not one process
        with pytest.raises(InvalidArgumentError, match="workers must be >= 1"):
            run(workers)

    def test_pool_forks(self, recording_pool):
        # forked workers inherit the imported package instead of importing it again
        assert alignment.run_blocks(pow, [(2, i) for i in range(5)], 3) == [1, 2, 4, 8, 16]
        assert recording_pool.made == [(3, "fork")]


def _walk_config(**kw):
    base = dict(
        template=E.SignalFamilySpec(family="power-law-psd", d=64, beta=1.0, phase_seed=1),
        M=30, trials=5, master_seed=2, frequencies=(1, 7),
    )
    return E.ExperimentConfig(**{**base, **kw})


class TestSharedPool:
    """A walk's C_k blocks and trials share one pool, the C_k blocks queued first."""

    def test_a_held_loop_queues_behind_the_next_run(self, recording_pool):
        with alignment.Pool(2, 5) as pool:
            held = pool.later(abs, [(-i,) for i in range(3)])
            assert recording_pool.submitted == []
            assert alignment.run_blocks(pow, [(2, 3), (3, 2)], pool) == [8, 9]
            assert recording_pool.submitted == ["pow", "pow", "abs", "abs", "abs"]
            assert held() == [0, 1, 2]
        assert recording_pool.made == [(2, "fork")]

    def test_a_held_loop_with_no_run_queues_when_read(self, recording_pool):
        with alignment.Pool(2, 3) as pool:
            held = pool.later(abs, [(-i,) for i in range(3)])
            assert held() == [0, 1, 2]
        assert recording_pool.submitted == ["abs"] * 3

    def test_in_one_process_a_held_loop_runs_when_read(self, no_pool):
        ran = []
        with alignment.Pool(1, 5) as pool:
            held = pool.later(lambda i: ran.append(i) or i, [(i,) for i in range(3)])
            alignment.run_blocks(pow, [(2, 3)], pool)
            assert ran == []
            assert held() == [0, 1, 2] == ran

    @pytest.mark.parametrize("ck_trials", [4000, 2 * alignment.BLOCK + 7])
    def test_walk_makes_one_pool_and_queues_the_ck_blocks_first(self, recording_pool, ck_trials):
        cfg = _walk_config(ck_trials=ck_trials)
        telemetry = experiment.Telemetry()
        E.run_experiment(cfg, workers=2, telemetry=telemetry)
        ck_blocks = len(alignment.blocks(ck_trials, 0))
        assert recording_pool.made == [(2, "fork")]
        assert recording_pool.submitted == ["_moment_sums"] * ck_blocks + ["run_trial"] * cfg.trials
        assert telemetry.workers == 2

    def test_walk_without_bins_submits_trials_only(self, recording_pool):
        E.run_experiment(_walk_config(frequencies=()), workers=2)
        assert recording_pool.made == [(2, "fork")]
        assert recording_pool.submitted == ["run_trial"] * 5

    def test_walk_forks_its_pool_once_with_no_other_thread(self, monkeypatch):
        # a fork while another thread holds a lock can deadlock the child
        # (Python 3.12 warns of it): every worker forks before the pool starts a thread
        fork, threads = os.fork, []

        def recorded_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", recorded_fork)
        cfg = _walk_config(ck_trials=2 * alignment.BLOCK + 7)
        telemetry = experiment.Telemetry()
        E.run_experiment(cfg, workers=2, telemetry=telemetry)
        assert threads == [1] * telemetry.workers == [1, 1]

    def test_d_sweep_makes_one_pool_and_runs_its_values_in_turn(self, recording_pool):
        cfg = _walk_config(sweep=E.SweepSpec("d", (64, 128)))
        telemetry = experiment.Telemetry()
        E.run_sweep(cfg, workers=2, telemetry=telemetry)
        value = ["_moment_sums"] * len(alignment.blocks(cfg.ck_trials, 0)) + ["run_trial"] * cfg.trials
        assert recording_pool.made == [(2, "fork")]
        assert recording_pool.submitted == value * 2
        assert telemetry.workers == 2

    def test_figure_3_forks_one_pool_for_its_three_walks(self, monkeypatch, tmp_path):
        # a beta sweep: three walks, each on the command's one pool
        fork, threads = os.fork, []

        def recorded_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
        out = tmp_path / "fig3"
        assert cli.main(["figure", "3", "--trials", "4", "--threads", "2", "--out", str(out)]) == 0
        workers = json.loads((out / "manifest.json").read_text())["environment"]["workers"]
        assert threads == [1] * workers == [1, 1]


class TestVerifyPool:
    """An ``efn verify`` command runs on one pool: the pooled suites' blocks
    and, under 'all', the one-stream suites as two jobs on it."""

    DRAWS = 2 * alignment.BLOCK + 1  # three blocks per loop

    def test_all_makes_one_pool_and_queues_the_jobs_behind_the_first_loop(
        self, recording_pool, few_lemma1_draws, monkeypatch
    ):
        # lemma1's floor is lowered so that 'all' runs three blocks per loop, not 25 to 49
        counts = dict(cases=2, draws=self.DRAWS, replicates=100)
        serial = verify.run_suite("all", 1, **counts)
        jobs = []  # (suite, submissions made when it ran): the stand-in runs a job as it is submitted

        def noted(suite, fn):
            def run(**kwargs):
                jobs.append((suite, len(recording_pool.submitted)))
                return fn(**kwargs)
            return run

        for suite in ("alignment", "gumbel"):
            monkeypatch.setitem(verify.SUITES, suite, noted(suite, verify.SUITES[suite]))
        assert verify.run_suite("all", 2, **counts) == serial
        assert recording_pool.made == [(2, "fork")]
        assert recording_pool.submitted == (
            ["_moment_sums"] * 3 + ["_suite_rows"] * 2 + ["_moment_sums"] * 6
            + ["_argmax_counts"] * 6 + ["_joint_counts"] * 9
        )
        assert jobs == [("alignment", 4), ("gumbel", 5)]

    def test_prop3_makes_one_pool_for_its_two_cases(self, recording_pool):
        verify.run_suite("prop3", 2, draws=self.DRAWS)
        assert recording_pool.made == [(2, "fork")]
        assert recording_pool.submitted == ["_argmax_counts"] * 6

    @pytest.mark.parametrize(
        "suite, counts", [("prop3", {"draws": 1}), ("symmetry", {"draws": 2}), ("gumbel", {"replicates": 100})]
    )
    def test_a_command_of_one_block_loops_starts_no_pool(self, no_pool, suite, counts):
        assert verify.run_suite(suite, 2, **counts)

