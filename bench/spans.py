"""Span recording around calls into efnlab's public functions.

The traced child process installs wrappers from outside the package: each
public function is replaced, under the module attribute its caller looks it
up by, with a wrapper that records a span (name, start, end, parent).  Spans
are kept in memory and written out when the command ends; the benchmark's
parent process turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Collects spans as ``[name, start, end, parent, rss_mb, work]`` lists.

    ``parent`` is the index of the enclosing span (-1 at top level).
    ``rss_mb`` is the process's peak resident set when the span ended (0 when
    not asked for).  ``work`` is the span's own count of units of work, such
    as observations or Monte-Carlo draws (0 when the span has none).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name, fn, *, work=None, rss=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0,
                    work(*args, **kwargs) if work else 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self._clock()
                self._stack.pop()
                if rss:
                    span[4] = _maxrss_mb()

        return wrapper


def _trial_observations(config, trial_index):
    return config.M


def _moment_draws(template, trials, *args, **kwargs):
    return trials


def _synthesis_draws(cg, rng, size=None):
    return 1 if size is None else int(size)


# (module, attribute, span name, work counter, record peak RSS)
TARGETS = [
    ("efnlab.cli", "run_experiment", "experiment.run_experiment", None, False),
    ("efnlab.experiment", "run_experiment", "experiment.run_experiment", None, False),
    ("efnlab.experiment", "run_trial", "experiment.run_trial", _trial_observations, True),
    ("efnlab.experiment", "observation_rng", "experiment.observation_rng", None, False),
    ("efnlab.experiment", "aggregate_trials", "experiment.aggregate_trials", None, False),
    ("efnlab.experiment", "estimate_ck_profile", "theory.estimate_ck_profile", None, False),
    ("efnlab.theory", "alignment_moments", "theory.alignment_moments", _moment_draws, True),
    ("efnlab.verify", "alignment_moments", "theory.alignment_moments", _moment_draws, True),
    ("efnlab.verify", "sample_cyclostationary", "theory.sample_cyclostationary", _synthesis_draws, True),
    ("efnlab.verify", "lemma1_check", "theory.lemma1_check", None, False),
    ("efnlab.verify", "correlation_sequence", "alignment.correlation_sequence", None, False),
    ("efnlab.verify", "correlation_oracle", "alignment.correlation_oracle", None, False),
    ("efnlab.verify", "fourier_correlation_sequence", "alignment.fourier_correlation_sequence", None, False),
    ("efnlab.cli", "generate_template", "signals.generate_template", None, False),
    ("efnlab.experiment", "generate_template", "signals.generate_template", None, False),
    ("efnlab.verify", "generate_template", "signals.generate_template", None, False),
    ("efnlab.experiment", "pearson_correlation", "estimator.pearson_correlation", None, False),
]


def install(recorder: Recorder) -> list[str]:
    """Wrap every target that exists; return the targets that were missing.

    A missing name reads as zero in the per-layer metrics instead of breaking
    the traced run, so a refactor that moves a function shows in the trace.
    """
    missing = []
    for module_name, attr, name, work, rss in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(name, fn, work=work, rss=rss))

    estimator = importlib.import_module("efnlab.estimator")
    raw = vars(estimator.EfnEstimate).get("from_samples")
    if isinstance(raw, classmethod):
        estimator.EfnEstimate.from_samples = classmethod(
            recorder.wrap("estimator.EfnEstimate.from_samples", raw.__func__)
        )
    else:
        missing.append("efnlab.estimator.EfnEstimate.from_samples")

    verify = importlib.import_module("efnlab.verify")
    for suite in ("alignment", "symmetry", "gumbel", "prop3", "lemma1"):
        if suite in verify.SUITES:
            verify.SUITES[suite] = recorder.wrap(f"verify.{suite}", verify.SUITES[suite])
        else:
            missing.append(f"efnlab.verify.SUITES[{suite!r}]")
    return missing


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, *_), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, requested_observations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from one traced command.

    ``requested_observations`` is the sum of M * trials the workload asks
    for, taken from the workload's definition rather than from the program.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    work: dict[str, float] = {}
    rss: dict[str, float] = {}
    for (name, start, end, _parent, rss_mb, units), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        selft[name] = selft.get(name, 0.0) + s
        work[name] = work.get(name, 0) + units
        rss[name] = max(rss.get(name, 0.0), rss_mb)

    def rate(n, d):
        return n / d if d > 0 else 0.0

    m = {
        "experiment.run_trial.calls": (calls.get("experiment.run_trial", 0), "count"),
        "experiment.run_trial.self_s": (selft.get("experiment.run_trial", 0.0), "s"),
        "experiment.obs_per_s": (
            rate(work.get("experiment.run_trial", 0), total.get("experiment.run_trial", 0.0)), "1/s"),
        "experiment.observation_rng.calls": (calls.get("experiment.observation_rng", 0), "count"),
        "experiment.observation_rng.s": (total.get("experiment.observation_rng", 0.0), "s"),
        "experiment.obs_drawn_per_requested": (
            rate(calls.get("experiment.observation_rng", 0), requested_observations), "ratio"),
        "experiment.aggregate_trials.self_s": (selft.get("experiment.aggregate_trials", 0.0), "s"),
        "experiment.run_experiment.self_s": (selft.get("experiment.run_experiment", 0.0), "s"),
        "experiment.run_trial.rss_mb": (rss.get("experiment.run_trial", 0.0), "MB"),
        "theory.estimate_ck_profile.calls": (calls.get("theory.estimate_ck_profile", 0), "count"),
        "theory.alignment_moments.draws": (work.get("theory.alignment_moments", 0), "count"),
        "theory.alignment_moments.s": (total.get("theory.alignment_moments", 0.0), "s"),
        "theory.alignment_moments.draws_per_s": (
            rate(work.get("theory.alignment_moments", 0), total.get("theory.alignment_moments", 0.0)), "1/s"),
        "theory.alignment_moments.rss_mb": (rss.get("theory.alignment_moments", 0.0), "MB"),
        "theory.sample_cyclostationary.draws": (work.get("theory.sample_cyclostationary", 0), "count"),
        "theory.sample_cyclostationary.s": (total.get("theory.sample_cyclostationary", 0.0), "s"),
        "theory.sample_cyclostationary.rss_mb": (rss.get("theory.sample_cyclostationary", 0.0), "MB"),
        "theory.lemma1_check.s": (total.get("theory.lemma1_check", 0.0), "s"),
        "signals.generate_template.calls": (calls.get("signals.generate_template", 0), "count"),
        "signals.generate_template.s": (total.get("signals.generate_template", 0.0), "s"),
        "estimator.EfnEstimate.from_samples.s": (total.get("estimator.EfnEstimate.from_samples", 0.0), "s"),
        "estimator.pearson_correlation.s": (total.get("estimator.pearson_correlation", 0.0), "s"),
        "cli.self_s": (selft.get("cli.main", 0.0), "s"),
    }
    for layer in ("correlation_sequence", "correlation_oracle", "fourier_correlation_sequence"):
        m[f"alignment.{layer}.s"] = (total.get(f"alignment.{layer}", 0.0), "s")
    for suite in ("alignment", "symmetry", "gumbel", "prop3", "lemma1"):
        m[f"verify.{suite}.s"] = (total.get(f"verify.{suite}", 0.0), "s")
    return m
