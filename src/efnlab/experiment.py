"""Seeded Monte-Carlo orchestration: trials, sweeps, and aggregate statistics.

Reproducibility scheme: every trial gets its own RNG stream derived from
``SeedSequence(master_seed, spawn_key=(trial_index, 0))``, so no two trials
share a stream and results cannot depend on scheduling.  Observation o of a
trial is row o of that stream's ``standard_normal((M, d))``: the rows are
drawn, aligned and summed in fixed-size chunks, in observation order, and
each chunk continues the stream where the last one stopped.  So a trial does
not depend on the chunk size, and its first M' observations are those of the
M'-observation trial.  An M sweep is therefore one walk per trial to the
largest M that reads the running total at every M on the way, and one C_k
profile for all of them.  Trials are aggregated in index order.  Together
these make the output identical whether trials ran serially or across a
process pool.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, entries, integral, real, typed
from .alignment import align_rows, chunks
from .estimator import EfnEstimate, pearson_correlation
from .signals import SignalFamilySpec, TemplateSignal, generate_template, polar, wrap_phase
from .theory import CK_MIN_DRAWS, AlignmentMoments, estimate_ck_profile, predict_magnitude, predict_phase_mse

# Reserved single-element spawn key for the prediction Monte-Carlo; disjoint
# from the (trial, 0) two-element keys used for noise streams.
_CK_SEED_LANE = 0x5EED

SWEEP_AXES = ("M", "d", "beta", "pad-ratio")
#: The sweep axes that only one template family reads.
_AXIS_FAMILY = {"beta": "power-law-psd", "pad-ratio": "zero-padded-pulse"}


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise InvalidArgumentError(f"sweep.axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        field = f"sweep.values ({self.axis})"
        vals = entries("sweep.values", self.values)
        for v in vals:
            if self.axis in ("M", "d"):
                integral(field, v, 1)
            else:
                typed(field, v, numbers.Real, "a number")
        if len(vals) < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
            raise InvalidArgumentError("sweep.values must be non-empty and strictly increasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte-Carlo experiment.

    Every field is checked on construction, from Python as from JSON, and so
    is every config a sweep expands to.  Counts may be whole floats; they are
    stored as ints.
    """

    template: SignalFamilySpec
    M: int = 1
    trials: int = 1
    sigma: float = 1.0
    master_seed: int = 0
    frequencies: tuple = ()
    ck_trials: int = 4000
    sweep: Optional[SweepSpec] = None

    def __post_init__(self):
        typed("template", self.template, SignalFamilySpec, "a template spec")
        set_field = functools.partial(object.__setattr__, self)
        set_field("M", integral("M", self.M, 1))
        set_field("trials", integral("trials", self.trials, 1))
        set_field("sigma", float(real("sigma", self.sigma, 0)))
        if not self.sigma > 0:
            raise InvalidArgumentError(f"sigma must be positive, got {self.sigma}")
        set_field("master_seed", integral("master_seed", self.master_seed, 0))
        d = self.template.d
        freqs = tuple(integral("frequencies", k, 0) for k in entries("frequencies", self.frequencies))
        if any(k > d - 1 for k in freqs) or len(set(freqs)) < len(freqs):
            raise InvalidArgumentError(f"frequencies must be distinct bins in [0, {d - 1}], got {freqs}")
        set_field("frequencies", freqs)
        set_field("ck_trials", integral("ck_trials", self.ck_trials, CK_MIN_DRAWS))
        if self.sweep is not None:
            axis = typed("sweep", self.sweep, SweepSpec, "a sweep spec").axis
            family = _AXIS_FAMILY.get(axis, self.template.family)
            if family != self.template.family:
                raise InvalidArgumentError(f"a {axis} sweep needs a {family} template, not {self.template.family}")
            sweep_configs(self)

    @property
    def checkpoints(self) -> tuple:
        """The M values at which a trial reads its running average, ending at M.

        An M sweep's values below M come first, so the config that walks a
        whole M sweep is the one whose M is the sweep's largest value.
        """
        if self.sweep is None or self.sweep.axis != "M":
            return (self.M,)
        return (*(int(v) for v in self.sweep.values if v < self.M), self.M)

    def to_dict(self) -> dict:
        """The config as a JSON object; a config without a sweep has no "sweep" key."""
        out = dataclasses.asdict(self)
        if self.sweep is None:
            del out["sweep"]
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON object describes; a field it leaves out takes its default."""
        doc = dict(typed("config", doc, dict, "an object"))
        for name, spec in (("template", SignalFamilySpec), ("sweep", SweepSpec)):
            if doc.get(name) is not None:
                doc[name] = _build(spec, name, doc[name])
        return _build(cls, "config", doc)


def _build(cls, name: str, doc):
    """``cls(**doc)`` for a JSON object that names only fields of dataclass ``cls``."""
    unknown = set(typed(name, doc, dict, "an object")) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise InvalidArgumentError(f"unknown {name} fields: {sorted(unknown)}")
    try:
        return cls(**doc)
    except TypeError as e:  # a required field is missing
        raise InvalidArgumentError(f"{name}: {e}") from e


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    phase_errors: np.ndarray  # wrapped, one entry per configured frequency
    magnitudes: np.ndarray
    pearson: float
    observations: int  # rows the walk had summed when it took this reading


@dataclass
class Telemetry:
    """Work a command did, counted by the walks that did it."""

    trials: int = 0
    observations: int = 0
    ck_draws: int = 0
    workers: int = 0  # most processes any one walk ran its trials on


@dataclass(frozen=True)
class AggregateStats:
    """Per-frequency statistics over all trials, with analytic predictions."""

    config: ExperimentConfig
    n_trials: int
    ks: np.ndarray
    phase_mse: np.ndarray
    phase_mse_stderr: np.ndarray
    mean_magnitude: np.ndarray
    magnitude_stderr: np.ndarray
    mean_pearson: float
    pearson_stderr: float
    predicted_mse_thm1: np.ndarray
    predicted_mse_thm1_stderr: np.ndarray
    predicted_mse_thm2: np.ndarray
    predicted_magnitude_thm1: np.ndarray
    predicted_magnitude_thm2: np.ndarray

    @property
    def mse_ratio_thm2(self) -> np.ndarray:
        return self.phase_mse / self.predicted_mse_thm2


def observation_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one trial; its rows are the observations."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index, 0))
    return np.random.default_rng(ss)


def _template_of(config: ExperimentConfig) -> tuple[TemplateSignal, np.ndarray]:
    """The config's template and its frequencies as an int array, both checked."""
    template = generate_template(config.template)
    template.require_alignable()
    return template, template.require_bins(config.frequencies)


def run_trial(config: ExperimentConfig, trial_index: int) -> tuple:
    """One independent walk: draw M observations, align and sum them, and
    measure the running average at each of ``config.checkpoints``.

    Observations are drawn from the trial's one stream and aligned one
    fixed-size chunk at a time; a chunk that would cross a checkpoint stops
    there.  The running total is added into each chunk's first aligned row
    before the chunk is summed, so every reading is the row-order sum of its
    first M aligned observations, bit for bit, whatever the chunk size: the
    reading at M is the M-observation trial.  Returns one
    :class:`TrialResult` per checkpoint, in checkpoint order.
    """
    template, ks = _template_of(config)
    d = template.d
    rng = observation_rng(config.master_seed, trial_index)
    total, drawn, sums = 0.0, 0, []
    for checkpoint in config.checkpoints:
        for start, stop in chunks(checkpoint, d, drawn):
            noise = config.sigma * rng.standard_normal((stop - start, d))
            shifts = align_rows(noise, template)[0]
            # align in place: row i is rotated left by its shift
            for i, s in enumerate(shifts.tolist()):
                head = noise[i, :s].copy()
                noise[i, :d - s] = noise[i, s:]
                noise[i, d - s:] = head
            noise[0] += total
            total = noise.sum(axis=0)
            drawn = stop
        sums.append((drawn, total))

    results = []
    for M, total in sums:
        xhat = total / M
        magnitudes, phases = polar(EfnEstimate.from_samples(xhat, M).spectrum[ks])
        results.append(TrialResult(
            trial_index=trial_index,
            phase_errors=wrap_phase(phases - template.phases[ks]),
            magnitudes=magnitudes,
            pearson=pearson_correlation(xhat, template.samples),
            observations=M,
        ))
    return tuple(results)


def _mean_and_stderr(x: np.ndarray) -> tuple:
    """The mean over trials (axis 0) and its standard error, NaN for one trial."""
    n = len(x)
    return x.mean(0), x.std(0, ddof=1) / math.sqrt(n) if n > 1 else np.full(x.shape[1:], np.nan)


def aggregate_trials(
    config: ExperimentConfig,
    results: Sequence[TrialResult],
    profile: Optional[AlignmentMoments],
) -> AggregateStats:
    """Fold trial results (in trial-index order) into aggregate statistics.

    ``profile`` is the config's C_k profile (None when the config has no
    frequencies); the thm1 predictions are its C_k over the config's M.
    """
    results = sorted(results, key=lambda r: r.trial_index)
    n = len(results)
    if n < 1:
        raise InsufficientDataError("no trials to aggregate")
    template, ks = _template_of(config)
    mse, mse_se = _mean_and_stderr(np.stack([r.phase_errors for r in results]) ** 2)
    mag_mean, mag_se = _mean_and_stderr(np.stack([r.magnitudes for r in results]))
    pearson, pearson_se = _mean_and_stderr(np.asarray([r.pearson for r in results]))
    ck, ck_se, mu_b = (profile.ck, profile.ck_stderr, profile.mu_b) if profile is not None else (np.empty(0),) * 3

    return AggregateStats(
        config=config,
        n_trials=n,
        ks=ks,
        phase_mse=mse,
        phase_mse_stderr=mse_se,
        mean_magnitude=mag_mean,
        magnitude_stderr=mag_se,
        mean_pearson=float(pearson),
        pearson_stderr=float(pearson_se),
        predicted_mse_thm1=ck / config.M,
        predicted_mse_thm1_stderr=ck_se / config.M,
        predicted_mse_thm2=predict_phase_mse(template, ks, config.M),
        predicted_magnitude_thm1=mu_b,
        predicted_magnitude_thm2=config.sigma * predict_magnitude(template, ks),
    )


def _walk(config: ExperimentConfig, workers: int, telemetry: Optional[Telemetry]) -> list:
    """Run every trial's walk, then aggregate each checkpoint: one
    :class:`AggregateStats` per entry of ``config.checkpoints``.

    The trials run on one process pool when ``workers`` > 1, and the C_k
    profile is estimated once, after them, for all checkpoints.
    """
    template, ks = _template_of(config)  # rejects a bad template or bin before any trial runs
    pool_size = max(1, min(workers, config.trials))
    if pool_size == 1:
        walks = [run_trial(config, t) for t in range(config.trials)]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            walks = list(pool.map(run_trial, [config] * config.trials, range(config.trials)))
    profile = None
    if ks.size:  # the C_k profile does not depend on M
        ck_seed = np.random.SeedSequence(config.master_seed, spawn_key=(_CK_SEED_LANE,))
        profile = estimate_ck_profile(template, config.ck_trials, ck_seed, sigma=config.sigma, ks=ks)
    if telemetry is not None:
        telemetry.trials += len(walks)
        telemetry.observations += sum(w[-1].observations for w in walks)
        telemetry.ck_draws += profile.trials if profile is not None else 0
        telemetry.workers = max(telemetry.workers, pool_size)
    return [
        aggregate_trials(
            dataclasses.replace(config, M=M, sweep=None), [w[i] for w in walks], profile
        )
        for i, M in enumerate(config.checkpoints)
    ]


def run_experiment(
    config: ExperimentConfig, workers: int = 1, telemetry: Optional[Telemetry] = None
) -> AggregateStats:
    """Run all trials (optionally across processes) and aggregate: the
    one-checkpoint walk.  Any sweep in the config is ignored.

    The aggregate is identical for any worker count: trials are keyed by
    index, not by completion order.
    """
    return _walk(dataclasses.replace(config, sweep=None), workers, telemetry)[0]


def sweep_configs(config: ExperimentConfig) -> list[tuple[float, ExperimentConfig]]:
    """Expand a sweep into (value, per-value config) pairs."""
    if config.sweep is None:
        raise InvalidArgumentError("config has no sweep")
    axis, out = config.sweep.axis, []
    for v in config.sweep.values:
        if axis == "M":
            c = dataclasses.replace(config, M=v, sweep=None)
        else:
            t = dataclasses.replace(config.template, **{axis.replace("-", "_"): v})
            c = dataclasses.replace(config, template=t, sweep=None)
        out.append((float(v), c))
    return out


def run_sweep(
    config: ExperimentConfig, workers: int = 1, telemetry: Optional[Telemetry] = None
) -> list[tuple[float, AggregateStats]]:
    """(value, stats) for each sweep value.

    An M sweep is one walk to its largest M, read at every value; each
    other axis runs one experiment per value.
    """
    pairs = sweep_configs(config)
    if config.sweep.axis == "M":
        walk = dataclasses.replace(config, M=pairs[-1][1].M)
        return [(v, stats) for (v, _), stats in zip(pairs, _walk(walk, workers, telemetry))]
    for _, c in pairs:  # every value's template and bins, before any trial runs
        _template_of(c)
    return [(v, run_experiment(c, workers, telemetry)) for v, c in pairs]
