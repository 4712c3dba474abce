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
profile for all of them.  That profile draws keyed blocks of its own seed
(:func:`_ck_seed`), disjoint from every trial's.  Every walk of a command
runs on one process pool, its profile's blocks queued before its trials.
Trials are aggregated in index order, and the profile's blocks in block
order.  Together these make the output identical whether the walks ran
serially or across a process pool.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, entries, integral, real, typed
from .alignment import Pool, align_rows, blocks, chunk_arrays, chunks
from .estimator import EfnEstimate, pearson_correlation
from .signals import SignalFamilySpec, TemplateSignal, generate_template, polar, wrap_phase
from .theory import CK_MIN_DRAWS, AlignmentMoments, estimate_ck_profile, predict_magnitude, predict_phase_mse

# The prediction Monte-Carlo is seeded by spawn key (_CK_SEED_LANE, 1); its
# blocks' keys (_CK_SEED_LANE, 1, b) have three elements, so none is a
# trial's (trial, 0).
_CK_SEED_LANE = 0x5EED

SWEEP_AXES = ("M", "d", "beta", "pad-ratio")
#: The sweep axes that only one template family reads.
_AXIS_FAMILY = {"beta": "power-law-psd", "pad-ratio": "zero-padded-pulse"}


@dataclass(frozen=True)
class SweepSpec:
    """An axis and its increasing values: ints for ``M`` and ``d``, floats for the others."""
    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise InvalidArgumentError(f"sweep.axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        field = f"sweep.values ({self.axis})"
        if self.axis in ("M", "d"):
            vals = tuple(integral(field, v, 1) for v in entries("sweep.values", self.values))
        else:
            vals = tuple(float(real(field, v, -math.inf)) for v in entries("sweep.values", self.values))
        if len(vals) < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
            raise InvalidArgumentError("sweep.values must be non-empty and strictly increasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte-Carlo experiment.

    Every field is checked on construction, from Python as from JSON.  Counts
    may be whole floats; they are stored as ints.  A sweep config is checked at
    every value it expands to, and is then its last value's config plus the sweep.
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
        if self.sweep is not None:
            axis = typed("sweep", self.sweep, SweepSpec, "a sweep spec").axis
            family = _AXIS_FAMILY.get(axis, self.template.family)
            if family != self.template.family:
                raise InvalidArgumentError(f"a {axis} sweep needs a {family} template, not {self.template.family}")
            last = sweep_configs(self)[-1][1]
            set_field("M", last.M)
            set_field("template", last.template)
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

    @property
    def checkpoints(self) -> tuple:
        """The M values at which a trial reads its running average, ending at M:
        an M sweep's values (its last is M), else M alone."""
        if self.sweep is None or self.sweep.axis != "M":
            return (self.M,)
        return self.sweep.values

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
    magnitudes: np.ndarray  # at unit noise; aggregate_trials scales them by sigma
    pearson: float
    observations: int  # rows the walk had summed when it took this reading


@dataclass
class Telemetry:
    """Work a command did, counted by the walks that did it."""

    trials: int = 0
    observations: int = 0
    ck_draws: int = 0
    workers: int = 0  # the command's pool: processes for its C_k blocks and trials


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
    """One independent walk: draw M unit-noise observations, align and sum
    them, and measure the running average at each of ``config.checkpoints``.

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
    filt, noise, spec, corr = chunk_arrays(template, config.M)
    total, drawn, results = 0.0, 0, []
    for M in config.checkpoints:
        for start, stop in chunks(M, d, drawn):
            rows = rng.standard_normal(out=noise[:stop - start])
            shifts = align_rows(rows, filt, spec, corr)
            # the aligned rows overwrite the correlation rows: row i rotated left by its shift
            aligned = corr[:len(rows)]
            for i, s in enumerate(shifts.tolist()):
                aligned[i, :d - s] = rows[i, s:]
                aligned[i, d - s:] = rows[i, :s]
            aligned[0] += total
            total = aligned.sum(axis=0)
        drawn = M
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

    ``profile`` is the config's C_k profile, at exactly the config's
    frequencies (None when it has none; any other profile raises
    InvalidArgumentError); the thm1 predictions are its C_k over the config's M.
    Trials and profile are unit noise: ``config.sigma`` multiplies the four
    magnitude columns, and no other statistic depends on it.
    """
    results = sorted(results, key=lambda r: r.trial_index)
    n = len(results)
    if n < 1:
        raise InsufficientDataError("no trials to aggregate")
    template, ks = _template_of(config)
    profile_ks = np.empty(0, int) if profile is None else profile.ks
    if not np.array_equal(profile_ks, ks):
        raise InvalidArgumentError(f"the C_k profile is for bins {profile_ks.tolist()}, not the config's {ks.tolist()}")
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
        mean_magnitude=config.sigma * mag_mean,
        magnitude_stderr=config.sigma * mag_se,
        mean_pearson=float(pearson),
        pearson_stderr=float(pearson_se),
        predicted_mse_thm1=ck / config.M,
        predicted_mse_thm1_stderr=ck_se / config.M,
        predicted_mse_thm2=predict_phase_mse(template, ks, config.M),
        predicted_magnitude_thm1=config.sigma * mu_b,
        predicted_magnitude_thm2=config.sigma * predict_magnitude(template, ks),
    )


def _ck_seed(master_seed: int) -> np.random.SeedSequence:
    """The seed of an experiment's C_k profile, apart from every trial's stream."""
    return np.random.SeedSequence(master_seed, spawn_key=(_CK_SEED_LANE, 1))


def _walk(
    config: ExperimentConfig, template: TemplateSignal, ks: np.ndarray, pool: Pool, telemetry: Optional[Telemetry]
) -> list:
    """Run every trial's walk and the C_k profile of ``config``, whose
    :func:`_template_of` is ``template, ks``, on ``pool``; then aggregate each
    checkpoint: one :class:`AggregateStats` per entry of ``config.checkpoints``.

    The profile, estimated once for all checkpoints, queues its blocks first
    and the trials queue behind them, so a long profile block starts at once
    and the trials fill the other workers.
    """
    trials = pool.later(run_trial, [(config, t) for t in range(config.trials)])
    profile = None
    if ks.size:  # the C_k profile does not depend on M
        profile = estimate_ck_profile(template, config.ck_trials, _ck_seed(config.master_seed), ks=ks, workers=pool)
    walks = trials()
    if telemetry is not None:
        telemetry.trials += len(walks)
        telemetry.observations += sum(w[-1].observations for w in walks)
        telemetry.ck_draws += profile.trials if profile is not None else 0
        telemetry.workers = pool.size
    return [
        aggregate_trials(dataclasses.replace(config, M=M, sweep=None), [w[i] for w in walks], profile)
        for i, M in enumerate(config.checkpoints)
    ]


def run_experiment(
    config: ExperimentConfig, workers: Optional[int] = None, telemetry: Optional[Telemetry] = None
) -> AggregateStats:
    """The sweep of one M value, ``config.M``: all trials on up to ``workers``
    processes (None: the usable cores), aggregated.  A sweep config runs as
    its last value's config (an M sweep at its largest M).

    The aggregate is identical for any worker count: trials are keyed by
    index, not by completion order.
    """
    return run_sweep(dataclasses.replace(config, sweep=SweepSpec("M", (config.M,))), workers, telemetry)[0][1]


def sweep_configs(config: ExperimentConfig) -> list[tuple]:
    """Expand a sweep into (value, config) pairs in value order: ``config``
    without its sweep, the swept field at the value (the last pair's is ``config``'s)."""
    if config.sweep is None:
        raise InvalidArgumentError("config has no sweep")
    axis, out = config.sweep.axis, []
    for v in config.sweep.values:
        if axis == "M":
            c = dataclasses.replace(config, M=v, sweep=None)
        else:
            t = dataclasses.replace(config.template, **{axis.replace("-", "_"): v})
            c = dataclasses.replace(config, template=t, sweep=None)
        out.append((v, c))
    return out


def run_sweep(
    config: ExperimentConfig, workers: Optional[int] = None, telemetry: Optional[Telemetry] = None
) -> list[tuple]:
    """(value, stats) for each sweep value: the one route to the walk.

    Every value's template and bins are checked before any trial runs.  An
    M sweep is then one walk of ``config`` as given, to its M (the largest
    value), read at every value; each other axis runs one walk per value.
    The walks share one :class:`~efnlab.alignment.Pool` of up to ``workers``
    processes (None: the usable cores), at most one per C_k block and trial
    of a value, so the command forks once.
    """
    pairs = sweep_configs(config)
    walks = [config] if config.sweep.axis == "M" else [c for _, c in pairs]
    checked = [_template_of(c) for c in walks]  # every value's template and bins, before any trial runs
    ck_blocks = len(blocks(config.ck_trials, _ck_seed(config.master_seed))) if config.frequencies else 0
    with Pool(workers, ck_blocks + config.trials) as pool:
        stats = [s for c, (template, ks) in zip(walks, checked) for s in _walk(c, template, ks, pool, telemetry)]
    return list(zip(config.sweep.values, stats))
