"""Seeded Monte-Carlo orchestration: trials, sweeps, and aggregate statistics.

Reproducibility scheme: every trial gets its own RNG stream derived from
``SeedSequence(master_seed, spawn_key=(trial_index, 0))``, so no two trials
share a stream and results cannot depend on scheduling.  Observation o of a
trial is row o of that stream's ``standard_normal((M, d))``: the rows are
drawn, aligned and summed in fixed-size chunks, in observation order, and
each chunk continues the stream where the last one stopped.  So a trial does
not depend on the chunk size, and its first M' observations are those of the
M'-observation trial.  Trials are aggregated in index order.  Together these
make the output identical whether trials ran serially or across a process
pool.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError
from .alignment import align_rows, chunks
from .estimator import EfnEstimate, pearson_correlation
from .signals import SignalFamilySpec, TemplateSignal, generate_template, wrap_phase
from .theory import estimate_ck_profile, predict_magnitude, predict_phase_mse

# Reserved single-element spawn key for the prediction Monte-Carlo; disjoint
# from the (trial, 0) two-element keys used for noise streams.
_CK_SEED_LANE = 0x5EED

SWEEP_AXES = ("M", "d", "beta", "pad-ratio")


def _typed(field: str, value, kind, name: str):
    """``value`` itself if it is a ``kind`` and not a bool; otherwise a config error."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidArgumentError(f"{field} must be {name}, got {value!r}")
    return value


def _integral(field: str, value) -> int:
    """``value`` as an int; anything but a whole number is a config error."""
    if not float(_typed(field, value, numbers.Real, "an integer")).is_integer():
        raise InvalidArgumentError(f"{field} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise InvalidArgumentError(f"sweep.axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        vals = tuple(self.values)
        for v in vals:
            if self.axis in ("M", "d"):
                _integral(f"sweep.values ({self.axis})", v)
            else:
                _typed(f"sweep.values ({self.axis})", v, numbers.Real, "a number")
        if len(vals) < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
            raise InvalidArgumentError("sweep.values must be non-empty and strictly increasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte-Carlo experiment."""

    template: SignalFamilySpec
    M: int
    trials: int
    sigma: float = 1.0
    master_seed: int = 0
    frequencies: tuple = ()
    sweep: Optional[SweepSpec] = None
    ck_trials: int = 4000

    def __post_init__(self):
        if self.M < 1:
            raise InvalidArgumentError(f"M must be >= 1, got {self.M}")
        if self.trials < 1:
            raise InvalidArgumentError(f"trials must be >= 1, got {self.trials}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidArgumentError(f"sigma must be positive and finite, got {self.sigma}")
        if self.master_seed < 0:
            raise InvalidArgumentError("master_seed must be a nonnegative integer")
        freqs = tuple(_integral("frequencies", k) for k in self.frequencies)
        if any(k < 0 or k > self.template.d - 1 for k in freqs):
            raise InvalidArgumentError(
                f"frequencies must lie in [0, {self.template.d - 1}], got {freqs}"
            )
        object.__setattr__(self, "frequencies", freqs)
        if self.ck_trials < 1000:
            raise InvalidArgumentError("ck_trials must be >= 1000")

    def to_dict(self) -> dict:
        out = {
            "template": dataclasses.asdict(self.template),
            "M": self.M,
            "trials": self.trials,
            "sigma": self.sigma,
            "master_seed": self.master_seed,
            "frequencies": list(self.frequencies),
            "ck_trials": self.ck_trials,
        }
        if self.sweep is not None:
            out["sweep"] = {"axis": self.sweep.axis, "values": list(self.sweep.values)}
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if "template" not in doc:
            raise InvalidArgumentError("config missing required field 'template'")
        tdoc = dict(_typed("template", doc["template"], dict, "an object"))
        if tdoc.get("samples") is not None:
            samples = _typed("template.samples", tdoc["samples"], list, "a list")
            tdoc["samples"] = tuple(
                _typed("template.samples", v, numbers.Real, "a number") for v in samples
            )
        try:
            template = SignalFamilySpec(**tdoc)
        except TypeError as e:
            raise InvalidArgumentError(f"template: {e}") from e
        sweep = None
        if doc.get("sweep") is not None:
            sdoc = _typed("sweep", doc["sweep"], dict, "an object")
            if not {"axis", "values"} <= set(sdoc):
                raise InvalidArgumentError("sweep needs the fields 'axis' and 'values'")
            values = _typed("sweep.values", sdoc["values"], list, "a list")
            sweep = SweepSpec(axis=sdoc["axis"], values=tuple(values))
        known = {"template", "M", "trials", "sigma", "master_seed", "frequencies", "sweep", "ck_trials"}
        unknown = set(doc) - known
        if unknown:
            raise InvalidArgumentError(f"unknown config fields: {sorted(unknown)}")
        return cls(
            template=template,
            M=_integral("M", doc.get("M", 1)),
            trials=_integral("trials", doc.get("trials", 1)),
            sigma=float(_typed("sigma", doc.get("sigma", 1.0), numbers.Real, "a number")),
            master_seed=_integral("master_seed", doc.get("master_seed", 0)),
            frequencies=tuple(_typed("frequencies", doc.get("frequencies", []), list, "a list")),
            sweep=sweep,
            ck_trials=_integral("ck_trials", doc.get("ck_trials", 4000)),
        )


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    phase_errors: np.ndarray  # wrapped, one entry per configured frequency
    magnitudes: np.ndarray
    pearson: float


#: The per-frequency statistics, in the order ``summary.json`` lists them.
STATS_COLUMNS = (
    "phase_mse", "phase_mse_stderr", "mean_magnitude", "magnitude_stderr",
    "predicted_mse_thm1", "predicted_mse_thm1_stderr", "predicted_mse_thm2",
    "predicted_magnitude_thm1", "predicted_magnitude_thm2",
)
#: The columns of ``stats.csv`` after any sweep-axis column.
CSV_COLUMNS = ("k", *STATS_COLUMNS, "mse_ratio_thm2")


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
    def mse_ratio_thm1(self) -> np.ndarray:
        return self.phase_mse / self.predicted_mse_thm1

    @property
    def mse_ratio_thm2(self) -> np.ndarray:
        return self.phase_mse / self.predicted_mse_thm2

    def rows(self) -> list[dict]:
        """One dict per frequency, keyed by :data:`CSV_COLUMNS` (CSV-ready)."""
        cols = [getattr(self, c) for c in CSV_COLUMNS[1:]]
        return [
            {"k": int(k), **{c: v[i] for c, v in zip(CSV_COLUMNS[1:], cols)}}
            for i, k in enumerate(self.ks)
        ]

    def summary(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "mean_pearson": self.mean_pearson,
            "pearson_stderr": self.pearson_stderr,
            "frequencies": [int(k) for k in self.ks],
            **{c: getattr(self, c).tolist() for c in STATS_COLUMNS},
        }


def observation_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one trial; its rows are the observations."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index, 0))
    return np.random.default_rng(ss)


def _template_of(config: ExperimentConfig) -> TemplateSignal:
    template = generate_template(config.template)
    template.require_alignable()
    for k in config.frequencies:
        template.require_bin(k)
    return template


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """One independent estimate: draw M observations, align, average, measure.

    Observations are drawn from the trial's one stream and aligned one
    fixed-size chunk at a time.  The running total is added into each
    chunk's first aligned row before the chunk is summed, so the total is the
    row-order sum of all M aligned observations, bit for bit, whatever the
    chunk size.
    """
    template = _template_of(config)
    d = template.d
    rng = observation_rng(config.master_seed, trial_index)
    total = None
    for start, stop in chunks(config.M, d):
        noise = config.sigma * rng.standard_normal((stop - start, d))
        shifts = align_rows(noise, template)[0]
        # align in place: row i is rotated left by its shift
        for i, s in enumerate(shifts.tolist()):
            head = noise[i, :s].copy()
            noise[i, :d - s] = noise[i, s:]
            noise[i, d - s:] = head
        if total is not None:
            noise[0] += total
        total = noise.sum(axis=0)
    xhat = total / config.M

    estimate = EfnEstimate.from_samples(xhat, config.M)
    ks = np.asarray(config.frequencies, dtype=int)
    if ks.size:
        errs = wrap_phase(estimate.spectrum.phases[ks] - template.spectrum.phases[ks])
        mags = estimate.spectrum.magnitudes[ks]
    else:
        errs = np.empty(0)
        mags = np.empty(0)
    return TrialResult(
        trial_index=trial_index,
        phase_errors=errs,
        magnitudes=mags,
        pearson=pearson_correlation(xhat, template.samples),
    )


def aggregate_trials(config: ExperimentConfig, results: Sequence[TrialResult]) -> AggregateStats:
    """Fold trial results (in trial-index order) into aggregate statistics."""
    results = sorted(results, key=lambda r: r.trial_index)
    n = len(results)
    if n < 1:
        raise InsufficientDataError("no trials to aggregate")
    template = _template_of(config)
    ks = np.asarray(config.frequencies, dtype=int)
    pearsons = np.asarray([r.pearson for r in results])

    if ks.size:
        errs = np.stack([r.phase_errors for r in results])
        mags = np.stack([r.magnitudes for r in results])
        sq = errs**2
        mse = sq.mean(0)
        mse_se = sq.std(0, ddof=1) / math.sqrt(n) if n > 1 else np.full(ks.size, np.nan)
        mag_mean = mags.mean(0)
        mag_se = mags.std(0, ddof=1) / math.sqrt(n) if n > 1 else np.full(ks.size, np.nan)
        ck_seed = np.random.SeedSequence(config.master_seed, spawn_key=(_CK_SEED_LANE,))
        profile = estimate_ck_profile(
            template, config.ck_trials, ck_seed, sigma=config.sigma, ks=ks
        )
        pred1 = profile.ck / config.M
        pred1_se = profile.ck_stderr / config.M
        pred1_mag = profile.mu_b
        pred2 = np.asarray([predict_phase_mse(template, int(k), config.M) for k in ks])
        pred2_mag = np.asarray([predict_magnitude(template, int(k)) for k in ks])
    else:
        mse = mse_se = mag_mean = mag_se = np.empty(0)
        pred1 = pred1_se = pred2 = pred1_mag = pred2_mag = np.empty(0)

    return AggregateStats(
        config=config,
        n_trials=n,
        ks=ks,
        phase_mse=mse,
        phase_mse_stderr=mse_se,
        mean_magnitude=mag_mean,
        magnitude_stderr=mag_se,
        mean_pearson=float(pearsons.mean()),
        pearson_stderr=float(pearsons.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan"),
        predicted_mse_thm1=pred1,
        predicted_mse_thm1_stderr=pred1_se,
        predicted_mse_thm2=pred2,
        predicted_magnitude_thm1=pred1_mag,
        predicted_magnitude_thm2=pred2_mag,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> AggregateStats:
    """Run all trials (optionally across processes) and aggregate.

    The aggregate is identical for any worker count: trials are keyed by
    index, not by completion order.
    """
    _template_of(config)  # validate the template and frequencies before any trial runs
    if workers <= 1:
        results = [run_trial(config, t) for t in range(config.trials)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, [config] * config.trials, range(config.trials)))
    return aggregate_trials(config, results)


def sweep_configs(config: ExperimentConfig) -> list[tuple[float, ExperimentConfig]]:
    """Expand a sweep into (value, per-value config) pairs."""
    if config.sweep is None:
        raise InvalidArgumentError("config has no sweep")
    out = []
    for v in config.sweep.values:
        if config.sweep.axis == "M":
            c = dataclasses.replace(config, M=int(v), sweep=None)
        elif config.sweep.axis == "d":
            t = dataclasses.replace(config.template, d=int(v))
            c = dataclasses.replace(config, template=t, sweep=None)
        elif config.sweep.axis == "beta":
            t = dataclasses.replace(config.template, beta=float(v))
            c = dataclasses.replace(config, template=t, sweep=None)
        else:
            t = dataclasses.replace(config.template, pad_ratio=float(v))
            c = dataclasses.replace(config, template=t, sweep=None)
        out.append((float(v), c))
    return out


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[tuple[float, AggregateStats]]:
    return [(v, run_experiment(c, workers=workers)) for v, c in sweep_configs(config)]
