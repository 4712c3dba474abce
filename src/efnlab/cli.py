"""Command-line front end.

Commands
--------
run           Run the experiment described by a JSON config; writes stats.csv,
              summary.json, and manifest.json.
figure        Desk-scale analog of one of the headline plots (2b, 2c, 3, 4b,
              4c); emits plot-ready CSV plus manifest.
verify        Run a named verification suite and print a pass/fail table.
gen-template  Write a template signal to JSON or CSV.
version       Print the tool version.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Flags
override config fields; precedence is flags > config > defaults.  The worker
count comes from --threads, then the EFN_THREADS environment variable.  This
is the one module that knows a file format.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidArgumentError
from .experiment import (
    AggregateStats,
    ExperimentConfig,
    SweepSpec,
    Telemetry,
    run_experiment,
    run_sweep,
)
from .signals import SignalFamilySpec, generate_template
from .verify import SUITES, run_suite

_FIGURE_IDS = ("2b", "2c", "3", "4b", "4c")

#: The per-frequency statistics, in the order ``summary.json`` lists them.
STATS_COLUMNS = (
    "phase_mse", "phase_mse_stderr", "mean_magnitude", "magnitude_stderr",
    "predicted_mse_thm1", "predicted_mse_thm1_stderr", "predicted_mse_thm2",
    "predicted_magnitude_thm1", "predicted_magnitude_thm2",
)
#: The columns of ``stats.csv`` after any sweep-axis column.
CSV_COLUMNS = ("k", *STATS_COLUMNS, "mse_ratio_thm2")


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _stats_rows(stats: AggregateStats, columns=CSV_COLUMNS[1:]) -> list[list]:
    """One row per frequency: the bin ``int(k)``, then the named statistics."""
    cols = [getattr(stats, c) for c in columns]
    return [[int(k), *(v[i] for v in cols)] for i, k in enumerate(stats.ks)]


def _summary(stats: AggregateStats) -> dict:
    """The ``summary.json`` record of one experiment; a non-finite value is null."""
    def value(v):
        return v if math.isfinite(v) else None

    return {
        "n_trials": stats.n_trials,
        "mean_pearson": value(stats.mean_pearson),
        "pearson_stderr": value(stats.pearson_stderr),
        "frequencies": [int(k) for k in stats.ks],
        **{c: [value(v) for v in getattr(stats, c).tolist()] for c in STATS_COLUMNS},
    }


def _write_manifest(
    out_dir: Path, command: str, config_doc: dict, outputs: list[Path], t0: float, telemetry: Telemetry
) -> None:
    manifest = {
        "command": command,
        "config": config_doc,
        "tool_version": __version__,
        "duration_seconds": time.time() - t0,
        "outputs": [str(p) for p in outputs],
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "workers": telemetry.workers,
        },
        "counters": {
            "trials": telemetry.trials,
            "observations": telemetry.observations,
            "ck_draws": telemetry.ck_draws,
        },
    }
    _write_json(out_dir / "manifest.json", manifest)


def _resolve_workers(args) -> int:
    workers, source = args.threads, "--threads"
    if workers is None:
        env = os.environ.get("EFN_THREADS", "").strip()
        if not env:
            return 1
        source = "EFN_THREADS"
        try:
            workers = int(env)
        except ValueError as e:
            raise InvalidArgumentError(f"EFN_THREADS: {e}") from e
    if workers < 1:
        raise InvalidArgumentError(f"{source} must be >= 1, got {workers}")
    return workers


def _flag_fields(args) -> dict:
    """The config fields that the given flags set: a flag's dest is the field it overrides."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return {k: v for k, v in vars(args).items() if k in fields and v is not None}


def _out_dir(args) -> Path:
    """The --out directory, made only when written to; a non-directory there is rejected now."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise InvalidArgumentError(f"--out: {existing} exists and is not a directory")
    return out


def _load_config(path: str, args) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise InvalidArgumentError(f"config: line {e.lineno}: {e.msg}") from e
    except (OSError, ValueError, RecursionError) as e:  # unreadable, undecodable, or nested too deep
        raise InvalidArgumentError(f"config: {e}") from e
    if not isinstance(doc, dict):
        raise InvalidArgumentError("config: the top level must be a JSON object")
    return ExperimentConfig.from_dict({**doc, **_flag_fields(args)})


def cmd_run(args) -> int:
    t0 = time.time()
    config = _load_config(args.config, args)
    out_dir = _out_dir(args)
    workers = _resolve_workers(args)
    telemetry = Telemetry()

    csv_path = out_dir / "stats.csv"
    json_path = out_dir / "summary.json"
    if config.sweep is None:
        stats = run_experiment(config, workers, telemetry)
        header, rows, summary = list(CSV_COLUMNS), _stats_rows(stats), _summary(stats)
    else:
        header = [config.sweep.axis, *CSV_COLUMNS]
        rows, summary = [], []
        for value, stats in run_sweep(config, workers, telemetry):
            rows.extend([value, *row] for row in _stats_rows(stats))
            summary.append({"value": value, **_summary(stats)})
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(csv_path, header, rows)
    _write_json(json_path, summary)
    _write_manifest(out_dir, "run", config.to_dict(), [csv_path, json_path], t0, telemetry)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _figure_config(figure: str, args) -> ExperimentConfig:
    """The figure's config at its default trial count and seed, then the flags."""
    if args.pad and figure != "3":
        raise InvalidArgumentError(f"--pad applies to figure 3 only, not figure {figure}")
    if figure in ("2b", "2c"):
        d, ks = (256, range(1, 128)) if figure == "2b" else (1024, (1, 2, 3, 4, 6, 8, 12, 16, 24, 32))
        config = ExperimentConfig(
            template=SignalFamilySpec(family="power-law-psd", d=d, beta=1.0, phase_seed=1),
            M=200, trials=200, frequencies=ks,
            sweep=SweepSpec("M", (200, 500, 1500, 5000)),
        )
    elif figure == "3":
        axis = "pad-ratio" if args.pad else "beta"
        values = (0.0, 1.0, 3.0) if args.pad else (0.0, 1.0, 2.0)
        family = "zero-padded-pulse" if args.pad else "power-law-psd"
        config = ExperimentConfig(
            template=SignalFamilySpec(family=family, d=512, beta=2.0, phase_seed=1),
            M=1000, trials=200, sweep=SweepSpec(axis, values),
        )
    elif figure == "4b":
        config = ExperimentConfig(
            template=SignalFamilySpec(family="power-law-psd", d=512, beta=0.0, phase_seed=1),
            M=2000, trials=100, sweep=SweepSpec("d", (512, 2048, 8192)),
        )
    else:  # 4c
        config = ExperimentConfig(
            template=SignalFamilySpec(family="power-law-psd", d=2048, beta=0.0, phase_seed=1),
            M=2000, trials=500, frequencies=tuple(range(1, 1024)),
        )
    return dataclasses.replace(config, **{"master_seed": 77, **_flag_fields(args)})


def cmd_figure(args) -> int:
    t0 = time.time()
    if args.figure not in _FIGURE_IDS:
        raise InvalidArgumentError(f"unknown figure id {args.figure!r}; choose from {_FIGURE_IDS}")
    config = _figure_config(args.figure, args)
    out_dir = _out_dir(args)
    workers = _resolve_workers(args)
    telemetry = Telemetry()
    csv_path = out_dir / f"figure{args.figure}.csv"

    if args.figure in ("2b", "2c"):
        header, columns = ["M", "k", "mse", "stderr"], ["phase_mse", "phase_mse_stderr"]
        if args.figure == "2c":
            header += ["thm2_prediction", "thm1_prediction", "thm1_prediction_stderr"]
            columns += ["predicted_mse_thm2", "predicted_mse_thm1", "predicted_mse_thm1_stderr"]
        rows = [
            [int(M), *row]
            for M, stats in run_sweep(config, workers, telemetry)
            for row in _stats_rows(stats, columns)
        ]
    elif args.figure in ("3", "4b"):
        results = run_sweep(config, workers, telemetry)
        axis = config.sweep.axis
        header = [axis, "pearson", "stderr"]
        rows = [[v, s.mean_pearson, s.pearson_stderr] for v, s in results]
    else:  # 4c
        stats = run_experiment(config, workers, telemetry)
        template = generate_template(config.template)
        header = ["k", "template_magnitude", "mse", "stderr", "thm2_prediction", "mse_ratio_thm2"]
        columns = ["phase_mse", "phase_mse_stderr", "predicted_mse_thm2", "mse_ratio_thm2"]
        rows = [[k, template.magnitudes[k], *rest] for k, *rest in _stats_rows(stats, columns)]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(csv_path, header, rows)
    _write_manifest(out_dir, f"figure {args.figure}", config.to_dict(), [csv_path], t0, telemetry)
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(args) -> int:
    rows = run_suite(args.suite, cases=args.cases, draws=args.draws, replicates=args.replicates, seed=args.seed)
    ok = True
    for row in rows:
        print(row.format())
        ok &= row.passed
    print(f"verify {args.suite}: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def cmd_gen_template(args) -> int:
    out = Path(args.out)
    suffix = out.suffix.lower()
    if suffix not in (".json", ".csv"):
        raise InvalidArgumentError(f"--out must end in .json or .csv, got {out.name!r}")
    spec = SignalFamilySpec(
        family=args.family,
        d=args.d,
        beta=args.beta,
        pad_ratio=args.pad_ratio,
        phase_seed=args.phase_seed,
        zero_dc=not args.keep_dc,
    )
    template = generate_template(spec)
    if suffix == ".csv":
        _write_csv(out, ["sample"], [[v] for v in template.samples])
    else:
        arrays = {name: getattr(template, name).tolist() for name in ("samples", "magnitudes", "phases")}
        _write_json(out, {"d": template.d, **arrays})
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="efn", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--threads", type=int, help="worker process cap")
    shared.add_argument("--trials", type=int, help="trial count")
    shared.add_argument("--seed", type=int, dest="master_seed", help="master seed")

    run_p = sub.add_parser("run", parents=[shared], help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--ck-trials", type=int, dest="ck_trials")
    run_p.set_defaults(fn=cmd_run)

    fig_p = sub.add_parser("figure", parents=[shared], help="reproduce a headline-figure analog")
    fig_p.add_argument("figure", help="one of: " + ", ".join(_FIGURE_IDS))
    fig_p.add_argument("--pad", action="store_true", help="figure 3: sweep pad ratio instead of beta")
    fig_p.set_defaults(fn=cmd_figure)

    ver_p = sub.add_parser("verify", help="run a verification suite")
    ver_p.add_argument("suite", help=" | ".join([*SUITES, "all"]))
    ver_p.add_argument("--cases", type=int)
    ver_p.add_argument("--draws", type=int)
    ver_p.add_argument("--replicates", type=int)
    ver_p.add_argument("--seed", type=int)
    ver_p.set_defaults(fn=cmd_verify)

    gen_p = sub.add_parser("gen-template", help="write a template signal file")
    gen_p.add_argument("--family", default="power-law-psd")
    gen_p.add_argument("--d", type=int, required=True)
    gen_p.add_argument("--beta", type=float, default=0.0)
    gen_p.add_argument("--pad-ratio", type=float, default=0.0, dest="pad_ratio")
    gen_p.add_argument("--phase-seed", type=int, default=0, dest="phase_seed")
    gen_p.add_argument("--keep-dc", action="store_true", help="do not zero the DC bin")
    gen_p.add_argument("--out", required=True, help="output path (.json or .csv)")
    gen_p.set_defaults(fn=cmd_gen_template)

    ver2_p = sub.add_parser("version", help="print the tool version")
    ver2_p.set_defaults(fn=lambda args: (print(__version__), 0)[1])
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
