"""efnlab benchmark: runs one workload through the efn CLI and prints its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in a fresh interpreter (bench/child.py) on the package in
``src/`` of this checkout.  A run repeats whole rounds of the workload until
S seconds have passed (at least the workload's minimum number of rounds),
checks every round's outputs, and prints one JSON object as its last line of
standard output:

* ``--trace 0``: ``setup_s`` (median, over a few fresh starts that only
  import ``efnlab.cli`` and the starts of the rounds, of the time from spawn
  until ``efnlab.cli`` is imported), ``run_s`` (median over rounds of ``main(argv)`` entry to
  return) and ``peak_rss_mb`` (median over rounds of the child's peak RSS).
* ``--trace 1``: the same untraced rounds, then one traced round whose spans
  give the per-layer metrics (see README.md).

The results, with the machine's core count and library versions, are also
written to ``bench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from checks import (
    FLAT_D,
    FLAT_KS,
    FLAT_M,
    MSWEEP_MS,
    check_ck_profile,
    check_flat_hd,
    check_msweep,
    check_verify,
    digest,
    read_csv,
)
from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

MSWEEP_TRIALS = 10
FLAT_TRIALS = 10
CK_PROFILE_TRIALS = 2
CK_PROFILE_DRAWS = 16_000


@dataclass(frozen=True)
class Workload:
    efn_args: Callable[[Path, int, Path], list]  # (round dir, seed, config path)
    ops: int  # operations per round: experiments (one per sweep value) or suites
    observations: int  # sum of M * trials one round asks for
    outputs: tuple  # files whose bytes must repeat exactly across rounds
    check: Callable[[Path], list]
    min_rounds: int
    pin_threads: bool  # the traced round passes --threads 1


def _run_args(out: Path, seed: int, config: Path) -> list:
    return ["run", "--config", str(config), "--out", str(out), "--seed", str(seed)]


WORKLOADS = {
    "msweep": Workload(
        efn_args=lambda out, seed, config: [
            "figure", "2c", "--out", str(out), "--trials", str(MSWEEP_TRIALS), "--seed", str(seed)],
        ops=len(MSWEEP_MS),
        observations=MSWEEP_TRIALS * sum(MSWEEP_MS),
        outputs=("figure2c.csv",),
        check=lambda out: check_msweep(read_csv(out / "figure2c.csv")),
        min_rounds=2,
        pin_threads=True,
    ),
    "flat_hd": Workload(
        efn_args=_run_args,
        ops=1,
        observations=FLAT_TRIALS * FLAT_M,
        outputs=("stats.csv", "summary.json"),
        check=lambda out: check_flat_hd(read_csv(out / "stats.csv")),
        min_rounds=2,
        pin_threads=True,
    ),
    "ck_profile": Workload(
        efn_args=lambda out, seed, config: _run_args(out, seed, config) + [
            "--trials", str(CK_PROFILE_TRIALS), "--ck-trials", str(CK_PROFILE_DRAWS)],
        ops=1,
        observations=CK_PROFILE_TRIALS * FLAT_M,
        outputs=("stats.csv", "summary.json"),
        check=lambda out: check_ck_profile(read_csv(out / "stats.csv")),
        min_rounds=2,
        pin_threads=True,
    ),
    # The suites keep their own pinned seeds: their 99%-level statistical
    # checks would fail on a few percent of arbitrary seeds.
    "verify_all": Workload(
        efn_args=lambda out, seed, config: ["verify", "all"],
        ops=5,
        observations=0,
        outputs=("stdout.txt",),
        check=lambda out: check_verify((out / "stdout.txt").read_text()),
        min_rounds=1,
        pin_threads=False,
    ),
}


def flat_config() -> dict:
    """The criterion-2 shape: flat zero-DC template, d=2048, M=2000, mid-band bins."""
    return {
        "template": {"family": "power-law-psd", "d": FLAT_D, "beta": 0.0, "phase_seed": 1},
        "M": FLAT_M,
        "trials": FLAT_TRIALS,
        "frequencies": list(FLAT_KS),
    }


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EFN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: list, trace: bool, workdir: Path, deadline: float) -> dict:
    """Run child.py with efn arguments; return its record plus rusage figures.

    The child is waited for with os.wait4, whose rusage covers the child and
    every descendant it waited for.  A child still running at ``deadline``
    is killed and reported as failed.
    """
    result = workdir / "child.json"
    cmd = [sys.executable, str(CHILD), str(result), "1" if trace else "0", *argv]
    spawned = time.monotonic()
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(result.read_text()) if result.exists() else {}
    record.update(
        exit=proc.returncode,
        timed_out=timed_out,
        setup_s=record["ready"] - spawned if "ready" in record else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    cli = record.get("cli", "")
    if cli and not Path(cli).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"efnlab was imported from {cli}, not from {SRC}")
    return record


def run_round(w: Workload, run_dir: Path, index: int, seed: int, config: Path,
              traced: bool, deadline: float) -> dict:
    out = run_dir / f"round{index}"
    out.mkdir()
    argv = w.efn_args(out, seed, config)
    if traced and w.pin_threads:
        argv += ["--threads", "1"]
    rec = spawn(argv, traced, out, deadline)
    problems = []
    if rec["timed_out"]:
        problems.append("timed out")
    elif rec["exit"] != 0 or rec.get("rc") != 0 or "run_s" not in rec:
        tail = (out / "stderr.txt").read_text()[-2000:]
        problems.append(f"exit {rec['exit']}, main returned {rec.get('rc')}: {tail}")
    else:
        try:
            findings = w.check(out)
            rec["digest"] = digest(out / name for name in w.outputs)
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"unreadable output: {e!r}")
        else:
            rec["findings"] = {f.label: f.value for f in findings}
            problems += [str(f) for f in findings if not f.ok]
    rec["problems"] = problems
    rec["traced"] = traced
    shutil.rmtree(out)
    return rec


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = BENCH / "out" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / "flat_hd.json"
        config.write_text(json.dumps(flat_config()))

        setup = []
        if not trace:
            for i in range(SETUP_PROBES):
                probe = run_dir / f"probe{i}"
                probe.mkdir()
                setup.append(spawn([], False, probe, deadline)["setup_s"])

        rounds = []
        t0 = time.monotonic()
        while len(rounds) < w.min_rounds or time.monotonic() - t0 < seconds:
            if rounds and time.monotonic() + (time.monotonic() - t0) / len(rounds) > deadline:
                break
            rounds.append(run_round(w, run_dir, len(rounds), seed, config, False, deadline))
        traced = run_round(w, run_dir, len(rounds), seed, config, True, deadline) if trace else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not trace:
        setup += [r["setup_s"] for r in rounds if r["setup_s"] is not None]
    everything = rounds + ([traced] if traced else [])
    problems = [p for r in everything for p in r["problems"]]
    digests = {r.get("digest") for r in everything if not r["problems"]}
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions: {len(digests)} distinct digests")
    failed = w.ops * sum(1 for r in everything if r["problems"])
    timed = [r for r in rounds if "run_s" in r]
    if not timed or (not trace and None in setup):
        raise SystemExit(f"{name}: no round produced timings: {problems}")

    run_s = statistics.median(r["run_s"] for r in timed)
    if trace:
        metrics = layer_metrics(traced.get("spans", []), w.observations)
        metrics["process.cpu_s"] = (statistics.median(r["cpu_s"] for r in timed), "s")
        metrics["trace.overhead_s"] = (traced.get("run_s", 0.0) - run_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": w.ops * len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "wall_s": time.monotonic() - started,
        "setup_samples_s": setup,
        "rounds": [{k: r.get(k) for k in ("traced", "run_s", "peak_rss_mb", "cpu_s", "exit", "digest",
                                         "findings", "problems", "missing")} for r in everything],
        "problems": problems,
        "result": result,
    }
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    if not (SRC / "efnlab" / "cli.py").is_file():
        print(f"error: no efnlab package at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=2) + "\n")
    for problem in details["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    env = details["environment"]
    print(f"{args.workload}: {len(details['rounds'])} rounds in {details['wall_s']:.1f} s on "
          f"{env['usable_cores']} cores, Python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}; details in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
