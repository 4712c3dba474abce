"""Command-line front end: exit codes, output files, reproducibility."""

import argparse
import csv
import importlib.util
import json
import math
import multiprocessing
import os
import pickle
import platform
import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from efnlab import alignment, cli, experiment, theory, verify
from efnlab.cli import main
from efnlab.errors import InvalidArgumentError
from efnlab.experiment import ExperimentConfig
from efnlab.signals import SignalFamilySpec, generate_template

BENCH = Path(__file__).resolve().parent.parent / "bench"
CORES = alignment.usable_cores()  # the most --threads takes


def write_config(path, **overrides):
    doc = {
        "template": {"family": "power-law-psd", "d": 64, "beta": 1.0, "phase_seed": 1},
        "M": 40,
        "trials": 5,
        "master_seed": 1,
        "frequencies": [1, 2],
        "ck_trials": 1000,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def csv_rows(path) -> list[dict]:
    return list(csv.DictReader(path.read_text().splitlines()))


def _fail_in_worker(*args, **kwargs):
    raise RuntimeError(f"a block failed in worker {os.getpid()}")


class TestRun:
    def test_smoke_run_writes_three_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("stats.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["config"]["M"] == 40
        assert str(out / "stats.csv") in manifest["outputs"]

    @pytest.mark.parametrize("sigma", [1e-300, 1e300])
    def test_sigma_extremes_scale_only_the_magnitudes(self, tmp_path, capsys, sigma):
        # trials and the C_k draws are unit noise, and sigma multiplies the four magnitude columns alone
        magnitudes = {"mean_magnitude", "magnitude_stderr", "predicted_magnitude_thm1", "predicted_magnitude_thm2"}
        runs = []
        for s in (1.0, sigma):
            cfg = write_config(tmp_path / f"cfg{s}.json", M=20, trials=2, frequencies=[1, 2, 5], sigma=s)
            out = tmp_path / f"out{s}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            with (out / "stats.csv").open() as fh:
                runs.append((list(csv.DictReader(fh)), json.loads((out / "summary.json").read_text())))
        (one, one_summary), (far, far_summary) = runs
        for key in ("mean_pearson", "pearson_stderr"):
            assert far_summary[key] == one_summary[key]
        for a, b in zip(one, far, strict=True):
            for column in a:
                if column in magnitudes:
                    assert float(b[column]) == sigma * float(a[column]), column
                else:
                    assert b[column] == a[column], column

    def test_invalid_config_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["template"]["d"] = 63
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "d must be even" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{not json", "config: line 1"),
            # raw text: json.dumps cannot write an integer past the 4300-digit limit
            (b'{"sigma": 1' + b"0" * 5000 + b"}", "config: Exceeds the limit"),
            (None, "config: "),  # the OS error text varies by platform
            (b'{"M": "\xff"}', "config: 'utf-8' codec can't decode"),
            (b"[" * 100_000 + b"]" * 100_000, "config: maximum recursion depth exceeded"),
        ],
        ids=["not-json", "huge-integer", "directory", "not-utf8", "too-deep"],
    )
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_one_trial_summary_is_strict_json(self, tmp_path):
        # one trial has no standard errors: null in summary.json, nan in stats.csv
        cfg = write_config(tmp_path / "cfg.json", trials=1)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["pearson_stderr"] is None
        assert summary["phase_mse_stderr"] == summary["magnitude_stderr"] == [None, None]
        assert all(np.isfinite(summary["phase_mse"]))
        with (out / "stats.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["phase_mse_stderr"] for row in rows] == ["nan", "nan"]

    def test_stats_csv_agrees_with_summary(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", trials=2)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        with (out / "stats.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["k"]) for row in rows] == summary["frequencies"] == [1, 2]
        for column in cli.STATS_COLUMNS:
            assert [float(row[column]) for row in rows] == summary[column]
        assert all(v > 0 for v in summary["predicted_mse_thm1_stderr"])

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "sweep, M, d",
        [(None, 40, 64), ({"axis": "M", "values": [10, 20]}, 20, 64), ({"axis": "d", "values": [32, 128]}, 40, 128)],
        ids=["plain", "m-sweep", "d-sweep"],
    )
    def test_manifest_config_reproduces_outputs(self, tmp_path, sweep, M, d):
        # a sweep's manifest records the swept field at the sweep's last value
        cfg = write_config(tmp_path / "cfg.json", sweep=sweep, trials=2)
        first = tmp_path / "first"
        assert main(["run", "--config", str(cfg), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert (manifest["config"]["M"], manifest["config"]["template"]["d"]) == (M, d)
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second"
        assert main(["run", "--config", str(cfg2), "--out", str(second)]) == 0
        for name in ("stats.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert json.loads((second / "manifest.json").read_text())["config"] == manifest["config"]

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--trials", "3"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["trials"] == 3

    @pytest.mark.parametrize("flag, value", [("--M", "5"), ("--sigma", "2")])
    def test_config_field_flags_are_not_options(self, tmp_path, flag, value):
        # M and sigma are set in the config file only
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_worker_count_changes_no_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        for threads in (1, min(2, CORES)):
            out = tmp_path / str(threads)
            assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
            assert json.loads((out / "manifest.json").read_text())["environment"]["workers"] == threads
        assert (tmp_path / "1" / "stats.csv").read_bytes() == (out / "stats.csv").read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [{"ck_trials": 2 * alignment.BLOCK + 7}, {"sweep": {"axis": "M", "values": [10, 25, 40]}}],
        ids=["three-ck-blocks", "m-sweep"],
    )
    def test_shared_pool_changes_no_output(self, tmp_path, overrides):
        # the C_k blocks and the trials share one pool, the C_k blocks queued first
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        for threads in (1, min(2, CORES)):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / str(threads)), "--threads", str(threads)]) == 0
        for name in ("stats.csv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / str(threads) / name).read_bytes()

    @pytest.mark.parametrize("module, name", [(theory, "_moment_sums"), (experiment, "observation_rng")])
    def test_failing_block_leaves_no_worker(self, tmp_path, capsys, monkeypatch, module, name):
        # a C_k block or a trial raises in a worker while other blocks are queued
        monkeypatch.setattr(module, name, _fail_in_worker)
        monkeypatch.setattr(alignment, "usable_cores", lambda: 2)
        cfg = write_config(tmp_path / "cfg.json", ck_trials=2 * alignment.BLOCK + 7)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        failed_in = re.search(r"runtime failure: a block failed in worker (\d+)", capsys.readouterr().err)
        assert int(failed_in.group(1)) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_efn_threads_is_not_read(self, tmp_path, monkeypatch):
        # the worker count is --threads, else the usable cores; the environment has no say
        monkeypatch.setenv("EFN_THREADS", "0")
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        workers = json.loads((out / "manifest.json").read_text())["environment"]["workers"]
        assert workers == min(CORES, 6)  # one C_k block and 5 trials

    @pytest.mark.parametrize("frequencies", [[], [2]])
    def test_non_alignable_template_is_usage_error(self, tmp_path, capsys, frequencies):
        samples = [float(i in (0, 8)) for i in range(16)]
        cfg = write_config(
            tmp_path / "cfg.json",
            template={"family": "explicit-samples", "d": 16, "samples": samples},
            frequencies=frequencies,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "non-vanishing floor" in capsys.readouterr().err
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (out / "stats.csv").exists()

    def test_non_integral_sweep_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", sweep={"axis": "M", "values": [10.9, 20.5, 30.2]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (out / "stats.csv").exists()

    def test_wrong_type_field_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", sigma="abc")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sigma must be a number" in capsys.readouterr().err
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [({"sigma": 10**400}, "sigma"),
         ({"template": {"family": "power-law-psd", "d": 64, "beta": 10**400}}, "template.beta")],
    )
    def test_number_too_large_for_a_float_is_usage_error(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (out / "stats.csv").exists()

    def test_non_number_explicit_sample_is_usage_error(self, tmp_path, capsys):
        template = {"family": "explicit-samples", "d": 4, "samples": ["a", 1, 2, 3]}
        cfg = write_config(tmp_path / "cfg.json", template=template)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "template.samples must be a number" in capsys.readouterr().err
        assert not (out / "stats.csv").exists()

    def test_non_object_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["run", "--config", str(cfg), "--seed", "3"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_m_sweep_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        cfg = write_config(tmp_path / "cfg.json", sweep={"axis": "M", "values": [0, 10]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert ran == []
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"template": {"family": "explicit-samples", "d": 4, "samples": [1.0] * 8}},
             "template.samples must hold d = 4 numbers"),
            ({"template": {"family": "power-law-psd", "d": 16, "zero_dc": "no"}},
             "template.zero_dc must be true or false"),
            ({"template": {"family": "power-law-psd", "d": 16, "phase_seed": 1.5}},
             "template.phase_seed must be an integer"),
            ({"template": {"family": "power-law-psd", "d": 16, "phase_seed": -1}},
             "template.phase_seed must be >= 0"),
            ({"sweep": {"axis": "M", "values": [10, 20], "extra": 1}}, "unknown sweep fields"),
            ({"template": {"family": "delta", "d": 16}, "sweep": {"axis": "beta", "values": [0, 1]}},
             "beta sweep needs a power-law-psd template"),
            ({"sweep": {"axis": "pad-ratio", "values": [0, 1]}},
             "pad-ratio sweep needs a zero-padded-pulse template"),
            ({"template": {"family": "explicit-samples", "d": 8, "samples": [1.0] * 8},
              "sweep": {"axis": "d", "values": [8, 16, 32]}},
             "template.samples must hold d = 16 numbers"),
            ({"template": {"family": "power-law-psd", "d": 32}, "frequencies": [40],
              "sweep": {"axis": "d", "values": [32, 128]}},
             "frequencies must be distinct bins in [0, 31]"),
            ({"template": {"family": "explicit-samples", "d": 8, "samples": [0.0] * 8}},
             "cannot normalize a zero or non-finite signal"),
            ({"template": {"family": "explicit-samples", "d": 4, "samples": [1, 0, 0, 10**400]}},
             "template.samples must be finite"),
            ({"template": {"family": "explicit-samples", "d": 4, "samples": [1, 0, 0, math.nan]}},
             "template.samples must be finite"),
            ({"template": {"family": "delta", "d": 8, "samples": [1, 2, 3, 4, 5, 6, 7, 8]}},
             "template.samples needs an explicit-samples template, got 'delta'"),
        ],
        ids=["samples-length", "zero-dc", "phase-seed-fraction", "phase-seed-negative",
             "sweep-extra-key", "beta-sweep-on-delta", "pad-sweep-on-psd", "d-sweep-of-samples", "d-sweep-bin",
             "all-zero-samples", "huge-sample", "nan-sample", "samples-on-delta"],
    )
    def test_config_error_is_usage_error_before_any_trial(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert ran == []
        assert not (out / "stats.csv").exists()

    def test_d_sweep_checks_bins_at_each_swept_d(self, tmp_path):
        # bin 40 is past the given d = 32 but inside both swept d; the given d is replaced, not run
        template = {"family": "power-law-psd", "d": 32, "beta": 1.0, "phase_seed": 1}
        sweep = {"axis": "d", "values": [64, 128]}
        cfg = write_config(tmp_path / "cfg.json", template=template, frequencies=[40], trials=2, sweep=sweep)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "stats.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["64", "40"], ["128", "40"]]

    def test_whole_float_d_runs_at_that_d(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", template={"family": "power-law-psd", "d": 10.0})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        d = json.loads((out / "manifest.json").read_text())["config"]["template"]["d"]
        assert d == 10 and isinstance(d, int)

    @pytest.mark.parametrize(
        "sweep, threads, counters",
        [
            (None, "1", {"trials": 5, "observations": 200, "ck_draws": 1000}),
            ({"axis": "M", "values": [10, 20, 60]}, "2", {"trials": 5, "observations": 300, "ck_draws": 1000}),
            ({"axis": "d", "values": [32, 64]}, "1", {"trials": 10, "observations": 400, "ck_draws": 2000}),
        ],
    )
    def test_manifest_environment_and_counters(self, tmp_path, sweep, threads, counters):
        workers = min(int(threads), CORES)
        cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(workers)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "workers": workers,
        }
        assert manifest["counters"] == counters

    def test_sweep_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", sweep={"axis": "M", "values": [10, 20]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[0].startswith("M,k,")
        assert len(lines) == 1 + 2 * 2  # two sweep values x two frequencies


class TestOutDir:
    """A rejected run, figure or verify leaves no output behind."""

    @pytest.fixture
    def ran(self, monkeypatch):
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        return ran

    def test_efn_threads_below_one(self, tmp_path, capsys, ran):
        out = tmp_path / "d"
        assert main(["figure", "3", "--out", str(out), "--threads", "0"]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize(
        "command", [["figure", "4c"], ["run", "--config", "cfg.json"], ["verify", "all"]], ids=["figure", "run", "verify"]
    )
    def test_threads_above_the_usable_cores(self, tmp_path, capsys, monkeypatch, ran, no_pool, command):
        # rejected before any process forks: a pool of --threads processes would start on the first block
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "cfg.json")
        before = sorted(tmp_path.rglob("*"))
        assert main([*command, "--threads", str(CORES + 1)]) == 2
        captured = capsys.readouterr()
        assert f"--threads must be <= {CORES}, the usable cores, got {CORES + 1}" in captured.err
        assert captured.out == ""
        assert ran == [] and sorted(tmp_path.rglob("*")) == before

    def test_excluded_bin(self, tmp_path, capsys, ran):
        cfg = write_config(tmp_path / "cfg.json", frequencies=[1, 0])  # the DC bin is zeroed
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bin 0 excluded" in capsys.readouterr().err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("command", [["figure", "3"], ["run", "--config", "cfg.json"]], ids=["figure", "run"])
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_that_is_a_file(self, tmp_path, capsys, monkeypatch, ran, command, out):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "cfg.json")
        (tmp_path / "taken").write_text("kept")
        before = sorted(tmp_path.rglob("*"))
        assert main([*command, "--out", out]) == 2
        assert "--out: taken exists and is not a directory" in capsys.readouterr().err
        assert ran == [] and sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept"


class TestFigure:
    def test_unknown_figure_is_usage_error(self, tmp_path, capsys):
        assert main(["figure", "9z", "--out", str(tmp_path)]) == 2

    def test_figure3_schema(self, tmp_path):
        out = tmp_path / "f3"
        assert main(["figure", "3", "--out", str(out), "--trials", "2"]) == 0
        lines = (out / "figure3.csv").read_text().splitlines()
        assert lines[0] == "beta,pearson,stderr"
        assert len(lines) == 4  # header + three beta values
        assert (out / "manifest.json").exists()

    def test_figure3_pad_schema(self, tmp_path):
        out = tmp_path / "f3"
        assert main(["figure", "3", "--pad", "--out", str(out), "--trials", "2"]) == 0
        lines = (out / "figure3.csv").read_text().splitlines()
        assert lines[0] == "pad-ratio,pearson,stderr"
        assert len(lines) == 4  # header + three pad ratios

    @pytest.mark.parametrize("figure", ["2b", "2c", "3", "4b", "4c"])
    def test_zero_trials_is_usage_error(self, tmp_path, capsys, monkeypatch, figure):
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        out = tmp_path / "f"
        assert main(["figure", figure, "--out", str(out), "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert ran == []
        assert not (out / f"figure{figure}.csv").exists()

    @pytest.mark.parametrize("figure", ["2b", "2c", "4b", "4c"])
    def test_pad_outside_figure3_is_usage_error(self, tmp_path, capsys, monkeypatch, figure):
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        out = tmp_path / "f"
        assert main(["figure", figure, "--pad", "--out", str(out), "--trials", "2"]) == 2
        assert "--pad applies to figure 3 only" in capsys.readouterr().err
        assert ran == []
        assert not (out / f"figure{figure}.csv").exists()

    def test_figure2c_schema(self, tmp_path):
        out = tmp_path / "f2c"
        workers = min(2, CORES)
        assert main(["figure", "2c", "--out", str(out), "--trials", "2", "--threads", str(workers)]) == 0
        lines = (out / "figure2c.csv").read_text().splitlines()
        assert lines[0] == "M,k,mse,stderr,thm2_prediction,thm1_prediction,thm1_prediction_stderr"
        assert len(lines) == 1 + 4 * 10  # four M values x ten frequencies
        manifest = json.loads((out / "manifest.json").read_text())
        # one walk per trial to the largest M, one C_k profile for the sweep
        assert manifest["counters"] == {"trials": 2, "observations": 2 * 5000, "ck_draws": 4000}
        assert manifest["environment"]["workers"] == workers

    def test_figure4c_schema(self, tmp_path):
        # the 1023-bin C_k profile the figure runs gives the fixed-d prediction beside the thm2 rate
        out = tmp_path / "f4c"
        assert main(["figure", "4c", "--out", str(out), "--trials", "2", "--threads", "1"]) == 0
        with (out / "figure4c.csv").open() as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [
            "k", "template_magnitude", "mse", "stderr", "thm2_prediction", "mse_ratio_thm2",
            "thm1_prediction", "thm1_prediction_stderr",
        ]
        assert [int(r[0]) for r in rows] == list(range(1, 1024))
        thm1, thm1_se = (np.array([float(r[i]) for r in rows]) for i in (6, 7))
        assert np.all(thm1 > 0) and np.all((thm1_se > 0) & (thm1_se < thm1))

    @pytest.mark.parametrize(
        "figure, column, run_column",
        [
            ("2c", "mse", lambda out: [float(row["phase_mse"]) for row in csv_rows(out / "stats.csv")]),
            ("3", "pearson", lambda out: [s["mean_pearson"] for s in json.loads((out / "summary.json").read_text())]),
        ],
    )
    def test_figure_is_a_run_of_its_manifest_config(self, tmp_path, figure, column, run_column):
        # a figure runs its built-in config document, so efn run on its manifest's config gives its numbers
        fig, run = tmp_path / "fig", tmp_path / "run"
        assert main(["figure", figure, "--out", str(fig), "--trials", "2"]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads((fig / "manifest.json").read_text())["config"]))
        assert main(["run", "--config", str(config), "--out", str(run)]) == 0
        want = [float(row[column]) for row in csv_rows(fig / f"figure{figure}.csv")]
        assert run_column(run) == want and len(want) == (40 if figure == "2c" else 3)


def bench_flat_config(monkeypatch) -> dict:
    """The config the benchmark's flat_hd workload writes, from ``bench/run.py``."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)
    spec.loader.exec_module(module)
    return module.flat_config()


class TestConfigRoundTrip:
    """Every config the CLI builds survives to_dict -> JSON -> from_dict unchanged."""

    @staticmethod
    def assert_round_trips(config):
        assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @pytest.mark.parametrize(
        "figure, pad", [("2b", False), ("2c", False), ("3", False), ("3", True), ("4b", False), ("4c", False)]
    )
    def test_figure_configs(self, figure, pad):
        args = argparse.Namespace(trials=None, seed=None, pad=pad)
        self.assert_round_trips(cli._figure_config(figure, args))

    def test_flat_hd_config(self, monkeypatch):
        self.assert_round_trips(ExperimentConfig.from_dict(bench_flat_config(monkeypatch)))


class TestVerify:
    def test_alignment_suite_passes(self, tmp_path, capsys):
        assert main(["verify", "alignment", "--cases", "40"]) == 0
        out = capsys.readouterr().out
        assert "argmax agreement" in out and "FAIL" not in out

    def test_runs_where_the_platform_reports_no_affinity(self, capsys, monkeypatch):
        # os.sched_getaffinity is Linux-only; elsewhere the usable cores are the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert alignment.usable_cores() == (os.cpu_count() or 1)
        assert main(["verify", "alignment", "--cases", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_help_names_every_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "extra", lambda **kwargs: [])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert " | ".join([*verify.SUITES, "all"]) in " ".join(capsys.readouterr().out.split())

    def test_help_gives_each_suite_default_minimum_and_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        seed_help = text.rsplit("--seed SEED", 1)[1]
        for suite, (key, least, count, seed) in verify.COUNTS.items():
            flag_help = text.rsplit(f"--{key} {key.upper()}", 1)[1].split(" --", 1)[0]
            assert f"{suite} {count} (>= {least})" in flag_help
            assert f"{suite} {seed}" in seed_help

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "bogus"]) == 2

    @pytest.mark.parametrize("suite", ["lemma1", "all"])
    def test_too_few_lemma1_draws_is_usage_error(self, capsys, suite):
        assert main(["verify", suite, "--draws", "1000"]) == 2
        captured = capsys.readouterr()
        assert "100000" in captured.err
        assert captured.out == ""  # rejected before any suite ran

    @pytest.mark.parametrize(
        "argv, needs",
        [
            (["alignment", "--cases", "0"], "alignment --cases must be >= 1, got 0"),
            (["alignment", "--cases", "-3"], "alignment --cases must be >= 1, got -3"),
            (["all", "--cases", "0"], "alignment --cases must be >= 1, got 0"),
            (["gumbel", "--replicates", "50"], "gumbel --replicates must be >= 100, got 50"),
            (["gumbel", "--replicates", "0"], "gumbel --replicates must be >= 100, got 0"),
            (["prop3", "--draws", "0"], "prop3 --draws must be >= 1, got 0"),
            (["prop3", "--draws", "-5"], "prop3 --draws must be >= 1, got -5"),
            (["symmetry", "--draws", "1"], "symmetry --draws must be >= 2, got 1"),
            (["gumbel", "--draws", "5"], "gumbel takes no --draws"),
            (["alignment", "--seed", "-1", "--cases", "2"], "alignment --seed must be >= 0, got -1"),
            (["gumbel", "--seed", "-3"], "gumbel --seed must be >= 0, got -3"),
        ],
        # each case's id is its flag and bound, stable as the message wording changes
        ids=[f"argv{i}-{bound}" for i, bound in enumerate([
            *["--cases >= 1"] * 3, *["--replicates >= 100"] * 2, *["--draws >= 1"] * 2, "--draws >= 2",
            "gumbel takes no --draws", "alignment needs --seed >= 0", "gumbel needs --seed >= 0",
        ])],
    )
    def test_count_below_suite_minimum_is_usage_error(self, capsys, argv, needs):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert needs in captured.err
        assert captured.out == ""  # rejected before any suite ran

    def test_non_finite_measurement_is_no_pass(self, capsys, monkeypatch):
        # one draw gives zero stderrs, so every symmetry z is infinite; the
        # suite's floor of 2 draws is lowered to reach those rows
        monkeypatch.setitem(verify.COUNTS, "symmetry", ("draws", 1, *verify.COUNTS["symmetry"][2:]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "symmetry", "--draws", "1"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] mu_B positive" in captured.out and "[PASS]" not in captured.out
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.fixture
    def recorders(self, monkeypatch):
        """Every suite is a ``**kwargs`` stand-in, with no count or seed default; returns what each was passed."""
        calls = {}

        def recorder(suite):
            def run(**kwargs):
                calls[suite] = kwargs
                return []
            return run

        for suite in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, suite, recorder(suite))
        return calls

    def test_each_suite_takes_its_count_and_seed(self, recorders):
        calls = recorders
        # one worker: the recorders run in this process, the one-stream ones as jobs read back
        assert verify.run_suite("all", 1, cases=1, draws=100_000, replicates=100, seed=7) == []
        pool = calls["symmetry"].pop("workers")
        assert isinstance(pool, alignment.Pool) and pool.size == 1
        assert calls["prop3"].pop("workers") is pool and calls["lemma1"].pop("workers") is pool
        assert calls == {
            "alignment": {"cases": 1, "seed": 7},
            "symmetry": {"draws": 100_000, "seed": 7},
            "gumbel": {"replicates": 100, "seed": 7},
            "prop3": {"draws": 100_000, "seed": 7},
            "lemma1": {"draws": 100_000, "seed": 7},
        }

    def test_each_suite_defaults_to_its_table_count_and_seed(self, recorders, monkeypatch):
        counts = []  # the block count of each pool made: its largest loop's

        class CountedPool(alignment.Pool):
            def __init__(self, workers, count):
                counts.append(count)
                super().__init__(workers, count)

        monkeypatch.setattr(verify, "Pool", CountedPool)
        assert verify.run_suite("all", 1) == []
        for suite in verify.POOLED:
            recorders[suite].pop("workers")
        assert recorders == {
            "alignment": {"cases": 1000, "seed": 12345},
            "symmetry": {"draws": 100_000, "seed": 202},
            "gumbel": {"replicates": 10_000, "seed": 0},
            "prop3": {"draws": 100_000, "seed": 31},
            "lemma1": {"draws": 200_000, "seed": 100},
        }
        assert counts == [len(alignment.blocks(200_000, 0))]  # lemma1's blocks

    def test_misspelt_override_under_all_is_rejected_before_any_suite_runs(self, recorders):
        with pytest.raises(InvalidArgumentError, match="all takes no --dras"):
            verify.run_suite("all", 1, dras=5)
        assert recorders == {}

    def test_verify_all_is_the_same_on_any_worker_count(self, capsys, few_lemma1_draws):
        # lemma1's floor is lowered so that each pooled suite runs four blocks, not 25 to 49
        draws = str(3 * alignment.BLOCK + 5)
        runs = []
        for threads in ("1", str(CORES)):
            argv = ["verify", "all", "--threads", threads, "--draws", draws, "--cases", "20", "--replicates", "100"]
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        assert runs[0][1].count("\n") == 33
        assert runs[0] == runs[1]

    SMALL_ALL = ["verify", "all", "--threads", "2", "--draws", str(3 * alignment.BLOCK + 5),
                 "--cases", "20", "--replicates", "100"]

    @pytest.fixture
    def small_all(self, monkeypatch, few_lemma1_draws):
        """SMALL_ALL runs on two workers: lemma1's floor is lowered and two cores are usable."""
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)

    def test_verify_all_forks_its_pool_once_with_no_other_thread(self, capsys, monkeypatch, small_all):
        # a fork while another thread holds a lock can deadlock the child
        # (Python 3.12 warns of it): every worker forks before the pool starts a thread
        fork, threads = os.fork, []

        def recorded_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", recorded_fork)
        main(self.SMALL_ALL)
        assert "runtime failure" not in capsys.readouterr().err
        assert threads == [1, 1]

    @pytest.mark.parametrize("job", [True, False], ids=["gumbel-job", "argmax-block"])
    def test_failing_job_or_block_leaves_no_worker(self, capsys, monkeypatch, small_all, job):
        # the held gumbel job, or a prop3 block, raises in a worker
        if job:
            monkeypatch.setitem(verify.SUITES, "gumbel", _fail_in_worker)
        else:
            monkeypatch.setattr(verify, "_argmax_counts", _fail_in_worker)
        assert main(self.SMALL_ALL) == 1
        failed_in = re.search(r"runtime failure: a block failed in worker (\d+)", capsys.readouterr().err)
        assert int(failed_in.group(1)) != os.getpid()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, capsys, threads):
        assert main(["verify", "alignment", "--cases", "2", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert "--threads must be >= 1" in captured.err and captured.out == ""

    def test_lemma1_suite_quick(self, capsys):
        assert main(["verify", "lemma1", "--draws", "100000"]) == 0


_PLAW = generate_template(SignalFamilySpec(family="power-law-psd", d=16, beta=1.0, phase_seed=1))
_DELTA = generate_template(SignalFamilySpec(family="delta", d=8))

#: Each count, seed or worker number of a Python entry point or of ``efn
#: verify``: (entry point, its call with that value, the field its error
#: names, its floor).
_COUNTED = [
    ("run_suite", lambda v: verify.run_suite("alignment", 1, cases=v), "alignment --cases", 1),
    ("run_suite seed", lambda v: verify.run_suite("alignment", 1, cases=2, seed=v), "alignment --seed", 0),
    ("alignment_suite", lambda v: verify.alignment_suite(v, 0), "alignment --cases", 1),
    ("symmetry_suite", lambda v: verify.symmetry_suite(v, 0, workers=1), "symmetry --draws", 2),
    ("gumbel_suite", lambda v: verify.gumbel_suite(v, 0, d=64), "gumbel --replicates", 100),
    ("prop3_case", lambda v: verify.prop3_case(64, v, 0, 1), "prop3 --draws", 1),
    ("lemma1_check", lambda v: verify.lemma1_check(_DELTA, 1, 0.0, v, 0, 1), "lemma1 --draws", 100_000),
    ("alignment_moments", lambda v: theory.alignment_moments(_PLAW, v, 0, ks=[1], workers=1), "trials", 1),
    ("estimate_ck_profile", lambda v: theory.estimate_ck_profile(_PLAW, v, 0, ks=[1], workers=1), "trials", 1000),
    ("predict_phase_mse", lambda v: theory.predict_phase_mse(_PLAW, [1], v), "M", 1),
    ("pool_size", lambda v: alignment.pool_size(v, 4), "workers", 1),
    ("_threads", lambda v: cli._threads(argparse.Namespace(threads=v)), "--threads", 1),
    ("build_conditional_gaussian k", lambda v: theory.build_conditional_gaussian(_PLAW, v), "frequencies", 0),
    ("lemma1_check k", lambda v: verify.lemma1_check(_DELTA, v, 0.0, 100_000, 0, 1), "frequencies", 0),
    ("gumbel_constants", theory.gumbel_constants, "d", 3),
    ("gumbel_suite d", lambda v: verify.gumbel_suite(100, 0, d=v), "d", 3),
    ("alignment_suite seed", lambda v: verify.alignment_suite(1, v), "alignment --seed", 0),
    ("symmetry_suite seed", lambda v: verify.symmetry_suite(2, v, workers=1), "symmetry --seed", 0),
    ("gumbel_suite seed", lambda v: verify.gumbel_suite(100, v, d=64), "gumbel --seed", 0),
    ("prop3_case seed", lambda v: verify.prop3_case(64, 1, v, 1), "prop3 --seed", 0),
    ("lemma1_check seed", lambda v: verify.lemma1_check(_DELTA, 1, 0.0, 100_000, v, 1), "lemma1 --seed", 0),
]


class TestCountRule:
    """Every count, seed, worker number, bin and ``d`` is checked by ``errors.integral``:
    a whole number at its floor, a whole float as its int."""

    @pytest.mark.parametrize(
        "run, field, value, message",
        [
            pytest.param(run, field, value, f"{field} must be an integer, got {value!r}", id=f"{name}={value!r}")
            for name, run, field, _ in _COUNTED
            for value in (True, 2.5, "3")
        ] + [
            # below its floor, pool_size and _threads keep the text that test_workers_below_one_rejected
            # and test_threads_below_one_is_usage_error check, and a bin is out of range (test_signals)
            pytest.param(
                run, field, least - 1, f"{field} must be >= {least}, got {least - 1}", id=f"{name}={least - 1}"
            )
            for name, run, field, least in _COUNTED
            if name not in ("pool_size", "_threads") and field != "frequencies"
        ],
    )
    def test_a_count_that_is_no_whole_number_at_its_floor_is_rejected(self, no_pool, run, field, value, message):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            run(value)

    @pytest.mark.parametrize(
        "run, count",
        [
            (lambda n: verify.run_suite("alignment", 1, cases=n, seed=n), 20),
            (lambda n: verify.run_suite("gumbel", 1, replicates=n), 100),
            (lambda n: verify.prop3_case(64, n, 0, 1), 1000),
            (lambda n: verify.lemma1_check(_DELTA, 1, 0.0, n, 0, 1), 100_000),
            (lambda n: theory.estimate_ck_profile(_PLAW, n, 0, ks=[1, 5], workers=1), 1000),
            (lambda n: theory.predict_phase_mse(_PLAW, [1, 5], n), 7),
            (lambda n: alignment.pool_size(n, 4), 2),
            (lambda n: theory.build_conditional_gaussian(_PLAW, n), 3),
            (lambda n: verify.alignment_suite(20, n), 3),
            (lambda n: verify.prop3_case(64, 1000, n, 1), 3),
        ],
        ids=["run_suite", "gumbel n=", "prop3_case", "lemma1_check", "estimate_ck_profile", "predict_phase_mse",
             "pool_size", "build_conditional_gaussian k", "alignment_suite seed", "prop3_case seed"],
    )
    def test_a_whole_float_count_runs_as_its_int(self, no_pool, run, count):
        # pickled, so the results are equal down to the int in a row name or field
        assert pickle.dumps(run(float(count))) == pickle.dumps(run(count))


class TestGenTemplate:
    SPECS = [
        SignalFamilySpec(family="power-law-psd", d=32, beta=1.0),
        SignalFamilySpec(family="zero-padded-pulse", d=64, pad_ratio=2.0, zero_dc=False),
        SignalFamilySpec(family="delta", d=16),
    ]

    @staticmethod
    def generate(spec, out):
        argv = ["gen-template", "--family", spec.family, "--d", str(spec.d), "--beta", str(spec.beta),
                "--pad-ratio", str(spec.pad_ratio), "--out", str(out)]
        assert main(argv + ([] if spec.zero_dc else ["--keep-dc"])) == 0
        return generate_template(spec)

    def test_json_output(self, tmp_path):
        # the record holds the template's own samples and spectrum, bit for bit
        for spec in self.SPECS:
            out = tmp_path / "t.json"
            template = self.generate(spec, out)
            rec = json.loads(out.read_text())
            assert rec["d"] == spec.d and len(rec["samples"]) == spec.d
            np.testing.assert_array_equal(rec["samples"], template.samples)
            np.testing.assert_array_equal(rec["magnitudes"], template.magnitudes)
            np.testing.assert_array_equal(rec["phases"], template.phases)

    def test_csv_output(self, tmp_path):
        for spec in self.SPECS:
            out = tmp_path / "t.csv"
            template = self.generate(spec, out)
            lines = out.read_text().splitlines()
            assert lines[0] == "sample"
            np.testing.assert_array_equal([float(v) for v in lines[1:]], template.samples)

    def test_suffix_is_case_blind(self, tmp_path):
        out = tmp_path / "t.CSV"
        template = self.generate(self.SPECS[0], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "sample"
        np.testing.assert_array_equal([float(v) for v in lines[1:]], template.samples)

    def test_other_suffix_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen-template", "--d", "16", "--out", str(out)]) == 2
        assert "--out must end in .json or .csv" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "adir.json"
        out.mkdir()
        assert main(["gen-template", "--d", "16", "--out", str(out)]) == 2
        assert f"--out: {out} is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_out_under_a_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("kept")
        assert main(["gen-template", "--d", "16", "--out", "taken/sub/t.json"]) == 2
        assert "--out: taken exists and is not a directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "taken"] and Path("taken").read_text() == "kept"

    def test_missing_parent_is_made(self, tmp_path):
        out = tmp_path / "nodir" / "sub" / "t.json"
        template = self.generate(self.SPECS[0], out)
        np.testing.assert_array_equal(json.loads(out.read_text())["samples"], template.samples)

    def test_bad_family_is_usage_error(self, tmp_path, capsys):
        assert main(["gen-template", "--d", "16", "--family", "x", "--out", str(tmp_path / "t.json")]) == 2

    def test_vanishing_spectrum_is_usage_error(self, tmp_path, capsys):
        # beta = 1e308 underflows every bin but DC to 0, and DC is zeroed: no
        # division by the zero norm, so no RuntimeWarning, which would fail here
        out = tmp_path / "t.json"
        assert main(["gen-template", "--d", "8", "--beta", "1e308", "--out", str(out)]) == 2
        assert "cannot normalize a zero or non-finite signal" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_pad_ratio_is_the_centre_sample(self, tmp_path):
        # offsets over a width near the smallest double must not overflow;
        # already at 1e3 only the centre sample is above exp(-800)
        outs = []
        for ratio in ("1e3", "1e300", "1e308", "1.79e308"):
            outs.append(tmp_path / f"t{ratio}.json")
            argv = ["gen-template", "--family", "zero-padded-pulse", "--d", "8", "--pad-ratio", ratio]
            assert main(argv + ["--out", str(outs[-1])]) == 0
        assert len({p.read_bytes() for p in outs}) == 1


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        import efnlab

        assert efnlab.__version__ in capsys.readouterr().out
