"""Command-line front end: exit codes, output files, reproducibility."""

import argparse
import csv
import importlib.util
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from efnlab import cli, experiment, verify
from efnlab.cli import main
from efnlab.experiment import ExperimentConfig
from efnlab.signals import SignalFamilySpec, generate_template

BENCH = Path(__file__).resolve().parent.parent / "bench"


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

    def test_manifest_config_reproduces_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        first = tmp_path / "first"
        assert main(["run", "--config", str(cfg), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second"
        assert main(["run", "--config", str(cfg2), "--out", str(second)]) == 0
        assert (first / "stats.csv").read_bytes() == (second / "stats.csv").read_bytes()

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

    def test_efn_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "serial", tmp_path / "pooled"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        monkeypatch.setenv("EFN_THREADS", "2")
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()

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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_efn_threads_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        monkeypatch.setenv("EFN_THREADS", threads)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "EFN_THREADS" in capsys.readouterr().err
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
            ({"template": {"family": "explicit-samples", "d": 8, "samples": [0.0] * 8}},
             "cannot normalize a zero or non-finite signal"),
        ],
        ids=["samples-length", "zero-dc", "phase-seed-fraction", "phase-seed-negative",
             "sweep-extra-key", "beta-sweep-on-delta", "pad-sweep-on-psd", "d-sweep-of-samples",
             "all-zero-samples"],
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
        cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "workers": int(threads),
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
    """A rejected run or figure leaves no output directory behind."""

    @pytest.fixture
    def ran(self, monkeypatch):
        ran = []
        monkeypatch.setattr(experiment, "run_trial", lambda config, t: ran.append(t))
        monkeypatch.delenv("EFN_THREADS", raising=False)
        return ran

    def test_efn_threads_below_one(self, tmp_path, capsys, monkeypatch, ran):
        monkeypatch.setenv("EFN_THREADS", "0")
        out = tmp_path / "d"
        assert main(["figure", "3", "--out", str(out)]) == 2
        assert "EFN_THREADS must be >= 1" in capsys.readouterr().err
        assert ran == [] and not out.exists()

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
        monkeypatch.delenv("EFN_THREADS", raising=False)
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
        assert main(["figure", "2c", "--out", str(out), "--trials", "2", "--threads", "2"]) == 0
        lines = (out / "figure2c.csv").read_text().splitlines()
        assert lines[0] == "M,k,mse,stderr,thm2_prediction,thm1_prediction,thm1_prediction_stderr"
        assert len(lines) == 1 + 4 * 10  # four M values x ten frequencies
        manifest = json.loads((out / "manifest.json").read_text())
        # one walk per trial to the largest M, one C_k profile for the sweep
        assert manifest["counters"] == {"trials": 2, "observations": 2 * 5000, "ck_draws": 4000}
        assert manifest["environment"]["workers"] == 2


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

    def test_help_names_every_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "extra", lambda **kwargs: [])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert " | ".join([*verify.SUITES, "all"]) in " ".join(capsys.readouterr().out.split())

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
            (["alignment", "--cases", "0"], "--cases >= 1"),
            (["alignment", "--cases", "-3"], "--cases >= 1"),
            (["all", "--cases", "0"], "--cases >= 1"),
            (["gumbel", "--replicates", "50"], "--replicates >= 100"),
            (["gumbel", "--replicates", "0"], "--replicates >= 100"),
            (["prop3", "--draws", "0"], "--draws >= 1"),
            (["prop3", "--draws", "-5"], "--draws >= 1"),
            (["symmetry", "--draws", "1"], "--draws >= 2"),
            (["gumbel", "--draws", "5"], "gumbel takes no --draws"),
            (["alignment", "--seed", "-1", "--cases", "2"], "alignment needs --seed >= 0"),
            (["gumbel", "--seed", "-3"], "gumbel needs --seed >= 0"),
        ],
    )
    def test_count_below_suite_minimum_is_usage_error(self, capsys, argv, needs):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert needs in captured.err
        assert captured.out == ""  # rejected before any suite ran

    def test_non_finite_measurement_is_no_pass(self, capsys, monkeypatch):
        # one draw gives zero stderrs, so every symmetry z is infinite; the
        # suite's floor of 2 draws is lowered to reach those rows
        monkeypatch.setitem(verify.MIN_COUNTS["symmetry"], "draws", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "symmetry", "--draws", "1"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] mu_B positive" in captured.out and "[PASS]" not in captured.out
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_each_suite_takes_its_count_and_seed(self, monkeypatch):
        calls = {}

        def recorder(suite):
            def run(**kwargs):
                calls[suite] = kwargs
                return []
            return run

        for suite in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, suite, recorder(suite))
        assert verify.run_suite("all", cases=1, draws=100_000, replicates=100, seed=7) == []
        assert calls == {
            "alignment": {"cases": 1, "seed": 7},
            "symmetry": {"draws": 100_000, "seed": 7},
            "gumbel": {"replicates": 100, "seed": 7},
            "prop3": {"draws": 100_000, "seed": 7},
            "lemma1": {"draws": 100_000, "seed": 7},
        }

    def test_lemma1_suite_quick(self, capsys):
        assert main(["verify", "lemma1", "--draws", "100000"]) == 0


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

    def test_bad_family_is_usage_error(self, tmp_path, capsys):
        assert main(["gen-template", "--d", "16", "--family", "x", "--out", str(tmp_path / "t.json")]) == 2

    def test_vanishing_spectrum_is_usage_error(self, tmp_path, capsys):
        # beta = 1e308 underflows every bin but DC to 0, and DC is zeroed: no
        # division by the zero norm, so no RuntimeWarning, which would fail here
        out = tmp_path / "t.json"
        assert main(["gen-template", "--d", "8", "--beta", "1e308", "--out", str(out)]) == 2
        assert "cannot normalize a zero or non-finite signal" in capsys.readouterr().err
        assert not out.exists()


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        import efnlab

        assert efnlab.__version__ in capsys.readouterr().out
