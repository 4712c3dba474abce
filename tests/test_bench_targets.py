"""The benchmark's trace wraps package functions by name; those names must exist.

``bench/spans.py`` replaces each ``(module, attribute)`` in its ``TARGETS``
with a span-recording wrapper and reads a missing one as zero, so a rename
in the package would silently zero a per-layer metric.  This test turns
such a rename into a failure.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from efnlab import verify
from efnlab.cli import main
from efnlab.estimator import EfnEstimate

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS]
)
def test_target_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize(
    "module_name, attr, counter",
    [(t[0], t[1], t[3]) for t in TARGETS if t[3] is not None],
    ids=[f"{t[0]}.{t[1]}" for t in TARGETS if t[3] is not None],
)
def test_work_counter_binds_required_parameters(module_name, attr, counter):
    # the wrapper passes the target's own arguments to its work counter, so a
    # required parameter the counter cannot take breaks only the traced run
    params = inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters
    required = [
        p for p in params.values()
        if p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]
    positional = [p.name for p in required if p.kind is not p.KEYWORD_ONLY]
    keywords = {p.name: p.name for p in required if p.kind is p.KEYWORD_ONLY}
    counted = inspect.signature(counter)
    counted.bind(*positional, **keywords)
    counted.bind(**{p.name: p.name for p in required if p.kind is not p.POSITIONAL_ONLY})


def test_from_samples_is_a_classmethod():
    assert isinstance(vars(EfnEstimate).get("from_samples"), classmethod)


def test_verify_suites_exist():
    assert {"alignment", "symmetry", "gumbel", "prop3", "lemma1"} <= set(verify.SUITES)


def test_verify_suites_and_counts_name_the_same_suites():
    # the trace wraps SUITES entries, and run_suite passes each its count and seed from COUNTS
    assert list(verify.SUITES) == list(verify.COUNTS)


def _install_spans(monkeypatch):
    """The spans module and a recorder whose wrappers it installed, with no target missing."""
    spans = _load_spans()
    for module_name, attr, *_ in spans.TARGETS:  # so later tests see the originals
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(EfnEstimate, "from_samples", vars(EfnEstimate)["from_samples"])
    for suite in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, suite, verify.SUITES[suite])
    recorder = spans.Recorder()
    assert spans.install(recorder) == []
    return spans, recorder


@pytest.mark.parametrize("sweep", [None, {"axis": "M", "values": [10, 20]}], ids=["plain", "m-sweep"])
def test_traced_run_calls_the_wrapped_names(tmp_path, monkeypatch, sweep):
    # the names must be called, not only present: a call that moves past a
    # wrapped name would read as zero in the per-layer metrics
    spans, recorder = _install_spans(monkeypatch)

    config = {
        "template": {"family": "power-law-psd", "d": 64, "beta": 1.0, "phase_seed": 1},
        "M": 20, "trials": 3, "master_seed": 1, "frequencies": [1, 5], "ck_trials": 1000, "sweep": sweep,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--threads", "1"]) == 0

    names = [span[0] for span in recorder.spans]
    assert names.count("experiment.run_trial") == 3
    metrics = spans.layer_metrics(recorder.spans, 3 * 20)
    assert metrics["theory.alignment_moments.draws"][0] == 1000
    timed = [span for span in recorder.spans if span[0] == "experiment.run_experiment"]
    assert [span[3] for span in timed] == ([] if sweep else [-1])  # the cli's own call, at top level


def test_traced_verify_counts_sampler_rows(monkeypatch):
    # every prop3 row goes through the wrapped sampler with an argument its
    # draw counter binds; a block of n argmax samples draws (n + 1) // 2 rows
    spans, recorder = _install_spans(monkeypatch)
    assert main(["verify", "prop3", "--draws", "5001", "--threads", "1"]) == 0
    metrics = spans.layer_metrics(recorder.spans, 0)
    assert metrics["theory.sample_cyclostationary.draws"][0] == 2 * 2501  # two cases, 2048 + 453 rows each
