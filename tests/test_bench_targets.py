"""The benchmark's trace wraps package functions by name; those names must exist.

``bench/spans.py`` replaces each ``(module, attribute)`` in its ``TARGETS``
with a span-recording wrapper and reads a missing one as zero, so a rename
in the package would silently zero a per-layer metric.  This test turns
such a rename into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from efnlab import verify
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


def test_from_samples_is_a_classmethod():
    assert isinstance(vars(EfnEstimate).get("from_samples"), classmethod)


def test_verify_suites_exist():
    assert {"alignment", "symmetry", "gumbel", "prop3", "lemma1"} <= set(verify.SUITES)
