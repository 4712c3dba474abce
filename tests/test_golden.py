"""Golden outputs: the files and tables efnlab writes, pinned byte for byte.

:func:`produce` runs a fixed list of small commands through
``efnlab.cli.main`` in this process and returns what each one wrote: the
``stats.csv`` and ``summary.json`` of ``efn run`` (an ``M`` sweep at
``sigma`` 1 and 2, and a ``d`` sweep), the CSV of every figure (2b, 2c, 3,
3 ``--pad``, 4b and 4c) at 2 trials, and the stdout of five small
``efn verify`` runs.  Each run's manifest is pinned by the fields that do
not change between runs or machines: ``command``, ``config``, ``counters``,
``environment.workers`` and the output file names (not their paths), as
``<name>_manifest.json``.  The test compares them with the files under
``tests/golden/``.

The files were made under the numpy version in
``tests/golden/numpy_version.txt``.  Under that version the comparison is
byte for byte.  Under another numpy, whose FFT or ``pow`` may round
differently, each number is compared at ``rtol=1e-12`` and the text between
numbers exactly.

A change that moves output bits on purpose regenerates the files in the
same commit, through the same :func:`produce` the test calls::

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which values moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from efnlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMPY_VERSION = GOLDEN / "numpy_version.txt"

_M_SWEEP = {
    "template": {"family": "power-law-psd", "d": 256, "beta": 1.0, "phase_seed": 1},
    "trials": 4,
    "master_seed": 5,
    "frequencies": [1, 5, 64, 127, 128, 200],
    "sweep": {"axis": "M", "values": [50, 200]},
}
_D_SWEEP = {
    "template": {"family": "power-law-psd", "d": 32, "beta": 1.0, "phase_seed": 2},
    "M": 100,
    "trials": 3,
    "master_seed": 6,
    "frequencies": [1, 3],
    "ck_trials": 1000,
    "sweep": {"axis": "d", "values": [32, 64, 128]},
}
#: name -> (config written for ``efn run``, or None) and the rest of the argv
_RUNS = {
    "run_msweep_sigma1": (_M_SWEEP, []),
    "run_msweep_sigma2": ({**_M_SWEEP, "sigma": 2.0}, []),
    "run_dsweep": (_D_SWEEP, []),
    "figure2b": (None, ["figure", "2b", "--trials", "2", "--seed", "3"]),
    "figure2c": (None, ["figure", "2c", "--trials", "2", "--seed", "3"]),
    "figure3": (None, ["figure", "3", "--trials", "2", "--seed", "3"]),
    "figure3_pad": (None, ["figure", "3", "--pad", "--trials", "2", "--seed", "3"]),
    "figure4b": (None, ["figure", "4b", "--trials", "2", "--seed", "3"]),
    "figure4c": (None, ["figure", "4c", "--trials", "2", "--seed", "3"]),
}
_VERIFY = {
    "alignment": ["--cases", "20"],
    "symmetry": ["--draws", "2000"],
    "gumbel": ["--replicates", "100"],
    "prop3": ["--draws", "2000"],
    "lemma1": [],
}
NAMES = sorted(
    [f"{name}_{f}" for name, (config, _) in _RUNS.items() if config for f in ("stats.csv", "summary.json")]
    + [f"{name}.csv" for name, (config, _) in _RUNS.items() if not config]
    + [f"{name}_manifest.json" for name in _RUNS]
    + [f"verify_{suite}.txt" for suite in _VERIFY]
)


def _main(*argv) -> tuple[int, bytes]:
    """``efn argv``'s exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, out.getvalue().encode()


def _stable_manifest(manifest: dict) -> bytes:
    """The manifest fields that do not change between runs or machines, as JSON."""
    stable = {
        "command": manifest["command"],
        "config": manifest["config"],
        "counters": manifest["counters"],
        "environment": {"workers": manifest["environment"]["workers"]},
        "outputs": [Path(p).name for p in manifest["outputs"]],
    }
    return (json.dumps(stable, indent=2) + "\n").encode()


def produce(work: Path) -> dict[str, bytes]:
    """Every golden output, keyed by its file name, made in the scratch directory ``work``."""
    made = {}
    for name, (config, argv) in _RUNS.items():
        out = work / name
        if config:
            path = work / f"{name}.json"
            path.write_text(json.dumps(config))
            argv = ["run", "--config", str(path)]
        assert _main(*argv, "--out", str(out), "--threads", "1")[0] == 0, name
        for f in out.iterdir():
            if f.name != "manifest.json":
                made[f"{name}_{f.name}" if config else f"{name}.csv"] = f.read_bytes()
        made[f"{name}_manifest.json"] = _stable_manifest(json.loads((out / "manifest.json").read_text()))
    for suite, argv in _VERIFY.items():
        made[f"verify_{suite}.txt"] = _main("verify", suite, *argv)[1]  # gumbel fails at 100 replicates
    return made


_NUMBER = re.compile(rb"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)")


def _numbers_match(got: bytes, want: bytes) -> bool:
    """Equal text between the numbers, and numbers equal at rtol=1e-12 (NaN matching NaN)."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    a, b = (np.asarray([float(v) for v in _NUMBER.findall(s)]) for s in (got, want))
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True)


def test_numeric_policy_tolerates_only_rounding():
    want = b"k,mse\n1,0.25,nan\n2,-1.5e-07,inf\n"
    assert _numbers_match(b"k,mse\n1,0.25000000000000006,nan\n2,-1.5000000000000002e-07,inf\n", want)
    assert not _numbers_match(b"k,mse\n1,0.2500000001,nan\n2,-1.5e-07,inf\n", want)
    assert not _numbers_match(b"k,MSE\n1,0.25,nan\n2,-1.5e-07,inf\n", want)
    assert not _numbers_match(b"k,mse\n1,0.25,nan\n2,-1.5e-07,inf\n3\n", want)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_names_are_the_files(produced):
    assert sorted(produced) == NAMES == sorted(p.name for p in GOLDEN.iterdir() if p != NUMPY_VERSION)


@pytest.mark.parametrize("name", NAMES)
def test_golden_output(produced, name):
    got, want = produced[name], (GOLDEN / name).read_bytes()
    if NUMPY_VERSION.read_text().strip() == np.__version__:
        assert got == want, f"{name} moved; regenerate with `python tests/test_golden.py` if on purpose"
    else:
        assert _numbers_match(got, want), f"{name} moved beyond rtol=1e-12 under numpy {np.__version__}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in produce(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
    NUMPY_VERSION.write_text(np.__version__ + "\n")
    print(f"wrote {len(NAMES)} golden files and {NUMPY_VERSION.name} under {GOLDEN}", file=sys.stderr)
