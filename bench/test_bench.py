"""Tests of the benchmark's own machinery.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from spans import Recorder, layer_metrics, self_times  # noqa: E402


def test_quadrature_closed_forms():
    """E[max] of 2 and 3 standard normals is 1/sqrt(pi) and 3/(2 sqrt(pi))."""
    assert checks.gaussian_max_mean(2) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)
    assert checks.gaussian_max_mean(3) == pytest.approx(1.5 / math.sqrt(math.pi), rel=1e-9)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_of_synthetic_spans():
    spans = [
        ["main", 0.0, 10.0, -1, 0.0, 0],
        ["a", 1.0, 3.0, 0, 0.0, 0],
        ["b", 4.0, 7.0, 0, 0.0, 0],
        ["c", 5.0, 5.5, 2, 0.0, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 0.5])


def test_self_time_of_a_recorded_nested_call():
    """Wrapped calls nest by the call stack; each tick of the fake clock is 1 s."""
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap("leaf", lambda: None)
    middle = rec.wrap("middle", lambda: (leaf(), leaf()))
    outer = rec.wrap("outer", lambda: (middle(), leaf()))
    outer()
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["outer", "middle", "leaf", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1, 0]
    # outer 0..9, middle 1..6, leaves 2..3, 4..5, 7..8
    assert self_times(rec.spans) == pytest.approx([9 - 5 - 1, 5 - 2, 1, 1, 1])


def test_layer_metrics_count_work_and_ratios():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0, 0],
        ["experiment.run_trial", 1.0, 5.0, 0, 300.0, 2000],
        ["experiment.observation_rng", 1.0, 2.0, 1, 0.0, 0],
        ["experiment.run_trial", 5.0, 9.0, 0, 310.0, 2000],
    ]
    m = layer_metrics(spans, requested_observations=4)
    assert m["experiment.run_trial.calls"] == (2, "count")
    assert m["experiment.run_trial.self_s"][0] == pytest.approx(7.0)
    assert m["experiment.obs_per_s"][0] == pytest.approx(4000 / 8.0)
    assert m["experiment.obs_drawn_per_requested"][0] == pytest.approx(0.25)
    assert m["experiment.run_trial.rss_mb"][0] == 310.0
    assert m["cli.self_s"][0] == pytest.approx(2.0)
    assert m["theory.alignment_moments.draws_per_s"][0] == 0.0


# ---------------------------------------------------------------------------
# Each check accepts an output that obeys the law it checks and rejects a
# perturbed one, so a check that cannot fail is caught.
# ---------------------------------------------------------------------------

def _ok(findings):
    return all(f.ok for f in findings)


def _msweep_table(slope):
    ks, ms = np.meshgrid(checks.MSWEEP_KS, checks.MSWEEP_MS)
    return {"M": ms.ravel().astype(float), "k": ks.ravel().astype(float),
            "mse": 3.0 / ks.ravel() * ms.ravel().astype(float) ** slope}


def test_msweep_check():
    assert _ok(checks.check_msweep(_msweep_table(-1.0)))
    assert not _ok(checks.check_msweep(_msweep_table(-0.5)))
    stalled = _msweep_table(-1.0)  # the M = 5000 MSE no lower than at M = 1500
    stalled["mse"][stalled["M"] == 5000] *= 5000 / 1500
    assert not _ok(checks.check_msweep(stalled))
    with pytest.raises(ValueError):
        checks.check_msweep({key: v[:-1] for key, v in _msweep_table(-1.0).items()})


def _flat_table():
    d, M = checks.FLAT_D, checks.FLAT_M
    x2 = 1.0 / (d - 1)
    m_d = checks.flat_max_mean(d)
    n = len(checks.FLAT_KS)
    return {
        "k": np.asarray(checks.FLAT_KS, dtype=float),
        "phase_mse": np.full(n, checks.flat_rate_bias(d) / (4.0 * x2 * M * math.log(d))),
        "mean_magnitude": np.full(n, m_d * math.sqrt(x2)),
        "predicted_mse_thm1": np.full(n, 1.0 / (2.0 * x2 * m_d**2 * M)),
        "predicted_magnitude_thm1": np.full(n, m_d * math.sqrt(x2)),
    }


@pytest.mark.parametrize("check, column", [
    (checks.check_flat_hd, "phase_mse"),
    (checks.check_flat_hd, "mean_magnitude"),
    (checks.check_ck_profile, "predicted_mse_thm1"),
    (checks.check_ck_profile, "predicted_magnitude_thm1"),
])
def test_flat_checks(check, column):
    table = _flat_table()
    assert _ok(check(table))
    table[column] = 2.0 * table[column]
    assert not _ok(check(table))


def test_flat_checks_need_the_mid_band_bins():
    table = _flat_table()
    table["k"] = table["k"] + 1
    with pytest.raises(ValueError):
        checks.check_flat_hd(table)


def test_flat_template_constants():
    """m_d at d = 2048 is below a_d = sqrt(2 ln d), and kappa_d = (a_d / m_d)^2."""
    m_d = checks.flat_max_mean(2048)
    a_d = math.sqrt(2.0 * math.log(2048))
    assert 3.3 < m_d < a_d
    assert checks.flat_rate_bias(2048) == pytest.approx((a_d / m_d) ** 2)


def test_verify_check():
    table = "[PASS] a: measured 1 (need <= 2)\n[PASS] b: measured 3 (need >= 2)\nverify all: all checks passed\n"
    assert _ok(checks.check_verify(table))
    assert not _ok(checks.check_verify(table.replace("[PASS] b", "[FAIL] b")))
    assert not _ok(checks.check_verify(table.replace("all checks passed", "FAILURES PRESENT")))
    assert not _ok(checks.check_verify(""))


def test_digest_sees_one_changed_byte(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(b"M,k,mse\n200,1,0.5\n")
    b.write_bytes(b"M,k,mse\n200,1,0.6\n")
    assert checks.digest([a]) == checks.digest([a])
    assert checks.digest([a]) != checks.digest([b])
