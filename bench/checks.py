"""Correctness checks on the outputs of each workload.

Every expected value here is computed apart from efnlab: from closed forms,
from quadrature, or from a property the method must have.  Each check
returns findings, each a measured value with the band it must lie in; an
output that cannot be read or has the wrong shape raises ValueError.  The
bands are fixed in advance from the sampling error of each workload's size
(see README.md) and are not tuned to observed outputs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, special


def gaussian_max_mean(d: int) -> float:
    """E[max of d i.i.d. standard normals], by quadrature of the max's density."""
    a_d = math.sqrt(2.0 * math.log(d))

    def integrand(x):
        log_density = math.log(d) + (d - 1) * special.log_ndtr(x) - 0.5 * x * x
        return x * math.exp(log_density) / math.sqrt(2.0 * math.pi)

    value, _ = integrate.quad(integrand, -10.0, a_d + 10.0, points=[a_d], limit=200)
    return value


def flat_max_mean(d: int) -> float:
    """m_d: expected maximum of the white correlation sequence of a flat
    zero-DC unit-norm template against unit white noise.

    That sequence has covariance (d*delta - 1)/(d - 1), the law of
    sqrt(d/(d-1)) (Z - mean(Z)) with Z i.i.d. standard normal.
    """
    return math.sqrt(d / (d - 1)) * gaussian_max_mean(d)


def flat_rate_bias(d: int) -> float:
    """kappa_d = 2 ln d / m_d^2: finite-d phase MSE over the thm2 rate."""
    return 2.0 * math.log(d) / flat_max_mean(d) ** 2


@dataclass(frozen=True)
class Finding:
    label: str
    value: float
    lo: float
    hi: float

    @property
    def ok(self) -> bool:
        return self.lo <= self.value <= self.hi

    def __str__(self) -> str:
        return f"{self.label} = {self.value:.4f} (need in [{self.lo}, {self.hi}])"


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path.name} has no rows")
    return {key: np.asarray([float(r[key]) for r in rows]) for key in rows[0]}


# ---------------------------------------------------------------------------
# msweep: efn figure 2c
# ---------------------------------------------------------------------------

MSWEEP_MS = (200, 500, 1500, 5000)
MSWEEP_KS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
SLOPE_MEAN_BAND = (-1.3, -0.7)
SLOPE_BIN_BAND = (-1.75, -0.25)
SLOPE_BINS_NEEDED = 8


def check_msweep(table: dict[str, np.ndarray]) -> list[Finding]:
    """Phase MSE falls as 1/M: per-bin least-squares slope of ln MSE on ln M."""
    ms, ks, mse = table["M"], table["k"], table["mse"]
    pairs = sorted(zip(ks.tolist(), ms.tolist()))
    if pairs != sorted((k, m) for k in MSWEEP_KS for m in MSWEEP_MS):
        raise ValueError("figure 2c rows are not one per (M, k) of the sweep")
    if not np.all(mse > 0):
        raise ValueError("figure 2c has a non-positive MSE")
    slopes = np.asarray([
        np.polyfit(np.log(ms[ks == k]), np.log(mse[ks == k]), 1)[0] for k in MSWEEP_KS
    ])
    lo, hi = SLOPE_BIN_BAND
    return [
        Finding("mean over bins of the slope of ln MSE on ln M", float(np.mean(slopes)), *SLOPE_MEAN_BAND),
        Finding(f"bins with slope in [{lo}, {hi}]", int(np.sum((slopes >= lo) & (slopes <= hi))),
                SLOPE_BINS_NEEDED, len(MSWEEP_KS)),
    ]


# ---------------------------------------------------------------------------
# flat_hd and ck_profile: efn run on the flat d=2048 template
# ---------------------------------------------------------------------------

FLAT_D = 2048
FLAT_M = 2000
FLAT_KS = tuple(range(FLAT_D // 8, 3 * FLAT_D // 8 + 1))
FLAT_RATE_BAND = (0.8, 1.2)
FLAT_MAGNITUDE_BAND = (0.9, 1.1)
CK_RATE_BAND = (0.9, 1.1)
CK_MAGNITUDE_BAND = (0.95, 1.05)


def _flat_template_terms(table) -> tuple[float, float]:
    """(|X[k]|^2, m_d) for the flat zero-DC unit-norm template at d = FLAT_D."""
    if table["k"].tolist() != list(FLAT_KS):
        raise ValueError(f"stats.csv bins are not k = {FLAT_KS[0]}..{FLAT_KS[-1]}")
    return 1.0 / (FLAT_D - 1), flat_max_mean(FLAT_D)


def check_flat_hd(table: dict[str, np.ndarray]) -> list[Finding]:
    """High-dimensional laws at finite d for the flat template.

    The phase MSE is kappa_d / (4 |X[k]|^2 M ln d) and the magnitude is
    m_d |X[k]|, with |X[k]|^2 = 1/(d-1).
    """
    x2, m_d = _flat_template_terms(table)
    rate = table["phase_mse"] * 4.0 * x2 * FLAT_M * math.log(FLAT_D) / flat_rate_bias(FLAT_D)
    magnitude = table["mean_magnitude"] / (m_d * math.sqrt(x2))
    return [
        Finding("median phase_mse * 4|X|^2 M ln d / kappa_d", float(np.median(rate)), *FLAT_RATE_BAND),
        Finding("median mean_magnitude / (m_d |X|)", float(np.median(magnitude)), *FLAT_MAGNITUDE_BAND),
    ]


def check_ck_profile(table: dict[str, np.ndarray]) -> list[Finding]:
    """The Monte-Carlo C_k and E[|N[k]| cos phi_e] for the flat template.

    With a white correlation sequence, C_k = 1 / (2 |X[k]|^2 m_d^2) and
    E[|N[k]| cos phi_e] = m_d |X[k]|.
    """
    x2, m_d = _flat_template_terms(table)
    rate = FLAT_M * table["predicted_mse_thm1"] * 2.0 * x2 * m_d**2
    magnitude = table["predicted_magnitude_thm1"] / (m_d * math.sqrt(x2))
    return [
        Finding("median M * predicted_mse_thm1 * 2|X|^2 m_d^2", float(np.median(rate)), *CK_RATE_BAND),
        Finding("median predicted_magnitude_thm1 / (m_d |X|)", float(np.median(magnitude)),
                *CK_MAGNITUDE_BAND),
    ]


# ---------------------------------------------------------------------------
# verify_all: efn verify all
# ---------------------------------------------------------------------------

def check_verify(stdout: str) -> list[Finding]:
    """Every row of the pass/fail table reads PASS and the summary agrees."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    rows = [line for line in lines if line.startswith("[")]
    return [
        Finding("table rows", len(rows), 1, math.inf),
        Finding("rows not reading PASS", sum(not row.startswith("[PASS]") for row in rows), 0, 0),
        Finding("summary reads 'all checks passed'",
                float(bool(lines) and lines[-1].endswith("all checks passed")), 1, 1),
    ]


def digest(paths) -> str:
    """One SHA-256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()
