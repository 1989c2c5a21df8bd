"""Run-level diagnostics of masked-system runs: series_table, the one
reduction of a run's recorded rows into the per-time series of series.csv;
Summary, the running reduction of each series column that the report and
every verdict read; the DiagnosticsReport they fill; the stationarity
residual of a candidate rest point; and jacobi_eigenvalues.

What varies by system kind (attractors, the consensus spread rise and the
pinning margin) belongs to the system classes in dynamics. The pinning
margin's lambda_max still comes from the cyclic Jacobi sweep here:
np.linalg.eigvalsh rounds the last bits of the bundled pinning margin
differently, and the golden report digests pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # dynamics imports this module, and solver imports dynamics
    from .solver import Trajectory


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 200) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below tol times the
    matrix scale (absolute for unit-scale matrices). Returns the eigenvalues
    sorted ascending.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix must be symmetric")
    m = 0.5 * (a + a.T)
    n = m.shape[0]
    if n == 1:
        return m[0].copy()
    scale = max(1.0, float(np.linalg.norm(m)))
    for _ in range(max_sweeps):
        off_sq = np.sum(np.square(m)) - np.sum(np.square(np.diag(m)))
        if off_sq <= (tol * scale) ** 2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                # rotations for negligible entries overflow tau and gain nothing
                if abs(apq) <= 1e-15 * tol * scale:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                elif tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * m[:, p] - s * m[:, q]
                rot_q = s * m[:, p] + c * m[:, q]
                m[:, p], m[:, q] = rot_p, rot_q
                m[p, :], m[q, :] = c * m[p, :] - s * m[q, :], s * m[p, :] + c * m[q, :]
                m[p, q] = m[q, p] = 0.0
    return np.sort(np.diag(m).copy())


@dataclass
class DiagnosticsReport:
    """Self-auditing metrics for one run; verdicts restate the stored numbers."""

    scenario: str
    config_hash: str = ""
    eta: Optional[float] = None
    x_star: Optional[list] = None
    final_error: Optional[float] = None
    rho_per_agent: Optional[list] = None
    rho: Optional[float] = None
    privacy_level: Optional[float] = None
    conservation_dev: Optional[float] = None
    output_mean_range: Optional[float] = None
    vmm_max_increase: Optional[float] = None
    mask_gap_initial_min: Optional[float] = None
    mask_gap_final_max: Optional[float] = None
    sync_error_final: Optional[float] = None
    lmi_margin: Optional[float] = None
    max_abs_state: Optional[float] = None
    verdicts: dict = field(default_factory=dict)
    series_files: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(vars(self))

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def stationarity_residual(spec, x_star: np.ndarray, s=None) -> float:
    """Infinity norm of the unmasked field at a candidate rest point, with
    the exosystem at state s for a pinned system."""
    return float(np.max(np.abs(spec.field(np.asarray(x_star, dtype=float), s))))


def series_table(traj: Trajectory, y: np.ndarray) -> dict:
    """The one reduction of recorded rows: every series.csv column by name,
    in column order, each a 1-D array over the rows' times.

    y holds the masked outputs of the rows. The columns are t, the means of
    x and of y, the spread max_i x_i - min_i x_i, min and max over agents of
    the mask gap |y_i - x_i| and, with exosystem samples s, the max over
    agents of each agent block's 2-norm distance from s and the full stacked
    2-norm. Every column is a row-wise reduction, so a run takes it one
    window of rows at a time.
    """
    x = traj.x
    gap = np.abs(y - x)
    series = {
        "t": traj.times,
        "mean_x": x.mean(axis=1),
        "mean_y": y.mean(axis=1),
        "spread_x": np.ptp(x, axis=1),
        "gap_min": gap.min(axis=1),
        "gap_max": gap.max(axis=1),
    }
    if traj.s is not None:
        nu = traj.s.shape[1]
        err = x.reshape(len(x), -1, nu) - traj.s[:, None, :]
        series["sync_err_max"] = np.linalg.norm(err, axis=2).max(axis=1)
        series["sync_err_norm"] = np.linalg.norm(err.reshape(len(x), -1), axis=1)
    return series


@dataclass
class Summary:
    """One series column reduced as its windows come: its first and last
    values, its min and max, and its largest rise max_j (v_j - min_{i<=j} v_i)
    above its running min. min and max are exact, and each window's running
    min goes on from the min before it, so every field has the bits of the
    whole column's reduction however it is split (min and max up to the
    sign of a zero)."""

    first: Optional[float] = None
    last: Optional[float] = None
    min: float = math.inf
    max: float = -math.inf
    rise: float = -math.inf

    def fold(self, column: np.ndarray) -> "Summary":
        """Take in the column's next rows; returns self."""
        if self.first is None:
            self.first = column[0]
        self.last = column[-1]
        low = np.minimum.accumulate(column)
        np.minimum(self.min, low, out=low)  # ties go to the later value, as in the recursion
        self.rise = np.maximum(self.rise, np.max(column - low))
        self.min = low[-1]
        self.max = np.maximum(self.max, np.max(column))
        return self
