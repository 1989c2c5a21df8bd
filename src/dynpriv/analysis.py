"""Diagnostics for masked-system runs: attractor errors, conservation,
consensus spread, mask gaps, synchronization errors, and the pinning
feasibility margin.

The pinning condition q*Xi (x) R - (0.5*(Xi L + L^T Xi) + Xi P) (x) R < 0 is
decided on the n x n factor M = q*Xi - 0.5*(Xi L + L^T Xi) - Xi P: with R
symmetric positive definite every eigenvalue of M (x) R is a product of an
eigenvalue of M and a positive eigenvalue of R, so negativity of the big
matrix is equivalent to lambda_max(M) < 0. check_coupling_matrix is the one
test that R is symmetric and positive definite. lambda_max(M) still comes
from a cyclic Jacobi sweep: np.linalg.eigvalsh rounds the last bits of the
bundled pinning margin differently, and the golden report digests pin them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .masks import row_chunks

if TYPE_CHECKING:  # dynamics imports this module, and solver imports dynamics
    from .solver import Trajectory


def consensus_value(x0: np.ndarray) -> float:
    """Arithmetic mean of the initial scalar states."""
    x0 = np.asarray(x0, dtype=float)
    if x0.size == 0:
        raise ValueError("empty state")
    return float(np.mean(x0))


def fj_equilibrium(lap: np.ndarray, theta: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Unique rest point (L + Theta)^{-1} Theta x0 of the opinion dynamics."""
    lap = np.asarray(lap, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.any(theta != 0):
        raise ValueError("at least one susceptibility must be nonzero")
    a = lap + np.diag(theta)
    rhs = theta * x0
    try:
        x_star = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular opinion system: {exc}") from exc
    residual = np.max(np.abs(a @ x_star - rhs))
    scale = max(1.0, np.max(np.abs(rhs)))
    if residual > 1e-10 * scale:
        raise ValueError(f"equilibrium solve residual {residual:.3e} too large")
    return x_star


def vmm_series(traj: Trajectory) -> np.ndarray:
    """Per-time spread max_i x_i(t) - min_i x_i(t)."""
    return traj.x.max(axis=1) - traj.x.min(axis=1)


def max_increase(series: np.ndarray) -> float:
    """Largest rise max_{t1 < t2} (v(t2) - v(t1)); 0 for non-increasing series."""
    series = np.asarray(series, dtype=float)
    running_min = np.minimum.accumulate(series)
    return float(np.max(series - running_min))


def conservation_series(traj: Trajectory):
    """Mean of the private states and of the masked outputs over time."""
    return traj.x.mean(axis=1), traj.y.mean(axis=1)


def sync_error_series(traj: Trajectory):
    """Distance of each agent block from the exosystem sample, whose width
    is the agents' state dimension nu.

    Returns (max over agents of the per-agent 2-norm, full stacked 2-norm),
    both per recorded time, computed for a chunk of rows at a time so that
    no error table is held.
    """
    if traj.s is None:
        raise ValueError("trajectory has no exosystem samples")
    n_rec, d = traj.x.shape
    nu = traj.s.shape[1]
    max_err, full_err = np.empty(n_rec), np.empty(n_rec)
    for part in row_chunks(n_rec, d):
        x = traj.x[part]
        err = x.reshape(len(x), d // nu, nu) - traj.s[part, None, :]
        np.linalg.norm(err, axis=2).max(axis=1, out=max_err[part])
        full_err[part] = np.linalg.norm(err.reshape(len(x), -1), axis=1)
    return max_err, full_err


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


#: Largest |R - R^T| entry under which the inner coupling matrix R counts as symmetric.
R_SYMMETRY_TOL = 1e-12


def check_coupling_matrix(r) -> None:
    """Raise ValueError unless R is symmetric (to R_SYMMETRY_TOL) and
    positive definite."""
    r = np.asarray(r, dtype=float)
    if np.max(np.abs(r - r.T)) > R_SYMMETRY_TOL:
        raise ValueError("inner coupling matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(r)) <= 0:
        raise ValueError("inner coupling matrix must be positive definite")


def check_pinning_condition(
    lap: np.ndarray,
    r: np.ndarray,
    pin_gains: np.ndarray,
    xi: np.ndarray,
    q: float,
) -> float:
    """Feasibility margin of the synchronization condition.

    Returns lambda_max(q*Xi - 0.5*(Xi L + L^T Xi) - Xi P); the condition
    holds iff the margin is negative.
    """
    check_coupling_matrix(r)
    lap = np.asarray(lap, dtype=float)
    p = np.atleast_1d(np.asarray(pin_gains, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xi <= 0):
        raise ValueError("xi must be strictly positive")
    xi_mat = np.diag(xi)
    m = q * xi_mat - 0.5 * (xi_mat @ lap + lap.T @ xi_mat) - xi_mat @ np.diag(p)
    m = 0.5 * (m + m.T)
    return float(np.max(jacobi_eigenvalues(m)))


@dataclass(frozen=True)
class AttractorCheck:
    final_error: float
    converged: bool


def attractor_verdicts(
    traj: Trajectory, x_star: np.ndarray, tol_conv: float
) -> AttractorCheck:
    """Infinity-norm distance to the expected attractor at T."""
    x_star = np.asarray(x_star, dtype=float)
    final = float(np.max(np.abs(traj.x[-1] - x_star)))
    return AttractorCheck(final_error=final, converged=final < tol_conv)


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


def series_table(traj: Trajectory):
    """Plot-ready summary series: the figure panels as (header, columns).

    Columns: time, mean of x and of y (conservation view), state spread,
    min/max over agents of the mask gap |y_i - x_i|, and the synchronization
    error when the trajectory has exosystem samples. The gap is formed for a
    chunk of rows at a time, so that no gap table is held.
    """
    n_rec, d = traj.x.shape
    gap_min, gap_max = np.empty(n_rec), np.empty(n_rec)
    for part in row_chunks(n_rec, d):
        gap = np.subtract(traj.y[part], traj.x[part])
        np.abs(gap, out=gap)
        gap.min(axis=1, out=gap_min[part])
        gap.max(axis=1, out=gap_max[part])
    header = ["t", "mean_x", "mean_y", "spread_x", "gap_min", "gap_max"]
    cols = [
        traj.times,
        traj.x.mean(axis=1),
        traj.y.mean(axis=1),
        vmm_series(traj),
        gap_min,
        gap_max,
    ]
    if traj.s is not None:
        max_err, full_err = sync_error_series(traj)
        header += ["sync_err_max", "sync_err_norm"]
        cols += [max_err, full_err]
    return header, np.column_stack(cols)
