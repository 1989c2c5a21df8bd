"""Eavesdropper-side reconstruction of initial conditions from observed outputs.

An observer j knows the functional form of the target's vector field and the
output trajectories of its own closed in-neighborhood, nothing else: no
private states, no mask forms or parameters. When the observer's closed
neighborhood covers the target's, the settled output plus a quadrature of
the observed field recovers the target's initial state; with the covering
assumption restored, at least one integrand channel is missing and must be
substituted, which ruins the estimate. The target's integrand is the
attack_row of its system class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgraph import Digraph

SUBSTITUTION_POLICIES = ("zero", "own_output", "visible_mean")
#: Default bound on the outputs' terminal increment: below it they count as settled.
SETTLE_TOL = 1e-6


class NotSettledError(ValueError):
    """The observed outputs still move at T, so the quadrature judges nothing."""


@dataclass(frozen=True, eq=False)
class EavesdropperView:
    """Outputs visible to one observer, extracted from a run.

    Holds the observed output channels only; the private states and the
    mask bank are unreachable from this object by construction.
    """

    observer: int
    times: np.ndarray
    outputs: dict

    @classmethod
    def from_windows(cls, graph: Digraph, observer: int, windows, n_rows: int) -> "EavesdropperView":
        """The view of a run of n_rows rows given as (trajectory, masked
        outputs) windows, as scenario.windows yields them: the times and the
        visible output columns, filled into arrays allocated once."""
        if not (0 <= observer < graph.n):
            raise ValueError(f"observer {observer} out of range")
        visible = sorted(graph.closed_in_neighborhood(observer))
        times = np.empty(n_rows)
        columns = np.empty((len(visible), n_rows))  # one contiguous row per channel
        row = 0
        for traj, y in windows:
            if traj.x.shape[1] != graph.n:
                raise ValueError("eavesdropping is defined for scalar-agent trajectories")
            part = slice(row, row + len(traj.times))
            times[part] = traj.times
            columns[:, part] = y[:, visible].T
            row = part.stop
        if row != n_rows:
            raise ValueError(f"the windows hold {row} rows, not {n_rows}")
        return cls(observer=observer, times=times, outputs=dict(zip(visible, columns)))


@dataclass(frozen=True)
class ReconstructionResult:
    x_hat: float
    missing_channels: tuple


def _trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    """The sum of 0.5 * dt * (values[:-1] + values[1:]), its products formed in place."""
    half_dt = np.diff(times)
    half_dt *= 0.5
    terms = values[:-1] + values[1:]
    terms *= half_dt
    return float(np.sum(terms))


def reconstruct_initial(
    view: EavesdropperView,
    target: int,
    row_field,
    needed_channels,
    policy: str = "zero",
    settle_tol: float = SETTLE_TOL,
) -> ReconstructionResult:
    """Estimate the target's initial state from the observer's viewpoint.

    x_hat = y_target(T) - integral_0^T f_target(observed or substituted
    channels) dt, by composite trapezoid on the recording grid. Channels the
    observer cannot see are filled according to the substitution policy.
    Requires the observed outputs to have settled (terminal increments below
    settle_tol), since the quadrature replaces an infinite-horizon integral.
    """
    if policy not in SUBSTITUTION_POLICIES:
        raise ValueError(f"unknown substitution policy {policy!r}")
    if target not in view.outputs:
        raise ValueError(f"target {target} not observable from agent {view.observer}")
    tail_step = max(
        abs(series[-1] - series[-2]) for series in view.outputs.values()
    )
    if tail_step >= settle_tol:
        raise NotSettledError(
            f"outputs not settled: terminal increment {tail_step:.3e} >= {settle_tol:g}"
        )
    channels = {}
    missing = []
    visible_mean = None
    for k in needed_channels:
        if k in view.outputs:
            channels[k] = view.outputs[k]
        else:
            missing.append(k)
            if policy == "zero":
                channels[k] = np.zeros_like(view.times)
            elif policy == "own_output":
                channels[k] = view.outputs[view.observer]
            else:
                if visible_mean is None:  # formed once, and only where a channel takes it
                    visible_mean = np.vstack([view.outputs[j] for j in sorted(view.outputs)]).mean(axis=0)
                channels[k] = visible_mean
    integrand = row_field(channels)
    x_hat = float(view.outputs[target][-1] - _trapezoid(view.times, integrand))
    return ReconstructionResult(x_hat=x_hat, missing_channels=tuple(missing))

