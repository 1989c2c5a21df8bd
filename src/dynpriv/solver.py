"""Deterministic fixed-step ODE integration producing dense trajectories.

Fixed-step RK4 (default) or explicit Euler; no adaptivity, so identical
inputs reproduce bit-identical samples. Masked outputs are recomputed from
the recorded states through the mask bank, never integrated separately.

integrate compiles the run's joint field (agents, then the exosystem of a
pinned system) once with dynamics.compile_stage and checks it bit for bit
against the reference fields at the initial state before the first step.
The compiled stage's results rotate through STAGE_BUFFERS arrays, which
covers the four slopes RK4 holds within one step.

The mask's factors depend on time alone, so a masked integration computes
them for every distinct stage time of a block of TABLE_STEPS steps in one
MaskBank.factors call, and each stage looks its row up by time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dynamics import (
    MaskedSystem,
    PinnedSync,
    SystemSpec,
    compile_stage,
    exosystem_field,
    field_masked,
    field_unmasked,
)

BLOWUP_LIMIT = 1e12
#: Largest relative miss |n_steps * dt - t_final| / t_final of a time grid.
HORIZON_RTOL = 1e-9
#: Steps per mask-factor table; small, so the table stays a few rows of
#: the state dimension.
TABLE_STEPS = 16


class BlowUpError(RuntimeError):
    """State left the finite range during integration."""

    def __init__(self, t: float, last_time: float, last_state: np.ndarray):
        super().__init__(f"numerical blow-up at t={t:.6g}")
        self.t = t
        self.last_time = last_time
        self.last_state = last_state


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    dt: float = 1e-3
    t_final: float = 50.0
    record_stride: int = 1
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        end = self.n_steps * self.dt
        if abs(end - self.t_final) > HORIZON_RTOL * self.t_final:
            raise ValueError(
                f"dt={self.dt!r} does not divide t_final={self.t_final!r}: "
                f"{self.n_steps} steps end at t={end!r}"
            )
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.n_steps > self.max_steps:
            raise ValueError(f"{self.n_steps} steps exceed the configured maximum")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded (t, x, y[, s]) samples on a strictly increasing time grid."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    s: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path) -> None:
        """Full-precision CSV: t, x_0.., y_0..[, s_0..], 17 significant digits."""
        d = self.dim
        header = ["t"] + [f"x_{i}" for i in range(d)] + [f"y_{i}" for i in range(d)]
        blocks = [self.times[:, None], self.x, self.y]
        if self.s is not None:
            header += [f"s_{i}" for i in range(self.s.shape[1])]
            blocks.append(self.s)
        write_csv(path, header, np.hstack(blocks))


def write_csv(path, header, data) -> None:
    """One header line, then one row per line of data at 17 significant digits
    (enough to round-trip every double)."""
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _stage_times(k0: int, k1: int, dt: float, rk4: bool) -> list:
    """Distinct stage times of steps k0..k1-1, ascending, each computed by
    the expression _march evaluates f at."""
    times = set()
    for k in range(k0, k1):
        t = k * dt
        times.add(t)
        if rk4:
            times.update((t + 0.5 * dt, t + dt))
    return sorted(times)


def _march(f, z, cfg: IntegratorConfig, floor: Optional[float] = None, tabulate=None):
    """Fixed-step RK4/Euler of dz/dt = f(t, z) from z at t=0.

    z is an array or a scalar; floor, if given, clamps a scalar state from
    below after every step. tabulate, if given, receives the distinct stage
    times of each block of TABLE_STEPS steps before the block runs. Returns
    the recorded (times, states) arrays, allocated up front so that no
    allocation made inside the loop outlives its step and fragments the
    heap. Raises BlowUpError carrying the state at the last step that
    stayed finite if the state leaves the finite range.
    """
    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    n_rec = 1 + n_steps // stride + (n_steps % stride > 0)
    rec_times = np.empty(n_rec)
    rec_states = np.empty((n_rec,) + np.shape(z))
    rec_times[0], rec_states[0] = 0.0, z
    row = 1
    last_ok_t, last_ok_z = 0.0, z
    rk4 = cfg.method == "rk4"
    for k in range(n_steps):
        if tabulate is not None and k % TABLE_STEPS == 0:
            tabulate(_stage_times(k, min(k + TABLE_STEPS, n_steps), dt, rk4))
        t = k * dt
        if rk4:
            k1 = f(t, z)
            k2 = f(t + 0.5 * dt, z + (0.5 * dt) * k1)
            k3 = f(t + 0.5 * dt, z + (0.5 * dt) * k2)
            k4 = f(t + dt, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            z = z + dt * f(t, z)
        if floor is not None:
            z = max(z, floor)
        t_next = (k + 1) * dt
        if not np.abs(z).max() <= BLOWUP_LIMIT:  # also true for nan and inf
            raise BlowUpError(t_next, last_ok_t, np.atleast_1d(last_ok_z))
        last_ok_t, last_ok_z = t_next, z
        if (k + 1) % stride == 0 or (k + 1) == n_steps:
            rec_times[row], rec_states[row] = t_next, z
            row += 1
    return rec_times, rec_states


def integrate(
    system: Union[MaskedSystem, SystemSpec],
    x0: np.ndarray,
    cfg: IntegratorConfig,
    s0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Fixed-step integration from x0 (and s0 for pinned systems).

    Raises BlowUpError carrying the last finite sample if the state exceeds
    the finite range. Given identical inputs the recorded samples are
    bit-identical across runs.
    """
    masked = isinstance(system, MaskedSystem)
    base = system.base if masked else system
    d = base.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 has shape {x0.shape}, system needs ({d},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    pinned = isinstance(base, PinnedSync)
    if pinned:
        if s0 is None:
            raise ValueError("pinned synchronization needs an exosystem initial state")
        s0 = np.asarray(s0, dtype=float)
        if s0.shape != (base.nu,):
            raise ValueError(f"s0 has shape {s0.shape}, exosystem needs ({base.nu},)")
        z = np.concatenate([x0, s0])
    else:
        if s0 is not None:
            raise ValueError("s0 only applies to pinned synchronization")
        z = x0.copy()

    table = {}  # stage time -> (scale, offset) of the current block
    stage = compile_stage(system, table.__getitem__ if masked else None)

    def check(row):
        """The compiled stage must reproduce the reference fields bit for
        bit; checked once, at the initial state with the same factor row."""
        x, s = z[:d], (z[d:] if pinned else None)
        if masked:
            want = field_masked(system, 0.0, x, s, row)
        else:
            want = field_unmasked(base, 0.0, x, s)
        if pinned:
            want = np.concatenate([want, exosystem_field(base.drift, s)])
        got = stage(0.0, z)
        if got.tobytes() != want.tobytes():
            raise RuntimeError(
                "compiled stage differs from the reference field at t=0 by up to "
                f"{np.max(np.abs(got - want)):.3g}"
            )

    bank = tabulate = None
    if masked:
        bank = system.bank

        def tabulate(times):
            scale, offset = bank.factors(times)
            table.clear()
            table.update(zip(times, zip(scale, offset)))
            if times[0] == 0.0:  # the first block, before its first stage
                check(table[0.0])

    else:
        check(None)

    times, states = _march(stage, z, cfg, tabulate=tabulate)
    x_part = states[:, :d]
    s_part = states[:, d:] if pinned else None
    y_part = bank.eval_series(times, x_part) if bank is not None else x_part.copy()
    return Trajectory(times=times, x=x_part, y=y_part, s=s_part)


def solve_comparison_ode(
    a: float,
    b: float,
    c: float,
    delta1: float,
    delta2: float,
    v0: float,
    cfg: IntegratorConfig,
):
    """Scalar majorant ODE dv/dt = -a v^2 + b v e^{-delta1 t} + c e^{-delta2 t}.

    The state is clamped at 0 from below after every step (the nonnegative
    half-line is invariant for the exact flow). Returns (times, values) on
    the recording grid.
    """
    if a <= 0 or b < 0 or c < 0:
        raise ValueError("need a > 0, b >= 0, c >= 0")
    if delta1 <= 0 or delta2 <= 0:
        raise ValueError("decay rates must be positive")
    if v0 < 0:
        raise ValueError("v0 must be nonnegative")

    def f(t, v):
        return -a * v * v + b * v * np.exp(-delta1 * t) + c * np.exp(-delta2 * t)

    return _march(f, float(v0), cfg, floor=0.0)
