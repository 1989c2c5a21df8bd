"""Deterministic fixed-step ODE integration producing dense trajectories.

Fixed-step RK4 (default) or explicit Euler; no adaptivity, so identical
inputs reproduce bit-identical samples. Masked outputs are recomputed from
the recorded states through the mask bank, never integrated separately.

integrate compiles the run's joint field (agents, then the exosystem of a
pinned system) once with dynamics.compile_stage and checks it bit for bit
against the reference fields at the initial state before the first step.
The compiled stage's results rotate through STAGE_BUFFERS arrays, which
covers the four slopes RK4 holds within one step.

_march is the one stepper. It runs TABLE_STEPS steps at a time into the
rows of a preallocated block, with the stage inputs and the RK4 slope sum
formed in two scratch arrays by bound ufuncs and the step constants held as
0-d arrays, and checks finiteness once per block. The mask's factors depend
on time alone, so a masked integration computes them for every distinct
stage time of a block in one MaskBank.factors call, and each stage looks
its row up by time.
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

    z is a 1-d array or a scalar, which runs as a (1,) state; floor, if
    given, clamps the state from below after every step. tabulate, if
    given, receives the distinct stage times of each block of TABLE_STEPS
    steps before the block runs. Returns the recorded (times, states)
    arrays; for a scalar z the states are (n_rec,) values.

    The march fills a preallocated (TABLE_STEPS+1, d) block one step per
    row, row 0 holding the block's start state. Stage inputs and the RK4
    slope sum are formed in two scratch arrays by ufuncs bound once, with
    out passed positionally and the step constants held as 0-d arrays, so
    a step allocates nothing beyond what f returns, and every element sees
    the same operations in the same order as z + (dt/6)(k1 + 2k2 + 2k3 + k4).
    The recording arrays are allocated up front, so that no allocation made
    inside the loop outlives its block and fragments the heap, and each
    block copies its recorded rows with one slice assignment.

    Finiteness is checked once per block, on all its rows. The steps after
    a blow-up (up to TABLE_STEPS - 1 of them) run on non-finite values with
    overflow and invalid warnings silenced; the check then finds the first
    bad step and raises BlowUpError carrying the state of the step before
    it, and no later block is tabulated.
    """
    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    rk4 = cfg.method == "rk4"
    scalar = np.ndim(z) == 0
    z = np.array(z, dtype=float, ndmin=1)
    n_rec = 1 + n_steps // stride + (n_steps % stride > 0)
    rec_times = np.empty(n_rec)
    rec_times[: 1 + n_steps // stride] = np.arange(0, n_steps + 1, stride) * dt
    rec_times[-1] = n_steps * dt  # the final step, on the stride or not
    rec_states = np.empty((n_rec,) + z.shape)
    rec_states[0] = z
    row = 1
    block = np.empty((TABLE_STEPS + 1,) + z.shape)
    rows = list(block)
    arg, acc = np.empty_like(z), np.empty_like(z)
    add, mul, maximum = np.add, np.multiply, np.maximum
    half_dt = 0.5 * dt
    half, step, two, sixth = (np.array(c) for c in (half_dt, dt, 2.0, dt / 6.0))
    if floor is not None:
        floor = np.array(floor, dtype=float)
    for k0 in range(0, n_steps, TABLE_STEPS):
        n = min(TABLE_STEPS, n_steps - k0)
        if tabulate is not None:
            tabulate(_stage_times(k0, k0 + n, dt, rk4))
        block[0] = z
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                t = (k0 + j) * dt
                cur, nxt = rows[j], rows[j + 1]
                if rk4:
                    k1 = f(t, cur)
                    mul(half, k1, arg)
                    add(cur, arg, arg)
                    k2 = f(t + half_dt, arg)
                    mul(half, k2, arg)
                    add(cur, arg, arg)
                    k3 = f(t + half_dt, arg)
                    mul(step, k3, arg)
                    add(cur, arg, arg)
                    k4 = f(t + dt, arg)
                    mul(two, k2, acc)
                    add(k1, acc, acc)
                    mul(two, k3, arg)
                    add(acc, arg, acc)
                    add(acc, k4, acc)
                    mul(sixth, acc, acc)
                    add(cur, acc, nxt)
                else:
                    mul(step, f(t, cur), arg)
                    add(cur, arg, nxt)
                if floor is not None:
                    maximum(nxt, floor, out=nxt)  # takes no positional out
        peaks = np.abs(block[1 : n + 1]).max(axis=1)
        bad = np.flatnonzero(~(peaks <= BLOWUP_LIMIT))  # also true for nan and inf
        if bad.size:
            j = int(bad[0])
            raise BlowUpError((k0 + j + 1) * dt, (k0 + j) * dt, block[j].copy())
        done = block[stride - k0 % stride : n + 1 : stride]
        rec_states[row : row + len(done)] = done
        row += len(done)
        z = rows[n]
    if n_steps % stride:
        rec_states[-1] = z
    return rec_times, (rec_states.reshape(-1) if scalar else rec_states)


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
