"""Deterministic fixed-step ODE integration producing dense trajectories.

Fixed-step classical RK4, the one method; no adaptivity, so identical
inputs reproduce bit-identical samples. A Trajectory records the states and
the run's mask bank, never the masked outputs: y = h(t, x) is a local
function of the recorded state and time, so each reader forms it from x
through the bank one masks.row_chunks slice at a time (Trajectory.outputs),
and a simulate holds no (n_rec, d) table of y.

integrate runs one type, a dynamics.MaskedSystem; an unmasked run is the
system under the identity bank. It reads no system kind, only the base's
dim, nu and drift (None without an exosystem). It compiles the joint field
(agents, then the exosystem) once with dynamics.compile_stage, checks it
bit for bit against the reference fields at the initial state with the
bank's t=0 factors, and only then steps it with _march, the one stepper of
1-d states. The mask's factors depend on time alone, so for each block of
TABLE_STEPS steps the march forms the block's (n, 3) RK4 stage times
(t, t + dt/2, t + dt) by the expressions it steps with, and integrate
refills one preallocated table from them with a single MaskBank.factors
call. Each stage gets its (scale, offset) row by position, and writes its
slope into one of the march's four slots k1..k4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import MaskedSystem, compile_stage, exosystem_field, field_masked
# bench/tracing.py wraps solver.field_unmasked, so the name must resolve here
from .dynamics import field_unmasked  # noqa: F401
from .masks import CHUNK, MaskBank

BLOWUP_LIMIT = 1e12
#: Largest relative miss |n_steps * dt - t_final| / t_final of a time grid.
HORIZON_RTOL = 1e-9
#: Steps per block, and so per mask-factor table of 3*TABLE_STEPS rows:
#: the measured fastest, at 1.7 us of table per n=100 step (2.0 at 32 or 256).
TABLE_STEPS = 128


class BlowUpError(RuntimeError):
    """State left the finite range during integration."""

    def __init__(self, t: float, last_time: float, last_state: np.ndarray):
        super().__init__(f"numerical blow-up at t={t:.6g}")
        self.t = t
        self.last_time = last_time
        self.last_state = last_state


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # the one method; any other name is refused
    dt: float = 1e-3
    t_final: float = 50.0
    record_stride: int = 1
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method != "rk4":
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if not math.isfinite(self.t_final / self.dt):  # round() overflows on it
            raise ValueError(f"t_final/dt = {self.t_final!r}/{self.dt!r} is not a finite step count")
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

    @property
    def n_records(self) -> int:
        """Recorded rows: t=0, every record_stride-th step, and the last step."""
        return 1 + self.n_steps // self.record_stride + (self.n_steps % self.record_stride > 0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded (t, x[, s]) samples on a strictly increasing time grid, and
    the mask bank that the run's outputs y = h(t, x) are formed by.

    y is not stored: outputs is a view of it whose row slices are formed
    from x on demand, so a reader takes y one masks.row_chunks slice at a
    time and the run holds one recorded table, not two.
    """

    times: np.ndarray
    x: np.ndarray
    bank: MaskBank
    s: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def outputs(self) -> "MaskedOutputs":
        return MaskedOutputs(self)

    def to_csv(self, path) -> None:
        """Full-precision CSV: t, x_0.., y_0..[, s_0..], 17 significant digits."""
        d = self.dim
        header = ["t"] + [f"x_{i}" for i in range(d)] + [f"y_{i}" for i in range(d)]
        blocks = (self.times[:, None], self.x, self.outputs)
        if self.s is not None:
            header += [f"s_{i}" for i in range(self.s.shape[1])]
            blocks += (self.s,)
        write_csv(path, header, blocks)


@dataclass(frozen=True, eq=False)
class MaskedOutputs:
    """A trajectory's masked outputs as an (n_rec, d) table that holds no
    values: indexing it with a row slice forms those rows from x with
    MaskBank.eval_series, bit for bit the row-wise MaskBank.eval."""

    traj: Trajectory
    ndim = 2

    @property
    def shape(self) -> tuple:
        return self.traj.x.shape

    def __getitem__(self, part: slice) -> np.ndarray:
        return self.traj.bank.eval_series(self.traj.times[part], self.traj.x[part])


def write_csv(path, header, data) -> None:
    """One header line, then one line per row of data, each value exactly as
    '%.17g' % value formats it (17 significant digits round-trip every
    double): the bytes of np.savetxt(path, data, fmt="%.17g", delimiter=",",
    header=",".join(header), comments="").

    data is a 2-D array, or a tuple of 2-D column blocks with one row count,
    written side by side; a block may be a MaskedOutputs, whose rows are
    formed as the chunk loop reaches them. Rows are stacked and encoded by
    g17.G17Encoder masks.CHUNK values at a time, so the whole table is never
    copied.
    """
    blocks = [
        b if isinstance(b, MaskedOutputs) else np.asarray(b, dtype=float)
        for b in (data if isinstance(data, tuple) else (data,))
    ]
    if any(b.ndim != 2 for b in blocks) or len({b.shape[0] for b in blocks}) != 1:
        raise ValueError("write_csv needs 2-D data, or 2-D column blocks with one row count")
    n_rows = blocks[0].shape[0]
    n_cols = sum(b.shape[1] for b in blocks)
    if n_cols == 0:
        raise ValueError("write_csv needs at least one column")
    from .g17 import G17Encoder  # imported on the first write: the check path never loads it

    rows = max(1, CHUNK // n_cols)
    chunk = np.empty((rows, n_cols))
    encode = G17Encoder(rows * n_cols, n_cols)
    header = ",".join(header)
    with open(path, "wb") as fh:
        if header:
            fh.write((header + "\n").encode("latin1"))
        for r0 in range(0, n_rows, rows):
            m = min(rows, n_rows - r0)
            c0 = 0
            for b in blocks:
                chunk[:m, c0 : c0 + b.shape[1]] = b[r0 : r0 + m]
                c0 += b.shape[1]
            fh.write(encode(chunk[:m].reshape(-1)))


def _march(f, z, cfg: IntegratorConfig, floor: Optional[float] = None, tabulate=None):
    """Fixed-step RK4 of dz/dt = f(row, z, o) from z at t=0.

    z is a 1-d array, which the march never writes; floor, if given, clamps
    the state from below after every step. f writes the slope at z into o,
    one of the march's own slots k1..k4, and row is the stage time.
    tabulate, if given, maps each block's (n, 3) array of stage times
    (columns t, t + dt/2 and t + dt, each formed by the expression it names)
    to a sequence whose first 3n entries are rows for those times in the
    same order, and f gets those rows by position instead. Returns the
    recorded (times, states) arrays.

    The march fills a preallocated (TABLE_STEPS+1, d) block one step per
    row, row 0 holding the block's start state. Stage inputs and the RK4
    slope sum are formed in two scratch arrays by ufuncs bound once, with
    out passed positionally and the step constants held as 0-d arrays, so
    the march allocates nothing per step, and every element sees the same
    operations in the same order as z + (dt/6)(k1 + 2k2 + 2k3 + k4). The
    recording arrays are allocated up front, so that no allocation made
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
    n_rec = cfg.n_records
    rec_times = np.empty(n_rec)
    rec_times[: 1 + n_steps // stride] = np.arange(0, n_steps + 1, stride) * dt
    rec_times[-1] = n_steps * dt  # the final step, on the stride or not
    rec_states = np.empty((n_rec,) + z.shape)
    rec_states[0] = z
    row = 1
    block = np.empty((TABLE_STEPS + 1,) + z.shape)
    steps = list(block)
    arg, acc, k1, k2, k3, k4 = (np.empty_like(z) for _ in range(6))
    add, mul, maximum = np.add, np.multiply, np.maximum
    shifts = np.array([0.0, 0.5 * dt, dt])  # t + 0.0 is t itself
    half, step, two, sixth = (np.array(c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    if floor is not None:
        floor = np.array(floor, dtype=float)
    for k0 in range(0, n_steps, TABLE_STEPS):
        n = min(TABLE_STEPS, n_steps - k0)
        times = (np.arange(k0, k0 + n) * dt)[:, None] + shifts
        rows = times.reshape(-1).tolist() if tabulate is None else tabulate(times)
        per_step = zip(*[iter(rows)] * 3)  # each step's rows, in order
        block[0] = z
        with np.errstate(over="ignore", invalid="ignore"):
            for cur, nxt, (r1, r2, r4) in zip(steps, steps[1 : n + 1], per_step):
                f(r1, cur, k1)
                mul(half, k1, arg)
                add(cur, arg, arg)
                f(r2, arg, k2)
                mul(half, k2, arg)
                add(cur, arg, arg)
                f(r2, arg, k3)
                mul(step, k3, arg)
                add(cur, arg, arg)
                f(r4, arg, k4)
                mul(two, k2, acc)
                add(k1, acc, acc)
                mul(two, k3, arg)
                add(acc, arg, acc)
                add(acc, k4, acc)
                mul(sixth, acc, acc)
                add(cur, acc, nxt)
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
        z = steps[n]
    if n_steps % stride:
        rec_states[-1] = z
    return rec_times, rec_states


def integrate(
    system: MaskedSystem,
    x0: np.ndarray,
    cfg: IntegratorConfig,
    s0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Fixed-step integration from x0 (and s0 for pinned systems).

    Raises BlowUpError carrying the last finite sample if the state exceeds
    the finite range. Given identical inputs the recorded samples are
    bit-identical across runs.
    """
    stage = compile_stage(system)
    base, bank = system.base, system.bank
    d = base.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 has shape {x0.shape}, system needs ({d},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    pinned = base.drift is not None  # the system has an exosystem
    if pinned:
        if s0 is None:
            raise ValueError("pinned synchronization needs an exosystem initial state")
        s0 = np.asarray(s0, dtype=float)
        if s0.shape != (base.nu,):
            raise ValueError(f"s0 has shape {s0.shape}, exosystem needs ({base.nu},)")
        z = np.concatenate([x0, s0])
    elif s0 is not None:
        raise ValueError("s0 only applies to pinned synchronization")
    else:
        z = x0

    # The compiled stage must reproduce the reference fields bit for bit.
    # Checked once, at the initial state, with the bank's t=0 factors: they
    # equal the table's first row, since each exponential there is exp(-0.0).
    row = bank.factors(0.0)
    x, s = z[:d], (z[d:] if pinned else None)
    want = field_masked(system, 0.0, x, s, row)
    if pinned:
        want = np.concatenate([want, exosystem_field(base.drift, s)])
    got = np.empty_like(z)
    stage(row, z, got)
    if got.tobytes() != want.tobytes():
        i = int(np.flatnonzero(got.view(np.int64) != want.view(np.int64))[0])
        raise RuntimeError(
            f"compiled stage differs from the reference field at t=0: component {i} "
            f"is {float(got[i])!r}, not {float(want[i])!r}"
        )

    table = np.empty((2, 3 * TABLE_STEPS, d))  # a block's scale rows, then offset rows
    rows = list(zip(*table))

    def tabulate(times):
        bank.factors(times.reshape(-1), table[:, : times.size])
        return rows

    times, states = _march(stage, z, cfg, tabulate=tabulate)
    return Trajectory(times=times, x=states[:, :d], bank=bank, s=states[:, d:] if pinned else None)


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

    def f(t, v, o):
        o[:] = -a * v * v + b * v * np.exp(-delta1 * t) + c * np.exp(-delta2 * t)

    times, values = _march(f, np.array([float(v0)]), cfg, floor=0.0)
    return times, values.reshape(-1)
