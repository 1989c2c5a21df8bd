"""Deterministic fixed-step ODE integration producing dense trajectories.

Fixed-step classical RK4, the one method; no adaptivity, so identical
inputs reproduce bit-identical samples. A Trajectory records the states
alone, never the masked outputs: y = h(t, x) is a local function of the
recorded state and time, so a run forms y from each window's rows with one
MaskBank.eval_series call and hands it to every reader (scenario.windows).

integrate runs one type, a dynamics.MaskedSystem; an unmasked run is the
system under the identity bank. It reads no system kind, only the base's
dim, nu and drift (None without an exosystem). It steps any span [start,
stop) of the config's grid from the state at step start, so a run can be
taken window by window: every step k is the same global step, with stage
times k*dt + shift, whichever window holds it. It binds the joint field
(agents, then the exosystem) once per call, as the base's stage_body(bank),
checks it bit for bit against the reference fields at the span's first
state, and only then steps it with _march, the one stepper of 1-d states.
The mask's factors depend on time alone, so for each block of
block_steps(width) steps the march forms the block's (n, 3) RK4 stage
times (t, t + dt/2, t + dt) by the expressions it steps with, and
integrate refills one preallocated table from them with a single
MaskBank.factors call. Each stage gets its (scale, offset) row by
position, and writes its slope into one of the march's four slots k1..k4.
The block is sized so the table stays within TABLE_BYTES; no recorded
sample depends on its length or on where a span starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import MaskedSystem, exosystem_field, field_masked
# bench/tracing.py wraps solver.field_unmasked, so the name must resolve here
from .dynamics import field_unmasked  # noqa: F401

BLOWUP_LIMIT = 1e12
#: Most steps a time grid may take.
MAX_STEPS = 10_000_000
#: Largest relative miss |n_steps * dt - t_final| / t_final of a time grid.
HORIZON_RTOL = 1e-9
#: Most steps per block (at n=100: 1.7 us of table a step at 128, 2.0 at 32 or 256),
#: and the bytes of (scale, offset) table a block may fill, 48 a step and value.
TABLE_STEPS, TABLE_BYTES = 128, 256 * 1024


def block_steps(width: int) -> int:
    """Steps per block of width values: what TABLE_BYTES of table holds, in [1, TABLE_STEPS]."""
    return min(TABLE_STEPS, max(1, TABLE_BYTES // (48 * width)))


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
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"{self.n_steps} steps exceed the maximum of {MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def n_records(self) -> int:
        """Recorded rows: t=0, every record_stride-th step, and the last step."""
        return 1 + self.n_steps // self.record_stride + (self.n_steps % self.record_stride > 0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded (t, x[, s]) samples on a strictly increasing time grid."""

    times: np.ndarray
    x: np.ndarray
    s: Optional[np.ndarray] = None

    def to_csv(self, fh, y: np.ndarray, header: bool = True) -> None:
        """Full-precision CSV: t, x_0.., y_0..[, s_0..], 17 significant digits,
        with y the masked outputs of the recorded rows, appended to the open
        binary file fh; header=False appends the rows alone, as a run
        streamed window by window does after its first."""
        d = self.x.shape[1]
        names = ["t"] + [f"x_{i}" for i in range(d)] + [f"y_{i}" for i in range(d)]
        blocks = (self.times[:, None], self.x, y)
        if self.s is not None:
            names += [f"s_{i}" for i in range(self.s.shape[1])]
            blocks += (self.s,)
        write_csv(fh, names if header else [], blocks)


def write_csv(fh, header, blocks: tuple) -> None:
    """One header line (none if header is empty), then one line per row,
    each value exactly as '%.17g' % value formats it (17 significant digits
    round-trip every double), appended to the open binary file fh: the
    bytes of np.savetxt(fh, np.hstack(blocks), fmt="%.17g", delimiter=",",
    header=",".join(header), comments="").

    blocks is a tuple of 2-D column blocks with one row count, written side
    by side. Rows are stacked g17.BATCH // n_cols at a time (at least one)
    and encoded by g17.G17Encoder, so the whole table is never copied.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if any(b.ndim != 2 for b in blocks) or len({b.shape[0] for b in blocks}) != 1:
        raise ValueError("write_csv needs 2-D column blocks with one row count")
    n_rows = blocks[0].shape[0]
    n_cols = sum(b.shape[1] for b in blocks)
    if n_cols == 0:
        raise ValueError("write_csv needs at least one column")
    from . import g17  # imported on the first write: the check path never loads it

    rows = max(1, g17.BATCH // n_cols)
    chunk = np.empty((rows, n_cols))
    encode = g17.G17Encoder(min(g17.BATCH, rows * n_cols), n_cols)
    header = ",".join(header)
    if header:
        fh.write((header + "\n").encode("latin1"))
    for r0 in range(0, n_rows, rows):
        m = min(rows, n_rows - r0)
        c0 = 0
        for b in blocks:
            chunk[:m, c0 : c0 + b.shape[1]] = b[r0 : r0 + m]
            c0 += b.shape[1]
        values = chunk[:m].reshape(-1)
        for i in range(0, values.size, encode.size):  # more than one call: a row wider than g17.BATCH
            fh.write(encode(values[i : i + encode.size]))


def _march(
    f, z, cfg: IntegratorConfig, floor: Optional[float] = None, tabulate=None, start=0, stop=None
):
    """Fixed-step RK4 of dz/dt = f(row, z, o) over steps [start, stop) of
    cfg's grid (all of it by default), from z, the state at step start.

    z is a 1-d array, which the march never writes; floor, if given, clamps
    the state from below after every step. f writes the slope at z into o,
    one of the march's own slots k1..k4, and row is the stage time.
    tabulate, if given, maps each block's (n, 3) array of stage times
    (columns t, t + dt/2 and t + dt, each formed by the expression it names
    from the global step index k) to a sequence whose first 3n entries are
    rows for those times in the same order, and f gets those rows by
    position instead. Returns the recorded (times, states) arrays: step
    start, every multiple of record_stride after it, and step stop. So the
    spans [a, b) and [b, c), with b on the stride, record the rows of
    [a, c), the row of b twice.

    The march fills a preallocated (block_steps(d) + 1, d) block one step
    per row, row 0 holding the block's start state. Stage inputs and the RK4
    slope sum are formed in two scratch arrays by ufuncs bound once, with
    out passed positionally and the step constants held as 0-d arrays, so
    the march allocates nothing per step, and every element sees the same
    operations in the same order as z + (dt/6)(k1 + 2k2 + 2k3 + k4). The
    recording arrays are allocated up front, so that no allocation made
    inside the loop outlives its block and fragments the heap, and each
    block copies its recorded rows with one slice assignment.

    Finiteness is checked once per block, on all its rows. The steps after
    a blow-up (up to block_steps(d) - 1 of them) run on non-finite values
    with overflow and invalid warnings silenced; the check then finds the first
    bad step and raises BlowUpError carrying the state of the step before
    it, and no later block is tabulated.
    """
    dt = cfg.dt
    stride = cfg.record_stride
    stop = cfg.n_steps if stop is None else stop
    if not 0 <= start < stop <= cfg.n_steps:
        raise ValueError(f"steps [{start}, {stop}) are not a span of the {cfg.n_steps}-step grid")
    inner = np.arange(start - start % stride + stride, stop, stride)
    rec_times = np.concatenate(([start], inner, [stop])) * dt  # stop, on the stride or not
    rec_states = np.empty((len(rec_times),) + z.shape)
    rec_states[0] = z
    row = 1
    per_block = block_steps(z.size)
    block = np.empty((per_block + 1,) + z.shape)
    steps = list(block)
    arg, acc, k1, k2, k3, k4 = (np.empty_like(z) for _ in range(6))
    add, mul, maximum = np.add, np.multiply, np.maximum
    shifts = np.array([0.0, 0.5 * dt, dt])  # t + 0.0 is t itself
    half, step, two, sixth = (np.array(c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    if floor is not None:
        floor = np.array(floor, dtype=float)
    for k0 in range(start, stop, per_block):
        n = min(per_block, stop - k0)
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
    if stop % stride:
        rec_states[-1] = z
    return rec_times, rec_states


def integrate(
    system: MaskedSystem,
    x0: np.ndarray,
    cfg: IntegratorConfig,
    s0: Optional[np.ndarray] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> Trajectory:
    """Fixed-step integration of steps [start, stop) of cfg's grid (all of
    it by default) from x0 (and s0 for pinned systems), the state at step
    start; it records what _march records.

    Raises BlowUpError carrying the last finite sample, at global times, if
    the state exceeds the finite range. Given identical inputs the recorded
    samples are bit-identical across runs, and across any split of the grid
    into spans that each start from the row the span before recorded last.
    """
    if not isinstance(system, MaskedSystem):
        raise TypeError(
            f"a run takes a MaskedSystem, got {type(system).__name__}; "
            "an unmasked run is MaskedSystem(spec, MaskBank.identity(spec.dim))"
        )
    base, bank = system.base, system.bank
    stage = base.stage_body(bank)
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
    # Checked once, at the span's first state and its time start * dt (at
    # start 0 every exponential is exp(-0.0)), each side with the bank's
    # factors formed there. A field that overflows there is left, as in the
    # march, to the blow-up check of the first block.
    t0 = start * cfg.dt
    x, s = z[:d], (z[d:] if pinned else None)
    got = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        want = field_masked(system, t0, x, s)
        if pinned:
            want = np.concatenate([want, exosystem_field(base.drift, s)])
        stage(bank.factors(t0), z, got)
    if got.tobytes() != want.tobytes():
        i = int(np.flatnonzero(got.view(np.int64) != want.view(np.int64))[0])
        raise RuntimeError(
            f"compiled stage differs from the reference field at t={t0:g}: component {i} "
            f"is {float(got[i])!r}, not {float(want[i])!r}"
        )

    table = np.empty((2, 3 * block_steps(z.size), d))  # a block's scale rows, then offset rows
    rows = list(zip(*table))

    def tabulate(times):
        bank.factors(times.reshape(-1), table[:, : times.size])
        return rows

    times, states = _march(stage, z, cfg, tabulate=tabulate, start=start, stop=stop)
    return Trajectory(times=times, x=states[:, :d], s=states[:, d:] if pinned else None)


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
