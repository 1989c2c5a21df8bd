"""Case-study vector fields and their masked wrappers.

Four base systems are provided: a saturated interaction network, the
continuous-time Friedkin-Johnsen opinion model, average consensus on a
weight-balanced digraph, and pinned synchronization of identical
vector-valued agents driven by an exosystem. The masked wrapper replaces
every transmitted state with its masked output; for Friedkin-Johnsen the
anchor term is masked too (the neighbors only ever see outputs), and for
pinned synchronization the exosystem sample enters the pinning term
unmasked.

field_unmasked, field_masked and exosystem_field are the readable reference.
compile_stage binds one run's joint field once, as the solver's stage
function: preallocated blocks and views, 0-d coefficients, then only bound
ufunc and np.dot calls with the output passed positionally per stage, equal
to the reference bit for bit. For a pinned system the exosystem state is the
last row of the (n+1, nu) drift block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .masks import MaskBank
from .netgraph import BALANCE_TOL


@dataclass(frozen=True, eq=False)
class TanhDrift:
    """Globally Lipschitz drift f(x) = a @ x + b @ tanh(x)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise ValueError("drift matrices must be square and same shape")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class LorenzDrift:
    """Classic Lorenz system; bounded on its attractor but only locally Lipschitz."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    @property
    def dim(self) -> int:
        return 3


DriftKind = Union[TanhDrift, LorenzDrift]


def exosystem_field(drift: DriftKind, s: np.ndarray) -> np.ndarray:
    """Drift value ds/dt at a single exosystem state."""
    return _drift_batch(drift, np.asarray(s, dtype=float))


def _drift_batch(drift: DriftKind, states: np.ndarray) -> np.ndarray:
    """Drift at one (nu,) state, or rowwise on an (n, nu) block of agent states."""
    if isinstance(drift, TanhDrift):
        return states @ drift.a.T + np.tanh(states) @ drift.b.T
    if isinstance(drift, LorenzDrift):
        x, y, z = states.T
        rows = np.array([drift.sigma * (y - x), x * (drift.rho - z) - y, x * y - drift.beta * z])
        return np.ascontiguousarray(rows.T)
    raise TypeError(f"unknown drift {type(drift).__name__}")


@dataclass(frozen=True, eq=False)
class SaturatedNet:
    """dx/dt = -x + kappa * A @ tanh(x), A nonnegative with zero diagonal."""

    a: np.ndarray
    kappa: float
    enforce_stable: bool = False

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("interaction matrix must be square")
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        if not np.array_equal(off, a):
            raise ValueError("interaction matrix must have zero diagonal")
        if np.any(a < 0):
            raise ValueError("interaction weights must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("coupling gain kappa must be positive")
        if self.enforce_stable:
            radius = float(np.max(np.abs(np.linalg.eigvals(a))))
            if radius <= 0 or self.kappa >= 1.0 / radius:
                raise ValueError("stability requires kappa < 1 / spectral_radius(a)")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class FriedkinJohnsen:
    """dx/dt = -(L + Theta) x + Theta anchor; anchor is the initial opinion."""

    laplacian: np.ndarray
    theta: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        anchor = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        n = lap.shape[0]
        if lap.shape != (n, n) or theta.shape != (n,) or anchor.shape != (n,):
            raise ValueError("inconsistent Friedkin-Johnsen dimensions")
        if np.any(theta < 0) or np.any(theta > 1):
            raise ValueError("susceptibilities must lie in [0, 1]")
        if not np.any(theta > 0):
            raise ValueError("at least one susceptibility must be nonzero")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "anchor", anchor)

    @property
    def dim(self) -> int:
        return self.laplacian.shape[0]


@dataclass(frozen=True, eq=False)
class AverageConsensus:
    """dx/dt = -L x with a weight-balanced Laplacian (conservation of the mean)."""

    laplacian: np.ndarray

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise ValueError("Laplacian must be square")
        if (
            np.max(np.abs(lap.sum(axis=1))) > BALANCE_TOL
            or np.max(np.abs(lap.sum(axis=0))) > BALANCE_TOL
        ):
            raise ValueError("consensus needs a weight-balanced Laplacian")
        object.__setattr__(self, "laplacian", lap)

    @property
    def dim(self) -> int:
        return self.laplacian.shape[0]


@dataclass(frozen=True, eq=False)
class PinnedSync:
    """Diffusively coupled identical agents, some pinned to an exosystem.

    dx_i/dt = f(x_i) - sum_j L[i,j] R x_j - p_i R (x_i - s), with R symmetric
    positive definite and p_i >= 0 (positive exactly on the pinned agents).
    """

    laplacian: np.ndarray
    r: np.ndarray
    pin_gains: np.ndarray
    drift: DriftKind
    nu: int

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        r = np.asarray(self.r, dtype=float)
        p = np.atleast_1d(np.asarray(self.pin_gains, dtype=float))
        n = lap.shape[0]
        if lap.shape != (n, n) or p.shape != (n,):
            raise ValueError("inconsistent pinned-sync dimensions")
        if r.shape != (self.nu, self.nu):
            raise ValueError("inner coupling matrix shape must be (nu, nu)")
        if np.max(np.abs(r - r.T)) > 1e-12:
            raise ValueError("inner coupling matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(r)) <= 0:
            raise ValueError("inner coupling matrix must be positive definite")
        if np.any(p < 0):
            raise ValueError("pinning gains must be nonnegative")
        if self.drift.dim != self.nu:
            raise ValueError("drift dimension must match nu")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "pin_gains", p)

    @property
    def n_agents(self) -> int:
        return self.laplacian.shape[0]

    @property
    def dim(self) -> int:
        return self.n_agents * self.nu


SystemSpec = Union[SaturatedNet, FriedkinJohnsen, AverageConsensus, PinnedSync]


def field_unmasked(
    spec: SystemSpec, t: float, x: np.ndarray, s: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vector field of the bare system; s is required iff the system is pinned."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, PinnedSync):
        if s is None:
            raise ValueError("pinned synchronization needs the exosystem state")
        states = x.reshape(spec.n_agents, spec.nu)
        coupling = (spec.laplacian @ states) @ spec.r
        pinning = spec.pin_gains[:, None] * ((states - s[None, :]) @ spec.r)
        return (_drift_batch(spec.drift, states) - coupling - pinning).reshape(-1)
    if s is not None:
        raise ValueError("exosystem state only applies to pinned synchronization")
    if isinstance(spec, SaturatedNet):
        return -x + spec.kappa * (spec.a @ np.tanh(x))
    if isinstance(spec, FriedkinJohnsen):
        return -(spec.laplacian @ x) - spec.theta * x + spec.theta * spec.anchor
    if isinstance(spec, AverageConsensus):
        return -(spec.laplacian @ x)
    raise TypeError(f"unknown system {type(spec).__name__}")


@dataclass(frozen=True, eq=False)
class MaskedSystem:
    """A base system whose transmitted states are replaced by masked outputs.

    frozen_anchor selects the (incorrect) Friedkin-Johnsen variant that keeps
    the anchor masked at its t=0 value instead of letting the anchor mask
    decay; it demonstrates convergence to a shifted attractor. That masked
    anchor is computed once, here, as frozen_y_anchor.
    """

    base: SystemSpec
    bank: MaskBank
    frozen_anchor: bool = False
    frozen_y_anchor: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self):
        if self.bank.dim != self.base.dim:
            raise ValueError(
                f"mask bank has {self.bank.dim} channels, system needs {self.base.dim}"
            )
        if self.frozen_anchor:
            if not isinstance(self.base, FriedkinJohnsen):
                raise ValueError("frozen_anchor only applies to Friedkin-Johnsen")
            object.__setattr__(self, "frozen_y_anchor", self.bank.eval(0.0, self.base.anchor))


def field_masked(
    ms: MaskedSystem,
    t: float,
    x: np.ndarray,
    s: Optional[np.ndarray] = None,
    factors: Optional[tuple] = None,
) -> np.ndarray:
    """Masked vector field: the base field evaluated on y = h(t, x).

    factors is the bank's (scale, offset) pair at t, as the solver's table
    holds it; without it the pair is computed from t.
    """
    scale, offset = ms.bank.factors(t) if factors is None else factors
    y = scale * (np.asarray(x, dtype=float) + offset)
    if isinstance(ms.base, FriedkinJohnsen):
        spec = ms.base
        y_anchor = ms.frozen_y_anchor if ms.frozen_anchor else scale * (spec.anchor + offset)
        return -(spec.laplacian @ y) - spec.theta * y + spec.theta * y_anchor
    return field_unmasked(ms.base, t, y, s)


#: Output arrays a compiled stage rotates through; RK4 holds k1..k4 at once.
STAGE_BUFFERS = 4

# Ufuncs bound once as module names: a stage calls them with out passed
# positionally, which skips the attribute lookup and the keyword parse.
# Scalar coefficients are bound as 0-d float64 arrays, which a ufunc takes
# as they are, where it converts a Python float on every call.
_add, _sub, _mul, _neg, _tanh, _dot, _copyto = (
    np.add, np.subtract, np.multiply, np.negative, np.tanh, np.dot, np.copyto
)


def compile_stage(system: Union[MaskedSystem, SystemSpec], factors=None):
    """The joint field of a run as one stage function f(t, z).

    z is the joint state: the agents' states, then the exosystem's for a
    pinned system. factors maps a stage time to the bank's (scale, offset)
    pair (the solver passes its table lookup); by default it is computed
    from t. Everything the field needs is bound here once: L, the pin-gain
    column, the drift coefficients and the scalar gains (kappa, sigma, rho,
    beta as 0-d float64 arrays), the frozen masked anchor, and preallocated
    blocks with all their views. A stage then runs only bound ufuncs and
    np.dot with out passed positionally; np.dot makes the same BLAS gemv or
    gemm call as np.matmul. The result equals field_masked (or
    field_unmasked) with exosystem_field appended, bit for bit: every
    element is formed by the same operations in the same order.

    Buffer contract: results rotate through STAGE_BUFFERS preallocated
    arrays, so a returned array stays valid for STAGE_BUFFERS - 1 further
    calls and is overwritten by the next one; copy it to keep it longer.
    """
    masked = isinstance(system, MaskedSystem)
    spec = system.base if masked else system
    if masked and factors is None:
        factors = system.bank.factors
    d = spec.dim
    pinned = isinstance(spec, PinnedSync)
    size = d + spec.nu if pinned else d
    y = np.empty(size)  # the masked agent states, then the raw exosystem state
    agents = y[:d]
    tmp = np.empty(d)
    views = _flat

    if isinstance(spec, AverageConsensus):
        lap = spec.laplacian

        def body(y, f, o):
            _dot(lap, y, o)
            _neg(o, o)

    elif isinstance(spec, SaturatedNet):
        a, kappa = spec.a, np.array(float(spec.kappa))

        def body(y, f, o):
            _tanh(y, tmp)
            _dot(a, tmp, o)
            _mul(kappa, o, o)
            _sub(o, y, o)

    elif isinstance(spec, FriedkinJohnsen):
        lap, theta, anchor = spec.laplacian, spec.theta, spec.anchor
        if not masked:
            anchor_term = theta * anchor
        elif system.frozen_anchor:
            anchor_term = theta * system.frozen_y_anchor
        else:
            anchor_term = None  # theta * h(t, anchor), formed at every stage

        def body(y, f, o):
            _dot(lap, y, o)
            _neg(o, o)
            _mul(theta, y, tmp)
            _sub(o, tmp, o)
            if anchor_term is None:
                scale, offset = f
                _add(anchor, offset, tmp)
                _mul(scale, tmp, tmp)
                _mul(theta, tmp, tmp)
                _add(o, tmp, o)
            else:
                _add(o, anchor_term, o)

    elif pinned:
        body, views = _pinned_body(spec, y.reshape(spec.n_agents + 1, spec.nu))
    else:
        raise TypeError(f"unknown system {type(spec).__name__}")

    outs = itertools.cycle([views(np.empty(size)) for _ in range(STAGE_BUFFERS)])

    def stage(t, z):
        if pinned:
            _copyto(y, z)
            z = y
        f = None
        if factors is not None:
            f = scale, offset = factors(t)
            _add(agents if pinned else z, offset, agents)
            _mul(scale, agents, agents)
            z = y
        o = next(outs)
        body(z, f, *o)
        return o[0]

    return stage


def _flat(o: np.ndarray) -> tuple:
    return (o,)


def _pinned_body(spec: PinnedSync, block: np.ndarray):
    """Stage body of a pinned system over the (n+1, nu) input block, and the
    views of an output array that it writes through."""
    n, nu, drift = spec.n_agents, spec.nu, spec.drift
    lap, r, gains = spec.laplacian, spec.r, spec.pin_gains[:, None]
    states, s = block[:n], block[n]
    work, prod = np.empty((n, nu)), np.empty((n, nu))
    if isinstance(drift, LorenzDrift):
        # Elementwise, so the agent rows and the exosystem row take one pass.
        sigma, rho, beta = (np.array(float(c)) for c in (drift.sigma, drift.rho, drift.beta))
        bx, by, bz = block.T
        col = np.empty(n + 1)

        def drift_rows(agent_rows, exo_row, ox, oy, oz):
            _sub(by, bx, ox)
            _mul(sigma, ox, ox)
            _sub(rho, bz, oy)
            _mul(bx, oy, oy)
            _sub(oy, by, oy)
            _mul(bx, by, oz)
            _mul(beta, bz, col)
            _sub(oz, col, oz)

    elif isinstance(drift, TanhDrift):
        # A row of a matrix product need not round as the vector product
        # does, so the exosystem row is evaluated on its own.
        a_t, b_t = drift.a.T, drift.b.T
        th = np.empty((n + 1, nu))
        th_states, th_s = th[:n], th[n]
        row = np.empty(nu)

        def drift_rows(agent_rows, exo_row):
            _tanh(block, th)
            _dot(states, a_t, agent_rows)
            _dot(th_states, b_t, prod)
            _add(agent_rows, prod, agent_rows)
            _dot(s, a_t, exo_row)
            _dot(th_s, b_t, row)
            _add(exo_row, row, exo_row)

    else:
        raise TypeError(f"unknown drift {type(drift).__name__}")
    columns = isinstance(drift, LorenzDrift)

    def views(o):
        rows = o.reshape(n + 1, nu)
        return (o, rows[:n], rows[n]) + (tuple(rows.T) if columns else ())

    def body(y, f, o, agent_rows, *drift_views):
        drift_rows(agent_rows, *drift_views)
        # (drift - coupling) - pinning, as field_unmasked subtracts them
        _dot(lap, states, work)
        _dot(work, r, prod)
        _sub(agent_rows, prod, agent_rows)
        _sub(states, s, work)
        _dot(work, r, prod)
        _mul(gains, prod, prod)
        _sub(agent_rows, prod, agent_rows)

    return body, views


def estimate_lipschitz_q(
    drift: DriftKind,
    r: np.ndarray,
    box: tuple,
    samples: int,
    seed,
) -> float:
    """Sampled one-sided Lipschitz constant of the drift relative to R.

    Maximizes (x-z)^T (f(x)-f(z)) / ((x-z)^T R (x-z)) over random pairs in the
    box (half of them nearly coincident, to probe the local derivative), then
    inflates the result 20% away from zero-crossing: positive maxima are
    scaled up, negative maxima are shrunk toward zero. Both directions are
    conservative for the synchronization condition, which only gets harder as
    q grows.
    """
    if samples < 2:
        raise ValueError("need at least 2 sample pairs")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = np.random.default_rng(seed)
    nu = drift.dim
    m = int(samples)
    x = rng.uniform(lo, hi, size=(m, nu))
    z = rng.uniform(lo, hi, size=(m, nu))
    near = rng.integers(0, 2, size=m).astype(bool)
    z[near] = np.clip(
        x[near] + 1e-4 * rng.standard_normal((int(near.sum()), nu)), lo, hi
    )
    fx = _drift_batch(drift, x)
    fz = _drift_batch(drift, z)
    d = x - z
    num = np.einsum("ij,ij->i", d, fx - fz)
    den = np.einsum("ij,ij->i", d @ np.asarray(r, dtype=float), d)
    keep = den > 1e-14
    if not np.any(keep):
        raise ValueError("all sampled pairs are degenerate")
    q = float(np.max(num[keep] / den[keep]))
    return q * 1.2 if q >= 0 else q / 1.2
