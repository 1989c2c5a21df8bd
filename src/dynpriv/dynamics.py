"""Case-study vector fields, their masked wrappers, and the kind registry.

Four model families, one class each: a saturated interaction network, the
continuous-time Friedkin-Johnsen opinion model, average consensus on a
weight-balanced digraph, and pinned synchronization of identical vector
agents driven by an exosystem with a TanhDrift or LorenzDrift. The masked
wrapper replaces every transmitted state with its masked output; for
Friedkin-Johnsen the anchor term is masked too (at t, or, in the variant
that its own class selects, frozen at t=0), and for pinned synchronization
the exosystem sample enters the pinning term unmasked.

Each class owns all that varies by kind: its config name `kind`, config
schema `keys` (each key's JSON type) and builder `from_config`; `nu` (1 for
scalar agents), `drift` (None without an exosystem) and default `tol_conv`;
its reference `field` and `through_mask` (the system that the masked outputs
drive); its compiled `stage_body`; its `attractor` (and a pinned
system's pinning condition: `sync_condition`, which forms xi and q at
build, and `pinning_margin`), its `verdicts(sc, traj, series, report)`,
which read the final state, the analysis.Summary of each series column and
the scenario's one tolerance sc.tol_conv, and the `checks` they decide; and the
eavesdropper's `attack_row`, where one is modelled. A drift owns `kind`,
`keys` (its constructor's arguments), its rowwise value `rows` and
`stage_rows(block, out, prod)`. SYSTEMS and DRIFTS are the only maps from a
kind to its class, read only where the schema walk has vetted the kind, so
nothing downstream re-checks the class of a system or drift.

field_unmasked, field_masked and exosystem_field are the readable reference.
A run's joint field (the agents, then a pinned system's exosystem) is the
stage f(row, z, o) that stage_body(bank) binds once: row is the bank's
(scale, offset) pair at the stage time, and f writes dz/dt at z into the
caller's slot o, keeping no reference to it. A stage masks its input with
its own scratch and 0-d gains, and equals field_masked with
exosystem_field appended bit for bit: every element is formed by the same
operations in the same order. A run is always a MaskedSystem; the bare
system runs under MaskBank.identity, its limit system. Consensus and
Friedkin-Johnsen bind -L once, in stage and reference alike: (-L) @ y is
one gemv, equal to -(L @ y) except in the sign of an exactly zero value.
A pinned system decides once whether R is exactly I, and then stage and
reference alike skip both products by R: Y @ I equals Y except in the sign
of an exactly zero value too.

The pinning margin's lambda_max comes from the cyclic Jacobi sweep
jacobi_eigenvalues: np.linalg.eigvalsh rounds the last bits of the bundled
pinning margin differently, and the golden report digests pin them.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import netgraph
from .masks import MaskBank

#: Thresholds of the consensus verdicts.
CONSERVATION_TOL = 1e-8
OUTPUT_MEAN_FLOOR = 1e-3
VMM_RISE_FLOOR = 1e-6
#: Bytes that one dense n x n graph array, the eavesdropper's columns or the
#: Lipschitz samples may take; a config above it exits 2 before they exist.
FOOTPRINT_CAP = 2**30


class ScenarioError(ValueError):
    """Config file is inconsistent or incomplete."""


class ByKind(dict):
    """Schema of a config section whose keys depend on its "kind" value."""


class Required:
    """Schema of a key that its section must hold: no constructor defaults it."""

    def __init__(self, schema=None):
        self.schema = schema


SEED = "a non-negative integer"  # the schema type of a seed that numpy's generators take
FINITE = "a finite number"  # the schema type of a number that no inf or nan may stand for

#: Keys of a vector section (x0, theta, s0): inline values or a seeded draw.
VECTOR = ByKind(
    inline={"values": Required([FINITE])},
    uniform={"low": Required(FINITE), "high": Required(FINITE), "seed": SEED},
    gaussian={"mean": FINITE, "std": Required(FINITE), "seed": SEED},
)


@dataclass(frozen=True, eq=False)
class TanhDrift:
    """Globally Lipschitz drift f(x) = a @ x + b @ tanh(x)."""

    a: np.ndarray
    b: np.ndarray

    kind = "tanh"
    keys = {"a": Required([[FINITE]]), "b": Required([[FINITE]])}

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise ValueError("drift matrices must be square and same shape")
        for name, matrix in (("a", a), ("b", b)):
            if not np.all(np.isfinite(matrix)):
                raise ValueError(f"drift matrix {name} must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def rows(self, states: np.ndarray) -> np.ndarray:
        return states @ self.a.T + np.tanh(states) @ self.b.T

    def stage_rows(self, block: np.ndarray, out: np.ndarray, prod: np.ndarray):
        """A call that writes the drift of the (n+1, nu) block into out,
        with the (n, nu) prod as scratch. A row of a matrix product need not
        round as the vector product does, so the exosystem row is its own."""
        n, nu = block.shape[0] - 1, block.shape[1]
        states, s = block[:n], block[n]
        agent_rows, exo_row = out[:n], out[n]
        a_t, b_t = self.a.T, self.b.T
        th = np.empty((n + 1, nu))
        th_states, th_s = th[:n], th[n]
        row = np.empty(nu)

        def drift_rows():
            _tanh(block, th)
            _dot(states, a_t, agent_rows)
            _dot(th_states, b_t, prod)
            _add(agent_rows, prod, agent_rows)
            _dot(s, a_t, exo_row)
            _dot(th_s, b_t, row)
            _add(exo_row, row, exo_row)

        return drift_rows


@dataclass(frozen=True, eq=False)
class LorenzDrift:
    """Classic Lorenz system; bounded on its attractor but only locally Lipschitz."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    kind = "lorenz"
    keys = dict.fromkeys(("sigma", "rho", "beta"), FINITE)

    @property
    def dim(self) -> int:
        return 3

    def rows(self, states: np.ndarray) -> np.ndarray:
        x, y, z = states.T
        rows = np.array([self.sigma * (y - x), x * (self.rho - z) - y, x * y - self.beta * z])
        return np.ascontiguousarray(rows.T)

    def stage_rows(self, block: np.ndarray, out: np.ndarray, prod: np.ndarray):
        """A call that writes the drift of the (n+1, nu) block into out's
        columns. Elementwise, so agents and exosystem take one pass."""
        sigma, rho, beta = (np.array(float(c)) for c in (self.sigma, self.rho, self.beta))
        bx, by, bz = block.T
        ox, oy, oz = out.T
        col = np.empty(block.shape[0])

        def drift_rows():
            _sub(by, bx, ox)
            _mul(sigma, ox, ox)
            _sub(rho, bz, oy)
            _mul(bx, oy, oy)
            _sub(oy, by, oy)
            _mul(bx, by, oz)
            _mul(beta, bz, col)
            _sub(oz, col, oz)

        return drift_rows


DriftKind = Union[TanhDrift, LorenzDrift]
DRIFTS = {cls.kind: cls for cls in (TanhDrift, LorenzDrift)}


def exosystem_field(drift: DriftKind, s: np.ndarray) -> np.ndarray:
    """Drift value ds/dt at one (nu,) state, or rowwise on an (n, nu) block."""
    return drift.rows(np.asarray(s, dtype=float))


class SystemSpec:
    """Base of the system classes, with the defaults of scalar agents that
    have no exosystem and no anchor."""

    keys = {}
    nu = 1
    drift = None  # the exosystem's drift, if the system has one
    tol_conv = 1e-3
    attack_row = None  # the eavesdropper's model of one agent's integrand, if any
    sync_condition = None  # the build of a sufficient condition for synchronization, if any

    def through_mask(self, bank: MaskBank, scale, offset):
        return self

    #: The verdicts that verdicts() decides, each with the Scenario field it
    #: needs (None: it is decided on every run).
    checks = {"converged": None}

    def verdicts(self, sc, traj, series, report) -> dict:
        """Convergence to attractor(x0), in the infinity norm at T."""
        x_star = self.attractor(sc.x0)
        report.x_star = x_star.tolist()
        report.final_error = float(np.max(np.abs(traj.x[-1] - x_star)))
        return {"converged": report.final_error < sc.tol_conv}


@dataclass(frozen=True, eq=False)
class SaturatedNet(SystemSpec):
    """dx/dt = -x + kappa * A @ tanh(x), A nonnegative with zero diagonal."""

    a: np.ndarray
    kappa: float
    enforce_stable: bool = False
    #: spectral_radius(a) when the caller has solved for it already
    radius: InitVar[Optional[float]] = None

    kind = "saturated_net"
    keys = {"kappa": FINITE, "kappa_over_radius": FINITE, "enforce_stable": bool}

    def __post_init__(self, radius):
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
            if radius is None:
                radius = netgraph.spectral_radius(a)
            if radius <= 0 or self.kappa >= 1.0 / radius:
                raise ValueError("stability requires kappa < 1 / spectral_radius(a)")
        object.__setattr__(self, "a", a)

    @classmethod
    def from_config(cls, spec: dict, graph, x0, vector) -> "SaturatedNet":
        a = graph.a
        radius = None
        if "kappa" in spec:
            kappa = spec["kappa"]
        elif "kappa_over_radius" in spec:
            radius = netgraph.spectral_radius(a)
            if not radius > 0:
                raise ScenarioError(
                    "system.kappa_over_radius needs an adjacency of positive spectral "
                    f"radius, got {radius!r}"
                )
            kappa = spec["kappa_over_radius"] / radius
        else:
            raise ScenarioError("saturated_net needs kappa or kappa_over_radius")
        enforce_stable = spec.get("enforce_stable", False)
        return cls(a=a, kappa=kappa, enforce_stable=enforce_stable, radius=radius)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def field(self, x: np.ndarray, s=None) -> np.ndarray:
        return -x + self.kappa * (self.a @ np.tanh(x))

    def stage_body(self, bank: MaskBank):
        a, kappa = self.a, np.array(float(self.kappa))
        y, tmp = np.empty(self.dim), np.empty(self.dim)

        def body(row, z, o):
            scale, offset = row
            _add(z, offset, y)
            _mul(scale, y, y)
            _tanh(y, tmp)
            _dot(a, tmp, o)
            _mul(kappa, o, o)
            _sub(o, y, o)

        return body

    def attractor(self, x0: np.ndarray) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass(frozen=True, eq=False)
class FriedkinJohnsen(SystemSpec):
    """dx/dt = -(L + Theta) x + Theta anchor; anchor is the initial opinion.

    frozen_anchor selects the (incorrect) masked variant that keeps the
    anchor masked at its t=0 value instead of letting the anchor mask decay;
    it demonstrates convergence to a shifted attractor.
    """

    laplacian: np.ndarray
    theta: np.ndarray
    anchor: np.ndarray
    frozen_anchor: bool = False
    neg_laplacian: np.ndarray = field(init=False, repr=False)  # -L, bound once

    kind = "friedkin_johnsen"
    keys = {"theta": Required((FINITE, VECTOR)), "frozen_anchor": bool}

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        anchor = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        n = lap.shape[0]
        if lap.shape != (n, n) or theta.shape != (n,) or anchor.shape != (n,):
            raise ValueError("inconsistent Friedkin-Johnsen dimensions")
        if np.any(theta < 0) or np.any(theta > 1):
            raise ValueError("susceptibilities must lie in [0, 1]")
        # L + Theta is nonsingular iff every agent is reached from an anchored
        # one along the edges it listens on, so that attractor() can solve it
        reached = netgraph.reached(netgraph.closed_neighborhoods(lap), theta > 0)
        if not reached.all():
            raise ScenarioError(
                f"system.theta: agent {int(np.argmin(reached))} is reached from no agent "
                "of nonzero theta, so L + Theta is singular"
            )
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "neg_laplacian", -lap)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "anchor", anchor)

    @classmethod
    def from_config(cls, spec: dict, graph, x0, vector) -> "FriedkinJohnsen":
        theta = spec["theta"]  # one number for every agent, or a vector section
        if isinstance(theta, dict):
            theta = vector(theta, graph.n, "system.theta")
        return cls(
            laplacian=netgraph.laplacian(graph),
            theta=np.full(graph.n, theta),
            anchor=x0,
            frozen_anchor=spec.get("frozen_anchor", False),
        )

    @property
    def dim(self) -> int:
        return self.laplacian.shape[0]

    def field(self, x: np.ndarray, s=None) -> np.ndarray:
        # np.dot as in the stage: at n=1 @ turns a -0 product into +0
        return np.dot(self.neg_laplacian, x) - self.theta * x + self.theta * self.anchor

    def through_mask(self, bank: MaskBank, scale, offset) -> "FriedkinJohnsen":
        """The anchor is transmitted too: masked at t, or frozen at t=0."""
        if self.frozen_anchor:
            return replace(self, anchor=bank.eval(0.0, self.anchor))
        return replace(self, anchor=scale * (self.anchor + offset))

    def stage_body(self, bank: MaskBank):
        neg_lap, theta, anchor = self.neg_laplacian, self.theta, self.anchor
        y, tmp = np.empty(self.dim), np.empty(self.dim)
        # theta * h(0, anchor) once, or theta * h(t, anchor) at every stage
        anchor_term = theta * bank.eval(0.0, anchor) if self.frozen_anchor else None

        def body(row, z, o):
            scale, offset = row
            _add(z, offset, y)
            _mul(scale, y, y)
            _dot(neg_lap, y, o)
            _mul(theta, y, tmp)
            _sub(o, tmp, o)
            if anchor_term is None:
                _add(anchor, offset, tmp)
                _mul(scale, tmp, tmp)
                _mul(theta, tmp, tmp)
                _add(o, tmp, o)
            else:
                _add(o, anchor_term, o)

        return body

    def attractor(self, x0: np.ndarray) -> np.ndarray:
        """The unique rest point (L + Theta)^{-1} Theta anchor; the
        constructor's reachability check makes L + Theta nonsingular."""
        a = self.laplacian + np.diag(self.theta)
        rhs = self.theta * self.anchor
        x_star = np.linalg.solve(a, rhs)
        residual = np.max(np.abs(a @ x_star - rhs))
        scale = max(1.0, np.max(np.abs(rhs)))
        if residual > 1e-10 * scale:
            raise ValueError(f"equilibrium solve residual {residual:.3e} too large")
        return x_star


@dataclass(frozen=True, eq=False)
class AverageConsensus(SystemSpec):
    """dx/dt = -L x with a weight-balanced Laplacian (conservation of the mean)."""

    laplacian: np.ndarray
    neg_laplacian: np.ndarray = field(init=False, repr=False)  # -L, bound once

    kind = "average_consensus"

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise ValueError("Laplacian must be square")
        # column sums of L, then of L^T, its row sums
        if not (netgraph.is_weight_balanced(lap) and netgraph.is_weight_balanced(lap.T)):
            raise ValueError("consensus needs a weight-balanced Laplacian")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "neg_laplacian", -lap)

    @classmethod
    def from_config(cls, spec: dict, graph, x0, vector) -> "AverageConsensus":
        return cls(laplacian=netgraph.laplacian(graph))

    @property
    def dim(self) -> int:
        return self.laplacian.shape[0]

    def field(self, x: np.ndarray, s=None) -> np.ndarray:
        return np.dot(self.neg_laplacian, x)  # np.dot, as FriedkinJohnsen.field

    def attractor(self, x0: np.ndarray) -> np.ndarray:
        """The constant vector of the initial mean, which -L x conserves."""
        return np.full(self.dim, float(np.mean(x0)))

    def stage_body(self, bank: MaskBank):
        neg_lap, y = self.neg_laplacian, np.empty(self.dim)

        def body(row, z, o):
            scale, offset = row
            _add(z, offset, y)
            _mul(scale, y, y)
            _dot(neg_lap, y, o)

        return body

    def attack_row(self, target: int):
        """The integrand of agent target, f = -sum_k L[target, k] y_k, as a
        function of the output channels, and the channels it needs."""
        row = self.laplacian[target]
        needed = tuple(int(k) for k in np.nonzero(row)[0])

        def row_field(channels: dict) -> np.ndarray:
            total = None
            for k in needed:
                term = -row[k] * channels[k]
                total = term if total is None else total + term
            return total

        return row_field, needed

    checks = dict.fromkeys(("converged", "conservation", "output_mean_hidden", "vmm_non_monotone"))

    def verdicts(self, sc, traj, series, report) -> dict:
        """Convergence to the initial mean, which the states conserve while
        the outputs' mean moves and the spread need not shrink monotonically."""
        x_star = self.attractor(sc.x0)
        report.eta = eta = float(x_star[0])
        report.final_error = float(np.max(np.abs(traj.x[-1] - x_star)))
        # max |mean_x - eta| over the run: rounding is monotone, so the
        # extremes of mean_x give it
        mean_x, mean_y = series["mean_x"], series["mean_y"]
        report.conservation_dev = float(np.maximum(abs(mean_x.max - eta), abs(mean_x.min - eta)))
        report.output_mean_range = float(mean_y.max - mean_y.min)
        # the largest rise max_{t1 < t2} (v(t2) - v(t1)) of the spread v
        report.vmm_max_increase = float(series["spread_x"].rise)
        return {
            "converged": report.final_error < sc.tol_conv,
            "conservation": report.conservation_dev <= CONSERVATION_TOL,
            "output_mean_hidden": report.output_mean_range > OUTPUT_MEAN_FLOOR,
            "vmm_non_monotone": report.vmm_max_increase > VMM_RISE_FLOOR,
        }


#: Largest |R - R^T| entry under which the inner coupling matrix R counts as symmetric.
R_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PinnedSync(SystemSpec):
    """Diffusively coupled identical agents, some pinned to an exosystem.

    dx_i/dt = f(x_i) - sum_j L[i,j] R x_j - p_i R (x_i - s), with R symmetric
    positive definite and p_i >= 0 (positive exactly on the pinned agents).
    """

    laplacian: np.ndarray
    r: np.ndarray
    pin_gains: np.ndarray
    drift: DriftKind = field()  # field() keeps both required over SystemSpec's defaults
    nu: int = field()
    r_identity: bool = field(init=False, repr=False)  # R == I exactly, decided once

    kind = "pinned_sync"
    keys = {
        "nu": Required(int),
        "pinned_count": int,
        "pin_gains": [FINITE],
        "pin_gain": FINITE,
        "r": ByKind(identity={}, explicit={"rows": Required([[FINITE]])}),
        "drift": Required(ByKind({kind: cls.keys for kind, cls in DRIFTS.items()})),
        "s0": Required(VECTOR),
    }
    tol_conv = 1e-2

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        r = np.asarray(self.r, dtype=float)
        p = np.atleast_1d(np.asarray(self.pin_gains, dtype=float))
        n = lap.shape[0]
        if lap.shape != (n, n) or p.shape != (n,):
            raise ValueError("inconsistent pinned-sync dimensions")
        if r.shape != (self.nu, self.nu):
            raise ValueError("inner coupling matrix shape must be (nu, nu)")
        # the one check of R: pinning_margin relies on it, and checks neither
        if np.max(np.abs(r - r.T)) > R_SYMMETRY_TOL:
            raise ValueError("inner coupling matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(r)) <= 0:
            raise ValueError("inner coupling matrix must be positive definite")
        if np.any(p < 0):
            raise ValueError("pinning gains must be nonnegative")
        if self.drift.dim != self.nu:
            raise ValueError("drift dimension must match nu")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_identity", np.array_equal(r, np.eye(self.nu)))
        object.__setattr__(self, "pin_gains", p)

    @classmethod
    def from_config(cls, spec: dict, graph, x0, vector) -> "PinnedSync":
        nu = spec["nu"]
        r = spec.get("r", {}).get("rows", np.eye(nu))  # only an explicit r has rows
        if "pin_gains" in spec:
            gains = spec["pin_gains"]
        elif "pinned_count" not in spec or "pin_gain" not in spec:
            raise ScenarioError("pinned_sync needs pin_gains, or pinned_count and pin_gain")
        else:
            count = spec["pinned_count"]
            if not 0 <= count <= graph.n:
                raise ScenarioError(f"system.pinned_count must be in [0, {graph.n}], got {count}")
            gains = np.zeros(graph.n)
            gains[:count] = spec["pin_gain"]
        drift_spec = spec["drift"]
        drift = DRIFTS[drift_spec["kind"]](**{k: v for k, v in drift_spec.items() if k != "kind"})
        return cls(laplacian=netgraph.laplacian(graph), r=r, pin_gains=gains, drift=drift, nu=nu)

    @property
    def n_agents(self) -> int:
        return self.laplacian.shape[0]

    @property
    def dim(self) -> int:
        return self.n_agents * self.nu

    def field(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        states = x.reshape(self.n_agents, self.nu)
        # np.dot as in the stage: at n=1 @ turns a -0 product into +0
        coupling, offsets = np.dot(self.laplacian, states), states - s[None, :]
        if not self.r_identity:
            coupling, offsets = coupling @ self.r, offsets @ self.r
        pinning = self.pin_gains[:, None] * offsets
        return (exosystem_field(self.drift, states) - coupling - pinning).reshape(-1)

    def stage_body(self, bank: MaskBank):
        """Stage over y as the (n+1, nu) input block. Drift minus coupling
        goes into out, pinning into pin, whose exosystem row stays zero; the
        last call writes out - pin into the slot, and d - 0.0 is d bit for bit.
        At R = I both products by R are skipped, as field skips them."""
        n, nu = self.n_agents, self.nu
        y = np.empty(self.dim + nu)
        lap, r, block, agents = self.laplacian, self.r, y.reshape(n + 1, nu), y[: self.dim]
        # each agent's gain repeated along its row: a contiguous operand costs
        # the multiply less than the broadcast column, with the same products;
        # likewise s, copied onto every row of s_rows before the subtraction
        gains = np.repeat(self.pin_gains[:, None], nu, axis=1)
        states, s = block[:n], block[n]
        out, pin = np.empty((n + 1, nu)), np.zeros((n + 1, nu))
        agent_rows, pin_rows, out_flat, pin_flat = out[:n], pin[:n], out.ravel(), pin.ravel()
        work, prod, s_rows = np.empty((n, nu)), np.empty((n, nu)), np.empty((n, nu))
        drift_rows = self.drift.stage_rows(block, out, prod)
        identity = self.r_identity

        def body(row, z, o):
            _copyto(y, z)
            scale, offset = row
            _add(agents, offset, agents)
            _mul(scale, agents, agents)
            drift_rows()
            # (drift - coupling) - pinning, as field subtracts them; np.dot
            # with out returns out, so prod holds work @ R where R is not I
            _dot(lap, states, work)
            _sub(agent_rows, work if identity else _dot(work, r, prod), agent_rows)
            _copyto(s_rows, s)
            _sub(states, s_rows, work)
            _mul(gains, work if identity else _dot(work, r, prod), pin_rows)
            _sub(out_flat, pin_flat, o)

        return body

    def sync_condition(self, spec: dict, seed) -> dict:
        """The pinning condition's xi, the positive left null vector of L, and
        q, the drift's one-sided Lipschitz constant sampled over the box of
        the sync_condition block spec, seeded by seed(spec, role)."""
        box, samples = spec["box"], spec.get("samples", 4000)
        if not -math.inf < box[0] < box[1] < math.inf:
            raise ScenarioError(f"sync_condition.box must be finite lo < hi, got {box}")
        if samples < 2:  # estimate_lipschitz_q's floor
            raise ScenarioError(f"sync_condition.samples must be >= 2, got {samples}")
        if 48 * samples * self.nu > FOOTPRINT_CAP:  # six (samples, nu) arrays
            raise ScenarioError(
                f"sync_condition.samples = {samples} needs {48 * samples * self.nu} "
                f"bytes of samples, above the cap of {FOOTPRINT_CAP}"
            )
        seed = seed(spec, "sync_condition")
        try:
            xi = netgraph.left_null_vector(self.laplacian)
        except ValueError as exc:
            raise ScenarioError(f"sync_condition needs an irreducible graph: {exc}") from exc
        bounds = tuple(np.full(self.nu, float(bound)) for bound in box)
        with np.errstate(over="ignore", invalid="ignore"):
            q = estimate_lipschitz_q(self.drift, self.r, bounds, samples, seed)
        if not math.isfinite(q):
            raise ScenarioError(f"sync_condition.box: the drift is not finite over {box}")
        return {"xi": xi, "q": q}

    def pinning_margin(self, xi: np.ndarray, q: float) -> float:
        """Feasibility margin of the synchronization condition q*Xi (x) R -
        (0.5*(Xi L + L^T Xi) + Xi P) (x) R < 0, for the positive left null
        vector xi of L and the drift's one-sided Lipschitz constant q.

        With R symmetric positive definite, as the constructor checks, every
        eigenvalue of M (x) R is one of M = q*Xi - 0.5*(Xi L + L^T Xi) - Xi P
        times a positive one of R, so the condition holds iff lambda_max(M),
        the margin, is negative. The Jacobi sweep symmetrises M."""
        xi_mat, lap = np.diag(xi), self.laplacian
        m = q * xi_mat - 0.5 * (xi_mat @ lap + lap.T @ xi_mat) - xi_mat @ np.diag(self.pin_gains)
        return float(np.max(jacobi_eigenvalues(m)))

    checks = {"converged": None, "lmi_margin_negative": "sync_condition"}

    def verdicts(self, sc, traj, series, report) -> dict:
        """Synchronization with the exosystem, and the sign of the pinning
        condition's feasibility margin when the config asks for it."""
        report.sync_error_final = float(series["sync_err_max"].last)
        verdicts = {"converged": report.sync_error_final < sc.tol_conv}
        cond = sc.sync_condition
        if cond is not None:  # xi and q were formed at build, by sync_condition
            report.lmi_margin = self.pinning_margin(cond["xi"], cond["q"])
            verdicts["lmi_margin_negative"] = report.lmi_margin < 0
        return verdicts


SYSTEMS = {cls.kind: cls for cls in (SaturatedNet, FriedkinJohnsen, AverageConsensus, PinnedSync)}


def field_unmasked(
    spec: SystemSpec, t: float, x: np.ndarray, s: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vector field of the bare system; s is required iff the system is pinned."""
    if spec.drift is None:
        if s is not None:
            raise ValueError("exosystem state only applies to pinned synchronization")
    elif s is None:
        raise ValueError("pinned synchronization needs the exosystem state")
    return spec.field(np.asarray(x, dtype=float), s)


@dataclass(frozen=True, eq=False)
class MaskedSystem:
    """A base system whose transmitted states are replaced by masked outputs;
    the bare system is MaskedSystem(spec, MaskBank.identity(spec.dim))."""

    base: SystemSpec
    bank: MaskBank

    def __post_init__(self):
        if self.bank.dim != self.base.dim:
            raise ValueError(
                f"mask bank has {self.bank.dim} channels, system needs {self.base.dim}"
            )


def field_masked(
    ms: MaskedSystem, t: float, x: np.ndarray, s: Optional[np.ndarray] = None
) -> np.ndarray:
    """Masked vector field: the base field evaluated on y = h(t, x), with
    the bank's (scale, offset) factors formed at t."""
    scale, offset = ms.bank.factors(t)
    y = scale * (np.asarray(x, dtype=float) + offset)
    return field_unmasked(ms.base.through_mask(ms.bank, scale, offset), t, y, s)


# Ufuncs bound once as module names: a stage calls them with out passed
# positionally, which skips the attribute lookup and the keyword parse.
# Scalar coefficients are bound as 0-d float64 arrays, which a ufunc takes
# as they are, where it converts a Python float on every call.
_add, _sub, _mul, _tanh, _dot, _copyto = (
    np.add, np.subtract, np.multiply, np.tanh, np.dot, np.copyto
)


def estimate_lipschitz_q(drift: DriftKind, r: np.ndarray, box: tuple, samples: int, seed) -> float:
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
    lo, hi = (np.asarray(bound, dtype=float) for bound in box)
    rng = np.random.default_rng(seed)
    nu = drift.dim
    m = int(samples)
    x = rng.uniform(lo, hi, size=(m, nu))
    z = rng.uniform(lo, hi, size=(m, nu))
    near = rng.integers(0, 2, size=m).astype(bool)
    z[near] = np.clip(x[near] + 1e-4 * rng.standard_normal((int(near.sum()), nu)), lo, hi)
    fx, fz = exosystem_field(drift, x), exosystem_field(drift, z)
    d = x - z
    num = np.einsum("ij,ij->i", d, fx - fz)
    den = np.einsum("ij,ij->i", d @ np.asarray(r, dtype=float), d)
    keep = den > 1e-14
    if not np.any(keep):
        raise ValueError("all sampled pairs are degenerate")
    q = float(np.max(num[keep] / den[keep]))
    return q * 1.2 if q >= 0 else q / 1.2


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
