"""Scenario configs: JSON schema parsing, deterministic building, and runs.

A scenario file pins everything a run needs: the graph (inline edges or a
seeded generator), the system kind and its parameters, the mask bank (per
channel or auto-drawn against a privacy level), the initial states, the
integrator grid, and the named verdict checks to enforce. Every randomized
element is seeded, either directly or derived from the top-level seed, so a
config reproduces its artifacts byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from . import analysis, netgraph
from .dynamics import (
    AverageConsensus,
    FriedkinJohnsen,
    LorenzDrift,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    estimate_lipschitz_q,
)
from .masks import MaskBank, MaskKind, MaskParams, check_mask_axioms, privacy_metric
from .netgraph import AssumptionReport, Digraph, laplacian
from .solver import IntegratorConfig, integrate

GRAPH_CHECKS = ("irreducible", "weight_balanced", "no_covering")
RUN_CHECKS = (
    "converged",
    "conservation",
    "output_mean_hidden",
    "vmm_non_monotone",
    "privacy_floor",
    "mask_gap_visible",
    "mask_gap_closes",
    "bounded_states",
    "lmi_margin_negative",
)
KNOWN_CHECKS = GRAPH_CHECKS + RUN_CHECKS

CONSERVATION_TOL = 1e-8
OUTPUT_MEAN_FLOOR = 1e-3
VMM_RISE_FLOOR = 1e-6
MASK_GAP_TAIL = 1e-6
BOUNDED_LIMIT = 1e3


class ScenarioError(ValueError):
    """Config file is inconsistent or incomplete."""


class _ByKind(dict):
    """Schema of a section whose keys depend on its "kind" value."""


_VECTOR = _ByKind(
    inline={"values": None},
    uniform={"low": None, "high": None, "seed": None},
    gaussian={"mean": None, "std": None, "seed": None},
)
#: Every key a scenario config may hold, nested as the config is; None marks
#: a value whose inner structure is not a keyed section, and a one-item list
#: the schema of each item of a list.
_SCHEMA = {
    "name": None,
    "seed": None,
    "graph": _ByKind(
        inline={"n": None, "edges": None},
        cycle={"n": None, "weight": None},
        complete={"n": None, "weight": None},
        erdos_renyi=dict.fromkeys(
            ("n", "p", "seed", "symmetric", "weight_range", "require_no_covering", "max_retries")
        ),
    ),
    "system": _ByKind(
        saturated_net=dict.fromkeys(("kappa", "kappa_over_radius", "enforce_stable")),
        friedkin_johnsen={"theta": _VECTOR, "frozen_anchor": None},
        average_consensus={},
        pinned_sync={
            "nu": None,
            "r": {"kind": None, "rows": None},
            "pin_gains": None,
            "pinned_count": None,
            "pin_gain": None,
            "drift": _ByKind(
                tanh={"a": None, "b": None},
                lorenz=dict.fromkeys(("sigma", "rho", "beta")),
            ),
            "s0": _VECTOR,
        },
    ),
    "x0": _VECTOR,
    "mask": _ByKind(
        identity={"privacy_level": None},
        auto=dict.fromkeys(("mask_kind", "privacy_level", "seed", "rate_range")),
        explicit={
            "privacy_level": None,
            "channels": [dict.fromkeys(("kind", "phi", "sigma", "gamma", "delta", "c"))],
        },
    ),
    "integrator": dict.fromkeys(("method", "dt", "t_final", "record_stride")),
    "checks": None,
    "tolerances": {"tol_conv": None},
    "sync_condition": dict.fromkeys(("box", "samples", "seed")),
    "adversary": dict.fromkeys(("observer", "target", "policies", "settle_tol")),
}


def _check_keys(spec, schema, path: str = "") -> None:
    """Raise ScenarioError naming the first key path the schema does not know.

    A section of a kind the schema does not list is left to its builder,
    which rejects the kind itself.
    """
    if isinstance(schema, list):
        for i, item in enumerate(spec if isinstance(spec, list) else ()):
            _check_keys(item, schema[0], f"{path}[{i}]")
        return
    if schema is None or not isinstance(spec, dict):
        return
    if isinstance(schema, _ByKind):
        if spec.get("kind") not in schema:
            return
        schema = {"kind": None, **schema[spec["kind"]]}
    for key, value in spec.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ScenarioError(f"unknown config key {where!r}")
        _check_keys(value, schema[key], where)


def config_hash(config: dict) -> str:
    """SHA-256 of the canonicalized config bytes."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def _derived_seed(config: dict, role: str):
    top = config.get("seed")
    if top is None:
        raise ScenarioError(f"randomized element {role!r} needs a seed (own or top-level)")
    digest = hashlib.sha256(f"{top}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _element_seed(config: dict, element: dict, role: str):
    return element["seed"] if "seed" in element else _derived_seed(config, role)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully built, immutable run description."""

    name: str
    config: dict
    hash: str
    graph: Digraph
    assumptions: AssumptionReport
    system: object
    bank: MaskBank
    x0: np.ndarray
    s0: Optional[np.ndarray]
    integrator: IntegratorConfig
    checks: tuple
    privacy_level: Optional[float]
    tol_conv: float
    frozen_anchor: bool
    sync_condition: Optional[dict]
    adversary: Optional[dict]

    def masked(self) -> MaskedSystem:
        return MaskedSystem(base=self.system, bank=self.bank, frozen_anchor=self.frozen_anchor)


def _finite_positive(value, key: str) -> float:
    """value as a float; a non-finite or non-positive one is a ScenarioError
    naming key."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ScenarioError(f"{key} must be finite and positive, got {value!r}")
    return value


def _build_graph(config: dict, spec: dict) -> Digraph:
    kind = spec.get("kind")
    if kind == "inline":
        return netgraph.build_graph(spec["n"], spec["edges"])
    if kind == "cycle":
        return netgraph.cycle_graph(spec["n"], spec.get("weight", 1.0))
    if kind == "complete":
        return netgraph.complete_graph(spec["n"], spec.get("weight", 1.0))
    if kind == "erdos_renyi":
        try:
            return netgraph.erdos_renyi(
                spec["n"],
                spec["p"],
                seed=_element_seed(config, spec, "graph"),
                symmetric=spec.get("symmetric", False),
                weight_range=tuple(spec.get("weight_range", (1.0, 1.0))),
                require_no_covering=spec.get("require_no_covering", True),
                max_retries=spec.get("max_retries", 100),
            )
        except RuntimeError as exc:  # retries exhausted; the message names n, p and the count
            raise ScenarioError(f"graph: {exc}") from exc
    raise ScenarioError(f"unknown graph kind {kind!r}")


def _sample_vector(config: dict, spec: dict, size: int, role: str) -> np.ndarray:
    kind = spec.get("kind")
    if kind == "inline":
        vec = np.asarray(spec["values"], dtype=float)
        if vec.shape != (size,):
            raise ScenarioError(f"{role}: expected {size} values, got {vec.shape}")
        return vec
    rng = np.random.default_rng(_element_seed(config, spec, role))
    if kind == "uniform":
        return rng.uniform(spec["low"], spec["high"], size=size)
    if kind == "gaussian":
        return rng.normal(spec.get("mean", 0.0), spec["std"], size=size)
    raise ScenarioError(f"unknown {role} kind {kind!r}")


def _build_theta(config: dict, spec: dict, n: int) -> np.ndarray:
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    return _sample_vector(config, spec, n, "theta")


def _build_drift(spec: dict):
    kind = spec.get("kind")
    if kind == "tanh":
        return TanhDrift(a=np.asarray(spec["a"], dtype=float), b=np.asarray(spec["b"], dtype=float))
    if kind == "lorenz":
        return LorenzDrift(
            sigma=spec.get("sigma", 10.0),
            rho=spec.get("rho", 28.0),
            beta=spec.get("beta", 8.0 / 3.0),
        )
    raise ScenarioError(f"unknown drift kind {kind!r}")


def _build_system(config: dict, graph: Digraph, x0: np.ndarray):
    spec = config["system"]
    kind = spec.get("kind")
    if kind == "saturated_net":
        a = netgraph.adjacency(graph)
        if "kappa" in spec:
            kappa = float(spec["kappa"])
        elif "kappa_over_radius" in spec:
            kappa = float(spec["kappa_over_radius"]) / netgraph.spectral_radius(a)
        else:
            raise ScenarioError("saturated_net needs kappa or kappa_over_radius")
        return SaturatedNet(a=a, kappa=kappa, enforce_stable=spec.get("enforce_stable", False))
    if kind == "friedkin_johnsen":
        theta = _build_theta(config, spec["theta"], graph.n)
        return FriedkinJohnsen(laplacian=laplacian(graph), theta=theta, anchor=x0)
    if kind == "average_consensus":
        return AverageConsensus(laplacian=laplacian(graph))
    if kind == "pinned_sync":
        nu = int(spec["nu"])
        r_spec = spec.get("r", {"kind": "identity"})
        if r_spec.get("kind") == "identity":
            r = np.eye(nu)
        else:
            r = np.asarray(r_spec["rows"], dtype=float)
        if "pin_gains" in spec:
            gains = np.asarray(spec["pin_gains"], dtype=float)
        else:
            gains = np.zeros(graph.n)
            gains[: int(spec["pinned_count"])] = float(spec["pin_gain"])
        return PinnedSync(
            laplacian=laplacian(graph),
            r=r,
            pin_gains=gains,
            drift=_build_drift(spec["drift"]),
            nu=nu,
        )
    raise ScenarioError(f"unknown system kind {kind!r}")


def _build_bank(config: dict, dim: int, x0: np.ndarray) -> MaskBank:
    spec = config.get("mask", {"kind": "identity"})
    kind = spec.get("kind")
    if kind == "identity":
        return MaskBank.identity(dim)
    if kind == "auto":
        mask_kind = MaskKind(spec["mask_kind"])
        return MaskBank.auto(
            mask_kind,
            float(spec["privacy_level"]),
            x0,
            seed=_element_seed(config, spec, "mask"),
            rate_range=tuple(spec.get("rate_range", (0.5, 2.0))),
        )
    if kind == "explicit":
        channels = []
        for ch in spec["channels"]:
            params = {k: v for k, v in ch.items() if k != "kind"}
            channels.append((MaskKind(ch["kind"]), MaskParams(**params)))
        if len(channels) != dim:
            raise ScenarioError(f"mask bank has {len(channels)} channels, state needs {dim}")
        return MaskBank(channels)
    raise ScenarioError(f"unknown mask kind {kind!r}")


def build_scenario(config: dict) -> Scenario:
    """Validate a config dict and build every run ingredient deterministically."""
    try:
        _check_keys(config, _SCHEMA)
        name = config.get("name", "scenario")
        graph = _build_graph(config, config["graph"])
        system_kind = config["system"]["kind"]
        nu = int(config["system"]["nu"]) if system_kind == "pinned_sync" else 1
        dim = graph.n * nu
        x0 = _sample_vector(config, config["x0"], dim, "x0")
        system = _build_system(config, graph, x0)
        lam = config.get("mask", {}).get("privacy_level")
        if lam is not None:
            lam = _finite_positive(lam, "mask.privacy_level")
        bank = _build_bank(config, dim, x0)
        s0 = None
        if system_kind == "pinned_sync":
            s0 = _sample_vector(config, config["system"]["s0"], nu, "s0")
        integ = config.get("integrator", {})
        cfg = IntegratorConfig(
            method=integ.get("method", "rk4"),
            dt=float(integ.get("dt", 1e-3)),
            t_final=float(integ.get("t_final", 50.0)),
            record_stride=int(integ.get("record_stride", 1)),
        )
        checks = tuple(config.get("checks", ()))
        for chk in checks:
            if chk not in KNOWN_CHECKS:
                raise ScenarioError(f"unknown check {chk!r}")
        tols = config.get("tolerances", {})
        default_tol = 1e-2 if system_kind == "pinned_sync" else 1e-3
        return Scenario(
            name=name,
            config=config,
            hash=config_hash(config),
            graph=graph,
            assumptions=netgraph.check_no_covering(graph),
            system=system,
            bank=bank,
            x0=x0,
            s0=s0,
            integrator=cfg,
            checks=checks,
            privacy_level=lam,
            tol_conv=_finite_positive(tols.get("tol_conv", default_tol), "tolerances.tol_conv"),
            frozen_anchor=bool(config["system"].get("frozen_anchor", False)),
            sync_condition=config.get("sync_condition"),
            adversary=config.get("adversary"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid scenario config: {exc}") from exc


def override_seed(config: dict, seed) -> dict:
    """Force every randomized element to re-derive from a new top-level seed."""
    config = json.loads(json.dumps(config))
    config["seed"] = seed
    for key in ("graph", "x0", "mask", "sync_condition"):
        if isinstance(config.get(key), dict):
            config[key].pop("seed", None)
    system = config.get("system", {})
    for key in ("theta", "s0"):
        if isinstance(system.get(key), dict):
            system[key].pop("seed", None)
    return config


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def bundled_names():
    pkg = resources.files("dynpriv") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> dict:
    pkg = resources.files("dynpriv") / "scenarios" / f"{name}.json"
    with pkg.open() as fh:
        return json.load(fh)


def run_graph_checks(sc: Scenario) -> dict:
    """Structural validations; keys are the graph check names."""
    report = sc.assumptions
    results = {
        "irreducible": report.irreducible,
        "weight_balanced": report.weight_balanced,
        "no_covering": report.no_covering_holds,
    }
    return {k: results[k] for k in sc.checks if k in results} or results


def covering_violations(sc: Scenario):
    return sc.assumptions.covering_violations


def run_mask_check(sc: Scenario) -> dict:
    """Mask-axiom verification on a canonical grid, no integration."""
    rate = sc.bank.min_decay_rate()
    horizon = 50.0 / rate if np.isfinite(rate) else 1.0
    times = np.linspace(0.0, horizon, 121)
    states = np.array([-5.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
    report = check_mask_axioms(sc.bank, times, states)
    if all(k is MaskKind.IDENTITY for k in sc.bank.kinds):
        # unmasked baseline: nothing to validate beyond well-formedness
        return {"axioms": report.as_dict(), "identity_baseline": True, "ok": True}
    expect_vanishing = all(
        k in (MaskKind.ADDITIVE, MaskKind.VANISHING_AFFINE, MaskKind.IDENTITY)
        for k in sc.bank.kinds
    )
    ok = (
        report.local
        and report.fixed_point_free
        and report.escapes_neighborhoods
        and report.strictly_increasing
        and (report.vanishing or not expect_vanishing)
    )
    return {"axioms": report.as_dict(), "expected_vanishing": expect_vanishing, "ok": ok}


def _pinning_margin(sc: Scenario):
    """Sampled one-sided Lipschitz constant and feasibility margin, if configured."""
    if sc.sync_condition is None:
        return None, None
    cond = sc.sync_condition
    box_lo, box_hi = cond["box"]
    nu = sc.system.nu
    q = estimate_lipschitz_q(
        sc.system.drift,
        sc.system.r,
        (np.full(nu, float(box_lo)), np.full(nu, float(box_hi))),
        samples=int(cond.get("samples", 4000)),
        seed=_element_seed(sc.config, cond, "sync_condition"),
    )
    xi = netgraph.left_null_vector(sc.system.laplacian)
    margin = analysis.check_pinning_condition(
        sc.system.laplacian, sc.system.r, sc.system.pin_gains, xi, q
    )
    return q, margin


def run_simulation(sc: Scenario, tol_override: Optional[float] = None):
    """Integrate the masked scenario and assemble the diagnostics report."""
    tol_conv = tol_override if tol_override is not None else sc.tol_conv
    traj = integrate(sc.masked(), sc.x0, sc.integrator, s0=sc.s0)
    report = analysis.DiagnosticsReport(scenario=sc.name, config_hash=sc.hash)
    report.privacy_level = sc.privacy_level
    rho_i, rho = privacy_metric(sc.bank, sc.x0)
    report.rho_per_agent = rho_i.tolist()
    report.rho = rho
    gaps = analysis.mask_gap_series(traj)
    report.mask_gap_initial_min = float(gaps[0].min())
    report.mask_gap_final_max = float(gaps[-1].max())
    report.max_abs_state = float(np.max(np.abs(traj.x)))

    system = sc.system
    verdicts = {}
    x_star = None
    if isinstance(system, SaturatedNet):
        x_star = np.zeros(system.dim)
        report.x_star = x_star.tolist()
    elif isinstance(system, FriedkinJohnsen):
        x_star = analysis.fj_equilibrium(system.laplacian, system.theta, system.anchor)
        report.x_star = x_star.tolist()
    elif isinstance(system, AverageConsensus):
        eta = analysis.consensus_value(sc.x0)
        report.eta = eta
        x_star = np.full(system.dim, eta)
        mean_x, mean_y = analysis.conservation_series(traj)
        report.conservation_dev = float(np.max(np.abs(mean_x - eta)))
        report.output_mean_range = float(mean_y.max() - mean_y.min())
        report.vmm_max_increase = analysis.max_increase(analysis.vmm_series(traj))
        verdicts["conservation"] = report.conservation_dev <= CONSERVATION_TOL
        verdicts["output_mean_hidden"] = report.output_mean_range > OUTPUT_MEAN_FLOOR
        verdicts["vmm_non_monotone"] = report.vmm_max_increase > VMM_RISE_FLOOR
    elif isinstance(system, PinnedSync):
        max_err, _full = analysis.sync_error_series(traj, system.nu)
        report.sync_error_final = float(max_err[-1])
        verdicts["converged"] = report.sync_error_final < tol_conv
        q, margin = _pinning_margin(sc)
        if margin is not None:
            report.lmi_margin = margin
            verdicts["lmi_margin_negative"] = margin < 0
    if x_star is not None:
        check = analysis.attractor_verdicts(traj, x_star, tol_conv)
        report.final_error = check.final_error
        verdicts["converged"] = check.converged

    if sc.privacy_level is not None:
        verdicts["privacy_floor"] = rho > sc.privacy_level
        verdicts["mask_gap_visible"] = report.mask_gap_initial_min >= sc.privacy_level
    verdicts["mask_gap_closes"] = report.mask_gap_final_max < MASK_GAP_TAIL
    verdicts["bounded_states"] = report.max_abs_state < BOUNDED_LIMIT

    graph_results = run_graph_checks(sc)
    verdicts.update(graph_results)
    missing = [k for k in sc.checks if k not in verdicts]
    if missing:
        raise ScenarioError(f"checks not applicable to this scenario: {missing}")
    report.verdicts = {k: bool(verdicts[k]) for k in sc.checks}
    return traj, report
