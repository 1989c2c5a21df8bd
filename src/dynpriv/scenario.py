"""Scenario configs: JSON schema parsing, deterministic building, and runs.

A scenario file pins everything a run needs: the graph (inline edges or a
seeded generator), the system kind and its parameters, the mask bank (per
channel or auto-drawn against a privacy level), the initial states, the
integrator grid, and the named verdict checks to enforce. Every randomized
element is seeded, either directly or derived from the top-level seed, so a
config reproduces its artifacts byte for byte.

Nothing here depends on the system kind: the system section is checked
against, built by and judged by the class that dynamics.SYSTEMS names for
its kind (its keys, from_config and verdicts); the checks common to every
run (privacy, mask gap, boundedness, graph) are decided here.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from . import adversary as adv
from . import analysis, netgraph
from .dynamics import SYSTEMS, VECTOR, ByKind, MaskedSystem, ScenarioError, lookup_kind
from .masks import MaskBank, MaskKind, MaskParams, check_mask_axioms, privacy_metric
from .netgraph import AssumptionReport, Digraph
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

MASK_GAP_TAIL = 1e-6
BOUNDED_LIMIT = 1e3


#: Every key a scenario config may hold, nested as the config is; None marks
#: a value whose inner structure is not a keyed section, and a one-item list
#: the schema of each item of a list.
_SCHEMA = {
    "name": None,
    "seed": None,
    "graph": ByKind(
        inline={"n": None, "edges": None},
        cycle={"n": None, "weight": None},
        complete={"n": None, "weight": None},
        erdos_renyi=dict.fromkeys(
            ("n", "p", "seed", "symmetric", "weight_range", "require_no_covering", "max_retries")
        ),
    ),
    "system": ByKind({kind: cls.keys for kind, cls in SYSTEMS.items()}),
    "x0": VECTOR,
    "mask": ByKind(
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
    if isinstance(schema, ByKind):
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
    adversary: Optional[dict]  # the adversary block, its defaults filled in

    def masked(self) -> MaskedSystem:
        return MaskedSystem(base=self.system, bank=self.bank, frozen_anchor=self.frozen_anchor)

    def element_seed(self, element: dict, role: str):
        """Seed of a randomized config element: its own, else derived."""
        return _element_seed(self.config, element, role)


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


def _build_adversary(block, graph: Digraph) -> dict:
    """The adversary block with its defaults filled in. observer and target
    must be integer nodes, the target must lie in the observer's closed
    in-neighborhood, and every policy must be a substitution policy."""
    spec = {key: block[key] for key in _SCHEMA["adversary"] if key in block}
    settle_tol = _finite_positive(spec.get("settle_tol", 1e-6), "adversary.settle_tol")
    for key in ("observer", "target"):
        node = spec.get(key)
        if isinstance(node, bool) or not isinstance(node, int) or not 0 <= node < graph.n:
            raise ScenarioError(f"adversary.{key} must be an integer in [0, {graph.n}), got {node!r}")
    observer, target = spec["observer"], spec["target"]
    if target not in graph.closed_in_neighborhood(observer):
        raise ScenarioError(
            f"adversary.target {target} is not in the closed in-neighborhood of observer {observer}"
        )
    policies = tuple(spec.get("policies", adv.SUBSTITUTION_POLICIES))
    for policy in policies:
        if policy not in adv.SUBSTITUTION_POLICIES:
            raise ScenarioError(f"adversary.policies: unknown substitution policy {policy!r}")
    return {"observer": observer, "target": target, "policies": policies, "settle_tol": settle_tol}


def build_scenario(config: dict) -> Scenario:
    """Validate a config dict and build every run ingredient deterministically."""
    try:
        _check_keys(config, _SCHEMA)
        name = config.get("name", "scenario")
        graph = _build_graph(config, config["graph"])
        spec = config["system"]
        kind = spec["kind"]
        dim = graph.n * int(spec.get("nu", 1))  # only a kind of vector agents takes nu
        vector = functools.partial(_sample_vector, config)
        x0 = vector(config["x0"], dim, "x0")
        system = lookup_kind(SYSTEMS, kind, "system").from_config(spec, graph, x0, vector)
        lam = config.get("mask", {}).get("privacy_level")
        if lam is not None:
            lam = _finite_positive(lam, "mask.privacy_level")
        bank = _build_bank(config, dim, x0)
        s0 = None if system.drift is None else vector(spec["s0"], system.nu, "s0")
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
        adversary = config.get("adversary")
        if adversary is not None:
            adversary = _build_adversary(adversary, graph)
        tols = config.get("tolerances", {})
        return Scenario(
            name=name,
            config=config,
            hash=config_hash(config),
            graph=graph,
            assumptions=graph.assumptions,
            system=system,
            bank=bank,
            x0=x0,
            s0=s0,
            integrator=cfg,
            checks=checks,
            privacy_level=lam,
            tol_conv=_finite_positive(tols.get("tol_conv", system.tol_conv), "tolerances.tol_conv"),
            frozen_anchor=bool(spec.get("frozen_anchor", False)),
            sync_condition=config.get("sync_condition"),
            adversary=adversary,
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
    kinds = set(sc.bank.kinds)
    if kinds <= {MaskKind.IDENTITY}:
        # unmasked baseline: nothing to validate beyond well-formedness
        return {"axioms": report.as_dict(), "identity_baseline": True, "ok": True}
    expect_vanishing = kinds <= {MaskKind.ADDITIVE, MaskKind.VANISHING_AFFINE, MaskKind.IDENTITY}
    ok = (
        report.local
        and report.fixed_point_free
        and report.escapes_neighborhoods
        and report.strictly_increasing
        and (report.vanishing or not expect_vanishing)
    )
    return {"axioms": report.as_dict(), "expected_vanishing": expect_vanishing, "ok": ok}


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

    verdicts = sc.system.verdicts(sc, traj, report, tol_conv)
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
