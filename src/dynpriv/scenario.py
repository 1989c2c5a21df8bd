"""Scenario configs: one typed schema walk, deterministic building, and runs.

A scenario file pins everything a run needs: the graph (inline edges or a
seeded generator), the system kind and its parameters, the mask bank (per
channel or auto-drawn against a privacy level), the initial states, the
integrator grid, and the named verdict checks to enforce. Every randomized
element is seeded, either directly or derived from the top-level seed, so a
config reproduces its artifacts byte for byte.

_SCHEMA gives every key its JSON type and marks the keys that no constructor
defaults as Required; one walk checks a config against it before anything is
built, naming the key path of any misfit or missing key. A builder passes a
section's keys to the constructor that owns them and their defaults.

Nothing here depends on the system kind: the system section is checked
against, built by and judged by the class that dynamics.SYSTEMS names for
its kind (its keys, from_config, verdicts and checks); the checks common to
every run (privacy, mask gap, boundedness, graph) are decided here. A build
rejects any requested check that the scenario cannot decide.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from . import adversary as adv
from . import analysis, masks, netgraph
from .dynamics import FINITE, SEED, SYSTEMS, VECTOR, ByKind, MaskedSystem, Required, ScenarioError
from .masks import MaskBank, MaskKind, MaskParams, check_mask_axioms, privacy_metric
from .netgraph import Digraph
from .solver import IntegratorConfig, integrate

GRAPH_CHECKS = ("irreducible", "weight_balanced", "no_covering")
#: The verdicts that run_simulation decides for every system, each with the
#: Scenario field it needs (None: it is decided on every run).
COMMON_CHECKS = {
    "privacy_floor": "privacy_level",
    "mask_gap_visible": "privacy_level",
    "mask_gap_closes": None,
    "bounded_states": None,
}
RUN_CHECKS = (*dict.fromkeys(k for cls in SYSTEMS.values() for k in cls.checks), *COMMON_CHECKS)
KNOWN_CHECKS = GRAPH_CHECKS + RUN_CHECKS

MASK_GAP_TAIL = 1e-6
BOUNDED_LIMIT = 1e3


POSITIVE = "finite and positive"  # a bound that inf, nan, 0 or -1 would make meaningless
PAIR = "two numbers"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Per schema type: how a message names it, and the test of a value.
_TYPES = {
    None: ("anything", lambda v: True),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    SEED: (SEED, lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0),
    FINITE: (FINITE, lambda v: _is_number(v) and math.isfinite(v)),
    POSITIVE: (POSITIVE, lambda v: _is_number(v) and 0 < v < math.inf),
    PAIR: (PAIR, lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))),
}


class _Section(dict):
    """A section's keys with their compiled schemas, and the keys it must hold."""

    required = frozenset()


def _compiled(schema):
    """schema with each section's Required markers unwrapped into its
    required set, and each kind of a ByKind holding its "kind" key."""
    if isinstance(schema, (tuple, list)):
        return type(schema)(map(_compiled, schema))
    if isinstance(schema, ByKind):
        return ByKind({kind: _compiled({"kind": str, **keys}) for kind, keys in schema.items()})
    if not isinstance(schema, dict):
        return schema
    section = _Section(
        (key, _compiled(item.schema if isinstance(item, Required) else item))
        for key, item in schema.items()
    )
    section.required = frozenset(k for k, item in schema.items() if isinstance(item, Required))
    return section


#: Every key a scenario config may hold, nested as the config is, with the
#: JSON type it accepts: a _TYPES key, None for a value that its constructor
#: checks itself; a dict (or ByKind) of a section's keys; a one-item list for
#: a list of such items; or a tuple of alternatives. Required marks a key that
#: its section must hold. The walk reads it compiled, so it builds no schema.
_SCHEMA = _compiled({
    "name": str,
    "seed": int,
    "graph": Required(ByKind(
        inline={"n": Required(int), "edges": Required(list)},
        cycle={"n": Required(int), "weight": float},
        complete={"n": Required(int), "weight": float},
        erdos_renyi={
            "n": Required(int),
            "p": Required(float),
            "seed": SEED,
            **dict.fromkeys(("symmetric", "require_no_covering"), bool),
            "weight_range": PAIR,
            "max_retries": int,
        },
    )),
    "system": Required(ByKind({kind: cls.keys for kind, cls in SYSTEMS.items()})),
    "x0": Required(VECTOR),
    "mask": ByKind(
        identity={"privacy_level": POSITIVE},
        auto={
            "mask_kind": Required(str),
            "privacy_level": Required(POSITIVE),
            "seed": SEED,
            "rate_range": PAIR,
        },
        explicit={
            "privacy_level": POSITIVE,
            "channels": Required(
                [{"kind": Required(str), **dict.fromkeys(("phi", "sigma", "gamma", "delta", "c"))}]
            ),
        },
    ),
    "integrator": {"method": str, "dt": POSITIVE, "t_final": POSITIVE, "record_stride": int},
    "checks": [str],
    "tolerances": {"tol_conv": POSITIVE},
    "sync_condition": {"box": Required(PAIR), "samples": int, "seed": SEED},
    # observer and target are checked against the graph, with their own message
    "adversary": {
        "observer": Required(),
        "target": Required(),
        "policies": [str],
        "settle_tol": POSITIVE,
    },
})

_GRAPH_BUILDERS = dict(
    inline="build_graph", cycle="cycle_graph", complete="complete_graph", erdos_renyi="erdos_renyi"
)


def _shape(schema) -> tuple:
    """How a message names the JSON shape that schema accepts, and its test."""
    if isinstance(schema, tuple):
        shapes = [_shape(s) for s in schema]
        return " or ".join(n for n, _ in shapes), lambda v: any(fits(v) for _, fits in shapes)
    if isinstance(schema, (dict, list)):
        schema = dict if isinstance(schema, dict) else list
    return _TYPES[schema]


def _walk(value, schema, path: str = "") -> None:
    """Raise ScenarioError naming the key path of the first value that does
    not fit its compiled schema: a section that is not an object, an unknown
    kind, an unknown key, a value of the wrong JSON type, or a missing key."""
    if isinstance(schema, tuple):  # the first alternative whose shape fits
        schema = next((s for s in schema if _shape(s)[1](value)), schema)
    name, fits = _shape(schema)
    if not fits(value):
        raise ScenarioError(f"{path or 'config'} must be {name}, got {value!r}")
    if isinstance(schema, list):
        for i, item in enumerate(value):
            _walk(item, schema[0], f"{path}[{i}]")
    elif isinstance(schema, dict):
        if isinstance(schema, ByKind):
            if "kind" not in value:
                raise ScenarioError(f"{path}.kind is required")
            kind = value["kind"]
            if not isinstance(kind, str) or kind not in schema:
                raise ScenarioError(f"unknown {path.rsplit('.', 1)[-1]} kind {kind!r}")
            schema = schema[kind]
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if key not in schema:
                raise ScenarioError(f"unknown config key {where!r}")
            _walk(item, schema[key], where)
        missing = schema.required - value.keys()
        if missing:
            key = next(k for k in schema if k in missing)  # the first in schema order
            raise ScenarioError(f"{path}.{key} is required" if path else f"{key} is required")


def config_hash(config: dict) -> str:
    """SHA-256 of the canonicalized config bytes."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def _element_seed(config: dict, element: dict, role: str):
    """A randomized element's own seed, else one derived from the top-level one."""
    if "seed" in element:
        return element["seed"]
    if "seed" not in config:
        raise ScenarioError(f"randomized element {role!r} needs a seed (own or top-level)")
    digest = hashlib.sha256(f"{config['seed']}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully built, immutable run description."""

    name: str
    config: dict
    hash: str
    graph: Digraph
    system: object
    bank: MaskBank
    x0: np.ndarray
    s0: Optional[np.ndarray]
    integrator: IntegratorConfig
    checks: tuple
    privacy_level: Optional[float]
    tol_conv: float
    sync_condition: Optional[dict]  # the block, its defaults and seed filled in
    adversary: Optional[dict]  # the adversary block, its defaults filled in


def _build_graph(config: dict, spec: dict) -> Digraph:
    """The graph from the builder its kind names, called with the section's
    keys and, for a random kind, its seed. The builder is looked up in netgraph
    at call time, so that a wrapper set there sees the call."""
    kind = spec["kind"]
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    if "seed" in _SCHEMA["graph"][kind]:
        kwargs["seed"] = _element_seed(config, spec, "graph")
    try:
        return getattr(netgraph, _GRAPH_BUILDERS[kind])(**kwargs)
    except RuntimeError as exc:  # retries exhausted
        raise ScenarioError(f"graph: {exc}") from exc


def _sample_vector(config: dict, spec: dict, size: int, role: str) -> np.ndarray:
    kind = spec["kind"]
    if kind == "inline":
        vec = np.asarray(spec["values"], dtype=float)
        if vec.shape != (size,):
            raise ScenarioError(f"{role}: expected {size} values, got {vec.shape}")
        return vec
    rng = np.random.default_rng(_element_seed(config, spec, role))
    if kind == "uniform":
        return rng.uniform(spec["low"], spec["high"], size=size)
    return rng.normal(spec.get("mean", 0.0), spec["std"], size=size)


def _build_bank(config: dict, dim: int, x0: np.ndarray) -> MaskBank:
    spec = config.get("mask", {"kind": "identity"})
    kind = spec["kind"]
    if kind == "identity":
        return MaskBank.identity(dim)
    if kind == "auto":
        mask_kind, seed = MaskKind(spec["mask_kind"]), _element_seed(config, spec, "mask")
        rate_range = spec.get("rate_range", masks.DEFAULT_RATE_RANGE)
        return MaskBank.auto(mask_kind, float(spec["privacy_level"]), x0, seed, rate_range)
    channels = []
    for ch in spec["channels"]:
        params = {k: v for k, v in ch.items() if k != "kind"}
        channels.append((MaskKind(ch["kind"]), MaskParams(**params)))
    if len(channels) != dim:
        raise ScenarioError(f"mask bank has {len(channels)} channels, state needs {dim}")
    return MaskBank(channels)


def _build_adversary(spec: dict, graph: Digraph) -> dict:
    """The adversary block with its defaults filled in. observer and target
    must be integer nodes, the target must lie in the observer's closed
    in-neighborhood, and every policy must be a substitution policy."""
    for key in ("observer", "target"):
        node = spec[key]
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
    return {**spec, "policies": policies, "settle_tol": spec.get("settle_tol", adv.SETTLE_TOL)}


def build_scenario(config: dict) -> Scenario:
    """Validate a config dict and build every run ingredient deterministically."""
    try:
        _walk(config, _SCHEMA)
        name = config.get("name", "scenario")
        if name in ("", ".", "..") or "/" in name or "\0" in name:  # a directory under --out
            raise ScenarioError(f"name must be one plain path component, got {name!r}")
        graph = _build_graph(config, config["graph"])
        spec = config["system"]
        dim = graph.n * spec.get("nu", 1)  # only a kind of vector agents takes nu
        vector = functools.partial(_sample_vector, config)
        x0 = vector(config["x0"], dim, "x0")
        system = SYSTEMS[spec["kind"]].from_config(spec, graph, x0, vector)
        lam = config.get("mask", {}).get("privacy_level")
        bank = _build_bank(config, dim, x0)
        s0 = None if system.drift is None else vector(spec["s0"], system.nu, "s0")
        checks = tuple(config.get("checks", ()))
        for chk in checks:
            if chk not in KNOWN_CHECKS:
                raise ScenarioError(f"unknown check {chk!r}")
        cond = config.get("sync_condition")
        if cond is not None:  # the Lipschitz sampling box, and estimate_lipschitz_q's floor
            box, samples = cond["box"], cond.get("samples", 4000)
            if not -math.inf < box[0] < box[1] < math.inf:
                raise ScenarioError(f"sync_condition.box must be finite lo < hi, got {box}")
            if samples < 2:
                raise ScenarioError(f"sync_condition.samples must be >= 2, got {samples}")
            seed = _element_seed(config, cond, "sync_condition")
            cond = {"box": box, "samples": samples, "seed": seed}
        adversary = config.get("adversary")
        if adversary is not None:
            if system.attack_row is None:  # the eavesdropper would attack a wrong model
                raise ScenarioError(f"adversary: system kind {system.kind!r} has no attack row")
            adversary = _build_adversary(adversary, graph)
        try:
            integrator = IntegratorConfig(**config.get("integrator", {}))
        except ValueError as exc:
            raise ScenarioError(f"integrator: {exc}") from exc
        sc = Scenario(
            name=name,
            config=config,
            hash=config_hash(config),
            graph=graph,
            system=system,
            bank=bank,
            x0=x0,
            s0=s0,
            integrator=integrator,
            checks=checks,
            # as floats, so that an integer in the config writes the same report
            privacy_level=None if lam is None else float(lam),
            tol_conv=float(config.get("tolerances", {}).get("tol_conv", system.tol_conv)),
            sync_condition=cond,
            adversary=adversary,
        )
        decidable = {*GRAPH_CHECKS} | {
            k
            for k, needs in {**system.checks, **COMMON_CHECKS}.items()
            if needs is None or getattr(sc, needs) is not None
        }
        inapplicable = [k for k in checks if k not in decidable]
        if inapplicable:
            raise ScenarioError(f"checks not applicable to this scenario: {inapplicable}")
        return sc
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
    report = sc.graph.assumptions
    results = {
        "irreducible": report.irreducible,
        "weight_balanced": report.weight_balanced,
        "no_covering": report.no_covering_holds,
    }
    return {k: results[k] for k in sc.checks if k in results} or results


def covering_violations(sc: Scenario):
    return sc.graph.assumptions.covering_violations


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
    traj = integrate(MaskedSystem(sc.system, sc.bank), sc.x0, sc.integrator, s0=sc.s0)
    report = analysis.DiagnosticsReport(scenario=sc.name, config_hash=sc.hash)
    report.privacy_level = sc.privacy_level
    rho_i, rho = privacy_metric(sc.bank, sc.x0)
    report.rho_per_agent = rho_i.tolist()
    report.rho = rho
    x, y = traj.x, traj.y
    report.mask_gap_initial_min = float(np.abs(y[0] - x[0]).min())
    report.mask_gap_final_max = float(np.abs(y[-1] - x[-1]).max())
    # max |x| without an |x| table; adding 0.0 turns a -0.0 into the +0.0 of |x|
    report.max_abs_state = float(np.maximum(x.max(), -x.min())) + 0.0

    verdicts = sc.system.verdicts(sc, traj, report, tol_conv)
    if sc.privacy_level is not None:
        verdicts["privacy_floor"] = rho > sc.privacy_level
        verdicts["mask_gap_visible"] = report.mask_gap_initial_min >= sc.privacy_level
    verdicts["mask_gap_closes"] = report.mask_gap_final_max < MASK_GAP_TAIL
    verdicts["bounded_states"] = report.max_abs_state < BOUNDED_LIMIT

    verdicts.update(run_graph_checks(sc))
    report.verdicts = {k: bool(verdicts[k]) for k in sc.checks}
    return traj, report
