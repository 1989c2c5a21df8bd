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
rejects any requested check that the scenario cannot decide, and a graph,
or an eavesdropper's columns, above FOOTPRINT_CAP before either is
allocated. simulate and adversary both step a run through windows.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from . import adversary as adv
from . import analysis, masks, netgraph
from .dynamics import (
    FINITE,
    SEED,
    SYSTEMS,
    VECTOR,
    ByKind,
    MaskedSystem,
    Required,
    ScenarioError,
    estimate_lipschitz_q,
)
from .masks import MaskBank, MaskKind, check_mask_axioms, privacy_metric
from .netgraph import Digraph
from .solver import IntegratorConfig, Trajectory, integrate, write_csv

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
#: Bytes that one dense n x n graph array, or the eavesdropper's columns,
#: may take; a config above it exits 2 before anything of its size exists.
FOOTPRINT_CAP = 2**30


POSITIVE = "finite and positive"  # a bound that inf, nan, 0 or -1 would make meaningless
PAIR = "two numbers"


def _is_number(value) -> bool:
    """A JSON number that converts to a double. Python compares an int with a
    float exactly, so an int beyond the double range fails without being
    converted (which would raise OverflowError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


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
            "channels": Required([{
                "kind": Required(str),
                **dict.fromkeys(("phi", "sigma", "gamma", "delta", "c"), FINITE),
            }]),
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
    sync_condition: Optional[dict]  # a pinned system's block with defaults and seed, xi and q
    adversary: Optional[dict]  # the adversary block, its defaults filled in


def _build_graph(config: dict, spec: dict) -> Digraph:
    """The graph from the builder its kind names, called with the section's
    keys and, for a random kind, its seed. The builder is looked up in netgraph
    at call time, so that a wrapper set there sees the call."""
    kind = spec["kind"]
    for key in ("weight", "weight_range"):  # a node's degree sums up to n of them
        bounds = spec.get(key, [])
        if not all(math.isfinite(spec["n"] * w) for w in (bounds if isinstance(bounds, list) else [bounds])):
            raise ScenarioError(f"graph.{key}: n = {spec['n']} times it must stay finite, got {bounds!r}")
    if spec.get("max_retries", 1) < 1:  # a builder that may try nothing finds no graph
        raise ScenarioError(f"graph.max_retries must be at least 1, got {spec['max_retries']}")
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    if "seed" in _SCHEMA["graph"][kind]:
        kwargs["seed"] = _element_seed(config, spec, "graph")
    try:
        return getattr(netgraph, _GRAPH_BUILDERS[kind])(**kwargs)
    except RuntimeError as exc:  # retries exhausted
        raise ScenarioError(f"graph: {exc}") from exc


def _sample_vector(config: dict, spec: dict, size: int, path: str) -> np.ndarray:
    """The vector section at key path `path`: its inline values, or a draw
    seeded as the path's last key. Bounds whose span overflows, low > high,
    a negative std and a non-finite draw are ScenarioErrors naming the key."""
    kind = spec["kind"]
    if kind == "inline":
        vec = np.asarray(spec["values"], dtype=float)
        if vec.shape != (size,):
            raise ScenarioError(f"{path}: expected {size} values, got {vec.shape}")
        return vec
    rng = np.random.default_rng(_element_seed(config, spec, path.rsplit(".", 1)[-1]))
    if kind == "uniform":
        low, high = spec["low"], spec["high"]
        if not math.isfinite(high - low):
            raise ScenarioError(f"{path}.high - {path}.low must be finite, got {high - low!r}")
        if low > high:
            raise ScenarioError(f"{path}.low must not exceed {path}.high, got {low!r} > {high!r}")
        vec = rng.uniform(low, high, size=size)
    else:
        if spec["std"] < 0:
            raise ScenarioError(f"{path}.std must be non-negative, got {spec['std']!r}")
        vec = rng.normal(spec.get("mean", 0.0), spec["std"], size=size)
    if not np.all(np.isfinite(vec)):
        raise ScenarioError(f"{path}: a {kind} draw is not finite; narrow its parameters")
    return vec


def _build_bank(config: dict, dim: int, x0: np.ndarray) -> MaskBank:
    spec = config.get("mask", {"kind": "identity"})
    kind = spec["kind"]
    if kind == "identity":
        return MaskBank.identity(dim)
    if kind == "auto":
        mask_kind, seed = MaskKind(spec["mask_kind"]), _element_seed(config, spec, "mask")
        rate_range = spec.get("rate_range", masks.DEFAULT_RATE_RANGE)
        if not 0 < rate_range[0] <= rate_range[1] < math.inf:
            raise ScenarioError(f"mask.rate_range must be 0 < lo <= hi < inf, got {rate_range}")
        return MaskBank.auto(mask_kind, float(spec["privacy_level"]), x0, seed, rate_range)
    channels = spec["channels"]
    if len(channels) != dim:
        raise ScenarioError(f"mask bank has {len(channels)} channels, state needs {dim}")
    return MaskBank(channels)


def _build_adversary(spec: dict, graph: Digraph) -> dict:
    """The adversary block with its defaults filled in. observer and target
    must be integer nodes, the target must lie in the observer's closed
    in-neighborhood, and the policies must be one or more substitution policies."""
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
    if not policies:
        raise ScenarioError("adversary.policies must name at least one substitution policy, got []")
    for policy in policies:
        if policy not in adv.SUBSTITUTION_POLICIES:
            raise ScenarioError(f"adversary.policies: unknown substitution policy {policy!r}")
    return {**spec, "policies": policies, "settle_tol": spec.get("settle_tol", adv.SETTLE_TOL)}


def _check_footprint(n: int, nu: int, integrator: IntegratorConfig, adversary: bool) -> None:
    """Raise ScenarioError, naming the key to change, if a dense n x n (graph)
    or nu x nu (coupling, drift) array of doubles, or under an adversary
    block the eavesdropper's n_records rows of the times and at most n
    outputs, would take more than FOOTPRINT_CAP bytes."""
    for key, size in (("graph.n", n), ("system.nu", nu)):
        if 8 * size * size > FOOTPRINT_CAP:
            raise ScenarioError(
                f"{key} = {size} needs {8 * size * size} bytes per dense "
                f"{size} x {size} array, above the cap of {FOOTPRINT_CAP}"
            )
    table = 8 * integrator.n_records * (n + 1)
    if adversary and table > FOOTPRINT_CAP:
        raise ScenarioError(
            f"integrator.record_stride = {integrator.record_stride} records "
            f"{integrator.n_records} rows of up to {n + 1} visible columns, {table} bytes, "
            f"above the cap of {FOOTPRINT_CAP}; raise it or shorten t_final"
        )


def build_scenario(config: dict) -> Scenario:
    """Validate a config dict and build every run ingredient deterministically."""
    try:
        _walk(config, _SCHEMA)
        name = config.get("name", "scenario")
        if name in ("", ".", "..") or "/" in name or "\0" in name:  # a directory under --out
            raise ScenarioError(f"name must be one plain path component, got {name!r}")
        try:
            integrator = IntegratorConfig(**config.get("integrator", {}))
        except ValueError as exc:
            raise ScenarioError(f"integrator: {exc}") from exc
        spec = config["system"]
        _check_footprint(config["graph"]["n"], spec.get("nu", 1), integrator, "adversary" in config)
        graph = _build_graph(config, config["graph"])
        dim = graph.n * spec.get("nu", 1)  # only a kind of vector agents takes nu
        vector = functools.partial(_sample_vector, config)
        x0 = vector(config["x0"], dim, "x0")
        system = SYSTEMS[spec["kind"]].from_config(spec, graph, x0, vector)
        lam = config.get("mask", {}).get("privacy_level")
        bank = _build_bank(config, dim, x0)
        s0 = None if system.drift is None else vector(spec["s0"], system.nu, "system.s0")
        checks = tuple(config.get("checks", ()))
        for chk in checks:
            if chk not in KNOWN_CHECKS:
                raise ScenarioError(f"unknown check {chk!r}")
        cond = config.get("sync_condition")
        if cond is not None:  # the Lipschitz sampling box, and estimate_lipschitz_q's floor
            if system.drift is None:  # the condition bounds the pull towards an exosystem
                raise ScenarioError(f"sync_condition: system kind {system.kind!r} has no exosystem")
            box, samples = cond["box"], cond.get("samples", 4000)
            if not -math.inf < box[0] < box[1] < math.inf:
                raise ScenarioError(f"sync_condition.box must be finite lo < hi, got {box}")
            if samples < 2:
                raise ScenarioError(f"sync_condition.samples must be >= 2, got {samples}")
            if 48 * samples * system.nu > FOOTPRINT_CAP:  # six (samples, nu) arrays
                raise ScenarioError(
                    f"sync_condition.samples = {samples} needs {48 * samples * system.nu} "
                    f"bytes of samples, above the cap of {FOOTPRINT_CAP}"
                )
            seed = _element_seed(config, cond, "sync_condition")
            cond = {"box": box, "samples": samples, "seed": seed}
            try:  # the pinning condition's xi and Lipschitz constant
                cond["xi"] = netgraph.left_null_vector(system.laplacian)
            except ValueError as exc:
                raise ScenarioError(f"sync_condition needs an irreducible graph: {exc}") from exc
            bounds = tuple(np.full(system.nu, float(bound)) for bound in box)
            with np.errstate(over="ignore", invalid="ignore"):
                q = estimate_lipschitz_q(system.drift, system.r, bounds, samples, seed)
            if not math.isfinite(q):
                raise ScenarioError(f"sync_condition.box: the drift is not finite over {box}")
            cond["q"] = q
        adversary = config.get("adversary")
        if adversary is not None:
            if system.attack_row is None:  # the eavesdropper would attack a wrong model
                raise ScenarioError(f"adversary: system kind {system.kind!r} has no attack row")
            adversary = _build_adversary(adversary, graph)
        sc = Scenario(
            name=name,
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


def _unseeded(value, schema):
    """A copy of a JSON value without the keys that its compiled schema
    types SEED; it follows the schema as _walk does. A key or kind the
    schema does not know, and a value of the wrong shape, are kept as they
    are, for the walk to reject what it must."""
    if isinstance(schema, tuple):
        schema = next((s for s in schema if _shape(s)[1](value)), None)
    if isinstance(schema, list) and isinstance(value, list):
        return [_unseeded(item, schema[0]) for item in value]
    if isinstance(schema, ByKind) and isinstance(value, dict):
        kind = value.get("kind")
        schema = schema[kind] if isinstance(kind, str) and kind in schema else None
    if isinstance(schema, dict) and isinstance(value, dict):
        return {
            key: _unseeded(item, schema[key]) if key in schema else item
            for key, item in value.items()
            if schema.get(key) != SEED
        }
    return value


def override_seed(config, seed):
    """A copy of config whose top-level seed is seed and which holds none of
    the nested seed keys that the schema types SEED, so that every
    randomized element re-derives its own from the new one. A seed where
    the schema takes none stays, for the walk to reject. A config that is
    not an object is returned as it is, for the walk to reject too."""
    if not isinstance(config, dict):
        return config
    return {**_unseeded(config, _SCHEMA), "seed": seed}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict, refusing a key that the
    object holds twice: json.load would keep its last value unannounced."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ScenarioError(f"duplicate key {key!r}")
    return obj


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:  # missing, a directory, unreadable
        raise ScenarioError(str(exc)) from exc
    # not JSON, a duplicated key, an int literal past Python's digit limit,
    # or nested too deep
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path} is not a readable JSON config: {exc}") from exc


def bundled_names():
    pkg = resources.files("dynpriv") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> dict:
    return load_config(resources.files("dynpriv") / "scenarios" / f"{name}.json")


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
    """The mask axioms decided on masks.axiom_grid, no integration. They
    are ok when every axiom holds, vanishing only where the gap of every
    kind in the bank vanishes by masks.RULES; an identity bank is the
    unmasked baseline, always ok."""
    axioms, _ = check_mask_axioms(sc.bank, *masks.axiom_grid(sc.bank))
    kinds = set(sc.bank.kinds)
    if kinds <= {MaskKind.IDENTITY}:
        return {"axioms": axioms, "identity_baseline": True, "ok": True}
    expect_vanishing = all(masks.RULES[kind].vanishes for kind in kinds)
    ok = all(holds or (axiom == "vanishing" and not expect_vanishing) for axiom, holds in axioms.items())
    return {"axioms": axioms, "expected_vanishing": expect_vanishing, "ok": ok}


#: Values of joint state per window of a run (see windows).
CHUNK = 8192


def windows(sc: Scenario):
    """The scenario's masked run as (trajectory, masked outputs y) windows,
    y formed by one MaskBank.eval_series call: as many whole record strides
    as CHUNK values of joint state hold (at least one), each stepped by one
    integrate call from the last row of the window before, which it records
    again and which is dropped. So no (n_rec, d) table is formed, and y and
    the series rows are formed a window at a time."""
    system, cfg = MaskedSystem(sc.system, sc.bank), sc.integrator
    width = sc.x0.size + (0 if sc.s0 is None else sc.s0.size)
    span = cfg.record_stride * max(1, CHUNK // width)
    x0, s0 = sc.x0, sc.s0
    for start in range(0, cfg.n_steps, span):
        traj = integrate(system, x0, cfg, s0=s0, start=start, stop=min(start + span, cfg.n_steps))
        if start:
            traj = Trajectory(traj.times[1:], traj.x[1:], None if s0 is None else traj.s[1:])
        x0, s0 = traj.x[-1], (None if s0 is None else traj.s[-1])
        yield traj, sc.bank.eval_series(traj.times, traj.x)


def run_simulation(sc: Scenario, trajectory, series):
    """Reduce each of the scenario's windows as it comes: append its rows to
    the open binary files trajectory and series as the bytes of
    trajectory.csv and of series.csv (each header first), fold each series
    column into its analysis.Summary, and keep the extremes of x. Returns
    (the last window's trajectory, the summaries by column, report); the
    system's verdicts read that window's final row and the summaries."""
    summary, hi, lo = {}, -np.inf, np.inf
    for traj, y in windows(sc):
        traj.to_csv(trajectory, y, header=not summary)
        part = analysis.series_table(traj, y)
        write_csv(series, [] if summary else list(part), tuple(col[:, None] for col in part.values()))
        for name, col in part.items():
            summary.setdefault(name, analysis.Summary()).fold(col)
        hi, lo = np.maximum(hi, traj.x.max()), np.minimum(lo, traj.x.min())
    report = analysis.DiagnosticsReport(scenario=sc.name, config_hash=sc.hash)
    report.privacy_level = sc.privacy_level
    rho_i, rho = privacy_metric(sc.bank, sc.x0)
    report.rho_per_agent = rho_i.tolist()
    report.rho = rho
    report.mask_gap_initial_min = float(summary["gap_min"].first)
    report.mask_gap_final_max = float(summary["gap_max"].last)
    # max |x| without an |x| table; adding 0.0 turns a -0.0 into the +0.0 of |x|
    report.max_abs_state = float(np.maximum(hi, -lo)) + 0.0

    verdicts = sc.system.verdicts(sc, traj, summary, report)
    if sc.privacy_level is not None:
        verdicts["privacy_floor"] = rho > sc.privacy_level
        verdicts["mask_gap_visible"] = report.mask_gap_initial_min >= sc.privacy_level
    verdicts["mask_gap_closes"] = report.mask_gap_final_max < MASK_GAP_TAIL
    verdicts["bounded_states"] = report.max_abs_state < BOUNDED_LIMIT

    verdicts.update(run_graph_checks(sc))
    report.verdicts = {k: bool(verdicts[k]) for k in sc.checks}
    return traj, summary, report
