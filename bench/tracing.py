"""Span tracing for the traced benchmark run.

Every dynpriv function the benchmark cares about is wrapped where its
caller looks it up (a module attribute or a class attribute), so a refactor
that moves a call away from a traced name shows up as a wrapper that never
fired instead of a silent zero. Spans are aggregated in memory per name and
per (parent, child) edge; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

CONSENSUS = "simulate_consensus_n100"
PINNING = "simulate_pinning_lorenz_n50"
CHECKS = "check_seeds_n100"


@dataclass(frozen=True)
class Hook:
    """One traced name: `owner` is a module path, optionally `module:Class`."""

    owner: str
    attr: str
    span: str
    fires_on: frozenset  # workloads on which the wrapper must fire
    count: Optional[Callable] = None  # (args, kwargs, result) -> {counter: n}


def _integrate_counts(args, kwargs, traj):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return {"solver.steps": cfg.n_steps, "solver.rows_recorded": len(traj.times)}


ALL = frozenset({CONSENSUS, PINNING, CHECKS})
SIM = frozenset({CONSENSUS, PINNING})
NONE = frozenset()

# Every workload runs `check`, so the check path must fire everywhere.
HOOKS = (
    Hook("dynpriv.scenario", "build_scenario", "scenario.build", ALL),
    Hook("dynpriv.scenario", "run_graph_checks", "scenario.graph_checks", ALL),
    Hook("dynpriv.scenario", "covering_violations", "scenario.graph_checks", ALL),
    Hook("dynpriv.scenario", "check_mask_axioms", "masks.check_axioms", ALL),
    Hook("dynpriv.scenario", "run_simulation", "analysis.diagnostics", SIM),
    Hook("dynpriv.scenario", "integrate", "solver.integrate", SIM, _integrate_counts),
    Hook("dynpriv.solver", "field_masked", "dynamics.field_masked", SIM),
    # The workloads integrate masked systems only; the solver's unmasked
    # name is wrapped so a field call moved there is still attributed.
    Hook("dynpriv.solver", "field_unmasked", "dynamics.field_unmasked", NONE),
    Hook("dynpriv.dynamics", "field_unmasked", "dynamics.field_unmasked", SIM),
    Hook("dynpriv.solver", "exosystem_field", "dynamics.exosystem_field", frozenset({PINNING})),
    Hook("dynpriv.masks:MaskBank", "eval", "masks.eval", ALL),
    Hook("dynpriv.masks:MaskBank", "eval_series", "masks.eval_series", SIM),
    Hook("dynpriv.solver:Trajectory", "to_csv", "solver.to_csv", SIM),
    Hook("dynpriv.analysis", "series_table", "analysis.series_table", SIM),
    Hook("dynpriv.cli", "_write_artifacts", "cli.write", SIM),
    Hook("dynpriv.netgraph", "erdos_renyi", "netgraph.erdos_renyi", ALL),
    Hook("dynpriv.netgraph", "build_graph", "netgraph.build_graph", ALL),
    Hook("dynpriv.netgraph", "check_no_covering", "netgraph.check_no_covering", ALL),
    Hook("dynpriv.netgraph", "spectral_radius", "netgraph.spectral_radius", frozenset({CHECKS})),
)


@dataclass
class Tracer:
    """Spans aggregated per (parent, name) edge as [calls, seconds].

    One dict update per span keeps the cost of ~600k wrapped calls per
    simulate low; per-name totals and child coverage are derived at the end.
    """

    edges: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    fired: set = field(default_factory=set)  # indices of hooks that ran
    stack: list = field(default_factory=lambda: [None])  # None is the root

    def record(self, name: str, parent: Optional[str], duration: float) -> None:
        acc = self.edges.get((parent, name))
        if acc is None:
            self.edges[(parent, name)] = [1, duration]
        else:
            acc[0] += 1
            acc[1] += duration

    def add(self, counter: str, n) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def summary(self):
        """(total seconds, calls, seconds covered by child spans), per name."""
        total, calls, child = {}, {}, {}
        for (parent, name), (n, seconds) in self.edges.items():
            total[name] = total.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + n
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + seconds
        return total, calls, child

    def self_time(self, name: str) -> float:
        """Span time minus the part of it that child spans cover."""
        total, _, child = self.summary()
        return total.get(name, 0.0) - child.get(name, 0.0)

    def edge_calls(self, parent: str, name: str) -> int:
        return self.edges.get((parent, name), (0, 0.0))[0]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def _wrap(tracer: Tracer, index: int, hook: Hook, original):
    name, stack, record = hook.span, tracer.stack, tracer.record

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        parent = stack[-1]
        stack.append(name)
        start = perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            stack.pop()
            record(name, parent, perf_counter() - start)
        tracer.fired.add(index)
        if hook.count is not None:
            for counter, n in hook.count(args, kwargs, result).items():
                tracer.add(counter, n)
        return result

    return wrapper


class Patched:
    """Context manager that installs every hook on entry and restores on exit.

    A traced name that no longer exists raises at once: the benchmark would
    otherwise report zero for a layer that simply moved.
    """

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.saved = []

    def __enter__(self):
        for index, hook in enumerate(self.hooks):
            owner = _resolve(hook.owner)
            original = getattr(owner, hook.attr, None)
            if not callable(original):
                self.__exit__(None, None, None)
                raise LookupError(f"traced name {hook.owner}.{hook.attr} does not exist")
            self.saved.append((owner, hook.attr, original))
            setattr(owner, hook.attr, _wrap(self.tracer, index, hook, original))
        return self.tracer

    def __exit__(self, *exc):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
        return False


def missing_hooks(tracer: Tracer, workload: str, hooks=HOOKS) -> list:
    """Hooks that should have fired on this workload but did not."""
    return [
        f"{hook.owner}.{hook.attr}"
        for index, hook in enumerate(hooks)
        if workload in hook.fires_on and index not in tracer.fired
    ]


def ratio(num: int, den: int) -> float:
    """num / den, 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from one traced window, keyed by metric name.

    Times are seconds spent in the window. Counts are exact event counts;
    graph_accept_ratio is graphs_accepted over graph_attempts, the candidate
    graphs erdos_renyi drew; both are returned as its base.
    """
    t, c, _ = tracer.summary()
    s = tracer.self_time
    steps = tracer.counters.get("solver.steps", 0)
    field_calls = tracer.edge_calls("solver.integrate", "dynamics.field_masked") + (
        tracer.edge_calls("solver.integrate", "dynamics.field_unmasked")
    )
    attempts = tracer.edge_calls("netgraph.erdos_renyi", "netgraph.build_graph")
    accepted = c.get("netgraph.erdos_renyi", 0)
    return {
        "solver.integrate_s": t.get("solver.integrate", 0.0),
        "solver.self_s": s("solver.integrate"),
        "solver.step_us": 1e6 * ratio(t.get("solver.integrate", 0.0), steps),
        "solver.field_calls": field_calls,
        "solver.rows_recorded": tracer.counters.get("solver.rows_recorded", 0),
        "solver.to_csv_s": t.get("solver.to_csv", 0.0),
        "masks.eval_s": t.get("masks.eval", 0.0),
        "masks.eval_calls": c.get("masks.eval", 0),
        "masks.eval_series_s": t.get("masks.eval_series", 0.0),
        "masks.check_axioms_s": t.get("masks.check_axioms", 0.0),
        "dynamics.field_unmasked_s": t.get("dynamics.field_unmasked", 0.0),
        "dynamics.field_unmasked_calls": c.get("dynamics.field_unmasked", 0),
        "dynamics.field_masked_self_s": s("dynamics.field_masked"),
        "dynamics.exosystem_field_s": t.get("dynamics.exosystem_field", 0.0),
        "scenario.build_s": t.get("scenario.build", 0.0),
        "scenario.graph_checks_s": t.get("scenario.graph_checks", 0.0),
        "netgraph.erdos_renyi_s": t.get("netgraph.erdos_renyi", 0.0),
        "netgraph.graph_attempts": attempts,
        "netgraph.graphs_accepted": accepted,
        "netgraph.graph_accept_ratio": ratio(accepted, attempts),
        "netgraph.check_no_covering_s": t.get("netgraph.check_no_covering", 0.0),
        "netgraph.spectral_radius_s": t.get("netgraph.spectral_radius", 0.0),
        "analysis.diagnostics_s": s("analysis.diagnostics"),
        "analysis.series_table_s": t.get("analysis.series_table", 0.0),
        "cli.write_s": s("cli.write"),
        "cli.bytes_written": tracer.counters.get("cli.bytes_written", 0),
        "trace.wrapped_calls": sum(c.values()),
    }
