"""A seeded config fuzzer: no mutant of a small bundled config makes main
raise or return an undocumented exit code.

Each mutant deletes one key of a bundled config, or sets one value (a
section, a list or a leaf) to a hostile one. Every mutant goes through
`check`; one that leaves `integrator` alone also goes through `simulate`,
on a horizon of 0.5. Some runs add `--seed` or `--strict`. The case count
is fixed, so the test costs the same on every run.

Value mutants never build a reducible graph, so a fixed set of structural
mutants swaps each config's graph for an inline directed path of the same
n and, where n >= 4, for two disjoint directed cycles; one more leaves the
opinion model's second cycle without an anchor (theta = 0).

Every mutant is made by `config_patch.patched`, the patch function that the
config contract table of test_scenario_cli.py uses too, over the key paths
of `config_patch.key_paths`.
"""

import json
import random

from config_patch import DELETE, key_paths, patched
from dynpriv import scenario
from dynpriv.cli import main

SMALL = (
    "adversary_covering",
    "adversary_cycle",
    "example1_satnet_n10",
    "example2_fj_n10",
    "example3_consensus_n3",
    "example4_pinning_n10",
)
HOSTILE = (None, True, False, 1e308, -1e308, 2**63, float("nan"), float("inf"), "x", [], {}, [[1.0]])
DOCUMENTED = {0, 2, 3, 4, 5}
MUTANTS_PER_CONFIG = 100


def _short(name):
    """Bundled config name on a horizon of 0.5."""
    return patched(scenario.load_bundled(name), {"integrator.t_final": 0.5})


def _mutants(rng):
    """(name, path, value, config, flags) for each mutant."""
    for name in SMALL:
        base = _short(name)
        paths = list(key_paths(base))
        for _ in range(MUTANTS_PER_CONFIG):
            path = rng.choice(paths)
            in_a_list = path.rpartition(".")[2].isdigit()
            value = DELETE if not in_a_list and rng.random() < 0.25 else rng.choice(HOSTILE)
            flags = ["--seed", str(rng.randrange(1000))] if rng.random() < 0.3 else []
            flags += ["--strict"] if rng.random() < 0.2 else []
            yield name, path, value, patched(base, {path: value}), flags


def test_no_config_mutant_raises_or_exits_undocumented(tmp_path, capsys):
    config_path, out = tmp_path / "mutant.json", tmp_path / "out"
    bad, codes = [], []
    for name, path, value, config, flags in _mutants(random.Random(20190901)):
        config_path.write_text(json.dumps(config))
        commands = ["check"] if path.split(".")[0] == "integrator" else ["check", "simulate"]
        for command in commands:
            argv = [command, "--config", str(config_path), "--out", str(out)] + flags
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
            codes.append(code)
            if code not in DOCUMENTED:
                bad.append((name, path, value, flags, command, code))
        capsys.readouterr()
    assert not bad, bad[:10]
    # the mutants reach every stage: refused configs, clean runs, and runs
    # that fail numerically or on a verdict
    assert {0, 2, 4, 5} <= set(codes) and len(codes) > len(SMALL) * MUTANTS_PER_CONFIG


def _path(n):
    return {"kind": "inline", "n": n, "edges": [[i, i + 1, 1.0] for i in range(n - 1)]}


def _two_cycles(n):
    """Directed cycles on the nodes 0..k-1 and k..n-1, k = n // 2."""
    halves = (list(range(n // 2)), list(range(n // 2, n)))
    edges = [[a, b, 1.0] for nodes in halves for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    return {"kind": "inline", "n": n, "edges": edges}


def _structural_mutants():
    """(name, mutation, config) for each structural mutant."""
    for name in SMALL:
        base = _short(name)
        n = base["graph"]["n"]
        yield name, "path", patched(base, {"graph": _path(n)})
        if n >= 4:
            yield name, "two cycles", patched(base, {"graph": _two_cycles(n)})
    theta = {"kind": "inline", "values": [0.5] * 5 + [0.0] * 5}
    config = patched(_short("example2_fj_n10"), {"graph": _two_cycles(10), "system.theta": theta})
    yield "example2_fj_n10", "two cycles, the second unanchored", config


def test_no_reducible_graph_mutant_raises_or_exits_undocumented(tmp_path, capsys):
    # and simulate refuses (exit 2) exactly what check refuses, so that no
    # config is refused only after its integration
    config_path, out = tmp_path / "mutant.json", tmp_path / "out"
    bad = []
    for name, mutation, config in _structural_mutants():
        config_path.write_text(json.dumps(config))
        for flags in ([], ["--seed", "7"]):
            codes = {}
            for command in ("check", "simulate"):
                argv = [command, "--config", str(config_path), "--out", str(out)] + flags
                try:
                    codes[command] = main(argv)
                except (Exception, SystemExit) as exc:
                    codes[command] = f"raised {type(exc).__name__}: {exc}"
            refused = {command for command, code in codes.items() if code == 2}
            if not set(codes.values()) <= DOCUMENTED or len(refused) == 1:
                bad.append((name, mutation, flags, codes))
        capsys.readouterr()
    assert not bad, bad
