import copy
import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynpriv import netgraph, scenario
from dynpriv.cli import _write_artifacts, main
from dynpriv.dynamics import DRIFTS, SYSTEMS
from dynpriv.masks import MaskBank, MaskKind
from dynpriv.scenario import (
    ScenarioError,
    build_scenario,
    bundled_names,
    config_hash,
    load_bundled,
    override_seed,
    run_graph_checks,
    run_mask_check,
    run_simulation,
)
from dynpriv.solver import IntegratorConfig, Trajectory


def _consensus_config(**over):
    cfg = {
        "name": "t_consensus",
        "seed": 99,
        "system": {"kind": "average_consensus"},
        "graph": {"kind": "cycle", "n": 3},
        "x0": {"kind": "uniform", "low": -2.0, "high": 2.0},
        "mask": {"kind": "auto", "mask_kind": "vanishing_affine", "privacy_level": 1.0},
        "integrator": {"method": "rk4", "dt": 1e-2, "t_final": 30.0, "record_stride": 5},
        "checks": ["irreducible", "weight_balanced", "no_covering", "converged", "conservation"],
    }
    cfg.update(over)
    return cfg


def test_config_hash_canonicalization():
    a = {"b": 1, "a": [1, 2]}
    b = {"a": [1, 2], "b": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"a": [1, 2], "b": 2})


def test_build_scenario_and_run():
    sc = build_scenario(_consensus_config())
    assert sc.graph.n == 3
    assert sc.bank.dim == 3
    traj, report = run_simulation(sc)
    assert report.verdicts["converged"]
    assert report.verdicts["conservation"]
    assert report.config_hash == sc.hash


def test_derived_seeds_are_deterministic():
    sc1 = build_scenario(_consensus_config())
    sc2 = build_scenario(_consensus_config())
    assert np.array_equal(sc1.x0, sc2.x0)
    assert sc1.bank.params == sc2.bank.params


def test_missing_seed_rejected():
    cfg = _consensus_config()
    del cfg["seed"]
    with pytest.raises(ScenarioError, match="seed"):
        build_scenario(cfg)


def test_inline_x0_dimension_checked():
    cfg = _consensus_config(x0={"kind": "inline", "values": [1.0, 2.0]})
    with pytest.raises(ScenarioError, match="expected 3"):
        build_scenario(cfg)


def test_unknown_check_rejected():
    cfg = _consensus_config(checks=["no_such_check"])
    with pytest.raises(ScenarioError, match="unknown check"):
        build_scenario(cfg)


def test_default_mask_is_identity():
    cfg = _consensus_config()
    del cfg["mask"]
    cfg["checks"] = ["irreducible"]
    sc = build_scenario(cfg)
    assert all(k.value == "identity" for k in sc.bank.kinds)
    # identity baselines are well-formed but carry no privacy claim
    assert run_mask_check(sc) == {
        "axioms": run_mask_check(sc)["axioms"],
        "identity_baseline": True,
        "ok": True,
    }


def test_inapplicable_check_is_a_config_error():
    cfg = _consensus_config(checks=["vmm_non_monotone"])
    cfg["system"] = {"kind": "saturated_net", "kappa": 0.2}
    cfg["graph"] = {"kind": "cycle", "n": 3}
    with pytest.raises(ScenarioError, match="not applicable"):
        build_scenario(cfg)


@pytest.mark.parametrize(
    "name,check",
    [
        ("example3_consensus_n20", "lmi_margin_negative"),  # only a pinned system decides it
        ("example4_pinning_n10", "conservation"),  # only consensus decides it
    ],
)
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_inapplicable_check_exits_2_at_build(name, check, command, tmp_path, capsys):
    cfg = load_bundled(name)
    cfg["checks"].append(check)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"checks not applicable to this scenario: ['{check}']" in capsys.readouterr().err
    assert not list(tmp_path.rglob("trajectory.csv"))


@pytest.mark.parametrize(
    "drop,checks",
    [
        ("sync_condition", ["lmi_margin_negative"]),
        ("mask", ["privacy_floor", "mask_gap_visible"]),  # the identity default has no level
    ],
)
def test_conditional_checks_need_their_section(drop, checks):
    cfg = load_bundled("example4_pinning_n10")
    del cfg[drop]
    message = f"checks not applicable to this scenario: {checks}"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        build_scenario(cfg)
    cfg["checks"] = [k for k in cfg["checks"] if k not in checks]
    build_scenario(cfg)


def test_explicit_mask_channels():
    cfg = _consensus_config(
        mask={
            "kind": "explicit",
            "channels": [
                {"kind": "additive", "gamma": 2.0, "delta": 1.0},
                {"kind": "additive", "gamma": -2.0, "delta": 0.5},
                {"kind": "identity"},
            ],
        }
    )
    sc = build_scenario(cfg)
    assert sc.bank.params[0].gamma == 2.0
    assert sc.bank.kinds[2].value == "identity"


def test_graph_checks_and_mask_check():
    sc = build_scenario(_consensus_config())
    checks = run_graph_checks(sc)
    assert checks == {"irreducible": True, "weight_balanced": True, "no_covering": True}
    mask_check = run_mask_check(sc)
    assert mask_check["ok"]
    assert mask_check["expected_vanishing"]


def test_bundled_scenarios_all_build_and_pass_check():
    names = bundled_names()
    assert "example3_consensus" in names
    assert "example4_pinning" in names
    for name in names:
        sc = build_scenario(load_bundled(name))
        checks = run_graph_checks(sc)
        assert all(checks.values()), f"{name}: {checks}"


def test_cli_invalid_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "system": {"kind": "nope"}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["simulate"]) == 2


def test_cli_horizon_off_the_step_grid_exits_2(tmp_path, capsys):
    # 3 steps of 0.3 would integrate to 0.9, not to the requested 1.0
    cfg = _consensus_config(integrator={"dt": 0.3, "t_final": 1.0})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "does not divide t_final=1.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "over,key",
    [
        ({"integrator": {"dt": 1e-2, "t_finl": 30.0}}, "integrator.t_finl"),
        ({"graph": {"kind": "cycle", "n": 3, "weigth": 2.0}}, "graph.weigth"),
        ({"bogus": 1}, "bogus"),
        # keys of another kind of the same section are unknown too
        ({"graph": {"kind": "cycle", "n": 3, "p": 0.5}}, "graph.p"),
        (
            {"mask": {"kind": "explicit", "channels": [{"kind": "additive", "gama": 1.0}] * 3}},
            "mask.channels[0].gama",
        ),
    ],
)
def test_cli_unknown_config_key_exits_2(tmp_path, capsys, over, key):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(_consensus_config(**over)))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("weight,node", [(float("nan"), 2), (float("inf"), 2), (1.0, 1.7)])
def test_cli_non_finite_weight_or_fractional_node_exits_2(tmp_path, capsys, command, weight, node):
    edges = [[0, 1, 1.0], [1, node, 1.0], [2, 0, weight]]
    path = tmp_path / "bad_edge.json"
    path.write_text(json.dumps(_consensus_config(graph={"kind": "inline", "n": 3, "edges": edges})))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "on edge" in capsys.readouterr().err


def test_cli_strict_check_flags_covering(tmp_path, capsys):
    cfg = _consensus_config(graph={"kind": "complete", "n": 3}, checks=["no_covering"])
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(cfg))
    code = main(["check", "--config", str(path), "--out", str(tmp_path), "--strict"])
    captured = capsys.readouterr()
    assert code == 3
    assert "covering pairs" in captured.out
    # without --strict the same config reports but exits clean, and the
    # parser that main shares across calls keeps neither flag for the next
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["check", "--config", str(path), "--out", str(tmp_path), "--strict"]) == 3


def test_cli_check_scans_covering_once(tmp_path, monkeypatch):
    edges = [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(_consensus_config(graph={"kind": "inline", "n": 3, "edges": edges})))
    calls = []
    scan = netgraph.check_no_covering

    def counting_scan(g):
        calls.append(g)
        return scan(g)

    monkeypatch.setattr(netgraph, "check_no_covering", counting_scan)
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_cli_kappa_over_a_zero_spectral_radius_exits_2(command, tmp_path, capsys):
    # a single edge is nilpotent: its adjacency has spectral radius 0
    cfg = _consensus_config(
        graph={"kind": "inline", "n": 2, "edges": [[0, 1, 1.0]]},
        system={"kind": "saturated_net", "kappa_over_radius": 1.0},
        checks=[],
    )
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "system.kappa_over_radius" in capsys.readouterr().err


def test_kappa_over_radius_with_enforce_stable_solves_once(monkeypatch):
    calls = []
    solve = netgraph.spectral_radius

    def counting_solve(a):
        calls.append(a)
        return solve(a)

    monkeypatch.setattr(netgraph, "spectral_radius", counting_solve)
    cfg = load_bundled("example1_satnet_n10")
    cfg["system"]["enforce_stable"] = True
    sc = build_scenario(cfg)
    assert len(calls) == 1
    assert sc.system.kappa == cfg["system"]["kappa_over_radius"] / solve(sc.system.a)


@pytest.mark.parametrize(
    "key,text,message",
    [
        # JSON reads 1e400 as inf; 1e-320 is finite, but t_final/dt is not
        ("t_final", "1e400", "integrator.t_final must be finite and positive, got inf"),
        ("dt", "1e-320", "integrator: t_final/dt = 30.0/1e-320 is not a finite step count"),
        ("dt", "0", "integrator.dt must be finite and positive, got 0"),
    ],
)
def test_cli_integrator_grid_beyond_float_range_exits_2(key, text, message, tmp_path, capsys):
    cfg = _consensus_config(integrator={"dt": 1e-2, "t_final": 30.0, key: "VALUE"})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg).replace('"VALUE"', text))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_erdos_renyi_scenario_scans_each_candidate_once(monkeypatch):
    candidates, scans = [], []
    build, scan = netgraph.build_graph, netgraph.check_no_covering

    def counting_build(n, edges):
        g = build(n, edges)
        candidates.append(g)
        return g

    def counting_scan(g):
        scans.append(g)
        return scan(g)

    monkeypatch.setattr(netgraph, "build_graph", counting_build)
    monkeypatch.setattr(netgraph, "check_no_covering", counting_scan)
    # seed 1 of the n=10 satnet config rejects candidates before it accepts one
    sc = build_scenario(override_seed(load_bundled("example1_satnet_n10"), 1))
    assert len(candidates) > 1
    assert sc.graph is candidates[-1]
    assert run_graph_checks(sc) and run_mask_check(sc)["ok"]
    assert [id(g) for g in scans] == [id(g) for g in candidates]


def test_cli_non_numeric_mask_parameter_exits_2(tmp_path, capsys):
    # a string would otherwise first fail inside numpy, when the mask is evaluated
    channels = [{"kind": "additive", "gamma": "2", "delta": 1.0}] * 3
    path = tmp_path / "str_mask.json"
    path.write_text(json.dumps(_consensus_config(mask={"kind": "explicit", "channels": channels})))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "mask parameters must be real numbers" in capsys.readouterr().err


def test_main_works_after_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--bundled", "example3_consensus_n3", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["check", "--bundled", "example3_consensus_n3", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_cli_non_finite_or_non_positive_settle_tol_exits_2(tol, tmp_path, capsys):
    # inf or nan would disable the settle guard; 0 or -1 would fail it on every run
    cfg = load_bundled("adversary_covering")
    cfg["adversary"]["settle_tol"] = tol
    path = tmp_path / "settle.json"
    path.write_text(json.dumps(cfg))
    assert main(["adversary", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "adversary.settle_tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("observer", 99, "adversary.observer must be an integer in [0, 6), got 99"),
        ("observer", "x", "adversary.observer must be an integer in [0, 6), got 'x'"),
        ("observer", True, "adversary.observer must be an integer in [0, 6), got True"),
        ("observer", None, "adversary.observer must be an integer in [0, 6), got None"),
        ("target", 1.5, "adversary.target must be an integer in [0, 6), got 1.5"),
        ("target", -1, "adversary.target must be an integer in [0, 6), got -1"),
        # observer 1 sees only its in-neighbors 0 and 5 besides itself
        ("target", 3, "adversary.target 3 is not in the closed in-neighborhood of observer 1"),
        ("policies", ["zero", "nope"], "adversary.policies: unknown substitution policy 'nope'"),
    ],
    ids=[
        "observer_out_of_range",
        "observer_not_a_number",
        "observer_boolean",
        "observer_null",
        "target_fractional",
        "target_negative",
        "target_not_in_view",
        "unknown_policy",
    ],
)
def test_cli_invalid_adversary_value_exits_2(key, value, message, tmp_path, capsys):
    cfg = load_bundled("adversary_covering")
    cfg["adversary"][key] = value
    path = tmp_path / "adversary.json"
    path.write_text(json.dumps(cfg))
    assert main(["adversary", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_unknown_system_kind_exits_2(tmp_path, capsys):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(_consensus_config(system={"kind": "nope"})))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown system kind 'nope'" in capsys.readouterr().err


def test_cli_unknown_drift_kind_exits_2(tmp_path, capsys):
    cfg = load_bundled("example4_pinning_n10")
    cfg["system"]["drift"] = {"kind": "nope"}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown drift kind 'nope'" in capsys.readouterr().err


@functools.cache
def _bundled_systems():
    return tuple(build_scenario(load_bundled(name)).system for name in bundled_names())


@pytest.mark.parametrize("cls", [*SYSTEMS.values(), *DRIFTS.values()], ids=lambda c: c.kind)
def test_every_registered_kind_is_built_by_a_bundled_scenario(cls):
    assert SYSTEMS.get(cls.kind, DRIFTS.get(cls.kind)) is cls
    assert any(type(system) is cls or type(system.drift) is cls for system in _bundled_systems())


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--bundled", "example3_consensus_n3", "--tol", "1"],
        ["adversary", "--bundled", "adversary_covering", "--strict"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--bundled", "example3_consensus_n3"],
        ["suite", "--names", "example3_consensus_n3"],
    ],
)
def test_cli_non_finite_or_non_positive_tol_exits_2(argv, tol, tmp_path, capsys):
    # --tol inf would pass converged trivially; nan, 0 and -1 would fail it
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", tol, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --tol: must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_cli_non_finite_or_non_positive_tol_conv_exits_2(tol, tmp_path, capsys):
    # json.dump writes Infinity and NaN, which json.load reads back
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(_consensus_config(tolerances={"tol_conv": tol})))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "tolerances.tol_conv must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("mask_kind", ["identity", "auto"])
@pytest.mark.parametrize("level", [-1.0, 0.0, float("inf"), float("nan")])
def test_cli_non_finite_or_non_positive_privacy_level_exits_2(mask_kind, level, tmp_path, capsys):
    # an identity mask with level -1 would pass privacy_floor and mask_gap_visible
    mask = {"kind": mask_kind, "privacy_level": level}
    if mask_kind == "auto":
        mask["mask_kind"] = "vanishing_affine"
    cfg = _consensus_config(mask=mask, checks=["privacy_floor", "mask_gap_visible"])
    path = tmp_path / "level.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "mask.privacy_level must be finite and positive" in capsys.readouterr().err


def test_cli_simulate_writes_artifacts(tmp_path):
    cfg = _consensus_config()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    outdir = tmp_path / "out" / "t_consensus"
    report = json.loads((outdir / "report.json").read_text())
    assert report["verdicts"]["converged"] is True
    assert report["config_hash"] == config_hash(cfg)
    assert (outdir / "trajectory.csv").exists()


def test_simulate_holds_no_table_beyond_x_and_y(tmp_path):
    # the outputs, diagnostics and artifacts are built a chunk of rows at a
    # time, so a 5001 x 100 run peaks within its x and y tables plus 4 MiB
    cfg = load_bundled("example3_consensus")
    cfg["integrator"].update(t_final=5.0, record_stride=1)
    sc = build_scenario(cfg)
    tracemalloc.start()
    try:
        traj, report = run_simulation(sc)
        _write_artifacts(tmp_path, sc, traj, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.x.shape == traj.y.shape == (5001, 100)
    assert peak <= traj.x.nbytes + traj.y.nbytes + 4 * 2**20


@pytest.mark.parametrize(
    "rows",
    [
        [[-0.0, -0.0, -0.0]],
        [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]],
        [[1.5, -2.5, 0.0], [-0.0, 2.0, -1.0]],
        [[-3.0, 1.0, 2.0], [5e-324, -5e-324, 1e308]],
    ],
)
def test_max_abs_state_equals_the_max_of_the_abs_table_bit_for_bit(rows, monkeypatch):
    sc = build_scenario(_consensus_config())
    x = np.array(rows)
    traj = Trajectory(times=np.arange(len(x), dtype=float), x=x, y=x.copy())
    monkeypatch.setattr(scenario, "integrate", lambda *args, **kwargs: traj)
    _, report = run_simulation(sc)
    assert np.float64(report.max_abs_state).tobytes() == np.max(np.abs(x)).tobytes()


def test_cli_simulate_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        code = main(["simulate", "--bundled", "example3_consensus_n3", "--out", str(tmp_path / sub)])
        assert code == 0
    csv_a = (tmp_path / "a" / "example3_consensus_n3" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "example3_consensus_n3" / "trajectory.csv").read_bytes()
    assert csv_a == csv_b


def test_cli_seed_override_changes_run(tmp_path):
    base = tmp_path / "base"
    other = tmp_path / "other"
    assert main(["simulate", "--bundled", "example3_consensus_n3", "--out", str(base)]) == 0
    assert main(
        ["simulate", "--bundled", "example3_consensus_n3", "--out", str(other), "--seed", "7"]
    ) == 0
    a = (base / "example3_consensus_n3" / "trajectory.csv").read_bytes()
    b = (other / "example3_consensus_n3" / "trajectory.csv").read_bytes()
    assert a != b


def test_cli_verdict_failure_exits_5(tmp_path):
    # horizon far too short for convergence
    cfg = _consensus_config(
        integrator={"method": "rk4", "dt": 1e-2, "t_final": 0.5, "record_stride": 1},
        checks=["converged"],
    )
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 5


def test_cli_adversary_writes_attack_report(tmp_path):
    code = main(["adversary", "--bundled", "adversary_covering", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "adversary_covering" / "attack.json").read_text())
    assert payload["covering_pairs"] == [[1, 0]]
    errors = {a["policy"]: a["abs_error"] for a in payload["attempts"]}
    assert all(err < 1e-2 for err in errors.values())


def test_cli_adversary_on_unsettled_outputs_exits_4_and_writes_nothing(tmp_path, capsys):
    # at t_final 1.0 the outputs still move, so the quadrature judges nothing
    cfg = load_bundled("adversary_covering")
    cfg["integrator"]["t_final"] = 1.0
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    assert main(["adversary", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert "outputs not settled: terminal increment" in captured.err
    assert "attack policy" not in captured.out
    assert not (tmp_path / "out" / "adversary_covering" / "attack.json").exists()


@pytest.mark.parametrize(
    "system",
    [
        {"kind": "friedkin_johnsen", "theta": 0.5},
        {"kind": "saturated_net", "kappa_over_radius": 0.5},
    ],
)
def test_cli_adversary_on_a_kind_without_attack_row_exits_2(system, tmp_path, capsys):
    # the consensus row would be applied to the wrong model and miss x0
    cfg = load_bundled("adversary_covering")
    cfg["system"] = system
    path = tmp_path / "attack.json"
    path.write_text(json.dumps(cfg))
    assert main(["adversary", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"system kind '{system['kind']}' has no attack row" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_adversary_requires_block(tmp_path):
    cfg = _consensus_config()
    path = tmp_path / "noadv.json"
    path.write_text(json.dumps(cfg))
    assert main(["adversary", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_cli_suite_fast_subset(tmp_path, capsys):
    code = main(
        [
            "suite",
            "--names",
            "example3_consensus_n3",
            "example1_satnet_n10",
            "--out",
            str(tmp_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "example3_consensus_n3" in captured.out
    summary = json.loads((tmp_path / "suite_summary.json").read_text())
    assert len(summary["results"]) == 2
    assert all(r["status"] == "pass" for r in summary["results"])


def test_cli_suite_rows_record_wall_time_and_steps(tmp_path):
    name = "example3_consensus_n3"
    assert main(["suite", "--names", name, "--out", str(tmp_path)]) == 0
    (row,) = json.loads((tmp_path / "suite_summary.json").read_text())["results"]
    assert set(row) == {"scenario", "config_hash", "status", "verdicts", "n_steps", "wall_s"}
    assert row["n_steps"] == build_scenario(load_bundled(name)).integrator.n_steps
    assert row["wall_s"] > 0


def test_cli_graph_retry_exhaustion_exits_2(tmp_path, capsys):
    # this seed finds no admissible graph for example1_satnet_n10 in 100 candidates
    argv = ["check", "--bundled", "example1_satnet_n10", "--seed", "3390588"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "100 retries" in err and "n=10" in err and "p=0.35" in err


RESEEDABLE = ["example1_satnet_n10", "example2_fj_n10", "example4_pinning_n10"]


def _built(config):
    try:
        sc = build_scenario(config)
    except ScenarioError as exc:  # a few seeds find no admissible graph
        assert "retries" in str(exc)
        return repr(exc)
    system = sc.system
    return {
        "hash": sc.hash,
        "edges": sc.graph.edges,
        "x0": sc.x0.tolist(),
        "bank": sc.bank.params,
        "s0": None if sc.s0 is None else sc.s0.tolist(),
        "theta": getattr(system, "theta", np.zeros(0)).tolist(),
    }


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(RESEEDABLE), seed=st.integers(0, 2**63 - 1))
def test_override_seed_equals_removing_element_seeds_by_hand(name, seed):
    config = load_bundled(name)
    by_hand = copy.deepcopy(config)
    by_hand["seed"] = seed
    system = by_hand["system"]
    for element in (
        by_hand["graph"],
        by_hand["x0"],
        by_hand["mask"],
        by_hand.get("sync_condition", {}),
        system.get("theta", {}),
        system.get("s0", {}),
    ):
        element.pop("seed", None)
    assert _built(override_seed(config, seed)) == _built(by_hand)


@settings(deadline=None, max_examples=30)
@given(
    name=st.sampled_from(RESEEDABLE),
    seeds=st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2, unique=True),
)
def test_override_seed_redraws_graph_states_and_masks(name, seeds):
    a, b = (_built(override_seed(load_bundled(name), s)) for s in seeds)
    assume(isinstance(a, dict) and isinstance(b, dict))
    for key in ("edges", "x0", "bank"):
        assert a[key] != b[key], key


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("graph", "seed", None, "graph.seed must be a non-negative integer, got None"),
        ("mask", "seed", None, "mask.seed must be a non-negative integer, got None"),
        ("integrator", "record_stride", 1.5, "integrator.record_stride must be an integer, got 1.5"),
        ("graph", "symmetric", "no", "graph.symmetric must be a boolean, got 'no'"),
        (None, "graph", "x", "graph must be an object, got 'x'"),
    ],
)
def test_cli_wrong_json_type_exits_2_naming_its_key(section, key, value, message, tmp_path, capsys):
    # a null seed would draw a fresh graph or mask on every run under one config hash
    cfg = load_bundled("example1_satnet_n10")
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize(
    "config,message",
    [
        (
            _consensus_config(x0={"kind": "inline", "values": [float("nan"), 1.0, 2.0]}),
            "x0.values[0] must be a finite number, got nan",
        ),
        (
            _consensus_config(x0={"kind": "gaussian", "std": float("nan")}),
            "x0.std must be a finite number, got nan",
        ),
        (
            _consensus_config(x0={"kind": "gaussian", "mean": float("inf"), "std": 1.0}),
            "x0.mean must be a finite number, got inf",
        ),
        (
            _consensus_config(x0={"kind": "uniform", "low": float("-inf"), "high": 2.0}),
            "x0.low must be a finite number, got -inf",
        ),
        (
            _consensus_config(x0={"kind": "uniform", "low": -2.0, "high": float("inf")}),
            "x0.high must be a finite number, got inf",
        ),
        (
            {
                **load_bundled("example2_fj_n10"),
                "system": {"kind": "friedkin_johnsen", "theta": float("nan")},
            },
            "system.theta must be a finite number or an object, got nan",
        ),
    ],
    ids=["values_nan", "std_nan", "mean_inf", "low_minus_inf", "high_inf", "theta_nan"],
)
def test_cli_non_finite_vector_number_exits_2_naming_its_key(
    command, config, message, tmp_path, capsys
):
    # json writes and reads NaN and Infinity; no draw or run may take them
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_gaussian_vector_is_seeded_and_its_mean_defaults_to_zero():
    x0 = {"kind": "gaussian", "std": 0.5, "seed": 3}
    sc = build_scenario(_consensus_config(x0=x0))
    assert np.array_equal(sc.x0, build_scenario(_consensus_config(x0=x0)).x0)
    assert np.array_equal(sc.x0, np.random.default_rng(3).normal(0.0, 0.5, size=3))
    zero_mean = build_scenario(_consensus_config(x0={**x0, "mean": 0.0}))
    assert np.array_equal(sc.x0, zero_mean.x0)
    shifted = build_scenario(_consensus_config(x0={**x0, "mean": 1.0}))
    assert not np.array_equal(sc.x0, shifted.x0)


def test_gaussian_vector_without_std_exits_2(tmp_path, capsys):
    path = tmp_path / "no_std.json"
    path.write_text(json.dumps(_consensus_config(x0={"kind": "gaussian", "mean": 1.0})))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "x0.std is required" in capsys.readouterr().err


def test_frozen_anchor_restricted_to_fj(tmp_path, capsys):
    # only Friedkin-Johnsen has an anchor to freeze; any other kind names the key
    cfg = _consensus_config(system={"kind": "average_consensus", "frozen_anchor": True})
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(cfg))
    for command in ("check", "simulate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown config key 'system.frozen_anchor'" in capsys.readouterr().err
    fj = load_bundled("example2_fj_n10")
    assert build_scenario(fj).system.frozen_anchor is False
    fj["system"]["frozen_anchor"] = True
    assert build_scenario(fj).system.frozen_anchor is True


@pytest.mark.parametrize(
    "path,kind",
    [("graph", "graph"), ("x0", "x0"), ("mask", "mask"), ("system.theta", "theta")],
)
def test_unknown_kind_is_named_by_its_section(path, kind):
    cfg = load_bundled("example2_fj_n10")
    *parents, last = path.split(".")
    section = functools.reduce(lambda node, key: node[key], parents, cfg)
    section[last] = {**section[last], "kind": "nope"}
    with pytest.raises(ScenarioError, match=f"unknown {kind} kind 'nope'"):
        build_scenario(cfg)


@pytest.mark.parametrize(
    "name",
    ["../escaped", "a/b", "", ".", "..", "nul\0"],
    ids=["parent_path", "nested_path", "empty", "dot", "dot_dot", "nul_byte"],
)
def test_cli_name_that_is_not_one_path_component_exits_2(name, tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "name.json"
    path.write_text(json.dumps(_consensus_config(name=name)))
    assert main(["check", "--config", str(path), "--out", str(out)]) == 2
    assert f"name must be one plain path component, got {name!r}" in capsys.readouterr().err
    assert not out.exists() and sorted(p.name for p in tmp_path.iterdir()) == ["name.json"]


@pytest.mark.parametrize("count,ok", [(-1, False), (0, True), (10, True), (11, False)])
def test_pinned_count_must_lie_in_0_to_n(count, ok):
    # -1 would pin 9 of the 10 agents through gains[:-1]
    cfg = load_bundled("example4_pinning_n10")
    cfg["system"]["pinned_count"] = count
    if ok:
        assert np.count_nonzero(build_scenario(cfg).system.pin_gains) == count
    else:
        with pytest.raises(ScenarioError, match=rf"system.pinned_count must be in \[0, 10\], got {count}"):
            build_scenario(cfg)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("box", "x", "sync_condition.box must be two numbers, got 'x'"),
        ("box", [1.0], "sync_condition.box must be two numbers, got [1.0]"),
        ("box", [-3, "a"], "sync_condition.box must be two numbers, got [-3, 'a']"),
        ("box", [3.0, -3.0], "sync_condition.box must be finite lo < hi, got [3.0, -3.0]"),
        ("box", [-3.0, float("inf")], "sync_condition.box must be finite lo < hi"),
        ("samples", 1, "sync_condition.samples must be >= 2, got 1"),
        ("samples", 4000.0, "sync_condition.samples must be an integer, got 4000.0"),
    ],
)
def test_cli_check_rejects_a_malformed_sync_condition(key, value, message, tmp_path, capsys):
    # simulate would otherwise fail only after the whole integration, in a traceback
    cfg = load_bundled("example4_pinning_n10")
    cfg["sync_condition"][key] = value
    path = tmp_path / "sync.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "r,message",
    [
        ({"kind": "identty", "rows": np.eye(3).tolist()}, "unknown r kind 'identty'"),
        ({"kind": "identty"}, "unknown r kind 'identty'"),
        ({"kind": "explicit"}, "system.r.rows is required"),
        ({"kind": "identity", "rows": np.eye(3).tolist()}, "unknown config key 'system.r.rows'"),
        ({"kind": "explicit", "rows": [[1, 0, 0], [0, 1, 0], [1, 0, 1]]}, "must be symmetric"),
    ],
)
def test_coupling_matrix_kinds(r, message):
    cfg = load_bundled("example4_pinning_n10")
    cfg["system"]["r"] = r
    with pytest.raises(ScenarioError, match=message):
        build_scenario(cfg)


def test_explicit_coupling_matrix_is_read_as_written():
    cfg = load_bundled("example4_pinning_n10")
    rows = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]
    cfg["system"]["r"] = {"kind": "explicit", "rows": rows}
    assert np.array_equal(build_scenario(cfg).system.r, rows)
    del cfg["system"]["r"]
    assert np.array_equal(build_scenario(cfg).system.r, np.eye(3))


PIN_CHOICES = "pinned_sync needs pin_gains, or pinned_count and pin_gain"


@pytest.mark.parametrize(
    "name,key,message",
    [
        ("example1_satnet_n10", "kappa_over_radius", "saturated_net needs kappa or kappa_over_radius"),
        ("example4_pinning_n10", "pinned_count", PIN_CHOICES),
        ("example4_pinning_n10", "pin_gain", PIN_CHOICES),
    ],
)
def test_either_or_system_keys_name_both_choices(name, key, message):
    cfg = load_bundled(name)
    del cfg["system"][key]
    with pytest.raises(ScenarioError, match=message):
        build_scenario(cfg)


def test_defaults_live_at_the_constructors():
    mask = {"kind": "auto", "mask_kind": "additive", "privacy_level": 1, "seed": 5}
    sc = build_scenario(_consensus_config(integrator={}, mask=mask))
    assert sc.integrator == IntegratorConfig()
    assert sc.bank.params == MaskBank.auto(MaskKind.ADDITIVE, 1.0, sc.x0, seed=5).params
    # an integer privacy level is read as the float that the report writes
    assert type(sc.privacy_level) is float and type(sc.tol_conv) is float


SWEPT = [
    "example1_satnet_n10",
    "example2_fj_n10",
    "example3_consensus_n3",
    "example4_pinning_n10",
    "adversary_covering",
]
SWEEP_VALUES = ["x", -1, None, 1.5, {"kind": "nope"}]


def _key_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutants(config):
    """Every config that deletes one key path, or sets it to one SWEEP_VALUES entry."""
    for path in _key_paths(config):
        for value in ["<delete>", *SWEEP_VALUES]:
            mutant = copy.deepcopy(config)
            parent = functools.reduce(lambda node, key: node[key], path[:-1], mutant)
            if value == "<delete>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield ".".join(path), value, mutant


@pytest.mark.parametrize("name", SWEPT)
def test_check_on_single_key_mutations_exits_0_or_2_and_never_raises(name, tmp_path, capsys):
    config_path, bad = tmp_path / "mutant.json", []
    for key, value, mutant in _mutants(load_bundled(name)):
        config_path.write_text(json.dumps(mutant))
        try:
            code = main(["check", "--config", str(config_path), "--out", str(tmp_path / "out")])
        except Exception as exc:  # noqa: BLE001 - any exception is the failure under test
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 2):
            bad.append((key, value, code))
    capsys.readouterr()
    assert bad == []


#: Every key of the swept configs that no constructor defaults.
REQUIRED_IN_SWEPT = {
    "graph",
    "graph.kind",
    "graph.n",
    "graph.p",
    "graph.edges",
    "system",
    "system.kind",
    "system.theta",
    "system.theta.kind",
    "system.theta.low",
    "system.theta.high",
    "system.nu",
    "system.r.kind",
    "system.drift",
    "system.drift.kind",
    "system.drift.a",
    "system.drift.b",
    "system.s0",
    "system.s0.kind",
    "system.s0.values",
    "x0",
    "x0.kind",
    "x0.low",
    "x0.high",
    "mask.kind",
    "mask.mask_kind",
    "mask.privacy_level",
    "sync_condition.box",
    "adversary.observer",
    "adversary.target",
}


def test_deleting_a_required_key_exits_2_naming_its_path(tmp_path, capsys):
    config_path, named = tmp_path / "mutant.json", set()
    for name in SWEPT:
        for key, value, mutant in _mutants(load_bundled(name)):
            if value != "<delete>":
                continue
            config_path.write_text(json.dumps(mutant))
            code = main(["check", "--config", str(config_path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if key in REQUIRED_IN_SWEPT:
                assert (code, err) == (2, f"invalid config: {key} is required\n"), (name, key)
                named.add(key)
            else:
                assert "is required" not in err, (name, key, err)
    assert named == REQUIRED_IN_SWEPT
