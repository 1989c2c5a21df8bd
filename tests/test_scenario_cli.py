import copy
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynpriv import netgraph
from dynpriv.cli import main
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
    sc = build_scenario(cfg)
    with pytest.raises(ScenarioError, match="not applicable"):
        run_simulation(sc)


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
    # without --strict the same config reports but exits clean
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0


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
