import copy
import functools
import hashlib
import json
import re
import time
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from common import AXIOM_PATTERNS, simulated
from config_patch import DELETE, key_paths, patched
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dynpriv.g17  # noqa: F401  loaded here, so that no tracemalloc window counts its import
from dynpriv import cli, netgraph, scenario
from dynpriv.cli import main
from dynpriv.dynamics import DRIFTS, SEED, SYSTEMS, ByKind
from dynpriv.masks import MaskBank, MaskKind, axiom_grid, check_mask_axioms
from dynpriv.scenario import (
    CHUNK,
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
    _traj, _series, report = simulated(sc)
    assert report.verdicts["converged"]
    assert report.verdicts["conservation"]
    assert report.config_hash == sc.hash


def test_derived_seeds_are_deterministic():
    sc1 = build_scenario(_consensus_config())
    sc2 = build_scenario(_consensus_config())
    assert np.array_equal(sc1.x0, sc2.x0)
    assert np.array_equal(sc1.bank._values, sc2.bank._values)


def test_default_mask_is_identity():
    sc = build_scenario(patched(_consensus_config(checks=["irreducible"]), {"mask": DELETE}))
    assert all(k.value == "identity" for k in sc.bank.kinds)
    # identity baselines are well-formed but carry no privacy claim
    assert run_mask_check(sc) == {
        "axioms": run_mask_check(sc)["axioms"],
        "identity_baseline": True,
        "ok": True,
    }


@pytest.mark.parametrize(
    "drop,checks",
    [
        ("sync_condition", ["lmi_margin_negative"]),
        ("mask", ["privacy_floor", "mask_gap_visible"]),  # the identity default has no level
    ],
)
def test_conditional_checks_need_their_section(drop, checks):
    # refused with the checks (the CONTRACT rows named after them), built without
    cfg = patched(load_bundled("example4_pinning_n10"), {drop: DELETE})
    build_scenario(patched(cfg, {"checks": [k for k in cfg["checks"] if k not in checks]}))


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
    assert sc.bank.factors(0.0)[1][0] == 2.0  # the t=0 offset of channel 0 is its gamma
    assert sc.bank.kinds[2].value == "identity"


#: One channel of every mask kind, in the form a config writes them.
EXPLICIT_CHANNELS = [
    {"kind": "identity"},
    {"kind": "linear", "phi": 1.0, "sigma": 2.0},
    {"kind": "additive", "gamma": 2.0, "delta": 1.0},
    {"kind": "affine", "c": 1.5, "gamma": -1.0, "delta": 0.5},
    {"kind": "vanishing_affine", "phi": 0.5, "sigma": 0.7, "gamma": 1.5, "delta": 0.9},
]


def _explicit_config(channels):
    return {
        "name": "explicit_mix",
        "seed": 99,
        "system": {"kind": "average_consensus"},
        "graph": {"kind": "cycle", "n": 5},
        "x0": {"kind": "uniform", "low": -2.0, "high": 2.0},
        "mask": {"kind": "explicit", "privacy_level": 0.5, "channels": channels},
        "integrator": {"method": "rk4", "dt": 1e-2, "t_final": 5.0, "record_stride": 5},
        "checks": ["irreducible", "weight_balanced", "no_covering", "converged", "conservation"],
    }


def test_explicit_mixed_kind_mask_writes_the_recorded_artifacts(tmp_path):
    # no bundled config has an explicit mask, so no golden digest covers this path
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(_explicit_config(EXPLICIT_CHANNELS)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 5
    digests = {
        name: hashlib.sha256((tmp_path / "explicit_mix" / name).read_bytes()).hexdigest()
        for name in ("report.json", "trajectory.csv")
    }
    assert digests == {
        "report.json": "9082cf067c7f62c0f3df66f12b8789e5d348d26bb5aaf0a5b2694a8d737f96c8",
        "trajectory.csv": "e01d9bd51fbb2a56b2d3f7cc75842bfaf9bc851fca542cac132cb740c117f0cb",
    }


def test_graph_checks_and_mask_check():
    sc = build_scenario(_consensus_config())
    checks = run_graph_checks(sc)
    assert checks == {"irreducible": True, "weight_balanced": True, "no_covering": True}
    mask_check = run_mask_check(sc)
    assert mask_check["ok"]
    assert mask_check["expected_vanishing"]


@pytest.mark.parametrize(
    "kinds",
    [("linear",), ("additive",), ("affine",), ("vanishing_affine",), ("linear", "additive")],
    ids="+".join,
)
def test_expected_vanishing_is_the_vanishing_pattern_of_every_kind_in_the_bank(kinds):
    # an all-identity bank is the unmasked baseline and carries no expectation
    by_kind = {channel["kind"]: channel for channel in EXPLICIT_CHANNELS}
    channels = [by_kind[kinds[i % len(kinds)]] for i in range(5)]
    mask_check = run_mask_check(build_scenario(_explicit_config(channels)))
    assert mask_check["expected_vanishing"] == all(AXIOM_PATTERNS[MaskKind(k)]["vanishing"] for k in kinds)


def test_bundled_scenarios_all_build_and_pass_check():
    names = bundled_names()
    assert "example3_consensus" in names
    assert "example4_pinning" in names
    for name in names:
        sc = build_scenario(load_bundled(name))
        checks = run_graph_checks(sc)
        assert all(checks.values()), f"{name}: {checks}"


def test_cli_config_that_cannot_be_opened_is_refused(tmp_path, capsys):
    # a directory and a missing file: no table row writes these
    assert main(["check", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert f"invalid config: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


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


#: The directed 3-cycle as an inline graph section.
INLINE_CYCLE = {"kind": "inline", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]}


def test_cli_check_scans_covering_once(tmp_path, monkeypatch):
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(_consensus_config(graph=INLINE_CYCLE)))
    calls = []
    scan = netgraph.check_no_covering

    def counting_scan(g):
        calls.append(g)
        return scan(g)

    monkeypatch.setattr(netgraph, "check_no_covering", counting_scan)
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_kappa_over_radius_with_enforce_stable_solves_once(monkeypatch):
    calls = []
    solve = netgraph.spectral_radius

    def counting_solve(a):
        calls.append(a)
        return solve(a)

    monkeypatch.setattr(netgraph, "spectral_radius", counting_solve)
    cfg = patched(load_bundled("example1_satnet_n10"), {"system.enforce_stable": True})
    sc = build_scenario(cfg)
    assert len(calls) == 1
    assert sc.system.kappa == cfg["system"]["kappa_over_radius"] / solve(sc.system.a)


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


def test_main_works_after_a_usage_error(tmp_path):
    assert main(["check", "--bundled", "example3_consensus_n3", "--no-such-flag"]) == 2
    assert main(["check", "--bundled", "example3_consensus_n3", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["check", "simulate", "adversary"])
@pytest.mark.parametrize(
    "text,reason",
    [
        ("{", "Expecting property name"),
        ('{"name": ' + "9" * 5001 + "}", "digits"),
        ("[" * 100_000, "recursion"),
        ('{"integrator": {"t_final": 30.0, "t_final": 0.5}}', "duplicate key 't_final'"),
    ],
    ids=["truncated", "long-int", "deep", "duplicate-key"],
)
def test_cli_unreadable_json_is_refused_naming_the_file(command, text, reason, tmp_path, capsys):
    # json.load's own errors (a syntax error, an int past the digit limit,
    # nesting past the recursion limit) are config errors, not tracebacks, and
    # so is a key that an object holds twice, which json.load would read as
    # its last value
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: {path} is not a readable JSON config")
    assert reason in err


@functools.cache
def _bundled_systems():
    return tuple(build_scenario(load_bundled(name)).system for name in bundled_names())


@pytest.mark.parametrize("cls", [*SYSTEMS.values(), *DRIFTS.values()], ids=lambda c: c.kind)
def test_every_registered_kind_is_built_by_a_bundled_scenario(cls):
    assert SYSTEMS.get(cls.kind, DRIFTS.get(cls.kind)) is cls
    assert any(type(system) is cls or type(system.drift) is cls for system in _bundled_systems())


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


@pytest.mark.parametrize(
    "name,horizons",
    [("example3_consensus", (1.0, 4.0)), ("example4_pinning", (0.5, 2.0))],
    ids=["consensus", "pinning"],
)
def test_simulate_holds_no_table_beyond_x(name, horizons, tmp_path):
    # x, y, the series rows and the CSV rows are held one window of
    # scenario.CHUNK values at a time (81 rows on consensus, 53 on pinning), the
    # CSV encoder holds 0.45 MiB of scratch, the mask-factor table at most
    # solver.TABLE_BYTES, and the verdicts read running column summaries; so
    # a run peaks at the same bytes at 1,001 as at 4,001 rows (501 and 2,001)
    peaks = []
    for t_final in horizons:
        patch = {"integrator.t_final": t_final, "integrator.record_stride": 1}
        sc = build_scenario(patched(load_bundled(name), patch))
        tracemalloc.start()
        try:
            with open(tmp_path / "trajectory.csv", "wb") as trajectory, open(tmp_path / "series.csv", "wb") as series:
                run_simulation(sc, trajectory, series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len((tmp_path / "series.csv").read_bytes().splitlines()) - 1
        assert rows == sc.integrator.n_records == 1000 * t_final + 1
        assert peak < 2 * 2**20
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 0.25 * 2**20, peaks


def test_simulate_forms_outputs_one_chunk_at_a_time(tmp_path, monkeypatch):
    # no reader on the simulate path asks the bank for more rows than a
    # window holds (the strides that scenario.CHUNK values hold, and the row it
    # starts from), so no whole-record y table is allocated; and each
    # recorded row of y is formed once, by its window's one eval_series
    # call, for trajectory.csv, series.csv and the verdicts
    calls = []
    eval_series = MaskBank.eval_series

    def counted(bank, times, states):
        calls.append(len(times))
        assert len(times) <= CHUNK // bank.dim + 1, len(times)
        return eval_series(bank, times, states)

    monkeypatch.setattr(MaskBank, "eval_series", counted)
    for name in ("example3_consensus", "example4_pinning"):
        path = tmp_path / f"{name}.json"
        patch = {"integrator.t_final": 0.5, "integrator.record_stride": 1}
        path.write_text(json.dumps(patched(load_bundled(name), patch)))
        calls.clear()
        # 0.5 time units are too short for consensus to converge, hence exit 5
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) in (0, 5)
        n_rec = len((tmp_path / name / "trajectory.csv").read_text().splitlines()) - 1
        assert n_rec > 1 and len(calls) > 1
        assert sum(calls) == n_rec, name


def test_adversary_holds_no_table_beyond_its_visible_columns(tmp_path):
    # the run is stepped window by window and the view keeps the times and
    # the observer's three visible output columns; so a stride-1 run grows
    # from 2,501 to 10,001 rows by those columns and the slack alone (at
    # these horizons the windows, not the quadrature's work vectors, set the
    # peak). The settle tolerance is raised so that the quadrature runs at both
    peaks, columns = [], []
    for t_final in (2.5, 10.0):
        patch = {"integrator.t_final": t_final, "integrator.record_stride": 1, "adversary.settle_tol": 1.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(patched(load_bundled("adversary_covering"), patch)))
        main(["adversary", "--config", str(config), "--out", str(tmp_path)])  # its imports, once
        tracemalloc.start()
        try:
            assert main(["adversary", "--config", str(config), "--out", str(tmp_path)]) == cli.EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        columns.append(8 * 4 * (1000 * t_final + 1))  # the times and outputs 0, 1 and 5
    assert peaks[1] - peaks[0] <= columns[1] - columns[0] + 0.25 * 2**20, peaks


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
    # the first row lies in the first of the run's two windows and the last
    # in the second; every other state is -0.0
    sc = build_scenario(patched(_consensus_config(), {"integrator.record_stride": 1}))
    x = np.full((sc.integrator.n_records, 3), -0.0)
    x[1], x[-1] = rows[0], rows[-1]
    windows = []

    def recorded(system, x0, cfg, s0=None, start=0, stop=None):
        windows.append((start, stop))
        times = np.arange(start, stop + 1) * cfg.dt
        return Trajectory(times=times, x=x[start : stop + 1])

    monkeypatch.setattr(scenario, "integrate", recorded)
    _, _, report = simulated(sc)
    assert windows == [(0, CHUNK // 3), (CHUNK // 3, len(x) - 1)]
    assert np.float64(report.max_abs_state).tobytes() == np.max(np.abs(x)).tobytes()


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


#: An unstable drift of rate 50 leaves the float range well before t_final.
BLOW_UP = {"system.drift.a": (50.0 * np.eye(3)).tolist(), "integrator.t_final": 2.0}
#: A blow-up at t = 0.573, step 573, in the third window of 248 steps: the
#: run has streamed two windows of trajectory.csv rows when it fails.
LATE_BLOW_UP = {**BLOW_UP, "system.drift.a": (20.0 * np.eye(3)).tolist(), "integrator.record_stride": 1}


def test_cli_suite_row_records_a_blow_up_and_exits_4(tmp_path, monkeypatch):
    name = "example4_pinning_n10"
    bundled = scenario.load_bundled
    monkeypatch.setattr(
        scenario, "load_bundled", lambda n: patched(bundled(n), BLOW_UP) if n == name else bundled(n)
    )
    assert main(["suite", "--names", "example3_consensus_n3", name, "--out", str(tmp_path)]) == 4
    rows = json.loads((tmp_path / "suite_summary.json").read_text())["results"]
    assert [r["status"] for r in rows] == ["pass", "numerical failure: numerical blow-up at t=0.199"]
    assert rows[1]["verdicts"] == {}
    assert not (tmp_path / name).exists()


def test_a_rate_whose_exponent_overflows_warns_nowhere(tmp_path, capsys):
    # -delta * t overflows to -inf for delta = 1e308 past t = 1.8, and
    # exp(-inf) = 0 is its factor: neither the axiom grid, check nor the run warns
    channels = [{"kind": "additive", "gamma": 2.0, "delta": delta} for delta in (1.0, 1e308, 1.0)]
    mask = {"kind": "explicit", "privacy_level": 1.0, "channels": channels}
    config = patched(load_bundled("example3_consensus_n3"), {"mask": mask})
    (tmp_path / "config.json").write_text(json.dumps(config))
    bank = build_scenario(config).bank
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        axioms, _ = check_mask_axioms(bank, *axiom_grid(bank))
        assert axioms["vanishing"]
        for command in ("check", "simulate"):
            main([command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)])
            assert capsys.readouterr().err == ""


def test_failed_simulate_leaves_an_earlier_run_as_it_was(tmp_path, monkeypatch):
    # a run that fails after streaming rows leaves the artifacts of an earlier
    # run of the same name byte for byte, and no other file under --out
    name, out = "example4_pinning_n10", tmp_path / "out"
    argv = {}
    for run, patch in (("ok", {"integrator.t_final": 1.0, "checks": []}), ("bad", LATE_BLOW_UP)):
        (tmp_path / f"{run}.json").write_text(json.dumps(patched(load_bundled(name), patch)))
        argv[run] = ["simulate", "--config", str(tmp_path / f"{run}.json"), "--out", str(out)]
    assert main(argv["ok"]) == cli.EXIT_OK
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    integrate, windows = scenario.integrate, []

    def recorded(*args, start, stop, **kwargs):
        traj = integrate(*args, start=start, stop=stop, **kwargs)
        windows.append((start, stop))
        return traj

    monkeypatch.setattr(scenario, "integrate", recorded)
    assert main(argv["bad"]) == cli.EXIT_NUMERIC
    # two windows of 248 = scenario.CHUNK // 33 rows of the 10 x 3 + 3 joint state returned
    assert windows == [(0, 248), (248, 496)]
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in out.rglob("*")) == [name, "report.json", "series.csv", "trajectory.csv"]


def _never_called(*args, **kwargs):
    raise AssertionError("called for a config that is refused first")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--bundled", "example3_consensus_n3"],
        ["simulate", "--bundled", "example3_consensus_n3"],
        ["adversary", "--bundled", "adversary_cycle"],
        ["suite", "--names", "example3_consensus_n3"],
    ],
    ids=["check", "simulate", "adversary", "suite"],
)
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_cli_out_that_cannot_hold_the_artifacts_is_refused_before_any_run(
    argv, under, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(scenario, "integrate", _never_called)
    blocker = tmp_path / "taken"
    blocker.write_text("a file")
    out = blocker / "sub" if under else blocker
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    if under:
        assert err == f"unusable --out: {str(out)!r} lies under {str(blocker)!r}, which is not a directory\n"
    else:
        assert err == f"unusable --out: {str(out)!r} is not a directory\n"
    assert blocker.read_text() == "a file"


def test_cli_out_whose_scenario_directory_is_a_file_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "integrate", _never_called)
    (tmp_path / "example3_consensus_n3").write_text("a file")
    assert main(["simulate", "--bundled", "example3_consensus_n3", "--out", str(tmp_path)]) == 2
    path = tmp_path / "example3_consensus_n3"
    assert capsys.readouterr().err == f"unusable --out: {str(path)!r} is not a directory\n"


def test_cli_tol_enters_the_config_hash(tmp_path):
    name = "example3_consensus_n3"
    hashes = []
    # a final error of ~6e-14 fails converged at 1e-30 and passes it at 0.5
    for tol, code in ((1e-30, 5), (0.5, 0)):
        out = tmp_path / str(tol)
        assert main(["simulate", "--bundled", name, "--tol", str(tol), "--out", str(out)]) == code
        report = json.loads((out / name / "report.json").read_text())
        cfg = patched(load_bundled(name), {"tolerances": {"tol_conv": tol}})
        assert report["config_hash"] == config_hash(cfg)
        hashes.append(report["config_hash"])
    assert hashes[0] != hashes[1]


def test_cli_adversary_forms_outputs_over_the_record_once(tmp_path, monkeypatch):
    # the eavesdropper's view takes y from the run's windows, each formed
    # once, and nothing else on the adversary path forms it
    calls = []
    eval_series = MaskBank.eval_series

    def counted(bank, times, states):
        calls.append(len(times))
        return eval_series(bank, times, states)

    monkeypatch.setattr(MaskBank, "eval_series", counted)
    name = "adversary_covering"
    assert main(["adversary", "--bundled", name, "--out", str(tmp_path)]) == 0
    grid = build_scenario(load_bundled(name)).integrator
    n_rec = 1 + -(-grid.n_steps // grid.record_stride)
    assert sum(calls) == n_rec


def test_cli_adversary_writes_attack_report(tmp_path):
    code = main(["adversary", "--bundled", "adversary_covering", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "adversary_covering" / "attack.json").read_text())
    assert payload["covering_pairs"] == [[1, 0]]
    errors = {a["policy"]: a["abs_error"] for a in payload["attempts"]}
    assert all(err < 1e-2 for err in errors.values())


def test_cli_adversary_on_unsettled_outputs_exits_4_and_writes_nothing(tmp_path, capsys):
    # at t_final 1.0 the outputs still move, so the quadrature judges nothing
    path = tmp_path / "short.json"
    path.write_text(json.dumps(patched(load_bundled("adversary_covering"), {"integrator.t_final": 1.0})))
    assert main(["adversary", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert "outputs not settled: terminal increment" in captured.err
    assert "attack policy" not in captured.out
    assert not (tmp_path / "out" / "adversary_covering" / "attack.json").exists()


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


RESEEDABLE = ["example1_satnet_n10", "example2_fj_n10", "example4_pinning_n10"]


def _built(config):
    try:
        sc = build_scenario(config)
    except ScenarioError as exc:  # a few seeds find no admissible graph
        assert "retries" in str(exc)
        return repr(exc)
    system, g = sc.system, sc.graph
    return {
        "hash": sc.hash,
        "edges": (g.src.tolist(), g.dst.tolist(), g.a[g.dst, g.src].tolist()),
        "x0": sc.x0.tolist(),
        "bank": sc.bank._values.tolist(),
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


# config_hash(override_seed(cfg, seed)) of every bundled config for seeds
# 0, 1 and 2, recorded when override_seed still named the six seeded
# sections: deriving it from the config itself must drop the same keys.
RESEEDED_HASHES = {
    "adversary_covering": (
        "bda6c10124f7f73160d9ab5e02ab04f206392b499bb1063a4a13e55d31542223",
        "463359d6c9a71571749c9bb43cb857badd7ce8a01d7a131e52da133764b2c5c9",
        "e6220c8bade2d116b7f73908bf7b31dcf70a6f562605396f9386fddd61c3299b",
    ),
    "adversary_cycle": (
        "447663ffbc06abda340458222f18ede40199a58439180c9e8bfeb4bd4906fe8b",
        "f27dceb0306421d77a262ef4ddba5148761a04601df0a787a9bed4ce50992cde",
        "ddfd109b7811163118730d2a0ad95b85173009adc7e5e72b841c67d38814cc85",
    ),
    "example1_satnet": (
        "c28617e9dec61b9ccf91b3912e26f6ced9b3391155a33f73deb290702325903c",
        "c4ea066f9baa84bee0a5bf1597792b326818093c94ed767e238688cc97b14bc1",
        "840608f23c77ad26db65cbdb2538fb9963729bbef5bafa2708c16e066e8b37a4",
    ),
    "example1_satnet_n10": (
        "1e26997ddac86fe1af560fc59fce984c16ab643c82223392b8751a568530e582",
        "2a45c5498dc60fc5476bfc0612843508fece5494a6b039d434077dbb60adfc35",
        "f706488ddd2f86eb2ceae3478c6a2b8527c265dcd436192014e97d22c1e5b606",
    ),
    "example1_satnet_n20": (
        "9ee425cb3de33872a790dc7b65e524e7ddf0d7112d7704f620dc4be980175706",
        "939103485ea3a1aaea289f374c68b652a599d5831c11c18dbfdcab5531cbe95f",
        "a14a9162a5ec9c1d0e20932a2d9ea7a35f170126b8eaa232f513aa87dd1f6cc9",
    ),
    "example2_fj": (
        "d90dc9df4dc3e3dcca9f5ba4e02b9116a90beb37ab41cf6d7c6a4e1d7d6a5191",
        "e48b8060a7e9d863e3eca8fbe9bdaf218081294e94f4c1376408fdd59a2e123d",
        "0c7cf20c197ed6ab4d6c688eeb3fd898ee62add11d454e969650d35ff020b83b",
    ),
    "example2_fj_n10": (
        "195213c47bd9d95cea6565aac4f869aef287660fec71e495862c78b9faf84c48",
        "68e56f59138547259f4046f65ab86360723415232c23d26d2dd366c7023d1fc8",
        "863959aab94d59bb7bd6ee0dbcf931f82792584f0357b89818672b46857c4a5e",
    ),
    "example2_fj_n20": (
        "f8ae1b4c24e27c090e45f048c09ef1ffa1ca29e8437b66647c1dfa9b6eb3b2af",
        "0249d1ed38829f84bcbb4d2fe46e47e9470c0ba4cb44614e57321ddbbff91d41",
        "dffdb794f8f061bf7e65f928e8f2287be094b168310d815f5edc30e9f69f9bed",
    ),
    "example3_consensus": (
        "fc81b6a50eeb5485aa0b4ed7488a6b5edb87babf49edc02af6b2b4a67304250c",
        "7a9df3cf1540e0077f49ba057e61787d1c1dfb1df5b7398b9a20827ff778d90c",
        "8934cbc27537f22267438f6deb3fe65ec390ad65d3efbde45a786e6a42addf85",
    ),
    "example3_consensus_n20": (
        "0489bd617be5a82e5069295abdc3076c26aa9db2a73fdb016f6e044a810437e2",
        "9bd27679b370690658db8700bedfd7e866977f94a0969577edccebe8c16d5cf4",
        "76326f5db7f6cd36fd02664cbbf5b44f4985fc9f4d97a4e8a2a870f3490c2971",
    ),
    "example3_consensus_n3": (
        "2915ff62de7aecf868044af233008eee58517ee0ba18f882333f2f28bdfc281c",
        "9ae9e11a9e873086031f3ff1b149e05022641166cdbeb43afb8d996030df3846",
        "0c26fb17eb3ddfbd922de1e3a8bf377c458c4ccad4ff3af389a4780a34709fc7",
    ),
    "example4_pinning": (
        "3bae73a6c391220faf5e5f1a64240ab40bc6fcdfb494e6562984113deafd3d6c",
        "984d3b257d5ecb59f76285b3bb62a40bdcae4e909ac8378a926ceb20962311db",
        "cc6c35d8e12df76ed0bac23da101d2ef1aa90c58fbfce5867c0c925d715ddb38",
    ),
    "example4_pinning_n10": (
        "ee1564be52242b7793f73839ae6839ea55ebf8ce6d86628df2b6ab060a2fbe70",
        "ed55d6622d231ad484f2a5ce1e56ceca532e547bbf6cb73420f47d860907f32e",
        "75a4696f97d411757d8f5c138e3391fc0f0dc45ad2973908194c59edf8d90c80",
    ),
}


def test_override_seed_hashes_match_the_recorded_digests():
    assert sorted(RESEEDED_HASHES) == bundled_names()
    for name, digests in RESEEDED_HASHES.items():
        got = tuple(config_hash(override_seed(load_bundled(name), seed)) for seed in range(3))
        assert got == digests, name


def _seed_paths(schema, path=()):
    """Every path to a SEED-typed key of a compiled schema, each step a key
    and the kind that its section takes (None for a section without kinds)."""
    if isinstance(schema, tuple):  # alternatives, such as a number or a vector section
        for alternative in schema:
            yield from _seed_paths(alternative, path)
    elif isinstance(schema, ByKind):
        for kind, keys in schema.items():
            yield from _seed_paths(keys, path[:-1] + ((path[-1][0], kind),))
    elif isinstance(schema, dict):
        for key, item in schema.items():
            if item == SEED:
                yield path + ((key, None),)
            else:
                yield from _seed_paths(item, path + ((key, None),))


SEED_PATHS = list(_seed_paths(scenario._SCHEMA))
SEED_IDS = [".".join(f"{key}[{kind}]" if kind else key for key, kind in p) for p in SEED_PATHS]


@pytest.mark.parametrize("path", SEED_PATHS, ids=SEED_IDS)
def test_override_seed_removes_every_seed_key_of_the_schema(path):
    # a config that sets this one seed; its other keys need not build
    config = node = {}
    for key, kind in path[:-1]:
        node = node.setdefault(key, {} if kind is None else {"kind": kind})
    node[path[-1][0]] = 7
    node = override_seed(config, 1)
    for key, _kind in path[:-1]:
        node = node[key]
    assert path[-1][0] not in node


def test_seed_paths_reach_the_vector_sections_of_a_system():
    names = {".".join(key for key, _kind in path) for path in SEED_PATHS}
    assert {"x0.seed", "system.theta.seed", "system.s0.seed", "graph.seed"} <= names


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_cli_graph_above_the_footprint_cap_is_refused_before_it_is_built(
    command, tmp_path, capsys, monkeypatch
):
    # a dense 20000 x 20000 array takes 3.2 GB: refused from graph.n alone
    monkeypatch.setattr(netgraph, "cycle_graph", _never_called)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_consensus_config(graph={"kind": "cycle", "n": 20000})))
    start = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "graph.n = 20000 needs 3200000000 bytes per dense 20000 x 20000 array" in err
    assert f"above the cap of {scenario.FOOTPRINT_CAP}" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_coupling_dimension_above_the_footprint_cap_is_refused_naming_nu(monkeypatch):
    # R = I alone would take 3.2 GB at nu = 20000, on a record table of 82 MB
    monkeypatch.setattr(netgraph, "erdos_renyi", _never_called)
    patch = {"system.nu": 20000, "integrator": {"dt": 0.01, "t_final": 0.01}}
    with pytest.raises(ScenarioError, match="system.nu = 20000 needs 3200000000 bytes"):
        build_scenario(patched(load_bundled("example4_pinning_n10"), patch))


def test_adversary_columns_above_the_footprint_cap_are_refused_naming_stride(monkeypatch):
    # 10^7 steps of 100 agents recorded at every step: the eavesdropper's
    # times and up to 100 visible columns take 8.1 GB; a simulate of the same
    # grid holds one window, so only a config with an adversary block is refused
    monkeypatch.setattr(netgraph, "cycle_graph", _never_called)
    integrator = {"dt": 1e-3, "t_final": 1e4, "record_stride": 1}
    adversary = {"observer": 1, "target": 0}
    cfg = _consensus_config(graph={"kind": "cycle", "n": 100}, integrator=integrator, adversary=adversary)
    with pytest.raises(ScenarioError, match=r"integrator.record_stride = 1 records 10000001 rows"):
        build_scenario(cfg)
    monkeypatch.undo()
    assert build_scenario(patched(cfg, {"adversary": DELETE})).integrator.n_records == 10_000_001
    cfg = patched(cfg, {"integrator.record_stride": 100})  # 100001 rows, 81 MB: under the cap
    assert build_scenario(cfg).integrator.n_records == 100_001


def test_integers_at_the_double_range_edge_still_count_as_numbers():
    top = int(np.finfo(float).max)
    assert scenario._is_number(top) and scenario._is_number(-top)
    assert not scenario._is_number(top + 1) and not scenario._is_number(-top - 1)
    assert not scenario._is_number(True)


def test_gaussian_vector_is_seeded_and_its_mean_defaults_to_zero():
    x0 = {"kind": "gaussian", "std": 0.5, "seed": 3}
    sc = build_scenario(_consensus_config(x0=x0))
    assert np.array_equal(sc.x0, build_scenario(_consensus_config(x0=x0)).x0)
    assert np.array_equal(sc.x0, np.random.default_rng(3).normal(0.0, 0.5, size=3))
    zero_mean = build_scenario(_consensus_config(x0={**x0, "mean": 0.0}))
    assert np.array_equal(sc.x0, zero_mean.x0)
    shifted = build_scenario(_consensus_config(x0={**x0, "mean": 1.0}))
    assert not np.array_equal(sc.x0, shifted.x0)


def test_frozen_anchor_is_off_unless_set():
    fj = load_bundled("example2_fj_n10")
    assert build_scenario(fj).system.frozen_anchor is False
    assert build_scenario(patched(fj, {"system.frozen_anchor": True})).system.frozen_anchor is True


@pytest.mark.parametrize("count", [0, 10])
def test_pinned_count_must_lie_in_0_to_n(count):
    # the counts outside [0, 10] are CONTRACT rows
    cfg = patched(load_bundled("example4_pinning_n10"), {"system.pinned_count": count})
    assert np.count_nonzero(build_scenario(cfg).system.pin_gains) == count


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_cli_more_steps_than_the_cap_are_refused_before_anything_is_allocated(
    command, tmp_path, capsys, monkeypatch
):
    # 2 * 10^7 steps, twice solver.MAX_STEPS, at a stride whose record table
    # is within the footprint cap; refused before the graph is built
    monkeypatch.setattr(scenario, "_build_graph", _never_called)
    patch = {"integrator.dt": 1e-3, "integrator.t_final": 20000.0, "integrator.record_stride": 1000}
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(patched(load_bundled("example3_consensus_n3"), patch)))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "integrator: 20000000 steps exceed the maximum of 10000000" in capsys.readouterr().err


def test_explicit_coupling_matrix_is_read_as_written():
    rows = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]
    cfg = patched(load_bundled("example4_pinning_n10"), {"system.r": {"kind": "explicit", "rows": rows}})
    assert np.array_equal(build_scenario(cfg).system.r, rows)
    assert np.array_equal(build_scenario(patched(cfg, {"system.r": DELETE})).system.r, np.eye(3))


def test_defaults_live_at_the_constructors():
    mask = {"kind": "auto", "mask_kind": "additive", "privacy_level": 1, "seed": 5}
    sc = build_scenario(_consensus_config(integrator={}, mask=mask))
    assert sc.integrator == IntegratorConfig()
    drawn = MaskBank.auto(MaskKind.ADDITIVE, 1.0, sc.x0, seed=5)
    assert np.array_equal(sc.bank._values, drawn._values)
    # an integer privacy level is read as the float that the report writes
    assert type(sc.privacy_level) is float and type(sc.tol_conv) is float


SWEPT = [
    "example1_satnet_n10",
    "example2_fj_n10",
    "example3_consensus_n3",
    "example4_pinning_n10",
    "adversary_covering",
]
SWEEP_VALUES = [DELETE, "x", -1, None, 1.5, {"kind": "nope"}]

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


def test_check_on_single_key_mutants_exits_0_or_2_naming_a_deleted_required_key(tmp_path, capsys):
    # each key of a section (not a list entry) deleted, or set to one sweep value
    config_path, bad, named = tmp_path / "mutant.json", [], set()
    for name in SWEPT:
        config = load_bundled(name)
        for path in key_paths(config):
            if any(key.isdigit() for key in path.split(".")):
                continue
            for value in SWEEP_VALUES:
                config_path.write_text(json.dumps(patched(config, {path: value})))
                try:
                    code = main(["check", "--config", str(config_path), "--out", str(tmp_path / "out")])
                except Exception as exc:  # noqa: BLE001 - any exception is the failure under test
                    code = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err
                if value is DELETE and path in REQUIRED_IN_SWEPT:
                    named.add(path)
                    ok = (code, err) == (2, f"invalid config: {path} is required\n")
                else:
                    ok = code in (0, 2) and not (value is DELETE and "is required" in err)
                if not ok:
                    bad.append((name, path, value, code, err))
    assert bad == []
    assert named == REQUIRED_IN_SWEPT


class Row(NamedTuple):
    """One case of the config contract. base is a bundled name, an inline
    config or None (no config source at all), patch a config_patch patch of
    it (a bundled name that is not patched goes to --bundled, or to --names
    under suite), and expect a stderr fragment or the exact set of verdicts
    that report.json fails.
    covering, if given, holds the sorted covering pairs that simulate names
    on stderr and check writes to check_report.json."""

    id: str
    base: object
    patch: dict
    commands: tuple
    expect: object
    code: int = cli.EXIT_CONFIG
    flags: tuple = ()
    covering: tuple = ()


CHECK, SIMULATE, ADVERSARY, BOTH = ("check",), ("simulate",), ("adversary",), ("check", "simulate")
NAN, INF = float("nan"), float("inf")
CONSENSUS = _consensus_config()
EXPLICIT = _explicit_config(EXPLICIT_CHANNELS)
EXPLICIT_R = {"kind": "explicit", "rows": np.eye(3).tolist()}
#: Explicit pin_gains, one of them NaN, instead of pinned_count and pin_gain.
PIN_GAINS = {
    "system.pin_gain": DELETE,
    "system.pinned_count": DELETE,
    "system.pin_gains": [1.0, NAN] + [0.0] * 8,
}
#: The directed path 0 -> 1 -> ... -> 9, whose Laplacian's left null vector
#: is e_0, not positive.
PATH_10 = {"kind": "inline", "n": 10, "edges": [[i, i + 1, 1.0] for i in range(9)]}
#: The 2-cycles {0, 1} and {2, 3}, the second without an anchor, so that
#: L + Theta is singular.
UNANCHORED = {
    "graph": {"kind": "inline", "n": 4, "edges": [[0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0]]},
    "system.theta": {"kind": "inline", "values": [0.5, 0.5, 0.0, 0.0]},
    "x0": {"kind": "inline", "values": [0.1, 0.2, 0.3, 0.4]},
}
ADVERSARY_VALUES = [  # observer 1 sees only its in-neighbors 0 and 5 besides itself
    ("observer", 99, "adversary.observer must be an integer in [0, 6), got 99"),
    ("observer", "x", "adversary.observer must be an integer in [0, 6), got 'x'"),
    ("observer", True, "adversary.observer must be an integer in [0, 6), got True"),
    ("observer", None, "adversary.observer must be an integer in [0, 6), got None"),
    ("target", 1.5, "adversary.target must be an integer in [0, 6), got 1.5"),
    ("target", -1, "adversary.target must be an integer in [0, 6), got -1"),
    ("target", 3, "adversary.target 3 is not in the closed in-neighborhood of observer 1"),
    ("policies", ["zero", "nope"], "adversary.policies: unknown substitution policy 'nope'"),
    ("policies", [], "adversary.policies must name at least one substitution policy, got []"),
]
X0_VALUES = [  # (id, x0 section, message)
    ("values_nan", {"kind": "inline", "values": [NAN, 1.0, 2.0]},
     "x0.values[0] must be a finite number, got nan"),
    ("std_nan", {"kind": "gaussian", "std": NAN}, "x0.std must be a finite number, got nan"),
    ("mean_inf", {"kind": "gaussian", "mean": INF, "std": 1.0}, "x0.mean must be a finite number, got inf"),
    ("low_minus_inf", {"kind": "uniform", "low": -INF, "high": 2.0},
     "x0.low must be a finite number, got -inf"),
    ("high_inf", {"kind": "uniform", "low": -2.0, "high": INF}, "x0.high must be a finite number, got inf"),
    ("span_overflows", {"kind": "uniform", "low": -1e308, "high": 1e308},
     "x0.high - x0.low must be finite, got inf"),
    ("low_above_high", {"kind": "uniform", "low": 2.0, "high": 1.0},
     "x0.low must not exceed x0.high, got 2.0 > 1.0"),
    ("negative_std", {"kind": "gaussian", "std": -0.5}, "x0.std must be non-negative, got -0.5"),
    # the third of this seed's three draws overflows to inf
    ("draw_overflows", {"kind": "gaussian", "mean": 1e308, "std": 1e308},
     "x0: a gaussian draw is not finite"),
]
STRICT_VALUES = [  # (id, base, patch, message), each run under --strict
    ("rate_range_inf", "example1_satnet_n10", {"mask.rate_range": [0.5, INF]},
     "mask.rate_range must be 0 < lo <= hi < inf, got [0.5, inf]"),
    ("rate_range_nan", "example1_satnet_n10", {"mask.rate_range": [NAN, 1.0]},
     "mask.rate_range must be 0 < lo <= hi < inf, got [nan, 1.0]"),
    ("rate_range_zero", "example1_satnet_n10", {"mask.rate_range": [0.0, 1.0]},
     "mask.rate_range must be 0 < lo <= hi < inf, got [0.0, 1.0]"),
    ("rate_range_order", "example1_satnet_n10", {"mask.rate_range": [2.0, 1.0]},
     "mask.rate_range must be 0 < lo <= hi < inf, got [2.0, 1.0]"),
    ("kappa_over_radius_nan", "example1_satnet_n10", {"system.kappa_over_radius": NAN},
     "system.kappa_over_radius must be a finite number, got nan"),
    ("kappa_inf", "example1_satnet_n10", {"system": {"kind": "saturated_net", "kappa": INF}},
     "system.kappa must be a finite number, got inf"),
    ("pin_gain_nan", "example4_pinning_n10", {"system.pin_gain": NAN},
     "system.pin_gain must be a finite number, got nan"),
    ("pin_gains_nan", "example4_pinning_n10", PIN_GAINS,
     "system.pin_gains[1] must be a finite number, got nan"),
    ("lorenz_sigma_nan", "example4_pinning", {"system.drift.sigma": NAN},
     "system.drift.sigma must be a finite number, got nan"),
    ("lorenz_beta_inf", "example4_pinning", {"system.drift.beta": -INF},
     "system.drift.beta must be a finite number, got -inf"),
    ("tanh_a_nan", "example4_pinning_n10", {"system.drift.a.1.1": NAN},
     "system.drift.a[1][1] must be a finite number, got nan"),
    ("tanh_b_inf", "example4_pinning_n10", {"system.drift.b.0.2": INF},
     "system.drift.b[0][2] must be a finite number, got inf"),
    ("r_diagonal_inf", "example4_pinning_n10", {"system.r": EXPLICIT_R, "system.r.rows.2.2": INF},
     "system.r.rows[2][2] must be a finite number, got inf"),
    ("r_first_inf", "example4_pinning_n10", {"system.r": EXPLICIT_R, "system.r.rows.0.0": INF},
     "system.r.rows[0][0] must be a finite number, got inf"),
    ("r_off_diagonal_nan", "example4_pinning_n10", {"system.r": EXPLICIT_R, "system.r.rows.0.1": NAN},
     "system.r.rows[0][1] must be a finite number, got nan"),
    ("channel_delta_nan", CONSENSUS,
     {"mask": {"kind": "explicit", "channels": [{"kind": "additive", "gamma": 1.0, "delta": NAN}] * 3}},
     "mask.channels[0].delta must be a finite number, got nan"),
    ("channel_delta_bool", CONSENSUS,
     {"mask": {"kind": "explicit", "channels": [{"kind": "additive", "gamma": 1.0, "delta": True}] * 3}},
     "mask.channels[0].delta must be a finite number, got True"),
]
PAST_THE_FLOAT_RANGE = [  # (id, base, key path, value, message)
    ("weight_max", "example2_fj_n10", "graph.weight_range.1", 1e308, "graph.weight_range: n = 10 times it"),
    ("weight_min", "example1_satnet_n10", "graph.weight_range.0", -1e308,
     "graph.weight_range: n = 10 times it"),
    ("weight_inf", "example2_fj_n10", "graph.weight_range.0", INF, "graph.weight_range: n = 10 times it"),
    ("privacy_level_max", "example3_consensus_n3", "mask.privacy_level", 1e308,
     "draws offsets past the float range"),
    ("lipschitz_samples", "example4_pinning_n10", "sync_condition.samples", 2**63,
     "sync_condition.samples = 9223372"),
    ("lipschitz_box", "example4_pinning_n10", "sync_condition.box.1", 1e308, "the drift is not finite over"),
]
SYNC_VALUES = [  # simulate would otherwise fail only after the whole integration
    ("box", "x", "sync_condition.box must be two numbers, got 'x'"),
    ("box", [1.0], "sync_condition.box must be two numbers, got [1.0]"),
    ("box", [-3, "a"], "sync_condition.box must be two numbers, got [-3, 'a']"),
    ("box", [3.0, -3.0], "sync_condition.box must be finite lo < hi, got [3.0, -3.0]"),
    ("box", [-3.0, INF], "sync_condition.box must be finite lo < hi"),
    ("samples", 1, "sync_condition.samples must be >= 2, got 1"),
    ("samples", 4000.0, "sync_condition.samples must be an integer, got 4000.0"),
]

#: The config contract: what every command must do with a config that is
#: misspelled, inconsistent or out of range (exit 2 before anything is
#: integrated or written), and what a run that is not refused must give.
CONTRACT = [
    # checks that the scenario cannot decide
    Row("lmi_margin_on_consensus", "example3_consensus_n20", {"checks": ["lmi_margin_negative"]}, BOTH,
        "checks not applicable to this scenario: ['lmi_margin_negative']"),
    Row("conservation_on_pinning", "example4_pinning_n10", {"checks": ["conservation"]}, BOTH,
        "checks not applicable to this scenario: ['conservation']"),
    Row("vmm_non_monotone_on_satnet", CONSENSUS,
        {"checks": ["vmm_non_monotone"], "system": {"kind": "saturated_net", "kappa": 0.2}}, BOTH,
        "checks not applicable to this scenario: ['vmm_non_monotone']"),
    # a conditional check without its section; test_conditional_checks_need_their_section builds them without it
    Row("lmi_margin_without_sync_condition", "example4_pinning_n10", {"sync_condition": DELETE}, BOTH,
        "checks not applicable to this scenario: ['lmi_margin_negative']"),
    Row("privacy_checks_without_a_mask", "example4_pinning_n10", {"mask": DELETE}, BOTH,
        "checks not applicable to this scenario: ['privacy_floor', 'mask_gap_visible']"),
    Row("unknown_check", CONSENSUS, {"checks": ["no_such_check"]}, BOTH, "unknown check 'no_such_check'"),
    # explicit mask channels
    Row("channel_missing_parameter", EXPLICIT, {"mask.channels.1": {"kind": "linear", "phi": 1.0}}, BOTH,
        "invalid config: invalid scenario config: linear mask requires parameter sigma\n"),
    Row("channel_extra_parameter", EXPLICIT,
        {"mask.channels.1": {"kind": "linear", "phi": 1.0, "sigma": 2.0, "gamma": 2.0}}, BOTH,
        "invalid config: invalid scenario config: linear mask does not take parameter gamma\n"),
    Row("channel_unknown_kind", EXPLICIT, {"mask.channels.1": {"kind": "cubic", "phi": 1.0}}, BOTH,
        "invalid config: invalid scenario config: 'cubic' is not a valid MaskKind\n"),
    Row("channel_count_off_the_state", EXPLICIT, {"mask.channels.4": DELETE}, BOTH,
        "invalid config: mask bank has 4 channels, state needs 5\n"),
    Row("channel_gamma_string", CONSENSUS,
        {"mask": {"kind": "explicit", "channels": [{"kind": "additive", "gamma": "2", "delta": 1.0}] * 3}},
        CHECK, "mask.channels[0].gamma must be a finite number, got '2'"),
    # the integrator grid: 3 steps of 0.3 would integrate to 0.9, not 1.0
    Row("horizon_off_the_grid", CONSENSUS, {"integrator": {"dt": 0.3, "t_final": 1.0}}, SIMULATE,
        "does not divide t_final=1.0"),
    Row("method_euler", CONSENSUS, {"integrator.method": "euler"}, BOTH,
        "invalid config: integrator: unknown method 'euler'"),
    Row("t_final_inf", CONSENSUS, {"integrator.t_final": INF}, CHECK,
        "integrator.t_final must be finite and positive, got inf"),
    Row("dt_subnormal", CONSENSUS, {"integrator.dt": 1e-320}, CHECK,
        "integrator: t_final/dt = 30.0/1e-320 is not a finite step count"),
    Row("dt_zero", CONSENSUS, {"integrator.dt": 0}, CHECK,
        "integrator.dt must be finite and positive, got 0"),
    # unknown keys, also those of another kind of the same section
    *(Row(f"unknown_key_{path}", CONSENSUS, {path: 1.0}, CHECK, f"unknown config key {path!r}")
      for path in ("integrator.t_finl", "graph.weigth", "bogus", "graph.p")),
    Row("unknown_channel_key", CONSENSUS,
        {"mask": {"kind": "explicit", "channels": [{"kind": "additive", "gama": 1.0}] * 3}}, CHECK,
        "unknown config key 'mask.channels[0].gama'"),
    Row("frozen_anchor_on_consensus", CONSENSUS, {"system.frozen_anchor": True}, BOTH,
        "unknown config key 'system.frozen_anchor'"),
    *(Row(f"{section}_seed_{'reseeded' if flags else 'as_shipped'}", "example3_consensus_n3",
          {f"{section}.seed": 3}, CHECK, f"unknown config key '{section}.seed'", flags=flags)
      for section in ("integrator", "graph", "system") for flags in ((), ("--seed", "5"))),
    # unknown kinds and sections
    Row("unknown_system_kind", CONSENSUS, {"system": {"kind": "nope"}}, CHECK, "unknown system kind 'nope'"),
    Row("unknown_system_kind_alone", {"name": "x", "system": {"kind": "nope"}}, {}, SIMULATE,
        "unknown system kind 'nope'"),
    Row("unknown_drift_kind", "example4_pinning_n10", {"system.drift": {"kind": "nope"}}, CHECK,
        "unknown drift kind 'nope'"),
    *(Row(f"unknown_{path.rsplit('.', 1)[-1]}_kind", "example2_fj_n10", {f"{path}.kind": "nope"}, CHECK,
          f"unknown {path.rsplit('.', 1)[-1]} kind 'nope'") for path in ("graph", "x0", "mask", "system.theta")),
    # the inner coupling matrix R
    *(Row(f"r_{id}", "example4_pinning_n10", {"system.r": r}, BOTH, message) for id, r, message in (
        ("kind_misspelled_with_rows", {"kind": "identty", "rows": np.eye(3).tolist()}, "unknown r kind 'identty'"),
        ("kind_misspelled", {"kind": "identty"}, "unknown r kind 'identty'"),
        ("explicit_without_rows", {"kind": "explicit"}, "system.r.rows is required"),
        ("identity_with_rows", {"kind": "identity", "rows": np.eye(3).tolist()},
         "unknown config key 'system.r.rows'"),
        ("not_symmetric", {"kind": "explicit", "rows": [[1, 0, 0], [0, 1, 0], [1, 0, 1]]},
         "inner coupling matrix must be symmetric"),
    )),
    # keys of which a system needs one or the other, each refusal naming both
    *(Row(f"without_{key}", name, {f"system.{key}": DELETE}, BOTH, message) for name, key, message in (
        ("example1_satnet_n10", "kappa_over_radius", "saturated_net needs kappa or kappa_over_radius"),
        ("example4_pinning_n10", "pinned_count", "pinned_sync needs pin_gains, or pinned_count and pin_gain"),
        ("example4_pinning_n10", "pin_gain", "pinned_sync needs pin_gains, or pinned_count and pin_gain"),
    )),
    # -1 would pin 9 of the 10 agents through gains[:-1]
    *(Row(f"pinned_count_{count}", "example4_pinning_n10", {"system.pinned_count": count}, BOTH,
          f"system.pinned_count must be in [0, 10], got {count}") for count in (-1, 11)),
    # refused before the footprint check and the state dimension that nu feeds
    *(Row(f"nu_{nu}", "example4_pinning_n10", {"system.nu": nu}, BOTH,
          f"system.nu must be at least 1, got {nu}") for nu in (0, -1)),
    Row("unknown_bundled_name", "no_such_scenario", {}, CHECK, "no_such_scenario.json"),
    # suite builds every row before it runs any, so a bad name leaves nothing written
    Row("suite_unknown_name_after_a_known_one", None, {}, ("suite",), "no_such_scenario.json",
        flags=("--names", "example3_consensus_n3", "no_such_scenario")),
    Row("no_config_source", None, {}, BOTH, "invalid config: provide --config PATH or --bundled NAME"),
    Row("seed_missing", CONSENSUS, {"seed": DELETE}, BOTH,
        "randomized element 'x0' needs a seed (own or top-level)"),
    Row("seeded_list", [], {}, ("check", "simulate", "adversary"), "config must be an object, got []",
        flags=("--seed", "3")),
    Row("seeded_list_section", {"seed": 1, "system": [1]}, {}, ("check", "simulate", "adversary"),
        "system must be", flags=("--seed", "3")),
    # graphs
    Row("edge_weight_nan", CONSENSUS, {"graph": INLINE_CYCLE, "graph.edges.2.2": NAN}, BOTH,
        "non-finite weight on edge (2, 0, nan)"),
    Row("edge_weight_inf", CONSENSUS, {"graph": INLINE_CYCLE, "graph.edges.2.2": INF}, BOTH,
        "non-finite weight on edge (2, 0, inf)"),
    Row("edge_node_fractional", CONSENSUS, {"graph": INLINE_CYCLE, "graph.edges.1.1": 1.7}, BOTH,
        "non-integer node id on edge (1, 1.7, 1.0)"),
    # a single edge is nilpotent: its adjacency has spectral radius 0
    Row("kappa_over_a_zero_radius", CONSENSUS,
        {"graph": {"kind": "inline", "n": 2, "edges": [[0, 1, 1.0]]},
         "system": {"kind": "saturated_net", "kappa_over_radius": 1.0}, "checks": []}, BOTH,
        "system.kappa_over_radius needs an adjacency of positive spectral radius, got 0.0"),
    Row("graph_retries_exhausted", "example1_satnet_n10", {}, CHECK,
        "graph: no admissible random graph found in 100 retries (n=10, p=0.35)", flags=("--seed", "3390588")),
    # a builder that may try no graph finds none
    *(Row(f"graph_max_retries_{retries}", "example1_satnet_n10", {"graph.max_retries": retries}, BOTH,
          f"graph.max_retries must be at least 1, got {retries}") for retries in (0, -1)),
    # the adversary block
    *(Row(f"settle_tol_{tol}", "adversary_covering", {"adversary.settle_tol": tol}, ADVERSARY,
          "adversary.settle_tol must be finite and positive") for tol in (INF, NAN, 0.0, -1.0)),
    *(Row(f"adversary_{key}_{value!r}", "adversary_covering", {f"adversary.{key}": value}, ADVERSARY, message)
      for key, value, message in ADVERSARY_VALUES),
    *(Row(f"attack_row_{system['kind']}", "adversary_covering", {"system": system}, ADVERSARY,
          f"system kind '{system['kind']}' has no attack row")
      for system in ({"kind": "friedkin_johnsen", "theta": 0.5},
                     {"kind": "saturated_net", "kappa_over_radius": 0.5})),
    Row("no_adversary_block", CONSENSUS, {}, ADVERSARY, "scenario config has no adversary block"),
    # flags: --tol inf would pass converged trivially; nan, 0 and -1 would fail it
    *(Row(f"tol_flag_{tol}", "example3_consensus_n3", {}, ("simulate", "suite"),
          "usage error: argument --tol: must be finite and positive", flags=("--tol", tol))
      for tol in ("inf", "nan", "0", "-1")),
    Row("tol_flag_on_check", "example3_consensus_n3", {}, CHECK, "usage error: unrecognized arguments: --tol 1",
        flags=("--tol", "1")),
    Row("strict_flag_on_adversary", "adversary_covering", {}, ADVERSARY,
        "usage error: unrecognized arguments: --strict", flags=("--strict",)),
    Row("unknown_flag", "example3_consensus_n3", {}, CHECK, "usage error: unrecognized arguments: --no-such-flag",
        flags=("--no-such-flag",)),
    Row("names_without_a_name", None, {}, ("suite",), "usage error: argument --names: expected at least one",
        flags=("--names",)),
    # bounds that inf, nan, 0 or -1 would make meaningless; an identity mask
    # with level -1 would pass privacy_floor and mask_gap_visible
    *(Row(f"tol_conv_{tol}", CONSENSUS, {"tolerances": {"tol_conv": tol}}, SIMULATE,
          "tolerances.tol_conv must be finite and positive") for tol in (INF, NAN, 0.0, -1.0)),
    *(Row(f"privacy_level_{level}_{mask['kind']}", CONSENSUS,
          {"mask": {**mask, "privacy_level": level}, "checks": ["privacy_floor", "mask_gap_visible"]},
          SIMULATE, "mask.privacy_level must be finite and positive")
      for mask in ({"kind": "identity"}, CONSENSUS["mask"]) for level in (-1.0, 0.0, INF, NAN)),
    # wrong JSON types: a null seed would draw a fresh graph or mask on
    # every run under one config hash
    *(Row(f"type_{path}", "example1_satnet_n10", {path: value}, CHECK, message)
      for path, value, message in (
          ("graph.seed", None, "graph.seed must be a non-negative integer, got None"),
          ("mask.seed", None, "mask.seed must be a non-negative integer, got None"),
          ("integrator.record_stride", 1.5, "integrator.record_stride must be an integer, got 1.5"),
          ("graph.symmetric", "no", "graph.symmetric must be a boolean, got 'no'"),
          ("graph", "x", "graph must be an object, got 'x'"),
      )),
    # vector sections: json writes and reads NaN and Infinity, and no draw or run may take them
    *(Row(f"x0_{id}", CONSENSUS, {"x0": x0}, BOTH, message) for id, x0, message in X0_VALUES),
    Row("x0_inline_dimension", CONSENSUS, {"x0": {"kind": "inline", "values": [1.0, 2.0]}}, BOTH,
        "x0: expected 3 values, got (2,)"),
    Row("x0_std_missing", CONSENSUS, {"x0": {"kind": "gaussian", "mean": 1.0}}, CHECK, "x0.std is required"),
    Row("theta_nan", "example2_fj_n10", {"system.theta": NAN}, BOTH,
        "system.theta must be a finite number or an object, got nan"),
    Row("theta_order", "example2_fj_n10", {"system.theta": {"kind": "uniform", "low": 0.9, "high": 0.2}},
        BOTH, "system.theta.low must not exceed system.theta.high, got 0.9 > 0.2"),
    # json reads NaN, Infinity and true; such a gain, rate or mask parameter
    # would otherwise blow the run up (exit 4), fail the mask axioms under
    # check --strict (exit 3) or run as 1.0, none of which names the key
    *(Row(id, base, patch, BOTH, message, flags=("--strict",)) for id, base, patch, message in STRICT_VALUES),
    # json reads 10**400 as an exact int, which float() cannot convert
    *(Row(f"huge_int_{path}", "example3_consensus_n3", {path: 10**400}, BOTH, message)
      for path, message in (
          ("x0.high", "x0.high must be a finite number, got 1000"),
          ("graph.weight", "graph.weight must be a number, got 1000"),
          ("integrator.t_final", "integrator.t_final must be finite and positive, got 1000"),
          ("mask.privacy_level", "mask.privacy_level must be finite and positive, got 1000"),
      )),
    # values past the float range, refused without a RuntimeWarning (an error in tier-1)
    *(Row(id, base, {path: value}, BOTH, message) for id, base, path, value, message in PAST_THE_FLOAT_RANGE),
    # the artifact directory under --out
    *(Row(f"name_{id}", CONSENSUS, {"name": name}, CHECK,
          f"name must be one plain path component, got {name!r}")
      for id, name in (("parent_path", "../escaped"), ("nested_path", "a/b"), ("empty", ""), ("dot", "."),
                       ("dot_dot", ".."), ("nul_byte", "nul\0"))),
    # sync_condition
    *(Row(f"sync_{key}_{value!r}", "example4_pinning_n10", {f"sync_condition.{key}": value}, CHECK, message)
      for key, value, message in SYNC_VALUES),
    Row("sync_condition_without_exosystem", "example3_consensus_n3", {"sync_condition": {"box": [-3.0, 3.0]}},
        BOTH, "sync_condition: system kind 'average_consensus' has no exosystem"),
    # verdicts that cannot be formed, which once failed after the integration
    Row("xi_on_a_path", "example4_pinning_n10", {"graph": PATH_10}, BOTH,
        "sync_condition needs an irreducible graph: left null vector is not strictly positive"),
    Row("theta_unanchored", "example2_fj_n10", UNANCHORED, BOTH,
        "system.theta: agent 2 is reached from no agent of nonzero theta, so L + Theta is singular"),
    # runs that are not refused
    Row("reseeded", "example3_consensus_n3", {}, SIMULATE, frozenset(), code=cli.EXIT_OK,
        flags=("--seed", "7")),
    Row("covering_under_strict", CONSENSUS,
        {"graph": {"kind": "complete", "n": 3}, "checks": ["no_covering"]}, BOTH,
        "strict mode: failing checks ['no_covering']\n", code=cli.EXIT_ASSUMPTION, flags=("--strict",),
        covering=((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))),
    # a gain-only mask has a fixed point at 0; a decay rate whose 50 time
    # constants overflow the double range is probed over a capped horizon,
    # on which its mask does not vanish
    *(Row(id, "example3_consensus_n3", {**patch, "checks": [], "integrator.t_final": 0.5}, BOTH,
          "strict mode: failing checks ['mask_axioms']\n", code=cli.EXIT_ASSUMPTION, flags=("--strict",))
      for id, patch in (
          ("mask_axioms_under_strict",
           {"mask": {"kind": "explicit", "channels": [{"kind": "linear", "phi": 1.0, "sigma": 1.0}] * 3}}),
          ("slow_decay_explicit",
           {"mask": {"kind": "explicit", "channels": [{"kind": "additive", "gamma": 2.0, "delta": 1e-320}] * 3}}),
          ("slow_decay_linear",
           {"mask": {"kind": "explicit", "channels": [{"kind": "linear", "phi": 1.0, "sigma": 5e-324}] * 3}}),
          ("slow_decay_auto", {"mask.rate_range": [1e-310, 1e-310]}),
      )),
    Row("drift_blow_up", "example4_pinning_n10", BLOW_UP, SIMULATE,
        "numerical failure: numerical blow-up at t=0.199", code=cli.EXIT_NUMERIC),
    Row("late_blow_up", "example4_pinning_n10", LATE_BLOW_UP, SIMULATE,
        "numerical failure: numerical blow-up at t=0.573", code=cli.EXIT_NUMERIC),
    Row("s0_overflows_the_field", "example4_pinning_n10",
        {"integrator.t_final": 0.5, "system.s0.values.1": 1e308}, SIMULATE,
        "numerical failure: numerical blow-up at t=0.001", code=cli.EXIT_NUMERIC),
    Row("horizon_too_short", CONSENSUS,
        {"integrator.t_final": 0.5, "integrator.record_stride": 1, "checks": ["converged"]}, SIMULATE,
        frozenset({"converged"}), code=cli.EXIT_VERDICT),
    # negative controls: an unmasked run shows its states, and a wide start leaves the box
    Row("identity_mask", "example3_consensus_n20",
        {"integrator.t_final": 1.0, "mask": {"kind": "identity", "privacy_level": 1.0}}, SIMULATE,
        frozenset({"converged", "mask_gap_visible", "output_mean_hidden", "privacy_floor",
                   "vmm_non_monotone"}),
        code=cli.EXIT_VERDICT),
    Row("wide_x0", "example3_consensus_n20",
        {"integrator.t_final": 1.0, "x0.low": -5000.0, "x0.high": 5000.0}, SIMULATE,
        frozenset({"bounded_states", "converged", "mask_gap_closes", "vmm_non_monotone"}),
        code=cli.EXIT_VERDICT),
]


#: How main's one stderr line starts for a refusal and a numerical failure.
FAILURE_LINE = {
    cli.EXIT_CONFIG: ("invalid config: ", "usage error: "),
    cli.EXIT_NUMERIC: ("numerical failure: ",),
}


@pytest.mark.parametrize(
    "row,command",
    [(row, command) for row in CONTRACT for command in row.commands],
    ids=[f"{row.id}-{command}" for row in CONTRACT for command in row.commands],
)
def test_cli_config_contract(row, command, tmp_path, capsys, monkeypatch):
    if row.code == cli.EXIT_CONFIG:  # refused before anything is integrated
        monkeypatch.setattr(scenario, "integrate", _never_called)
    if row.base is None:
        source = []
    elif isinstance(row.base, str) and not row.patch:
        source = ["--names" if command == "suite" else "--bundled", row.base]
    else:
        base = load_bundled(row.base) if isinstance(row.base, str) else row.base
        config = tmp_path / "config.json"
        config.write_text(json.dumps(patched(base, row.patch)))
        source = ["--config", str(config)]
    code = main([command, *source, *row.flags, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == row.code, err
    if isinstance(row.expect, str):
        assert row.expect in err
    else:
        (report,) = (tmp_path / "out").glob("*/report.json")
        verdicts = json.loads(report.read_text())["verdicts"]
        assert {name for name, ok in verdicts.items() if not ok} == row.expect
    if row.covering and command == "check":
        (report,) = (tmp_path / "out").glob("*/check_report.json")
        assert tuple(sorted(map(tuple, json.loads(report.read_text())["covering_pairs"]))) == row.covering
    elif row.covering:
        assert f"covering pairs: {list(row.covering)}" in err
    if code in FAILURE_LINE:  # main's one stderr line, and nothing made on disk
        assert err.startswith(FAILURE_LINE[code]) and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) in ([], ["config.json"])


def test_every_documented_exit_code_has_a_contract_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = re.search(r"^Exit codes:(.*?)\.\s", readme, re.MULTILINE | re.DOTALL).group(1)
    documented = {int(code) for code in re.findall(r"`(\d)`", line)}
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert documented == codes
    assert {row.code for row in CONTRACT} == codes
