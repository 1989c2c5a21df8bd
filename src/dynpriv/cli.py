"""Command-line front door: validate, simulate, attack, and batch-verify.

Exit codes: 0 all requested verdicts pass; 2 invalid config; 3 structural
assumption violated under --strict; 4 numerical failure; 5 verdict failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from time import perf_counter

from . import adversary as adv
from . import analysis
from . import scenario as scn
from .solver import BlowUpError, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERIC = 4
EXIT_VERDICT = 5

SUITE_SCENARIOS = (
    "example1_satnet_n20",
    "example2_fj_n20",
    "example3_consensus_n20",
    "example3_consensus",
    "example4_pinning_n10",
    "example4_pinning",
)


def _tolerance(text: str) -> float:
    """Type of --tol: a finite positive float, else a usage error (exit 2)."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _load(args) -> dict:
    if args.config:
        config = scn.load_config(args.config)
    elif getattr(args, "bundled", None):
        config = scn.load_bundled(args.bundled)
    else:
        raise scn.ScenarioError("provide --config PATH or --bundled NAME")
    if getattr(args, "seed", None) is not None:
        config = scn.override_seed(config, args.seed)
    return config


def _outdir(args, name: str) -> Path:
    base = Path(args.out) if args.out else Path("out")
    path = base / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_artifacts(outdir: Path, sc, traj, report) -> None:
    traj.to_csv(outdir / "trajectory.csv")
    header, table = analysis.series_table(traj)
    write_csv(outdir / "series.csv", header, table)
    report.series_files = {"trajectory": "trajectory.csv", "series": "series.csv"}
    _write_json(outdir / "report.json", report.as_dict())


def _simulate(args, sc, name: str):
    """Run sc and write its artifacts under name.

    Returns (report, None), or (None, message) on a numerical blow-up.
    """
    outdir = _outdir(args, name)
    try:
        traj, report = scn.run_simulation(sc, tol_override=args.tol)
    except BlowUpError as exc:
        return None, f"numerical failure: {exc}"
    _write_artifacts(outdir, sc, traj, report)
    return report, None


def cmd_check(args) -> int:
    config = _load(args)
    sc = scn.build_scenario(config)
    graph_results = scn.run_graph_checks(sc)
    mask_results = scn.run_mask_check(sc)
    violations = scn.covering_violations(sc)
    payload = {
        "scenario": sc.name,
        "config_hash": sc.hash,
        "graph": graph_results,
        "covering_pairs": [list(v) for v in violations],
        "mask": mask_results,
    }
    outdir = _outdir(args, sc.name)
    _write_json(outdir / "check_report.json", payload)
    failed = [k for k, ok in graph_results.items() if not ok]
    if not mask_results["ok"]:
        failed.append("mask_axioms")
    for k in sorted(graph_results):
        print(f"check {k}: {'pass' if graph_results[k] else 'FAIL'}")
    print(f"check mask_axioms: {'pass' if mask_results['ok'] else 'FAIL'}")
    if violations:
        print(f"covering pairs (target, observer-covered-by): {sorted(violations)}")
    if failed and args.strict:
        print(f"strict mode: failing checks {failed}", file=sys.stderr)
        return EXIT_ASSUMPTION
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load(args)
    sc = scn.build_scenario(config)
    if args.strict:
        graph_results = scn.run_graph_checks(sc)
        if not all(graph_results.values()):
            bad = [k for k, ok in graph_results.items() if not ok]
            print(f"strict mode: failing checks {bad}", file=sys.stderr)
            if "no_covering" in bad:
                print(f"covering pairs: {sorted(scn.covering_violations(sc))}", file=sys.stderr)
            return EXIT_ASSUMPTION
    report, failure = _simulate(args, sc, sc.name)
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_NUMERIC
    for name, ok in sorted(report.verdicts.items()):
        print(f"verdict {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if report.all_pass else EXIT_VERDICT


def cmd_adversary(args) -> int:
    config = _load(args)
    sc = scn.build_scenario(config)
    if sc.adversary is None:
        raise scn.ScenarioError("scenario config has no adversary block")
    observer, target = sc.adversary["observer"], sc.adversary["target"]
    try:
        traj, _report = scn.run_simulation(sc)
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    row_field, needed = sc.system.attack_row(target)
    view = adv.EavesdropperView.from_trajectory(sc.graph, observer, traj)
    true_x0 = float(sc.x0[target])
    attempts = []
    for policy in sc.adversary["policies"]:
        try:
            result = adv.reconstruct_initial(
                view, target, row_field, needed, policy, sc.adversary["settle_tol"]
            )
        except ValueError as exc:  # outputs not settled: the horizon is too short to judge
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        attempts.append(
            {
                "observer": observer,
                "target": target,
                "policy": policy,
                "x_hat": result.x_hat,
                "true_x0": true_x0,
                "abs_error": abs(result.x_hat - true_x0),
                "missing_channels": list(result.missing_channels),
            }
        )
        print(
            f"attack policy={policy}: x_hat={result.x_hat:.6g} "
            f"true={true_x0:.6g} err={abs(result.x_hat - true_x0):.3e}"
        )
    payload = {
        "scenario": sc.name,
        "config_hash": sc.hash,
        "covering_pairs": sorted([j, i] for i, j in scn.covering_violations(sc)),
        "attempts": attempts,
    }
    _write_json(_outdir(args, sc.name) / "attack.json", payload)
    return EXIT_OK


def cmd_suite(args) -> int:
    names = args.names or list(SUITE_SCENARIOS)
    rows = []
    worst = EXIT_OK
    for name in names:
        start = perf_counter()
        sc = scn.build_scenario(scn.load_bundled(name))
        graph_results = scn.run_graph_checks(sc)
        if not all(graph_results.values()):
            status, verdicts, code = "assumption-failed", graph_results, EXIT_VERDICT
        else:
            report, failure = _simulate(args, sc, name)
            if failure:
                status, verdicts, code = failure, {}, EXIT_NUMERIC
            elif report.all_pass:
                status, verdicts, code = "pass", report.verdicts, EXIT_OK
            else:
                status, verdicts, code = "verdict-failed", report.verdicts, EXIT_VERDICT
        rows.append(
            {
                "scenario": name,
                "config_hash": sc.hash,
                "status": status,
                "verdicts": verdicts,
                "n_steps": sc.integrator.n_steps,
                "wall_s": perf_counter() - start,
            }
        )
        worst = max(worst, code)
    width = max(len(r["scenario"]) for r in rows) + 2
    print(f"{'scenario':<{width}}status           verdicts")
    for row in rows:
        marks = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(row["verdicts"].items()))
        print(f"{row['scenario']:<{width}}{row['status']:<17}{marks}")
    base = Path(args.out) if args.out else Path("out")
    base.mkdir(parents=True, exist_ok=True)
    _write_json(base / "suite_summary.json", {"results": rows})
    return worst


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and then shared:
    parse_args keeps nothing in it, and each add_argument would otherwise
    pay for a fresh help formatter on every main call."""
    parser = argparse.ArgumentParser(
        prog="dynpriv",
        description="Simulate and verify output-masked multiagent dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand declares only the flags its command reads
    for name, fn, strict, tol in (
        ("simulate", cmd_simulate, True, True),
        ("check", cmd_check, True, False),
        ("adversary", cmd_adversary, False, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument("--bundled", help="name of a bundled scenario")
        p.add_argument("--out", help="artifact output directory (default ./out)")
        if strict:
            p.add_argument("--strict", action="store_true", help="fail on assumption violations")
        p.add_argument("--seed", type=int, help="override the top-level config seed")
        if tol:
            p.add_argument("--tol", type=_tolerance, help="override the convergence tolerance")
        p.set_defaults(fn=fn)
    p = sub.add_parser("suite")
    p.add_argument("--names", nargs="*", help="bundled scenario subset (default: full suite)")
    p.add_argument("--out", help="artifact output directory (default ./out)")
    p.add_argument("--tol", type=_tolerance, help="override the convergence tolerance")
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except scn.ScenarioError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
