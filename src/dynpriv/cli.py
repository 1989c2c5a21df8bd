"""Command-line front door: validate, simulate, attack, and batch-verify.

Exit codes: 0 all requested verdicts pass; 2 usage error, invalid config,
or an --out that cannot hold the artifacts; 3 structural assumption
violated under --strict; 4 numerical failure; 5 verdict failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

from . import adversary as adv
from . import scenario as scn
from .solver import BlowUpError

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


class _AssumptionFailed(Exception):
    """A structural check failed under --strict; its message is the report."""


class _UnusableOut(Exception):
    """--out cannot hold the artifacts; its message names the path."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error reaches main, which maps it to exit 2
        raise argparse.ArgumentError(None, message)


def _load(args, bundled=None) -> dict:
    """The config of --config, --bundled or the given bundled name, with
    --seed and --tol written into it, so that its hash names every override.
    A config or section that is not an object is left for the schema walk."""
    if args.config:
        config = scn.load_config(args.config)
    elif bundled or args.bundled:
        config = scn.load_bundled(bundled or args.bundled)
    else:
        raise scn.ScenarioError("provide --config PATH or --bundled NAME")
    if args.seed is not None:
        config = scn.override_seed(config, args.seed)
    if args.tol is not None and isinstance(config, dict):
        tolerances = config.get("tolerances", {})
        if isinstance(tolerances, dict):
            config = {**config, "tolerances": {**tolerances, "tol_conv": args.tol}}
    return config


def _out(args, name: str = "") -> Path:
    """The --out directory (default ./out), or its subdirectory name, once
    it is known to be able to hold the artifacts: it, or else its nearest
    existing parent, is a directory. Nothing is made on disk."""
    path = (Path(args.out) if args.out else Path("out")) / name
    for part in (path, *path.parents):
        if part.is_dir():
            break
        if part.exists():
            under = "" if part == path else f" lies under {str(part)!r}, which"
            raise _UnusableOut(f"{str(path)!r}{under} is not a directory")
    return path


def _outdir(args, name: str = "") -> Path:
    """_out(args, name), made if missing."""
    path = _out(args, name)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_artifacts(outdir: Path, streams: dict, report) -> None:
    """Move each streamed file to its artifact name under outdir, then write report.json."""
    for name, stream in streams.items():
        os.replace(stream, outdir / f"{name}.csv")
    report.series_files = {name: f"{name}.csv" for name in streams}
    _write_json(outdir / "report.json", report.as_dict())


def _simulate(args, sc, name: str):
    """Run sc and write its artifacts under name; returns its report. The
    run streams trajectory.csv and series.csv into new temporary files in
    the nearest existing directory of the artifacts' one; once the run has
    returned, that directory is made and the files moved into it, and on any
    failure the files are deleted. So a failed run leaves no directory and
    no file, and never touches an earlier run's artifacts."""
    path = _out(args, name)
    home = next(part for part in (path, *path.parents) if part.is_dir())
    tag = os.urandom(8).hex()
    streams = {kind: home / f".{path.name}.{kind}.{tag}.tmp" for kind in ("trajectory", "series")}
    try:
        with open(streams["trajectory"], "xb") as trajectory, open(streams["series"], "xb") as series:
            _, _, report = scn.run_simulation(sc, trajectory, series)
        _write_artifacts(_outdir(args, name), streams, report)
    finally:
        for stream in streams.values():
            stream.unlink(missing_ok=True)
    return report


def _failing_checks(graph_results: dict, mask_results: dict) -> list:
    """The graph checks that failed, then mask_axioms if it failed: what --strict refuses."""
    failed = [k for k, ok in graph_results.items() if not ok]
    return failed if mask_results["ok"] else [*failed, "mask_axioms"]


def cmd_check(args) -> int:
    sc = scn.build_scenario(_load(args))
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
    for k in sorted(graph_results):
        print(f"check {k}: {'pass' if graph_results[k] else 'FAIL'}")
    print(f"check mask_axioms: {'pass' if mask_results['ok'] else 'FAIL'}")
    if violations:
        print(f"covering pairs (target, observer-covered-by): {sorted(violations)}")
    if args.strict and (failed := _failing_checks(graph_results, mask_results)):
        raise _AssumptionFailed(f"strict mode: failing checks {failed}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = scn.build_scenario(_load(args))
    if args.strict and (bad := _failing_checks(scn.run_graph_checks(sc), scn.run_mask_check(sc))):
        message = f"strict mode: failing checks {bad}"
        if "no_covering" in bad:
            message += f"\ncovering pairs: {sorted(scn.covering_violations(sc))}"
        raise _AssumptionFailed(message)
    report = _simulate(args, sc, sc.name)
    for name, ok in sorted(report.verdicts.items()):
        print(f"verdict {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if report.all_pass else EXIT_VERDICT


def cmd_adversary(args) -> int:
    sc = scn.build_scenario(_load(args))
    if sc.adversary is None:
        raise scn.ScenarioError("scenario config has no adversary block")
    observer, target = sc.adversary["observer"], sc.adversary["target"]
    _out(args, sc.name)
    # the eavesdropper reads outputs only: no diagnostics, series or verdicts
    view = adv.EavesdropperView.from_windows(sc.graph, observer, scn.windows(sc), sc.integrator.n_records)
    row_field, needed = sc.system.attack_row(target)
    true_x0 = float(sc.x0[target])
    attempts = []
    for policy in sc.adversary["policies"]:
        result = adv.reconstruct_initial(
            view, target, row_field, needed, policy, sc.adversary["settle_tol"]
        )
        err = abs(result.x_hat - true_x0)
        attempts.append(
            {
                "observer": observer,
                "target": target,
                "policy": policy,
                "x_hat": result.x_hat,
                "true_x0": true_x0,
                "abs_error": err,
                "missing_channels": list(result.missing_channels),
            }
        )
        print(f"attack policy={policy}: x_hat={result.x_hat:.6g} true={true_x0:.6g} err={err:.3e}")
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
    # every row is built before any runs, so that a bad name or config exits 2 with nothing written
    scenarios = [scn.build_scenario(_load(args, name)) for name in names]
    rows = []
    worst = EXIT_OK
    for name, sc in zip(names, scenarios):
        start = perf_counter()
        graph_results = scn.run_graph_checks(sc)
        if not all(graph_results.values()):
            status, verdicts, code = "assumption-failed", graph_results, EXIT_VERDICT
        else:
            try:
                report = _simulate(args, sc, name)
            except BlowUpError as exc:  # this row fails, and the suite goes on
                status, verdicts, code = f"numerical failure: {exc}", {}, EXIT_NUMERIC
            else:
                ok = report.all_pass
                status, code = ("pass", EXIT_OK) if ok else ("verdict-failed", EXIT_VERDICT)
                verdicts = report.verdicts
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
    _write_json(_outdir(args) / "suite_summary.json", {"results": rows})
    return worst


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and then shared:
    parse_args keeps nothing in it, and each add_argument would otherwise
    pay for a fresh help formatter on every main call."""
    parser = _Parser(
        prog="dynpriv",
        description="Simulate and verify output-masked multiagent dynamics.",
    )
    # what _load reads, for a command that does not take the flag
    parser.set_defaults(config=None, bundled=None, seed=None, tol=None)
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
    p.add_argument("--names", nargs="+", help="bundled scenario subset (default: full suite)")
    p.add_argument("--out", help="artifact output directory (default ./out)")
    p.add_argument("--tol", type=_tolerance, help="override the convergence tolerance")
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _out(args)  # refused before any run starts
        return args.fn(args)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except scn.ScenarioError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _UnusableOut as exc:
        print(f"unusable --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _AssumptionFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_ASSUMPTION
    except (BlowUpError, adv.NotSettledError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
