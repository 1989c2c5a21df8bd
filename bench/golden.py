#!/usr/bin/env python3
"""Verify or record golden.json, the SHA-256 digests the benchmark checks.

    python3 bench/golden.py           # verify every digest; exit 1 on a mismatch
    python3 bench/golden.py --write   # record the digests of the current code

"simulate" covers trajectory.csv and report.json of every bundled scenario
at its shipped seed; "check" covers check_report.json of each scenario the
workloads check. Digests assume the benchmark's one-thread BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys

import run


def digests(main, command: str, base: str) -> dict:
    out = run.WORK / "golden"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--bundled", base, "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{command} {base} exited {rc}")
    found = {name: run.sha256_file(out / base / name) for name in run.GOLDEN_FILES[command]}
    shutil.rmtree(out)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="verify or record golden.json")
    parser.add_argument("--write", action="store_true", help="record instead of verifying")
    args = parser.parse_args(argv)
    if run.prepare() is None:
        return 2
    from dynpriv import cli, scenario

    checked = sorted({base for wl in run.WORKLOADS.values() for base in wl.bases})
    found = {
        "simulate": {name: digests(cli.main, "simulate", name) for name in scenario.bundled_names()},
        "check": {name: digests(cli.main, "check", name) for name in checked},
    }
    if args.write:
        run.GOLDEN_PATH.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
        print(f"wrote {run.GOLDEN_PATH.name}")
        return 0
    golden = json.loads(run.GOLDEN_PATH.read_text())
    bad = [
        f"{command} {base} {name}"
        for command, entries in found.items()
        for base, files in entries.items()
        for name, digest in files.items()
        if golden.get(command, {}).get(base, {}).get(name) != digest
    ]
    for item in bad:
        print(f"MISMATCH {item}")
    print(f"{sum(len(f) for e in found.values() for f in e.values())} digests checked, {len(bad)} mismatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
