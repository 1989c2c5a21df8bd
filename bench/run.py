#!/usr/bin/env python3
"""dynpriv benchmark: drive `dynpriv.cli.main` in one process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues one CLI command at a time and waits for it; BLAS runs on
one thread. Each workload's inputs are bundled scenarios re-seeded through
`--seed` (the CLI's own override_seed); operation 0 starts with the shipped
configs, whose artifacts must match the SHA-256 digests in golden.json.

--trace 0 prints the end-to-end metrics: timings are scaled by the run's
speed factor from a fixed calibration loop, and the raw figures are printed
beside them. --trace 1 prints the per-layer metrics of a traced window plus
the tracing overhead, unscaled. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_BEYOND = 10  # a percentile is reported only with this many samples above it
MIN_CHECKS = 100  # check commands per untraced run, so p90 has 10 beyond it
CHECKS_PER_SIMULATE = 25  # spreads the checks of a simulate workload over its run
SETUP_REPS = 5
TRACE_CHECKS = 10  # check commands in front of the simulate in a traced window


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate" or "check"
    bases: tuple  # bundled scenarios, cycled through
    per_op: int  # commands in one operation


# Why each workload exists is recorded in README.md and BENCHMARK.json. A
# check takes ~25 ms, and on a shared VM the CPU speed can switch between two
# levels every few seconds, so one check operation is 100 checks (~2.5 s):
# its wall time averages over those switches as a 5 s simulate does.
WORKLOADS = {
    tracing.CONSENSUS: Workload("simulate", ("example3_consensus",), 1),
    tracing.PINNING: Workload("simulate", ("example4_pinning",), 1),
    tracing.CHECKS: Workload(
        "check", ("example1_satnet", "example2_fj", "example3_consensus", "example4_pinning"), 100
    ),
}

OUTPUTS = {
    "simulate": ("trajectory.csv", "series.csv", "report.json"),
    "check": ("check_report.json",),
}
GOLDEN_FILES = {"simulate": ("trajectory.csv", "report.json"), "check": ("check_report.json",)}


# ---------------------------------------------------------------- arithmetic


def percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples lie above it (the rank is ceil(q/100 * n), 1-based)."""
    xs = sorted(samples)
    rank = math.ceil(q / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def op_seed(seed: int, stream: str, k: int) -> int:
    """Deterministic 32-bit scenario seed for item k of a named input stream."""
    digest = hashlib.sha256(f"{stream}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))


# --------------------------------------------------------------- operations


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a command on a bundled scenario, maybe re-seeded."""

    command: str
    base: str
    seed: int | None  # None runs the shipped config

    def argv(self, out: Path) -> list:
        args = [self.command, "--bundled", self.base, "--out", str(out)]
        return args if self.seed is None else args + ["--seed", str(self.seed)]


def verify(cmd: Command, rc: int, outdir: Path, golden: dict, shape: dict) -> list:
    """Problems with one command's exit code and artifacts; [] when correct.

    Shipped configs must reproduce their golden digests. Every simulate must
    pass all its verdicts and record as many trajectory lines as the shipped
    run of the same scenario.
    """
    if rc != 0:
        return [f"{cmd.command} {cmd.base} seed={cmd.seed}: exit {rc}"]
    problems = []
    if cmd.command == "check":
        report = json.loads((outdir / "check_report.json").read_text())
        if not all(report["graph"].values()) or not report["mask"]["ok"]:
            problems.append(f"check {cmd.base} seed={cmd.seed}: a check failed")
    else:
        report = json.loads((outdir / "report.json").read_text())
        if not report["verdicts"] or not all(report["verdicts"].values()):
            problems.append(f"simulate {cmd.base} seed={cmd.seed}: verdict failed")
        with open(outdir / "trajectory.csv", "rb") as fh:
            lines = sum(1 for _ in fh)
        expected = shape.setdefault(cmd.base, lines)
        if lines != expected:
            problems.append(f"simulate {cmd.base}: {lines} trajectory lines, expected {expected}")
    if cmd.seed is None:
        want = golden[cmd.command][cmd.base]
        for name in GOLDEN_FILES[cmd.command]:
            got = sha256_file(outdir / name)
            if got != want[name]:
                problems.append(f"{cmd.command} {cmd.base}: {name} digest {got[:12]} != golden")
    return problems


class Runner:
    """Runs CLI commands in this process, times them and checks their outputs."""

    def __init__(self, main, golden: dict, work: Path = WORK):
        self.main = main
        self.golden = golden
        self.work = work
        self.tally = Tally()
        self.shape: dict = {}  # trajectory line count per base, from its first run

    def run(self, cmd: Command, tracer=None) -> float:
        """Run one command; returns its wall time in seconds."""
        out = self.work / "out"
        sink = io.StringIO()
        start = perf_counter()
        crash = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.main(cmd.argv(out))
            except Exception as exc:  # a crashing command is a failed operation
                rc, crash = 1, exc
        wall = perf_counter() - start
        if crash is not None:
            traceback.print_exception(crash)
        outdir = out / cmd.base  # every bundled config is named after its file
        try:
            problems = verify(cmd, rc, outdir, self.golden, self.shape)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"{cmd.command} {cmd.base} seed={cmd.seed}: {exc!r}"]
        if tracer is not None and not problems:
            written = sum((outdir / f).stat().st_size for f in OUTPUTS[cmd.command])
            tracer.add("cli.bytes_written", written)
        self.tally.record(problems)
        shutil.rmtree(out, ignore_errors=True)
        return wall


def check_stream(workload: str, seed: int):
    """Endless re-seeded checks of the workload's scenarios, cycling through them."""
    bases = WORKLOADS[workload].bases
    for k in itertools.count():
        yield Command("check", bases[k % len(bases)], op_seed(seed, f"{workload}/check", k))


def ops(workload: str, seed: int, k: int) -> list:
    """Commands of operation k; operation 0 starts with the shipped configs."""
    wl = WORKLOADS[workload]
    n = len(wl.bases)
    return [
        Command(wl.command, wl.bases[j % n], None if j < n else op_seed(seed, workload, j))
        for j in range(k * wl.per_op, (k + 1) * wl.per_op)
    ]


# ------------------------------------------------------------- measurements


SETUP_SNIPPET = (
    "import sys\n"
    "import dynpriv\n"
    "from dynpriv import scenario\n"
    "scenario.build_scenario(scenario.load_bundled(sys.argv[1]))\n"
)


def measure_setup(base: str, env: dict) -> list:
    """Wall time of fresh interpreters that import dynpriv and build `base`."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, base]
    times = []
    for rep in range(SETUP_REPS + 1):
        start = perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        if rep:  # the first launch may still be compiling bytecode
            times.append(perf_counter() - start)
    return times


# The host's CPU speed can change by half within a minute (a shared VM), and
# every wall time moves with it. So the run also times a fixed calibration
# loop, which no dynpriv change touches, before and after every timed block,
# and reports its times at the speed where that loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.014


def calibration_loop() -> float:
    """Wall time of a fixed mix of small numpy calls and pure-Python work."""
    import numpy as np  # imported late: BLAS threads are pinned before numpy loads

    a = np.full((100, 100), 0.01)
    x = np.ones(100)
    table: dict = {}
    start = perf_counter()
    for _ in range(1500):
        x = a @ x + np.exp(-0.1 * x)
    for i in range(60000):
        table[i % 97] = table.get(i % 97, 0) + i
    return perf_counter() - start


def speed_factor(calibrations: list) -> float:
    """Reference calibration time over the run's mean calibration time."""
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Raw timings of the closed loop, plus the calibration times around them."""
    wl = WORKLOADS[workload]
    check_s, op_s, calibrations = [], [], [calibration_loop()]
    checks = check_stream(workload, seed)
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds or len(check_s) < MIN_CHECKS:
        if wl.command == "simulate":
            check_s.extend(runner.run(cmd) for cmd in itertools.islice(checks, CHECKS_PER_SIMULATE))
            calibrations.append(calibration_loop())
        walls = [runner.run(cmd) for cmd in ops(workload, seed, k)]
        calibrations.append(calibration_loop())
        if wl.command == "check":
            check_s.extend(walls)
        op_s.append(sum(walls))
        k += 1
    return {
        "op_s": op_s,
        "check_s": check_s,
        "calibrations": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def window(workload: str, seed: int) -> list:
    """Commands of one traced window: a fixed prefix of the input stream."""
    if WORKLOADS[workload].command == "simulate":
        return list(itertools.islice(check_stream(workload, seed), TRACE_CHECKS)) + ops(workload, seed, 0)
    return ops(workload, seed, 0)


def run_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Alternate traced and untraced passes over the same window.

    Per-layer figures are medians over the traced passes; counts must agree
    exactly between them. The overhead is the median, over pairs of passes,
    of the traced window's wall time over the untraced one's.
    """
    cmds = window(workload, seed)
    traced, plain, per_pass = [], [], []
    start = perf_counter()
    rep = 0
    while rep < 3 or perf_counter() - start < seconds:
        if rep % 2 == 0:
            tracer = tracing.Tracer()
            with tracing.Patched(tracer):
                wall = sum(runner.run(cmd, tracer) for cmd in cmds)
            missing = tracing.missing_hooks(tracer, workload)
            if missing:
                raise RuntimeError(f"traced names never called on {workload}: {missing}")
            per_pass.append(tracing.layer_metrics(tracer))
            traced.append(wall)
        else:
            plain.append(sum(runner.run(cmd) for cmd in cmds))
        rep += 1
    exact = exact_counts(per_pass[0])
    layers = {
        name: per_pass[0][name] if name in exact else statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    # Each traced pass is paired with the untraced pass right after it, so a
    # pair shares the machine's speed of the moment.
    pairs = [t / p for t, p in zip(traced, plain)]
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(pairs) - 1)
    return {
        "layers": layers,
        "inexact": inexact_counts(per_pass, exact),
        "passes": (len(traced), len(plain)),
        "window": len(cmds),
    }


def exact_counts(figures: dict) -> list:
    """Per-layer figures that count events (or are ratios of counts)."""
    return [name for name in figures if units()[name] in ("count", "bytes", "ratio")]


def inexact_counts(per_pass: list, names) -> dict:
    """Exact counts that differ between passes over identical inputs."""
    return {
        name: [p[name] for p in per_pass]
        for name in names
        if len({p[name] for p in per_pass}) > 1
    }


def warm_up(runner: Runner, workload: str) -> None:
    """One untimed check of each shipped scenario, so lazy imports are done."""
    for base in WORKLOADS[workload].bases:
        runner.run(Command("check", base, None))


def golden_rotation(runner: Runner, seed: int) -> str:
    """Re-run one shipped bundled scenario (chosen by seed) against golden.json."""
    names = sorted(runner.golden["simulate"])
    name = names[seed % len(names)]
    runner.run(Command("simulate", name, None))
    return name


def context(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):  # numpy < 1.25 has no dict config
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# --------------------------------------------------------------------- main


def prepare():
    """Pin BLAS to one thread and put the checkout's sources first on the
    import path. Returns the environment for child interpreters, or None
    when this directory holds no dynpriv sources."""
    if not (SRC / "dynpriv" / "__init__.py").is_file():
        print(f"no dynpriv sources under {SRC}; run from a dynpriv checkout", file=sys.stderr)
        return None
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@functools.cache
def units() -> dict:
    """Unit of every metric; BENCHMARK.json defines each name and unit once."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def as_metrics(values: dict) -> dict:
    """The result line's metrics; every name must be listed in BENCHMARK.json."""
    return {name: {"value": value, "unit": units()[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = prepare()
    if env is None:
        return 2
    from dynpriv import cli

    golden = json.loads(GOLDEN_PATH.read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    runner = Runner(cli.main, golden)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("loop: closed, 1 client, one CLI command at a time, in-process")
    print("context " + json.dumps(context(args.seed), sort_keys=True))
    try:
        if args.trace:
            metrics = traced_metrics(runner, args)
        else:
            metrics = end_to_end_metrics(runner, args, env)
        rotated = golden_rotation(runner, args.seed)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    tally = runner.tally
    print(f"golden: shipped {', '.join(WORKLOADS[args.workload].bases)} and bundled {rotated}")
    print(f"failed_ratio = {tracing.ratio(tally.failed, tally.attempted):g} "
          f"({tally.failed} failed / {tally.attempted} attempted commands)")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(runner: Runner, args, env: dict) -> dict:
    setup = measure_setup(WORKLOADS[args.workload].bases[0], env)
    warm_up(runner, args.workload)
    res = run_untraced(runner, args.workload, args.seed, args.seconds)
    f = speed_factor(res["calibrations"])
    raw = {
        "wall_s": statistics.median(res["op_s"]),
        "setup_s": statistics.median(setup),
        "check_p50_ms": 1e3 * percentile(res["check_s"], 50),
        "check_p90_ms": 1e3 * percentile(res["check_s"], 90),
    }
    values = {name: value * f for name, value in raw.items()}
    values["peak_rss_mb"] = res["peak_rss_mb"]
    wl, n = WORKLOADS[args.workload], len(res["check_s"])
    print(f"speed factor {f:.4f}: calibration loop {CALIBRATION_REF_S} s over its mean of "
          f"{len(res['calibrations'])} timings in this run; times below are raw x factor")
    print(f"wall_s = {values['wall_s']:.4f} s (raw {raw['wall_s']:.4f} s; median of "
          f"{len(res['op_s'])} operations, each {wl.per_op} {wl.command} over {', '.join(wl.bases)})")
    print(f"setup_s = {values['setup_s']:.4f} s (raw {raw['setup_s']:.4f} s; median of "
          f"{len(setup)} fresh interpreters)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"check_p50_ms = {values['check_p50_ms']:.3f} ms (raw {raw['check_p50_ms']:.3f} ms; n={n})")
    print(f"check_p90_ms = {values['check_p90_ms']:.3f} ms (raw {raw['check_p90_ms']:.3f} ms; "
          f"n={n}, {n - math.ceil(0.9 * n)} samples beyond)")
    return as_metrics(values)


def traced_metrics(runner: Runner, args) -> dict:
    warm_up(runner, args.workload)
    res = run_traced(runner, args.workload, args.seed, args.seconds)
    traced, plain = res["passes"]
    print(f"traced window: {res['window']} commands; {traced} traced and {plain} untraced passes")
    for name, value in res["layers"].items():
        print(f"{name} = {value:.6g} {units()[name]}")
    layers = res["layers"]
    print(f"netgraph.graph_accept_ratio base: {layers['netgraph.graphs_accepted']} accepted / "
          f"{layers['netgraph.graph_attempts']} candidate graphs drawn")
    for name, values in res["inexact"].items():
        print(f"FLAG count {name} not exact across passes at one seed: {values}")
    return as_metrics(res["layers"])


if __name__ == "__main__":
    sys.exit(main())
