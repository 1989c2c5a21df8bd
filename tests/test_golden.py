"""The CLI's deterministic artifacts against their recorded SHA-256 digests.

The digests live in bench/golden.json (recorded by `python3 bench/golden.py
--write`); this test only reads them. A change to the numerics, the CSV
format or the report layout shows up here as a digest mismatch, which a
run compared with itself cannot catch.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynpriv
from dynpriv.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
FILES = {"simulate": ("trajectory.csv", "report.json"), "check": ("check_report.json",)}

# desk-scale simulations of all four systems (Lorenz drift at paper scale),
# the paper-scale n=100 consensus run (its trajectory.csv is the largest
# table the CSV writer encodes), and the assumption checks of the four
# paper-scale configs
CASES = [
    ("simulate", "example1_satnet_n10"),
    ("simulate", "example2_fj_n10"),
    ("simulate", "example3_consensus_n3"),
    ("simulate", "example4_pinning"),
    ("simulate", "example3_consensus"),
    ("check", "example1_satnet"),
    ("check", "example2_fj"),
    ("check", "example3_consensus"),
    ("check", "example4_pinning"),
]


# The series.csv of each simulate case, which bench/golden.json does not
# cover: one series_table sweep fills its columns, and these digests pin that
# they still hold the same values.
SERIES_DIGESTS = {
    "example1_satnet_n10": "244b6d19362dd781dd551439ab8fb1eb83047268fd459ce6a8905dfae797cefd",
    "example2_fj_n10": "e146be7db09488237ae782d444e0f404a5d5f019648e47c2e27e3150b29006af",
    "example3_consensus_n3": "5f662e4fb4a9b42bdbb7a0b8eada310be39dd875b394106a8abcf6954d99d8da",
    "example4_pinning": "2cdd5f01baafe09bc04b948a5f1e2132095be408ddf24fd988eadbbc5299e7c1",
    "example3_consensus": "fa83feabae6d708e1fb9b12b4b25e9130d32202bb4ee3fd3463d085da2e9ebbc",
}


@pytest.mark.parametrize("command,name", CASES)
def test_artifacts_match_golden_digests(tmp_path, command, name):
    assert main([command, "--bundled", name, "--out", str(tmp_path)]) == 0
    for fname in FILES[command]:
        digest = hashlib.sha256((tmp_path / name / fname).read_bytes()).hexdigest()
        assert digest == GOLDEN[command][name][fname], f"{command} {name}: {fname}"
    if command == "simulate":
        digest = hashlib.sha256((tmp_path / name / "series.csv").read_bytes()).hexdigest()
        assert digest == SERIES_DIGESTS[name], f"{command} {name}: series.csv"


# The eavesdropper's reports, which bench/golden.json does not cover: the
# view forms the observer's output channels a chunk of rows at a time, and
# these digests pin that it still reads the same values.
ATTACK_DIGESTS = {
    "adversary_covering": "264291e66705f93c8fc7462aaa5ec5744260ed3bc240c9f2496af329538bd186",
    "adversary_cycle": "25e83fdce4139faab8e2025486c8eca0614acc95e43ebdd9d06313cc05b02f67",
}


@pytest.mark.parametrize("name", sorted(ATTACK_DIGESTS))
def test_attack_reports_match_recorded_digests(tmp_path, name):
    assert main(["adversary", "--bundled", name, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / name / "attack.json").read_bytes()).hexdigest()
    assert digest == ATTACK_DIGESTS[name]


def _threaded_openblas() -> bool:
    """Whether a BLAS solve can run on two threads here: numpy's BLAS is
    OpenBLAS and the process may use at least two CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy whose show_config returns no dicts
        return False
    return (cpus or 1) >= 2 and "openblas" in blas.lower()


@pytest.fixture(scope="module")
def two_thread_fj(tmp_path_factory):
    """simulate --bundled example2_fj in a fresh interpreter under
    OPENBLAS_NUM_THREADS=2, no other thread variable set: its output directory."""
    if not _threaded_openblas():
        pytest.skip("needs OpenBLAS and at least two CPUs, where the solve is threaded")
    out = tmp_path_factory.mktemp("two_threads")
    env = {k: v for k, v in os.environ.items() if not k.endswith("THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    src = str(Path(dynpriv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "dynpriv.cli", "simulate", "--bundled", "example2_fj", "--out", str(out)]
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
    return out / "example2_fj"


# ROADMAP item 3: at n = 100 OpenBLAS factors the Friedkin-Johnsen rest-point
# solve of FriedkinJohnsen.attractor across threads, so x_star in report.json
# moves in its last bits, while the trajectory, made of matrix-vector products
# and ufuncs only, keeps every byte.
@pytest.mark.parametrize("fname", [
    "trajectory.csv",
    pytest.param("report.json", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 3: the attractor solve's bits depend on the BLAS thread count",
    )),
])
def test_two_blas_threads_write_the_golden_artifacts(two_thread_fj, fname):
    digest = hashlib.sha256((two_thread_fj / fname).read_bytes()).hexdigest()
    assert digest == GOLDEN["simulate"]["example2_fj"][fname]
