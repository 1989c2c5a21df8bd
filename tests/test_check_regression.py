"""`check` over re-seeded paper-scale configs against one recorded digest.

The golden digests pin each shipped check_report.json; this pins the check
path over eight re-seeded draws of each of the four paper-scale configs:
every check_report.json, every sampled graph (its adjacency and edge order)
and every mask parameter array, folded into one SHA-256. The digest was
recorded before the graph and mask-axiom checks were vectorised, so any
change in what they accept, reject or report shows up here.
"""

import hashlib

import numpy as np

from dynpriv.cli import main
from dynpriv.scenario import build_scenario, load_bundled, override_seed

BUNDLES = ("example1_satnet", "example2_fj", "example3_consensus", "example4_pinning")
SEEDS = range(8)
DIGEST = "8993181ab9e763e8c5a8fba3a1dfa6b77f78824943f704f5e879657774250e17"


def test_reseeded_checks_match_recorded_digest(tmp_path):
    h = hashlib.sha256()
    for name in BUNDLES:
        for seed in SEEDS:
            out = tmp_path / f"{name}-{seed}"
            rc = main(["check", "--bundled", name, "--seed", str(seed), "--out", str(out)])
            h.update(f"{name}:{seed}:{rc}".encode())
            h.update((out / name / "check_report.json").read_bytes())
            sc = build_scenario(override_seed(load_bundled(name), seed))
            for arr in (sc.graph.a, sc.graph.src, sc.graph.dst, sc.bank._given, sc.bank._values):
                h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == DIGEST
