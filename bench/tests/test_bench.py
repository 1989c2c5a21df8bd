"""Arithmetic and bookkeeping of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    tracer = tracing.Tracer()
    tracer.record("leaf", "child", 0.25)
    tracer.record("child", "parent", 1.0)
    tracer.record("child", "parent", 0.5)
    tracer.record("parent", None, 2.0)
    assert tracer.self_time("parent") == pytest.approx(0.5)
    assert tracer.self_time("child") == pytest.approx(1.25)
    assert tracer.self_time("leaf") == pytest.approx(0.25)
    assert tracer.edge_calls("parent", "child") == 2


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert run.percentile(xs, 90) == 90  # rank 90, ten samples above it
    assert run.percentile(xs[:99], 90) is None  # rank 90, nine above
    assert run.percentile(xs[:20], 50) == 10
    assert run.percentile(xs[:19], 50) is None
    assert run.percentile(reversed(xs), 50) == 50
    assert run.percentile([], 50) is None


def test_speed_factor_is_reference_over_mean_calibration():
    ref = run.CALIBRATION_REF_S
    assert run.speed_factor([ref, ref]) == pytest.approx(1.0)
    assert run.speed_factor([ref, 3 * ref]) == pytest.approx(0.5)  # mean, not median


def test_accept_ratio_counts_only_graphs_drawn_by_erdos_renyi():
    tracer = tracing.Tracer()
    for _ in range(3):
        tracer.record("netgraph.build_graph", "netgraph.erdos_renyi", 0.1)
    tracer.record("netgraph.build_graph", "scenario.build", 0.1)  # inline graph, not an attempt
    tracer.record("netgraph.erdos_renyi", "scenario.build", 0.4)
    figures = tracing.layer_metrics(tracer)
    assert figures["netgraph.graph_attempts"] == 3
    assert figures["netgraph.graph_accept_ratio"] == pytest.approx(1 / 3)
    assert tracing.layer_metrics(tracing.Tracer())["netgraph.graph_accept_ratio"] == 0.0


def test_every_count_is_checked_for_exactness():
    figures = tracing.layer_metrics(tracing.Tracer())
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(figures) | {"trace.overhead_pct"} == {m["name"] for m in spec["per_layer"]}
    exact = run.exact_counts(figures)
    assert "masks.eval_calls" in exact and "netgraph.graph_accept_ratio" in exact
    assert "masks.eval_s" not in exact
    same = dict(figures)
    assert run.inexact_counts([same, dict(same)], exact) == {}
    moved = dict(same, **{"masks.eval_calls": 6, "masks.eval_s": 1.0})
    assert run.inexact_counts([same, moved], exact) == {"masks.eval_calls": [0, 6]}


def _fake_check_main(payload: bytes, rc: int = 0):
    def main(argv):
        out = Path(argv[argv.index("--out") + 1]) / argv[argv.index("--bundled") + 1]
        out.mkdir(parents=True, exist_ok=True)
        (out / "check_report.json").write_bytes(payload)
        return rc

    return main


REPORT = json.dumps({"graph": {"irreducible": True}, "mask": {"ok": True}}).encode()


def _golden(digest: str) -> dict:
    return {"check": {"g": {"check_report.json": digest}}, "simulate": {}}


def test_golden_digest_mismatch_counts_as_failure(tmp_path):
    good = hashlib.sha256(REPORT).hexdigest()
    runner = run.Runner(_fake_check_main(REPORT), _golden(good), work=tmp_path)
    runner.run(run.Command("check", "g", None))
    assert (runner.tally.attempted, runner.tally.failed) == (1, 0)

    runner = run.Runner(_fake_check_main(REPORT), _golden("0" * 64), work=tmp_path)
    runner.run(run.Command("check", "g", None))
    runner.run(run.Command("check", "g", 12))  # re-seeded: no golden digest applies
    assert (runner.tally.attempted, runner.tally.failed) == (2, 1)
    assert "digest" in runner.tally.reasons[0]


def test_exit_code_and_crash_count_as_failures(tmp_path):
    runner = run.Runner(_fake_check_main(REPORT, rc=3), _golden(""), work=tmp_path)
    runner.run(run.Command("check", "g", 5))

    def crash(argv):
        raise RuntimeError("boom")

    crashing = run.Runner(crash, _golden(""), work=tmp_path)
    crashing.run(run.Command("check", "g", 5))
    assert (runner.tally.failed, crashing.tally.failed) == (1, 1)


def test_patched_wraps_where_looked_up_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)  # looked up at call time, as in dynpriv

    mod.inner, mod.outer, mod.idle = inner, outer, inner
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    hooks = (
        tracing.Hook("fake_layer", "outer", "fake.outer", frozenset({"w"})),
        tracing.Hook("fake_layer", "inner", "fake.inner", frozenset({"w"})),
        tracing.Hook("fake_layer", "idle", "fake.idle", frozenset({"w"})),
    )
    tracer = tracing.Tracer()
    with tracing.Patched(tracer, hooks):
        assert mod.outer(1) == 4
    assert (mod.outer, mod.inner, mod.idle) == (outer, inner, inner)
    total, calls, child = tracer.summary()
    assert calls == {"fake.outer": 1, "fake.inner": 2}
    assert tracer.edge_calls("fake.outer", "fake.inner") == 2
    assert tracer.edge_calls(None, "fake.outer") == 1
    assert child == {"fake.outer": total["fake.inner"]}
    assert tracer.self_time("fake.outer") == total["fake.outer"] - total["fake.inner"]
    assert tracer.stack == [None]
    assert tracing.missing_hooks(tracer, "w", hooks) == ["fake_layer.idle"]
    assert tracing.missing_hooks(tracer, "other", hooks) == []


def test_patched_fails_on_a_name_that_moved(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.kept = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    kept = mod.kept
    hooks = (
        tracing.Hook("fake_layer", "kept", "fake.kept", frozenset()),
        tracing.Hook("fake_layer", "gone", "fake.gone", frozenset()),
    )
    with pytest.raises(LookupError, match="fake_layer.gone"):
        with tracing.Patched(tracing.Tracer(), hooks):
            pass
    assert mod.kept is kept


def test_op_stream_is_seeded_and_starts_with_shipped_configs():
    first = run.ops(tracing.CHECKS, 3, 0)
    assert [c.seed for c in first[:4]] == [None] * 4
    assert None not in {c.seed for c in first[4:]}
    assert [c.base for c in first[:5]] == [*run.WORKLOADS[tracing.CHECKS].bases, "example1_satnet"]
    assert run.ops(tracing.CHECKS, 3, 1) == run.ops(tracing.CHECKS, 3, 1)
    assert run.ops(tracing.CHECKS, 3, 1) != run.ops(tracing.CHECKS, 4, 1)
    assert len({c.seed for k in range(3) for c in run.ops(tracing.CHECKS, 3, k)}) == 297
    assert [c.seed for c in run.ops(tracing.CONSENSUS, 3, 0)] == [None]
    assert run.ops(tracing.CONSENSUS, 3, 1)[0].seed is not None
