"""The benchmark's traced names still exist and still fire on every workload.

bench/tracing.py wraps dynpriv functions where their callers look them up;
a refactor that moves a call off one of those names would otherwise fail
only the traced benchmark run, not the test suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dynpriv.cli import EXIT_OK, EXIT_VERDICT, main
from dynpriv.scenario import load_bundled

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing  # dataclasses resolve annotations through it
_SPEC.loader.exec_module(tracing)


def test_every_traced_name_resolves():
    for hook in tracing.HOOKS:
        assert callable(getattr(tracing._resolve(hook.owner), hook.attr, None)), hook


def test_traced_check_fires_every_check_hook(tmp_path):
    tracer = tracing.Tracer()
    with tracing.Patched(tracer):
        assert main(["check", "--bundled", "example1_satnet", "--out", str(tmp_path)]) == 0
    assert tracing.missing_hooks(tracer, tracing.CHECKS) == []


@pytest.mark.parametrize(
    "name,workload,simulate_exit",
    [
        # 0.1 time units are too short for consensus to converge, hence exit 5
        ("example3_consensus", tracing.CONSENSUS, EXIT_VERDICT),
        ("example4_pinning", tracing.PINNING, EXIT_OK),
    ],
)
def test_traced_short_simulate_fires_every_simulate_hook(name, workload, simulate_exit, tmp_path):
    # a simulate workload runs check and simulate on its scenario; here on a
    # horizon of 0.1 so that the field hooks fire in a fraction of a second
    config = load_bundled(name)
    config["integrator"]["t_final"] = 0.1
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    argv = ["--config", str(path), "--out", str(tmp_path)]
    tracer = tracing.Tracer()
    with tracing.Patched(tracer):
        assert main(["check", *argv]) == EXIT_OK
        assert main(["simulate", *argv]) == simulate_exit
    assert tracing.missing_hooks(tracer, workload) == []
