"""The benchmark's traced names still exist and still fire on the check path.

bench/tracing.py wraps dynpriv functions where their callers look them up;
a refactor that drops one of those names from the check path would
otherwise fail only the traced benchmark run, not the test suite.
"""

import importlib.util
import sys
from pathlib import Path

from dynpriv.cli import main

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
