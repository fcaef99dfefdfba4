"""The benchmark tracer (perfbench/tracing.py) wraps solver functions through
the module bindings their callers use; a refactor that drops one of those
bindings must fail here, not only in the slower benchmark smoke test."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{target}.{attr}"
               for pairs in tracing.TARGETS.values() for target, attr in pairs
               if not hasattr(tracing._resolve(target), attr)]
    assert not missing, f"tracer targets without a binding: {missing}"
