"""Public surface: benchmark tracer targets and every ``__all__`` resolve."""
import importlib
import pkgutil
from pathlib import Path

import resilnet

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve(monkeypatch):
    # Imported by module name from perfbench/, as the benchmark worker
    # imports it; a missing target would fail every traced run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for span, mod, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(mod), attr)), span


def test_every_all_name_exists():
    modules = [info.name for info in pkgutil.iter_modules(resilnet.__path__)]
    assert {"graphs", "vulnerability", "designs", "optimize"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"resilnet.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"resilnet.{name}.{attr}"
