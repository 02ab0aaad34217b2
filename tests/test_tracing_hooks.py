"""The benchmark's traced run wraps polydawg functions by name.

Renaming or deleting one of them must fail the test suite, not only a
``perfbench/run.py --trace 1`` run. This reads ``perfbench/`` and
changes nothing there.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_restored():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.hook_polydawg(tracer)
    before = [(owner, attr, getattr(owner, attr))
              for owner, attr, _, _ in tracer._hooks]
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not fn
                   for owner, attr, fn in before)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
