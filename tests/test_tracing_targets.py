"""The call sites the benchmark's tracer rebinds exist in the package.

``perfbench/tracing.py`` wraps the module attributes its ``TARGETS`` name,
and ``Tracer()`` raises ``MissingTarget`` when one is gone.  Building it here
turns a renamed call site into a test failure, not only a failed traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up here
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer(tracing.TARGETS)
    sites = [(importlib.import_module(module), attr) for module, attr, _ in tracing.TARGETS]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer.install()
    try:
        assert all(getattr(module, attr).__wrapped__ is fn for (module, attr), fn in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in sites] == originals
