"""The benchmark's tracer (perfbench/tracing.py) finds every module
attribute it wraps, so a cleanup cannot unbind one unseen."""

import importlib.util
from pathlib import Path

import lsufdr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_is_bound():
    tracer = _tracing_module().Tracer()
    originals = {name: getattr(lsufdr.montecarlo, name)
                 for name in ("run", "make_rng", "_assemble", "lsu", "lsd")}
    tracer.install(lsufdr)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(lsufdr.montecarlo, name) is fn
