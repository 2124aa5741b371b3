"""The benchmark tracer still finds every engine function it wraps."""

import importlib.util
from pathlib import Path

import mmvcone as mc
import mmvcone.cli  # noqa: F401  (the tracer wraps cli functions too)

from conftest import INSTANCE_A

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("mmvcone_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target():
    # install raises when a wrapped name is gone (say, a renamed sigma_batch)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        mc.build_model(INSTANCE_A)
        assert tracer.stats["market.build_model"].calls == 1
        assert tracer.stats["market.sigma_batch"].calls == 1
    finally:
        tracer.uninstall()
    assert not tracer._patched
    mc.build_model(INSTANCE_A)
    assert tracer.stats["market.build_model"].calls == 1
