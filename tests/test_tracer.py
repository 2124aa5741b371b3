"""The benchmark tracer still finds every engine function it wraps."""

import importlib.util
import os
from pathlib import Path

import mmvcone as mc
from mmvcone import cli  # the tracer wraps cli functions too

from conftest import INSTANCE_A, forks

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


@forks
def test_traced_saddle_family_meets_the_predictions(tmp_path, monkeypatch):
    # on 2 CPUs the family forks a drawer; the substreams, simulate, the
    # loadings, portfolios and phi the tracer predicts for saddle_scan_A
    # must still be called in this process, the only one it sees
    module = _load_tracer()
    tracer = module.Tracer()
    forked, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    cfg = {"model": {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_A.items()},
           "solver": {"kind": "deterministic", "steps": 1000}, "experiment": "saddle",
           "seed": 20260808, "paths": 5000, "steps": 20, "output_dir": str(tmp_path / "out")}
    try:
        tracer.install()
        assert cli.run(cli.load_config(cfg)) == 0
    finally:
        tracer.uninstall()
    results = []
    module.check_predictions("saddle_scan_A", tracer.snapshot(),
                             lambda name, ok, value: results.append((name, ok, value)))
    assert forked == [1]
    assert len(results) == len(module.PREDICTED_NONZERO)
    assert [r for r in results if not r[1]] == []
