"""Benchmark driver: run one workload through mmvcone.cli and report its metrics.

    python3 bench/run.py --workload det_closed_form --seed 1 --seconds 20 --trace 0

Run from the repository root.  One untimed warm-up iteration comes first.
With ``--trace 0`` the workload then runs untraced for ``--seconds`` and the
end-to-end metrics of BENCHMARK.json are reported, as host-adjusted times
(see ``HostClock``); with ``--trace 1`` untraced and traced iterations alternate and
the per-layer metrics are reported.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full record (machine
block, workload sizes, every sample, ratio bases) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MIN_ITERATIONS = 3   # untraced runs keep at least this many samples for the median
# One BLAS thread: on a small shared host a second thread measures the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CALIB_REF_S = 0.035   # HostClock loop time on the host the benchmark was tuned on


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_cli(cli, label: str, cfg: dict, cfg_path: Path) -> int:
    """One CLI experiment via cli.main, so exit statuses are the program's own."""
    try:
        return cli.main([cfg["experiment"], "--config", str(cfg_path)])
    except Exception:  # an engine crash is a failed run, not a benchmark crash
        print(f"{label}: uncaught exception\n{traceback.format_exc()}", file=sys.stderr)
        return -1


class HostClock:
    """Gauges the host's speed by timing a fixed pure-Python and numpy loop.

    On a shared host the CPU's speed drifts by a third over minutes, and every
    time the benchmark takes drifts with it.  A sample divided by the mean
    loop time just before and just after it, times CALIB_REF_S, is the sample
    on a host of fixed speed.  The loop works on buffers allocated once, so the engine's
    heap does not change what it measures.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 100_000)
        self._y = np.empty_like(self._x)

    def calib_s(self) -> float:
        np, x, y = self._np, self._x, self._y
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(20):
            np.exp(x, out=y)
            y.sort()
        return time.perf_counter() - t0

    def sample(self, raw_s: float, calib_s: float) -> dict:
        return {"raw_s": raw_s, "calib_s": calib_s, "adj_s": raw_s * CALIB_REF_S / calib_s}


def run_iteration(cli, workload, seed: int, tmp_root: Path, check, clock: HostClock,
                  tracer=None) -> dict:
    """Run every CLI call of the workload once, then check the artifacts.

    The tracer, when given, wraps the CLI calls only; checks are neither
    timed nor traced.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        runs = workload.runs(seed)
        outdirs = {}
        for label, cfg in runs:
            outdirs[label] = tmp / label
            cfg["output_dir"] = str(outdirs[label])
            (tmp / f"{label}.json").write_text(json.dumps(cfg))
        statuses = {}
        if tracer is not None:
            tracer.reset()
            tracer.install()
        calib0 = clock.calib_s()
        try:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            for label, cfg in runs:
                statuses[label] = _run_cli(cli, label, cfg, tmp / f"{label}.json")
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            calib = (calib0 + clock.calib_s()) / 2
        finally:
            if tracer is not None:
                tracer.uninstall()
        artifact_bytes = sum(p.stat().st_size for d in outdirs.values() if d.is_dir()
                             for p in d.iterdir())
        t1 = time.perf_counter()
        workload.check(seed, outdirs, statuses, check)
        check_s = time.perf_counter() - t1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {**clock.sample(wall, calib), "cpu_s": cpu, "check_s": check_s,
            "artifact_bytes": artifact_bytes, "exit_status": statuses}


def measure_setup(workload, seed: int, clock: HostClock) -> list[dict]:
    """Set-up time in fresh interpreters (import + config + model + cone)."""
    job = json.dumps({"src": str(SRC), "configs": workload.models(seed)})
    samples = []
    for _ in range(SETUP_SAMPLES):
        calib0 = clock.calib_s()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=job,
                             capture_output=True, text=True, timeout=120, check=True)
        calib = (calib0 + clock.calib_s()) / 2
        samples.append(clock.sample(float(out.stdout.strip().splitlines()[-1]), calib))
    return samples


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, when it can be found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MMVCONE_WORKERS": os.environ.get("MMVCONE_WORKERS"),
        "calib_ref_s": CALIB_REF_S,
        "git_commit": commit,
        "workload_sizes": workload.sizes,
    }


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="full result record (default bench/results/<run>.json)")
    args = parser.parse_args(argv)

    if not (SRC / "mmvcone" / "__init__.py").is_file():
        print(f"engine sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_ENV)   # before numpy loads, here and in the set-up probes
    # keep git (run by the CLI for its manifest) inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, Check

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    check = Check()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_block(workload)}

    clock = HostClock()
    setup = measure_setup(workload, args.seed, clock) if args.trace == 0 else []

    from mmvcone import cli
    from tracer import Tracer, check_predictions

    tmp_base = ROOT / ".bench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_base))
    untraced, traced, layers = [], [], []
    tracer = Tracer()
    try:
        run_iteration(cli, workload, args.seed, tmp_root, check, clock)   # warm-up
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(untraced) < (1 if args.trace else MIN_ITERATIONS)):
            untraced.append(run_iteration(cli, workload, args.seed, tmp_root, check, clock))
            if args.trace:
                traced.append(run_iteration(cli, workload, args.seed, tmp_root, check, clock,
                                            tracer))
                layers.append(tracer.snapshot())
                check_predictions(workload.name, layers[-1], check)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:   # another run still uses it
            pass

    failed = sum(not r["ok"] for r in check.results)
    attempted = len(check.results)
    if args.trace == 0:
        metrics = {
            "wall_s": {"value": _median(untraced, "adj_s"), "unit": "s",
                       "samples": len(untraced)},
            "setup_s": {"value": _median(setup, "adj_s"), "unit": "s",
                        "samples": len(setup)},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "check_pass_frac": {"value": (attempted - failed) / attempted, "unit": "1",
                                "base": "checks passed / checks attempted"},
        }
        wanted = spec["end_to_end"]
    else:
        metrics = {name: dict(value, value=statistics.median(s[name]["value"] for s in layers))
                   for name, value in layers[-1].items()}
        metrics["process.cpu_s"] = {"value": _median(untraced, "cpu_s"), "unit": "s"}
        metrics["process.wall_s"] = {"value": _median(untraced, "raw_s"), "unit": "s"}
        metrics["host.calib_s"] = {"value": _median(untraced, "calib_s"), "unit": "s"}
        metrics["cli.artifact_bytes"] = {"value": _median(untraced, "artifact_bytes"),
                                         "unit": "bytes"}
        metrics["trace.overhead_frac"] = {
            "value": _median(traced, "adj_s") / _median(untraced, "adj_s") - 1.0,
            "unit": "1", "base": "traced wall_s / untraced wall_s - 1"}
        wanted = spec["per_layer"]

    record.update(metrics=metrics, setup_samples=setup, untraced=untraced, traced=traced,
                  checks=check.results)
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for r in check.results:
        if not r["ok"]:
            print(f"FAILED {r['check']}: {r['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
