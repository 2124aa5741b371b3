"""Outside-in tracer: wraps engine functions from the benchmark's own code.

Nothing in ``mmvcone`` knows it is being traced.  ``Tracer.install`` replaces
each target function under every ``mmvcone`` module name that bound it (the
package attribute ``mmvcone.simulate`` is the function and shadows the
submodule; ``bsde`` and ``simulate`` import helpers by name), and methods on
their class.  A span stack attributes self time: a span's self time is its
duration minus the time of the wrapped spans it called.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _rows(index, name):
    return lambda args, kwargs: len(_arg(args, kwargs, index, name))


def _count_simulate(tracer, args, kwargs):
    paths = int(_arg(args, kwargs, 3, "paths"))
    steps = int(_arg(args, kwargs, 4, "steps"))
    n = _arg(args, kwargs, 0, "model").n
    tracer.count("simulate.path_steps", paths * steps)
    # plain draws; no workload simulates antithetic pairs
    tracer.count("simulate.normals_drawn", paths * steps * n)
    if not tracer.inside("simulate.saddle_scan"):
        tracer.count("simulate.strategies", 1)


def _count_saddle_scan(tracer, args, kwargs):
    tracer.count("simulate.strategies", len(_arg(args, kwargs, 3, "pi_family")))


def _count_backward_pass(tracer, args, kwargs):
    steps = int(_arg(args, kwargs, 3, "cfg").steps)
    paths = len(_arg(args, kwargs, 5, "F"))
    tracer.count("bsde.pass_steps", steps)
    tracer.count("bsde.regression_rows", paths * steps)


def _count_driver(tracer, args, kwargs):
    if tracer.inside("bsde.backward_pass"):
        tracer.count("bsde.driver_calls_in_pass", 1)


def _count_nnls(tracer, args, kwargs):
    if tracer.inside("cones.project_transformed_batch"):
        tracer.count("cones.nnls_in_batch", 1)


def _count_rk4(tracer, args, kwargs):
    tracer.count("bsde.rk4_steps", int(_arg(args, kwargs, 3, "steps")))


# (module, attribute or Class.method, span name, rows per call, on-call counter)
TARGETS = [
    ("mmvcone.market", "build_model", "market.build_model", None, None),
    ("mmvcone.market", "pricing_kernel_batch", "market.pricing_kernel_batch", None, None),
    ("mmvcone.market", "CoefficientField.sigma_batch", "market.sigma_batch", None, None),
    ("mmvcone.cones", "nnls", "cones.nnls", None, _count_nnls),
    ("mmvcone.cones", "project_transformed_batch", "cones.project_transformed_batch",
     _rows(2, "A"), None),
    ("mmvcone.cones", "cone_inf_quadratic_batch", "cones.cone_inf_quadratic_batch",
     None, None),
    ("mmvcone.bsde", "solve_markovian", "bsde.solve_markovian", None, None),
    ("mmvcone.bsde", "_backward_pass", "bsde.backward_pass", None, _count_backward_pass),
    ("mmvcone.bsde", "_driver_batch", "bsde.driver_batch", _rows(5, "y"), _count_driver),
    ("mmvcone.bsde", "solve_deterministic", "bsde.solve_deterministic", None, _count_rk4),
    ("mmvcone.bsde", "_deterministic_rhs", "bsde.rk4_rhs", None, None),
    ("mmvcone.bsde", "positivity_envelope", "bsde.positivity_envelope", None, None),
    ("mmvcone.strategies", "FeedbackStrategy.portfolio_batch", "strategies.portfolio_batch",
     _rows(2, "xvals"), None),
    ("mmvcone.strategies", "SaddleAdversary.eta_batch", "strategies.eta_batch", None, None),
    ("mmvcone.strategies", "equivalence_check", "strategies.equivalence_check", None, None),
    ("mmvcone.simulate", "simulate", "simulate.simulate", None, _count_simulate),
    ("mmvcone.simulate", "saddle_scan", "simulate.saddle_scan", None, _count_saddle_scan),
    ("mmvcone.rng", "substream", "rng.substream", None, None),
    ("mmvcone.cli", "_Workspace.write_json", "cli.write", None, None),
    ("mmvcone.cli", "_Workspace.write_csv", "cli.write", None, None),
    ("mmvcone.cli", "run", None, None, None),   # span named cli.<experiment>
]


class Stat:
    __slots__ = ("calls", "rows", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span stack plus counters, filled by wrappers that ``install`` puts in place."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []   # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)

    @property
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counters[name] += k

    def _wrap(self, fn, name, rows, on_call):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if name is not None else f"cli.{args[0]['experiment']}"
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = [span, 0.0]
            stack = tracer._stack
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    st = tracer.stats[span]
                    st.calls += 1
                    st.total_s += dur
                    st.self_s += dur - frame[1]
                    if rows is not None:
                        st.rows += rows(args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists (a rename)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mmvcone" or key.startswith("mmvcone."))]
        for module_name, attr, name, rows, on_call in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, rows, on_call))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, rows, on_call)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Flat per-layer metrics for one traced iteration, ratios with their bases."""
        s, c = self.stats, self.counters
        out = {}

        def put(name, value, unit, computed=False):
            out[name] = {"value": value, "unit": unit}
            if computed:
                out[name]["computed"] = True

        def ratio(name, num, den, unit, base):
            out[name] = {"value": num / den if den else 0.0, "unit": unit,
                         "base": base, "numerator": num, "denominator": den}

        for span in ("cones.nnls", "bsde.solve_markovian", "bsde.backward_pass",
                     "bsde.solve_deterministic", "market.pricing_kernel_batch",
                     "strategies.eta_batch", "simulate.simulate", "rng.substream",
                     "cli.write", "cones.project_transformed_batch",
                     "bsde.driver_batch", "strategies.portfolio_batch"):
            put(f"{span}.calls", s[span].calls, "count")
            put(f"{span}.self_s", s[span].self_s, "s")
        for span in ("cones.project_transformed_batch", "bsde.driver_batch",
                     "strategies.portfolio_batch"):
            put(f"{span}.rows", s[span].rows, "rows")
        for span in ("bsde.positivity_envelope", "market.build_model",
                     "strategies.equivalence_check", "simulate.saddle_scan"):
            put(f"{span}.self_s", s[span].self_s, "s")
        put("market.sigma_batch.calls", s["market.sigma_batch"].calls, "count")
        put("bsde.rk4_rhs_evals", s["bsde.rk4_rhs"].calls, "count")
        # computed from call arguments, not counted inside the engine
        put("simulate.path_steps", c["simulate.path_steps"], "path-steps", computed=True)
        put("simulate.normals_drawn", c["simulate.normals_drawn"], "normals", computed=True)
        put("bsde.regression_rows", c["bsde.regression_rows"], "rows", computed=True)

        passes = s["bsde.backward_pass"].calls
        pass_steps = c["bsde.pass_steps"]
        ratio("cones.nnls_per_row", c["cones.nnls_in_batch"],
              s["cones.project_transformed_batch"].rows, "calls/row",
              "nnls calls inside project_transformed_batch / its rows")
        ratio("bsde.passes_per_solve", passes, s["bsde.solve_markovian"].calls,
              "passes/solve", "backward passes / solve_markovian calls")
        ratio("bsde.fixed_point_iters_per_step",
              c["bsde.driver_calls_in_pass"] - (pass_steps + passes), pass_steps,
              "iters/step", "(driver calls in passes - passes*(steps+1)) / (passes*steps)")
        ratio("bsde.rk4_rhs_per_step", s["bsde.rk4_rhs"].calls, c["bsde.rk4_steps"],
              "evals/step", "RK4 RHS evaluations / RK4 steps")
        ratio("simulate.calls_per_strategy", s["simulate.simulate"].calls,
              c["simulate.strategies"], "calls/strategy",
              "simulate calls / strategies simulated (n_pi per saddle scan)")
        for experiment in sys.modules["mmvcone.cli"].EXPERIMENTS:
            put(f"cli.{experiment}.wall_s", s[f"cli.{experiment}"].total_s, "s")
        return out


# Which counters must be non-zero on which workload; zero on every other.
# A rename or a moved call shows up here instead of as a silent 0.
PREDICTED_NONZERO = {
    "cones.nnls.calls": {"det_closed_form"},
    "bsde.backward_pass.calls": {"factor_equivalence_C"},
    "bsde.solve_deterministic.calls": {"det_closed_form", "saddle_scan_A"},
    "simulate.simulate.calls": {"saddle_scan_A"},
    "rng.substream.calls": {"saddle_scan_A", "factor_equivalence_C"},
    "strategies.eta_batch.calls": {"saddle_scan_A"},
    "market.pricing_kernel_batch.calls": {"det_closed_form", "saddle_scan_A",
                                          "factor_equivalence_C"},
    "strategies.portfolio_batch.calls": {"det_closed_form", "saddle_scan_A",
                                         "factor_equivalence_C"},
    "cli.write.calls": {"det_closed_form", "saddle_scan_A", "factor_equivalence_C"},
}


def check_predictions(workload: str, metrics: dict, check) -> None:
    for name, nonzero_on in PREDICTED_NONZERO.items():
        value = metrics[name]["value"]
        if workload in nonzero_on:
            check(f"trace.{name}.nonzero", value > 0, value)
        else:
            check(f"trace.{name}.zero", value == 0, value)
