"""The three benchmark workloads: generated CLI configs and their correctness checks.

Each workload is a fixed list of ``mmvcone.cli.run`` invocations built from
the workload seed, which only ever reaches the engine as ``cfg["seed"]``.
Checks reuse the acceptance suite's gates (tests/test_acceptance.py,
tests/test_multiasset.py) and read the artifacts each run wrote.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mmvcone.cones import orthant, project_transformed_batch
from mmvcone.market import build_model

# Instance A: one asset, constant coefficients, unconstrained.
INSTANCE_A = {
    "m": 1, "n": 1, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.02,
    "coefficients": {"kind": "deterministic", "mu": [0.06], "sigma": [[0.2]]},
    "delta": 1e-6,
    "cone": {"kind": "full"},
}
Y0_A = math.exp(0.09)
VALUE_A = math.exp(0.02) + (Y0_A - 1.0) / 2.0

# Two assets on the orthant; the constraint binds on pi_2 = 0, so
# Y_t = exp(mu_1^2 / gram_11 (T - t)).
ORTHANT2 = {
    "m": 2, "n": 2, "T": 1.0, "x0": 1.0, "theta": 2.0,
    "rate": [{"until": 0.5, "value": 0.02}, {"until": 1.0, "value": 0.04}],
    "coefficients": {"kind": "deterministic", "mu": [0.06, -0.03],
                     "sigma": [[0.2, 0.05], [0.0, 0.25]]},
    "delta": 1e-6,
    "cone": {"kind": "orthant"},
}
Y0_ORTHANT2 = math.exp(0.06 ** 2 / 0.0425)
VALUE_ORTHANT2 = math.exp(0.03) + (Y0_ORTHANT2 - 1.0) / (2.0 * 2.0)

# Instance C: a mean-reverting factor drives the excess return; incomplete market.
INSTANCE_C = {
    "m": 1, "n": 2, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.02,
    "coefficients": {"kind": "markov", "kappa": 1.0, "mean": 0.06, "nu": 0.03,
                     "f0": 0.06, "mu0": [0.0], "mu1": [1.0],
                     "sigma0": [[0.2, 0.0]], "driving_index": 1},
    "delta": 1e-6,
    "cone": {"kind": "full"},
}

GATE = 1e-8       # closed-form and deterministic-lattice tolerance
KKT_TOL = 1e-10   # projection optimality tolerance


class Check:
    """Collects named pass/fail results; a failure never stops the run."""

    def __init__(self):
        self.results = []

    def __call__(self, name: str, ok, detail="") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    def close(self, name: str, value, expect, tol=GATE) -> None:
        ok = value is not None and abs(value - expect) <= tol
        self(name, ok, f"{value!r} vs {expect!r} (tol {tol:g})")

    def at_most(self, name: str, value, limit) -> None:
        ok = value is not None and value <= limit
        self(name, ok, f"{value!r} <= {limit!r}")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def _csv_rows(path: Path) -> list[list[str]]:
    try:
        return [line.split(",") for line in path.read_text().splitlines()]
    except OSError:
        return []


class Workload:
    """One named workload: the CLI invocations it makes and how to check them."""

    name = ""
    sizes: dict = {}

    def runs(self, seed: int) -> list[tuple[str, dict]]:
        """(label, config) per cli.run call, in call order; output_dir is set later."""
        raise NotImplementedError

    def models(self, seed: int) -> list[dict]:
        """One config per distinct model: what set-up time loads and builds."""
        seen, out = set(), []
        for _, cfg in self.runs(seed):
            key = json.dumps(cfg["model"], sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append(cfg)
        return out

    def check(self, seed: int, outdirs: dict, statuses: dict, check: Check) -> None:
        for label, status in statuses.items():
            check(f"{label}.exit_status", status == 0, f"exit {status}")
        self.check_artifacts(seed, outdirs, check)

    def check_artifacts(self, seed: int, outdirs: dict, check: Check) -> None:
        raise NotImplementedError


def _cfg(model: dict, experiment: str, solver: dict, seed: int, **extra) -> dict:
    cfg = {"model": json.loads(json.dumps(model)), "solver": dict(solver),
           "experiment": experiment, "seed": seed}
    cfg.update(extra)
    return cfg


class DetClosedForm(Workload):
    """value, equivalence and dual-curve on instance A and the 2-asset orthant model."""

    name = "det_closed_form"
    sizes = {"rk4_steps": 250, "lattice": "101 t x 101 x",
             "x_max": {"A": 2.0, "orthant2": 1.5}, "k_grid": 2001, "kkt_samples": 2000}
    # (tag, model, Y0, value); the 2-asset lattice stops where the two
    # feedback maps still coincide
    models_checked = (("A", INSTANCE_A, Y0_A, VALUE_A),
                      ("orthant2", ORTHANT2, Y0_ORTHANT2, VALUE_ORTHANT2))

    def runs(self, seed):
        solver = {"kind": "deterministic", "steps": self.sizes["rk4_steps"]}
        out = []
        for tag, model, _, _ in self.models_checked:
            x_max = self.sizes["x_max"][tag]
            out.append((f"{tag}.value", _cfg(model, "value", solver, seed)))
            out.append((f"{tag}.equivalence", _cfg(
                model, "equivalence", solver, seed,
                lattice={"t_points": 101, "x_points": 101, "x_min": 0.0, "x_max": x_max})))
            out.append((f"{tag}.dual-curve", _cfg(model, "dual-curve", solver, seed)))
        return out

    def check_artifacts(self, seed, outdirs, check):
        for tag, _, y0, value in self.models_checked:
            x_max = self.sizes["x_max"][tag]
            val = _read_json(outdirs[f"{tag}.value"] / "value_comparison.json")
            check.close(f"{tag}.y0", val.get("y_0"), y0)
            check.close(f"{tag}.value_mmv", val.get("mmv"), value)
            check.close(f"{tag}.value_mv", val.get("mv"), value)
            eq_dir = outdirs[f"{tag}.equivalence"]
            eq = _read_json(eq_dir / "equivalence_summary.json")
            check.at_most(f"{tag}.max_gap", eq.get("max_gap"), GATE)
            check.at_most(f"{tag}.value_gap", eq.get("value_gap"), GATE)
            rows = _csv_rows(eq_dir / "equivalence_lattice.csv")[1:]
            xs = [float(r[1]) for r in rows]
            check(f"{tag}.lattice", len(rows) == 101 * 101 and xs and max(xs) == x_max,
                  f"{len(rows)} rows, x_max {max(xs) if xs else None}")
            dual = _read_json(outdirs[f"{tag}.dual-curve"] / "dual_curve_summary.json")
            check.close(f"{tag}.dual_mv_value", dual.get("mv_value"), value)
        self.check_kkt(seed, check)

    def check_kkt(self, seed, check):
        """KKT conditions of the sigma' Gamma projection on the 2-asset orthant."""
        model = build_model(ORTHANT2)
        count = self.sizes["kkt_samples"]
        rng = np.random.default_rng([seed, 7])
        sigma = model.coefficients.sigma_batch(0.5, np.zeros(count))
        a = rng.normal(size=(count, model.n)) * rng.choice([0.1, 1.0, 10.0], size=(count, 1))
        xi, gamma, _ = project_transformed_batch(orthant(model.m), sigma, a)
        resid = a - xi
        grad = np.einsum("imn,in->im", sigma, resid)
        check("orthant2.kkt_gamma_nonneg", np.min(gamma) >= 0.0, np.min(gamma))
        check("orthant2.kkt_dual_feasible", np.max(grad) <= KKT_TOL, np.max(grad))
        ortho = np.max(np.abs(np.einsum("in,in->i", resid, xi)))
        check("orthant2.kkt_orthogonal", ortho <= KKT_TOL, ortho)


class SaddleScanA(Workload):
    """CLI saddle on instance A: the default 4 x 4 family."""

    name = "saddle_scan_A"
    sizes = {"paths": 20_000, "steps": 50, "family": "4 pi x 4 eta", "rk4_steps": 1000}

    def runs(self, seed):
        solver = {"kind": "deterministic", "steps": self.sizes["rk4_steps"]}
        return [("A.saddle", _cfg(INSTANCE_A, "saddle", solver, seed,
                                  paths=self.sizes["paths"], steps=self.sizes["steps"]))]

    def check_artifacts(self, seed, outdirs, check):
        verdict = _read_json(outdirs["A.saddle"] / "saddle_verdict.json")
        check("A.saddle_passed", verdict.get("passed") is True,
              f"violations {verdict.get('violations')}")
        check.close("A.r0", verdict.get("r0"), VALUE_A)


class FactorEquivalenceC(Workload):
    """CLI equivalence on instance C with the regression Monte Carlo solver."""

    name = "factor_equivalence_C"
    sizes = {"paths": 10_000, "steps": 25, "basis_degree": 2, "bootstrap": 8,
             "lattice": "11 t x 11 x x 3 f"}

    def runs(self, seed):
        solver = {"kind": "markovian", "paths": self.sizes["paths"],
                  "steps": self.sizes["steps"], "basis_degree": self.sizes["basis_degree"],
                  "bootstrap": self.sizes["bootstrap"]}
        coef = INSTANCE_C["coefficients"]
        sd = coef["nu"] / math.sqrt(2.0)
        f0 = coef["f0"]
        lattice = {"t_points": 11, "x_points": 11, "x_min": 0.0, "x_max": 2.0,
                   "f_values": [f0 - sd, f0, f0 + sd]}
        return [("C.equivalence", _cfg(INSTANCE_C, "equivalence", solver, seed,
                                       lattice=lattice))]

    def check_artifacts(self, seed, outdirs, check):
        eq = _read_json(outdirs["C.equivalence"] / "equivalence_summary.json")
        check.at_most("C.max_gap_ratio", eq.get("max_gap_ratio"), 3.0)
        se = eq.get("value_stderr")
        check.at_most("C.value_gap", eq.get("value_gap"),
                      3.0 * se if se is not None else None)


WORKLOADS = {w.name: w for w in (DetClosedForm(), SaddleScanA(), FactorEquivalenceC())}
