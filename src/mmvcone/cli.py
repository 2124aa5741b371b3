"""Command-line front end: load a config, run one experiment, write artifacts.

One experiment per invocation; composition happens in the shell.  Every run
writes a manifest capturing the fully resolved configuration, so re-running
a manifest reproduces each numeric artifact bit for bit.  Existing files
are never overwritten: colliding names get a run-index suffix.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import McSolverConfig, solve_deterministic, solve_markovian_many
from .cones import cone_from_config
from .errors import (ConfigInvalid, InvalidBound, MmvConeError, SaddleViolated, read_array,
                     read_count, read_flag, read_number, read_object)
from .market import build_model
from .simulate import (
    conservation_residual,
    constant_adversary,
    mmv_adversary,
    mv_objective,
    path_values,
    saddle_scan,
    scaled_minus_phi,
    simulate,
    zero_adversary,
)
from .strategies import (
    dual_curve,
    equivalence_check,
    mmv_feedback,
    mmv_value,
    mv_feedback,
)

EXPERIMENTS = ("solve", "value", "simulate", "saddle", "equivalence", "dual-curve")


@functools.cache
def version_string() -> str:
    """Package version plus `git describe`, once per process: the code that
    runs is fixed when it is imported."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def _read_config(source) -> dict:
    """A config as a fresh top-level dict: a copy of a dict, or the JSON
    object at a path."""
    if isinstance(source, dict):
        return dict(source)
    try:
        cfg = json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"malformed JSON: {exc}", field=str(source)) from exc
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}", field=str(source)) from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("must be a JSON object", field=str(source))
    return cfg


def load_config(source) -> dict:
    """Parse and minimally validate an experiment config (path, str or dict)."""
    cfg = _read_config(source)
    cfg.pop("_meta", None)  # manifests round-trip as configs

    if "cone" not in read_object(cfg.get("model"), "model"):
        raise ConfigInvalid("missing cone description", field="model.cone")
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigInvalid(f"must be one of {EXPERIMENTS}, got {exp!r}", field="experiment")
    solver = cfg.get("solver")
    if not isinstance(solver, dict) or solver.get("kind") not in ("deterministic", "markovian"):
        raise ConfigInvalid("solver.kind must be deterministic or markovian", field="solver")
    if cfg.get("seed") is not None:
        read_count(cfg, "seed", None, "seed", 0)
    elif solver.get("kind") == "markovian" or exp in ("simulate", "saddle"):
        raise ConfigInvalid("seed required whenever Monte Carlo runs", field="seed")
    for key in ("lattice", "k_grid"):
        read_object(cfg.get(key, {}), key)
    if "block_size" in solver:
        raise ConfigInvalid("not a setting: the forward draw uses fixed blocks of "
                            "65536 paths", field="solver.block_size")
    for key in ("paths", "steps"):
        if key in cfg and exp not in ("simulate", "saddle"):
            raise ConfigInvalid(f"read by simulate and saddle only; {exp} reads "
                                f"solver.{key}", field=key)
    _solver_sizes(cfg)
    if not isinstance(cfg.setdefault("output_dir", "out"), str):
        raise ConfigInvalid(f"must be a path, got {cfg['output_dir']!r}", field="output_dir")
    return cfg


def _is_float64(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


class _Workspace:
    """Output directory with collision-free artifact writing, made when the
    first artifact is written: a run refused before that leaves none."""

    def __init__(self, root):
        self.root = Path(root)
        self.artifacts = []

    def _unique(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self.root / name
        if not p.exists():
            return p
        stem, suffix = p.stem, p.suffix
        k = 1
        while (self.root / f"{stem}_{k}{suffix}").exists():
            k += 1
        return self.root / f"{stem}_{k}{suffix}"

    def write_json(self, name: str, payload: dict) -> Path:
        """Write payload as JSON; a NaN or infinity, which JSON cannot hold
        (RFC 8259, section 6), raises MmvConeError and writes no file."""
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise MmvConeError(f"{name} not written: {exc}") from exc
        p = self._unique(name)
        p.write_text(text + "\n")
        self.artifacts.append(p.name)
        return p

    def write_csv(self, name: str, header, blocks) -> Path:
        """Write a table with the named columns from blocks, each a block of
        rows as one column per name: a float or int array, a sequence of
        strings, or None for a blank column.  Each cell is str of the column's
        tolist() value (repr(float(v)) for a float), so the file does not
        depend on where the blocks break.  A block's float64 columns are
        formatted once per distinct bit pattern (-0.0 and 0.0 apart)."""
        p = self._unique(name)
        with p.open("w") as fh:
            fh.write(",".join(header) + "\n")
            for cols in blocks:
                rows = len(next(c for c in cols if c is not None))
                floats = [c for c in cols if _is_float64(c)]
                if floats:
                    # unique over the bits, not the values: -0.0 and 0.0 differ
                    bits, inverse = np.unique(np.concatenate(floats).view(np.int64),
                                              return_inverse=True)
                    text = np.array(list(map(str, bits.view(np.float64).tolist())),
                                    dtype=object)[inverse]
                    formatted = iter(text.reshape(len(floats), rows).tolist())
                cells = [[""] * rows if c is None
                         else next(formatted) if _is_float64(c)
                         else map(str, c.tolist() if isinstance(c, np.ndarray) else c)
                         for c in cols]
                if rows:
                    fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        self.artifacts.append(p.name)
        return p


# (equation, seed lane, bootstrap override) of the MMV solve and the MV pair
_Y = ("Y", 0, None)
_MV_PAIR = (("P2", 1, None), ("P1", 2, 0))


def _solver_sizes(cfg) -> dict:
    """The solver's integer entries with their defaults (>= 0 for
    basis_degree and bootstrap, else >= 1); the solvers check the ranges."""
    solver = cfg["solver"]
    if solver["kind"] == "deterministic":
        return {"steps": read_count(solver, "steps", 1000, "solver.steps")}
    return {"paths": read_count(solver, "paths", None, "solver.paths"),
            "basis_degree": read_count(solver, "basis_degree", 2, "solver.basis_degree", 0),
            "steps": read_count(solver, "steps", 50, "solver.steps"),
            "bootstrap": read_count(solver, "bootstrap", 16, "solver.bootstrap", 0)}


def _solve_many(model, cone, cfg, solves):
    """One solution per (equation, seed lane, bootstrap override); the Markov
    ones come from one solve_markovian_many call."""
    sizes = _solver_sizes(cfg)
    if cfg["solver"]["kind"] == "deterministic":
        return [solve_deterministic(model, cone, eq, sizes["steps"]) for eq, _, _ in solves]
    return solve_markovian_many(model, cone, [(eq, McSolverConfig(
        paths=sizes["paths"], basis_degree=sizes["basis_degree"],
        seed=cfg["seed"] + lane, steps=sizes["steps"],
        bootstrap=sizes["bootstrap"] if boot is None else boot,
    )) for eq, lane, boot in solves])


def _solution_table(sol):
    """(header, blocks) of a solution's node table, one block."""
    if sol.kind == "deterministic":
        header = ["t", "y"] + [f"z_{k+1}" for k in range(sol.n)]
        cols = [sol.grid, sol.y_values] + list(sol.z_values.T)
    else:
        width = sol.y_values.shape[1]
        header = (["t"] + [f"y_c{b}" for b in range(width)]
                  + [f"z_c{b}" for b in range(width)] + ["basis_loc", "basis_scale"])
        cols = ([sol.grid] + list(sol.y_values.T) + list(sol.z_values.T)
                + [sol.basis_loc, sol.basis_scale])
    return header, [cols]


def _adversary_from_spec(spec, model):
    """One adversary from its config entry: {"kind": ...} plus the kind's
    parameters, or one of the shorthands "zero", "0" and "saddle"; the
    saddle one stays "saddle" until mmv_adversary builds it from Y."""
    if spec in ("zero", "0", "saddle"):
        spec = {"kind": "saddle" if spec == "saddle" else "zero"}
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "zero":
        return zero_adversary()
    if kind == "saddle":
        return "saddle"
    if kind == "scaled_minus_phi":
        return scaled_minus_phi(model, read_number(spec, "c", 1.0, "adversary.c"))
    if kind == "constant":
        v = read_array(spec.get("v"), (model.n,), "adversary.v",
                       f"a finite vector of length n = {model.n}")
        return constant_adversary(v)
    raise ConfigInvalid(f"unknown adversary spec {spec!r}", field="adversary")


def compare_values(cfg: dict, model, cone) -> dict:
    """Independent solves of both routes; {mmv, mv, abs_diff} (+stderrs)."""
    y_sol, p2_sol, p1_sol = _solve_many(model, cone, cfg, (_Y, *_MV_PAIR))
    curve = dual_curve(p1_sol.value0, p2_sol.value0, model.h0, model.x0, model.theta)
    out = {
        "mmv": mmv_value(model, y_sol),
        "mv": curve.mv_value,
        "p1_0": p1_sol.value0,
        "p2_0": p2_sol.value0,
        "y_0": y_sol.value0,
    }
    out["abs_diff"] = abs(out["mmv"] - out["mv"])
    se_y = y_sol.value0_stderr
    se_p2 = p2_sol.value0_stderr
    if se_y is not None and se_p2 is not None:
        theta, h0, p2_0 = model.theta, model.h0, out["p2_0"]
        se_mv = (h0 * h0 / (p2_0 * p2_0)) * se_p2 / (2 * theta)
        out["stderr_mmv"] = se_y / (2 * theta)
        out["stderr_mv"] = se_mv
        out["combined_stderr"] = math.hypot(out["stderr_mmv"], se_mv)
    return out


def run(cfg: dict) -> int:
    """Dispatch one experiment; returns the process exit status."""
    t_start = time.time()
    ws = _Workspace(cfg.get("output_dir", "out"))
    model = build_model(cfg["model"])
    cone = cone_from_config(cfg["model"]["cone"], model.m)
    experiment = cfg["experiment"]
    results: dict = {}
    exit_code = 0

    if experiment == "solve":
        equation = cfg.get("equation", "Y")
        (sol,) = _solve_many(model, cone, cfg, [(equation, 0, None)])
        name = f"{equation.lower()}_solution.csv"
        ws.write_csv(name, *_solution_table(sol))
        if sol.kind == "deterministic":
            max_abs_z = float(np.max(np.abs(sol.z_values)))
        else:   # every node at both ends of its basis loc, in one call
            f_ends = np.tile([sol.basis_loc[0], sol.basis_loc[-1]], len(sol.grid))
            max_abs_z = float(np.max(np.abs(sol.z_batch(np.repeat(sol.grid, 2), f_ends))))
        ws.write_json(f"{equation.lower()}_solution_meta.json", {
            "equation": equation,
            "steps": len(sol.grid) - 1,
            "T": float(sol.grid[-1]),
            "kind": sol.kind,
            "seed": sol.seed,
            "clamp_events": sol.clamp_events,
            "replicate_clamp_events": list(sol.replicate_clamp_events or ()),
            "bounds": list(sol.bounds),
            "max_abs_z": max_abs_z,  # reported, never asserted
        })
        results = {"equation": equation, "value0": sol.value0}
        if sol.value0_stderr is not None:
            results["value0_stderr"] = sol.value0_stderr

    elif experiment == "value":
        results = compare_values(cfg, model, cone)
        ws.write_json("value_comparison.json", results)

    elif experiment == "simulate":
        paths = read_count(cfg, "paths", 10000, "paths")
        steps = read_count(cfg, "steps", 200, "steps")
        store, antithetic = read_flag(cfg, "store_paths"), read_flag(cfg, "antithetic")
        strat_spec = cfg.get("strategy", "mmv")
        if strat_spec not in ("none", "mmv", "mv"):
            raise ConfigInvalid(f"unknown strategy {strat_spec!r}", field="strategy")
        adversary = _adversary_from_spec(cfg.get("adversary", "zero"), model)
        # Y feeds the mmv strategy, the saddle loading and the stored path values
        y_read = strat_spec == "mmv" or adversary == "saddle" or store
        sols = _solve_many(model, cone, cfg, ((_Y,) if y_read else ())
                           + (_MV_PAIR if strat_spec == "mv" else ()))
        y_sol = sols.pop(0) if y_read else None
        strategy = None
        if strat_spec == "mmv":
            strategy = mmv_feedback(model, cone, y_sol)
        elif strat_spec == "mv":
            p2_sol, p1_sol = sols
            strategy = mv_feedback(model, cone, p1_sol, p2_sol)
        if adversary == "saddle":
            adversary = mmv_adversary(y_sol, cone, model)
        batch = simulate(model, strategy, adversary, paths=paths, steps=steps,
                         seed=cfg["seed"], store_paths=store, antithetic=antithetic)
        results = {
            "objective_mean": batch.objective_mean,
            "objective_stderr": batch.objective_stderr,
            "mean_terminal_lambda": float(np.mean(batch.terminal_Lambda)),
            "mean_terminal_x": float(np.mean(batch.terminal_X)),
            "paths": batch.paths, "steps": batch.steps, "seed": batch.seed,
            "adversary": batch.adversary_kind,
        }
        if adversary.kind == "zero":
            mv_val, mv_se = mv_objective(batch, model.theta)
            results["mv_objective"] = mv_val
            results["mv_objective_stderr"] = mv_se
        if store:
            values = path_values(batch, y_sol, model)
            results["conservation_max_residual"] = conservation_residual(
                batch, y_sol, model, values=values)
            ws.write_csv("trajectories.csv", *_trajectory_table(batch, model, values))
        ws.write_json("simulation_summary.json", results)

    elif experiment == "saddle":
        paths = read_count(cfg, "paths", 100000, "paths")
        steps = read_count(cfg, "steps", 200, "steps")
        scales = read_array(cfg.get("pi_scales", [1.0, 0.0, 0.5, 1.5]), (None,), "pi_scales",
                            "a list of finite numbers").tolist()
        eta_specs = cfg.get("eta_family", [
            {"kind": "saddle"}, {"kind": "zero"},
            {"kind": "scaled_minus_phi", "c": 0.5},
            {"kind": "scaled_minus_phi", "c": 2.0},
        ])
        if not isinstance(eta_specs, list):
            raise ConfigInvalid(f"must be a list, got {eta_specs!r}", field="eta_family")
        eta_family = [_adversary_from_spec(s, model) for s in eta_specs]
        (y_sol,) = _solve_many(model, cone, cfg, (_Y,))
        base = mmv_feedback(model, cone, y_sol)
        pi_family = [base.scaled(c) if c != 1.0 else base for c in scales]
        pi_family = [s if s.scale != 0.0 else None for s in pi_family]
        eta_family = [mmv_adversary(y_sol, cone, model) if a == "saddle" else a
                      for a in eta_family]
        try:
            report = saddle_scan(model, cone, y_sol, pi_family, eta_family,
                                 paths=paths, steps=steps, seed=cfg["seed"])
        except SaddleViolated as exc:
            report = exc.report
            exit_code = 2
        ws.write_csv("saddle_matrix.csv", *report.csv_table())
        results = report.summary_dict()
        ws.write_json("saddle_verdict.json", results)

    elif experiment == "equivalence":
        lat = cfg.get("lattice", {})
        t_values = np.linspace(0.0, model.horizon_T,
                               read_count(lat, "t_points", 101, "lattice.t_points"))
        x_values = np.linspace(read_number(lat, "x_min", 0.0, "lattice.x_min"),
                               read_number(lat, "x_max", 2.0, "lattice.x_max"),
                               read_count(lat, "x_points", 101, "lattice.x_points"))
        probe = (t_values, x_values)
        if lat.get("f_values") is not None:
            probe = (t_values, x_values, read_array(lat["f_values"], (None,), "lattice.f_values",
                                                    "a list of finite numbers"))
        y_sol, p2_sol, p1_sol = _solve_many(model, cone, cfg, (_Y, *_MV_PAIR))
        mmv = mmv_feedback(model, cone, y_sol)
        mv = mv_feedback(model, cone, p1_sol, p2_sol)
        report = equivalence_check(mmv, mv, probe)
        ws.write_csv("equivalence_lattice.csv", *report.csv_table())
        results = report.summary_dict()
        ws.write_json("equivalence_summary.json", results)

    elif experiment == "dual-curve":
        grid_cfg = cfg.get("k_grid", {})
        count = read_count(grid_cfg, "count", 2001, "k_grid.count")
        span = (read_number(grid_cfg, "span", None, "k_grid.span")
                if "span" in grid_cfg else None)
        p2_sol, p1_sol = _solve_many(model, cone, cfg, _MV_PAIR)
        curve = dual_curve(p1_sol.value0, p2_sol.value0, model.h0, model.x0, model.theta)
        anchor = model.x0 * model.h0
        if span is None:
            span = max(3.0 * abs(curve.K_hat - anchor), 1.0)
        ks = np.linspace(anchor - span, anchor + span, count)
        ws.write_csv("dual_curve.csv", ["K", "F", "gamma_hat_of_K", "objective"],
                     [[ks, curve.F(ks), curve.gamma_hat_of(ks), curve.objective(ks)]])
        results = {
            "p1_0": curve.p1_0, "p2_0": curve.p2_0, "h0": curve.h0,
            "K_hat": curve.K_hat, "gamma_hat": curve.gamma_hat,
            "mv_value": curve.mv_value, "F_at_K_hat": curve.F(curve.K_hat),
        }
        ws.write_json("dual_curve_summary.json", results)

    manifest = dict(cfg)
    manifest["_meta"] = {
        "version": version_string(),
        "created_utc": dt.datetime.now(dt.timezone.utc).isoformat(),
        "elapsed_seconds": time.time() - t_start,
        "artifacts": ws.artifacts,
        "results": results,
    }
    ws.write_json("manifest.json", manifest)
    return exit_code


def _trajectory_table(batch, model, values):
    """(header, blocks) of trajectories.csv, one block of paths per time step;
    values is path_values of the batch."""
    theta = model.theta
    ids = np.arange(batch.paths)
    h, y = values

    def blocks():
        for k, t in enumerate(batch.times.tolist()):
            x = batch.X_paths[:, k]
            lam = batch.Lambda_paths[:, k]
            r = x * h[k] + (lam * y[:, k] - 1.0) / (2.0 * theta)
            yield [np.full(batch.paths, t), ids, x, lam, r]
    return ["t", "path_id", "X", "Lambda", "R"], blocks()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="mmvcone",
        description="Cone-constrained MMV/MV portfolio experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the experiment JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--paths", type=int, default=None, help="override path count")
        p.add_argument("--steps", type=int, default=None, help="override step count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the subcommand and flags override the file; the result is validated once
        cfg = _read_config(args.config)
        cfg["experiment"] = args.command
        for key, value in (("seed", args.seed), ("output_dir", args.out),
                           ("paths", args.paths), ("steps", args.steps)):
            if value is not None:
                cfg[key] = value
        return run(load_config(cfg))
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SaddleViolated, InvalidBound) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except MmvConeError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
