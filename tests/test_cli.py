import json
import math
import sys

import numpy as np
import pytest

import mmvcone as mc
from mmvcone import cli

from conftest import INSTANCE_A, INSTANCE_C, INSTANCE_ORTHANT2


def _write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=2))
    return p


def _base_config(tmp_path, experiment, **extra):
    cfg = {
        "model": {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_A.items()},
        "solver": {"kind": "deterministic", "steps": 1000},
        "experiment": experiment,
        "seed": 20260808,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    return cfg


def test_solve_writes_solution_and_manifest(tmp_path):
    cfg = _base_config(tmp_path, "solve")
    assert cli.run(cli.load_config(cfg)) == 0
    out = tmp_path / "out"
    assert (out / "y_solution.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["_meta"]["results"]["value0"] - math.exp(0.09)) < 1e-8
    header = (out / "y_solution.csv").read_text().splitlines()[0]
    assert header == "t,y,z_1"


def test_value_comparison(tmp_path):
    cfg = _base_config(tmp_path, "value")
    assert cli.run(cli.load_config(cfg)) == 0
    payload = json.loads((tmp_path / "out" / "value_comparison.json").read_text())
    assert payload["abs_diff"] <= 1e-8
    assert abs(payload["mmv"] - 1.0672884818793609) < 1e-8


def test_equivalence_artifacts(tmp_path):
    cfg = _base_config(tmp_path, "equivalence",
                       lattice={"t_points": 11, "x_points": 11, "x_min": 0.0, "x_max": 2.0})
    assert cli.run(cli.load_config(cfg)) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "equivalence_summary.json").read_text())
    assert summary["max_gap"] <= 1e-8
    assert summary["value_gap"] <= 1e-8
    lattice = (out / "equivalence_lattice.csv").read_text().splitlines()
    assert lattice[0] == "t,X,f,pi_mmv_1,pi_mv_1,abs_gap"
    assert len(lattice) == 1 + 11 * 11


def test_simulate_summary(tmp_path):
    cfg = _base_config(tmp_path, "simulate", paths=2000, steps=50,
                       strategy="mmv", adversary="saddle", store_paths=True)
    assert cli.run(cli.load_config(cfg)) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "simulation_summary.json").read_text())
    assert summary["paths"] == 2000
    assert "conservation_max_residual" in summary
    rows = (out / "trajectories.csv").read_text().splitlines()
    assert rows[0] == "t,path_id,X,Lambda,R"
    assert len(rows) == 1 + 2000 * 51


def test_simulate_mv_strategy_matches_a_direct_simulation(tmp_path):
    # strategy "mv" simulates the mean-variance feedback of the P2 and P1 solves
    cfg = _base_config(tmp_path, "simulate", paths=1000, steps=20, strategy="mv",
                       adversary="saddle")
    assert cli.run(cli.load_config(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "simulation_summary.json").read_text())
    model = mc.build_model(cfg["model"])
    cone = mc.full_space(1)
    y, p2, p1 = (mc.solve_deterministic(model, cone, eq, 1000) for eq in ("Y", "P2", "P1"))
    batch = mc.simulate(model, mc.mv_feedback(model, cone, p1, p2),
                        mc.mmv_adversary(y, cone, model), paths=1000, steps=20,
                        seed=cfg["seed"])
    assert summary["objective_mean"] == batch.objective_mean
    assert summary["objective_stderr"] == batch.objective_stderr
    assert summary["mean_terminal_x"] == float(np.mean(batch.terminal_X))


def test_simulate_mv_without_a_reader_of_y_solves_only_p2_and_p1(tmp_path, monkeypatch):
    # neither the mv strategy, the zero loading nor a summary reads Y; P2
    # and P1 keep their own seed lanes, so the summary is a direct run's
    seen, real = [], cli.solve_markovian_many

    def spy(model, cone, jobs):
        seen.extend(equation for equation, _ in jobs)
        return real(model, cone, jobs)

    monkeypatch.setattr(cli, "solve_markovian_many", spy)
    cfg = _base_config(tmp_path, "simulate", paths=1000, steps=10, strategy="mv",
                       **_MARKOV_C)
    assert cli.run(cli.load_config(cfg)) == 0
    assert seen == ["P2", "P1"]
    summary = json.loads((tmp_path / "out" / "simulation_summary.json").read_text())
    model = mc.build_model(cfg["model"])
    cone = mc.full_space(1)
    sizes = dict(paths=1000, basis_degree=2, steps=10)
    p2, p1 = real(model, cone, [
        ("P2", mc.McSolverConfig(seed=cfg["seed"] + 1, **sizes)),
        ("P1", mc.McSolverConfig(seed=cfg["seed"] + 2, bootstrap=0, **sizes))])
    batch = mc.simulate(model, mc.mv_feedback(model, cone, p1, p2), mc.zero_adversary(),
                        paths=1000, steps=10, seed=cfg["seed"])
    assert summary["objective_mean"] == batch.objective_mean
    assert summary["mv_objective"] == mc.mv_objective(batch, model.theta)[0]


def test_saddle_violation_exits_two_with_its_artifacts(tmp_path, capsys, monkeypatch):
    # a failing relation still writes the matrix and the verdict
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_SADDLE_TOL", -1e9)
    cfg = _base_config(tmp_path, "saddle", paths=500, steps=10)
    assert cli.main(["saddle", "--config", str(_write_config(tmp_path, cfg))]) == 2
    out = tmp_path / "out"
    verdict = json.loads((out / "saddle_verdict.json").read_text())
    assert verdict["passed"] is False and verdict["violations"]
    assert (out / "saddle_matrix.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["_meta"]["artifacts"] == ["saddle_matrix.csv", "saddle_verdict.json"]


def test_saddle_experiment(tmp_path):
    cfg = _base_config(tmp_path, "saddle", paths=5000, steps=20)
    assert cli.run(cli.load_config(cfg)) == 0
    verdict = json.loads((tmp_path / "out" / "saddle_verdict.json").read_text())
    assert verdict["passed"] is True
    assert (tmp_path / "out" / "saddle_matrix.csv").exists()


def test_dual_curve_experiment(tmp_path):
    cfg = _base_config(tmp_path, "dual-curve", k_grid={"count": 101, "span": 0.5})
    assert cli.run(cli.load_config(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "dual_curve_summary.json").read_text())
    assert abs(summary["mv_value"] - 1.0672884818793609) < 1e-8
    rows = (tmp_path / "out" / "dual_curve.csv").read_text().splitlines()
    assert rows[0] == "K,F,gamma_hat_of_K,objective"
    assert len(rows) == 102


def test_main_builds_one_parser(tmp_path, capsys):
    cli.build_parser.cache_clear()
    missing = str(tmp_path / "missing.json")
    assert cli.main(["solve", "--config", missing]) == 1
    assert cli.main(["value", "--config", missing, "--seed", "3"]) == 1
    assert cli.build_parser.cache_info().misses == 1
    # parsing leaves the shared parser as it was
    parser = cli.build_parser()
    assert parser.parse_args(["solve", "--config", "c.json", "--seed", "3"]).seed == 3
    assert parser.parse_args(["solve", "--config", "c.json"]).seed is None
    capsys.readouterr()
    # a bad argument still exits 2 with argparse's message, every time
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", missing, "--seed", "x"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "invalid int value: 'x'" in errors[0]
    assert cli.build_parser.cache_info().misses == 1


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    rc = cli.main(["solve", "--config", str(bad)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    # valid JSON that is not an object is refused the same way
    bad.write_text("[1, 2]")
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "must be a JSON object" in capsys.readouterr().err


def test_missing_field_named(tmp_path, capsys):
    cfg = _base_config(tmp_path, "solve")
    del cfg["model"]["coefficients"]
    path = _write_config(tmp_path, cfg)
    rc = cli.main(["solve", "--config", str(path)])
    assert rc == 1
    assert "coefficients" in capsys.readouterr().err
    # a missing coefficient, a number given as text and a cone that is not an
    # object each end in a config error naming the field, not a traceback
    markov = {k: v for k, v in INSTANCE_C["coefficients"].items() if k != "kappa"}
    for field, change in [
            ("coefficients.mu", {"coefficients": {"kind": "deterministic", "sigma": [[0.2]]}}),
            ("coefficients.kappa", {**INSTANCE_C, "coefficients": markov}),
            ("m", {"m": "one"}),
            ("rate", {"rate": [{"until": 1.0, "value": "x"}]}),
            ("cone", {"cone": "full"})]:
        cfg = _base_config(tmp_path, "value")
        cfg["model"].update(change)
        rc = cli.main(["value", "--config", str(_write_config(tmp_path, cfg))])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not (tmp_path / "out").exists()


_C_COEFFS = INSTANCE_C["coefficients"]


@pytest.mark.parametrize("change, field", [
    ({"m": 1.5}, "m"),
    ({"n": True}, "n"),
    ({"theta": True}, "theta"),
    ({"rate": True}, "rate"),
    ({"coefficients": {"kind": "deterministic", "mu": "abc", "sigma": [[0.2]]}},
     "coefficients.mu"),
    ({"coefficients": {"kind": "deterministic", "mu": [0.06], "sigma": [[0.2], [0.1, 0.3]]}},
     "coefficients.sigma"),
    ({"coefficients": [1]}, "coefficients"),
    ({**INSTANCE_C, "coefficients": {**_C_COEFFS, "sigma0": [[0.2], [0.0]]}},
     "coefficients.sigma0"),
    ({**INSTANCE_C, "coefficients": {**_C_COEFFS, "kappa": "a"}}, "coefficients.kappa"),
    ({**INSTANCE_C, "coefficients": {**_C_COEFFS, "driving_index": 1.7}},
     "coefficients.driving_index"),
    ({**INSTANCE_C, "coefficients": {**_C_COEFFS, "f0": None}}, "coefficients.f0"),
    ({**INSTANCE_ORTHANT2, "cone": {"kind": "generated", "G": "abc"}}, "cone.G"),
    ({**INSTANCE_ORTHANT2, "cone": {"kind": "generated", "G": [[], []]}}, "cone.G"),
    ({"coefficients": {"kind": "deterministic", "times": [0.0, 1.0, 0.5],
                       "mu": [[0.06]] * 3, "sigma": [[[0.2]]] * 3}}, "coefficients.times"),
], ids=["m_fraction", "n_bool", "theta_bool", "rate_bool", "mu_text", "sigma_ragged",
        "coefficients_list", "sigma0_shape", "kappa_text", "driving_index_fraction",
        "f0_null", "G_text", "G_empty", "times_not_increasing"])
def test_malformed_model_entries_are_config_errors(tmp_path, capsys, change, field):
    # a fractional or boolean count, a boolean number, an array of the wrong
    # type or shape and a cone with no generators each end in a config error
    cfg = _base_config(tmp_path, "value")
    cfg["model"].update(change)
    rc = cli.main(["value", "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_non_finite_generators_exit_one(tmp_path, capsys):
    cfg = _base_config(tmp_path, "value")
    cfg["model"].update(m=2, n=2, cone={"kind": "generated", "G": [[1.0, math.nan], [0.0, 1.0]]},
                        coefficients={"kind": "deterministic", "mu": [0.06, -0.03],
                                      "sigma": [[0.2, 0.05], [0.0, 0.25]]})
    rc = cli.main(["value", "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert "cone.G" in capsys.readouterr().err


def test_solver_block_size_is_a_config_error(tmp_path, capsys):
    # the regression draw's block is fixed: an old config that sets it fails
    # rather than run with a block it did not ask for
    cfg = _base_config(tmp_path, "value", seed=7)
    cfg["model"] = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()}
    cfg["solver"] = {"kind": "markovian", "paths": 2000, "steps": 10, "block_size": 1000}
    rc = cli.main(["value", "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: solver.block_size: ")
    assert not (tmp_path / "out").exists()


def test_one_bootstrap_replicate_is_a_config_error(tmp_path, capsys):
    # one replicate has no stderr: the run must not write NaN into its JSON
    cfg = _base_config(tmp_path, "equivalence", seed=7,
                       lattice={"t_points": 3, "x_points": 3, "x_min": 0.0, "x_max": 2.0})
    cfg["model"] = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()}
    cfg["solver"] = {"kind": "markovian", "paths": 1000, "steps": 10, "bootstrap": 1}
    rc = cli.main(["equivalence", "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: solver.bootstrap: ")
    assert not (tmp_path / "out").exists()


_MARKOV_SOLVER = {"kind": "markovian", "paths": 1000, "steps": 10}


@pytest.mark.parametrize("experiment, extra, field", [
    ("equivalence", {"lattice": {"t_points": 0}}, "lattice.t_points"),
    ("equivalence", {"lattice": {"x_points": 0}}, "lattice.x_points"),
    ("dual-curve", {"k_grid": {"count": -1}}, "k_grid.count"),
    ("dual-curve", {"k_grid": {"span": "wide"}}, "k_grid.span"),
    ("equivalence", {"lattice": {"x_min": "a"}}, "lattice.x_min"),
    ("equivalence", {"lattice": {"x_max": "a"}}, "lattice.x_max"),
    ("equivalence", {"lattice": {"f_values": ["x"]}}, "lattice.f_values"),
    ("simulate", {"paths": "many"}, "paths"),
    ("saddle", {"steps": "x"}, "steps"),
    ("value", {"solver": {"kind": "deterministic", "steps": "x"}}, "solver.steps"),
    ("value", {"solver": {**_MARKOV_SOLVER, "steps": "x"}}, "solver.steps"),
    ("value", {"solver": {**_MARKOV_SOLVER, "paths": "x"}}, "solver.paths"),
    ("value", {"solver": {**_MARKOV_SOLVER, "paths": 1000.7}}, "solver.paths"),
    ("value", {"solver": {**_MARKOV_SOLVER, "basis_degree": "x"}}, "solver.basis_degree"),
    ("value", {"solver": {**_MARKOV_SOLVER, "bootstrap": "x"}}, "solver.bootstrap"),
], ids=["t_points", "x_points", "k_count", "k_span", "x_min", "x_max", "f_values",
        "paths", "steps", "rk4_steps", "mc_steps", "mc_paths", "mc_paths_fraction",
        "basis_degree", "bootstrap"])
def test_lattice_and_curve_counts_below_one_are_config_errors(tmp_path, capsys, monkeypatch,
                                                              experiment, extra, field):
    # counts below one and entries that are not numbers are refused before any
    # solve runs or any directory is made
    def no_solve(*args):
        raise AssertionError("solved before the counts were checked")

    monkeypatch.setattr(cli, "_solve_many", no_solve)
    cfg = _base_config(tmp_path, experiment, **extra)
    rc = cli.main([experiment, "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("store_paths", "no"), ("store_paths", 1), ("antithetic", "false"), ("antithetic", None),
])
def test_simulate_flags_must_be_json_booleans(tmp_path, capsys, monkeypatch, key, value):
    # bool("no") is True: only true and false are read as flags
    def no_solve(*args):
        raise AssertionError("solved before the flags were checked")

    monkeypatch.setattr(cli, "_solve_many", no_solve)
    cfg = _base_config(tmp_path, "simulate", paths=200, steps=10, **{key: value})
    rc = cli.main(["simulate", "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "out").exists()


_MARKOV_C = {"model": {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()},
             "solver": _MARKOV_SOLVER}


@pytest.mark.parametrize("experiment, extra, field", [
    ("value", {**_MARKOV_C, "seed": "x"}, "seed"),
    ("value", {**_MARKOV_C, "seed": 1.5}, "seed"),
    ("value", {**_MARKOV_C, "seed": True}, "seed"),
    ("value", {**_MARKOV_C, "seed": -1}, "seed"),
    ("saddle", {"seed": "7"}, "seed"),
    ("equivalence", {"lattice": 5}, "lattice"),
    ("dual-curve", {"k_grid": [2001]}, "k_grid"),
    ("simulate", {"strategy": "best"}, "strategy"),
    ("simulate", {"adversary": "nature"}, "adversary"),
    ("simulate", {"adversary": {"kind": "scaled_minus_phi", "c": "x"}}, "adversary.c"),
    ("saddle", {"pi_scales": ["x"]}, "pi_scales"),
    ("saddle", {"eta_family": "saddle"}, "eta_family"),
    ("saddle", {"eta_family": ["saddle", {"kind": "constant", "v": [1.0, 2.0]}]},
     "adversary.v"),
    ("solve", {"output_dir": 5}, "output_dir"),
], ids=["seed_text", "seed_fraction", "seed_bool", "seed_negative", "saddle_seed_text",
        "lattice_number", "k_grid_list", "strategy", "adversary", "adversary_c",
        "pi_scales", "eta_family_string", "eta_family_entry", "output_dir_number"])
def test_malformed_entries_are_refused_before_any_solve(tmp_path, capsys, monkeypatch,
                                                        experiment, extra, field):
    # seed, lattice, k_grid, strategy and the adversary entries are read
    # before the solve: a bad one ends in a config error, with no directory
    def no_solve(*args):
        raise AssertionError("solved before the entries were checked")

    monkeypatch.setattr(cli, "_solve_many", no_solve)
    cfg = _base_config(tmp_path, experiment, paths=200, steps=10, **extra)
    if experiment not in ("simulate", "saddle"):
        del cfg["paths"], cfg["steps"]
    rc = cli.main([experiment, "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, bad", [("x0", math.nan), ("theta", math.inf)])
def test_non_finite_model_number_is_a_config_error(tmp_path, capsys, field, bad):
    # before, x0 = NaN exited 0 and wrote "mmv": NaN, which is not JSON
    cfg = _base_config(tmp_path, "value")
    cfg["model"][field] = bad
    rc = cli.main(["value", "--config", str(_write_config(tmp_path, cfg))])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_result_is_an_error_not_json(tmp_path, capsys, monkeypatch, bad):
    # JSON has no NaN or Infinity: a result holding one exits 1, naming the
    # file, and neither it nor the manifest is written
    real = cli.compare_values
    monkeypatch.setattr(cli, "compare_values",
                        lambda *args: {**real(*args), "mmv": bad})
    path = _write_config(tmp_path, _base_config(tmp_path, "value"))
    assert cli.main(["value", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: MmvConeError: value_comparison.json not written: Out of range float")
    assert not (tmp_path / "out" / "value_comparison.json").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("experiment, flag", [
    ("solve", "--paths"), ("value", "--steps"), ("equivalence", "--paths"),
    ("dual-curve", "--steps"),
])
def test_paths_and_steps_outside_simulate_and_saddle_are_config_errors(tmp_path, capsys,
                                                                       experiment, flag):
    # only simulate and saddle read them; the solver reads solver.steps
    path = _write_config(tmp_path, _base_config(tmp_path, experiment))
    rc = cli.main([experiment, "--config", str(path), flag, "20"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag[2:]}: ")
    assert not (tmp_path / "out").exists()


def test_seed_required_for_monte_carlo(tmp_path):
    cfg = _base_config(tmp_path, "saddle")
    del cfg["seed"]
    with pytest.raises(cli.ConfigInvalid):
        cli.load_config(cfg)


def test_main_with_overrides(tmp_path):
    cfg = _base_config(tmp_path, "solve")
    path = _write_config(tmp_path, cfg)
    out2 = tmp_path / "other"
    rc = cli.main(["solve", "--config", str(path), "--out", str(out2), "--seed", "99"])
    assert rc == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99


@pytest.mark.parametrize("command, missing, flags", [
    ("value", "experiment", []),
    ("simulate", "seed", ["--seed", "5", "--paths", "200", "--steps", "10"]),
], ids=["value_without_experiment", "simulate_without_seed"])
def test_flags_complete_the_file_before_validation(tmp_path, capsys, command, missing, flags):
    # the subcommand and flags fill what the file leaves out: the config is
    # validated once, after they are applied
    cfg = _base_config(tmp_path, command)
    del cfg[missing]
    rc = cli.main([command, "--config", str(_write_config(tmp_path, cfg)), *flags])
    assert rc == 0, capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["experiment"] == command
    if command == "simulate":
        assert manifest["seed"] == 5
        assert manifest["_meta"]["results"]["seed"] == 5


def test_never_overwrites(tmp_path):
    cfg = _base_config(tmp_path, "solve")
    assert cli.run(cli.load_config(cfg)) == 0
    assert cli.run(cli.load_config(cfg)) == 0
    out = tmp_path / "out"
    assert (out / "y_solution.csv").exists()
    assert (out / "y_solution_1.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "manifest_1.json").exists()


def test_manifest_round_trip_bitwise(tmp_path):
    cfg = _base_config(tmp_path, "value", output_dir=str(tmp_path / "run1"))
    assert cli.run(cli.load_config(cfg)) == 0
    manifest_path = tmp_path / "run1" / "manifest.json"
    manifest = cli.load_config(manifest_path)   # a manifest is a valid config
    manifest["output_dir"] = str(tmp_path / "run2")
    assert cli.run(cli.load_config(manifest)) == 0
    first = (tmp_path / "run1" / "value_comparison.json").read_bytes()
    second = (tmp_path / "run2" / "value_comparison.json").read_bytes()
    assert first == second


def test_markovian_value_cli(tmp_path):
    cfg = {
        "model": {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()},
        "solver": {"kind": "markovian", "paths": 4000, "basis_degree": 2,
                   "steps": 20, "bootstrap": 4},
        "experiment": "value",
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.run(cli.load_config(cfg)) == 0
    payload = json.loads((tmp_path / "out" / "value_comparison.json").read_text())
    assert payload["abs_diff"] <= 3.0 * payload["combined_stderr"]


def test_markovian_solve_meta_reports_replicate_clamps(tmp_path):
    cfg = {
        "model": {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()},
        "solver": {"kind": "markovian", "paths": 2000, "basis_degree": 2,
                   "steps": 10, "bootstrap": 3},
        "experiment": "solve",
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.run(cli.load_config(cfg)) == 0
    meta = json.loads((tmp_path / "out" / "y_solution_meta.json").read_text())
    assert meta["clamp_events"] == 0
    assert meta["replicate_clamp_events"] == [0, 0, 0]


def test_equivalence_lattice_cells_are_plain_numbers(tmp_path):
    # numpy scalars must be written as numbers, not as "np.float64(...)"
    cfg = {
        "model": {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()},
        "solver": {"kind": "markovian", "paths": 2000, "basis_degree": 2,
                   "steps": 10, "bootstrap": 0},
        "experiment": "equivalence",
        "seed": 7,
        "lattice": {"t_points": 3, "x_points": 3, "x_min": 0.0, "x_max": 2.0,
                    "f_values": [0.04, 0.08]},
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.run(cli.load_config(cfg)) == 0
    lattice = (tmp_path / "out" / "equivalence_lattice.csv").read_text().splitlines()
    assert lattice[0] == "t,X,f,pi_mmv_1,pi_mv_1,abs_gap"
    assert len(lattice) == 1 + 3 * 3 * 2
    for line in lattice[1:]:
        for cell in line.split(","):
            assert math.isfinite(float(cell)), line


def test_version_string_runs_git_once_per_process(tmp_path, monkeypatch):
    commands = []
    real_run = cli.subprocess.run

    def counting_run(cmd, *args, **kwargs):
        commands.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", counting_run)
    cli.version_string.cache_clear()
    versions = []
    for k in range(2):
        cfg = _base_config(tmp_path, "dual-curve", output_dir=str(tmp_path / f"run{k}"),
                           k_grid={"count": 11})
        assert cli.run(cli.load_config(cfg)) == 0
        manifest = json.loads((tmp_path / f"run{k}" / "manifest.json").read_text())
        versions.append(manifest["_meta"]["version"])
    assert [c[0] for c in commands] == ["git"]
    assert versions[0] == versions[1]


def test_write_csv_cells_and_block_boundaries(tmp_path):
    # repeated values, nan, and -0.0 beside 0.0 in one block: each distinct
    # bit pattern is formatted once, and -0.0 keeps its sign
    vals = np.array([math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 1.0 / 3.0,
                     0.0, math.nan, 1.0 / 3.0, -0.0, 0.0, 1e16])
    other = vals[::-1] * 3.0
    ids = np.arange(len(vals))
    header = ["t", "path_id", "f", "v"]
    ws = cli._Workspace(tmp_path)
    one = ws.write_csv("one.csv", header, [[vals, ids, None, other]])
    lines = one.read_text().splitlines()
    assert lines[0] == "t,path_id,f,v"
    assert len(lines) == 1 + len(vals)
    for line, v, i, w in zip(lines[1:], vals, ids, other):
        assert line == ",".join([repr(float(v)), str(int(i)), "", repr(float(w))])
    # any split into blocks, empty blocks included, writes the same file
    cuts = [(0, 3), (3, 3), (3, 4), (4, len(vals))]
    split = ws.write_csv("split.csv", header,
                         ([vals[a:b], ids[a:b], None, other[a:b]] for a, b in cuts))
    assert split.read_bytes() == one.read_bytes()
    assert ws.artifacts == ["one.csv", "split.csv"]


def test_trajectory_table_matches_per_path_rows(tmp_path):
    cfg = _base_config(tmp_path, "simulate", paths=300, steps=10,
                       strategy="mmv", adversary="zero", store_paths=True)
    assert cli.run(cli.load_config(cfg)) == 0
    lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
    # the rows the writer replaced: one per path and time, each cell formatted alone
    model = cli.build_model(cfg["model"])
    cone = cli.cone_from_config(cfg["model"]["cone"], model.m)
    (y_sol,) = cli._solve_many(model, cone, cfg, [cli._Y])
    batch = cli.simulate(model, cli.mmv_feedback(model, cone, y_sol), cli.zero_adversary(),
                         paths=300, steps=10, seed=cfg["seed"], store_paths=True)
    expect = ["t,path_id,X,Lambda,R"]
    for k, t in enumerate(batch.times):
        h_t = model.discount(float(t))
        y_t = y_sol.value(float(t))
        for p in range(batch.paths):
            x, lam = float(batch.X_paths[p, k]), float(batch.Lambda_paths[p, k])
            r = float(np.float64(x) * h_t + (np.float64(lam) * y_t - 1.0) / (2.0 * model.theta))
            expect.append(f"{float(t)!r},{p},{x!r},{lam!r},{r!r}")
    assert lines == expect


_BAD_ADVERSARIES = {
    "constant_without_v": {"kind": "constant"},
    "constant_nan": {"kind": "constant", "v": [math.nan]},
    "constant_wrong_length": {"kind": "constant", "v": [0.1, 0.2]},
    "constant_not_numeric": {"kind": "constant", "v": ["x"]},
    "c_not_numeric": {"kind": "scaled_minus_phi", "c": "half"},
    "c_null": {"kind": "scaled_minus_phi", "c": None},
    "c_vector": {"kind": "scaled_minus_phi", "c": [0.5, 1.0]},
}


@pytest.mark.parametrize("experiment", ["simulate", "saddle"])
@pytest.mark.parametrize("case", list(_BAD_ADVERSARIES))
def test_bad_adversary_spec_is_a_config_error(tmp_path, capsys, experiment, case):
    spec = _BAD_ADVERSARIES[case]
    if experiment == "simulate":
        cfg = _base_config(tmp_path, "simulate", paths=200, steps=10, adversary=spec)
    else:
        cfg = _base_config(tmp_path, "saddle", paths=200, steps=10,
                           eta_family=[{"kind": "saddle"}, "zero", spec])
    rc = cli.main([experiment, "--config", str(_write_config(tmp_path, cfg))])
    err = capsys.readouterr().err
    assert rc == 1
    field = "adversary.v" if spec["kind"] == "constant" else "adversary.c"
    assert err.startswith(f"config error: {field}: must be ")


@pytest.mark.parametrize("scales", [["x", 1.0], [math.nan, 1.0], [math.inf],
                                    [[1.0], [0.5]], 1.0, "1.0"],
                         ids=["not_numeric", "nan", "inf", "nested", "number", "string"])
def test_bad_pi_scales_is_a_config_error(tmp_path, capsys, scales):
    cfg = _base_config(tmp_path, "saddle", paths=200, steps=10, pi_scales=scales)
    rc = cli.main(["saddle", "--config", str(_write_config(tmp_path, cfg))])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: pi_scales: must be a list of finite numbers")
