import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest

import mmvcone as mc
from mmvcone.errors import (
    AdversaryNotZero,
    ConfigInvalid,
    ExplodedPath,
    MissingTrajectories,
    NoConvergence,
    SaddleViolated,
)
from mmvcone.simulate import path_values
from mmvcone.strategies import StepTargets

from conftest import H0_A, INSTANCE_C_SIGMA1, INSTANCE_ORTHANT2, VALUE_A


@pytest.fixture(scope="module")
def mmv_a(model_a, cone_a, ysol_a):
    return mc.mmv_feedback(model_a, cone_a, ysol_a)


@pytest.fixture(scope="module")
def saddle_a(model_a, cone_a, ysol_a):
    return mc.saddle_adversary(mc.mmv_adversary(ysol_a, cone_a, model_a))


def test_riskless_drift_exact(model_a):
    res = mc.simulate(model_a, None, mc.zero_adversary(), paths=200, steps=20, seed=1)
    assert np.all(res.terminal_X == res.terminal_X[0])
    assert res.terminal_X[0] == pytest.approx(math.exp(0.02), abs=1e-15)
    assert np.all(res.terminal_Lambda == 1.0)
    assert res.objective_mean == pytest.approx(math.exp(0.02), abs=1e-14)


def test_zero_adversary_unit_density(model_a, mmv_a):
    res = mc.simulate(model_a, mmv_a, mc.zero_adversary(), paths=500, steps=20, seed=2)
    assert np.all(res.terminal_Lambda == 1.0)
    # objective reduces to the sample mean of X_T
    assert res.objective_mean == pytest.approx(float(np.mean(res.terminal_X)), abs=1e-14)


def test_lambda_positive_and_martingale(model_a, mmv_a, saddle_a):
    for adv in (saddle_a, mc.scaled_minus_phi(model_a, 0.5),
                mc.scaled_minus_phi(model_a, 2.0),
                mc.constant_adversary([0.25])):
        res = mc.simulate(model_a, mmv_a, adv, paths=20000, steps=50, seed=3)
        assert np.all(res.terminal_Lambda > 0.0)
        se = float(np.std(res.terminal_Lambda, ddof=1)) / math.sqrt(res.paths)
        assert abs(float(np.mean(res.terminal_Lambda)) - 1.0) <= 3.0 * se


def test_saddle_cell_hits_value(model_a, mmv_a, saddle_a, ysol_a):
    res = mc.simulate(model_a, mmv_a, saddle_a, paths=100000, steps=200, seed=7)
    r0 = mc.mmv_value(model_a, ysol_a)
    assert abs(res.objective_mean - r0) <= 3.0 * res.objective_stderr


def test_eta_hat_path_constant_minus_phi(model_a, saddle_a):
    # full space, m = n: the worst-case loading is -sigma^{-1} mu everywhere
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 1.0, size=20):
        eta = saddle_a.eta_batch(model_a, float(t), np.zeros(8))
        assert np.max(np.abs(eta - (-0.3))) < 1e-13


def test_simulation_reproducible(model_a, mmv_a, saddle_a):
    a = mc.simulate(model_a, mmv_a, saddle_a, paths=3000, steps=30, seed=11)
    b = mc.simulate(model_a, mmv_a, saddle_a, paths=3000, steps=30, seed=11)
    assert np.array_equal(a.terminal_X, b.terminal_X)
    assert np.array_equal(a.terminal_Lambda, b.terminal_Lambda)
    assert a.objective_mean == b.objective_mean


def test_antithetic_keeps_mean(model_a, mmv_a, saddle_a):
    plain = mc.simulate(model_a, mmv_a, saddle_a, paths=40000, steps=50, seed=17)
    anti = mc.simulate(model_a, mmv_a, saddle_a, paths=40000, steps=50, seed=17,
                       antithetic=True)
    tol = 3.0 * (plain.objective_stderr + anti.objective_stderr)
    assert abs(plain.objective_mean - anti.objective_mean) <= tol


def test_simulate_input_validation(model_a, mmv_a):
    with pytest.raises(ConfigInvalid):
        mc.simulate(model_a, mmv_a, mc.zero_adversary(), paths=10, steps=20, seed=1)
    with pytest.raises(ConfigInvalid):
        mc.simulate(model_a, mmv_a, mc.zero_adversary(), paths=200, steps=5, seed=1)


def test_conservation_residual_requires_paths(model_a, mmv_a, saddle_a, ysol_a):
    res = mc.simulate(model_a, mmv_a, saddle_a, paths=200, steps=20, seed=5)
    with pytest.raises(MissingTrajectories):
        mc.conservation_residual(res, ysol_a, model_a)


def test_conservation_initial_time_exact(model_a, mmv_a, saddle_a, ysol_a):
    res = mc.simulate(model_a, mmv_a, saddle_a, paths=300, steps=20, seed=5,
                      store_paths=True)
    theta = model_a.theta
    const = theta * model_a.h0 * model_a.x0 + ysol_a.value0
    at0 = theta * model_a.h0 * res.X_paths[:, 0] + ysol_a.value0 * res.Lambda_paths[:, 0]
    assert np.max(np.abs(at0 - const)) == 0.0
    assert const == pytest.approx(H0_A + math.exp(0.09), abs=1e-8)


def test_conservation_instance_b_exact(model_b, cone_b, ysol_b):
    mmv = mc.mmv_feedback(model_b, cone_b, ysol_b)
    adv = mc.saddle_adversary(mc.mmv_adversary(ysol_b, cone_b, model_b))
    res = mc.simulate(model_b, mmv, adv, paths=500, steps=40, seed=9, store_paths=True)
    residual = mc.conservation_residual(res, ysol_b, model_b)
    assert residual < 1e-12


def test_conservation_residual_matches_a_loop_over_times(model_a, mmv_a, saddle_a, ysol_a,
                                                          p2sol_a, model_c):
    # the one array expression against the per-time loop it replaced, and h
    # against one discount call per time
    cone = mc.full_space(1)
    y_c = mc.solve_markovian(model_c, cone, "Y", mc.McSolverConfig(
        paths=2000, basis_degree=2, seed=41, steps=12, bootstrap=0))
    batch_c = mc.simulate(model_c, mc.mmv_feedback(model_c, cone, y_c), mc.zero_adversary(),
                          paths=150, steps=17, seed=43, store_paths=True)
    batch_a = mc.simulate(model_a, mmv_a, saddle_a, paths=150, steps=23, seed=5,
                          store_paths=True)
    for batch, sol, model in ((batch_a, ysol_a, model_a),
                              (batch_a, mc.transform_p2_to_y(p2sol_a, model_a), model_a),
                              (batch_c, y_c, model_c)):
        h, y = path_values(batch, sol, model)
        assert h.tolist() == [model.discount(t) for t in batch.times.tolist()]
        const = model.theta * model.h0 * model.x0 + sol.value0
        worst = max(float(np.max(np.abs(model.theta * h_t * batch.X_paths[:, k]
                                        + y[:, k] * batch.Lambda_paths[:, k] - const)))
                    for k, h_t in enumerate(h.tolist()))
        assert mc.conservation_residual(batch, sol, model) == worst


def test_conservation_shrinks_with_steps(model_a, mmv_a, saddle_a, ysol_a):
    residuals = []
    for steps in (50, 100, 200):
        res = mc.simulate(model_a, mmv_a, saddle_a, paths=2000, steps=steps,
                          seed=23, store_paths=True)
        residuals.append(mc.conservation_residual(res, ysol_a, model_a))
    assert residuals[2] < residuals[1] < residuals[0]


def test_mv_objective_requires_zero_adversary(model_a, mmv_a, saddle_a):
    res = mc.simulate(model_a, mmv_a, saddle_a, paths=200, steps=20, seed=4)
    with pytest.raises(AdversaryNotZero):
        mc.mv_objective(res, model_a.theta)


def test_mv_objective_riskless(model_a):
    res = mc.simulate(model_a, None, mc.zero_adversary(), paths=200, steps=20, seed=4)
    value, stderr = mc.mv_objective(res, model_a.theta)
    assert value == pytest.approx(math.exp(0.02), abs=1e-14)
    assert stderr == 0.0


def test_mv_objective_instance_b(model_b, cone_b):
    p1 = mc.solve_deterministic(model_b, cone_b, "P1", 500)
    p2 = mc.solve_deterministic(model_b, cone_b, "P2", 500)
    mv = mc.mv_feedback(model_b, cone_b, p1, p2)
    res = mc.simulate(model_b, mv, mc.zero_adversary(), paths=300, steps=20, seed=6)
    value, _ = mc.mv_objective(res, model_b.theta)
    assert value == pytest.approx(H0_A, abs=1e-12)


def test_mv_objective_instance_a(model_a, cone_a, p1sol_a, p2sol_a):
    mv = mc.mv_feedback(model_a, cone_a, p1sol_a, p2sol_a)
    res = mc.simulate(model_a, mv, mc.zero_adversary(), paths=100000, steps=200, seed=29)
    value, stderr = mc.mv_objective(res, model_a.theta)
    assert abs(value - VALUE_A) <= 3.0 * stderr


def test_saddle_scan_passes(model_a, cone_a, ysol_a, mmv_a, saddle_a):
    pi_family = [mmv_a, None, mmv_a.scaled(0.5), mmv_a.scaled(1.5)]
    eta_family = [saddle_a, mc.zero_adversary(),
                  mc.scaled_minus_phi(model_a, 0.5), mc.scaled_minus_phi(model_a, 2.0)]
    report = mc.saddle_scan(model_a, cone_a, ysol_a, pi_family, eta_family,
                            paths=20000, steps=50, seed=31)
    assert report.passed
    assert abs(report.r0 - VALUE_A) < 1e-8
    # reproducibility of the whole scan
    again = mc.saddle_scan(model_a, cone_a, ysol_a, pi_family, eta_family,
                           paths=20000, steps=50, seed=31)
    assert np.array_equal(report.means, again.means)


def test_saddle_scan_requires_saddle_pair(model_a, cone_a, ysol_a, mmv_a):
    with pytest.raises(ConfigInvalid):
        mc.saddle_scan(model_a, cone_a, ysol_a, [mmv_a], [mc.zero_adversary()],
                       paths=200, steps=20, seed=1)


def test_saddle_scan_detects_wrong_value(model_a, cone_a, ysol_a, mmv_a, saddle_a):
    # corrupt the claimed optimal value: the scan must flag the saddle cell
    wrong = mc.BsdeSolution(equation="Y", grid=ysol_a.grid,
                            y_values=ysol_a.y_values * 1.2,
                            z_values=ysol_a.z_values, bounds=ysol_a.bounds, n=1)
    with pytest.raises(SaddleViolated) as exc_info:
        mc.saddle_scan(model_a, cone_a, wrong, [mmv_a], [saddle_a],
                       paths=20000, steps=50, seed=37)
    assert exc_info.value.report.violations


def test_custom_adversary_requires_and_enforces_bound(model_a, mmv_a):
    with pytest.raises(ConfigInvalid):
        mc.custom_adversary(lambda t, f: np.zeros((len(f), 1)), bound=0.0)
    # a loading exceeding its declared bound gets clipped onto the ball
    adv = mc.custom_adversary(lambda t, f: np.full((len(f), 1), -0.9), bound=0.3)
    eta = adv.eta_batch(model_a, 0.5, np.zeros(4))
    assert np.allclose(np.linalg.norm(eta, axis=1), 0.3)
    res = mc.simulate(model_a, mmv_a, adv, paths=5000, steps=20, seed=8)
    assert np.all(res.terminal_Lambda > 0)
    se = float(np.std(res.terminal_Lambda, ddof=1)) / math.sqrt(res.paths)
    assert abs(float(np.mean(res.terminal_Lambda)) - 1.0) <= 3.0 * se


def test_exploded_path_detected(model_a, mmv_a):
    from mmvcone.errors import ExplodedPath
    with pytest.raises(ExplodedPath), np.errstate(over="ignore", invalid="ignore"):
        mc.simulate(model_a, mmv_a.scaled(1e150), mc.zero_adversary(),
                    paths=100, steps=10, seed=3)


def test_markov_simulation_runs(model_c):
    cone = mc.full_space(1)
    sol = mc.solve_markovian(model_c, cone, "Y",
                             mc.McSolverConfig(paths=5000, basis_degree=2,
                                               seed=41, steps=25, bootstrap=0))
    mmv = mc.mmv_feedback(model_c, cone, sol)
    adv = mc.saddle_adversary(mc.mmv_adversary(sol, cone, model_c))
    res = mc.simulate(model_c, mmv, adv, paths=2000, steps=25, seed=43,
                      store_paths=True)
    assert np.all(np.isfinite(res.terminal_X))
    assert np.all(res.terminal_Lambda > 0)
    assert res.F_paths is not None
    resid = mc.conservation_residual(res, sol, model_c)
    assert math.isfinite(resid)


def _markov_saddle(model):
    """(pi_hat, eta_hat) from one regression Y solve on a one-asset factor model."""
    cone = mc.full_space(1)
    sol = mc.solve_markovian(model, cone, "Y",
                             mc.McSolverConfig(paths=2000, basis_degree=2,
                                               seed=47, steps=10, bootstrap=0))
    return (mc.mmv_feedback(model, cone, sol),
            mc.saddle_adversary(mc.mmv_adversary(sol, cone, model)))


@pytest.fixture(scope="module")
def markov_c(model_c):
    return _markov_saddle(model_c)


@pytest.fixture(scope="module")
def model_c1():
    # instance C with sigma1 != 0: sigma varies by row
    return mc.build_model(INSTANCE_C_SIGMA1)


@pytest.fixture(scope="module")
def markov_c1(model_c1):
    return _markov_saddle(model_c1)


@pytest.fixture(scope="module")
def orthant2_family():
    model = mc.build_model(INSTANCE_ORTHANT2)
    cone = mc.orthant(2)
    sol = mc.solve_deterministic(model, cone, "Y", 1000)
    return (model, mc.mmv_feedback(model, cone, sol),
            mc.saddle_adversary(mc.mmv_adversary(sol, cone, model)))


@pytest.mark.parametrize("instance", ["A", "C", "orthant2"])
def test_family_cells_match_pair_simulations(instance, request, monkeypatch):
    # one family call shares its draws across cells: every cell equals the
    # one-pair simulation of its (pi, eta) bit for bit, over several blocks
    if instance == "A":
        model = request.getfixturevalue("model_a")
        mmv = request.getfixturevalue("mmv_a")
        saddle = request.getfixturevalue("saddle_a")
    elif instance == "orthant2":
        model, mmv, saddle = request.getfixturevalue("orthant2_family")
    else:
        model = request.getfixturevalue("model_c")
        mmv, saddle = request.getfixturevalue("markov_c")
    pi_family = [mmv, None, mmv.scaled(0.5), mmv.scaled(1.5)]
    eta_family = [saddle, mc.zero_adversary(),
                  mc.scaled_minus_phi(model, 0.5), mc.scaled_minus_phi(model, 2.0)]
    kw = dict(paths=2500, steps=12, seed=53)
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 1000)
    fam = mc.simulate(model, pi_family, eta_family, **kw)
    assert fam.terminal_X.shape == (4, 2500)
    assert fam.terminal_Lambda.shape == (4, 2500)
    assert fam.objective_mean.shape == (4, 4)
    for i, strat in enumerate(pi_family):
        for j, adv in enumerate(eta_family):
            one = mc.simulate(model, strat, adv, **kw)
            assert fam.objective_mean[i, j] == one.objective_mean
            assert fam.objective_stderr[i, j] == one.objective_stderr
            assert np.array_equal(fam.terminal_X[i], one.terminal_X)
            assert np.array_equal(fam.terminal_Lambda[j], one.terminal_Lambda)


def _spy(monkeypatch, module_name, name):
    """Record the arguments of every call of module.name, under every mmvcone
    module that bound it by name."""
    original = getattr(sys.modules[module_name], name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key in [k for k in sys.modules if k == "mmvcone" or k.startswith("mmvcone.")]:
        module = sys.modules[key]
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, spy)
    return calls


def _saddle_pair(request, instance):
    """(model, pi_hat, eta_hat) on instance A, C or C1 (C with sigma1 != 0)."""
    if instance == "A":
        return tuple(request.getfixturevalue(name) for name in ("model_a", "mmv_a", "saddle_a"))
    name = instance.lower()
    return (request.getfixturevalue(f"model_{name}"),) + request.getfixturevalue(f"markov_{name}")


def _count_evaluations(monkeypatch, names):
    """Count the calls of each CoefficientField method in names."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(mc.CoefficientField, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(mc.CoefficientField, name, counted)
    return counts


@pytest.mark.parametrize("instance", ["A", "C", "C1"])
def test_family_shares_each_steps_target_and_phi(instance, request, monkeypatch):
    # pi_hat, its scaled copies and eta_hat read one projected target per
    # step and block; those, both -c phi loadings and the wealth update read
    # one coefficient state, so sigma and mu are evaluated once per step and block
    model, mmv, saddle = _saddle_pair(request, instance)
    pi_family = [mmv, None, mmv.scaled(0.5), mmv.scaled(1.5)]
    eta_family = [saddle, mc.zero_adversary(),
                  mc.scaled_minus_phi(model, 0.5), mc.scaled_minus_phi(model, 2.0)]
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)   # spies see this process only
    targets = _spy(monkeypatch, "mmvcone.strategies", "_projected_target")
    states = _spy(monkeypatch, "mmvcone.market", "coefficients_at")
    evaluations = _count_evaluations(monkeypatch, ("sigma_batch", "mu_batch"))
    steps, blocks = 12, 3
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 1000)
    mc.simulate(model, pi_family, eta_family, paths=2500, steps=steps, seed=59)
    assert len(targets) == steps * blocks
    assert len(states) == steps * blocks
    assert evaluations == {"sigma_batch": steps * blocks, "mu_batch": steps * blocks}
    assert {args[3] for args in targets} == {"Y"}


def _markov_mv(model):
    cone = mc.full_space(1)
    cfg = dict(paths=2000, basis_degree=2, steps=10, bootstrap=0)
    p1 = mc.solve_markovian(model, cone, "P1", mc.McSolverConfig(seed=61, **cfg))
    p2 = mc.solve_markovian(model, cone, "P2", mc.McSolverConfig(seed=67, **cfg))
    return mc.mv_feedback(model, cone, p1, p2)


@pytest.fixture(scope="module")
def markov_c_mv(model_c):
    return _markov_mv(model_c)


@pytest.fixture(scope="module")
def markov_c1_mv(model_c1):
    return _markov_mv(model_c1)


@pytest.mark.parametrize("instance", ["A", "C", "C1"])
def test_mixed_family_cells_match_pair_simulations(instance, request, monkeypatch):
    # MMV and MV maps beside -c phi and zero loadings.  An MV map whose level
    # sits below x0 h0 starts with every wealth above gamma/h_t, so its short
    # side (P1) runs; scaled up 20 times its wealth crosses the level both
    # ways, and on C and C1 its P1 rows are then a strict subset of a block's rows.
    # Neither those rows nor their coefficients may reach another member.
    model, mmv, saddle = _saddle_pair(request, instance)
    if instance == "A":
        mv = mc.mv_feedback(model, mmv.cone, request.getfixturevalue("p1sol_a"),
                            request.getfixturevalue("p2sol_a"))
    else:
        mv = request.getfixturevalue(f"markov_{instance.lower()}_mv")
    split = dataclasses.replace(mv, gamma_hat=0.99 * model.x0 * model.h0, label="split")
    pi_family = [split.scaled(20.0), split, mv, mmv, None]
    eta_family = [mc.scaled_minus_phi(model, 0.5), saddle, mc.zero_adversary(),
                  mc.scaled_minus_phi(model, 2.0)]
    kw = dict(paths=2500, steps=12, seed=71)
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 1000)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)   # spies see this process only
    targets = _spy(monkeypatch, "mmvcone.strategies", "_projected_target")
    evaluations = _count_evaluations(monkeypatch, ("sigma_batch",))
    fam = mc.simulate(model, pi_family, eta_family, **kw)
    # the P1 rows are gathered from the step's state, not evaluated again
    assert evaluations == {"sigma_batch": 12 * 3}
    p1_rows = {len(args[0].rows) for args in targets if args[3] == "P1"}
    assert p1_rows
    if instance != "A":
        assert p1_rows - {1000, 500}      # not only whole blocks
    for i, strat in enumerate(pi_family):
        for j, adv in enumerate(eta_family):
            one = mc.simulate(model, strat, adv, **kw)
            assert fam.objective_mean[i, j] == one.objective_mean
            assert fam.objective_stderr[i, j] == one.objective_stderr
            assert np.array_equal(fam.terminal_X[i], one.terminal_X)
            assert np.array_equal(fam.terminal_Lambda[j], one.terminal_Lambda)


@pytest.mark.parametrize("instance", ["A", "C", "C1"])
def test_step_subset_matches_its_own_step(instance, request):
    # a subset gathers sigma, mu and phi from its step; its targets carry the
    # bits of a StepTargets built on the subset's rows, at one t or per-row t
    model, mmv, _ = _saddle_pair(request, instance)
    mv = (mc.mv_feedback(model, mmv.cone, request.getfixturevalue("p1sol_a"),
                         request.getfixturevalue("p2sol_a"))
          if instance == "A" else request.getfixturevalue(f"markov_{instance.lower()}_mv"))
    fvals = np.linspace(0.0, 0.12, 40)
    keep = np.arange(40) % 3 != 1
    per_row = np.linspace(0.0, model.horizon_T, 40)
    # a factor-free model has one row per time, so one row at a single t
    for t in (per_row,) if instance == "A" else (0.37, per_row):
        step = StepTargets(model, t, fvals)
        sub = step.subset(keep)
        alone = StepTargets(model, t[keep] if np.ndim(t) else t, fvals[keep])
        assert np.array_equal(sub.rows, alone.rows)
        for name in ("sigma", "mu", "phi"):
            assert np.array_equal(getattr(sub, name), getattr(alone, name)), name
        assert (sub.sigma.strides[0] == 0) == (step.sigma.strides[0] == 0)
        for sol, side in ((mv.p1_sol, "P1"), (mv.p2_sol, "P2"), (mmv.y_sol, "Y")):
            for got, want in zip(sub.target(mmv.cone, sol, side),
                                 alone.target(mmv.cone, sol, side)):
                assert np.array_equal(got, want), side


def test_family_exploding_member_raises(model_a, mmv_a, saddle_a, monkeypatch):
    from mmvcone.errors import ExplodedPath
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 100)
    with pytest.raises(ExplodedPath), np.errstate(over="ignore", invalid="ignore"):
        mc.simulate(model_a, [mmv_a, mmv_a.scaled(1e150)], [saddle_a],
                    paths=300, steps=10, seed=3)
    # a bounded loading cannot blow the density up; a broken one (NaN) can
    broken = mc.custom_adversary(lambda t, f: np.full((len(f), 1), np.nan), bound=1.0)
    with pytest.raises(ExplodedPath), np.errstate(invalid="ignore"):
        mc.simulate(model_a, [mmv_a], [saddle_a, broken],
                    paths=300, steps=10, seed=3)


def test_family_rejects_store_paths_and_empty(model_a, mmv_a, saddle_a):
    with pytest.raises(ConfigInvalid):
        mc.simulate(model_a, [mmv_a, None], [saddle_a], paths=200, steps=10,
                    seed=1, store_paths=True)
    with pytest.raises(ConfigInvalid):
        mc.simulate(model_a, [], [saddle_a], paths=200, steps=10, seed=1)
    with pytest.raises(ConfigInvalid):
        mc.simulate(model_a, [mmv_a], [], paths=200, steps=10, seed=1)


_forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _count_forks(monkeypatch, fails=False):
    """Count the os.fork calls; each raises OSError when fails."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        if fails:
            raise OSError("no fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _saddle_family(model, mmv, saddle):
    return ([mmv, None, mmv.scaled(0.5), mmv.scaled(1.5)],
            [saddle, mc.zero_adversary(), mc.scaled_minus_phi(model, 0.5),
             mc.scaled_minus_phi(model, 2.0)])


def _split_family(request, name):
    """(model, pi_family, eta_family): the saddle family on A, C, C1 or
    orthant2, or the mixed MMV/MV family on C1 whose 20x split MV member runs
    its short side (P1) on strict subsets of a block's rows."""
    if name == "orthant2":
        model, mmv, saddle = request.getfixturevalue("orthant2_family")
    else:
        model, mmv, saddle = _saddle_pair(request, "C1" if name == "mixed" else name)
    if name == "mixed":
        mv = request.getfixturevalue("markov_c1_mv")
        split = dataclasses.replace(mv, gamma_hat=0.99 * model.x0 * model.h0, label="split")
        return (model, [split.scaled(20.0), split, mv, mmv, None],
                [mc.scaled_minus_phi(model, 0.5), saddle, mc.zero_adversary(),
                 mc.scaled_minus_phi(model, 2.0)])
    return (model, *_saddle_family(model, mmv, saddle))


def _assert_same_batch(a, b):
    for name in ("terminal_X", "terminal_Lambda", "X_paths", "Lambda_paths", "F_paths"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or np.array_equal(x, y), name
    assert np.all(np.asarray(a.objective_mean) == np.asarray(b.objective_mean))
    assert np.all(np.asarray(a.objective_stderr) == np.asarray(b.objective_stderr))


@_forks
@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
@pytest.mark.parametrize("name", ["A", "C", "C1", "orthant2", "mixed"])
def test_split_family_matches_one_process(name, antithetic, request, monkeypatch):
    # on 2 CPUs the members past the first group advance in a forked child,
    # over three blocks; every terminal row and cell is the one-process bits
    model, pi_family, eta_family = _split_family(request, name)
    kw = dict(paths=2500, steps=12, seed=73, antithetic=antithetic)
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 1000)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    one = mc.simulate(model, pi_family, eta_family, **kw)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    split = mc.simulate(model, pi_family, eta_family, **kw)
    assert len(forks) == 1
    _assert_same_batch(split, one)


@pytest.mark.parametrize("instance", ["A", "C"])
def test_stored_pair_matches_one_process(instance, request, monkeypatch):
    # a pair is the calling process's group: trajectories are the one-process bits
    model, mmv, saddle = _saddle_pair(request, instance)
    kw = dict(paths=2500, steps=12, seed=79, store_paths=True)
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 1000)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    one = mc.simulate(model, mmv, saddle, **kw)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    split = mc.simulate(model, mmv, saddle, **kw)
    assert forks == [] and (split.F_paths is not None) == (instance == "C")
    _assert_same_batch(split, one)


def test_split_groups_balance_member_cost(model_a, mmv_a, saddle_a, monkeypatch):
    # pi_hat and eta_hat stay here; a None portfolio and a zero loading cost
    # nothing, so 0.5 pi_hat joins them and the other three members cost three
    pi_family, eta_family = _saddle_family(model_a, mmv_a, saddle_a)
    calls, real = [], mc.forksplit.run

    def run(work, groups, floor):
        calls.append(groups)
        return real(work, groups, floor)

    monkeypatch.setattr(mc.forksplit, "run", run)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    mc.simulate(model_a, pi_family, eta_family, paths=200, steps=10, seed=1)
    assert calls == [[[0, 4, 1, 2], [3, 5, 6, 7]]]


def _loading(label, fails_at=None, steps=10, shape=None, nan=False):
    """A custom loading that returns NaN, a wrong shape, or raises
    NoConvergence on its call at (block, step) of fails_at; the count of its
    calls stays in the process that advances it."""
    calls = []

    def eta(t, f):
        calls.append(t)
        if fails_at is not None and len(calls) == fails_at[0] * steps + fails_at[1] + 1:
            raise NoConvergence(f"{label} failed at {fails_at}")
        return np.full(shape or (len(f), 1), np.nan if nan else 0.1)

    return mc.custom_adversary(eta, bound=1.0, label=label)


@_forks
@pytest.mark.parametrize("here, there, error, match", [
    # an error raised in the child only reaches the caller with its type
    (None, dict(nan=True), ExplodedPath, "^non-finite state in block 0; refine steps$"),
    (None, dict(shape=(3, 1)), ConfigInvalid, "^adversary: custom eta returned shape"),
    # both fail: the error met first in (block, step, member) order is raised
    (dict(fails_at=(0, 5)), dict(fails_at=(0, 3)), NoConvergence, "^there failed"),
    (dict(fails_at=(0, 3)), dict(fails_at=(0, 3)), NoConvergence, "^here failed"),
    (dict(fails_at=(1, 2)), dict(fails_at=(0, 7)), NoConvergence, "^there failed"),
    # ExplodedPath comes at the end of its block
    (dict(fails_at=(1, 0)), dict(nan=True), ExplodedPath, "^non-finite state in block 0"),
    (dict(fails_at=(0, 9)), dict(nan=True), NoConvergence, "^here failed"),
    (dict(nan=True), dict(fails_at=(0, 9)), NoConvergence, "^there failed"),
    (dict(nan=True), dict(fails_at=(1, 0)), ExplodedPath, "^non-finite state in block 0"),
], ids=["child_nan", "child_shape", "child_step_first", "same_step_member_order",
        "child_block_first", "child_exploded_before_next_block", "parent_step_before_block_end",
        "child_step_before_block_end", "parent_exploded_before_next_block"])
def test_split_raises_the_first_one_process_error(model_a, mmv_a, monkeypatch, here, there,
                                                  error, match):
    # [pi_hat] x [here, there]: here walks in this process, there in the child
    raised = []
    for cpus in (1, 2):
        monkeypatch.setattr(mc.forksplit, "cpus", lambda: cpus)
        monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 100)
        forks = _count_forks(monkeypatch)
        family = [_loading("here", **(here or {})), _loading("there", **there)]
        with pytest.raises(error, match=match) as info, np.errstate(invalid="ignore"):
            mc.simulate(model_a, [mmv_a], family, paths=300, steps=10, seed=3)
        assert len(forks) == cpus - 1
        raised.append(str(info.value))
        monkeypatch.undo()
    assert raised[0] == raised[1]
    if error is ConfigInvalid:
        assert info.value.field == "adversary"


@_forks
@pytest.mark.parametrize("fallback", ["one_cpu", "second_thread", "fork_fails"])
def test_simulate_falls_back_to_one_process(model_a, mmv_a, saddle_a, monkeypatch, fallback):
    pi_family, eta_family = _saddle_family(model_a, mmv_a, saddle_a)
    kw = dict(paths=2500, steps=12, seed=83)
    monkeypatch.setattr(sys.modules["mmvcone.simulate"], "_BLOCK", 1000)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    one = mc.simulate(model_a, pi_family, eta_family, **kw)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1 if fallback == "one_cpu" else 2)
    forks = _count_forks(monkeypatch, fails=fallback == "fork_fails")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if fallback == "second_thread":
        thread.start()
    try:
        batch = mc.simulate(model_a, pi_family, eta_family, **kw)
    finally:
        release.set()
        if fallback == "second_thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == (1 if fallback == "fork_fails" else 0)
    _assert_same_batch(batch, one)
