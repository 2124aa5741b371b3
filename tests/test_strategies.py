import math

import numpy as np
import pytest

import mmvcone as mc
from mmvcone.errors import ConfigInvalid, InvalidBound, TimeOutOfRange
from mmvcone.strategies import StepTargets

from conftest import H0_A, INSTANCE_A, INSTANCE_C, VALUE_A, Y0_A


@pytest.fixture(scope="module")
def mmv_a(model_a, cone_a, ysol_a):
    return mc.mmv_feedback(model_a, cone_a, ysol_a)


@pytest.fixture(scope="module")
def mv_a(model_a, cone_a, p1sol_a, p2sol_a):
    return mc.mv_feedback(model_a, cone_a, p1sol_a, p2sol_a)


def test_a_const_equals_gamma_hat(mmv_a, mv_a):
    assert abs(mmv_a.a_const - mv_a.gamma_hat) < 1e-10


def test_mmv_portfolio_instance_a(mmv_a):
    # closed form: pi = 1.5 (a / h0 - 1) = 1.5 e^{0.07} at (t=0, X=1)
    pi = mmv_a.portfolio(0.0, 1.0)
    assert pi == pytest.approx([1.5 * math.exp(0.07)], abs=1e-8)


def test_mmv_portfolio_zero_gap(mmv_a, model_a):
    x_star = mmv_a.a_const / model_a.discount(0.4)
    assert mmv_a.portfolio(0.4, x_star) == pytest.approx([0.0], abs=1e-12)


def test_mmv_portfolio_homogeneous_in_gap(mmv_a, model_a):
    h_t = model_a.discount(0.3)
    base = mmv_a.a_const / h_t
    pi_1 = mmv_a.portfolio(0.3, base - 0.5 / h_t)
    pi_2 = mmv_a.portfolio(0.3, base - 1.0 / h_t)
    assert pi_2 == pytest.approx(2.0 * pi_1, abs=1e-12)


def test_mmv_instance_b_no_trade(model_b, cone_b, ysol_b):
    mmv = mc.mmv_feedback(model_b, cone_b, ysol_b)
    for t in (0.0, 0.4, 0.99):
        for x in (0.0, 1.0, 1.8):
            assert mmv.portfolio(t, x) == pytest.approx([0.0], abs=0)


def test_mmv_membership_in_cone(model_b, cone_b, ysol_b, mmv_a, cone_a):
    rng = np.random.default_rng(8)
    mmv_b = mc.mmv_feedback(model_b, cone_b, ysol_b)
    for _ in range(50):
        t = float(rng.uniform(0.0, 1.0))
        x = float(rng.uniform(0.0, 2.0))
        assert mc.contains(cone_a, mmv_a.portfolio(t, x), tol=1e-9)
        assert mc.contains(cone_b, mmv_b.portfolio(t, x), tol=1e-9)


def test_xi_field_lies_in_transformed_cone(mmv_a, model_a, cone_a,
                                           model_b, cone_b, ysol_b):
    mmv_b = mc.mmv_feedback(model_b, cone_b, ysol_b)
    for strat, model, cone in ((mmv_a, model_a, cone_a), (mmv_b, model_b, cone_b)):
        for t in (0.0, 0.37, 0.99):
            xi = StepTargets(model, t, None).target(cone, strat.y_sol, "Y")[2][0]
            sig = model.coefficients.sigma(t)
            point = mc.project_transformed(cone, sig, xi)
            assert math.sqrt(point.dist_sq) < 1e-10


@pytest.fixture(scope="module")
def markov_c_maps(model_c):
    """(pi_hat, pi_gamma_hat, eta_hat) from small regression solves on C."""
    cone = mc.full_space(1)
    y, p2, p1 = mc.solve_markovian_many(model_c, cone, [(eq, mc.McSolverConfig(
        paths=2000, basis_degree=2, seed=31 + k, steps=10, bootstrap=0))
        for k, eq in enumerate(("Y", "P2", "P1"))])
    return (mc.mmv_feedback(model_c, cone, y), mc.mv_feedback(model_c, cone, p1, p2),
            mc.mmv_adversary(y, cone, model_c))


@pytest.mark.parametrize("instance", ["A", "C"])
@pytest.mark.parametrize("offset", [-0.1, 0.1], ids=["before_0", "after_T"])
def test_feedback_maps_reject_times_outside_horizon(instance, offset, request):
    # every portfolio and loading evaluation passes the time check of
    # coefficients_at, at t = -0.1 and t = T + 0.1
    if instance == "A":
        model, cone, y = (request.getfixturevalue(name)
                          for name in ("model_a", "cone_a", "ysol_a"))
        maps = (request.getfixturevalue("mmv_a"), request.getfixturevalue("mv_a"),
                mc.mmv_adversary(y, cone, model))
        fvals = np.zeros(3)
    else:
        model = request.getfixturevalue("model_c")
        maps = request.getfixturevalue("markov_c_maps")
        fvals = np.full(3, model.coefficients.f0)
    t = offset if offset < 0 else model.horizon_T + offset
    *strategies, adversary = maps
    for strat in strategies:
        with pytest.raises(TimeOutOfRange):
            strat.portfolio_batch(t, np.ones(3), fvals)
    with pytest.raises(TimeOutOfRange):
        adversary.eta_batch(t, fvals)


def test_markov_batch_calls_require_factor_states(model_c, markov_c_maps):
    # a factor-driven model has no default state: evaluating without fvals is
    # a config error, as the one-row views already were
    mmv, mv, adversary = markov_c_maps
    for strat in (mmv, mv):
        with pytest.raises(ConfigInvalid, match="factor state required"):
            strat.portfolio_batch(0.5, np.array([1.0]))
        with pytest.raises(ConfigInvalid, match="factor state required"):
            strat.portfolio(0.5, 1.0)
    with pytest.raises(ConfigInvalid, match="factor state required"):
        StepTargets(model_c, 0.5, None)
    with pytest.raises(ConfigInvalid, match="factor state required"):
        adversary.eta_batch(0.5, None)
    with pytest.raises(ConfigInvalid, match="factor state required"):
        adversary.eta(0.5)
    # with a state, the batch and the one-row views agree
    f0 = model_c.coefficients.f0
    assert np.array_equal(mmv.portfolio_batch(0.5, np.array([1.0]), np.array([f0]))[0],
                          mmv.portfolio(0.5, 1.0, f0))
    assert np.array_equal(adversary.eta_batch(0.5, np.array([f0]))[0],
                          adversary.eta(0.5, f0))


def test_adversary_instance_a(model_a, cone_a, ysol_a):
    adv = mc.mmv_adversary(ysol_a, cone_a, model_a)
    for t in (0.0, 0.31, 0.9):
        assert adv.eta(t) == pytest.approx([-0.3], abs=1e-10)


def test_adversary_instance_b(model_b, cone_b, ysol_b):
    adv = mc.mmv_adversary(ysol_b, cone_b, model_b)
    assert adv.eta(0.2) == pytest.approx([0.0], abs=1e-12)


def test_adversary_independent_of_y_when_unconstrained(model_a, cone_a):
    # Z = 0, full space: eta = -phi regardless of the Y level
    grid = np.linspace(0.0, 1.0, 5)
    for level in (0.5, 1.0, 4.0):
        sol = mc.BsdeSolution(equation="Y", grid=grid,
                              y_values=np.full(5, level),
                              z_values=np.zeros((5, 1)), bounds=(0.1, 10.0), n=1)
        adv = mc.mmv_adversary(sol, cone_a, model_a)
        assert adv.eta(0.5) == pytest.approx([-0.3], abs=1e-12)


def test_mv_portfolio_instance_a(mv_a):
    assert mv_a.gamma_hat == pytest.approx(H0_A + Y0_A, abs=1e-8)
    assert mv_a.xi2(0.0) == pytest.approx([1.5], abs=1e-8)
    pi = mv_a.portfolio(0.0, 1.0)
    assert pi == pytest.approx([1.5 * math.exp(0.07)], abs=1e-8)
    one_sided = mv_a.portfolio_one_sided(0.0, 1.0)
    assert one_sided == pytest.approx(pi, abs=1e-12)


def test_mv_portfolio_zero_gap(mv_a, model_a):
    x_star = mv_a.gamma_hat / model_a.discount(0.7)
    assert mv_a.portfolio(0.7, x_star) == pytest.approx([0.0], abs=1e-12)


def test_mv_instance_b_no_trade(model_b, cone_b):
    p1 = mc.solve_deterministic(model_b, cone_b, "P1", 500)
    p2 = mc.solve_deterministic(model_b, cone_b, "P2", 500)
    mv = mc.mv_feedback(model_b, cone_b, p1, p2)
    assert mv.xi2(0.3) == pytest.approx([0.0], abs=1e-10)
    # on-manifold states: optimal portfolio vanishes
    for t in (0.0, 0.5, 1.0):
        for x in (0.0, 1.0, 1.5):
            assert mv.portfolio(t, x) == pytest.approx([0.0], abs=1e-10)


def test_mv_membership_in_cone():
    # orthant cone with positive drift: both sides of the feedback stay in Gamma
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in
           {"m": 1, "n": 1, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.02,
            "coefficients": {"kind": "deterministic", "mu": [0.06], "sigma": [[0.2]]},
            "delta": 1e-6}.items()}
    model = mc.build_model(cfg)
    cone = mc.orthant(1)
    p1 = mc.solve_deterministic(model, cone, "P1", 500)
    p2 = mc.solve_deterministic(model, cone, "P2", 500)
    mv = mc.mv_feedback(model, cone, p1, p2)
    rng = np.random.default_rng(21)
    for _ in range(50):
        t = float(rng.uniform(0.0, 1.0))
        x = float(rng.uniform(0.0, mv.gamma_hat / model.discount(t)))
        assert mc.contains(cone, mv.portfolio(t, x), tol=1e-9)


def test_mmv_value_examples(model_a, ysol_a, model_b, ysol_b):
    assert abs(mc.mmv_value(model_a, ysol_a) - VALUE_A) < 1e-8
    assert mc.mmv_value(model_b, ysol_b) == pytest.approx(H0_A, abs=1e-12)


def test_dual_curve_instance_a(p1sol_a, p2sol_a, model_a):
    curve = mc.dual_curve(p1sol_a.value0, p2sol_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    assert abs(curve.K_hat - (H0_A + Y0_A - 1.0)) < 1e-8
    assert curve.K_hat >= model_a.x0 * model_a.h0
    assert abs(curve.F(curve.K_hat) - (Y0_A - 1.0)) < 1e-8
    assert abs(curve.mv_value - VALUE_A) < 1e-8
    # consistency: value = K_hat - (theta/2) F(K_hat)
    assert abs(curve.mv_value - (curve.K_hat - 0.5 * curve.F(curve.K_hat))) < 1e-12


def test_dual_curve_anchor_cases(model_a):
    curve = mc.dual_curve(0.9, 0.95, model_a.h0, model_a.x0, model_a.theta)
    anchor = model_a.x0 * model_a.h0
    assert curve.F(anchor) == 0.0
    assert curve.gamma_hat_of(anchor) == anchor


def test_dual_curve_boundary_cases(model_a):
    h0 = model_a.h0
    curve = mc.dual_curve(0.9, h0 * h0, h0, model_a.x0, model_a.theta)
    anchor = model_a.x0 * h0
    assert math.isinf(curve.F(anchor + 0.1))
    assert curve.F(anchor + 0.1) > 0
    assert curve.mv_value == anchor
    assert curve.K_hat == anchor
    assert math.isinf(curve.gamma_hat_of(anchor + 0.1))
    low = mc.dual_curve(h0 * h0, 0.95, h0, model_a.x0, model_a.theta)
    assert math.isinf(low.F(anchor - 0.1))
    assert low.gamma_hat_of(anchor - 0.1) == -math.inf


def test_dual_curve_rejects_invalid_bounds(model_a):
    h0 = model_a.h0
    with pytest.raises(InvalidBound):
        mc.dual_curve(h0 * h0 + 1e-6, 0.9, h0, 1.0, 1.0)
    with pytest.raises(InvalidBound):
        mc.dual_curve(0.9, -0.1, h0, 1.0, 1.0)


def test_dual_curve_matches_j_supremum(p1sol_a, p2sol_a, model_a):
    # F(K) equals sup over gamma of the piecewise quadratic J(K, gamma)
    curve = mc.dual_curve(p1sol_a.value0, p2sol_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    anchor = model_a.x0 * model_a.h0
    gammas = np.linspace(anchor - 60.0, anchor + 60.0, 400001)
    for K in (anchor - 0.2, anchor + 0.15, anchor + 0.4):
        j_vals = np.where(gammas < anchor,
                          [curve.J1(K, g) for g in gammas],
                          [curve.J2(K, g) for g in gammas])
        assert abs(float(np.max(j_vals)) - curve.F(K)) < 1e-4


def test_j_concavity(p1sol_a, p2sol_a, model_a):
    curve = mc.dual_curve(p1sol_a.value0, p2sol_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    h0_sq = model_a.h0 ** 2
    assert curve.p1_0 < h0_sq and curve.p2_0 < h0_sq
    assert curve.p1_0 / h0_sq - 1.0 < 0
    assert curve.p2_0 / h0_sq - 1.0 < 0


def test_gamma_hat_composition(p1sol_a, p2sol_a, model_a):
    curve = mc.dual_curve(p1sol_a.value0, p2sol_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    direct = model_a.x0 * model_a.h0 + model_a.h0 ** 2 / (model_a.theta * curve.p2_0)
    assert abs(curve.gamma_hat_of(curve.K_hat) - direct) < 1e-12
    assert abs(curve.gamma_hat - direct) < 1e-15


def test_k_hat_maximizes_objective(p1sol_a, p2sol_a, model_a):
    curve = mc.dual_curve(p1sol_a.value0, p2sol_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    anchor = model_a.x0 * model_a.h0
    ks = np.linspace(anchor - 1.0, anchor + 1.0, 10001)
    best = max(curve.objective(float(k)) for k in ks)
    assert best <= curve.mv_value + 1e-10


def test_value_identity(model_a, ysol_a, p1sol_a, p2sol_a):
    curve = mc.dual_curve(p1sol_a.value0, p2sol_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    assert abs(mc.mmv_value(model_a, ysol_a) - curve.mv_value) < 1e-8


def test_equivalence_instance_a(mmv_a, mv_a):
    report = mc.equivalence_check(
        mmv_a, mv_a, (np.linspace(0.0, 1.0, 101), np.linspace(0.0, 2.0, 101)))
    assert report.max_gap <= 1e-8
    assert report.value_gap <= 1e-8


def test_equivalence_instance_b(model_b, cone_b, ysol_b):
    p1 = mc.solve_deterministic(model_b, cone_b, "P1", 500)
    p2 = mc.solve_deterministic(model_b, cone_b, "P2", 500)
    mmv = mc.mmv_feedback(model_b, cone_b, ysol_b)
    mv = mc.mv_feedback(model_b, cone_b, p1, p2)
    # on-manifold lattice: gamma_hat / h_t > 1.9 for all t
    report = mc.equivalence_check(
        mmv, mv, (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.9, 21)))
    assert report.max_gap == 0.0
    assert report.value_gap < 1e-10


def test_scaled_strategy(mmv_a):
    pi = mmv_a.portfolio(0.0, 1.0)
    assert mmv_a.scaled(0.5).portfolio(0.0, 1.0) == pytest.approx(0.5 * pi)
    assert mmv_a.scaled(1.5).portfolio_batch(0.0, np.array([1.0]))[0] == pytest.approx(1.5 * pi)


def test_portfolio_batch_matches_scalar(mmv_a, mv_a):
    rng = np.random.default_rng(12)
    ts = rng.uniform(0.0, 1.0, size=5)
    xs = rng.uniform(0.0, 2.0, size=7)
    for t in ts:
        batch_m = mmv_a.portfolio_batch(float(t), xs)
        batch_v = mv_a.portfolio_batch(float(t), xs)
        for i, x in enumerate(xs):
            assert batch_m[i] == pytest.approx(mmv_a.portfolio(float(t), float(x)), abs=1e-12)
            assert batch_v[i] == pytest.approx(mv_a.portfolio(float(t), float(x)), abs=1e-12)


_ORTHANT2 = {
    "m": 2, "n": 2, "T": 1.0, "x0": 1.0, "theta": 2.0,
    "rate": [{"until": 0.5, "value": 0.02}, {"until": 1.0, "value": 0.04}],
    "coefficients": {"kind": "deterministic", "mu": [0.06, -0.03],
                     "sigma": [[0.2, 0.05], [0.0, 0.25]]},
    "delta": 1e-6,
}
_C_F_VALUES = [0.03, 0.06, 0.09]
# (config, cone, f_values); wealth runs past gamma_hat / h_t, so the MV
# short side is evaluated on some probes and not on others
_LATTICE_CASES = {
    "A": (INSTANCE_A, mc.full_space(1), None),
    "orthant2": (_ORTHANT2, mc.orthant(2), None),
    "generated": (_ORTHANT2, mc.generated([[1.0, 0.5, -0.2], [0.0, 1.0, 1.0]]), None),
    "C_f_values": (INSTANCE_C, mc.full_space(1), _C_F_VALUES),
    "C_mean_path": (INSTANCE_C, mc.full_space(1), None),
}


def _solve_three(model, cone):
    if model.coefficients.kind == "deterministic":
        return [mc.solve_deterministic(model, cone, eq, 100) for eq in ("Y", "P2", "P1")]
    return mc.solve_markovian_many(model, cone, [(eq, mc.McSolverConfig(
        paths=2000, basis_degree=2, seed=31 + k, steps=10, bootstrap=3 if k < 2 else 0))
        for k, eq in enumerate(("Y", "P2", "P1"))])


def _per_probe(strategy, report):
    """The lattice as one portfolio_batch call per (t, f) probe."""
    xs = report.x_values
    out = []
    for p, t in enumerate(report.probe_t.tolist()):
        fcol = None if report.probe_f is None else np.full(len(xs), report.probe_f[p])
        out.append(strategy.portfolio_batch(t, xs, fcol))
    return np.stack(out)


@pytest.mark.parametrize("case", list(_LATTICE_CASES))
def test_stacked_lattice_matches_per_probe_calls(case):
    config, cone, f_values = _LATTICE_CASES[case]
    model = mc.build_model(config)
    y, p2, p1 = _solve_three(model, cone)
    mmv = mc.mmv_feedback(model, cone, y)
    mv = mc.mv_feedback(model, cone, p1, p2)
    t_values, x_values = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 3.0, 13)
    grid = (t_values, x_values) if f_values is None else (t_values, x_values, f_values)
    report = mc.equivalence_check(mmv, mv, grid)

    if case == "C_mean_path":
        cf = model.coefficients
        assert report.probe_f.tolist() == [
            cf.mean_level + (cf.f0 - cf.mean_level) * math.exp(-cf.kappa * t)
            for t in t_values.tolist()]
    n_f = 1 if f_values is None else len(f_values)
    assert report.probe_t.tolist() == np.repeat(t_values, n_f).tolist()
    pos = x_values[None, :] > mv.gamma_hat / np.array(
        [model.discount(t) for t in report.probe_t.tolist()])[:, None]
    assert np.any(pos) and not np.all(pos)

    assert np.array_equal(report.pim, _per_probe(mmv, report))
    assert np.array_equal(report.piv, _per_probe(mv, report))
    assert np.array_equal(report.gaps, np.linalg.norm(report.pim - report.piv, axis=2))
    if y.replicates:
        lattice = np.broadcast_to(x_values, report.gaps.shape)
        for b in range(len(y.replicates)):
            mmv_b = mc.mmv_feedback(model, cone, y.replicate(b))
            mv_b = mc.mv_feedback(model, cone, p1, p2.replicate(b))
            for strat in (mmv_b, mv_b):
                stacked = strat.portfolio_batch(report.probe_t, lattice, report.probe_f)
                assert np.array_equal(stacked, _per_probe(strat, report)), b
        assert report.max_gap_ratio is not None
        # the worst ratio below t = T is reported beside the overall one
        assert 0.0 <= report.max_gap_ratio_interior <= report.max_gap_ratio
        assert (report.summary_dict()["max_gap_ratio_interior"]
                == report.max_gap_ratio_interior)
    else:
        assert report.max_gap_ratio is None and report.max_gap_ratio_interior is None
        assert "max_gap_ratio_interior" not in report.summary_dict()


def _bound_lattice_reference(model, loading):
    """Largest loading norm over the 21 x 7 bound lattice, one probe time at a time."""
    levels = np.linspace(0.005, 0.995, 7)
    top = 0.0
    for t in np.linspace(0.0, model.horizon_T, 21):
        fvals = (model.coefficients.factor_quantiles(t, levels)
                 if model.coefficients.kind == "markov" else np.zeros(1))
        top = max(top, float(np.max(np.linalg.norm(loading(t, fvals), axis=1))))
    return top


@pytest.mark.parametrize("case", ["A", "orthant2", "C_mean_path"])
def test_saddle_family_bounds_match_per_time_loop(case):
    # one evaluation over the whole bound lattice declares the same bounds
    config, cone, _ = _LATTICE_CASES[case]
    model = mc.build_model(config)
    y = _solve_three(model, cone)[0]
    saddle = mc.mmv_adversary(y, cone, model)
    top = _bound_lattice_reference(model, saddle._loading)
    assert saddle.bound == 1.5 * top + 1e-12
    phi_top = _bound_lattice_reference(
        model, lambda t, f: mc.pricing_kernel_batch(model, t, f))
    for c in (0.5, -2.0):
        assert mc.scaled_minus_phi(model, c).bound == abs(c) * phi_top * 1.5 + 1e-12
