"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to stream the lines).
"""

import math
import time

import numpy as np
import pytest

import mmvcone as mc

from conftest import INSTANCE_A, INSTANCE_B, INSTANCE_C, random_cone, sample_cone_point
from test_cones import grid_search_projection

VALUE_A = math.exp(0.02) + (math.exp(0.09) - 1.0) / 2.0


def _report(num, description, ok=True):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok


def _copy(cfg, **overrides):
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    out.update(overrides)
    return out


def test_criterion_1_closed_form_recovery():
    start = time.perf_counter()
    model = mc.build_model(INSTANCE_A)
    cone = mc.full_space(1)
    y_sol = mc.solve_deterministic(model, cone, "Y", 1000)
    p1_sol = mc.solve_deterministic(model, cone, "P1", 1000)
    p2_sol = mc.solve_deterministic(model, cone, "P2", 1000)
    value_mmv = mc.mmv_value(model, y_sol)
    curve = mc.dual_curve(p1_sol.value0, p2_sol.value0, model.h0, model.x0, model.theta)
    elapsed = time.perf_counter() - start

    assert abs(y_sol.value0 - math.exp(0.09)) < 1e-8
    assert abs(p2_sol.value0 - math.exp(-0.05)) < 1e-8
    assert abs(value_mmv - VALUE_A) < 1e-8
    assert abs(curve.mv_value - VALUE_A) < 1e-8
    assert elapsed < 1.0
    _report(1, f"closed forms recovered (Y0, P2_0, both values; {elapsed:.2f}s)")


def test_criterion_2_no_trade_cone():
    start = time.perf_counter()
    model = mc.build_model(INSTANCE_B)
    cone = mc.orthant(1)
    y_sol = mc.solve_deterministic(model, cone, "Y", 1000)
    mmv = mc.mmv_feedback(model, cone, y_sol)
    value = mc.mmv_value(model, y_sol)
    elapsed = time.perf_counter() - start

    assert np.max(np.abs(y_sol.y_values - 1.0)) < 1e-12
    for t in np.linspace(0.0, 1.0, 11):
        for x in np.linspace(0.0, 2.0, 11):
            assert np.all(mmv.portfolio(float(t), float(x)) == 0.0)
    assert value == model.x0 * model.h0  # exactly, from formulas
    assert abs(value - 1.02020134) < 1e-7
    assert elapsed < 1.0
    _report(2, f"no-trade cone: Y == 1, pi == 0, value = x h0 ({elapsed:.2f}s)")


def test_criterion_3_cross_bsde_identity():
    cfg = _copy(INSTANCE_A)
    cfg["coefficients"] = {"kind": "deterministic", "mu": [0.06], "sigma": [[0.2]]}
    cfg["cone"] = {"kind": "orthant"}
    model = mc.build_model(cfg)
    cone = mc.orthant(1)
    y_sol = mc.solve_deterministic(model, cone, "Y", 1000)
    p2_sol = mc.solve_deterministic(model, cone, "P2", 1000)
    y_from_p2 = mc.transform_p2_to_y(p2_sol, model)
    rng = np.random.default_rng(314)
    checks = [0.0] + [float(y_sol.grid[i])
                      for i in rng.integers(0, len(y_sol.grid), size=10)]
    for t in checks:
        assert abs(y_sol.value(t) - y_from_p2.value(t)) < 1e-8

    cfg0 = _copy(cfg, rate=0.0)
    model0 = mc.build_model(cfg0)
    y0_sol = mc.solve_deterministic(model0, cone, "Y", 1000)
    p_sol = mc.solve_deterministic(model0, cone, "P", 1000)
    y_from_p = mc.transform_p_to_y(p_sol)
    for t in checks:
        assert abs(y0_sol.value(t) - y_from_p.value(t)) < 1e-8
    _report(3, "cross-identities Y = h^2/P2 and (r=0) Y = 1/P hold to 1e-8")


def test_criterion_4_equivalence():
    start = time.perf_counter()
    # deterministic instance: exact equality on the lattice
    model = mc.build_model(INSTANCE_A)
    cone = mc.full_space(1)
    y_sol = mc.solve_deterministic(model, cone, "Y", 1000)
    p1_sol = mc.solve_deterministic(model, cone, "P1", 1000)
    p2_sol = mc.solve_deterministic(model, cone, "P2", 1000)
    mmv = mc.mmv_feedback(model, cone, y_sol)
    mv = mc.mv_feedback(model, cone, p1_sol, p2_sol)
    report = mc.equivalence_check(
        mmv, mv, (np.linspace(0.0, 1.0, 101), np.linspace(0.0, 2.0, 101)))
    assert report.max_gap <= 1e-8
    assert report.value_gap <= 1e-8

    # factor-driven instance: statistical equality via independent solves
    model_c = mc.build_model(INSTANCE_C)
    y_c, p2_c, p1_c = mc.solve_markovian_many(model_c, cone, [
        (eq, mc.McSolverConfig(paths=50000, basis_degree=2, seed=seed, steps=50,
                               bootstrap=boot))
        for eq, seed, boot in (("Y", 42, 16), ("P2", 43, 16), ("P1", 44, 0))])
    mmv_c = mc.mmv_feedback(model_c, cone, y_c)
    mv_c = mc.mv_feedback(model_c, cone, p1_c, p2_c)
    sd = INSTANCE_C["coefficients"]["nu"] / math.sqrt(2.0)
    f0 = INSTANCE_C["coefficients"]["f0"]
    report_c = mc.equivalence_check(
        mmv_c, mv_c,
        (np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 11),
         np.array([f0 - sd, f0, f0 + sd])))
    elapsed = time.perf_counter() - start
    assert report_c.max_gap_ratio is not None
    assert report_c.max_gap_ratio <= 3.0
    assert report_c.value_gap <= 3.0 * report_c.value_stderr
    assert elapsed < 120.0
    _report(4, "MMV and MV portfolios coincide "
               f"(A: max gap {report.max_gap:.2e}; "
               f"C: worst gap {report_c.max_gap_ratio:.2f} stderr; {elapsed:.0f}s)")


def test_criterion_5_saddle_suite():
    start = time.perf_counter()
    model = mc.build_model(INSTANCE_A)
    cone = mc.full_space(1)
    y_sol = mc.solve_deterministic(model, cone, "Y", 1000)
    mmv = mc.mmv_feedback(model, cone, y_sol)
    saddle = mc.mmv_adversary(y_sol, cone, model)
    pi_family = [mmv, None, mmv.scaled(0.5), mmv.scaled(1.5)]
    eta_family = [saddle, mc.zero_adversary(),
                  mc.scaled_minus_phi(model, 0.5), mc.scaled_minus_phi(model, 2.0)]
    report = mc.saddle_scan(model, cone, y_sol, pi_family, eta_family,
                            paths=100000, steps=200, seed=20260808)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert abs(report.r0 - VALUE_A) < 1e-8
    cell = report.means[report.saddle_pi, report.saddle_eta]
    err = report.stderrs[report.saddle_pi, report.saddle_eta]
    assert abs(cell - report.r0) <= 3.0 * err
    assert elapsed < 120.0
    _report(5, f"saddle inequalities hold on the 4x4 family "
               f"(saddle cell {cell:.6f} vs R0 {report.r0:.6f}; {elapsed:.0f}s)")


def test_criterion_6_conservation_identity():
    model = mc.build_model(INSTANCE_A)
    cone = mc.full_space(1)
    y_sol = mc.solve_deterministic(model, cone, "Y", 1000)
    mmv = mc.mmv_feedback(model, cone, y_sol)
    saddle = mc.mmv_adversary(y_sol, cone, model)
    steps_grid = (100, 200, 400, 800)
    residuals = []
    for steps in steps_grid:
        batch = mc.simulate(model, mmv, saddle, paths=10000, steps=steps,
                            seed=99, store_paths=True)
        residuals.append(mc.conservation_residual(batch, y_sol, model))
    for a, b in zip(residuals, residuals[1:]):
        assert b < a  # decreases under step-halving
    slope, _ = np.polyfit(np.log(steps_grid), np.log(residuals), 1)
    order = -slope
    assert order >= 0.5
    _report(6, f"conservation residual decays with empirical order {order:.2f} "
               f"(residuals {['%.3g' % r for r in residuals]})")


def test_criterion_7_projection_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    trials = 10000
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        cone = random_cone(rng, m)
        p = rng.normal(size=m) * float(rng.choice([0.3, 1.0, 4.0]))
        q = rng.normal(size=m)
        proj_p = mc.project_cone(cone, p)
        proj_q = mc.project_cone(cone, q)
        assert np.linalg.norm(mc.project_cone(cone, proj_p) - proj_p) < 1e-12
        assert np.linalg.norm(proj_p - proj_q) <= np.linalg.norm(p - q) + 1e-12
        alpha = float(rng.uniform(0.0, 2.5))
        assert np.linalg.norm(mc.project_cone(cone, alpha * p) - alpha * proj_p) < 1e-10
        # Moreau orthogonality and the variational inequality
        assert abs(proj_p @ (p - proj_p)) < 1e-10
        u = sample_cone_point(rng, cone)
        assert (p - proj_p) @ (u - proj_p) <= 1e-10
    # grid-search oracle agreement, ambient dimension <= 3
    for _ in range(40):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        G = rng.normal(size=(m, k))
        p = rng.normal(size=m)
        proj = mc.project_cone(mc.generated(G), p)
        oracle = grid_search_projection(G, p, lam_max=6.0)
        assert np.linalg.norm(proj - oracle) < 2e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"projection properties hold over {trials} trials "
               f"+ 40 grid-oracle checks ({elapsed:.1f}s)")


def test_criterion_8_duality_calculus():
    solved = []
    # instance A
    model_a = mc.build_model(INSTANCE_A)
    cone_a = mc.full_space(1)
    p1_a = mc.solve_deterministic(model_a, cone_a, "P1", 1000)
    p2_a = mc.solve_deterministic(model_a, cone_a, "P2", 1000)
    solved.append((model_a, p1_a, p2_a))
    # instance B
    model_b = mc.build_model(INSTANCE_B)
    cone_b = mc.orthant(1)
    solved.append((model_b,
                   mc.solve_deterministic(model_b, cone_b, "P1", 1000),
                   mc.solve_deterministic(model_b, cone_b, "P2", 1000)))
    # constrained instance with positive drift and piecewise rate
    cfg = _copy(INSTANCE_A, rate=[{"until": 0.5, "value": 0.02},
                                  {"until": 1.0, "value": 0.04}])
    cfg["cone"] = {"kind": "orthant"}
    model_p = mc.build_model(cfg)
    solved.append((model_p,
                   mc.solve_deterministic(model_p, mc.orthant(1), "P1", 1000),
                   mc.solve_deterministic(model_p, mc.orthant(1), "P2", 1000)))

    for model, p1_sol, p2_sol in solved:
        h0_sq = model.h0 ** 2
        assert p1_sol.value0 <= h0_sq + 1e-10
        assert p2_sol.value0 <= h0_sq + 1e-10

    curve = mc.dual_curve(p1_a.value0, p2_a.value0, model_a.h0,
                          model_a.x0, model_a.theta)
    anchor = model_a.x0 * model_a.h0
    assert curve.F(anchor) == 0.0
    ks = np.linspace(anchor - 2.0, anchor + 2.0, 10000)
    objectives = []
    for k in ks:
        f = curve.F(float(k))
        assert f >= 0.0
        objectives.append(curve.objective(float(k)))
    assert max(objectives) <= curve.mv_value + 1e-10
    direct = model_a.x0 * model_a.h0 + model_a.h0 ** 2 / (model_a.theta * curve.p2_0)
    assert abs(curve.gamma_hat_of(curve.K_hat) - direct) < 1e-12
    _report(8, "duality calculus: F anchor/positivity, K_hat optimality, "
               "gamma_hat composition, P_i0 bounds")
