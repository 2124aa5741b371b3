import math
import os
import threading
import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

import mmvcone as mc
from mmvcone.bsde import (EQUATIONS, _backward_pass, _close_step, _driver_batch,
                          _prepare_driver, _sigma_side, _z_side)
from mmvcone.errors import (ConfigInvalid, InvalidBound, NoConvergence, PositivityLost,
                            RegressionIllConditioned, TimeOutOfRange)
from mmvcone.market import pricing_kernel_from
from mmvcone.rng import substream

from conftest import (INSTANCE_A, INSTANCE_C, INSTANCE_C_SIGMA1, driver_f, inf_quadratic_one,
                      random_full_rank_sigma)
from conftest import forks as _forks


def projected_gradient_qp(M, c, project, iters=30000):
    """Minimize pi' M pi - 2 pi' c over a cone by projected gradient descent.

    Independent route for checking the driver factorization: only needs the
    Euclidean cone projection, not the transformed-cone machinery.
    """
    step = 1.0 / (2.0 * np.linalg.eigvalsh(M)[-1])
    pi = np.zeros(len(c))
    for _ in range(iters):
        pi = project(pi - step * (2.0 * M @ pi - 2.0 * c))
    return float(pi @ M @ pi - 2.0 * pi @ c)


def test_driver_examples():
    sig = np.array([[0.2]])
    assert driver_f(mc.full_space(1), sig, [0.3], 1.0, [0.0]) == pytest.approx(0.09, abs=1e-12)
    assert driver_f(mc.orthant(1), sig, [-0.3], 1.0, [0.0]) == pytest.approx(0.0, abs=0)
    assert driver_f(mc.orthant(1), sig, [0.3], 2.0, [0.0]) == pytest.approx(0.18, abs=1e-12)


def test_driver_requires_positive_y():
    with pytest.raises(ValueError, match="driver evaluated at y=0.0"):
        driver_f(mc.full_space(1), np.array([[0.2]]), [0.3], 0.0, [0.0])


def test_driver_two_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 5))
        kind = rng.integers(0, 3)
        cone = (mc.full_space(m) if kind == 0 else mc.orthant(m) if kind == 1
                else mc.generated(rng.normal(size=(m, int(rng.integers(1, 4))))))
        sigma = random_full_rank_sigma(rng, m, n)
        phi = rng.normal(size=n)
        y = float(rng.uniform(0.2, 3.0))
        z = rng.normal(size=n)
        proj_form = driver_f(cone, sigma, phi, y, z)
        a = y * phi - z
        dist_form = (-(inf_quadratic_one(cone, sigma, a)) / y - (z @ z) / y)
        assert abs(proj_form - dist_form) < 1e-10


def _driver_reference(equation, cone, sigma, phi, r, y, z):
    """Per-row driver from the dist form of the quadratic infimum, and its infima."""
    f = np.empty(len(y))
    infq = np.empty(len(y))
    for i in range(len(y)):
        if equation == "Y":
            infq[i] = inf_quadratic_one(cone, sigma[i], y[i] * phi[i] - z[i])
            f[i] = -(infq[i] + z[i] @ z[i]) / y[i]
            continue
        sign = -1.0 if equation == "P1" else 1.0
        infq[i] = inf_quadratic_one(cone, sigma[i], sign * (phi[i] + z[i] / y[i]))
        f[i] = y[i] * infq[i] + (2.0 * r * y[i] if equation in ("P1", "P2") else 0.0)
    return f, infq


def test_prepared_driver_matches_one_row_reference():
    # one preparation per (cone, equation), reused at several y vectors:
    # closed form (m = 1) and per-iterate projections (m >= 2) alike
    rng = np.random.default_rng(23)
    rows, r = 16, 0.03
    cones = [mc.generated(np.array([[1.0]])), mc.generated(np.array([[-2.0]]))]
    for m in (1, 2, 3):
        gens = np.eye(m) + 0.3 * rng.normal(size=(m, m))
        cones += [mc.full_space(m), mc.orthant(m),
                  mc.generated(np.hstack([gens, gens.sum(axis=1, keepdims=True)]))]
    clip_binds = clip_free = 0
    for cone in cones:
        m = cone.dim
        n = m + 1
        for per_sample in (True, False):
            if per_sample:
                sigma = np.stack([random_full_rank_sigma(rng, m, n) for _ in range(rows)])
            else:
                sigma = random_full_rank_sigma(rng, m, n)
            sig_rows = sigma if per_sample else np.broadcast_to(sigma, (rows, m, n))
            phi = rng.normal(size=(rows, n))
            z = 0.5 * rng.normal(size=(rows, n))
            for eq in EQUATIONS:
                step = _prepare_driver(eq, cone, sigma, phi, r, z)
                for _ in range(3):
                    y = rng.uniform(0.2, 3.0, size=rows)
                    got = _driver_batch(eq, cone, sigma, phi, r, y, z, step)
                    ref, infq = _driver_reference(eq, cone, sig_rows, phi, r, y, z)
                    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
                    assert np.array_equal(got, _driver_batch(eq, cone, sigma, phi, r, y, z))
                    if m == 1 and cone.kind != "full":
                        clip_binds += int(np.count_nonzero(infq == 0.0))
                        clip_free += int(np.count_nonzero(infq < 0.0))
    assert clip_binds > 0 and clip_free > 0


def test_p_driver_factorization_against_direct_qp():
    # inf_pi [P pi'ss'pi - 2 pi'(P mu + s Delta)] == P * inf_pi [pi'ss'pi - 2 pi's(phi + Delta/P)]
    rng = np.random.default_rng(31)
    for _ in range(12):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(m, 4))
        cone = mc.orthant(m)
        sigma = random_full_rank_sigma(rng, m, n, min_sv=0.3)
        mu = rng.normal(size=m) * 0.3
        delta = rng.normal(size=n) * 0.2
        p = float(rng.uniform(0.5, 2.0))
        phi = sigma.T @ np.linalg.solve(sigma @ sigma.T, mu)
        factored = p * inf_quadratic_one(cone, sigma, phi + delta / p)
        direct = projected_gradient_qp(
            p * sigma @ sigma.T, p * mu + sigma @ delta,
            lambda v: np.maximum(v, 0.0))
        assert abs(factored - direct) < 1e-9


def test_closed_form_y_instance_a(model_a, cone_a, ysol_a):
    assert abs(ysol_a.value0 - math.exp(0.09)) < 1e-8
    assert ysol_a.y_values[-1] == 1.0
    # whole path matches exp(|phi|^2 (T - t))
    expect = np.exp(0.09 * (1.0 - ysol_a.grid))
    assert np.max(np.abs(ysol_a.y_values - expect)) < 1e-8


def test_closed_form_p2_instance_a(model_a, cone_a, p2sol_a):
    assert abs(p2sol_a.value0 - math.exp(-0.05)) < 1e-8
    assert p2sol_a.y_values[-1] == 1.0


def test_closed_forms_p_and_p1_instance_a(model_a, cone_a, p1sol_a):
    p_sol = mc.solve_deterministic(model_a, cone_a, "P", 1000)
    assert abs(p_sol.value0 - math.exp(-0.09)) < 1e-8
    assert abs(p1sol_a.value0 - math.exp(-0.05)) < 1e-8


def test_instance_b_driver_vanishes(model_b, cone_b, ysol_b):
    assert np.max(np.abs(ysol_b.y_values - 1.0)) < 1e-12


def test_instance_b_p2_equals_h_squared(model_b, cone_b):
    p2 = mc.solve_deterministic(model_b, cone_b, "P2", 1000)
    h_sq = np.array([model_b.discount(float(t)) ** 2 for t in p2.grid])
    assert np.max(np.abs(p2.y_values - h_sq)) < 1e-10


def test_uniform_positivity_envelope(model_a, cone_a):
    for eq in ("Y", "P", "P1", "P2"):
        sol = mc.solve_deterministic(model_a, cone_a, eq, 200)
        lower, upper = sol.bounds
        assert lower > 0
        assert np.min(sol.y_values) >= lower
        assert np.max(sol.y_values) <= upper


def _loop_rate_at(rate, t):
    """r(t) by a scan of the segments: the reference for PiecewiseRate.at."""
    for b, v in zip(rate.breaks, rate.values):
        if t < b:
            return v
    return rate.values[-1]


# breaks at 0.25, 0.6 and T = 1: on a node or inside a step, by grid
_THREE_RATES = [{"until": 0.25, "value": 0.01}, {"until": 0.6, "value": 0.05},
                {"until": 1.0, "value": 0.02}]


def test_positivity_envelope_matches_per_node_loop(model_a, model_c):
    # the one-call envelope keeps the per-node pairing |2 r(t)| + max_f |phi(t, f)|^2
    levels = np.linspace(0.005, 0.995, 21)
    model_r = mc.build_model({**INSTANCE_C, "rate": _THREE_RATES})
    for model, steps in ((model_a, 250), (model_c, 25), (model_r, 10)):
        grid = np.linspace(0.0, model.horizon_T, steps + 1)
        c = 0.0
        for t in grid:
            fvals = (model.coefficients.factor_quantiles(float(t), levels)
                     if model.coefficients.kind == "markov" else np.zeros(1))
            phis = mc.pricing_kernel_batch(model, float(t), fvals)
            c = max(c, abs(2.0 * _loop_rate_at(model.rate, float(t)))
                    + float(np.max(np.einsum("ij,ij->i", phis, phis))))
        assert mc.positivity_envelope(model, grid) == (math.exp(-c), math.exp(c))


def test_comparison_bounds_hold(model_a, cone_a, p1sol_a, p2sol_a, model_b, cone_b):
    h0_sq = model_a.h0 ** 2
    assert p1sol_a.value0 <= h0_sq + 1e-10
    assert p2sol_a.value0 <= h0_sq + 1e-10
    p2b = mc.solve_deterministic(model_b, cone_b, "P2", 500)
    assert p2b.value0 <= model_b.h0 ** 2 + 1e-10


@pytest.mark.parametrize("rate", [0.01744, 0.0206])
def test_comparison_bound_and_dual_curve_agree_at_h0_squared(rate):
    # at these rates h0 ** 2 and h0 * h0 differ in the last bit; the solver's
    # bound check and DualCurve both accept p_0 = h0 h0 + slack and both
    # refuse the next float
    model = mc.build_model({**INSTANCE_A, "rate": rate})
    h0 = model.h0
    assert h0 ** 2 != h0 * h0 and mc.bsde._BOUND_SLACK == mc.strategies._EQ_SLACK
    edge = h0 * h0 + mc.bsde._BOUND_SLACK
    for p0 in (edge, float(np.nextafter(edge, np.inf))):
        sol = mc.BsdeSolution(equation="P2", grid=np.linspace(0.0, 1.0, 3),
                              y_values=np.array([p0, p0, 1.0]), z_values=np.zeros((3, 1)),
                              bounds=(0.5, 2.0), n=1)
        if p0 == edge:
            mc.bsde._check_comparison_bound(model, sol)
            mc.dual_curve(p0, p0, h0, model.x0, model.theta)
            continue
        with pytest.raises(InvalidBound, match="exceeds h0"):
            mc.bsde._check_comparison_bound(model, sol)
        with pytest.raises(InvalidBound, match="outside"):
            mc.dual_curve(p0, p0, h0, model.x0, model.theta)


def test_transform_p_identity_point():
    grid = np.linspace(0.0, 1.0, 3)
    p_sol = mc.BsdeSolution(equation="P", grid=grid, y_values=np.ones(3),
                            z_values=np.zeros((3, 1)), bounds=(0.5, 2.0), n=1)
    y_sol = mc.transform_p_to_y(p_sol)
    assert np.all(y_sol.value_batch(grid, np.zeros(3)) == 1.0)
    assert np.all(y_sol.z_batch(grid, np.zeros(3)) == 0.0)
    assert y_sol.equation == "Y"


def test_transform_p_grid_arithmetic():
    grid = np.array([0.0, 1.0])
    p_sol = mc.BsdeSolution(equation="P", grid=grid, y_values=np.array([2.0, 1.0]),
                            z_values=np.array([[0.5], [0.0]]), bounds=(0.5, 3.0), n=1)
    y_sol = mc.transform_p_to_y(p_sol)
    assert y_sol.value_batch(grid, np.zeros(2)) == pytest.approx([0.5, 1.0])
    assert y_sol.z_batch(grid, np.zeros(2))[:, 0] == pytest.approx([-0.125, 0.0])


def test_transform_p_to_y_closed_form_r0(cone_a):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_A.items()}
    cfg["rate"] = 0.0
    model = mc.build_model(cfg)
    p_sol = mc.solve_deterministic(model, cone_a, "P", 1000)
    y_sol = mc.solve_deterministic(model, cone_a, "Y", 1000)
    y_from_p = mc.transform_p_to_y(p_sol)
    assert abs(p_sol.value0 - math.exp(-0.09)) < 1e-8
    assert abs(y_from_p.value0 - y_sol.value0) < 1e-8


def test_transform_p2_closed_form(model_a, cone_a, ysol_a, p2sol_a):
    y_from_p2 = mc.transform_p2_to_y(p2sol_a, model_a)
    assert abs(y_from_p2.value0 - math.exp(0.09)) < 1e-8
    rng = np.random.default_rng(3)
    for i in rng.integers(0, len(ysol_a.grid), size=10):
        t = float(ysol_a.grid[i])
        assert abs(y_from_p2.value(t) - ysol_a.value(t)) < 1e-8


def test_transform_p2_reduces_to_recip_when_r_zero(cone_a):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_A.items()}
    cfg["rate"] = 0.0
    model = mc.build_model(cfg)
    p2 = mc.solve_deterministic(model, cone_a, "P2", 400)
    via_h = mc.transform_p2_to_y(p2, model)
    via_recip = 1.0 / p2.y_values
    on_grid = via_h.value_batch(p2.grid, np.zeros(len(p2.grid)))
    assert np.max(np.abs(on_grid - via_recip)) < 1e-14


def test_transform_instance_b_gives_unit_y(model_b, cone_b):
    p2 = mc.solve_deterministic(model_b, cone_b, "P2", 500)
    y = mc.transform_p2_to_y(p2, model_b)
    assert np.max(np.abs(y.value_batch(p2.grid, np.zeros(len(p2.grid))) - 1.0)) < 1e-10


def test_transformed_deterministic_view_keeps_node_bits(model_a, cone_a, p2sol_a):
    # a transformed solution maps its base table at evaluation time; on the
    # nodes that is h * h / p and 1 / p (and their Z), bit for bit
    grid, p, zeros = p2sol_a.grid, p2sol_a.y_values, np.zeros(len(p2sol_a.grid))
    h = model_a.discount(grid)
    via_h = mc.transform_p2_to_y(p2sol_a, model_a)
    assert np.array_equal(via_h.y_values, p)
    assert np.array_equal(via_h.value_batch(grid, zeros), h * h / p)
    assert np.array_equal(via_h.z_batch(grid, zeros),
                          -(h * h / (p * p))[:, None] * p2sol_a.z_values)
    assert [via_h.value(float(t)) for t in grid[::50]] == (h * h / p)[::50].tolist()
    p_sol = mc.solve_deterministic(model_a, cone_a, "P", 200)
    q = p_sol.y_values
    recip = mc.transform_p_to_y(p_sol)
    assert np.array_equal(recip.value_batch(p_sol.grid, np.zeros(len(q))), 1.0 / q)
    assert np.array_equal(recip.z_batch(p_sol.grid, np.zeros(len(q))),
                          -p_sol.z_values / (q * q)[:, None])
    lo, up = p_sol.bounds
    assert recip.bounds == (1.0 / up, 1.0 / lo)


def test_transform_rejects_wrong_equation(ysol_a):
    with pytest.raises(ConfigInvalid):
        mc.transform_p_to_y(ysol_a)


def test_transform_rejects_nonpositive():
    grid = np.array([0.0, 1.0])
    bad = mc.BsdeSolution(equation="P", grid=grid, y_values=np.array([-0.1, 1.0]),
                          z_values=np.zeros((2, 1)), bounds=(0.1, 2.0), n=1)
    with pytest.raises(PositivityLost):
        mc.transform_p_to_y(bad)


def test_rk4_time_varying_mu_and_rate_break_inside_step(cone_a):
    # mu is linear between its nodes (which fall on RK4 step nodes); the rate
    # breaks strictly inside the step [0.400, 0.401], off its midpoint.  With
    # the full cone, Y_0 = exp(int phi^2) and P2_0 = exp(int (2 r - phi^2)).
    times = [0.0, 0.25, 0.6, 1.0]
    mus = [0.06, 0.09, 0.04, 0.07]
    cut = 0.40025
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_A.items()}
    cfg["rate"] = [{"until": cut, "value": 0.02}, {"until": 1.0, "value": 0.05}]
    cfg["coefficients"] = {"kind": "deterministic", "times": times,
                           "mu": [[mu] for mu in mus], "sigma": [[[0.2]]] * len(times)}
    model = mc.build_model(cfg)
    phis = [mu / 0.2 for mu in mus]
    # exact integral of the squared piecewise-linear phi
    int_phi_sq = sum((b - a) * (p * p + p * q + q * q) / 3.0
                     for a, b, p, q in zip(times, times[1:], phis, phis[1:]))
    int_2r = 2.0 * (0.02 * cut + 0.05 * (1.0 - cut))
    y = mc.solve_deterministic(model, cone_a, "Y", 1000)
    p2 = mc.solve_deterministic(model, cone_a, "P2", 1000)
    assert abs(y.value0 - math.exp(int_phi_sq)) < 1e-10
    assert abs(p2.value0 - math.exp(int_2r - int_phi_sq)) < 1e-10


def test_fixed_point_budget_raises(monkeypatch):
    # m >= 2 is the path that still iterates (m = 1 closes on an exact root)
    monkeypatch.setattr(mc.bsde, "_FIXED_POINT_MAX", 1)
    with pytest.raises(NoConvergence):
        mc.solve_markovian(mc.build_model(_FULL_CONE_2), mc.full_space(2), "Y",
                           mc.McSolverConfig(paths=1000, basis_degree=1, seed=3,
                                             steps=10, bootstrap=0))


@pytest.mark.parametrize("cone", [mc.full_space(1), mc.orthant(1),
                                  mc.generated(np.array([[-1.0]]))],
                         ids=["full", "orthant", "negative_ray"])
def test_closed_step_matches_picard(cone):
    # the one-asset step closes on the root of a quadratic; a Picard loop on
    # the clamped map, run to machine precision, is the reference
    rng = np.random.default_rng(29)
    rows, j, r, t = 600, 1, 0.03, 0.5
    lower, upper = 0.7, 1.4
    sigma = np.array([[0.2, 0.1]])
    phi = rng.normal(0.0, 0.5, size=(rows, 2))
    zj = rng.normal(0.0, 0.3, size=rows)
    cont = rng.uniform(0.5, 1.6, size=rows)          # some rows leave the envelope
    for eq in EQUATIONS:
        side = _sigma_side(eq, cone, sigma, phi, rows)
        s_j, _, p, clip = side
        zcol = s_j[:, j] * zj
        step, root = _z_side(eq, cone, side, r, zcol, zj * zj if eq == "Y" else None)
        for dt in (0.02, 0.04, 0.1):
            h = 0.5 * dt
            v, f, clamps = _close_step(eq, step, root, cont, h, lower, upper, t)
            y = np.clip(cont, lower, upper)
            for _ in range(200):
                y = cont + h * step(np.clip(y, lower, upper))
            inside = (y >= lower) & (y <= upper)
            assert 0 < clamps == np.count_nonzero(~inside) < rows
            assert np.max(np.abs(v - np.clip(y, lower, upper))) <= 1e-13, (eq, dt)
            assert np.max(np.abs(v - cont - h * f)[inside]) <= mc.bsde._FIXED_POINT_TOL
            assert np.array_equal(f, step(v))
            if cone.kind != "full":
                # both sides of the ray clip occur at the fixed point
                sign = -1.0 if eq == "P1" else 1.0
                c = -1.0 if eq == "Y" else 1.0
                u = p * v + sign * c * zcol / side[1]
                binds = clip(u) != u
                assert np.any(binds[inside]) and not np.all(binds[inside])


def _clipped_close(equation, step, root, cont, h, lower, upper):
    """_close_step's clip path taken for every y: (v, f(v), clamp events)."""
    if root is not None:
        y = root(cont, h)[0]
    else:
        y = np.clip(cont, lower, upper)
        for _ in range(mc.bsde._FIXED_POINT_MAX):
            prev = y
            y = cont + h * step(np.clip(prev, lower, upper))
            if float(np.max(np.abs(y - prev))) < mc.bsde._FIXED_POINT_TOL:
                break
    v = np.clip(y, lower, upper)
    return v, step(v), int(np.count_nonzero(v != y))


def _one_step(eq, cone, rows, seed):
    """(step, root, cont) of one regression step on random rows; the driving
    column is the last."""
    rng = np.random.default_rng(seed)
    sigma = (np.array([[0.2, 0.1]]) if cone.dim == 1
             else np.array([[0.2, 0.05, 0.03], [0.0, 0.25, 0.1]]))
    n = sigma.shape[1]
    phi = rng.normal(0.0, 0.5, size=(rows, n))
    zj = rng.normal(0.0, 0.3, size=rows)
    side = _sigma_side(eq, cone, sigma, phi, rows)
    if cone.dim == 1:
        zcol = side[0][:, n - 1] * zj
    else:
        zcol = np.zeros((rows, n))
        zcol[:, n - 1] = zj
    step, root = _z_side(eq, cone, side, 0.03, zcol, zj * zj if eq == "Y" else None)
    return step, root, rng.uniform(0.8, 1.2, size=rows)


@pytest.mark.parametrize("cone", [mc.full_space(1), mc.orthant(1), mc.full_space(2)],
                         ids=["full", "orthant", "full_2"])
def test_close_step_envelope_shortcut_keeps_the_bits_of_the_clip_path(cone):
    # inside a wide envelope v is y itself; rows that leave a tighter one,
    # on either side or both, clip.  Both return the bits of clipping every row
    h, t = 0.02, 0.5
    for eq in EQUATIONS:
        step, root, cont = _one_step(eq, cone, 500, 41)
        assert (root is None) == (cone.dim > 1)
        for lower, upper, clipped in ((0.5, 2.0, False), (0.9, 1.1, True),
                                      (0.5, 1.1, True), (0.9, 2.0, True)):
            v, f, n_off = _close_step(eq, step, root, cont, h, lower, upper, t)
            v_ref, f_ref, n_ref = _clipped_close(eq, step, root, cont, h, lower, upper)
            assert np.array_equal(v, v_ref) and np.array_equal(f, f_ref), (eq, lower)
            assert n_off == n_ref and (n_off > 0) == clipped, (eq, lower)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("cone", [mc.full_space(1), mc.orthant(1)], ids=["full", "orthant"])
def test_close_step_non_finite_row_raises(cone, bad):
    # a NaN or inf root fails the one envelope check, and the clip path's
    # finiteness check rejects it even where its residual is set to 0
    for eq in EQUATIONS:
        step, root, cont = _one_step(eq, cone, 200, 43)
        cont[17] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
                NoConvergence, match=rf"^{eq} trapezoid root residual .* at t=0\.5000$"):
            _close_step(eq, step, root, cont, 0.02, 0.5, 2.0, 0.5)


def test_closed_step_residual_guard_raises(model_c, monkeypatch):
    # the exact root is checked against the closing driver evaluation
    monkeypatch.setattr(mc.bsde, "_FIXED_POINT_TOL", 0.0)
    with pytest.raises(NoConvergence, match=r"^Y trapezoid root residual .* at t=0\.9000$"):
        mc.solve_markovian(model_c, mc.full_space(1), "Y",
                           mc.McSolverConfig(paths=1000, basis_degree=1, seed=3,
                                             steps=10, bootstrap=0))


def test_ill_conditioned_regression_raises(model_c, monkeypatch):
    # a duplicated basis row makes every Gram singular; the stacked
    # eigenvalue guard rejects the first step and names its time.  The rows
    # stay powers of one u (an indicator, u^2 = u), so the Hankel Gram of
    # their power sums is their Gram
    real = mc.bsde._basis_rows

    def duplicated(centred, scale, degree, out):
        basis = real(centred, scale, degree, out)
        basis[1:] = basis[1] > 0.0
        assert np.array_equal(basis[-1], basis[-2])
        return basis

    monkeypatch.setattr(mc.bsde, "_basis_rows", duplicated)
    with pytest.raises(RegressionIllConditioned, match=r"at t=0\.9000$"):
        mc.solve_markovian(model_c, mc.full_space(1), "Y",
                           mc.McSolverConfig(paths=1000, basis_degree=2, seed=3,
                                             steps=10, bootstrap=2))


def test_grid_refinement_order(model_a, cone_a):
    values = [mc.solve_deterministic(model_a, cone_a, "Y", n).value0
              for n in (10, 20, 40, 80)]
    changes = [abs(values[i + 1] - values[i]) for i in range(3)]
    # successive halvings shrink the change (order >= 1 evidence)
    for i in range(2):
        assert changes[i + 1] < changes[i] / 1.9


def test_solver_rejects_bad_inputs(model_a, cone_a, model_c):
    with pytest.raises(ConfigInvalid):
        mc.solve_deterministic(model_a, cone_a, "Q", 100)
    with pytest.raises(ConfigInvalid):
        mc.solve_deterministic(model_a, cone_a, "Y", 5)
    with pytest.raises(ConfigInvalid):
        mc.solve_deterministic(model_c, mc.full_space(1), "Y", 100)
    with pytest.raises(ConfigInvalid):
        mc.solve_markovian(model_a, cone_a, "Y",
                           mc.McSolverConfig(paths=2000, basis_degree=2, seed=1, steps=20))


def test_mc_config_validation():
    with pytest.raises(ConfigInvalid):
        mc.McSolverConfig(paths=10, basis_degree=2, seed=1, steps=20)
    with pytest.raises(ConfigInvalid):
        mc.McSolverConfig(paths=2000, basis_degree=9, seed=1, steps=20)
    with pytest.raises(ConfigInvalid):
        mc.McSolverConfig(paths=2000, basis_degree=2, seed=1, steps=5)
    for bootstrap in (-1, 1):
        with pytest.raises(ConfigInvalid, match="^solver.bootstrap: "):
            mc.McSolverConfig(paths=2000, basis_degree=2, seed=1, steps=20, bootstrap=bootstrap)
    for bootstrap in (0, 2):
        assert mc.McSolverConfig(paths=2000, basis_degree=2, seed=1, steps=20,
                                 bootstrap=bootstrap).bootstrap == bootstrap


def _frozen_factor_config():
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()}
    cfg["coefficients"]["nu"] = 0.0
    return cfg


def test_markovian_frozen_factor_matches_deterministic(cone_a):
    model = mc.build_model(_frozen_factor_config())
    sol = mc.solve_markovian(model, mc.full_space(1), "Y",
                             mc.McSolverConfig(paths=20000, basis_degree=2,
                                               seed=42, steps=50, bootstrap=0))
    det_cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()}
    det_cfg["coefficients"] = {"kind": "deterministic", "mu": [0.06],
                               "sigma": [[0.2, 0.0]]}
    det = mc.solve_deterministic(mc.build_model(det_cfg), mc.full_space(1), "Y", 1000)
    assert abs(sol.value0 - det.value0) < 5e-3
    assert sol.clamp_events == 0


def test_markovian_rate_break_keeps_second_order():
    # frozen factor, rate break on a grid node: the error against RK4 shrinks
    # by 4 per halving of dt for every equation, the rate-driven P1/P2 included
    cfg = _frozen_factor_config()
    rate = [{"until": 0.5, "value": 0.02}, {"until": 1.0, "value": 0.04}]
    cfg["rate"] = rate
    model = mc.build_model(cfg)
    det_cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()}
    det_cfg["rate"] = rate
    det_cfg["coefficients"] = {"kind": "deterministic", "mu": [0.06],
                               "sigma": [[0.2, 0.0]]}
    det = mc.build_model(det_cfg)
    cone = mc.full_space(1)
    for eq in ("Y", "P1", "P2"):
        ref = mc.solve_deterministic(det, cone, eq, 1000).value0
        errors = [abs(mc.solve_markovian(
            model, cone, eq, mc.McSolverConfig(paths=1000, basis_degree=0, seed=4,
                                               steps=steps, bootstrap=0)).value0 - ref)
            for steps in (10, 20, 40)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5, (eq, errors)


def test_step_rates_take_the_segment_value_inside_a_segment():
    # a step with no rate break inside it takes its segment's value exactly,
    # so a constant rate is one value; a step across a break its average
    step_rates = mc.bsde._step_rates
    assert set(step_rates(mc.build_model(INSTANCE_C), np.linspace(0.0, 1.0, 26)).tolist()) \
        == {0.02}
    g = np.linspace(0.0, 1.0, 11)
    for until in (0.5, 0.4137):
        model = mc.build_model({**INSTANCE_C, "rate": [{"until": until, "value": 0.02},
                                                       {"until": 1.0, "value": 0.05}]})
        r = step_rates(model, g).tolist()
        assert r[:4] == [0.02] * 4 and r[5:] == [0.05] * 5
        assert r[4] == (0.02 if until == 0.5
                        else model.rate.integral(float(g[4]), float(g[5])) / 0.1)


def test_step_rates_match_the_per_step_loop():
    # 4 and 8 steps put the break at 0.25 on a node and 0.6 inside a step, 25
    # steps the other way round, 10 steps 0.6 one ulp before the node
    # 0.6000000000000001; the last break is T on every grid
    model = mc.build_model({**INSTANCE_C, "rate": _THREE_RATES})
    rate = model.rate
    for steps in (4, 8, 10, 25):
        grid = np.linspace(0.0, 1.0, steps + 1)
        g, dt = grid.tolist(), 1.0 / steps
        want = [rate.integral(a, b) / dt if any(a < c < b for c in rate.breaks)
                else _loop_rate_at(rate, a) for a, b in zip(g[:-1], g[1:])]
        assert mc.bsde._step_rates(model, grid).tolist() == want
        assert rate.at(grid).tolist() == [_loop_rate_at(rate, t) for t in g]


def test_markovian_degree_zero_frozen_factor():
    model = mc.build_model(_frozen_factor_config())
    sol = mc.solve_markovian(model, mc.full_space(1), "Y",
                             mc.McSolverConfig(paths=5000, basis_degree=0,
                                               seed=9, steps=20, bootstrap=0))
    det_cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_C.items()}
    det_cfg["coefficients"] = {"kind": "deterministic", "mu": [0.06],
                               "sigma": [[0.2, 0.0]]}
    det = mc.solve_deterministic(mc.build_model(det_cfg), mc.full_space(1), "Y", 1000)
    assert abs(sol.value0 - det.value0) < 5e-3


def test_markovian_instance_c_basic(model_c):
    cone = mc.full_space(1)
    sol = mc.solve_markovian(model_c, cone, "Y",
                             mc.McSolverConfig(paths=10000, basis_degree=2,
                                               seed=5, steps=25, bootstrap=6))
    assert math.isfinite(sol.value0)
    assert sol.value0 > 0
    assert sol.value0_stderr is not None and sol.value0_stderr > 0
    assert sol.y_values[-1, 0] == 1.0  # terminal condition
    # factor dependence: value varies with the factor state
    v_lo = sol.value(0.5, 0.02)
    v_hi = sol.value(0.5, 0.10)
    assert v_hi > v_lo  # larger excess return, larger Y


def test_markovian_reproducible(model_c):
    cone = mc.full_space(1)
    cfg = mc.McSolverConfig(paths=2000, basis_degree=1, seed=321, steps=12, bootstrap=2)
    a = mc.solve_markovian(model_c, cone, "Y", cfg)
    b = mc.solve_markovian(model_c, cone, "Y", cfg)
    assert np.array_equal(a.y_values, b.y_values)
    assert np.array_equal(a.z_values, b.z_values)


def test_markovian_cross_identity_within_stderr(model_c):
    # Y and h^2/P2 from independent path ensembles agree statistically
    cone = mc.full_space(1)
    y = mc.solve_markovian(model_c, cone, "Y",
                           mc.McSolverConfig(paths=20000, basis_degree=2,
                                             seed=71, steps=25, bootstrap=8))
    p2 = mc.solve_markovian(model_c, cone, "P2",
                            mc.McSolverConfig(paths=20000, basis_degree=2,
                                              seed=72, steps=25, bootstrap=8))
    y_from_p2 = mc.transform_p2_to_y(p2, model_c)
    rng = np.random.default_rng(2)
    probes = [(0.0, model_c.coefficients.f0)] + [
        (float(y.grid[i]), float(rng.normal(0.06, 0.02)))
        for i in rng.integers(1, len(y.grid), size=10)]
    for t, f in probes:
        direct = np.array([mmv_rep.value(t, f) for mmv_rep in
                           (y.replicate(b) for b in range(8))])
        via = np.array([y_from_p2.replicate(b).value(t, f) for b in range(8)])
        se = math.hypot(float(np.std(direct, ddof=1)), float(np.std(via, ddof=1)))
        assert abs(y.value(t, f) - y_from_p2.value(t, f)) <= 3.0 * se


def test_markovian_transforms_pointwise(model_c):
    cone = mc.full_space(1)
    cfg = mc.McSolverConfig(paths=4000, basis_degree=2, seed=15, steps=15, bootstrap=3)
    p2 = mc.solve_markovian(model_c, cone, "P2", cfg)
    y = mc.transform_p2_to_y(p2, model_c)
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = float(rng.uniform(0.0, 1.0))
        f = float(rng.normal(0.06, 0.03))
        h_t = model_c.discount(t)
        assert y.value(t, f) == pytest.approx(h_t ** 2 / p2.value(t, f), rel=1e-12)
        expect_z = -(h_t ** 2 / p2.value(t, f) ** 2) * p2.z_batch(t, np.array([f]))[0]
        assert y.z_batch(t, np.array([f]))[0] == pytest.approx(expect_z, rel=1e-12)
    # replicate views transform consistently
    assert y.value0_stderr is not None and y.value0_stderr > 0
    rep = y.replicate(0)
    assert rep.value(0.3, 0.06) == pytest.approx(
        model_c.discount(0.3) ** 2 / p2.replicate(0).value(0.3, 0.06), rel=1e-12)


def test_deterministic_z_identically_zero(ysol_a):
    assert np.all(ysol_a.z_values == 0.0)


def test_solution_evaluation_interpolates(ysol_a):
    t = 0.12345
    lo = ysol_a.value(0.123)
    hi = ysol_a.value(0.124)
    assert min(lo, hi) <= ysol_a.value(t) <= max(lo, hi)


# Bootstrap cases: (model config, cone, equation, solver settings).  The
# one-asset orthant has a negative mean excess return on part of the factor
# range, so the driver's clip binds; the two-asset full cone is the
# test_markov_full_cone_frozen_factor_matches_rk4 model with a moving factor
# (the m >= 2 branch); the sigma1 model gathers per-row sigma-side columns.
_ORTHANT_CLIP = {**INSTANCE_C, "coefficients": {
    **INSTANCE_C["coefficients"], "mu0": [-0.06], "nu": 0.05}}
_FULL_CONE_2 = {
    "m": 2, "n": 3, "T": 1.0, "x0": 1.0, "theta": 2.0, "delta": 1e-6,
    "rate": [{"until": 0.5, "value": 0.02}, {"until": 1.0, "value": 0.04}],
    "coefficients": {"kind": "markov", "kappa": 1.0, "mean": 0.06, "nu": 0.1,
                     "f0": 0.06, "mu0": [0.0, 0.0], "mu1": [1.0, -0.5],
                     "sigma0": [[0.2, 0.05, 0.03], [0.0, 0.25, 0.1]],
                     "driving_index": 2}}
_BOOTSTRAP_CASES = [
    ("C", INSTANCE_C, mc.full_space(1), "Y", (3000, 2, 12, 3)),
    ("C", INSTANCE_C, mc.full_space(1), "P1", (3000, 2, 12, 3)),
    ("orthant_clip", _ORTHANT_CLIP, mc.orthant(1), "Y", (3000, 2, 12, 3)),
    ("orthant_clip", _ORTHANT_CLIP, mc.orthant(1), "P1", (3000, 2, 12, 3)),
    ("sigma1", INSTANCE_C_SIGMA1, mc.full_space(1), "Y", (3000, 2, 12, 3)),
    ("sigma1", INSTANCE_C_SIGMA1, mc.full_space(1), "P2", (3000, 2, 12, 3)),
    ("full_cone_2", _FULL_CONE_2, mc.full_space(2), "Y", (1000, 1, 10, 2)),
]


def _solve_capturing_pass(model, cone, equation, cfg, monkeypatch):
    """solve_markovian walked in this process, plus the arguments of its one
    _backward_pass call."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _backward_pass(*args)

    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    monkeypatch.setattr(mc.bsde, "_backward_pass", spy)
    sol = mc.solve_markovian(model, cone, equation, cfg)
    assert len(calls) == 1
    return sol, calls[0]


def _separate_pass(args, idx):
    """The one-sample pass over explicitly gathered paths F[idx], dWj[idx]."""
    F, dWj = args[5], args[6]
    (result,) = _backward_pass(*args[:5], F[idx], dWj[idx], *args[7:9])
    return result


@pytest.mark.parametrize("name, config, cone, equation, sizes", _BOOTSTRAP_CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in _BOOTSTRAP_CASES])
def test_lockstep_bootstrap_matches_separate_passes(name, config, cone, equation, sizes,
                                                    monkeypatch):
    paths, degree, steps, boot = sizes
    model = mc.build_model(config)
    cfg = mc.McSolverConfig(paths=paths, basis_degree=degree, seed=17, steps=steps,
                            bootstrap=boot)
    sol, args = _solve_capturing_pass(model, cone, equation, cfg, monkeypatch)

    # the main sample does not see the resamples walking beside it
    alone = mc.solve_markovian(model, cone, equation,
                               dc_replace(cfg, bootstrap=0))
    for field in ("y_values", "z_values", "basis_loc", "basis_scale"):
        assert np.array_equal(getattr(sol, field), getattr(alone, field)), field
    assert sol.clamp_events == alone.clamp_events
    assert alone.replicates is None and alone.replicate_clamp_events is None

    # each replicate is a one-sample pass over its explicitly gathered paths
    F, samples = args[5], args[9]
    assert F.shape == (paths, steps + 1) and samples[0] is None
    assert len(samples) == boot + 1 and len(sol.replicate_clamp_events) == boot
    for b, idx in enumerate(samples[1:]):
        y_tab, z_tab, _, _, clamps = _separate_pass(args, idx)
        assert np.array_equal(sol.replicates[b][0], y_tab)
        assert np.array_equal(sol.replicates[b][1], z_tab)
        assert clamps == sol.replicate_clamp_events[b]

    if name == "orthant_clip":
        mu = model.coefficients.mu_batch(0.5, F[:, steps // 2])[:, 0]
        assert 0.2 < np.mean(mu < 0.0) < 0.8   # both sides of the clip occur


def _assert_same_walks(a, b):
    """Two solutions of one solve carry the same bits in every table."""
    for field in ("y_values", "z_values", "basis_loc", "basis_scale"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.clamp_events == b.clamp_events
    assert a.replicate_clamp_events == b.replicate_clamp_events
    assert (a.replicates is None) == (b.replicates is None)
    assert len(a.replicates or ()) == len(b.replicates or ())
    for rep_a, rep_b in zip(a.replicates or (), b.replicates or ()):
        for tab_a, tab_b in zip(rep_a, rep_b):
            assert np.array_equal(tab_a, tab_b)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _walk_sizes(monkeypatch):
    """Sample counts of the _backward_pass calls made in this process."""
    sizes = []

    def spy(*args):
        sizes.append(len(args[9]))
        return _backward_pass(*args)

    monkeypatch.setattr(mc.bsde, "_backward_pass", spy)
    return sizes


@_forks
@pytest.mark.parametrize("name, config, cone, equation, sizes", _BOOTSTRAP_CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in _BOOTSTRAP_CASES])
def test_forked_walk_matches_one_process_walk(name, config, cone, equation, sizes,
                                              monkeypatch):
    # the resamples past the first group walk in a forked child; every table,
    # clamp count and replicate is the bits of the one-process walk
    paths, degree, steps, boot = sizes
    model = mc.build_model(config)
    cfg = mc.McSolverConfig(paths=paths, basis_degree=degree, seed=17, steps=steps,
                            bootstrap=boot)
    walked = _walk_sizes(monkeypatch)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    split = mc.solve_markovian(model, cone, equation, cfg)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    one = mc.solve_markovian(model, cone, equation, cfg)
    assert walked == [(boot + 2) // 2, boot + 1]
    _assert_same_walks(split, one)
    _assert_no_child_left()


@_forks
def test_forked_walk_holds_only_the_main_sample_to_the_clamp_budget(model_c, monkeypatch):
    # the first sample of the child's group clamps more often than a budget
    # the main sample keeps; only the main sample is held to it
    monkeypatch.setattr(mc.bsde, "positivity_envelope", lambda model, grid: (0.5, 1.05))
    monkeypatch.setattr(mc.bsde, "_CLAMP_BUDGET", 1.0)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    cfg = mc.McSolverConfig(paths=2000, basis_degree=1, seed=1, steps=10, bootstrap=3)
    one = mc.solve_markovian(model_c, mc.full_space(1), "Y", cfg)
    assert one.replicate_clamp_events[1] > one.clamp_events
    monkeypatch.setattr(mc.bsde, "_CLAMP_BUDGET", (one.clamp_events + 0.5) / (2000 * 10))
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    _assert_same_walks(mc.solve_markovian(model_c, mc.full_space(1), "Y", cfg), one)
    _assert_no_child_left()


def _raise_in_child(monkeypatch, name, error):
    """Make the stage name raise error in forked walk children only."""
    parent, real = os.getpid(), getattr(mc.bsde, name)

    def stage(*args):
        if os.getpid() != parent:
            raise error(f"{name} failed in the child")
        return real(*args)

    monkeypatch.setattr(mc.bsde, name, stage)


@_forks
@pytest.mark.parametrize("stage, error", [("_close_step", NoConvergence),
                                          ("_gram_groups", RegressionIllConditioned)])
def test_child_walk_error_reaches_caller(model_c, monkeypatch, stage, error):
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    _raise_in_child(monkeypatch, stage, error)
    with pytest.raises(error, match=f"^{stage} failed in the child$"):
        mc.solve_markovian(model_c, mc.full_space(1), "Y",
                           mc.McSolverConfig(paths=1000, basis_degree=1, seed=3,
                                             steps=10, bootstrap=3))
    _assert_no_child_left()


@_forks
def test_parent_walk_error_wins_and_reaps_children(model_c, monkeypatch):
    # the main sample overruns its clamp budget in this process while a
    # child fails too: the parent's PositivityLost reaches the caller
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    monkeypatch.setattr(mc.bsde, "_CLAMP_BUDGET", -1.0)
    _raise_in_child(monkeypatch, "_close_step", NoConvergence)
    with pytest.raises(PositivityLost):
        mc.solve_markovian(model_c, mc.full_space(1), "Y",
                           mc.McSolverConfig(paths=1000, basis_degree=1, seed=3,
                                             steps=10, bootstrap=3))
    _assert_no_child_left()


@_forks
@pytest.mark.parametrize("fallback", ["one_cpu", "second_thread", "fork_fails"])
def test_walk_falls_back_to_one_process(model_c, monkeypatch, fallback):
    cfg = mc.McSolverConfig(paths=2000, basis_degree=2, seed=17, steps=10, bootstrap=3)
    cone = mc.full_space(1)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    one = mc.solve_markovian(model_c, cone, "P2", cfg)
    walked = _walk_sizes(monkeypatch)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1 if fallback == "one_cpu" else 2)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        if fallback == "fork_fails":
            raise OSError("no fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if fallback == "second_thread":
        thread.start()
    try:
        sol = mc.solve_markovian(model_c, cone, "P2", cfg)
    finally:
        release.set()
        if fallback == "second_thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == (1 if fallback == "fork_fails" else 0)
    assert walked == [4]
    _assert_same_walks(sol, one)
    _assert_no_child_left()


# solve_markovian_many: (model config, cone, [(equation, bootstrap)]); the
# C jobs include bootstrap-0 jobs, fewer samples than CPUs among them, and
# the solves of the equivalence experiment (Y, P2, P1 with B = 8, 0); the
# 2-asset full cone takes the m >= 2 branch
_MANY_CASES = [
    ("C", INSTANCE_C, mc.full_space(1), [("Y", 3), ("P2", 3), ("P1", 0)], (2000, 2, 10)),
    ("C_two_samples", INSTANCE_C, mc.full_space(1), [("P1", 0), ("Y", 0)], (1000, 2, 10)),
    ("C_workload", INSTANCE_C, mc.full_space(1), [("Y", 8), ("P2", 8), ("P1", 0)],
     (2000, 2, 25)),
    ("full_cone_2", _FULL_CONE_2, mc.full_space(2), [("Y", 2), ("P2", 2)], (1000, 1, 10)),
]


def _many_jobs(jobs, sizes, seed=31):
    paths, degree, steps = sizes
    return [(eq, mc.McSolverConfig(paths=paths, basis_degree=degree, seed=seed + k,
                                   steps=steps, bootstrap=boot))
            for k, (eq, boot) in enumerate(jobs)]


@_forks
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name, config, cone, jobs, sizes", _MANY_CASES,
                         ids=[c[0] for c in _MANY_CASES])
def test_many_matches_separate_solves(name, config, cone, jobs, sizes, cpus, monkeypatch):
    # one call walks every job's samples in one split; each solution is the
    # bits of its own solve_markovian call, and os.fork runs once per group
    model = mc.build_model(config)
    jobs = _many_jobs(jobs, sizes)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    separate = [mc.solve_markovian(model, cone, eq, cfg) for eq, cfg in jobs]
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: cpus)
    many = mc.solve_markovian_many(model, cone, jobs)
    items = sum(cfg.bootstrap + 1 for _, cfg in jobs)
    assert len(forks) == min(cpus, items) - 1
    assert [sol.equation for sol in many] == [eq for eq, _ in jobs]
    for a, b, (_, cfg) in zip(many, separate, jobs):
        _assert_same_walks(a, b)
        assert a.seed == b.seed == cfg.seed and a.bounds == b.bounds
        assert a.path_steps == b.path_steps and np.array_equal(a.grid, b.grid)
    _assert_no_child_left()


def test_many_of_no_jobs_is_empty(model_c):
    assert mc.solve_markovian_many(model_c, mc.full_space(1), []) == []


@pytest.mark.parametrize("steps", [(10, 10, 10), (10, 12, 10)], ids=["one_grid", "two_grids"])
def test_many_evaluates_one_envelope_per_grid(model_c, monkeypatch, steps):
    # the positivity envelope is evaluated once per step count, and each
    # solution is the bits of its own solve_markovian call
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    jobs = _many_jobs([("Y", 2), ("P2", 2), ("P1", 0)], (1000, 1, 10))
    jobs = [(eq, dc_replace(cfg, steps=n)) for (eq, cfg), n in zip(jobs, steps)]
    separate = [mc.solve_markovian(model_c, mc.full_space(1), eq, cfg) for eq, cfg in jobs]
    grids, real = [], mc.bsde.positivity_envelope

    def envelope(model, grid):
        grids.append(len(grid) - 1)
        return real(model, grid)

    monkeypatch.setattr(mc.bsde, "positivity_envelope", envelope)
    many = mc.solve_markovian_many(model_c, mc.full_space(1), jobs)
    assert grids == list(dict.fromkeys(steps))
    for a, b in zip(many, separate):
        _assert_same_walks(a, b)
        assert a.bounds == b.bounds and np.array_equal(a.grid, b.grid)


def test_forward_draws_each_block_from_its_substream(model_c, monkeypatch):
    # 2000 paths in blocks of 700: block b's increments are substream(seed, b)
    # normals times sqrt(dt), and F follows the Euler recursion on them
    monkeypatch.setattr(mc.bsde, "_DRAW_BLOCK", 700)
    cfg = mc.McSolverConfig(paths=2000, basis_degree=1, seed=5, steps=10, bootstrap=0)
    F, dWj, samples = mc.bsde._forward(model_c, cfg, 0)
    assert samples == [None] and F.shape == (11, 2000) and dWj.shape == (10, 2000)
    dt = model_c.horizon_T / cfg.steps
    for b, (start, stop) in enumerate([(0, 700), (700, 1400), (1400, 2000)]):
        d = substream(cfg.seed, b).standard_normal((stop - start, cfg.steps)) * math.sqrt(dt)
        assert np.array_equal(dWj[:, start:stop], d.T)
    one = substream(cfg.seed, 0).standard_normal((2000, cfg.steps)) * math.sqrt(dt)
    assert not np.array_equal(dWj[:, 700:], one[700:].T)
    cf = model_c.coefficients
    f = np.full(2000, cf.f0)
    assert np.array_equal(F[0], f)
    for i in range(cfg.steps):
        f = f + cf.kappa * (cf.mean_level - f) * dt + cf.nu * dWj[i]
        assert np.array_equal(F[i + 1], f)


@_forks
def test_many_draws_each_job_where_it_walks(model_c, monkeypatch):
    # on 2 CPUs the 19 samples of Y (9), P2 (9) and P1 (1) split 10 / 9: this
    # process walks Y's 9 samples and P2's main sample, drawing Y and P2 only
    jobs = _many_jobs([("Y", 8), ("P2", 8), ("P1", 0)], (1000, 1, 10))
    drawn, real = [], mc.bsde._forward

    def forward(model, cfg, last):
        drawn.append((cfg.seed, last))
        return real(model, cfg, last)

    monkeypatch.setattr(mc.bsde, "_forward", forward)
    walked = _walk_sizes(monkeypatch)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    mc.solve_markovian_many(model_c, mc.full_space(1), jobs)
    assert drawn == [(31, 8), (32, 0)]
    assert walked == [9, 1]


def _fail_walks(monkeypatch, where, child_delay=0.0):
    """Make _backward_pass raise NoConvergence for each (equation, in a child)
    pair in where, naming both; a child fails only after child_delay seconds."""
    parent = os.getpid()

    def walk(*args):
        place = "child" if os.getpid() != parent else "parent"
        if (args[2], place == "child") in where:
            if place == "child":
                time.sleep(child_delay)
            raise NoConvergence(f"{args[2]} failed in the {place}")
        return _backward_pass(*args)

    monkeypatch.setattr(mc.bsde, "_backward_pass", walk)


@_forks
@pytest.mark.parametrize("jobs, cpus, where, expect", [
    # job 0 fails in this process: the children are killed and reaped
    ([("Y", 3), ("P2", 3)], 2, {("Y", False), ("P2", True)}, "Y failed in the parent"),
    # job 0 walks here and job 1 in one child, job 2 in another: both children
    # fail, and job 1's error comes first whatever the order of the replies
    ([("Y", 2), ("P2", 2), ("P1", 2)], 3, {("P2", True), ("P1", True)},
     "P2 failed in the child"),
    # job 1 starts here and fails in a child too: the group with its main
    # sample wins
    ([("Y", 2), ("P2", 3)], 2, {("P2", False), ("P2", True)}, "P2 failed in the parent"),
], ids=["parent_job_0", "earlier_child_job", "main_sample_group"])
def test_many_raises_the_first_sequential_error(model_c, monkeypatch, jobs, cpus, where,
                                                expect):
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: cpus)
    _fail_walks(monkeypatch, where)
    with pytest.raises(NoConvergence, match=f"^{expect}$"):
        mc.solve_markovian_many(model_c, mc.full_space(1), _many_jobs(jobs, (1000, 1, 10)))
    _assert_no_child_left()


@_forks
@pytest.mark.parametrize("jobs, where, expect", [
    # this process walks job 0's first group and job 1's (the third), a child
    # job 0's second group: job 0's error in the child is raised, not job 1's
    # here, and that child, still walking, is not killed before it replies
    ([("Y", 5), ("P2", 2)], {("Y", True), ("P2", False)}, "Y failed in the child"),
    # job 0 fills all three groups and fails here and in the child: this
    # process holds its main sample, so its error wins
    ([("Y", 5)], {("Y", True), ("Y", False)}, "Y failed in the parent"),
], ids=["child_job_0_beats_parent_job_1", "main_sample_group_walks_here"])
def test_many_with_a_failed_fork_raises_the_first_sequential_error(model_c, monkeypatch,
                                                                   jobs, where, expect):
    # on 3 CPUs the second fork fails, and its group walks in this process
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 3)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise OSError("no fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    _fail_walks(monkeypatch, where, child_delay=0.5)
    with pytest.raises(NoConvergence, match=f"^{expect}$"):
        mc.solve_markovian_many(model_c, mc.full_space(1), _many_jobs(jobs, (1000, 1, 10)))
    assert len(forks) == 2
    _assert_no_child_left()


@_forks
def test_many_checks_each_bound_before_a_later_walk_error(model_c, monkeypatch):
    # job 0 (P2, walked here) breaks its comparison bound, job 1 (Y) fails in
    # the child: solved in order, the bound is raised first
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    monkeypatch.setattr(mc.bsde, "_BOUND_SLACK", -10.0)
    _fail_walks(monkeypatch, {("Y", True)})
    with pytest.raises(InvalidBound, match="^P2 initial value"):
        mc.solve_markovian_many(model_c, mc.full_space(1),
                                _many_jobs([("P2", 2), ("Y", 2)], (1000, 1, 10)))
    _assert_no_child_left()


@_forks
@pytest.mark.parametrize("fallback", ["second_thread", "fork_fails"])
def test_many_falls_back_to_one_process(model_c, monkeypatch, fallback):
    jobs = _many_jobs([("Y", 2), ("P1", 0)], (2000, 2, 10))
    cone = mc.full_space(1)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 1)
    one = mc.solve_markovian_many(model_c, cone, jobs)
    walked = _walk_sizes(monkeypatch)
    monkeypatch.setattr(mc.forksplit, "cpus", lambda: 2)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        if fallback == "fork_fails":
            raise OSError("no fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if fallback == "second_thread":
        thread.start()
    try:
        many = mc.solve_markovian_many(model_c, cone, jobs)
    finally:
        release.set()
        if fallback == "second_thread":
            thread.join(timeout=10)
    assert len(forks) == (1 if fallback == "fork_fails" else 0)
    assert walked == [3, 1]
    for a, b in zip(many, one):
        _assert_same_walks(a, b)
    _assert_no_child_left()


def test_sample_step_keeps_the_bits_of_numpy_reference_forms(model_c, monkeypatch):
    # each sample's loc and scale are np.mean and np.std of its factor column,
    # and its basis the Vandermonde matrix of the normalized column
    cfg = mc.McSolverConfig(paths=3000, basis_degree=3, seed=17, steps=12, bootstrap=2)
    sol, args = _solve_capturing_pass(model_c, mc.full_space(1), "Y", cfg, monkeypatch)
    Ft = args[5].T        # time-major, each step's column contiguous

    def scale(fv):        # at t = 0 every row sits at f0: no spread, scale 1
        sd = np.std(fv)
        return sd if sd >= 1e-12 else 1.0

    for i in range(cfg.steps):
        assert sol.basis_loc[i] == np.mean(Ft[i])
        assert sol.basis_scale[i] == scale(Ft[i])
        for b, idx in enumerate(args[9][1:]):
            assert sol.replicates[b][2][i] == np.mean(Ft[i][idx])
            assert sol.replicates[b][3][i] == scale(Ft[i][idx])
    assert sol.basis_scale[0] == 1.0
    fv = Ft[5]
    loc, sd = np.mean(fv), np.std(fv)
    basis = mc.bsde._basis_rows(fv - loc, sd, 3, np.ones((4, len(fv))))
    assert np.array_equal(basis, np.vander((fv - loc) / sd, 4, increasing=True).T)


@pytest.mark.parametrize("degree", range(7))
def test_hankel_gram_matches_the_basis_product(degree):
    # the Gram from 2 degree + 1 power sums is b.T @ b of the old (paths, w)
    # basis up to summation order; a spread below 1e-12 leaves [[paths]]
    rng = np.random.default_rng(degree)
    for fv in (rng.normal(0.06, 0.03, size=5000), np.full(5000, 0.06)):
        sd = np.std(fv)
        rows = mc.bsde._basis_rows(fv - np.mean(fv), sd, degree,
                                   np.ones((degree + 1, len(fv))))
        assert len(rows) == (degree + 1 if sd >= 1e-12 else 1)
        b = rows.T
        ref = b.T @ b
        gram = mc.bsde._hankel_gram(rows)
        assert gram.shape == ref.shape
        assert np.max(np.abs(gram - ref)) <= 1e-12 * np.max(np.abs(ref)), degree


_ONE_ASSET_CONES = {"full": mc.full_space(1), "orthant": mc.orthant(1),
                    "two_sided_ray": mc.generated(np.array([[1.0, -1.0]]))}


@pytest.mark.parametrize("cone, per_row", [
    (cone, per_row) for per_row in (False, True) for cone in _ONE_ASSET_CONES.values()
], ids=[name + suffix for suffix in ("", "_per_row_sigma") for name in _ONE_ASSET_CONES])
def test_one_asset_step_keeps_the_bits_of_its_reference_form(cone, per_row):
    # a shared |s|^2 is one float and the root is taken in place; driver and
    # root are the bits of the per-row |s|^2 and of the quadratic formula
    rng = np.random.default_rng(7)
    rows, r_t, h = 800, 0.03, 0.02
    sigma = (np.array([[0.2, 0.1]]) if not per_row
             else rng.uniform(0.1, 0.3, size=(rows, 1, 2)))
    phi = rng.normal(0.0, 0.5, size=(rows, 2))
    zj = rng.normal(0.0, 0.3, size=rows)
    cont = rng.uniform(0.6, 1.5, size=rows)
    y = rng.uniform(0.7, 1.4, size=rows)
    for eq in EQUATIONS:
        shared = _sigma_side(eq, cone, sigma, phi, rows)
        assert (shared[1].strides[0] == 0) != per_row
        per_row_side = (shared[0], np.array(shared[1]), *shared[2:])
        zcol = shared[0][:, 1] * zj
        zz = zj * zj if eq == "Y" else None
        f_s, root_s = _z_side(eq, cone, shared, r_t, zcol, zz)
        f_r, root_r = _z_side(eq, cone, per_row_side, r_t, zcol, zz)
        assert np.array_equal(f_s(y), f_r(y))
        assert np.array_equal(root_s(cont, h)[0], root_r(cont, h)[0])

        # the driver and the quadratic formula as written out, with per-row |s|^2
        _, ss, p, clip = per_row_side
        sign = -1.0 if eq == "P1" else 1.0
        c = -1.0 if eq == "Y" else 1.0
        w = sign * c * zcol / ss
        rho = 2.0 * r_t if eq in ("P1", "P2") else 0.0
        zeta = zz if eq == "Y" else 0.0
        k = clip(p + w / y)
        q = ss * k * k
        if eq == "Y":
            driver = y * q - zz / y
        elif eq == "P":
            driver = -y * q
        else:
            driver = 2.0 * r_t * y - y * q
        assert np.array_equal(f_s(y), driver)

        def quadratic(e):
            hep = h * e * p
            a = (1.0 - h * rho) - hep * p
            b = cont + 2.0 * hep * w
            return (b + np.sqrt(b * b + 4.0 * h * a * (e * w * w - zeta))) / (2.0 * a)

        e = (1.0 if eq == "Y" else -1.0) * ss
        ref = quadratic(e)
        u = p * ref + w
        assert (clip is mc.cones.two_sided) == (cone.kind != "orthant")
        assert np.any(clip(u) != u) == (cone.kind == "orthant")
        ref = quadratic(np.where(clip(u) != u, 0.0, e))
        assert np.array_equal(root_s(cont, h)[0], ref)


@pytest.mark.parametrize("cone", list(_ONE_ASSET_CONES.values()), ids=list(_ONE_ASSET_CONES))
def test_one_asset_root_returns_its_minimum(cone):
    # _close_step's envelope check reads the min y the root returns, so a
    # line's NaN gate and the envelope check share one reduction
    for eq in EQUATIONS:
        step, root, cont = _one_step(eq, cone, 300, 47)
        y, lo = root(cont, 0.02)
        assert lo == float(np.min(y))
        cont[5] = np.nan
        with np.errstate(invalid="ignore"):
            y, lo = root(cont, 0.02)
        assert math.isnan(lo) and np.isnan(y[5])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pricing_kernel_of_a_shared_sigma_keeps_its_bits(n):
    # a zero-stride sigma takes |s|^2 from one row: the bits of every row's,
    # and both are the bits of the broadcast product (mu / |s|^2) s
    rng = np.random.default_rng(n)
    sig = np.broadcast_to(rng.normal(size=(1, 1, n)), (500, 1, n))
    mu = rng.normal(size=(500, 1))
    s = sig[:, 0, :]
    ref = (mu[:, 0] / np.einsum("ij,ij->i", s, s))[:, None] * s
    assert np.array_equal(pricing_kernel_from(sig, mu), ref)
    assert np.array_equal(pricing_kernel_from(np.ascontiguousarray(sig), mu), ref)


@pytest.mark.parametrize("n", [1, 2])
def test_sigma_side_sums_s_phi_with_the_bits_of_einsum(n):
    # s'phi is summed a column at a time, einsum's order for n <= 2
    rng = np.random.default_rng(n)
    rows = 700
    for sigma in (rng.normal(size=(1, n)), rng.normal(size=(rows, 1, n))):
        phi = rng.normal(size=(rows, n))
        for eq in EQUATIONS:
            s, ss, p, _ = _sigma_side(eq, mc.full_space(1), sigma, phi, rows)
            sign = -1.0 if eq == "P1" else 1.0
            assert np.array_equal(p, sign * np.einsum("ij,ij->i", s, phi) / ss), eq


@pytest.mark.parametrize("lower", [0.5, 0.05])
@pytest.mark.parametrize("eq", ["Y", "P2"])
def test_line_root_without_a_real_root_is_taken_as_every_clip_test_takes_it(eq, lower):
    # on a line the clip test runs only for a root with a NaN row; that row
    # is taken with |s|^2 = 0 exactly as an identity clip tested on every
    # root takes it: the same (v, f, clamp events) or the same NoConvergence
    rng = np.random.default_rng(5)
    rows, j, t = 50, 1, 0.5
    phi = rng.normal(0.0, 0.5, size=(rows, 2))
    zj = rng.normal(0.0, 0.3, size=rows)
    cont = rng.uniform(0.8, 1.2, size=rows)
    zj[7], cont[7] = 40.0, 0.3          # the discriminant of row 7 is negative
    side = _sigma_side(eq, mc.full_space(1), np.array([[0.2, 0.1]]), phi, rows)
    assert side[3] is mc.cones.two_sided
    outcomes = []
    for clip in (side[3], lambda k: k):
        step, root = _z_side(eq, mc.full_space(1), (*side[:3], clip), 0.03,
                             side[0][:, j] * zj, zj * zj if eq == "Y" else None)
        with np.errstate(invalid="ignore"):
            assert np.isnan(root(cont, 0.02)[0][7]) == (eq == "Y")
            try:
                outcomes.append(_close_step(eq, step, root, cont, 0.02, lower, 2.0, t))
            except NoConvergence as exc:
                outcomes.append(str(exc))
    gated, tested = outcomes
    if isinstance(tested, str):
        assert gated == tested
    else:
        assert np.array_equal(gated[0], tested[0]) and np.array_equal(gated[1], tested[1])
        assert gated[2] == tested[2]
    # P2's row 7 has a real root once |s|^2 = 0: below a 0.5 envelope it
    # clamps; inside a 0.05 one its residual fails.  Y's stays NaN.
    clamps = eq == "P2" and lower == 0.5
    assert isinstance(tested, str) != clamps
    if clamps:
        assert tested[2] == 1 and tested[0][7] == 0.5


def test_mixed_basis_widths_stack_by_width(model_c, monkeypatch):
    # samples whose basis falls back to the constant column solve in their
    # own width group beside full-width ones, with the bits of a lone pass
    real = mc.bsde._basis_rows
    widths = []

    def some_constant(centred, scale, degree, out):
        basis = real(centred, 0.0 if centred[0] > centred[1] else scale, degree, out)
        widths.append(len(basis))
        return basis

    monkeypatch.setattr(mc.bsde, "_basis_rows", some_constant)
    cfg = mc.McSolverConfig(paths=2000, basis_degree=2, seed=17, steps=10, bootstrap=3)
    sol, args = _solve_capturing_pass(model_c, mc.full_space(1), "Y", cfg, monkeypatch)
    assert any(len(set(widths[k:k + 4])) == 2 for k in range(0, 40, 4))
    for b, idx in enumerate(args[9][1:]):
        y_tab, z_tab, _, _, _ = _separate_pass(args, idx)
        assert np.array_equal(sol.replicates[b][0], y_tab)
        assert np.array_equal(sol.replicates[b][1], z_tab)


def test_replicate_evaluates_in_its_own_basis_normalization(model_c, monkeypatch):
    # each resample centres and scales its basis on its own rows; a replicate
    # view evaluates its tables in that normalization, not the main sample's
    cfg = mc.McSolverConfig(paths=3000, basis_degree=2, seed=17, steps=12, bootstrap=3)
    sol, args = _solve_capturing_pass(model_c, mc.full_space(1), "Y", cfg, monkeypatch)
    for b, idx in enumerate(args[9][1:]):
        y_tab, z_tab, loc, scale, _ = _separate_pass(args, idx)
        alone = dc_replace(sol, y_values=y_tab, z_values=z_tab, basis_loc=loc,
                           basis_scale=scale, replicates=None, replicate_clamp_events=None)
        rep = sol.replicate(b)
        for t, f in ((0.25, 0.04), (0.48, 0.081), (0.9, 0.06)):
            assert rep.value(t, f) == alone.value(t, f)
            assert np.array_equal(rep.z_batch(t, np.array([f])), alone.z_batch(t, np.array([f])))


def test_markovian_clamp_budget_checks_main_sample(model_c, monkeypatch):
    # a negative budget is overrun by the first step's (zero) clamp count
    monkeypatch.setattr(mc.bsde, "_CLAMP_BUDGET", -1.0)
    with pytest.raises(PositivityLost):
        mc.solve_markovian(model_c, mc.full_space(1), "Y",
                           mc.McSolverConfig(paths=1000, basis_degree=1, seed=3,
                                             steps=10, bootstrap=2))


def test_replicate_clamp_events_counted_per_replicate(model_c, monkeypatch):
    # an envelope capped below Y_0 makes every sample clamp; each replicate
    # keeps the count a separate pass over its paths gives
    monkeypatch.setattr(mc.bsde, "_CLAMP_BUDGET", 1.0)
    monkeypatch.setattr(mc.bsde, "positivity_envelope", lambda model, grid: (0.5, 1.05))
    cfg = mc.McSolverConfig(paths=2000, basis_degree=1, seed=23, steps=10, bootstrap=3)
    sol, args = _solve_capturing_pass(model_c, mc.full_space(1), "Y", cfg, monkeypatch)
    counts = sol.replicate_clamp_events
    assert sol.clamp_events > 0 and min(counts) > 0 and len(set(counts)) > 1
    for b, idx in enumerate(args[9][1:]):
        assert counts[b] == _separate_pass(args, idx)[4]
        assert sol.replicate(b).clamp_events == counts[b]


@pytest.fixture(scope="module")
def evaluated_solutions(model_a, cone_a, ysol_a, model_c):
    """Deterministic, Markov, "recip" and "h2" solutions, with a factor state
    to evaluate each at (None for deterministic ones)."""
    cone = mc.full_space(1)
    cfg = mc.McSolverConfig(paths=2000, basis_degree=2, seed=23, steps=12, bootstrap=2)
    y_c = mc.solve_markovian(model_c, cone, "Y", cfg)
    p_c = mc.solve_markovian(model_c, cone, "P", cfg)
    p2_c = mc.solve_markovian(model_c, cone, "P2", cfg)
    p2_a = mc.solve_deterministic(model_a, cone_a, "P2", 200)
    return {
        "deterministic": ysol_a,
        "deterministic_h2": mc.transform_p2_to_y(p2_a, model_a),
        "markov": y_c,
        "markov_replicate": y_c.replicate(1),
        "recip": mc.transform_p_to_y(p_c),
        "h2": mc.transform_p2_to_y(p2_c, model_c),
    }


@pytest.mark.parametrize("name", ["deterministic", "deterministic_h2", "markov",
                                  "markov_replicate", "recip", "h2"])
def test_per_row_time_evaluation_matches_scalar_calls(evaluated_solutions, name):
    sol = evaluated_solutions[name]
    grid = sol.grid
    rng = np.random.default_rng(5)
    # t = 0, T, interior and end nodes, and times between nodes, in mixed order
    ts = np.concatenate([[0.0, grid[-1], grid[1], grid[len(grid) // 2], grid[-2]],
                         rng.uniform(0.0, grid[-1], size=12), [0.0, grid[-1]]])
    rng.shuffle(ts)
    fs = (np.zeros(len(ts)) if sol.kind == "deterministic"
          else rng.normal(0.06, 0.03, size=len(ts)))
    values = sol.value_batch(ts, fs)
    zs = sol.z_batch(ts, fs)
    for k, (t, f) in enumerate(zip(ts.tolist(), fs.tolist())):
        assert np.array_equal(values[k], sol.value_batch(t, np.array([f]))[0]), t
        assert np.array_equal(zs[k], sol.z_batch(t, np.array([f]))[0]), t
    if sol.transform is None:
        # on node k, and at basis_loc[k] for a regression table, the value
        # is the stored table entry itself
        nodes = np.array([0, 1, len(grid) // 2, len(grid) - 1])
        if sol.kind == "deterministic":
            f_nodes, expect = np.zeros(len(nodes)), sol.y_values[nodes]
        else:
            f_nodes, expect = sol.basis_loc[nodes], sol.y_values[nodes, 0]
        assert np.array_equal(sol.value_batch(grid[nodes], f_nodes), expect)


@pytest.mark.parametrize("name", ["deterministic", "deterministic_h2", "markov",
                                  "markov_replicate", "recip", "h2"])
def test_evaluation_outside_the_horizon_raises(evaluated_solutions, name):
    # t outside [0, T] or NaN, alone or in a per-row array, raises; T plus
    # less than 1e-12 reads the terminal node (h_t of "h2" moves by r 1e-13)
    sol = evaluated_solutions[name]
    T = float(sol.grid[-1])
    f = None if sol.kind == "deterministic" else 0.06
    rows = np.zeros(2) if f is None else np.full(2, f)
    for t in (2.0 * T, -1.0, -1e-9, T + 1e-9, math.nan):
        with pytest.raises(TimeOutOfRange):
            sol.value(t, f)
        for view in (sol.value_batch, sol.z_batch):
            with pytest.raises(TimeOutOfRange):
                view(t, rows[:1])
            with pytest.raises(TimeOutOfRange):
                view(np.array([0.5 * T, t]), rows)
    assert sol.value(T + 1e-13, f) == pytest.approx(sol.value(T, f), rel=0, abs=1e-14)


@pytest.mark.parametrize("name", ["deterministic", "deterministic_h2", "markov",
                                  "markov_replicate", "recip", "h2"])
def test_non_finite_factor_state_is_refused(evaluated_solutions, name):
    # a Markov solution refuses a NaN or infinite factor state at value,
    # value_batch and z_batch; a deterministic one does not read f
    sol = evaluated_solutions[name]
    for bad in (math.nan, math.inf, -math.inf):
        calls = (lambda: sol.value(0.5, bad), lambda: sol.value_batch(0.5, [0.06, bad]),
                 lambda: sol.z_batch(0.5, [bad, 0.06]),
                 lambda: sol.value_batch(np.array([0.25, 0.5]), [0.06, bad]))
        for call in calls:
            if sol.kind == "deterministic":
                assert np.all(np.isfinite(call()))
            else:
                with pytest.raises(ConfigInvalid, match="^f: factor states must be finite$"):
                    call()


def test_per_row_positivity_check_names_the_failing_time(evaluated_solutions):
    sol = evaluated_solutions["recip"]
    y_tab = sol.y_values.copy()
    y_tab[5] = [-1.0, 0.0, 0.0]      # the base value at node 5 is -1 on basis_loc
    bad = dc_replace(sol, y_values=y_tab)
    ts = np.array([sol.grid[1], sol.grid[5], sol.grid[9]])
    fs = np.array([0.06, sol.basis_loc[5], 0.06])
    with pytest.raises(PositivityLost, match=f"reached -1.0 at t={sol.grid[5]}$"):
        bad.value_batch(ts, fs)
