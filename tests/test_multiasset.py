"""Two-asset orthant-constrained instance where the constraint binds.

The second asset has negative excess return, so the unconstrained optimizer
would short it; on the nonnegative orthant the solution sits on the face
pi_2 = 0 and the whole pipeline must respect that.
"""

import math

import numpy as np
import pytest

import mmvcone as mc

from conftest import INSTANCE_ORTHANT2 as CONFIG
from conftest import eta_at, in_cone, pricing_kernel_at

# KKT by hand: gram = sigma sigma' = [[0.0425, 0.0125], [0.0125, 0.0625]];
# the unconstrained minimizer of pi'gram pi - 2 pi'mu has pi_2 < 0, so the
# optimum sits on the face pi_2 = 0 with pi_1 = mu_1 / gram_11, giving
# inf = -mu_1^2 / gram_11 and Y_t = exp(mu_1^2 / gram_11 (T - t)).
Q_STAR = -0.06 ** 2 / 0.0425


@pytest.fixture(scope="module")
def setup():
    model = mc.build_model(CONFIG)
    cone = mc.orthant(2)
    y = mc.solve_deterministic(model, cone, "Y", 1000)
    p1 = mc.solve_deterministic(model, cone, "P1", 1000)
    p2 = mc.solve_deterministic(model, cone, "P2", 1000)
    return model, cone, y, p1, p2


def test_y_closed_form(setup):
    model, cone, y, _, _ = setup
    assert abs(y.value0 - math.exp(-Q_STAR)) < 1e-8
    expect = np.exp(-Q_STAR * (1.0 - y.grid))
    assert np.max(np.abs(y.y_values - expect)) < 1e-8


def test_binding_constraint(setup):
    model, cone, y, _, _ = setup
    mmv = mc.mmv_feedback(model, cone, y)
    pi = mmv.portfolio(0.0, 1.0)
    assert pi[1] == 0.0                      # face of the orthant
    assert pi[0] > 0.0
    assert in_cone(cone, pi, tol=1e-12)


def test_constrained_adversary_not_minus_phi(setup):
    model, cone, y, _, _ = setup
    adv = mc.mmv_adversary(y, cone, model).saddle
    eta = eta_at(adv, 0.0)
    phi = pricing_kernel_at(model, 0.0)
    assert np.linalg.norm(eta + phi) > 1e-3  # constraint shifts the worst case
    # eta_hat = -xi/Y is proportional to the active generator sigma' e_1
    assert eta[1] / eta[0] == pytest.approx(0.05 / 0.2, abs=1e-12)


def test_cross_identity_and_bounds(setup):
    model, cone, y, p1, p2 = setup
    h0_sq = model.h0 ** 2
    assert p1.value0 <= h0_sq + 1e-10
    assert p2.value0 <= h0_sq + 1e-10
    y_from_p2 = mc.transform_p2_to_y(p2, model)
    for t in y.grid[::97]:
        assert abs(y.value(float(t)) - y_from_p2.value(float(t))) < 1e-8


def test_equivalence(setup):
    model, cone, y, p1, p2 = setup
    mmv = mc.mmv_feedback(model, cone, y)
    mv = mc.mv_feedback(model, cone, p1, p2)
    report = mc.equivalence_check(
        mmv, mv, (np.linspace(0.0, 1.0, 51), np.linspace(0.0, 1.5, 51)))
    assert report.max_gap <= 1e-8
    assert report.value_gap <= 1e-8
    assert abs(report.a_const - report.gamma_hat) < 1e-10


def test_saddle_scan(setup):
    model, cone, y, _, _ = setup
    mmv = mc.mmv_feedback(model, cone, y)
    saddle = mc.mmv_adversary(y, cone, model)
    report = mc.saddle_scan(
        model, cone, y,
        [mmv, None, mmv.scaled(0.5), mmv.scaled(1.5)],
        [saddle, mc.zero_adversary(), mc.scaled_minus_phi(model, 0.5),
         mc.scaled_minus_phi(model, 2.0)],
        paths=20000, steps=50, seed=77)
    assert report.passed
    expected_r0 = model.x0 * model.h0 + (y.value0 - 1.0) / (2.0 * model.theta)
    assert abs(report.r0 - expected_r0) < 1e-12


def test_markov_full_cone_frozen_factor_matches_rk4():
    # m = 2 full cone with a factor frozen at f0 (nu = 0): the regression
    # solver must reproduce RK4 on the same coefficients, rate break included
    sigma = [[0.2, 0.05, 0.03], [0.0, 0.25, 0.1]]
    base = {"m": 2, "n": 3, "T": 1.0, "x0": 1.0, "theta": 2.0,
            "rate": CONFIG["rate"], "delta": 1e-6}
    markov = mc.build_model(dict(base, coefficients={
        "kind": "markov", "kappa": 1.0, "mean": 0.06, "nu": 0.0, "f0": 0.06,
        "mu0": [0.0, 0.0], "mu1": [1.0, -0.5], "sigma0": sigma, "driving_index": 2}))
    det = mc.build_model(dict(base, coefficients={
        "kind": "deterministic", "mu": [0.06, -0.03], "sigma": sigma}))
    cone = mc.full_space(2)
    for eq in ("Y", "P2"):
        sol = mc.solve_markovian(markov, cone, eq,
                                 mc.McSolverConfig(paths=1000, basis_degree=0, seed=5,
                                                   steps=10, bootstrap=0))
        # 10 trapezoidal steps leave an O(dt^2) error of about 2e-6
        assert abs(sol.value0 - mc.solve_deterministic(det, cone, eq, 1000).value0) < 5e-6
