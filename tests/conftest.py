import math
import os

import numpy as np
import pytest

import mmvcone as mc
from mmvcone.cones import cone_inf_quadratic_batch, project_transformed_batch
from mmvcone.market import _state_rows
from mmvcone.strategies import StepTargets

# Instance A: one asset, constant coefficients, unconstrained
INSTANCE_A = {
    "m": 1, "n": 1, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.02,
    "coefficients": {"kind": "deterministic", "mu": [0.06], "sigma": [[0.2]]},
    "delta": 1e-6,
    "cone": {"kind": "full"},
}

# Instance B: orthant cone with negative excess return (no-trade)
INSTANCE_B = {
    "m": 1, "n": 1, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.02,
    "coefficients": {"kind": "deterministic", "mu": [-0.06], "sigma": [[0.2]]},
    "delta": 1e-6,
    "cone": {"kind": "orthant"},
}

# Two assets on the orthant with the second asset's excess return negative,
# so the constraint binds on pi_2 = 0 (tests/test_multiasset.py)
INSTANCE_ORTHANT2 = {
    "m": 2, "n": 2, "T": 1.0, "x0": 1.0, "theta": 2.0,
    "rate": [{"until": 0.5, "value": 0.02}, {"until": 1.0, "value": 0.04}],
    "coefficients": {"kind": "deterministic", "mu": [0.06, -0.03],
                     "sigma": [[0.2, 0.05], [0.0, 0.25]]},
    "delta": 1e-6,
    "cone": {"kind": "orthant"},
}

# Instance C: mean-reverting factor drives the excess return, incomplete market
INSTANCE_C = {
    "m": 1, "n": 2, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.02,
    "coefficients": {"kind": "markov", "kappa": 1.0, "mean": 0.06, "nu": 0.03,
                     "f0": 0.06, "mu0": [0.0], "mu1": [1.0],
                     "sigma0": [[0.2, 0.0]], "driving_index": 1},
    "delta": 1e-6,
    "cone": {"kind": "full"},
}

# Instance C with a factor-dependent volatility: sigma(f) = sigma0 + f sigma1
INSTANCE_C_SIGMA1 = {
    **INSTANCE_C,
    "coefficients": {**INSTANCE_C["coefficients"], "sigma1": [[0.5, 0.3]]},
}


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of the test process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process ({'running' if pid == 0 else pid}) outlived the test")


Y0_A = math.exp(0.09)
P2_0_A = math.exp(-0.05)
H0_A = math.exp(0.02)
VALUE_A = H0_A + (Y0_A - 1.0) / 2.0


@pytest.fixture(scope="session")
def model_a():
    return mc.build_model(INSTANCE_A)


@pytest.fixture(scope="session")
def cone_a():
    return mc.full_space(1)


@pytest.fixture(scope="session")
def ysol_a(model_a, cone_a):
    return mc.solve_deterministic(model_a, cone_a, "Y", 1000)


@pytest.fixture(scope="session")
def p1sol_a(model_a, cone_a):
    return mc.solve_deterministic(model_a, cone_a, "P1", 1000)


@pytest.fixture(scope="session")
def p2sol_a(model_a, cone_a):
    return mc.solve_deterministic(model_a, cone_a, "P2", 1000)


@pytest.fixture(scope="session")
def model_b():
    return mc.build_model(INSTANCE_B)


@pytest.fixture(scope="session")
def cone_b():
    return mc.orthant(1)


@pytest.fixture(scope="session")
def ysol_b(model_b, cone_b):
    return mc.solve_deterministic(model_b, cone_b, "Y", 1000)


@pytest.fixture(scope="session")
def model_c():
    return mc.build_model(INSTANCE_C)


def random_full_rank_sigma(rng, m, n, min_sv=0.15):
    """Random (m, n) volatility with smallest singular value bounded away from 0."""
    while True:
        sig = rng.normal(size=(m, n))
        if np.linalg.svd(sig, compute_uv=False)[-1] >= min_sv:
            return sig


def random_cone(rng, m, max_cond=25.0):
    """Random cone; generated kinds use condition-bounded generator matrices.

    Fixed-point tolerances at the 1e-12 level are only attainable in float64
    when the generators are reasonably conditioned; ill-conditioned cones are
    exercised separately at a looser tolerance.
    """
    kind = rng.integers(0, 3)
    if kind == 0:
        return mc.full_space(m)
    if kind == 1:
        return mc.orthant(m)
    k = int(rng.integers(1, 4))
    while True:
        G = rng.normal(size=(m, k))
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[0] / sv[-1] <= max_cond:
            return mc.generated(G)


def sample_cone_point(rng, cone):
    """A random element of the cone (for membership/variational probes)."""
    if cone.kind == "full":
        return rng.normal(size=cone.dim)
    if cone.kind == "orthant":
        return np.abs(rng.normal(size=cone.dim))
    lam = np.abs(rng.normal(size=cone.generators.shape[1]))
    return cone.generators @ lam


# -- one-row forms of the engine's batch kernels ------------------------------

def one_state(model, t, f=None):
    """The factor rows of one state, as the engine reads them (market._state_rows)."""
    return _state_rows(model.coefficients.kind == "markov", f, t)


def pricing_kernel_at(model, t, f=None):
    """(n,) phi at one state: pricing_kernel_batch on one row."""
    return mc.pricing_kernel_batch(model, t, one_state(model, t, f))[0]


def eta_at(adversary, t, f=None):
    """(n,) clipped saddle loading at one state: eta_batch on one row."""
    return adversary.eta_batch(t, one_state(adversary.model, t, f))[0]


def xi2_at(strategy, t, f=None):
    """(m,) mean-variance long-side direction (the P2 target's gamma) at one state."""
    step = StepTargets(strategy.model, t, f)
    return step.target(strategy.cone, strategy.p2_sol, "P2")[3][0]


def project_one(cone, sigma, a):
    """(xi (n,), gamma (m,), dist_sq) of one target a projected onto sigma' Gamma."""
    xi, gamma, dist_sq = project_transformed_batch(cone, sigma, np.asarray(a)[None, :])
    return xi[0], gamma[0], float(dist_sq[0])


def inf_quadratic_one(cone, sigma, a):
    """inf over pi in Gamma of [pi' sigma sigma' pi - 2 pi' sigma a] at one target."""
    return float(cone_inf_quadratic_batch(cone, sigma, np.asarray(a)[None, :])[0])


def in_cone(cone, v, tol=1e-10):
    """Membership test: distance of v to the cone within tol."""
    v = np.asarray(v, dtype=float)
    return bool(np.linalg.norm(v - mc.project_cone(cone, v)) <= tol)


def driver_f(cone, sigma, phi, y, z):
    """Driver of the Y equation at one point, projection form:
    f = -(1/y)|z + xi|^2 + 2 phi' xi  with  xi = Proj_{sigma' Gamma}(y phi - z).

    The engine evaluates the driver through Moreau's q(y) form (bsde._z_side),
    so this is an independent oracle for it."""
    if y <= 0:
        raise ValueError(f"driver evaluated at y={y}")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    xi = project_one(cone, sigma, y * phi - z)[0]
    zx = z + xi
    return float(-(zx @ zx) / y + 2.0 * (phi @ xi))
