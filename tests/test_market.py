import math

import numpy as np
import pytest

import mmvcone as mc
from mmvcone.errors import (
    ConfigInvalid,
    DegenerateVolatility,
    DimensionMismatch,
    NonPositiveTheta,
    SingularGram,
    TimeOutOfRange,
)
from mmvcone.cones import project_transformed_batch

from conftest import INSTANCE_A, INSTANCE_C_SIGMA1, pricing_kernel_at, random_full_rank_sigma


def _config(**overrides):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in INSTANCE_A.items()}
    cfg.update(overrides)
    return cfg


def test_build_instance_a(model_a):
    assert model_a.m == 1 and model_a.n == 1
    assert model_a.theta == 1.0
    assert model_a.h0 == pytest.approx(math.exp(0.02), abs=1e-15)


def test_zero_volatility_rejected():
    with pytest.raises(DegenerateVolatility):
        mc.build_model(_config(coefficients={"kind": "deterministic",
                                             "mu": [0.06], "sigma": [[0.0]]}))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        mc.build_model(_config(m=2, n=1,
                               coefficients={"kind": "deterministic",
                                             "mu": [0.06, 0.02],
                                             "sigma": [[0.2], [0.1]]}))


def test_nonpositive_theta_rejected():
    with pytest.raises(NonPositiveTheta):
        mc.build_model(_config(theta=0.0))


def test_missing_coefficients_rejected():
    cfg = _config()
    del cfg["coefficients"]
    with pytest.raises(ConfigInvalid):
        mc.build_model(cfg)


def test_build_is_deterministic():
    # same probe lattice, same verdict
    cfg = _config(delta=0.03)
    first = mc.build_model(cfg)
    second = mc.build_model(cfg)
    assert first.delta == second.delta
    with pytest.raises(DegenerateVolatility):
        mc.build_model(_config(delta=0.05))  # sigma^2 = 0.04 < 0.05


def test_pricing_kernel_instance_a(model_a):
    phi = pricing_kernel_at(model_a, 0.0)
    assert phi == pytest.approx([0.3], abs=1e-15)


def test_pricing_kernel_zero_mu():
    model = mc.build_model(_config(coefficients={"kind": "deterministic",
                                                 "mu": [0.0], "sigma": [[0.2]]}))
    assert pricing_kernel_at(model, 0.5) == pytest.approx([0.0], abs=0)


def test_pricing_kernel_wide_sigma():
    model = mc.build_model(_config(n=2, coefficients={"kind": "deterministic",
                                                      "mu": [0.06],
                                                      "sigma": [[0.2, 0.0]]}))
    phi = pricing_kernel_at(model, 0.0)
    assert phi == pytest.approx([0.3, 0.0], abs=1e-15)


def test_sigma_phi_equals_mu_randomized():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 5))
        sig = random_full_rank_sigma(rng, m, n)
        mu = rng.normal(size=m)
        model = mc.build_model({
            "m": m, "n": n, "T": 1.0, "x0": 1.0, "theta": 1.0, "rate": 0.0,
            "coefficients": {"kind": "deterministic", "mu": mu.tolist(),
                             "sigma": sig.tolist()},
            "delta": 1e-4,
        })
        for t in rng.uniform(0.0, 1.0, size=50):
            phi = pricing_kernel_at(model, float(t))
            assert np.max(np.abs(sig @ phi - mu)) < 1e-12
            checked += 1


def test_discount_zero_rate():
    model = mc.build_model(_config(rate=0.0))
    for t in (0.0, 0.3, 1.0):
        assert model.discount(t) == 1.0


def test_discount_instance_a(model_a):
    assert model_a.discount(0.0) == pytest.approx(math.exp(0.02), abs=1e-14)
    assert model_a.discount(1.0) == 1.0


def test_discount_piecewise_rate():
    model = mc.build_model(_config(rate=[{"until": 0.5, "value": 0.02},
                                         {"until": 1.0, "value": 0.04}]))
    assert model.discount(0.0) == pytest.approx(math.exp(0.03), abs=1e-15)
    assert model.discount(0.5) == pytest.approx(math.exp(0.02), abs=1e-15)


def test_discount_semigroup():
    model = mc.build_model(_config(rate=[{"until": 0.25, "value": 0.01},
                                         {"until": 0.6, "value": 0.05},
                                         {"until": 1.0, "value": 0.02}]))
    rng = np.random.default_rng(7)
    for _ in range(200):
        t1, t2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        lhs = model.discount(float(t1))
        rhs = model.discount(float(t2)) * math.exp(model.rate.integral(float(t1), float(t2)))
        assert abs(lhs - rhs) < 1e-14


def _integral_one(rate, t0, t1):
    """Reference: the integral of r over [t0, t1] for one pair of floats."""
    if t1 < t0:
        return -_integral_one(rate, t1, t0)
    total, start = 0.0, 0.0
    for b, v in zip(rate.breaks, rate.values):
        lo, hi = max(start, t0), min(b, t1)
        if hi > lo:
            total += v * (hi - lo)
        start = b
    if t1 > rate.breaks[-1]:
        total += rate.values[-1] * (t1 - max(t0, rate.breaks[-1]))
    return total


def test_step_integrals_match_integral_bit_for_bit():
    # breaks at 0.25 (a node of the grid), at 0.6 (inside the step 0.5-0.625)
    # and at T = 1; reversed pairs, random pairs and pairs past the last break
    grid = np.linspace(0.0, 1.0, 9)
    rng = np.random.default_rng(3)
    for rate in (mc.PiecewiseRate((0.25, 0.6, 1.0), (0.01, 0.05, 0.02)),
                 mc.PiecewiseRate((0.25, 0.6, 1.0, 1.3), (0.01, -0.05, 0.02, 0.07))):
        a, b = grid[:-1].tolist(), grid[1:].tolist()
        want = [_integral_one(rate, s, t) for s, t in zip(a, b)]
        assert rate.integral(grid[:-1], grid[1:]).tolist() == want
        assert rate.integral(grid[1:], grid[:-1]).tolist() == [-w for w in want]
        t0, t1 = rng.uniform(0.0, 1.5, size=(2, 500))
        t0[:4] = rate.breaks[-1], 1.0, 0.25, 0.6
        want = [_integral_one(rate, s, t) for s, t in zip(t0.tolist(), t1.tolist())]
        assert rate.integral(t0, t1).tolist() == want
        assert rate.integral(float(t0[5]), float(t1[5])) == want[5]

    model = mc.build_model(_config(rate=[{"until": 0.25, "value": 0.01},
                                         {"until": 0.6, "value": 0.05},
                                         {"until": 1.0, "value": 0.02}]))
    times = np.concatenate([grid, rng.uniform(0.0, 1.0, size=200)])
    want = [math.exp(_integral_one(model.rate, t, 1.0)) for t in times.tolist()]
    assert model.discount(times).tolist() == want
    assert [model.discount(t) for t in times.tolist()] == want


def test_time_out_of_range(model_a):
    with pytest.raises(TimeOutOfRange):
        model_a.discount(1.5)
    with pytest.raises(TimeOutOfRange):
        pricing_kernel_at(model_a, -0.1)
    for t in (math.nan, np.array([0.5, math.nan]), np.array([0.0, 1.0 + 1e-9])):
        with pytest.raises(TimeOutOfRange):
            model_a.discount(t)
    assert model_a.discount(1.0 + 1e-13) == pytest.approx(1.0, abs=1e-14)


def test_markov_factor_model(model_c):
    cf = model_c.coefficients
    assert cf.kind == "markov"
    assert cf.driving_index == 1
    # factor law at t=0 is the point mass at f0
    assert np.allclose(cf.factor_quantiles(0.0, [0.1, 0.5, 0.9]), cf.f0)
    # mu map is affine in the factor
    assert cf.mu_batch(0.3, np.array([0.08]))[0] == pytest.approx([0.08])
    phi = pricing_kernel_at(model_c, 0.3, 0.08)
    assert phi == pytest.approx([0.4, 0.0], abs=1e-15)
    # a factor-driven model has no default factor state (it read f = NaN before)
    for view in (lambda t: mc.market._state_rows(True, None, t),
                 lambda t: pricing_kernel_at(model_c, t)):
        with pytest.raises(ConfigInvalid, match="factor state required"):
            view(0.3)


def test_factor_mean_is_the_ou_mean_and_the_median_quantile():
    maps = mc.affine_factor_maps(1, 2, [0.0], [1.0], [[0.2, 0.0]])
    cf = mc.CoefficientField.markov_factor(1, 2, 1.5, 0.06, 0.03, 1, 0.10, *maps)
    for t in (0.0, 0.3, 1.0):
        mean = cf.mean_level + (cf.f0 - cf.mean_level) * math.exp(-cf.kappa * t)
        assert cf.factor_mean(t) == mean
        assert cf.factor_quantiles(t, [0.5])[0] == pytest.approx(mean, rel=0, abs=1e-15)


def test_markov_batch_eval(model_c):
    cf = model_c.coefficients
    f = np.array([0.02, 0.06, 0.10])
    assert cf.mu_batch(0.1, f) == pytest.approx(f[:, None])
    sig = cf.sigma_batch(0.1, f)
    assert sig.shape == (3, 1, 2)
    phi = mc.pricing_kernel_batch(model_c, 0.1, f)
    assert phi[:, 0] == pytest.approx(f / 0.2)
    assert np.all(phi[:, 1] == 0.0)


def test_factor_dependent_sigma_per_row():
    cf = mc.build_model(INSTANCE_C_SIGMA1).coefficients
    f = np.array([-0.01, 0.02, 0.06, 0.10])
    sig = cf.sigma_batch(0.4, f)
    assert sig.shape == (4, 1, 2)
    expect = np.array([[0.2, 0.0]]) + f[:, None, None] * np.array([[0.5, 0.3]])
    assert np.array_equal(sig, expect)
    assert np.array_equal(cf.sigma_batch(0.4, np.array([0.02]))[0], expect[1])


def test_factor_free_sigma_is_shared_view(model_c, model_a):
    # sigma1 absent: one read-only sigma0 serves every row, no per-row copy
    f = np.array([0.02, 0.06, 0.10])
    sig = model_c.coefficients.sigma_batch(0.1, f)
    assert sig.shape == (3, 1, 2)
    assert sig.strides[0] == 0
    assert not sig.flags.writeable
    assert np.array_equal(sig, np.broadcast_to([[0.2, 0.0]], (3, 1, 2)))
    # an explicit zero sigma1 is the same factor-free model
    cfg = {**INSTANCE_C_SIGMA1, "coefficients": {**INSTANCE_C_SIGMA1["coefficients"],
                                                 "sigma1": [[0.0, 0.0]]}}
    assert mc.build_model(cfg).coefficients.sigma_batch(0.1, f).strides[0] == 0
    # constant deterministic coefficients: the same shared view, at one time
    # or at one time per row
    for t in (0.1, np.array([0.0, 0.5, 1.0])):
        sig = model_a.coefficients.sigma_batch(t, np.zeros(3))
        assert sig.shape == (3, 1, 1)
        assert sig.strides[0] == 0
        assert not sig.flags.writeable
        assert np.array_equal(sig, np.full((3, 1, 1), 0.2))
    # a time-gridded sigma at one time per row varies by row: one matrix each
    cf = mc.CoefficientField.deterministic(
        [[0.06], [0.10]], [[[0.2]], [[0.3]]], [0.0, 1.0])
    sig = cf.sigma_batch(np.array([0.0, 0.5, 1.0]), np.zeros(3))
    assert sig.strides[0] != 0
    assert np.array_equal(sig[:, 0, 0], [0.2, 0.25, 0.3])
    assert np.allclose(cf.mu_batch(np.array([0.0, 0.5, 1.0]), np.zeros(3))[:, 0],
                       [0.06, 0.08, 0.10], rtol=0.0, atol=1e-15)
    # one time between the nodes: one matrix shared by every row, whatever f
    sig = cf.sigma_batch(0.25, np.array([0.0, 5.0, -5.0]))
    assert sig.strides[0] == 0
    assert np.allclose(sig, 0.225, rtol=0.0, atol=1e-15)
    mu = cf.mu_batch(0.25, np.array([0.0, 5.0, -5.0]))
    assert mu.shape == (3, 1) and np.allclose(mu, 0.07, rtol=0.0, atol=1e-15)
    # outside the coefficient grid the values are flat at its end nodes
    for t, s_end, m_end in ((-0.5, 0.2, 0.06), (1.5, 0.3, 0.10)):
        assert np.array_equal(cf.sigma_batch(t, np.zeros(2))[:, 0, 0], [s_end, s_end])
        assert np.array_equal(cf.mu_batch(np.array([t, t]), np.zeros(2))[:, 0],
                              [m_end, m_end])


def test_probe_lattice_rows(model_a, model_c):
    # t-major rows; state 0 without a factor, the factor's quantiles with one
    times = np.array([0.0, 0.25, 0.5, 1.0])
    t_rows, f_rows = model_a.probe_lattice(times, 5)
    assert np.array_equal(t_rows, times)
    assert np.array_equal(f_rows, np.zeros(4))
    t_rows, f_rows = model_c.probe_lattice(times, 5)
    assert np.array_equal(t_rows, np.repeat(times, 5))
    assert np.all(f_rows[:5] == model_c.coefficients.f0)      # no spread at t = 0
    assert np.all(np.diff(f_rows[5:10]) > 0)


@pytest.mark.parametrize("kappa", [1.0, 0.0])
def test_probe_lattice_matches_normal_dist_quantiles(kappa):
    # per time t > 0: NormalDist(mean, sd).inv_cdf of the levels, bit for bit
    from statistics import NormalDist

    model = mc.build_model({**INSTANCE_C_SIGMA1, "coefficients": {
        **INSTANCE_C_SIGMA1["coefficients"], "kappa": kappa}})
    cf = model.coefficients
    times = np.linspace(0.0, 1.0, 11)
    levels = np.linspace(0.005, 0.995, 7)
    t_rows, f_rows = model.probe_lattice(times, 7)
    assert np.array_equal(t_rows, np.repeat(times, 7))
    for i, t in enumerate(times.tolist()):
        if kappa > 0:
            var = cf.nu ** 2 * (1.0 - math.exp(-2.0 * kappa * t)) / (2.0 * kappa)
        else:
            var = cf.nu ** 2 * t
        mean = cf.mean_level + (cf.f0 - cf.mean_level) * math.exp(-kappa * t)
        want = ([NormalDist(mean, math.sqrt(var)).inv_cdf(q) for q in levels.tolist()]
                if t > 0 else [mean] * 7)
        assert f_rows[7 * i:7 * i + 7].tolist() == want


def test_rate_must_cover_horizon():
    with pytest.raises(ConfigInvalid):
        mc.build_model(_config(rate=[{"until": 0.5, "value": 0.02}]))


def test_discount_factor_grid(model_a):
    grid = np.linspace(0.0, 1.0, 11)
    h = model_a.discount(grid)
    assert h[-1] == 1.0
    assert np.all(np.diff(h) < 0)  # non-increasing for r > 0
    assert model_a.discount(0.25) == pytest.approx(math.exp(0.02 * 0.75), abs=1e-15)


def test_ellipticity_failure_names_late_probe_time():
    # sigma falls linearly from 0.2 at t = 0.5 to 0.01 at T = 1; with
    # delta = 1e-3 the first probe time whose sigma^2 drops below it is 0.95
    cfg = _config(delta=1e-3, coefficients={
        "kind": "deterministic", "times": [0.0, 0.5, 1.0],
        "mu": [[0.06], [0.06], [0.06]], "sigma": [[[0.2]], [[0.2]], [[0.01]]]})
    with pytest.raises(DegenerateVolatility) as exc:
        mc.build_model(cfg)
    cf = mc.CoefficientField.deterministic(
        cfg["coefficients"]["mu"], cfg["coefficients"]["sigma"], cfg["coefficients"]["times"])
    for t in np.linspace(0.0, 1.0, mc.market.PROBE_TIME_POINTS):
        sig = cf.sigma_batch(t, np.zeros(1))[0]
        min_eig = float(np.linalg.eigvalsh(sig @ sig.T)[0])
        if min_eig < 1e-3:
            break
    assert round(float(t), 4) == 0.95
    assert str(exc.value) == (f"min eigenvalue of sigma sigma' = {min_eig:.3e} < delta=0.001 "
                              f"at (t=0.9500, f=0.0)")


def test_ellipticity_first_failing_probe_time_decides_the_error():
    # non-finite mu from t = 0.51 on, degenerate sigma only at t = 1
    cfg = _config(coefficients={
        "kind": "deterministic", "times": [0.0, 0.5, 1.0],
        "mu": [[0.06], [0.06], [math.nan]], "sigma": [[[0.2]], [[0.2]], [[0.0]]]})
    with pytest.raises(ConfigInvalid, match=r"non-finite coefficients at t=0.51$"):
        mc.build_model(cfg)
    # degenerate sigma at t = 0.5, non-finite mu from t = 0.51 on
    cfg["coefficients"]["sigma"] = [[[0.2]], [[0.0]], [[0.2]]]
    with pytest.raises(DegenerateVolatility, match=r"at \(t=0.5000, f=0.0\)$"):
        mc.build_model(cfg)


_G3 = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [
    lambda bad: mc.build_model(_config(x0=bad)),
    lambda bad: mc.build_model(_config(theta=bad)),
    lambda bad: mc.build_model(_config(delta=bad)),
    lambda bad: mc.build_model(_config(T=bad)),
    lambda bad: mc.constant_adversary([bad]),
    lambda bad: mc.constant_adversary([0.1, bad]),
    lambda bad: mc.custom_adversary(lambda t, f: np.zeros((len(f), 1)), bound=bad),
    lambda bad: mc.project_cone(mc.full_space(2), [bad, 1.0]),
    lambda bad: mc.project_cone(mc.orthant(2), [1.0, bad]),
    lambda bad: mc.project_cone(mc.generated([[1.0, 0.5], [0.0, 1.0]]), [bad, 1.0]),
    lambda bad: mc.project_cone(mc.generated(_G3), [bad, 1.0]),
], ids=["x0", "theta", "delta", "T", "constant_1", "constant_2", "custom_bound",
        "project_full", "project_orthant", "project_k2", "project_k3"])
def test_non_finite_inputs_are_refused_at_public_boundaries(entry, bad):
    with pytest.raises(ConfigInvalid):
        entry(bad)


def test_singular_gram_between_probe_points_is_typed():
    # sigma(f) = diag(0.2, 0.2 - f) passes the ellipticity probe (its factor
    # states stay near 0) but is singular at f = 0.2, off the probe lattice
    model = mc.build_model({**INSTANCE_A, "m": 2, "n": 2, "coefficients": {
        "kind": "markov", "kappa": 1.0, "mean": 0.0, "nu": 0.01, "f0": 0.0,
        "mu0": [0.05, 0.05], "sigma0": [[0.2, 0.0], [0.0, 0.2]],
        "sigma1": [[0.0, 0.0], [0.0, -1.0]], "driving_index": 1}})
    f = np.array([0.2])
    with pytest.raises(SingularGram):
        mc.pricing_kernel_batch(model, 0.5, f)
    with pytest.raises(SingularGram):
        project_transformed_batch(mc.full_space(2), model.coefficients.sigma_batch(0.5, f),
                                  np.array([[0.1, 0.1]]))


def test_factor_quantiles_need_a_factor(model_a):
    with pytest.raises(ConfigInvalid, match="^coefficients.kind: "):
        model_a.coefficients.factor_quantiles(0.5, [0.5])
