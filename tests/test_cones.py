import numpy as np
import pytest

import mmvcone as mc
from mmvcone.errors import DimensionMismatch

from conftest import (in_cone, inf_quadratic_one, project_one, random_cone,
                      random_full_rank_sigma, sample_cone_point)


def grid_search_projection(G, p, lam_max=10.0, coarse=0.05, fine=1e-3):
    """Brute-force projection onto {G lam : lam >= 0} by two-stage grid search.

    Stage one scans [0, lam_max]^k at the coarse step; stage two rescans a
    window around the winner at the fine step, matching the resolution of a
    dense fine grid without its memory cost.
    """
    G = np.asarray(G, dtype=float)
    k = G.shape[1]

    def scan(lo, hi, step):
        axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(k)]
        mesh = np.meshgrid(*axes, indexing="ij")
        lam = np.stack([m.ravel() for m in mesh], axis=1)
        pts = lam @ G.T
        d2 = np.sum((pts - p) ** 2, axis=1)
        best = np.argmin(d2)
        return lam[best]

    best = scan(np.zeros(k), np.full(k, lam_max), coarse)
    lo = np.maximum(best - 2 * coarse, 0.0)
    hi = best + 2 * coarse
    best = scan(lo, hi, fine)
    return G @ best


def test_orthant_clips():
    cone = mc.orthant(2)
    assert mc.project_cone(cone, np.array([1.0, -2.0])) == pytest.approx([1.0, 0.0])


def test_full_space_identity():
    cone = mc.full_space(3)
    p = np.array([0.3, -1.2, 4.0])
    assert mc.project_cone(cone, p) == pytest.approx(p)


def test_generated_example_against_grid_oracle():
    G = np.array([[1.0, 1.0], [0.0, 1.0]])
    cone = mc.generated(G)
    p = np.array([-1.0, 0.5])
    proj = mc.project_cone(cone, p)
    oracle = grid_search_projection(G, p)
    assert np.linalg.norm(proj - oracle) < 2e-3
    assert proj == pytest.approx([0.0, 0.0], abs=1e-12)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mc.project_cone(mc.orthant(2), np.array([1.0, 2.0, 3.0]))


def test_nnls_iteration_budget():
    from mmvcone.cones import nnls
    from mmvcone.errors import NoConvergence
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    with pytest.raises(NoConvergence):
        nnls(A, b, max_iter=1)
    # a stack spends the budget as soon as one of its rows does
    stack = np.stack([np.zeros(6), b, -b])
    with pytest.raises(NoConvergence):
        nnls(A, stack, max_iter=1)


def _random_nnls_problem(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(6, 4)), rng.normal(size=6)


@pytest.mark.parametrize("A, b, needed", [
    (np.eye(3), np.array([1.0, 2.0, 3.0]), 3),
    (*_random_nnls_problem(2), 4),
], ids=["one_column_per_iteration", "a_column_leaves"])
def test_nnls_budget_allows_exactly_max_iter(A, b, needed):
    # a problem that takes exactly `needed` Lawson-Hanson iterations solves
    # with that budget, and raises with one less
    from mmvcone.cones import nnls
    from mmvcone.errors import NoConvergence
    x = nnls(A, b, max_iter=needed)
    assert np.array_equal(x, nnls(A, b))
    with pytest.raises(NoConvergence):
        nnls(A, b, max_iter=needed - 1)


def test_generated_projection_of_interior_point_converges():
    # p lies inside the cone (scipy.optimize.nnls reaches residual 0); without
    # the Lawson-Hanson entering safeguard a column re-entered at a zero step
    # until the iteration budget was spent
    G = np.array([[0.762, -0.71, 0.119, 0.498], [0.589, -0.308, 1.341, 0.204]])
    p = np.array([52.088, -21.902])
    proj = mc.project_cone(mc.generated(G), p)
    assert np.array_equal(proj, p)


def _nnls_stacks(rng, rows=40):
    """Random nnls stacks: shared and per-row A, k <= p and k > p, zero
    targets, targets inside the cone and mixed scales; a duplicated column
    whenever k >= 3, and for k = 2 also a zero, duplicated, opposite (a
    line) or nearly parallel (1e-4 apart) second column."""
    second = {"zero": lambda c: 0.0 * c, "duplicate": lambda c: c, "opposite": lambda c: -c,
              "close": lambda c: c + 1e-4 * rng.normal(size=c.shape)}
    cases = ([(p, k, None) for p, k in ((3, 2), (2, 2), (2, 1), (1, 3), (2, 4), (4, 4), (3, 6))]
             + [(p, 2, kind) for kind in second for p in (3, 2)])
    for p, k, kind in cases:
        for shared in (True, False):
            A = rng.normal(size=(p, k) if shared else (rows, p, k))
            if k >= 3:
                A[..., 2] = A[..., 0]
            if kind is not None:
                A[..., 1] = second[kind](A[..., 0])
            b = rng.normal(size=(rows, p)) * rng.choice([0.1, 1.0, 50.0], size=(rows, 1))
            inside = np.einsum("...ij,...j->...i", A, rng.uniform(0.1, 2.0, size=(rows, k)))
            b[1::5] = inside[1::5]
            b[::5] = 0.0
            yield A, b


def test_nnls_stack_matches_scipy_and_one_row_calls():
    oracle = pytest.importorskip("scipy.optimize").nnls
    from mmvcone.cones import nnls
    rng = np.random.default_rng(808)
    for A, b in _nnls_stacks(rng):
        x = nnls(A, b)
        assert x.shape == (len(b), A.shape[-1]) and np.all(x >= 0.0)
        # several support sizes advance in the same call
        assert len(np.unique(np.count_nonzero(x, axis=1))) >= 2
        for i in range(len(b)):
            A_i = A if A.ndim == 2 else A[i]
            # lockstep rows do not interact
            assert np.array_equal(nnls(A_i, b[i]), x[i])
            resid = np.linalg.norm(A_i @ x[i] - b[i])
            assert abs(resid - oracle(A_i, b[i])[1]) <= 1e-12 * np.linalg.norm(b[i])


def test_nnls_nearly_opposite_columns_span_a_half_plane():
    # c and -3c + d with |d| from 1e-13 to 1e-9 |c| generate nearly a
    # half-plane, not a line: the residual stays near that of scipy's solution
    oracle = pytest.importorskip("scipy.optimize").nnls
    from mmvcone.cones import nnls
    rng = np.random.default_rng(17)
    c = rng.normal(size=(200, 3))
    d = 10.0 ** rng.uniform(-13, -9, size=(200, 1)) * rng.normal(size=(200, 3))
    A = np.stack([c, -3.0 * c + d], axis=2)
    b = rng.normal(size=(200, 3))
    x = nnls(A, b)
    for i in range(len(b)):
        best = np.linalg.norm(A[i] @ oracle(A[i], b[i])[0] - b[i])
        assert np.linalg.norm(A[i] @ x[i] - b[i]) - best <= 1e-2 * np.linalg.norm(b[i])


def test_transformed_full_space_remark_formula():
    # wide sigma, unconstrained: projection replaces only the Z-part
    cone = mc.full_space(1)
    sigma = np.array([[0.2, 0.0]])
    y, z = 1.0, np.array([0.1, 0.5])
    phi = np.array([0.3, 0.0])
    xi, gamma_min, _ = project_one(cone, sigma, y * phi - z)
    assert xi == pytest.approx([0.2, 0.0], abs=1e-12)
    assert sigma.T @ gamma_min == pytest.approx(xi, abs=1e-10)


def test_transformed_orthant_negative_scalar():
    xi, _, dist_sq = project_one(mc.orthant(1), np.array([[0.2]]), np.array([-0.3]))
    assert xi == pytest.approx([0.0], abs=0)
    assert dist_sq == pytest.approx(0.09, abs=1e-15)


def test_transformed_orthant_positive_scalar():
    xi, gamma_min, _ = project_one(mc.orthant(1), np.array([[0.2]]), np.array([0.3]))
    assert xi == pytest.approx([0.3], abs=1e-12)
    assert gamma_min == pytest.approx([1.5], abs=1e-10)


def test_transformed_degenerate_zero_input():
    xi, gamma_min, dist_sq = project_one(mc.orthant(2), np.eye(2), np.zeros(2))
    assert np.all(xi == 0.0)
    assert np.all(gamma_min == 0.0)
    assert dist_sq == 0.0


def test_inf_quadratic_examples():
    sig = np.array([[0.2]])
    assert inf_quadratic_one(mc.orthant(1), sig, np.array([0.3])) == pytest.approx(-0.09, abs=1e-12)
    assert inf_quadratic_one(mc.orthant(1), sig, np.array([-0.3])) == pytest.approx(0.0, abs=1e-15)
    assert inf_quadratic_one(mc.full_space(1), sig, np.array([0.3])) == pytest.approx(-0.09, abs=1e-12)


def test_projection_property_suite():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        m = int(rng.integers(1, 5))
        cone = random_cone(rng, m)
        p = rng.normal(size=m) * rng.choice([0.5, 1.0, 5.0])
        q = rng.normal(size=m)
        proj_p = mc.project_cone(cone, p)
        proj_q = mc.project_cone(cone, q)
        # idempotence
        assert np.linalg.norm(mc.project_cone(cone, proj_p) - proj_p) < 1e-12
        # nonexpansiveness
        assert (np.linalg.norm(proj_p - proj_q)
                <= np.linalg.norm(p - q) + 1e-12)
        # positive homogeneity
        alpha = float(rng.uniform(0.0, 3.0))
        assert np.linalg.norm(mc.project_cone(cone, alpha * p) - alpha * proj_p) < 1e-10
        # membership of the projection
        assert in_cone(cone, proj_p, tol=1e-8)


def test_moreau_and_variational_inequality():
    rng = np.random.default_rng(77)
    for _ in range(400):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 5))
        cone = random_cone(rng, m)
        sigma = random_full_rank_sigma(rng, m, n)
        a = rng.normal(size=n)
        xi, g, dist_sq = project_one(cone, sigma, a)
        # representative maps back onto the projection
        assert np.linalg.norm(sigma.T @ g - xi) < 1e-10
        # Moreau orthogonality
        assert abs(xi @ (a - xi)) < 1e-10
        # variational inequality against random members of sigma' Gamma
        for _ in range(5):
            u = sigma.T @ sample_cone_point(rng, cone)
            assert (a - xi) @ (u - xi) <= 1e-10
        # distance-form identity for the quadratic infimum
        val = inf_quadratic_one(cone, sigma, a)
        assert val <= 0.0
        assert abs(val - (dist_sq - a @ a)) < 1e-10
        # direct evaluation at the minimizer agrees
        direct = g @ (sigma @ sigma.T) @ g - 2.0 * g @ (sigma @ a)
        assert abs(val - direct) < 1e-9


def test_generated_projection_matches_grid_oracle_randomized():
    rng = np.random.default_rng(4321)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        G = rng.normal(size=(m, k))
        cone = mc.generated(G)
        p = rng.normal(size=m)
        proj = mc.project_cone(cone, p)
        oracle = grid_search_projection(G, p, lam_max=6.0)
        assert np.linalg.norm(proj - oracle) < 2e-3


def test_batch_projection_matches_scalar():
    rng = np.random.default_rng(5)
    for kind in ("full", "orthant", "generated"):
        m, n = 2, 3
        cone = {"full": mc.full_space(m), "orthant": mc.orthant(m),
                "generated": mc.generated(rng.normal(size=(m, 3)))}[kind]
        sigma = random_full_rank_sigma(rng, m, n)
        A = rng.normal(size=(40, n))
        xi_b, gamma_b, dist_b = mc.cones.project_transformed_batch(cone, sigma, A)
        for i in range(40):
            xi, _, dist_sq = project_one(cone, sigma, A[i])
            assert np.linalg.norm(xi_b[i] - xi) < 1e-9
            assert abs(dist_b[i] - dist_sq) < 1e-9


def test_one_asset_projection_stays_on_admissible_side():
    # m = 1: sigma' Gamma is a line or a half-line along s; the projection's
    # coefficient must be admissible and beat both candidates k = 0 and the
    # unconstrained k = s'a / |s|^2 when that one is admissible
    rng = np.random.default_rng(41)
    rows, n = 200, 3
    cones = {(True, True): mc.full_space(1), (True, False): mc.orthant(1),
             (False, True): mc.generated(np.array([[-2.0]]))}
    for (pos, neg), cone in cones.items():
        for per_sample in (True, False):
            sigma = rng.normal(size=(rows, 1, n) if per_sample else (1, n))
            s = np.broadcast_to(sigma[..., 0, :], (rows, n))
            A = rng.normal(size=(rows, n))
            xi, gamma, dist_sq = mc.cones.project_transformed_batch(cone, sigma, A)
            k = gamma[:, 0]
            assert (pos or np.all(k <= 0.0)) and (neg or np.all(k >= 0.0))
            assert np.allclose(xi, k[:, None] * s, atol=1e-14)
            free = np.einsum("ij,ij->i", s, A) / np.einsum("ij,ij->i", s, s)
            ok = (free >= 0.0) & pos | (free <= 0.0) & neg
            best = np.einsum("ij,ij->i", A, A)
            d_free = np.einsum("ij,ij->i", A - free[:, None] * s, A - free[:, None] * s)
            best = np.where(ok, np.minimum(best, d_free), best)
            assert np.allclose(dist_sq, best, rtol=1e-12, atol=1e-14)
            assert np.any(~ok) == (not (pos and neg))


def test_ill_conditioned_generators_still_near_idempotent():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        G = rng.normal(size=(m, k))
        G[:, -1] = G[:, 0] + 1e-4 * rng.normal(size=m)  # nearly dependent columns
        cone = mc.generated(G)
        p = rng.normal(size=m) * 5.0
        proj = mc.project_cone(cone, p)
        again = mc.project_cone(cone, proj)
        assert np.linalg.norm(again - proj) < 1e-9


def test_non_finite_generators_rejected():
    from mmvcone.errors import ConfigInvalid
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigInvalid) as exc:
            mc.cone_from_config({"kind": "generated", "G": [[1.0, bad], [0.0, 1.0]]}, 2)
        assert exc.value.field == "cone.G"


def test_cone_from_config():
    assert mc.cone_from_config({"kind": "full"}, 2).kind == "full"
    assert mc.cone_from_config({"kind": "orthant"}, 2).kind == "orthant"
    g = mc.cone_from_config({"kind": "generated", "G": [[1.0, 0.0], [0.0, 1.0]]}, 2)
    assert g.generators.shape == (2, 2)


@pytest.mark.parametrize("build", [
    lambda: mc.cone_from_config({"kind": "generated", "G": [[], []]}, 2),
    lambda: mc.generated([[], []]),
    lambda: mc.generated(None),
    lambda: mc.generated("abc"),
    lambda: mc.generated([[1.0, True], [0.0, 1.0]]),
    lambda: mc.generated([1.0, 0.0]),
], ids=["config_no_generators", "no_generators", "none", "text", "boolean", "vector"])
def test_generated_cone_refuses_what_is_not_a_generator_matrix(build):
    # a cone with no generators, and G that is not a matrix of numbers, are
    # refused when the cone is built, not later in nnls
    from mmvcone.errors import ConfigInvalid
    with pytest.raises(ConfigInvalid) as exc:
        build()
    assert exc.value.field == "cone.G"


def test_generator_rows_must_match_the_asset_count():
    with pytest.raises(DimensionMismatch):
        mc.cone_from_config({"kind": "generated", "G": [[1.0, 0.0]]}, 2)
