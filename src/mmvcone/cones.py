"""Closed convex cones, projections, and the constrained quadratic infimum.

Every backward-equation driver in this package reduces to

    inf over pi in Gamma of [pi' sigma sigma' pi - 2 pi' sigma a]
        = dist^2(a, sigma' Gamma) - |a|^2,

so the projection onto sigma' Gamma is the one kernel everything shares.
Cones are full space, the nonnegative orthant, or finitely generated
{G lam : lam >= 0}; projections on generated images go through an
active-set nonnegative least squares solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NoConvergence, SingularGram

FULL = "full"
ORTHANT = "orthant"
GENERATED = "generated"

_NNLS_TOL = 1e-12


@dataclass(frozen=True)
class Cone:
    """Closed convex cone in R^m."""

    kind: str
    dim: int
    generators: np.ndarray | None = None  # (m, k), columns generate the cone

    def __post_init__(self):
        if self.kind not in (FULL, ORTHANT, GENERATED):
            raise ConfigInvalid(f"unknown cone kind {self.kind!r}", field="cone.kind")
        if self.kind == GENERATED:
            if self.generators is None or self.generators.ndim != 2:
                raise ConfigInvalid("generated cone needs an (m, k) generator matrix",
                                    field="cone.G")
            if self.generators.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"generators have {self.generators.shape[0]} rows, cone dim is {self.dim}")

    @property
    def k(self) -> int:
        return self.generators.shape[1] if self.kind == GENERATED else self.dim


def full_space(m: int) -> Cone:
    return Cone(FULL, m)


def orthant(m: int) -> Cone:
    return Cone(ORTHANT, m)


def generated(G) -> Cone:
    G = np.asarray(G, dtype=float)
    return Cone(GENERATED, G.shape[0], G)


def cone_from_config(cfg: dict, m: int) -> Cone:
    kind = cfg.get("kind")
    if kind in ("full", "full_space", "free"):
        return full_space(m)
    if kind == "orthant":
        return orthant(m)
    if kind == "generated":
        G = np.asarray(cfg.get("G"), dtype=float)
        if G.ndim != 2 or G.shape[0] != m:
            raise ConfigInvalid(f"generator matrix must be ({m}, k)", field="cone.G")
        return generated(G)
    raise ConfigInvalid(f"unknown cone kind {kind!r}", field="cone.kind")


def nnls(A: np.ndarray, b: np.ndarray, tol: float = _NNLS_TOL,
         max_iter: int | None = None) -> np.ndarray:
    """Lawson-Hanson active-set solve of min |A x - b| subject to x >= 0.

    Ties in the passive-set selection are broken by lowest index (np.argmax).
    Raises NoConvergence once the iteration budget is spent.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    nrows, ncols = A.shape
    if max_iter is None:
        max_iter = max(10 * ncols * max(nrows, ncols), 50)

    x = np.zeros(ncols)
    passive = np.zeros(ncols, dtype=bool)
    w = A.T @ b
    it = 0
    while True:
        candidates = ~passive
        if not candidates.any() or np.max(w[candidates]) <= tol:
            return x
        j = int(np.flatnonzero(candidates)[np.argmax(w[candidates])])
        passive[j] = True
        while True:
            it += 1
            if it > max_iter:
                raise NoConvergence(f"nnls exceeded {max_iter} iterations")
            idx = np.flatnonzero(passive)
            s = np.zeros(ncols)
            s[idx], *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if np.min(s[idx]) > 0.0:
                x = s
                break
            # step back to the boundary of the feasible region
            mask = passive & (s <= 0.0)
            denom = x[mask] - s[mask]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, x[mask] / denom, np.inf)
            alpha = float(np.min(ratios))
            x = x + alpha * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
        w = A.T @ (b - A @ x)


def project_cone(cone: Cone, p: np.ndarray) -> np.ndarray:
    """Euclidean projection of p onto the cone."""
    p = np.asarray(p, dtype=float)
    if p.shape != (cone.dim,):
        raise DimensionMismatch(f"point has shape {p.shape}, cone dim is {cone.dim}")
    if cone.kind == FULL:
        return p.copy()
    if cone.kind == ORTHANT:
        return np.maximum(p, 0.0)
    if not p.any():
        return np.zeros(cone.dim)
    lam = nnls(cone.generators, p, max_iter=10 * cone.k * cone.dim)
    proj = cone.generators @ lam
    # points already in the cone map to themselves: absorb solver noise
    if np.linalg.norm(p - proj) <= 1e-11 * max(1.0, float(np.linalg.norm(p))):
        return p.copy()
    return proj


def contains(cone: Cone, v: np.ndarray, tol: float = 1e-10) -> bool:
    """Membership test: distance to the cone within tol."""
    v = np.asarray(v, dtype=float)
    return bool(np.linalg.norm(v - project_cone(cone, v)) <= tol)


@dataclass(frozen=True)
class TransformedConePoint:
    """Projection onto sigma' Gamma together with a representative of Gamma."""

    xi: np.ndarray        # (n,) projection
    gamma_min: np.ndarray  # (m,) minimizer with sigma' gamma = xi
    dist_sq: float        # squared distance of the input to sigma' Gamma


def _one_row(cone: Cone, sigma, a):
    """Validate one (sigma, a) pair and shape it as a one-row batch."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    m, n = sigma.shape
    if m != cone.dim:
        raise DimensionMismatch(f"sigma has {m} rows, cone dim is {cone.dim}")
    if a.shape != (n,):
        raise DimensionMismatch(f"target has shape {a.shape}, expected ({n},)")
    return sigma, a[None, :]


def project_transformed(cone: Cone, sigma: np.ndarray, a: np.ndarray) -> TransformedConePoint:
    """Project a onto sigma' Gamma, i.e. solve min over pi in Gamma of |a - sigma' pi|^2.

    The one-row view of project_transformed_batch.
    """
    xi, gamma, dist_sq = project_transformed_batch(cone, *_one_row(cone, sigma, a))
    return TransformedConePoint(xi[0], gamma[0], float(dist_sq[0]))


def cone_inf_quadratic(cone: Cone, sigma: np.ndarray, a: np.ndarray) -> float:
    """inf over pi in Gamma of [pi' sigma sigma' pi - 2 pi' sigma a].

    Equals dist^2(a, sigma' Gamma) - |a|^2; never positive since pi = 0 is
    feasible.  The one-row view of cone_inf_quadratic_batch.
    """
    return float(cone_inf_quadratic_batch(cone, *_one_row(cone, sigma, a))[0])


def ray_axis(cone: Cone, sigma: np.ndarray, N: int):
    """For m = 1, where sigma' Gamma = {k s : k admissible} is a ray or line.

    sigma is (1, n) shared or (N, 1, n) per sample.  Returns (s (N, n),
    |s|^2 (N,), clip), where clip maps an array of coefficients k to the
    nearest admissible ones.  The projection of a is clip(s'a / |s|^2) s.
    """
    if cone.kind == FULL:
        pos = neg = True
    elif cone.kind == ORTHANT:
        pos, neg = True, False
    else:
        g = cone.generators[0]
        pos, neg = bool(np.any(g > 0)), bool(np.any(g < 0))

    def clip(k):
        if not pos:
            k = np.minimum(k, 0.0)
        if not neg:
            k = np.maximum(k, 0.0)
        return k

    s = np.broadcast_to(sigma[..., 0, :], (N, sigma.shape[-1]))
    return s, np.einsum("ij,ij->i", s, s), clip


def project_transformed_batch(cone: Cone, sigma: np.ndarray, A: np.ndarray):
    """Vectorized projection of many targets onto sigma' Gamma.

    sigma is (m, n) shared or (N, m, n) per sample; A is (N, n).  Returns
    (xi (N, n), gamma (N, m), dist_sq (N,)).  Full-space cones and all
    one-asset cones have closed forms; higher-dimensional orthant/generated
    cones fall back to the per-sample active-set solve.  A zero target
    projects to the apex.
    """
    A = np.asarray(A, dtype=float)
    N, n = A.shape
    sigma = np.asarray(sigma, dtype=float)
    per_sample = sigma.ndim == 3
    m = cone.dim

    if m == 1:
        s, ss, clip = ray_axis(cone, sigma, N)
        coef = clip(np.einsum("ij,ij->i", s, A) / ss)
        xi = coef[:, None] * s
        resid = A - xi
        return xi, coef[:, None], np.einsum("ij,ij->i", resid, resid)

    if cone.kind == FULL:
        try:
            if per_sample:
                gram = sigma @ np.swapaxes(sigma, 1, 2)
                gamma = np.linalg.solve(gram, (sigma @ A[..., None]))[..., 0]
                xi = (np.swapaxes(sigma, 1, 2) @ gamma[..., None])[..., 0]
            else:
                gram = sigma @ sigma.T
                gamma = np.linalg.solve(gram, sigma @ A.T).T
                xi = gamma @ sigma
        except np.linalg.LinAlgError as exc:
            raise SingularGram("sigma sigma' is singular") from exc
        resid = A - xi
        return xi, gamma, np.einsum("ij,ij->i", resid, resid)

    xi = np.empty_like(A)
    gamma = np.empty((N, m))
    for i in range(N):
        sig_i = sigma[i] if per_sample else sigma
        if cone.kind == ORTHANT:
            gamma[i] = nnls(sig_i.T, A[i], max_iter=10 * m * max(m, n))
        else:
            lam = nnls(sig_i.T @ cone.generators, A[i], max_iter=10 * cone.k * m)
            gamma[i] = cone.generators @ lam
        xi[i] = sig_i.T @ gamma[i]
    resid = A - xi
    return xi, gamma, np.einsum("ij,ij->i", resid, resid)


def cone_inf_quadratic_batch(cone: Cone, sigma: np.ndarray, A: np.ndarray) -> np.ndarray:
    _, _, dist_sq = project_transformed_batch(cone, sigma, A)
    return np.minimum(dist_sq - np.einsum("ij,ij->i", A, A), 0.0)
