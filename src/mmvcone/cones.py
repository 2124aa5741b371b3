"""Closed convex cones, projections, and the constrained quadratic infimum.

Every backward-equation driver in this package reduces to

    inf over pi in Gamma of [pi' sigma sigma' pi - 2 pi' sigma a]
        = dist^2(a, sigma' Gamma) - |a|^2,

so the projection onto sigma' Gamma is the one kernel everything shares.
Cones are full space, the nonnegative orthant, or finitely generated
{G lam : lam >= 0}.  Beyond the closed forms (one asset, full space), every
projection is one stacked nnls call, the orthant taking G = I; nnls itself
is closed-form for at most two generators and Lawson-Hanson beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NoConvergence, SingularGram

FULL = "full"
ORTHANT = "orthant"
GENERATED = "generated"

_NNLS_TOL = 1e-12
# two columns whose angle has |sin| <= 1e-14 count as dependent (_nnls_two)
_DEPENDENT_SIN_SQ = 1e-28


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
            if not np.all(np.isfinite(self.generators)):
                raise ConfigInvalid("generator matrix has non-finite entries", field="cone.G")


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


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise M[i] @ v[i] for stacks M (N, p, k) and v (N, k)."""
    return (M @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u[i] . v[i] of (N, p) stacks, summed over p in order, so each
    row's bits do not depend on the rows beside it."""
    out = u[:, 0] * v[:, 0]
    for i in range(1, u.shape[1]):
        out = out + u[:, i] * v[:, i]
    return out


def _nnls_two(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Closed-form nnls for k <= 2 columns, A (N, p, k) and B (N, p).

    With two independent columns and both least-squares coefficients > 0,
    take the interior solution, by Gram-Schmidt: with r = c1.c2/|c1|^2,
    u = c2 - r c1 and a = c1.b/|c1|^2, lam2 = u.(b - a c1)/|u|^2 and
    lam1 = a - r lam2 (subtracting a c1 first keeps nearly parallel columns
    accurate).  Otherwise take the single ray with the larger
    max(c_j.b, 0)^2/|c_j|^2 (ties to the lowest index), the apex when
    neither gains.  A zero column, or a second column whose angle to the
    first's line has sin^2 <= _DEPENDENT_SIN_SQ, offers only its ray.
    """
    N, k = len(B), A.shape[2]
    cols = [A[..., j] for j in range(k)]
    gram = [_dot(c, c) for c in cols]
    dual = [_dot(c, B) for c in cols]
    rays = [np.divide(np.maximum(d, 0.0), g, out=np.zeros(N), where=g > 0.0)
            for d, g in zip(dual, gram)]
    if k == 1:
        return rays[0][:, None]
    first = rays[0] * dual[0] >= rays[1] * dual[1]
    x = np.stack([np.where(first, rays[0], 0.0), np.where(first, 0.0, rays[1])], axis=1)
    (c1, c2), (g11, g22), (b1, _) = cols, gram, dual
    ratio = np.divide(_dot(c1, c2), g11, out=np.zeros(N), where=g11 > 0.0)
    u = c2 - ratio[:, None] * c1
    uu = _dot(u, u)
    free = (g11 > 0.0) & (uu > _DEPENDENT_SIN_SQ * g22)
    along = np.divide(b1, g11, out=np.zeros(N), where=free)
    lam2 = np.divide(_dot(u, B - along[:, None] * c1), uu, out=np.zeros(N), where=free)
    lam1 = along - lam2 * ratio
    inside = free & (lam1 > 0.0) & (lam2 > 0.0)
    return np.where(inside[:, None], np.stack([lam1, lam2], axis=1), x)


def nnls(A: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """Solve min |A x - b| subject to x >= 0.

    A is (p, k), shared, or (N, p, k); b is (p,) or (N, p); x is (k,) or
    (N, k).  Every row is solved on its own: a row's x does not depend on
    the rows beside it.  For k <= 2 the solve is closed-form (_nnls_two).
    For k >= 3 it is Lawson-Hanson's active-set method, the rows advancing
    in lockstep, each taking exactly its own steps.  The entering column
    has the largest dual w = A'(b - A x) above 1e-12, ties to the lowest
    index.  The passive-set least squares is one SVD solve
    (np.linalg.pinv) on the column-masked stack, defined for dependent or
    duplicated columns.  A column whose coefficient comes out <= 0 right
    after it enters is refused until x moves (Lawson & Hanson 1974, ch. 23);
    without this, round-off can cycle it in and out at zero steps.  Every
    other passive solve counts one iteration of its row, and NoConvergence
    is raised once a row exceeds max_iter (default max(10 k max(p, k), 50));
    max_iter applies to k >= 3 only.
    """
    b = np.asarray(b, dtype=float)
    B = np.atleast_2d(b)
    (N, p), k = B.shape, np.shape(A)[-1]
    A = np.broadcast_to(np.asarray(A, dtype=float), (N, p, k))
    if k <= 2:
        out = _nnls_two(A, B)
        return out[0] if b.ndim == 1 else out
    if max_iter is None:
        max_iter = max(10 * k * max(p, k), 50)
    out, rows, x = np.zeros((N, k)), np.arange(N), np.zeros((N, k))
    passive, refused = np.zeros((N, k), dtype=bool), np.zeros((N, k), dtype=bool)
    pricing, iters = np.ones(N, dtype=bool), np.zeros(N, dtype=int)
    while rows.size:
        w = _matvec(A.swapaxes(1, 2), B - _matvec(A, x))
        w[passive | refused] = -np.inf
        enter = w.max(axis=1) > _NNLS_TOL
        done = pricing & ~enter
        if done.any():   # priced with no column to enter: the row leaves the stack
            out[rows[done]] = x[done]
            if done.all():
                break
            keep = ~done
            rows, A, B, x, passive, refused, pricing, iters, w, enter = (
                a[keep] for a in (rows, A, B, x, passive, refused, pricing, iters, w, enter))
        new = (pricing & enter)[:, None] & (np.arange(k) == w.argmax(axis=1)[:, None])
        passive |= new
        s = np.where(passive, _matvec(np.linalg.pinv(A * passive[:, None, :]), B), 0.0)
        refuse = (new & (s <= 0.0)).any(axis=1)
        passive &= ~(new & refuse[:, None])
        refused = (refused | new) & refuse[:, None]
        iters += ~refuse
        if (iters > max_iter).any():
            raise NoConvergence(f"nnls exceeded {max_iter} iterations")
        feasible = ~refuse & ((s > 0.0) | ~passive).all(axis=1)
        back = ~refuse & ~feasible
        pricing = refuse | feasible
        x = np.where(feasible[:, None], s, x)
        # step back to the boundary of the feasible region; passive x are
        # > _NNLS_TOL and an entering column's s is > 0, so no ratio divides by 0
        hit = back[:, None] & passive & (s <= 0.0)
        alpha = np.where(hit, x / np.where(hit, x - s, 1.0), np.inf).min(axis=1)
        x = x + np.where(back, alpha, 0.0)[:, None] * (s - x)
        passive &= ~back[:, None] | (x > _NNLS_TOL)
        x[~passive] = 0.0
    return out[0] if b.ndim == 1 else out


def project_cone(cone: Cone, p: np.ndarray) -> np.ndarray:
    """Euclidean projection of p, a finite point, onto the cone."""
    p = np.asarray(p, dtype=float)
    if p.shape != (cone.dim,):
        raise DimensionMismatch(f"point has shape {p.shape}, cone dim is {cone.dim}")
    if not np.all(np.isfinite(p)):
        raise ConfigInvalid("point has non-finite entries", field="p")
    if cone.kind == FULL:
        return p.copy()
    if cone.kind == ORTHANT:
        return np.maximum(p, 0.0)
    lam = nnls(cone.generators, p)
    proj = cone.generators @ lam
    # points already in the cone map to themselves: absorb solver noise
    if np.linalg.norm(p - proj) <= 1e-11 * max(1.0, float(np.linalg.norm(p))):
        return p.copy()
    return proj


def two_sided(k):
    """The clip of a line: every coefficient is admissible."""
    return k


def ray_axis(cone: Cone, sigma: np.ndarray, N: int):
    """For m = 1, where sigma' Gamma = {k s : k admissible} is a ray or line.

    sigma is (1, n) shared or (N, 1, n) per sample.  Returns (s (N, n),
    |s|^2 (N,), clip), where clip maps an array of coefficients k to the
    nearest admissible ones (two_sided for a line); s and |s|^2 are
    zero-stride views when every row shares one s.  The projection of a is
    clip(s'a / |s|^2) s.
    """
    if cone.kind == FULL:
        pos = neg = True
    elif cone.kind == ORTHANT:
        pos, neg = True, False
    else:
        g = cone.generators[0]
        pos, neg = bool(np.any(g > 0)), bool(np.any(g < 0))

    def one_sided(k):
        if not pos:
            k = np.minimum(k, 0.0)
        if not neg:
            k = np.maximum(k, 0.0)
        return k

    clip = two_sided if pos and neg else one_sided

    s = np.broadcast_to(sigma[..., 0, :], (N, sigma.shape[-1]))
    if s.strides[0] == 0:       # one s for every row: |s|^2 from one row, shared
        return s, np.broadcast_to(np.einsum("ij,ij->i", s[:1], s[:1]), (N,)), clip
    return s, np.einsum("ij,ij->i", s, s), clip


def project_transformed_batch(cone: Cone, sigma: np.ndarray, A: np.ndarray):
    """Vectorized projection of many targets onto sigma' Gamma.

    sigma is (m, n) shared or (N, m, n) per sample; A is (N, n).  Returns
    (xi (N, n), gamma (N, m), dist_sq (N,)).  One-asset cones and the full
    space have closed forms; every other cone is {G lam : lam >= 0}, with
    G = I for the orthant, and all rows go through one stacked nnls solve
    of min |sigma' G lam - a| over lam >= 0.  A zero target projects to the
    apex.
    """
    A = np.asarray(A, dtype=float)
    N, n = A.shape
    m = cone.dim
    sigma = np.asarray(sigma, dtype=float)

    if m == 1:
        s, ss, clip = ray_axis(cone, sigma, N)
        gamma = clip(np.einsum("ij,ij->i", s, A) / ss)[:, None]
        xi = gamma * s
    else:
        sigma = np.broadcast_to(sigma, (N, m, n))
        sigma_t = np.swapaxes(sigma, 1, 2)
        if cone.kind == FULL:
            try:
                gamma = np.linalg.solve(sigma @ sigma_t, sigma @ A[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularGram("sigma sigma' is singular") from exc
        else:
            G = np.eye(m) if cone.kind == ORTHANT else cone.generators
            gamma = nnls(sigma_t @ G, A) @ G.T
        xi = _matvec(sigma_t, gamma)
    resid = A - xi
    return xi, gamma, np.einsum("ij,ij->i", resid, resid)


def cone_inf_quadratic_batch(cone: Cone, sigma: np.ndarray, A: np.ndarray) -> np.ndarray:
    _, _, dist_sq = project_transformed_batch(cone, sigma, A)
    return np.minimum(dist_sq - np.einsum("ij,ij->i", A, A), 0.0)
