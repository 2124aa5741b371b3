"""Backward-equation engine.

Four scalar backward SDEs share one driver kernel (the cone-constrained
quadratic infimum):

  Y   : dY = [ (1/Y) inf_{pi}(pi'ss'pi - 2 pi's(phi Y - Z)) + |Z|^2/Y ] dt + Z'dW,  Y_T = 1
  P   : dP = -inf_{pi}[P pi'ss'pi - 2 pi'(P mu + s Delta)] dt + Delta'dW,           P_T = 1
  P1  : dP1 = -{2 r P1 + inf_{pi}[P1 pi'ss'pi + 2 pi'(P1 mu + s Delta1)]} dt + ...
  P2  : dP2 = -{2 r P2 + inf_{pi}[P2 pi'ss'pi - 2 pi'(P2 mu + s Delta2)]} dt + ...

Deterministic coefficients reduce each equation to a linear ODE,
integrated backward by RK4.  Markov-factor coefficients are solved by
least-squares Monte Carlo: the main sample and its bootstrap resamples walk
back in lockstep, one stacked Gram solve per regression stage, and each
step closes on an implicit trapezoid (a quadratic root for one asset,
Picard iteration for m >= 2).  solve_markovian_many splits the (solve,
sample) items of its solves over the CPUs (forksplit.run).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import forksplit
from .cones import Cone, cone_inf_quadratic_batch, project_transformed, ray_axis
from .errors import (
    ConfigInvalid,
    InvalidBound,
    NoConvergence,
    NonPositiveY,
    PositivityLost,
    RegressionIllConditioned,
)
from .market import (
    PROBE_FACTOR_QUANTILES,
    MarketModel,
    coefficients_at,
    pricing_kernel_batch,
)
from .rng import substream

EQUATIONS = ("Y", "P", "P1", "P2")

_CLAMP_BUDGET = 1e-3          # fraction of path-steps allowed to hit the envelope
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX = 60
_BOUND_SLACK = 1e-10          # slack for the P_{i,0} <= h_0^2 comparison
_DRAW_BLOCK = 65536           # paths per substream of the forward draw


@dataclass(frozen=True)
class McSolverConfig:
    """Regression Monte Carlo settings of one solve."""

    paths: int
    basis_degree: int
    seed: int
    steps: int
    bootstrap: int = 16       # replicate solves used for the stderr estimate

    def __post_init__(self):
        if self.paths < 1000:
            raise ConfigInvalid("paths must be >= 1000", field="solver.paths")
        if not 0 <= self.basis_degree <= 6:
            raise ConfigInvalid("basis_degree must lie in [0, 6]", field="solver.basis_degree")
        if self.steps < 10:
            raise ConfigInvalid("steps must be >= 10", field="solver.steps")
        if self.bootstrap < 0 or self.bootstrap == 1:
            raise ConfigInvalid("bootstrap must be 0 or >= 2", field="solver.bootstrap")


def driver_f(cone: Cone, sigma, phi, y: float, z) -> float:
    """Driver of the Y equation at one point, projection form.

    f = -(1/y)|z + xi|^2 + 2 phi' xi  with  xi = Proj_{sigma' Gamma}(y phi - z).
    """
    if y <= 0:
        raise NonPositiveY(f"driver evaluated at y={y}")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    point = project_transformed(cone, sigma, y * phi - z)
    zx = z + point.xi
    return float(-(zx @ zx) / y + 2.0 * (phi @ point.xi))


def _sigma_side(equation, cone, sigma, phi, rows) -> tuple:
    """sigma/phi stage of one step's driver, row-local columns that need
    neither Z nor y: (s, |s|^2, p, clip) for one asset, sigma' Gamma the ray
    or line along s = sigma' (cones.ray_axis) and p = sign s'phi / |s|^2;
    (sigma, phi) with phi (rows, n) for m >= 2."""
    sigma = np.asarray(sigma, dtype=float)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), (rows, sigma.shape[-1]))
    if cone.dim == 1:
        s, ss, clip = ray_axis(cone, sigma, rows)
        sign = -1.0 if equation == "P1" else 1.0
        return s, ss, sign * np.einsum("ij,ij->i", s, phi) / ss, clip
    return sigma, phi


def _z_side(equation, cone, side, r_t, zcol, zz) -> tuple:
    """Z stage: (f, root).  f maps y (N,) to the driver (N,); root(cont, h)
    solves y = cont + h f(y) exactly for one asset, None for m >= 2.  side
    is _sigma_side of the same rows; zcol is s'z (N,) for one asset, z (N, n)
    otherwise; zz = |z|^2 (N,) is read by Y only.

    By Moreau's identity and positive homogeneity every driver is a function
    of q(y) = |P u(y)|^2, P the projection onto sigma' Gamma and
    u(y) = sign (phi + c z / y) (c = -1 for Y, else +1; sign = -1 for P1
    only): f_Y = y q - |z|^2 / y, f_P = -y q, f_P1 = f_P2 = 2 r y - y q.
    For m >= 2 q is one projection per evaluation.  One asset:
    q = |s|^2 clip(p + w / y)^2, w = sign c s'z / |s|^2, so y f is
    eps |s|^2 clip(p y + w)^2 + rho y^2 - zeta (eps = 1 for Y, else -1;
    rho = 2 r for P1, P2; zeta = |z|^2 for Y), and the trapezoid is a
    quadratic in y, taken with |s|^2 = 0 where the clip binds at its root.
    """
    sign = -1.0 if equation == "P1" else 1.0
    c = -1.0 if equation == "Y" else 1.0
    root = None

    if cone.dim == 1:
        _, ss, p, clip = side
        if ss.strides[0] == 0:      # one |s|^2 for every row: scalar arithmetic
            ss = float(ss[0])
        w = sign * c * zcol / ss
        eps = 1.0 if equation == "Y" else -1.0
        rho = 2.0 * r_t if equation in ("P1", "P2") else 0.0
        zeta = zz if equation == "Y" else 0.0

        def q(y):
            k = clip(p + w / y)
            return ss * k * k

        def quadratic(cont, h, e):
            # A y^2 - B y - C = 0 with A = 1 - h rho - h e p^2,
            # B = cont + 2 h e p w and C = h (e w^2 - zeta); the root near cont,
            # (B + sqrt(B^2 + 4 h A (e w^2 - zeta))) / 2A, mostly in place
            b = h * e * p
            a = (1.0 - h * rho) - b * p
            b *= 2.0 * w
            b += cont
            g = e * w * w - zeta
            g *= a * (4.0 * h)
            g += b * b
            np.sqrt(g, out=g)
            g += b
            g /= 2.0 * a
            return g

        def root(cont, h):
            e = eps * ss
            y = quadratic(cont, h, e)
            u = p * y + w
            clipped = clip(u) != u
            if clipped.any():
                y = quadratic(cont, h, np.where(clipped, 0.0, e))
            return y
    else:
        sigma, phi = side

        def q(y):
            u = sign * (phi + c * zcol / y[:, None])
            return -cone_inf_quadratic_batch(cone, sigma, u)

    if equation == "Y":
        return (lambda y: y * q(y) - zz / y), root
    if equation == "P":
        return (lambda y: -y * q(y)), root
    return (lambda y: 2.0 * r_t * y - y * q(y)), root


def _prepare_driver(equation, cone, sigma, phi, r_t, z) -> Callable:
    """One step's driver as a function of y alone: _sigma_side, then _z_side."""
    z = np.asarray(z, dtype=float)
    side = _sigma_side(equation, cone, sigma, phi, z.shape[0])
    zcol = np.einsum("ij,ij->i", side[0], z) if cone.dim == 1 else z
    zz = np.einsum("ij,ij->i", z, z) if equation == "Y" else None
    return _z_side(equation, cone, side, r_t, zcol, zz)[0]


def _driver_batch(equation, cone, sigma, phi, r_t, y, z, step=None):
    """Vectorized driver f with the convention d(value) = -f dt + Z'dW.

    sigma: (m, n) shared or (N, m, n); phi: (n,) or (N, n); y: (N,), positive;
    z: (N, n).  step, when given, is the driver already prepared from these
    arguments (_prepare_driver, or _sigma_side then _z_side), and only y is
    read.
    """
    if step is None:
        step = _prepare_driver(equation, cone, sigma, phi, r_t, z)
    return step(np.asarray(y, dtype=float))


def positivity_envelope(model: MarketModel, grid: np.ndarray) -> tuple[float, float]:
    """(lower, upper) = exp(-/+ C T) with C = max over grid nodes t of
    |2 r(t)| + max over probe states of |phi(t, f)|^2, the probe states
    those of MarketModel.probe_lattice (PROBE_FACTOR_QUANTILES per node)."""
    t_rows, f_rows = model.probe_lattice(grid, PROBE_FACTOR_QUANTILES)
    phis = pricing_kernel_batch(model, t_rows, f_rows)
    phi_sq = np.einsum("ij,ij->i", phis, phis).reshape(len(grid), -1).max(axis=1)
    rates = np.array([abs(2.0 * model.rate.at(float(t))) for t in grid])
    c = float(np.max(rates + phi_sq))
    horizon = float(grid[-1])
    return math.exp(-c * horizon), math.exp(c * horizon)


def _step_rates(model: MarketModel, grid: np.ndarray) -> np.ndarray:
    """Exact average rate over each step of the uniform grid."""
    return model.rate.step_integrals(grid) / (model.horizon_T / (len(grid) - 1))


def _state_row(f, markov: bool) -> np.ndarray:
    """One factor state as a one-row batch; factor-driven solutions require it."""
    if f is None:
        if markov:
            raise ConfigInvalid("factor state required for markovian solutions", field="f")
        return np.zeros(1)
    return np.array([f], dtype=float)


@dataclass
class BsdeSolution:
    """Time-gridded backward solution: per node, a scalar value (z = 0) for
    deterministic solves, or polynomial coefficients in the normalized
    factor for the value and the driving component of Z.  Transformed
    solutions keep the base tables and map them at evaluation time."""

    equation: str
    grid: np.ndarray
    y_values: np.ndarray
    z_values: np.ndarray
    bounds: tuple[float, float]
    n: int
    kind: str = "deterministic"
    basis_degree: int = 0
    basis_loc: np.ndarray | None = None
    basis_scale: np.ndarray | None = None
    driving_index: int = 0
    f0: float | None = None
    clamp_events: int = 0
    path_steps: int = 0
    replicates: list | None = None              # (y_tab, z_tab, loc, scale) per replicate
    replicate_clamp_events: list | None = None   # one count per replicate
    transform: tuple | None = None
    seed: int | None = None

    def _locate(self, t):
        """Node i at or before t and weight w toward node i + 1, for a time or
        one per row: w = 0 on a node, and t is held to the grid's ends."""
        grid = self.grid
        t = np.minimum(np.maximum(t, grid[0]), grid[-1])
        i = np.searchsorted(grid, t, side="right") - 1
        k = np.minimum(i, len(grid) - 2)
        return i, (t - grid[i]) / (grid[k + 1] - grid[k])

    def _node_batch(self, i, fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(value (N,), z (N, n)) at grid node i (one node, or one per row)
        before any transform."""
        rows = len(fvals)
        if self.kind == "deterministic":
            return (np.full(rows, self.y_values[i]),
                    np.broadcast_to(self.z_values[i], (rows, self.n)))
        u = (np.asarray(fvals, dtype=float) - self.basis_loc[i]) / self.basis_scale[i]
        z = np.zeros((rows, self.n))
        # tensor=False: one coefficient column per row when i is one node per row
        polyval = np.polynomial.polynomial.polyval
        z[:, self.driving_index] = polyval(u, self.z_values[i].T, tensor=False)
        return polyval(u, self.y_values[i].T, tensor=False), z

    def _raw_batch(self, t, fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(value (N,), z (N, n)) before any transform, linear in t between nodes;
        t is a time or one per row."""
        i, w = self._locate(t)
        base, z = self._node_batch(i, fvals)
        mid = w != 0.0
        if mid.any():
            base_j, z_j = self._node_batch(i + mid, fvals)
            base = np.where(mid, (1.0 - w) * base + w * base_j, base)
            wz = w[..., None]
            z = np.where(mid[..., None], (1.0 - wz) * z + wz * z_j, z)
        return base, z

    def _transformed_batch(self, t, fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(value (N,), z (N, n)) after the pointwise transform, if any; t is
        a time or one per row.  "recip" is (1/P, -Delta/P^2), "h2" is
        (h^2/P2, -(h^2/P2^2) Delta2).  PositivityLost names the time of the
        lowest base value when it is not positive."""
        base, z = self._raw_batch(t, fvals)
        if self.transform is None:
            return base, z
        k = int(np.argmin(base))
        if base[k] <= 0:
            raise PositivityLost(
                f"base solution reached {base[k]} at t={np.broadcast_to(t, base.shape)[k]}")
        if self.transform[0] == "recip":
            return 1.0 / base, -z / (base * base)[:, None]
        h = self.transform[1].discount(t)
        return h * h / base, -(h * h / (base * base))[:, None] * z

    # -- public evaluation: batch forms and their one-row views ----------------

    def value_batch(self, t, fvals: np.ndarray) -> np.ndarray:
        """Values at factor states fvals (N,); t is a time or one per row."""
        return self._transformed_batch(t, fvals)[0]

    def z_batch(self, t, fvals: np.ndarray) -> np.ndarray:
        """Z (N, n) at factor states fvals (N,); t is a time or one per row."""
        return self._transformed_batch(t, fvals)[1]

    def value(self, t: float, f=None) -> float:
        return float(self.value_batch(t, _state_row(f, self.kind != "deterministic"))[0])

    def z_at(self, t: float, f=None) -> np.ndarray:
        return self.z_batch(t, _state_row(f, self.kind != "deterministic"))[0]

    @property
    def value0(self) -> float:
        return self.value(0.0, self.f0)

    @property
    def value0_stderr(self) -> float | None:
        vals = self.replicate_values0
        if vals is None:
            return None
        return float(np.std(vals, ddof=1))

    @property
    def replicate_values0(self) -> np.ndarray | None:
        if not self.replicates:
            return None
        return np.array([self.replicate(b).value(0.0, self.f0)
                         for b in range(len(self.replicates))])

    def replicate(self, b: int) -> "BsdeSolution":
        """Bootstrap replicate view: same transform, the replicate's tables and
        the basis normalization it was fitted in."""
        if not self.replicates:
            raise ConfigInvalid("solution carries no bootstrap replicates", field="replicates")
        y_tab, z_tab, loc, scale = self.replicates[b]
        clamps = (self.clamp_events if self.replicate_clamp_events is None
                  else self.replicate_clamp_events[b])
        return dc_replace(self, y_values=y_tab, z_values=z_tab, basis_loc=loc,
                          basis_scale=scale, replicates=None,
                          clamp_events=clamps, replicate_clamp_events=None)

    def min_value_on_grid(self) -> float:
        # the basis is centred on basis_loc, where the value is the constant coefficient
        vals = self.y_values if self.kind == "deterministic" else self.y_values[:, 0]
        return float(np.min(vals))


def _deterministic_rhs(model, cone, equation, times, r_steps):
    """dv/dt per unit v for the Z == 0 reduction, where every driver is
    positively homogeneous of degree one in v, so dv/dt = v * rhs(t): one
    entry per time, with r_steps the average rate over each row's step."""
    sig, _, phi = coefficients_at(model, times, np.zeros(len(times)))
    return -_driver_batch(equation, cone, sig, phi, r_steps,
                          np.ones(len(times)), np.zeros((len(times), model.n)))


def solve_deterministic(model: MarketModel, cone: Cone, equation: str,
                        steps: int) -> BsdeSolution:
    """Backward RK4 integration of the ODE obtained by setting Z identically 0.

    The ODE is linear, dv/dt = v * rhs(t), so rhs is tabulated once on every
    step's stage nodes (t_{i+1}, t_{i+1} - dt/2, t_i) and RK4 runs on scalars.
    """
    if equation not in EQUATIONS:
        raise ConfigInvalid(f"unknown equation {equation!r}", field="equation")
    if model.coefficients.kind != "deterministic":
        raise ConfigInvalid("coefficients are not deterministic", field="coefficients")
    if steps < 10:
        raise ConfigInvalid("steps must be >= 10", field="steps")

    T = model.horizon_T
    grid = np.linspace(0.0, T, steps + 1)
    lower, upper = positivity_envelope(model, grid)
    dt = T / steps

    nodes = np.stack([grid[1:], grid[1:] - 0.5 * dt, grid[:-1]], axis=1)   # (steps, 3)
    rhs = _deterministic_rhs(model, cone, equation, nodes.ravel(),
                             np.repeat(_step_rates(model, grid), 3)).reshape(steps, 3).tolist()

    vals = np.empty(steps + 1)
    vals[steps] = 1.0
    v = 1.0
    for i in range(steps - 1, -1, -1):
        g1, gm, g0 = rhs[i]
        k1 = g1 * v
        k2 = gm * (v - 0.5 * dt * k1)
        k3 = gm * (v - 0.5 * dt * k2)
        k4 = g0 * (v - dt * k3)
        v = v - dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(v) or v < lower * (1.0 - 1e-9):
            raise PositivityLost(
                f"{equation} crossed the positivity envelope at t={grid[i]:.6f}: "
                f"{v} < {lower}")
        vals[i] = v

    sol = BsdeSolution(
        equation=equation, grid=grid, y_values=vals,
        z_values=np.zeros((steps + 1, model.n)), bounds=(lower, upper), n=model.n,
    )
    _check_comparison_bound(model, sol)
    return sol


def _basis_matrix(centred, scale, degree, out):
    """Powers 1, u, ..., u^degree of u = centred / scale (written over
    centred), each the previous column times u (the same bits as np.vander),
    as a C-contiguous (N, w) view of the front of the contiguous buffer out;
    w = 1 for a spread < 1e-12."""
    N, w = len(centred), (1 if scale < 1e-12 else degree + 1)
    basis = out.reshape(-1)[: N * w].reshape(N, w)
    basis[:, 0] = 1.0
    if w > 1:
        u = np.divide(centred, scale, out=centred)
        for k in range(1, w):
            np.multiply(basis[:, k - 1], u, out=basis[:, k])
    return basis


def _rows(a, idx):
    """Rows idx of a per-row array.  idx None means every row as stored; an
    array shared by all rows (zero row stride) is its own gather."""
    if idx is None or not isinstance(a, np.ndarray) or a.strides[0] == 0:
        return a
    return a[idx]


def _gram_groups(grams, widths, t):
    """(w, samples, Grams (G, w, w)) per basis width w among the samples'
    Grams (K, width, width).  RegressionIllConditioned when an eigenvalue
    ratio exceeds 1e12 or a smallest eigenvalue is not positive."""
    groups = []
    for wk in sorted(set(widths)):
        sel = [k for k, w in enumerate(widths) if w == wk]
        sel = slice(None) if len(sel) == len(widths) else sel
        gram = grams[sel, :wk, :wk]
        if wk > 1:
            ev = np.linalg.eigvalsh(gram)
            with np.errstate(divide="ignore"):    # a non-positive smallest: inf
                cond = float(np.max(ev[:, -1] / np.maximum(ev[:, 0], 0.0)))
            if cond > 1e12:
                raise RegressionIllConditioned(f"basis Gram condition {cond:.2e} at t={t:.4f}")
        groups.append((wk, sel, gram))
    return groups


def _solve_groups(groups, rhs):
    """Coefficients (K, width) for right-hand sides rhs (K, width, 1), one
    np.linalg.solve per basis width, zero past a sample's own width."""
    out = np.zeros(rhs.shape[:2])
    for wk, sel, gram in groups:
        out[sel, :wk] = np.linalg.solve(gram, rhs[sel, :wk])[..., 0]
    return out


def _backward_pass(model, cone, equation, cfg, grid, F, dWj, lower, upper,
                   samples=(None,)):
    """Regression backward induction over stored forward paths, for several
    samples of them in lockstep.

    F (paths, steps + 1) and dWj (paths, steps) are views of time-major
    arrays; samples lists row-index vectors into them, None for the rows as
    stored.  Returns one (y_tab, z_tab, loc, scale, clamps) per sample, bit
    for bit those of a one-sample pass over F[idx].

    Each step evaluates sigma and phi (coefficients_at) and the sigma-side
    driver columns once, and each sample gathers them by its indices.  Each
    regression stage (continuation value, value fit, Z, refit of the new
    value) is one stacked solve per basis width.  The step closes with the
    trapezoid (_close_step), h = dt / 2,

        V_i = E[V_{i+1} + h f_{i+1} | F_i] + h f_i(V_i, Z_i),

    not implicit Euler, whose O(dt) bias the identity checks resolve.  Both
    ends use the step's exact average rate, so the carried f_{i+1} gains
    2 (r_i - r_{i+1}) V_{i+1}.  The clamp events of the sample None (the
    rows as stored) are held to _CLAMP_BUDGET after every step
    (PositivityLost).
    """
    Ft, dWt = F.T, dWj.T
    paths = Ft.shape[1]
    steps = cfg.steps
    dt = model.horizon_T / steps
    h = 0.5 * dt
    degree = cfg.basis_degree
    width = degree + 1
    j = model.coefficients.driving_index
    r_step = _step_rates(model, grid)
    rate_term = equation in ("P1", "P2")
    budget = _CLAMP_BUDGET * paths * steps
    K = len(samples)

    # Z_T = 0, so the terminal driver is exact
    sig, _, phi = coefficients_at(model, float(grid[-1]), Ft[-1])
    f_term = _driver_batch(equation, cone, sig, phi, r_step[-1],
                           np.ones(paths), np.zeros((paths, model.n)))
    V = np.ones((K, paths))
    f_next = np.stack([_rows(f_term, idx) for idx in samples])
    y_tab = np.zeros((K, steps + 1, width))
    y_tab[:, steps, 0] = 1.0
    z_tab = np.zeros((K, steps + 1, width))
    loc = np.zeros((K, steps + 1))
    scale = np.ones((K, steps + 1))
    clamps = [0] * K
    bases = np.empty((K, paths, width))
    grams = np.zeros((K, width, width))
    rhs = np.zeros((3, K, width, 1))

    for i in range(steps - 1, -1, -1):
        t = float(grid[i])
        r_t = r_step[i]
        sig, _, phi = coefficients_at(model, t, Ft[i])
        side = _sigma_side(equation, cone, sig, phi, paths)
        if rate_term and i + 1 < steps:
            f_next += 2.0 * (r_t - r_step[i + 1]) * V
        basis = []
        for k, idx in enumerate(samples):
            # np.mean and np.std, from one centred copy: sum / n, the same bits
            fv = _rows(Ft[i], idx)
            loc[k, i] = np.add.reduce(fv) / paths
            centred = fv - loc[k, i]
            sd = math.sqrt(np.add.reduce(centred * centred) / paths)
            scale[k, i] = sd if sd >= 1e-12 else 1.0
            b = _basis_matrix(centred, sd, degree, bases[k])
            basis.append(b)
            wk = b.shape[1]
            grams[k, :wk, :wk] = b.T @ b
            rhs[0, k, :wk, 0] = b.T @ (V[k] + h * f_next[k])
            rhs[1, k, :wk, 0] = b.T @ V[k]
        groups = _gram_groups(grams, [b.shape[1] for b in basis], t)
        c_cont = _solve_groups(groups, rhs[0])
        c_y = _solve_groups(groups, rhs[1])
        for k, b in enumerate(basis):
            # centered martingale-increment estimator: same conditional
            # expectation as v * dW / dt, variance smaller by a factor ~ dt
            wk, dw = b.shape[1], _rows(dWt[i], samples[k])
            rhs[2, k, :wk, 0] = b.T @ ((V[k] - b @ c_y[k, :wk]) * dw / dt)
        c_z = _solve_groups(groups, rhs[2])

        for k, (b, idx) in enumerate(zip(basis, samples)):
            wk = b.shape[1]
            cont = b @ c_cont[k, :wk]
            zj = b @ c_z[k, :wk]
            # Z_i is zj in column j and zero elsewhere
            side_k = tuple(_rows(a, idx) for a in side)
            if cone.dim == 1:
                zcol = side_k[0][:, j] * zj
            else:
                zcol = np.zeros((paths, model.n))
                zcol[:, j] = zj
            step, root = _z_side(equation, cone, side_k, r_t, zcol,
                                 zj * zj if equation == "Y" else None)
            V[k], f_next[k], n_off = _close_step(equation, step, root, cont, h, lower, upper, t)
            clamps[k] += n_off
            if idx is None and clamps[k] > budget:
                raise PositivityLost(
                    f"{clamps[k]} clamp events exceed {_CLAMP_BUDGET:.1%} of "
                    f"{paths * steps} path-steps")
            rhs[0, k, :wk, 0] = b.T @ V[k]
        y_tab[:, i] = _solve_groups(groups, rhs[0])
        z_tab[:, i] = c_z
    return [(y_tab[k], z_tab[k], loc[k], scale[k], clamps[k]) for k in range(K)]


def _close_step(equation, step, root, cont, h, lower, upper, t):
    """(v, f(v), clamp events) for the fixed point y of y -> cont + h f(clip(y)),
    f = step, clip to [lower, upper], v = clip(y).

    With root (one asset) y is the exact root of y = cont + h f(y) inside
    the envelope and cont + h f(v) outside, verified by its residual;
    without, Picard iteration from clip(cont) within _FIXED_POINT_MAX
    evaluations.  A miss of _FIXED_POINT_TOL raises NoConvergence.
    """
    if root is not None:
        y = root(cont, h)
    else:
        y = np.clip(cont, lower, upper)
        for _ in range(_FIXED_POINT_MAX):
            prev = y
            y = cont + h * _driver_batch(equation, None, None, None, None,
                                         np.clip(prev, lower, upper), None, step)
            if float(np.max(np.abs(y - prev))) < _FIXED_POINT_TOL:
                break
        else:
            raise NoConvergence(
                f"{equation} driver solve not converged after {_FIXED_POINT_MAX} "
                f"fixed-point iterations at t={t:.4f}")
    v = np.clip(y, lower, upper)
    f = _driver_batch(equation, None, None, None, None, v, None, step)
    off = v != y
    n_off = int(np.count_nonzero(off))
    if root is not None:
        r = y - cont - h * f
        if n_off:
            r[off] = 0.0
        resid = float(np.max(np.abs(r, out=r)))
        if not (resid <= _FIXED_POINT_TOL and np.isfinite(y).all()):
            raise NoConvergence(
                f"{equation} trapezoid root residual {resid:.2e} at t={t:.4f}")
    return v, f, n_off


def _forward(model, cfg, last):
    """A job's draws from cfg.seed: factor paths F (steps + 1, paths) and
    increments dWj (steps, paths), time-major, one substream per _DRAW_BLOCK
    paths; then samples 0..last, None for the rows as drawn and the resample
    index vectors of the bootstrap lane in order."""
    cf = model.coefficients
    steps, paths = cfg.steps, cfg.paths
    dt = model.horizon_T / steps
    F = np.empty((steps + 1, paths))
    dWj = np.empty((steps, paths))
    F[0] = cf.f0
    for block, start in enumerate(range(0, paths, _DRAW_BLOCK)):
        stop = min(start + _DRAW_BLOCK, paths)
        d = substream(cfg.seed, block).standard_normal((stop - start, steps))
        d *= math.sqrt(dt)
        dWj[:, start:stop] = d.T
    for i in range(steps):
        F[i + 1] = F[i] + cf.kappa * (cf.mean_level - F[i]) * dt + cf.nu * dWj[i]
    boot_rng = substream(cfg.seed, 45803)  # dedicated bootstrap lane
    return F, dWj, [None] + [boot_rng.integers(0, paths, size=paths) for _ in range(last)]


def _walk_group(model, cone, jobs, group):
    """Walk (job, sample) items job by job: the job's draws are made here
    (_forward), walked by one _backward_pass over the group's samples of the
    job and dropped.  Returns ({(job, sample): walk}, failure), failure the
    ((job, first sample), exception) that ended the group, else None."""
    walks = {}
    for j in dict.fromkeys(j for j, _ in group):
        equation, cfg, grid, lower, upper = jobs[j]
        ks = [k for i, k in group if i == j]
        try:
            F, dWj, samples = _forward(model, cfg, max(ks))
            done = _backward_pass(model, cone, equation, cfg, grid, F.T, dWj.T,
                                  lower, upper, [samples[k] for k in ks])
        except Exception as exc:
            return walks, ((j, ks[0]), exc)
        del F, dWj, samples
        walks.update(zip([(j, k) for k in ks], done))
    return walks, None


def _split_walk(model, cone, jobs):
    """({(job, sample): walk}, failure) for every item of the jobs, split into
    one contiguous group of items per CPU by forksplit.run; failure is the
    ((job, first sample), exception) a one-process walk meets first, else None."""
    items = [(j, k) for j, job in enumerate(jobs) for k in range(job[1].bootstrap + 1)]
    n = max(min(forksplit.cpus(), len(items)), 1)
    groups = [[items[i] for i in p] for p in np.array_split(np.arange(len(items)), n)]
    results, failure = forksplit.run(lambda group: _walk_group(model, cone, jobs, group),
                                     groups, lambda group: group[0])
    walks = {}
    for done in results:
        walks.update(done or {})
    return walks, failure


def solve_markovian_many(model: MarketModel, cone: Cone, jobs) -> list[BsdeSolution]:
    """Least-squares Monte Carlo backward induction for factor-driven
    coefficients, one solution per (equation, cfg) job, in one split walk.

    Each job simulates its factor forward from cfg.seed; cfg.bootstrap
    resamples of its rows walk back beside the main sample, each with its
    tables and basis loc/scale (value0_stderr), the bits of a one-process
    walk.  ConfigInvalid comes before any walk; then the error raised is
    the first of the jobs solved in order: each job's walk error (the group
    with its main sample first), then its comparison bound."""
    for equation, _ in jobs:
        if equation not in EQUATIONS:
            raise ConfigInvalid(f"unknown equation {equation!r}", field="equation")
    cf = model.coefficients
    if cf.kind != "markov":
        raise ConfigInvalid("coefficients are not markov-factor", field="coefficients")
    grids = {}      # steps -> (grid, lower, upper), one envelope per grid
    for steps in dict.fromkeys(cfg.steps for _, cfg in jobs):
        grid = np.linspace(0.0, model.horizon_T, steps + 1)
        grids[steps] = (grid, *positivity_envelope(model, grid))
    prepared = [(equation, cfg, *grids[cfg.steps]) for equation, cfg in jobs]
    walks, failure = _split_walk(model, cone, prepared)
    failed = failure[0][0] if failure else len(jobs)
    sols = []
    for j, (equation, cfg, grid, lower, upper) in enumerate(prepared):
        if j == failed:
            raise failure[1]
        y_tab, z_tab, loc, scale, clamps = walks[j, 0]
        reps = [walks[j, k] for k in range(1, cfg.bootstrap + 1)]
        sols.append(BsdeSolution(
            equation=equation, grid=grid, y_values=y_tab, z_values=z_tab,
            bounds=(lower, upper), n=model.n, kind="markovian",
            basis_degree=cfg.basis_degree, basis_loc=loc, basis_scale=scale,
            driving_index=cf.driving_index, f0=cf.f0, clamp_events=clamps,
            path_steps=cfg.paths * cfg.steps,
            replicates=[rep[:4] for rep in reps] or None,
            replicate_clamp_events=[rep[4] for rep in reps] or None, seed=cfg.seed,
        ))
        _check_comparison_bound(model, sols[-1])
    return sols


def solve_markovian(model: MarketModel, cone: Cone, equation: str,
                    cfg: McSolverConfig) -> BsdeSolution:
    """One job of solve_markovian_many."""
    return solve_markovian_many(model, cone, [(equation, cfg)])[0]


def _require_positive(sol: BsdeSolution, label: str) -> None:
    if sol.min_value_on_grid() <= 0:
        raise PositivityLost(f"{label} solution is not uniformly positive")


def _check_comparison_bound(model: MarketModel, sol: BsdeSolution) -> None:
    if sol.equation not in ("P1", "P2"):
        return
    h0_sq = model.h0 ** 2
    v0 = sol.value(0.0, sol.f0)
    if v0 > h0_sq + _BOUND_SLACK:
        raise InvalidBound(
            f"{sol.equation} initial value {v0} exceeds h0^2 = {h0_sq}")


def transform_p_to_y(p_sol: BsdeSolution) -> BsdeSolution:
    """(Y, Z) = (1/P, -Delta/P^2), valid whenever P stays uniformly positive."""
    if p_sol.equation != "P":
        raise ConfigInvalid(f"expected a P solution, got {p_sol.equation}", field="equation")
    if p_sol.transform is not None:
        raise ConfigInvalid("cannot re-transform a transformed solution", field="transform")
    lo, up = p_sol.bounds
    _require_positive(p_sol, "P")
    if p_sol.kind == "deterministic":
        p = p_sol.y_values
        return dc_replace(
            p_sol, equation="Y", y_values=1.0 / p,
            z_values=-p_sol.z_values / (p * p)[:, None],
            bounds=(1.0 / up, 1.0 / lo),
        )
    return dc_replace(p_sol, equation="Y", bounds=(1.0 / up, 1.0 / lo),
                      transform=("recip",))


def transform_p2_to_y(p2_sol: BsdeSolution, model: MarketModel) -> BsdeSolution:
    """(Y, Z) = (h^2/P2, -(h^2/P2^2) Delta2), h = model.discount."""
    if p2_sol.equation != "P2":
        raise ConfigInvalid(f"expected a P2 solution, got {p2_sol.equation}", field="equation")
    if p2_sol.transform is not None:
        raise ConfigInvalid("cannot re-transform a transformed solution", field="transform")
    lo, up = p2_sol.bounds
    h = model.discount(p2_sol.grid)
    h_min, h_max = float(np.min(h)), float(np.max(h))
    new_bounds = (h_min * h_min / up, h_max * h_max / lo)
    _require_positive(p2_sol, "P2")
    if p2_sol.kind == "deterministic":
        p = p2_sol.y_values
        return dc_replace(
            p2_sol, equation="Y", y_values=h ** 2 / p,
            z_values=-(h ** 2 / (p * p))[:, None] * p2_sol.z_values,
            bounds=new_bounds,
        )
    return dc_replace(p2_sol, equation="Y", bounds=new_bounds, transform=("h2", model))
