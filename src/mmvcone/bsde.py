"""Backward-equation engine.

Four scalar backward SDEs share one driver kernel (the cone-constrained
quadratic infimum):

  Y   : dY = [ (1/Y) inf_{pi}(pi'ss'pi - 2 pi's(phi Y - Z)) + |Z|^2/Y ] dt + Z'dW,  Y_T = 1
  P   : dP = -inf_{pi}[P pi'ss'pi - 2 pi'(P mu + s Delta)] dt + Delta'dW,           P_T = 1
  P1  : dP1 = -{2 r P1 + inf_{pi}[P1 pi'ss'pi + 2 pi'(P1 mu + s Delta1)]} dt + ...
  P2  : dP2 = -{2 r P2 + inf_{pi}[P2 pi'ss'pi - 2 pi'(P2 mu + s Delta2)]} dt + ...

Deterministic coefficients reduce each equation to a linear ODE,
integrated backward by RK4.  Markov-factor coefficients are solved by
least-squares Monte Carlo (_backward_pass), the main sample and its
bootstrap resamples in lockstep, split over the CPUs by solve_markovian_many.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import forksplit
from .cones import Cone, cone_inf_quadratic_batch, ray_axis, row_dot, two_sided
from .errors import (
    ConfigInvalid,
    InvalidBound,
    NoConvergence,
    PositivityLost,
    RegressionIllConditioned,
)
from .market import (
    PROBE_FACTOR_QUANTILES,
    MarketModel,
    _check_times,
    _state_rows,
    coefficients_at,
    locate,
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


def _sigma_side(equation, cone, sigma, phi, rows) -> tuple:
    """The driver's columns that need neither Z nor y: (s, |s|^2, p, clip)
    for one asset, s = sigma' spanning sigma' Gamma (cones.ray_axis) and
    p = sign s'phi / |s|^2 (s'phi by cones.row_dot); (sigma, phi (rows, n))
    for m >= 2."""
    sigma = np.asarray(sigma, dtype=float)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), (rows, sigma.shape[-1]))
    if cone.dim == 1:
        s, ss, clip = ray_axis(cone, sigma, rows)
        p = row_dot(s, phi)
        p /= -ss if equation == "P1" else ss
        return s, ss, p, clip
    return sigma, phi


def _z_side(equation, cone, side, r_t, zcol, zz) -> tuple:
    """(f, root): f maps y (N,) to a fresh driver array (N,); root(cont, h)
    solves y = cont + h f(y) for one asset, returning (y, min y), None for
    m >= 2.  side is _sigma_side of the rows (s itself unread), zcol s'z (N,)
    for one asset, z (N, n) otherwise.

    By Moreau's identity every driver is a function of q(y) = |P u(y)|^2,
    P the projection onto sigma' Gamma, u = sign (phi + c z / y) (c = -1 for
    Y, else 1; sign = -1 for P1 only): f_Y = y q - |z|^2 / y, f_P = -y q,
    f_P1 = f_P2 = 2 r y - y q.  One asset: q = |s|^2 clip(p + w / y)^2,
    w = sign c s'z / |s|^2, and the trapezoid is a quadratic in y, taken with
    |s|^2 = 0 on rows where the clip binds at its root.  A line's clip
    (two_sided) binds only on NaN rows, so only a root with one is tested.
    """
    sign = -1.0 if equation == "P1" else 1.0
    c = -1.0 if equation == "Y" else 1.0
    root = None

    if cone.dim == 1:
        _, ss, p, clip = side
        if ss.strides[0] == 0:      # one |s|^2 for every row: scalar arithmetic
            ss = float(ss[0])
        w = zcol / (sign * c * ss)
        eps = 1.0 if equation == "Y" else -1.0
        rho = 2.0 * r_t if equation in ("P1", "P2") else 0.0

        def q(y):
            k = np.divide(w, y)
            k += p
            k = clip(k)
            out = np.multiply(ss, k)
            out *= k
            return out

        def quadratic(cont, h, e):
            # A y^2 - B y - C = 0, A = 1 - h rho - h e p^2, B = cont + 2 h e p w,
            # C = h (e w^2 - zeta), e = +-|s|^2 (+ for Y), rho = 2 r (P1, P2),
            # zeta = |z|^2 (Y): the root near cont, (B + sqrt(B^2 + 4 A C)) / 2A
            b = np.multiply(p, h * e)
            a = np.multiply(b, p)
            np.subtract(1.0 - h * rho, a, out=a)
            t = np.multiply(w, 2.0)
            b *= t
            b += cont
            g = np.multiply(w, e)
            g *= w
            if equation == "Y":
                g -= zz
            g *= np.multiply(a, 4.0 * h, out=t)
            g += np.multiply(b, b, out=t)
            np.sqrt(g, out=g)
            g += b
            g /= np.multiply(a, 2.0, out=t)
            return g

        def root(cont, h):
            e = eps * ss
            y = quadratic(cont, h, e)
            if clip is two_sided:
                lo = float(np.min(y))
                if not math.isnan(lo):
                    return y, lo
            u = p * y + w
            clipped = clip(u) != u
            if clipped.any():
                y = quadratic(cont, h, np.where(clipped, 0.0, e))
            return y, float(np.min(y))
    else:
        sigma, phi = side

        def q(y):
            u = sign * (phi + c * zcol / y[:, None])
            return -cone_inf_quadratic_batch(cone, sigma, u)

    def f(y):
        out = q(y)
        out *= y
        if equation == "Y":
            out -= zz / y
        elif equation == "P":
            np.negative(out, out=out)
        else:
            np.subtract(2.0 * r_t * y, out, out=out)
        return out

    return f, root


def _prepare_driver(equation, cone, sigma, phi, r_t, z) -> Callable:
    """One step's driver as a function of y alone: _sigma_side, then _z_side."""
    z = np.asarray(z, dtype=float)
    side = _sigma_side(equation, cone, sigma, phi, z.shape[0])
    zcol = np.einsum("ij,ij->i", side[0], z) if cone.dim == 1 else z
    zz = np.einsum("ij,ij->i", z, z) if equation == "Y" else None
    return _z_side(equation, cone, side, r_t, zcol, zz)[0]


def _driver_batch(equation, cone, sigma, phi, r_t, y, z, step=None):
    """Driver f (N,), d(value) = -f dt + Z'dW, at sigma (m, n) or (N, m, n),
    phi (n,) or (N, n), y (N,) > 0 and z (N, n); step, when given, is the
    driver prepared from them (_prepare_driver), and only y is read."""
    if step is None:
        step = _prepare_driver(equation, cone, sigma, phi, r_t, z)
    return step(np.asarray(y, dtype=float))


def positivity_envelope(model: MarketModel, grid: np.ndarray) -> tuple[float, float]:
    """(lower, upper) = exp(-/+ C T), C the max over grid nodes t of |2 r(t)|
    + max |phi(t, f)|^2 over the nodes' MarketModel.probe_lattice states."""
    t_rows, f_rows = model.probe_lattice(grid, PROBE_FACTOR_QUANTILES)
    phis = pricing_kernel_batch(model, t_rows, f_rows)
    phi_sq = np.einsum("ij,ij->i", phis, phis).reshape(len(grid), -1).max(axis=1)
    c = float(np.max(np.abs(2.0 * model.rate.at(grid)) + phi_sq))
    horizon = float(grid[-1])
    return math.exp(-c * horizon), math.exp(c * horizon)


def _step_rates(model: MarketModel, grid: np.ndarray) -> np.ndarray:
    """Exact average rate over each step of the uniform grid: the segment's
    value for a step with no rate break inside it, else integral / dt."""
    rate, dt = model.rate, model.horizon_T / (len(grid) - 1)
    # a break strictly inside (a, b): more breaks lie below b than at or below a
    inside = (np.searchsorted(rate.breaks, grid[1:], side="left")
              > np.searchsorted(rate.breaks, grid[:-1], side="right"))
    return np.where(inside, rate.integral(grid[:-1], grid[1:]) / dt, rate.at(grid[:-1]))


@dataclass
class BsdeSolution:
    """Time-gridded backward solution: per node, a scalar value (z = 0) for
    deterministic solves, or polynomial coefficients in the normalized factor
    for the value and the driving component of Z.  A transformed solution
    maps its base tables at evaluation time.  Only markovian solutions read,
    and require, the factor states f / fvals."""

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
        t is a time or one per row; TimeOutOfRange outside the grid."""
        _check_times(t, self.grid[-1])
        i, w = locate(self.grid, t)
        base, z = self._node_batch(i, fvals)
        mid = w != 0.0
        if mid.any():
            base_j, z_j = self._node_batch(i + mid, fvals)
            base = np.where(mid, (1.0 - w) * base + w * base_j, base)
            wz = w[..., None]
            z = np.where(mid[..., None], (1.0 - wz) * z + wz * z_j, z)
        return base, z

    def _transformed_batch(self, t, fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(value (N,), z (N, n)) after the transform "recip" (1/P, -Delta/P^2)
        or "h2" (h^2/P2, -(h^2/P2^2) Delta2), if any; t is a time or one per row.
        PositivityLost names the time of a lowest base value that is not > 0."""
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

    # -- public evaluation: the batch forms, and value at one state -------------

    def _checked_batch(self, t, fvals) -> tuple[np.ndarray, np.ndarray]:
        """_transformed_batch at a public entry point: a markovian solution
        refuses a non-finite factor state (ConfigInvalid); simulate's
        per-step targets call _transformed_batch and skip the check."""
        if self.kind != "deterministic" and not np.all(np.isfinite(fvals)):
            raise ConfigInvalid("factor states must be finite", field="f")
        return self._transformed_batch(t, fvals)

    def value_batch(self, t, fvals: np.ndarray) -> np.ndarray:
        """Values at factor states fvals (N,); t is a time or one per row."""
        return self._checked_batch(t, fvals)[0]

    def z_batch(self, t, fvals: np.ndarray) -> np.ndarray:
        """Z (N, n) at factor states fvals (N,); t is a time or one per row."""
        return self._checked_batch(t, fvals)[1]

    def value(self, t: float, f=None) -> float:
        return float(self.value_batch(t, _state_rows(self.kind != "deterministic", f, t))[0])

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
        # of the base table; the basis is centred on basis_loc, where the
        # value is the constant coefficient
        vals = self.y_values if self.kind == "deterministic" else self.y_values[:, 0]
        return float(np.min(vals))


def _deterministic_rhs(model, cone, equation, times, r_steps):
    """rhs(t) of dv/dt = v rhs(t), the Z = 0 reduction (every driver is
    1-homogeneous in v), per time; r_steps is the average rate of its step."""
    sig, _, phi = coefficients_at(model, times, np.zeros(len(times)))
    return -_driver_batch(equation, cone, sig, phi, r_steps,
                          np.ones(len(times)), np.zeros((len(times), model.n)))


def solve_deterministic(model: MarketModel, cone: Cone, equation: str,
                        steps: int) -> BsdeSolution:
    """Backward RK4 on the Z = 0 reduction dv/dt = v rhs(t), with rhs tabulated
    once on every step's stages (t_{i+1}, t_{i+1} - dt/2, t_i)."""
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


def _basis_rows(centred, scale, degree, out):
    """Rows 1, u, ..., u^degree of u = centred / scale, each row the one
    before times u (the bits of np.vander(u, increasing=True).T), as the
    front rows of out (degree + 1, N), whose row 0 the caller holds at 1;
    row 0 alone for a spread < 1e-12."""
    w = 1 if scale < 1e-12 else degree + 1
    if w > 1:
        u = np.divide(centred, scale, out=out[1])
        for k in range(2, w):
            np.multiply(out[k - 1], u, out=out[k])
    return out[:w]


def _hankel_gram(basis):
    """basis @ basis.T of power rows basis (w, N) as the Hankel matrix
    G[a, b] = s_(a+b) of the power sums s_k = sum u^k: s_0 = N, s_1 to
    s_(w-2) the row sums and the rest basis @ u^(w-1)."""
    w, n = basis.shape
    s = np.empty(2 * w - 1)
    s[0] = n
    np.add.reduce(basis[1:w - 1], axis=1, out=s[1:w - 1])
    s[w - 1:] = basis @ basis[-1]
    return s[np.add.outer(np.arange(w), np.arange(w))]


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
    """Coefficients (K, width, r) for right-hand sides rhs (K, width, r), one
    np.linalg.solve per basis width, zero past a sample's own width."""
    out = np.zeros(rhs.shape)
    for wk, sel, gram in groups:
        out[sel, :wk] = np.linalg.solve(gram, rhs[sel, :wk])
    return out


def _backward_pass(model, cone, equation, cfg, grid, F, dWj, lower, upper,
                   samples=(None,)):
    """Regression backward induction over the paths F (paths, steps + 1) and
    dWj (paths, steps), views of time-major arrays, for samples of their rows
    in lockstep (index vectors, None for the rows as stored).  Returns one
    (y_tab, z_tab, loc, scale, clamps) per sample, the bits of a one-sample
    pass over F[idx].  A sample's basis is the rows 1, u, ..., u^degree
    (_basis_rows), its Gram the Hankel matrix of their power sums; each
    stage (continuation with value fit, Z, refit) is one stacked solve per
    basis width, and the step closes on the trapezoid (_close_step)

        V_i = E[V_{i+1} + h f_{i+1} | F_i] + h f_i(V_i, Z_i),  h = dt / 2,

    both ends at the step's average rate: where r_i != r_{i+1}, f_{i+1}
    gains 2 (r_i - r_{i+1}) V_{i+1}.  The sample None is held to
    _CLAMP_BUDGET after every step (PositivityLost).
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
    bases = np.zeros((K, width, paths))
    bases[:, 0] = 1.0
    V = np.ones((K, paths))
    f_next = np.stack([_rows(f_term, idx) for idx in samples])
    y_tab = np.zeros((K, steps + 1, width))
    y_tab[:, steps, 0] = 1.0
    z_tab = np.zeros((K, steps + 1, width))
    loc = np.zeros((K, steps + 1))
    scale = np.ones((K, steps + 1))
    clamps = [0] * K
    grams = np.zeros((K, width, width))
    rhs = np.zeros((K, width, 2))       # continuation value, value fit
    col = np.zeros((K, width, 1))       # Z, then the refit
    work = np.empty((2, paths))

    for i in range(steps - 1, -1, -1):
        t = float(grid[i])
        r_t = r_step[i]
        sig, _, phi = coefficients_at(model, t, Ft[i])
        side = _sigma_side(equation, cone, sig, phi, paths)
        if cone.dim == 1:       # the step reads s's column j only: gather that
            side = (side[0][:, j], *side[1:])
        if rate_term and i + 1 < steps and r_t != r_step[i + 1]:
            f_next += 2.0 * (r_t - r_step[i + 1]) * V
        basis = []
        for k, idx in enumerate(samples):
            # np.mean and np.std: sum / n, the same bits
            fv = _rows(Ft[i], idx)
            loc[k, i] = np.add.reduce(fv) / paths
            centred = np.subtract(fv, loc[k, i], out=work[0])
            sd = math.sqrt(np.add.reduce(np.multiply(centred, centred, out=work[1])) / paths)
            scale[k, i] = sd if sd >= 1e-12 else 1.0
            b = _basis_rows(centred, sd, degree, bases[k])
            basis.append(b)
            wk = len(b)
            grams[k, :wk, :wk] = _hankel_gram(b)
            rhs[k, :wk, 1] = b @ V[k]
            rhs[k, :wk, 0] = rhs[k, :wk, 1] + h * (b @ f_next[k])
        groups = _gram_groups(grams, [len(b) for b in basis], t)
        c_rhs = _solve_groups(groups, rhs)
        for k, b in enumerate(basis):
            # centered martingale-increment estimator: same conditional
            # expectation as v * dW / dt, variance smaller by a factor ~ dt
            wk = len(b)
            resid = np.matmul(c_rhs[k, :wk, 1], b, out=work[0])
            np.subtract(V[k], resid, out=resid)
            resid *= _rows(dWt[i], samples[k])
            np.matmul(b, resid, out=col[k, :wk, 0])
        c_z = _solve_groups(groups, col / dt)[..., 0]

        pair = np.stack((c_rhs[..., 0], c_z), axis=1)
        for k, (b, idx) in enumerate(zip(basis, samples)):
            wk = len(b)
            cont, zj = np.matmul(pair[k, :, :wk], b, out=work)
            # Z_i is zj in column j and zero elsewhere
            side_k = tuple(_rows(a, idx) for a in side)
            if cone.dim == 1:
                zcol = side_k[0] * zj
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
            np.matmul(b, V[k], out=col[k, :wk, 0])
        y_tab[:, i] = _solve_groups(groups, col)[..., 0]
        z_tab[:, i] = c_z
    return [(y_tab[k], z_tab[k], loc[k], scale[k], clamps[k]) for k in range(K)]


def _close_step(equation, step, root, cont, h, lower, upper, t):
    """(v, f(v), clamp events) for the fixed point y of y -> cont + h f(clip(y)),
    f = step, clip to [lower, upper], v = clip(y): the root (one asset), its
    residual within _FIXED_POINT_TOL where y lies inside, or Picard iteration
    from clip(cont) (m >= 2); a miss raises NoConvergence.  v is y when min y
    and max y lie inside; otherwise (NaN and inf rows too) y is clipped, and
    a root must be finite."""
    if root is not None:
        y, lo = root(cont, h)
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
        lo = float(np.min(y))
    inside = lower <= lo and float(np.max(y)) <= upper
    v, n_off = y, 0
    if not inside:
        v = np.clip(y, lower, upper)
        off = v != y
        n_off = int(np.count_nonzero(off))
    f = _driver_batch(equation, None, None, None, None, v, None, step)
    if root is not None:
        r = np.subtract(y, cont)
        r -= h * f
        if n_off:
            r[off] = 0.0
        resid = float(np.max(np.abs(r, out=r)))
        if not (resid <= _FIXED_POINT_TOL and (inside or np.isfinite(y).all())):
            raise NoConvergence(
                f"{equation} trapezoid root residual {resid:.2e} at t={t:.4f}")
    return v, f, n_off


def _forward(model, cfg, last):
    """A job's draws from cfg.seed: time-major factor paths F (steps + 1, paths)
    and increments dWj (steps, paths), one substream per _DRAW_BLOCK paths, and
    samples 0..last: None for the rows as drawn, then the bootstrap lane's."""
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
        F[i + 1] = cf.factor_step(F[i], dt, dWj[i])
    boot_rng = substream(cfg.seed, 45803)  # dedicated bootstrap lane
    return F, dWj, [None] + [boot_rng.integers(0, paths, size=paths) for _ in range(last)]


def _walk_group(model, cone, jobs, group):
    """({(job, sample): walk}, failure) of a group's items, job by job: one
    _forward draw and one _backward_pass over the job's samples; failure is
    the ((job, first sample), exception) that ended the group, else None."""
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
    """Least-squares Monte Carlo solutions of factor-driven coefficients, one
    per (equation, cfg) job, in one split walk: each job's factor paths from
    cfg.seed and cfg.bootstrap resamples of them (value0_stderr), the bits of
    a one-process walk.  ConfigInvalid comes before any walk; then the error
    raised is the first of the jobs in order: its walk error, then its bound."""
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
    h0_sq = model.h0 * model.h0     # the form DualCurve compares with
    v0 = sol.value(0.0, sol.f0)
    if v0 > h0_sq + _BOUND_SLACK:
        raise InvalidBound(
            f"{sol.equation} initial value {v0} exceeds h0^2 = {h0_sq}")


def _as_y(sol: BsdeSolution, equation: str, transform: tuple) -> BsdeSolution:
    """sol, an untransformed, uniformly positive `equation` solution, read as
    Y through transform; bounds h_min^2 / up, h_max^2 / lo (h = 1: "recip")."""
    if sol.equation != equation:
        raise ConfigInvalid(f"expected a {equation} solution, got {sol.equation}",
                            field="equation")
    if sol.transform is not None:
        raise ConfigInvalid("cannot re-transform a transformed solution", field="transform")
    lo, up = sol.bounds
    h = transform[1].discount(sol.grid) if transform[0] == "h2" else np.ones(1)
    h_min, h_max = float(np.min(h)), float(np.max(h))
    _require_positive(sol, equation)
    return dc_replace(sol, equation="Y", bounds=(h_min * h_min / up, h_max * h_max / lo),
                      transform=transform)


def transform_p_to_y(p_sol: BsdeSolution) -> BsdeSolution:
    """(Y, Z) = (1/P, -Delta/P^2) of P's interpolant, valid whenever P stays
    uniformly positive; a view of p_sol's tables (_as_y)."""
    return _as_y(p_sol, "P", ("recip",))


def transform_p2_to_y(p2_sol: BsdeSolution, model: MarketModel) -> BsdeSolution:
    """(Y, Z) = (h^2/P2, -(h^2/P2^2) Delta2) of P2's interpolant, h =
    model.discount; a view of p2_sol's tables (_as_y)."""
    return _as_y(p2_sol, "P2", ("h2", model))
