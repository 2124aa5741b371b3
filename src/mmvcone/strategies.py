"""Optimal feedback strategies, the adversarial density, and the dual calculus.

The robust problem's saddle strategy is exposed in wealth-feedback form

    pi(t, X) = ((a - h_t X) / (h_t Y_t)) (ss')^{-1} s Proj_{s'Gamma}(Y phi - Z),
    a = h_0 x + Y_0 / theta,

which the conservation identity makes equal to the density-feedback form
along the optimal dynamics, and which needs no simulation to evaluate.
The mean-variance side supplies the Lagrange dual machinery: the quadratics
J1/J2, the squared-distance curve F(K), its maximizer gamma_hat(K), the
optimal target K_hat, and the mean-variance feedback.  The infinite
values of F and gamma_hat on the boundary p_{i,0} = h_0^2 are legitimate
cases and are carried as IEEE infinities.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .bsde import BsdeSolution, _require_positive
from .cones import Cone, project_transformed_batch
from .errors import InvalidBound
from .market import MarketModel, _state_rows, coefficients_at

_EQ_SLACK = 1e-10   # absolute slack detecting the p_{i,0} = h_0^2 boundary


def _projected_target(step: "StepTargets", cone: Cone, sol: BsdeSolution, side: str):
    """Project one side's target onto sigma' Gamma on the rows of step.

    side "Y": Y phi - Z;  "P1": -(phi + Delta1/P1);  "P2": phi + Delta2/P2.
    Returns (value (N,), z (N, n), xi (N, n), gamma (N, m)).
    """
    v, z = sol._transformed_batch(step.t, step.rows)
    phi = step.phi
    if side == "Y":
        a = phi * v[:, None] - z
    elif side == "P1":
        a = -phi - z / v[:, None]
    else:
        a = phi + z / v[:, None]
    xi, gamma, _ = project_transformed_batch(cone, step.sigma, a)
    return v, z, xi, gamma


class StepTargets:
    """The coefficient state at the rows market._state_rows gives one
    (t, fvals): sigma, mu and phi from one coefficients_at call, and each
    distinct (solution, side, cone) projected target, computed on first use.
    simulate builds one per path block and step, read by the wealth update
    and every family member; nothing writes into its arrays."""

    def __init__(self, model: MarketModel, t, fvals):
        self.t = t
        self.rows = _state_rows(model.coefficients.kind == "markov", fvals, t)
        self.sigma, self.mu, self.phi = coefficients_at(model, t, self.rows)
        self._targets = {}

    def subset(self, keep: np.ndarray) -> "StepTargets":
        """The state on the rows keep (a boolean mask), gathered from this
        step's arrays (a zero-stride sigma stays a view), with no target yet."""
        sub = copy.copy(self)
        sub.t = np.asarray(self.t)[keep] if np.ndim(self.t) else self.t
        sub.rows = self.rows[keep]
        sub.sigma = (np.broadcast_to(self.sigma[0], (len(sub.rows),) + self.sigma.shape[1:])
                     if self.sigma.strides[0] == 0 else self.sigma[keep])
        sub.mu, sub.phi = self.mu[keep], self.phi[keep]
        sub._targets = {}
        return sub

    def target(self, cone: Cone, sol: BsdeSolution, side: str):
        """_projected_target of (sol, side, cone) on the step's rows."""
        key = (id(sol), side, id(cone))
        if key not in self._targets:
            self._targets[key] = _projected_target(self, cone, sol, side)
        return self._targets[key]


@dataclass
class FeedbackStrategy:
    """State-feedback portfolio map, robust ("MMV") or mean-variance ("MV");
    portfolio is portfolio_batch at one state and wealth."""

    kind: str
    model: MarketModel
    cone: Cone
    y_sol: BsdeSolution | None = None
    p1_sol: BsdeSolution | None = None
    p2_sol: BsdeSolution | None = None
    a_const: float | None = None
    gamma_hat: float | None = None
    scale: float = 1.0
    label: str = field(default="")

    def __post_init__(self):
        if not self.label:
            self.label = self.kind.lower()

    def portfolio(self, t: float, x: float, f=None) -> np.ndarray:
        return self.portfolio_batch(t, np.array([x], dtype=float), f)[0]

    def portfolio_batch(self, t, xvals: np.ndarray, fvals=None, *,
                        _step: StepTargets | None = None) -> np.ndarray:
        """Vectorized feedback: directions once per state row, broadcast over wealth.

        t is a time or one per state row; fvals the factor state per row,
        required for a factor-driven model and not read without a factor
        (one row per time).  xvals (N,) is one wealth per state row, or
        (R, X): X wealth levels for each of R state rows.
        Returns xvals.shape + (m,).  The Y or P2 direction is read from
        _step (a StepTargets of this (t, fvals)); the MV short side (P1) is
        evaluated only on rows with some wealth above gamma_hat / h_t, on
        the step's subset of them.
        """
        xvals = np.asarray(xvals, dtype=float)
        step = _step if _step is not None else StepTargets(self.model, t, fvals)
        rows = step.rows
        shape = (-1,) + (1,) * (xvals.ndim - 1)      # state rows against wealth
        vec = shape + (self.model.m,)
        h_t = np.reshape(self.model.discount(t), shape)
        if self.kind == "MMV":
            y, _, _, gamma = step.target(self.cone, self.y_sol, "Y")
            gap = self.a_const - h_t * xvals
            return self.scale * (gap / (h_t * y.reshape(shape)))[..., None] * gamma.reshape(vec)
        _, _, _, g2 = step.target(self.cone, self.p2_sol, "P2")
        gap = xvals - self.gamma_hat / h_t
        out = np.maximum(-gap, 0.0)[..., None] * g2.reshape(vec)
        pos = gap > 0.0
        need = np.any(pos.reshape(len(rows), -1), axis=1)
        if np.any(need):
            g1 = np.zeros((len(rows), self.model.m))
            g1[need] = step.subset(need).target(self.cone, self.p1_sol, "P1")[3]
            out[pos] += gap[pos, None] * np.broadcast_to(g1.reshape(vec), out.shape)[pos]
        return self.scale * out

    def scaled(self, c: float, label: str | None = None) -> "FeedbackStrategy":
        out = dc_replace(self, scale=self.scale * c)
        out.label = label if label is not None else f"{c:g}*{self.label}"
        return out


def mmv_feedback(model: MarketModel, cone: Cone, y_sol: BsdeSolution) -> FeedbackStrategy:
    """Saddle portfolio in wealth-feedback form, with a = h_0 x + Y_0 / theta."""
    _require_positive(y_sol, "Y")
    a = model.h0 * model.x0 + y_sol.value0 / model.theta
    return FeedbackStrategy(kind="MMV", model=model, cone=cone, y_sol=y_sol,
                            a_const=a, label="pi_hat")


def bound_lattice_max_norm(model: MarketModel, loading) -> float:
    """Largest row norm of loading(t_rows, f_rows) over the lattice the saddle
    family's bounds are estimated on: 21 probe times on [0, T] x 7 factor
    quantiles (MarketModel.probe_lattice), evaluated in one call."""
    t_rows, f_rows = model.probe_lattice(np.linspace(0.0, model.horizon_T, 21), 7)
    return float(np.max(np.linalg.norm(loading(t_rows, f_rows), axis=1)))


def clip_to_bound(eta: np.ndarray, bound: float) -> np.ndarray:
    """Scale the rows of eta (N, n) with norm above bound back to it, in place."""
    nrm = np.linalg.norm(eta, axis=1)
    over = nrm > bound
    if np.any(over):
        eta[over] *= (bound / nrm[over])[:, None]
    return eta


class SaddleAdversary:
    """Worst-case density loading eta_hat = -(Z + xi)/Y, clipped to the
    declared bound: 1.5 times the largest loading norm on the bound lattice
    plus 1e-12, so the family stays admissible (it never binds on
    deterministic-coefficient models)."""

    kind = "saddle"

    def __init__(self, y_sol: BsdeSolution, cone: Cone, model: MarketModel):
        _require_positive(y_sol, "Y")
        self.y_sol = y_sol
        self.cone = cone
        self.model = model
        self.bound = 1.5 * bound_lattice_max_norm(model, self._loading) + 1e-12

    def _loading(self, t, fvals: np.ndarray, step: StepTargets | None = None) -> np.ndarray:
        """Unclipped -(Z + xi)/Y at factor states fvals: (N,) -> (N, n);
        t is a time or one per row, and step, when given, is the StepTargets
        of this (t, fvals)."""
        step = step if step is not None else StepTargets(self.model, t, fvals)
        y, z, xi, _ = step.target(self.cone, self.y_sol, "Y")
        return -(z + xi) / y[:, None]

    def eta_batch(self, t: float, fvals: np.ndarray, *,
                  _step: StepTargets | None = None) -> np.ndarray:
        """Clipped loading at factor states fvals, (N,) -> (N, n); _step is
        internal to simulate (see _loading)."""
        out = clip_to_bound(self._loading(t, fvals, _step), self.bound)
        return np.broadcast_to(out, (len(fvals), self.model.n))


def mmv_adversary(y_sol: BsdeSolution, cone: Cone, model: MarketModel) -> SaddleAdversary:
    return SaddleAdversary(y_sol, cone, model)


def mv_feedback(model: MarketModel, cone: Cone, p1_sol: BsdeSolution,
                p2_sol: BsdeSolution) -> FeedbackStrategy:
    """Mean-variance feedback with the Lagrange level DualCurve.gamma_hat."""
    _require_positive(p1_sol, "P1")
    _require_positive(p2_sol, "P2")
    curve = dual_curve(p1_sol.value0, p2_sol.value0, model.h0, model.x0, model.theta)
    return FeedbackStrategy(kind="MV", model=model, cone=cone,
                            p1_sol=p1_sol, p2_sol=p2_sol,
                            gamma_hat=curve.gamma_hat, label="pi_gamma_hat")


def mmv_value(model: MarketModel, y_sol: BsdeSolution) -> float:
    """Optimal robust value x h_0 + (Y_0 - 1) / (2 theta)."""
    _require_positive(y_sol, "Y")
    return model.x0 * model.h0 + (y_sol.value0 - 1.0) / (2.0 * model.theta)


@dataclass(frozen=True)
class DualCurve:
    """Lagrange-dual scalar functions of the mean-variance problem."""

    p1_0: float
    p2_0: float
    h0: float
    x: float
    theta: float

    def __post_init__(self):
        h0_sq = self.h0 * self.h0
        for name, v in (("p1_0", self.p1_0), ("p2_0", self.p2_0)):
            if not 0.0 < v <= h0_sq + _EQ_SLACK:
                raise InvalidBound(f"{name} = {v} outside (0, h0^2 = {h0_sq}]")
        if self.theta <= 0:
            raise InvalidBound(f"theta = {self.theta} must be positive")

    def _on_boundary(self, p0):
        """p_{i,0} = h_0^2, up to _EQ_SLACK."""
        return self.h0 * self.h0 - p0 <= _EQ_SLACK

    def _side_p0(self, K: np.ndarray) -> np.ndarray:
        """p_{i,0} of the side each K lies on: P2 above the anchor x h_0, P1 below."""
        return np.where(K > self.x * self.h0, self.p2_0, self.p1_0)

    def _J(self, p0: float, K: float, gamma: float) -> float:
        h0_sq = self.h0 * self.h0
        return ((p0 / h0_sq - 1.0) * gamma * gamma
                - 2.0 * (self.x * p0 / self.h0 - K) * gamma
                + p0 * self.x * self.x - K * K)

    def J1(self, K: float, gamma: float) -> float:
        return self._J(self.p1_0, K, gamma)

    def J2(self, K: float, gamma: float) -> float:
        return self._J(self.p2_0, K, gamma)

    def F(self, K):
        """Minimal E[(X_T - K)^2] over portfolios with mean K; +inf if infeasible.
        K is a number or an array, and so is the result."""
        K = np.asarray(K, dtype=float)
        anchor = self.x * self.h0
        p0 = self._side_p0(K)
        out = np.divide(p0 * np.square(K - anchor), self.h0 * self.h0 - p0,
                        out=np.full(K.shape, math.inf), where=~self._on_boundary(p0))
        return np.where(K == anchor, 0.0, out)[()]

    def gamma_hat_of(self, K):
        """Maximizing Lagrange level for F(K); +-inf on the boundary cases.
        K is a number or an array, and so is the result."""
        K = np.asarray(K, dtype=float)
        anchor = self.x * self.h0
        p0 = self._side_p0(K)
        h0_sq = self.h0 * self.h0
        out = np.divide(h0_sq * K - self.x * p0 * self.h0, h0_sq - p0,
                        out=np.where(K > anchor, math.inf, -math.inf),
                        where=~self._on_boundary(p0))
        return np.where(K == anchor, anchor, out)[()]

    @property
    def K_hat(self) -> float:
        if self._on_boundary(self.p2_0):
            return self.x * self.h0
        return self.x * self.h0 + (self.h0 * self.h0 / self.p2_0 - 1.0) / self.theta

    @property
    def mv_value(self) -> float:
        if self._on_boundary(self.p2_0):
            return self.x * self.h0
        return self.x * self.h0 + (self.h0 * self.h0 / self.p2_0 - 1.0) / (2.0 * self.theta)

    @property
    def gamma_hat(self) -> float:
        return self.x * self.h0 + self.h0 * self.h0 / (self.theta * self.p2_0)

    def objective(self, K):
        """K - (theta/2) F(K), the quantity K_hat maximizes: -inf where F is
        +inf.  K is a number or an array, and so is the result."""
        return (K - 0.5 * self.theta * self.F(K))[()]


def dual_curve(p1_0: float, p2_0: float, h0: float, x: float, theta: float) -> DualCurve:
    return DualCurve(p1_0=p1_0, p2_0=p2_0, h0=h0, x=x, theta=theta)


@dataclass
class EquivalenceReport:
    """Lattice comparison of the robust and mean-variance feedback maps.

    A probe is one (t, f) pair of the lattice, in t-major order; probe_f is
    None when the lattice has no factor column (deterministic model, no
    f_values).  pim and piv hold both portfolios at every probe and wealth
    level, (probes, X, m), and gaps their distance, (probes, X).
    """

    x_values: np.ndarray
    probe_t: np.ndarray             # (P,)
    probe_f: np.ndarray | None      # (P,)
    pim: np.ndarray                 # (P, X, m) robust portfolio
    piv: np.ndarray                 # (P, X, m) mean-variance portfolio
    gaps: np.ndarray                # (P, X) |pim - piv|
    max_gap: float
    value_mmv: float
    value_mv: float
    gamma_hat: float
    K_hat: float
    a_const: float
    max_gap_stderr: float | None = None   # combined stderr at the worst probe
    max_gap_ratio: float | None = None    # max over probes of gap / combined stderr
    max_gap_ratio_interior: float | None = None   # the same over probes with t < T
    value_stderr: float | None = None

    @property
    def value_gap(self) -> float:
        return abs(self.value_mmv - self.value_mv)

    def summary_dict(self) -> dict:
        out = {
            "value_mmv": self.value_mmv,
            "value_mv": self.value_mv,
            "value_gap": self.value_gap,
            "max_gap": self.max_gap,
            "gamma_hat": self.gamma_hat,
            "K_hat": self.K_hat,
        }
        if self.max_gap_stderr is not None:
            out["max_gap_stderr"] = self.max_gap_stderr
        if self.max_gap_ratio is not None:
            out["max_gap_ratio"] = self.max_gap_ratio
        if self.max_gap_ratio_interior is not None:
            out["max_gap_ratio_interior"] = self.max_gap_ratio_interior
        if self.value_stderr is not None:
            out["value_stderr"] = self.value_stderr
        return out

    def csv_table(self):
        """(header, blocks) of the lattice table, one block of X rows per probe
        (the X column formatted once for all of them); the f column is blank
        when probe_f is None."""
        m = self.pim.shape[2]
        header = (["t", "X", "f"] + [f"pi_mmv_{k+1}" for k in range(m)]
                  + [f"pi_mv_{k+1}" for k in range(m)] + ["abs_gap"])
        nx = len(self.x_values)
        xs = list(map(str, self.x_values.tolist()))

        def blocks():
            for p, t in enumerate(self.probe_t):
                f = None if self.probe_f is None else np.full(nx, self.probe_f[p])
                yield ([np.full(nx, t), xs, f] + list(self.pim[p].T)
                       + list(self.piv[p].T) + [self.gaps[p]])
        return header, blocks()


def equivalence_check(mmv: FeedbackStrategy, mv: FeedbackStrategy,
                      probe_grid) -> EquivalenceReport:
    """Evaluate both feedback maps on a (t, X[, f]) lattice and compare them.

    probe_grid is (t_values, x_values) or (t_values, x_values, f_values);
    factor values default to the mean factor path for factor-driven models.
    Each strategy is one portfolio_batch call over every (t, f) probe.  With
    bootstrap replicates on both sides, each replicate pair is evaluated the
    same way, and the report carries combined stderrs for the worst probe
    and the value gap, and the worst gap ratio overall and below t = T.
    """
    model = mmv.model
    cf = model.coefficients
    t_values = np.asarray(probe_grid[0], dtype=float)
    x_values = np.asarray(probe_grid[1], dtype=float)
    f_values = probe_grid[2] if len(probe_grid) == 3 else None
    if f_values is not None:
        f_values = np.asarray(f_values, dtype=float)
        probe_t = np.repeat(t_values, len(f_values))
        probe_f = np.tile(f_values, len(t_values))
    elif cf.kind == "markov":
        probe_t = t_values
        probe_f = np.array([cf.factor_mean(t) for t in t_values.tolist()])
    else:
        probe_t, probe_f = t_values, None
    x_lattice = np.broadcast_to(x_values, (len(probe_t), len(x_values)))

    def lattice_eval(strategy):
        """(probes, X, m) portfolio values over the whole lattice."""
        return strategy.portfolio_batch(probe_t, x_lattice, probe_f)

    pim = lattice_eval(mmv)
    piv = lattice_eval(mv)
    gaps = np.linalg.norm(pim - piv, axis=2)          # (probes, X)
    flat = int(np.argmax(gaps))
    max_gap = float(gaps.flat[flat])

    value_mmv = mmv_value(model, mmv.y_sol)
    curve = dual_curve(mv.p1_sol.value0, mv.p2_sol.value0, model.h0,
                       model.x0, model.theta)

    gap_se = gap_ratio = gap_ratio_interior = val_se = None
    reps_y = mmv.y_sol.replicates
    reps_p2 = mv.p2_sol.replicates
    if reps_y and reps_p2:
        pim_reps, piv_reps, vm_reps, vv_reps = [], [], [], []
        p1_0 = mv.p1_sol.value0
        for b in range(min(len(reps_y), len(reps_p2))):
            mmv_b = mmv_feedback(model, mmv.cone, mmv.y_sol.replicate(b))
            p2_b = mv.p2_sol.replicate(b)
            mv_b = mv_feedback(model, mv.cone, mv.p1_sol, p2_b)
            pim_reps.append(lattice_eval(mmv_b))
            piv_reps.append(lattice_eval(mv_b))
            vm_reps.append(mmv_value(model, mmv_b.y_sol))
            vv_reps.append(dual_curve(p1_0, p2_b.value0, model.h0, model.x0,
                                      model.theta).mv_value)
        # per-probe combined stderr of the two (independent) solves
        var_m = np.var(np.stack(pim_reps), axis=0, ddof=1).sum(axis=2)
        var_v = np.var(np.stack(piv_reps), axis=0, ddof=1).sum(axis=2)
        se = np.sqrt(var_m + var_v)
        gap_se = float(se.flat[flat])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(gaps > 1e-12, gaps / se, 0.0)
        gap_ratio = float(np.max(ratios))
        # before the horizon, where Y and P2 are no longer pinned to 1
        interior = probe_t < model.horizon_T
        if interior.any():
            gap_ratio_interior = float(np.max(ratios[interior]))
        val_se = math.hypot(float(np.std(vm_reps, ddof=1)), float(np.std(vv_reps, ddof=1)))

    return EquivalenceReport(
        x_values=x_values, probe_t=probe_t, probe_f=probe_f, pim=pim, piv=piv, gaps=gaps,
        max_gap=max_gap, value_mmv=value_mmv, value_mv=curve.mv_value,
        gamma_hat=mv.gamma_hat, K_hat=curve.K_hat, a_const=mmv.a_const,
        max_gap_stderr=gap_se, max_gap_ratio=gap_ratio,
        max_gap_ratio_interior=gap_ratio_interior, value_stderr=val_se,
    )
