"""Forward simulation of wealth and adversarial densities; saddle verification.

Paths are advanced under the physical measure; an objective under a tilted
measure is estimated by reweighting, E^{P^eta}[V] = E[Lambda_T V].  One
draw per block and step serves a whole family, so every (pi, eta) cell has
common random numbers.  Wealth compounds by the exact per-step growth
factor, and the density is advanced in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import forksplit
from .bsde import BsdeSolution
from .cones import Cone
from .errors import (
    AdversaryNotZero,
    ConfigInvalid,
    ExplodedPath,
    MissingTrajectories,
    SaddleViolated,
)
from .market import MarketModel, pricing_kernel_batch
from .rng import substream
from .strategies import (FeedbackStrategy, SaddleAdversary, StepTargets,
                         bound_lattice_max_norm, clip_to_bound, mmv_value)

_BLOCK = 32768              # paths per substream block
_SADDLE_TOL = 3.0           # stderrs allowed by each saddle relation


@dataclass
class Adversary:
    """Bounded density loading eta(t, f); a parametric member of the class A.

    Boundedness (|eta| <= bound) keeps the density a square-integrable
    martingale, hence admissible; custom loadings must declare their bound
    and are clipped to it.
    """

    kind: str       # "zero" | "scaled_minus_phi" | "constant" | "saddle" | "custom"
    bound: float
    scale: float = 0.0
    vector: np.ndarray | None = None
    saddle: SaddleAdversary | None = None
    eta_fn: object = None         # custom: (t, fvals (N,)) -> (N, n)
    label: str = ""

    def eta_batch(self, model: MarketModel, t: float, fvals: np.ndarray, *,
                  _step: StepTargets | None = None) -> np.ndarray:
        """Loading at factor states fvals, (N,) -> (N, n).  _step (internal to
        simulate) is the StepTargets of this (t, fvals): phi and the saddle
        loading's target are read from it."""
        npaths = fvals.shape[0]
        if self.kind == "zero":
            return np.zeros((npaths, model.n))
        if self.kind == "scaled_minus_phi":
            step = _step if _step is not None else StepTargets(model, t, fvals)
            return np.broadcast_to(-self.scale * step.phi, (npaths, model.n))
        if self.kind == "constant":
            return np.broadcast_to(self.vector, (npaths, model.n)).copy()
        if self.kind == "custom":
            out = np.asarray(self.eta_fn(t, fvals), dtype=float)
            if out.shape != (npaths, model.n):
                raise ConfigInvalid(f"custom eta returned shape {out.shape}, "
                                    f"expected ({npaths}, {model.n})", field="adversary")
            return clip_to_bound(out, self.bound)
        return self.saddle.eta_batch(t, fvals, _step=_step)


def zero_adversary() -> Adversary:
    return Adversary(kind="zero", bound=0.0, label="0")


def scaled_minus_phi(model: MarketModel, c: float) -> Adversary:
    """eta = -c phi, declaring the bound |c| 1.5 max |phi| + 1e-12, with the
    max taken over the saddle family's bound lattice (bound_lattice_max_norm)."""
    top = bound_lattice_max_norm(model, lambda t, f: pricing_kernel_batch(model, t, f))
    return Adversary(kind="scaled_minus_phi", scale=c, bound=abs(c) * top * 1.5 + 1e-12,
                     label=f"{-c:g}*phi")


def constant_adversary(v) -> Adversary:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ConfigInvalid("constant loading has non-finite entries", field="adversary.v")
    return Adversary(kind="constant", vector=v, bound=float(np.linalg.norm(v)),
                     label="const")


def saddle_adversary(saddle: SaddleAdversary) -> Adversary:
    return Adversary(kind="saddle", saddle=saddle, bound=saddle.bound, label="eta_hat")


def custom_adversary(eta_fn, bound: float, label: str = "custom") -> Adversary:
    """Wrap a user-supplied loading map (t, fvals) -> (N, n); bound required."""
    if not 0 < bound < math.inf:
        raise ConfigInvalid("custom adversaries must declare a finite positive bound",
                            field="adversary.bound")
    return Adversary(kind="custom", eta_fn=eta_fn, bound=float(bound), label=label)


@dataclass
class SimBatchResult:
    """One simulated batch with terminal samples and optional trajectories.

    A one-pair call holds (paths,) terminal arrays and float objective
    statistics.  A family call holds one terminal row per member,
    terminal_X (n_pi, paths) and terminal_Lambda (n_eta, paths), the
    (n_pi, n_eta) cell statistics, and the tuple of adversary kinds.
    """

    paths: int
    steps: int
    seed: int
    adversary_kind: str | tuple
    theta: float
    terminal_X: np.ndarray
    terminal_Lambda: np.ndarray
    objective_mean: float | np.ndarray
    objective_stderr: float | np.ndarray
    conservation_max_residual: float | None = None
    times: np.ndarray | None = None
    X_paths: np.ndarray | None = None          # (paths, steps+1)
    Lambda_paths: np.ndarray | None = None
    F_paths: np.ndarray | None = None

    @property
    def has_trajectories(self) -> bool:
        return self.X_paths is not None

    @property
    def factor_paths(self) -> np.ndarray:
        """F_paths, or a zero view of the same shape when the model has no factor."""
        if self.F_paths is not None:
            return self.F_paths
        return np.broadcast_to(0.0, self.X_paths.shape)


def simulate(model: MarketModel, strategy: FeedbackStrategy | None | list,
             adversary: Adversary | list, paths: int, steps: int, seed: int, *,
             antithetic: bool = False, store_paths: bool = False) -> SimBatchResult:
    """Euler-Maruyama batch under the physical measure, for one pair or a family.

    strategy and adversary are each one member or a list of members (None
    is the zero portfolio).  Block b of _BLOCK paths draws from
    substream(seed, b); each step evaluates one StepTargets, read by the
    wealth update, every portfolio and every loading.  The members are split
    over the CPUs in groups of equal cost (forksplit.run); each process
    draws every block and advances its own members, so each row has the
    bits of a one-process run.  A cell estimates E^{P^eta}[X_T + (Lambda_T
    - 1)/(2 theta)].  store_paths keeps the trajectories of a one-pair call.
    """
    family = isinstance(strategy, (list, tuple)) or isinstance(adversary, (list, tuple))
    strategies = list(strategy) if isinstance(strategy, (list, tuple)) else [strategy]
    adversaries = list(adversary) if isinstance(adversary, (list, tuple)) else [adversary]
    if not strategies or not adversaries:
        raise ConfigInvalid("strategy and adversary families must not be empty",
                            field="families")
    if family and store_paths:
        raise ConfigInvalid("trajectories are stored for one (strategy, adversary) "
                            "pair only", field="store_paths")
    if paths < 100:
        raise ConfigInvalid("paths must be >= 100", field="paths")
    if steps < 10:
        raise ConfigInvalid("steps must be >= 10", field="steps")
    cf = model.coefficients
    markov = cf.kind == "markov"
    T = model.horizon_T
    dt = T / steps
    times = np.linspace(0.0, T, steps + 1)
    sqdt = math.sqrt(dt)
    growth = [math.exp(v) for v in model.rate.integral(times[:-1], times[1:]).tolist()]

    n_pi = len(strategies)
    terminal = np.empty((n_pi + len(adversaries), paths))   # strategy rows, then adversary rows
    terminal[:n_pi] = float(model.x0)
    terminal[n_pi:] = 1.0
    X_paths = np.empty((paths, steps + 1)) if store_paths else None
    L_paths = np.empty((paths, steps + 1)) if store_paths else None
    F_paths = np.empty((paths, steps + 1)) if (store_paths and markov) else None

    def walk(own):
        """({member: terminal row}, failure) of the members in own, advanced on
        every block's draw; failure is ((block, step, member), exception)."""
        wealth = [(i, strategies[i], terminal[i]) for i in sorted(own) if i < n_pi]
        # a zero loading leaves its density at 1: only the others are advanced
        moving = [(i, adversaries[i - n_pi], terminal[i]) for i in sorted(own)
                  if i >= n_pi and adversaries[i - n_pi].kind != "zero"]
        at = (0, -1, -1)
        try:
            for block_index, start in enumerate(range(0, paths, _BLOCK)):
                stop = min(start + _BLOCK, paths)
                bs = stop - start
                rng = substream(seed, block_index)
                f = np.full(bs, cf.f0)
                if store_paths:
                    X_paths[start:stop, 0] = terminal[0, start:stop]
                    L_paths[start:stop, 0] = terminal[n_pi, start:stop]
                    if markov:
                        F_paths[start:stop, 0] = f
                for k in range(steps):
                    at = (block_index, k, -1)
                    t = times[k]
                    if antithetic:
                        half = (bs + 1) // 2
                        d = rng.standard_normal((half, model.n))
                        dw = sqdt * np.concatenate([d, -d[: bs - half]], axis=0)
                    else:
                        dw = sqdt * rng.standard_normal((bs, model.n))

                    step = StepTargets(model, t, f)     # this step's coefficients and targets
                    mu_b = np.broadcast_to(step.mu, (bs, model.m))
                    sig = np.broadcast_to(step.sigma, (bs, model.m, model.n))
                    for at_i, strat, row in wealth:
                        at = (block_index, k, at_i)
                        x = row[start:stop]
                        pi = (strat.portfolio_batch(t, x, f, _step=step)
                              if strat is not None else None)
                        np.multiply(x, growth[k], out=x)
                        if pi is not None:
                            x += np.einsum("im,im->i", pi, mu_b) * dt
                            x += np.einsum("im,imn,in->i", pi, sig, dw)
                    for at_i, adv, row in moving:
                        at = (block_index, k, at_i)
                        eta = adv.eta_batch(model, t, f, _step=step)
                        row[start:stop] *= np.exp(np.einsum("in,in->i", eta, dw)
                                                  - 0.5 * np.einsum("in,in->i", eta, eta) * dt)
                    if markov:
                        f = (f + cf.kappa * (cf.mean_level - f) * dt
                             + cf.nu * dw[:, cf.driving_index])
                    if store_paths:
                        X_paths[start:stop, k + 1] = terminal[0, start:stop]
                        L_paths[start:stop, k + 1] = terminal[n_pi, start:stop]
                        if markov:
                            F_paths[start:stop, k + 1] = f
                at = (block_index, steps, -1)
                if not np.all(np.isfinite(terminal[:, start:stop])):
                    raise ExplodedPath(f"non-finite state in block {block_index}; refine steps")
        except Exception as exc:
            return None, (at, exc)
        return {i: terminal[i] for i in own}, None

    # the calling process walks the first strategy and adversary; the rest is
    # cut into contiguous groups of equal cost, a None or zero member costing 0
    order = [0, n_pi, *range(1, n_pi), *range(n_pi + 1, len(terminal))]
    cost = [s is not None for s in strategies] + [a.kind != "zero" for a in adversaries]
    total = sum(cost)
    n, before = min(forksplit.cpus(), total) or 1, 0
    groups = [[] for _ in range(n)]
    for p, i in enumerate(order):
        groups[before * n // max(total, 1) if p > 1 else 0].append(i)
        before += cost[i]
    results, failure = forksplit.run(walk, [g for g in groups if g],
                                     lambda group: (0, 0, min(group)))
    if failure is not None:
        raise failure[1]
    for rows in results[1:]:        # the children's rows; this process's are in place
        for i, row in rows.items():
            terminal[i] = row
    terminal_X, terminal_L = terminal[:n_pi], terminal[n_pi:]

    theta = model.theta
    means = np.empty((len(strategies), len(adversaries)))
    errs = np.empty_like(means)
    for j, lam in enumerate(terminal_L):
        tilt = (lam - 1.0) / (2.0 * theta)
        for i, x in enumerate(terminal_X):
            obj = lam * (x + tilt)
            means[i, j] = np.mean(obj)
            errs[i, j] = np.std(obj, ddof=1) / math.sqrt(paths)
    kind = tuple(a.kind for a in adversaries)
    if not family:
        kind, terminal_X, terminal_L = kind[0], terminal_X[0], terminal_L[0]
        means, errs = float(means[0, 0]), float(errs[0, 0])
    return SimBatchResult(
        paths=paths, steps=steps, seed=seed, adversary_kind=kind,
        theta=theta, terminal_X=terminal_X, terminal_Lambda=terminal_L,
        objective_mean=means, objective_stderr=errs,
        times=times if store_paths else None, X_paths=X_paths,
        Lambda_paths=L_paths, F_paths=F_paths,
    )


def path_values(batch: SimBatchResult, y_sol: BsdeSolution,
                model: MarketModel) -> tuple[np.ndarray, np.ndarray]:
    """(h (steps+1,), Y (paths, steps+1)) along stored trajectories: the
    discount at each grid time and Y on every stored path there, each
    evaluated once for conservation_residual and the trajectory table."""
    if not batch.has_trajectories:
        raise MissingTrajectories("simulate(..., store_paths=True) required")
    h = model.discount(batch.times)
    # one value_batch per time: one call over every (path, time) row holds
    # about 14 floats per row at once (2.8x the peak RSS at 10k x 200)
    y = np.empty_like(batch.X_paths)
    for k, t in enumerate(batch.times.tolist()):
        y[:, k] = y_sol.value_batch(t, batch.factor_paths[:, k])
    return h, y


def conservation_residual(batch: SimBatchResult, y_sol: BsdeSolution,
                          model: MarketModel, *, values=None) -> float:
    """Max over paths and grid times of |theta h X + Y Lambda - (theta h0 x + Y0)|.

    values is path_values(batch, y_sol, model) when the caller has it already.
    """
    h, y = path_values(batch, y_sol, model) if values is None else values
    const = model.theta * model.h0 * model.x0 + y_sol.value0
    resid = np.abs(model.theta * h * batch.X_paths + y * batch.Lambda_paths - const)
    batch.conservation_max_residual = float(np.max(resid))
    return batch.conservation_max_residual


@dataclass
class SaddleReport:
    """Objective matrix over a (portfolio, adversary) family with verdicts."""

    pi_labels: list
    eta_labels: list
    means: np.ndarray               # (n_pi, n_eta)
    stderrs: np.ndarray
    r0: float
    saddle_pi: int
    saddle_eta: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary_dict(self) -> dict:
        return {
            "r0": self.r0,
            "passed": self.passed,
            "violations": self.violations,
            "saddle_cell_mean": float(self.means[self.saddle_pi, self.saddle_eta]),
            "saddle_cell_stderr": float(self.stderrs[self.saddle_pi, self.saddle_eta]),
            "pi_labels": self.pi_labels,
            "eta_labels": self.eta_labels,
        }

    def csv_table(self):
        """(header, blocks) of the objective matrix: one row per portfolio,
        each cell "mean+-stderr"."""
        cols = [self.pi_labels] + [
            [f"{self.means[i, j]:.10g}+-{self.stderrs[i, j]:.3g}"
             for i in range(len(self.pi_labels))]
            for j in range(len(self.eta_labels))]
        return ["pi\\eta"] + list(self.eta_labels), [cols]


def saddle_scan(model: MarketModel, cone: Cone, y_sol: BsdeSolution,
                pi_family: list, eta_family: list, paths: int, steps: int,
                seed: int) -> SaddleReport:
    """Estimate the objective on every family cell and check the saddle relations.

    One family call of simulate gives every cell common random numbers.
    Each relation holds to 3 stderrs of its cell; SaddleViolated is raised
    on the first that fails.
    """
    saddle_pi = next((i for i, s in enumerate(pi_family)
                      if s is not None and s.kind == "MMV" and s.scale == 1.0), None)
    saddle_eta = next((j for j, a in enumerate(eta_family) if a.kind == "saddle"), None)
    if saddle_pi is None or saddle_eta is None:
        raise ConfigInvalid("families must include the saddle pair", field="families")

    n_pi, n_eta = len(pi_family), len(eta_family)
    res = simulate(model, pi_family, eta_family, paths, steps, seed)
    means, errs = res.objective_mean, res.objective_stderr

    r0 = mmv_value(model, y_sol)
    pi_labels = [s.label if s is not None else "0" for s in pi_family]
    eta_labels = [a.label for a in eta_family]
    report = SaddleReport(pi_labels=pi_labels, eta_labels=eta_labels, means=means,
                          stderrs=errs, r0=r0, saddle_pi=saddle_pi, saddle_eta=saddle_eta)

    def fail(cell, kind, mean_, err_, message):
        report.violations.append({"cell": cell, "kind": kind,
                                  "mean": float(mean_), "stderr": float(err_)})
        exc = SaddleViolated(message, cell=cell)
        exc.report = report
        raise exc

    for i in range(n_pi):
        if means[i, saddle_eta] > r0 + _SADDLE_TOL * errs[i, saddle_eta]:
            fail((pi_labels[i], eta_labels[saddle_eta]), "sup_bound",
                 means[i, saddle_eta], errs[i, saddle_eta],
                 f"objective {means[i, saddle_eta]:.8f} beats R0 {r0:.8f} "
                 f"beyond {_SADDLE_TOL} stderr")
    for j in range(n_eta):
        if means[saddle_pi, j] < r0 - _SADDLE_TOL * errs[saddle_pi, j]:
            fail((pi_labels[saddle_pi], eta_labels[j]), "inf_bound",
                 means[saddle_pi, j], errs[saddle_pi, j],
                 f"objective {means[saddle_pi, j]:.8f} dips below R0 {r0:.8f} "
                 f"beyond {_SADDLE_TOL} stderr")
    gap = abs(means[saddle_pi, saddle_eta] - r0)
    if gap > _SADDLE_TOL * errs[saddle_pi, saddle_eta]:
        fail((pi_labels[saddle_pi], eta_labels[saddle_eta]), "saddle_value",
             means[saddle_pi, saddle_eta], errs[saddle_pi, saddle_eta],
             f"saddle cell {means[saddle_pi, saddle_eta]:.8f} misses R0 {r0:.8f} "
             f"by more than {_SADDLE_TOL} stderr")
    return report


def mv_objective(batch: SimBatchResult, theta: float) -> tuple[float, float]:
    """Sample mean-variance objective E[X_T] - (theta/2) Var[X_T] with stderr.

    The stderr comes from the influence function of the (mean, variance)
    functional (delta method).  Requires a batch simulated under eta = 0.
    """
    if batch.adversary_kind != "zero":
        raise AdversaryNotZero(
            f"batch was simulated with adversary kind {batch.adversary_kind!r}")
    x = batch.terminal_X
    npaths = len(x)
    xbar = float(np.mean(x))
    s2 = float(np.var(x, ddof=1))
    value = xbar - 0.5 * theta * s2
    psi = (x - xbar) - 0.5 * theta * ((x - xbar) ** 2 - s2)
    stderr = float(np.std(psi, ddof=1) / math.sqrt(npaths))
    return value, stderr
