"""Market model: coefficients, pricing kernel and discount factor.

The interest rate is piecewise constant.  Excess returns and volatilities
are (t, f) maps: constant or linear between time nodes without a factor, or
driven by a one-dimensional mean-reverting factor on one component of the
Brownian motion, which keeps every backward equation solvable by regression
Monte Carlo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DegenerateVolatility,
    DimensionMismatch,
    NonPositiveTheta,
    SingularGram,
    TimeOutOfRange,
)

#: probe lattice used for the ellipticity check: time points x factor quantiles
PROBE_TIME_POINTS = 101
PROBE_FACTOR_QUANTILES = 21


@dataclass(frozen=True)
class PiecewiseRate:
    """Piecewise-constant interest rate r(t) on [0, T]: ``values[i]`` applies on
    [breaks[i-1], breaks[i]), and the last break must cover the horizon."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise ConfigInvalid("rate segments and values must align", field="rate")
        prev = 0.0
        for b in self.breaks:
            if not (b > prev and math.isfinite(b)):
                raise ConfigInvalid("segment ends must be increasing and finite", field="rate")
            prev = b
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigInvalid("rate values must be finite", field="rate")

    @staticmethod
    def constant(r: float, horizon: float) -> "PiecewiseRate":
        return PiecewiseRate((horizon,), (float(r),))

    def at(self, t):
        """r(t) for a time or an array of times: the value of the first
        segment whose end lies past t, the last one from the horizon on."""
        idx = np.searchsorted(self.breaks, t, side="right")
        return np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]

    def integral(self, t0, t1):
        """Exact integral of r over [t0, t1] for times or arrays of them: each
        segment's overlap rectangle added in segment order (a segment outside
        adds +-0), then the part past the last break, negated where t1 < t0."""
        lo, hi = np.minimum(t0, t1), np.maximum(t0, t1)
        total, start = 0.0, 0.0
        for b, v in zip(self.breaks, self.values):
            total = total + v * np.maximum(np.minimum(b, hi) - np.maximum(start, lo), 0.0)
            start = b
        total = total + self.values[-1] * np.maximum(hi - np.maximum(lo, start), 0.0)
        return np.where(np.less(t1, t0), -total, total)[()]


def _as_time_grid(values, shape, name):
    """Normalize a constant or per-time-node array of matrices to (K, *shape)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape == shape:
        return arr[None, ...]
    if arr.ndim == len(shape) + 1 and arr.shape[1:] == shape:
        return arr
    raise ConfigInvalid(f"expected shape {shape} or (K,)+{shape}, got {arr.shape}", field=name)


def _check_times(t, horizon: float) -> None:
    """TimeOutOfRange unless every time in t (a time or an array) lies in
    [0, horizon], with 1e-12 of slack above; a NaN time fails."""
    t = np.asarray(t)
    if not (0.0 <= t.min() and t.max() <= horizon + 1e-12):
        raise TimeOutOfRange(f"t={t} outside [0, {horizon}]")


def locate(times, t):
    """(i, w) for a time or one per row on the increasing grid times: node i
    at or before t and weight w toward node i + 1, w = 0 on a node; t is held
    to the grid's ends."""
    t = np.minimum(np.maximum(t, times[0]), times[-1])
    i = np.searchsorted(times, t, side="right") - 1
    k = np.minimum(i, len(times) - 2)
    return i, (t - times[i]) / (times[k + 1] - times[k])


def _interp_map(times, grid):
    """(t, f) -> grid values at t (a time or one per row), linear between the
    nodes of times and flat outside them; f is not read."""
    def at(t, f):
        if grid.shape[0] == 1:
            return grid[0]
        i, w = locate(times, t)
        j = i + (w != 0.0)                  # node i itself on a node
        w = np.reshape(w, np.shape(w) + (1,) * (grid.ndim - 1))
        return (1.0 - w) * grid[i] + w * grid[j]
    return at


def _state_rows(markov: bool, fvals, t) -> np.ndarray:
    """Factor states to evaluate at: without a factor, state 0 with one row
    per time; a factor-driven model requires fvals (ConfigInvalid)."""
    if not markov:
        return np.zeros(np.size(t))
    if fvals is None:
        raise ConfigInvalid("factor state required with a factor-driven model", field="f")
    return np.atleast_1d(np.asarray(fvals, dtype=float))


@dataclass(frozen=True)
class CoefficientField:
    """Excess-return and volatility coefficients as (t, f) maps: without a
    factor ("deterministic", f not read) or driven by the factor
    dF = kappa (mean_level - F) dt + nu dW_j ("markov")."""

    kind: str  # "deterministic" | "markov"
    m: int
    n: int
    kappa: float = 0.0
    mean_level: float = 0.0
    nu: float = 0.0
    driving_index: int = 0
    f0: float = 0.0
    mu_map: Callable | None = field(default=None, repr=False)
    sigma_map: Callable | None = field(default=None, repr=False)

    @staticmethod
    def deterministic(mu, sigma, times=None) -> "CoefficientField":
        """Constant coefficients, or values on the time grid times."""
        if times is None:
            mu_g = np.atleast_1d(np.asarray(mu, dtype=float))
            if mu_g.ndim != 1:
                raise ConfigInvalid("constant mu must be a vector", field="coefficients.mu")
            times, mu_g = np.array([0.0]), mu_g[None, :]
            sig_g = np.atleast_2d(np.asarray(sigma, dtype=float))[None, :, :]
        else:
            times = np.asarray(times, dtype=float)
            mu_g = _as_time_grid(mu, (np.asarray(mu, dtype=float).shape[-1],), "coefficients.mu")
            sig_g = _as_time_grid(sigma, np.asarray(sigma, dtype=float).shape[-2:],
                                  "coefficients.sigma")
        if sig_g.shape[1] != mu_g.shape[1]:
            raise DimensionMismatch(f"sigma rows {sig_g.shape[1]} != m {mu_g.shape[1]}")
        if mu_g.shape[0] != times.shape[0] or sig_g.shape[0] != times.shape[0]:
            raise ConfigInvalid("coefficient grids must match the time grid", field="coefficients")
        return CoefficientField(
            kind="deterministic", m=mu_g.shape[1], n=sig_g.shape[2],
            mu_map=_interp_map(times, mu_g), sigma_map=_interp_map(times, sig_g),
        )

    @staticmethod
    def markov_factor(m, n, kappa, mean_level, nu, driving_index, f0,
                      mu_map, sigma_map) -> "CoefficientField":
        if kappa < 0 or nu < 0:
            raise ConfigInvalid("kappa and nu must be nonnegative", field="coefficients")
        if not 0 <= driving_index < n:
            raise ConfigInvalid("driving_index must name a Brownian component", field="coefficients")
        cf = CoefficientField(
            kind="markov", m=m, n=n, kappa=float(kappa), mean_level=float(mean_level),
            nu=float(nu), driving_index=int(driving_index), f0=float(f0),
            mu_map=mu_map, sigma_map=sigma_map,
        )
        # maps return one row per factor state, or one value shared by all rows
        mu0 = np.shape(mu_map(0.0, np.array([f0])))
        sig0 = np.shape(sigma_map(0.0, np.array([f0])))
        if mu0 not in ((m,), (1, m)):
            raise DimensionMismatch(f"mu map returns shape {mu0}, expected (N, {m})")
        if sig0 not in ((m, n), (1, m, n)):
            raise DimensionMismatch(f"sigma map returns shape {sig0}, expected (N, {m}, {n})")
        return cf

    def mu_batch(self, t, fvals: np.ndarray) -> np.ndarray:
        """(N,) factor states -> (N, m) excess returns; t is a time or one per row."""
        out = np.asarray(self.mu_map(t, fvals), dtype=float)
        shape = (fvals.shape[0], self.m)
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

    def sigma_batch(self, t, fvals: np.ndarray) -> np.ndarray:
        """(N,) factor states -> (N, m, n) volatilities; t is a time or one per row.
        Where sigma does not vary by row, a shared read-only view (zero row stride)."""
        out = np.asarray(self.sigma_map(t, fvals), dtype=float)
        shape = (fvals.shape[0], self.m, self.n)
        return out if out.shape == shape else np.broadcast_to(out, shape)

    def factor_step(self, f, dt: float, dw_j):
        """One Euler step of the factor, f + kappa (mean_level - f) dt + nu dw_j,
        on arrays of states f and driving increments dw_j."""
        return f + self.kappa * (self.mean_level - f) * dt + self.nu * dw_j

    def factor_mean(self, t: float) -> float:
        """E[F_t] = mean_level + (f0 - mean_level) exp(-kappa t)."""
        return self.mean_level + (self.f0 - self.mean_level) * math.exp(-self.kappa * t)

    def factor_quantiles(self, t: float, levels: Sequence[float]) -> np.ndarray:
        """Marginal quantiles of the factor at time t (Gaussian OU law): mean +
        z sd, z the standard normal quantiles of levels (NormalDist's bits)."""
        if self.kind != "markov":
            raise ValueError("factor quantiles only defined for markov coefficients")
        if self.kappa > 0:
            var = self.nu ** 2 * (1.0 - math.exp(-2.0 * self.kappa * t)) / (2.0 * self.kappa)
        else:
            var = self.nu ** 2 * t
        z = np.array([NormalDist().inv_cdf(q) for q in levels])
        return self.factor_mean(t) + z * math.sqrt(max(var, 0.0))


def affine_factor_maps(m, n, mu0, mu1, sigma0, sigma1=None):
    """Vectorized (t, F) -> mu / sigma maps affine in the factor; when sigma1
    is absent or zero, sigma_map returns the read-only (m, n) sigma0 itself."""
    mu0 = np.asarray(mu0, dtype=float).reshape(m)
    mu1 = np.asarray(mu1, dtype=float).reshape(m)
    sigma0 = np.array(sigma0, dtype=float).reshape(m, n)
    sigma0.flags.writeable = False
    sigma1 = None if sigma1 is None else np.asarray(sigma1, dtype=float).reshape(m, n)

    def mu_map(t, f):
        return mu0 + np.asarray(f, dtype=float)[..., None] * mu1

    if sigma1 is None or not np.any(sigma1):
        def sigma_map(t, f):
            return sigma0
    else:
        def sigma_map(t, f):
            return sigma0 + np.asarray(f, dtype=float)[..., None, None] * sigma1

    return mu_map, sigma_map


@dataclass(frozen=True)
class MarketModel:
    """Validated market: dimensions, horizon, preferences and coefficients."""

    m: int
    n: int
    horizon_T: float
    x0: float
    theta: float
    rate: PiecewiseRate
    coefficients: CoefficientField
    delta: float

    def discount(self, t):
        """h_t = exp(integral of r over [t, T]) at a time, or at one time per
        row with one math.exp per row (np.exp may differ by an ulp);
        TimeOutOfRange outside [0, T]."""
        _check_times(t, self.horizon_T)
        r = self.rate.integral(t, self.horizon_T)
        if np.ndim(r):
            return np.array([math.exp(v) for v in r.tolist()])
        return math.exp(r)

    @functools.cached_property
    def h0(self) -> float:
        """h_0 = discount(0.0), computed once per model."""
        return self.discount(0.0)

    def probe_lattice(self, times, quantiles: int) -> tuple[np.ndarray, np.ndarray]:
        """(t_rows, f_rows) probe columns in t-major order: one row per time at
        factor state 0 without a factor; with one, per time, the factor's
        marginal quantiles at `quantiles` levels evenly spaced in [0.005, 0.995]."""
        times = np.asarray(times, dtype=float)
        if self.coefficients.kind == "deterministic":
            return times, np.zeros(len(times))
        levels = np.linspace(0.005, 0.995, quantiles)
        f_rows = np.concatenate([self.coefficients.factor_quantiles(t, levels)
                                 for t in times.tolist()])
        return np.repeat(times, quantiles), f_rows


def build_model(config: dict) -> MarketModel:
    """Validate a model description and return an immutable MarketModel;
    rejects non-finite T, x0, theta or delta, inconsistent dimensions,
    non-positive risk aversion, and any volatility whose Gram matrix drops
    below delta * I on the probe lattice."""
    numbers = []
    for name, convert in (("m", int), ("n", int), ("T", float), ("x0", float),
                          ("theta", float), ("delta", float)):
        try:
            numbers.append(convert(config.get(name, 1e-8) if name == "delta" else config[name]))
        except KeyError as exc:
            raise ConfigInvalid("missing required field", field=name) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"must be a number, got {config[name]!r}", field=name) from exc
    m, n, horizon, x0, theta, delta = numbers
    for name, v in (("T", horizon), ("x0", x0), ("theta", theta), ("delta", delta)):
        if not math.isfinite(v):
            raise ConfigInvalid(f"must be finite, got {v}", field=name)
    if m > n:
        raise DimensionMismatch(f"m={m} risky assets exceed Brownian dimension n={n}")
    if m < 1:
        raise ConfigInvalid("need at least one risky asset", field="m")
    if theta <= 0:
        raise NonPositiveTheta(f"theta={theta} must be > 0")
    if horizon <= 0:
        raise ConfigInvalid("horizon T must be > 0", field="T")
    if delta <= 0:
        raise ConfigInvalid("ellipticity floor delta must be > 0", field="delta")

    rate_cfg = config.get("rate", 0.0)
    if isinstance(rate_cfg, (int, float)):
        rate = PiecewiseRate.constant(float(rate_cfg), horizon)
    else:
        try:
            rate = PiecewiseRate(
                tuple(float(seg["until"]) for seg in rate_cfg),
                tuple(float(seg["value"]) for seg in rate_cfg),
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigInvalid("segments need numeric 'until' and 'value'", field="rate") from exc
    if rate.breaks[-1] < horizon - 1e-12:
        raise ConfigInvalid("rate segments must cover [0, T]", field="rate")

    coeff_cfg = config.get("coefficients")
    if coeff_cfg is None:
        raise ConfigInvalid("missing coefficients block", field="coefficients")
    kind = coeff_cfg.get("kind", "deterministic")
    try:
        if kind == "deterministic":
            coeffs = CoefficientField.deterministic(coeff_cfg["mu"], coeff_cfg["sigma"],
                                                    coeff_cfg.get("times"))
        elif kind in ("markov", "markov_factor"):
            mu_map, sigma_map = affine_factor_maps(
                m, n, coeff_cfg.get("mu0", np.zeros(m)), coeff_cfg.get("mu1", np.zeros(m)),
                coeff_cfg["sigma0"], coeff_cfg.get("sigma1"))
            coeffs = CoefficientField.markov_factor(
                m, n, coeff_cfg["kappa"], coeff_cfg["mean"], coeff_cfg["nu"],
                coeff_cfg.get("driving_index", n - 1), coeff_cfg["f0"], mu_map, sigma_map)
        else:
            raise ConfigInvalid(f"unknown coefficient kind {kind!r}", field="coefficients.kind")
    except KeyError as exc:
        raise ConfigInvalid("missing required field", field=f"coefficients.{exc.args[0]}") from exc

    if coeffs.m != m or coeffs.n != n:
        raise DimensionMismatch(
            f"coefficients are {coeffs.m}x{coeffs.n}, model declares {m}x{n}")

    model = MarketModel(
        m=m, n=n, horizon_T=horizon, x0=x0, theta=theta,
        rate=rate, coefficients=coeffs, delta=delta,
    )
    _check_ellipticity(model)
    return model


def _check_ellipticity(model: MarketModel) -> None:
    """Finite coefficients and sigma sigma' >= delta I on the probe lattice
    (PROBE_TIME_POINTS times on [0, T] x PROBE_FACTOR_QUANTILES).

    One sigma/mu evaluation and one eigvalsh over every (t, f) probe row; the
    first probe time that fails raises, naming its worst factor state.
    """
    cf = model.coefficients
    t_rows, f_rows = model.probe_lattice(
        np.linspace(0.0, model.horizon_T, PROBE_TIME_POINTS), PROBE_FACTOR_QUANTILES)
    sig = cf.sigma_batch(t_rows, f_rows)
    finite = (np.isfinite(sig).all(axis=(1, 2))
              & np.isfinite(cf.mu_batch(t_rows, f_rows)).all(axis=1))
    sig = np.where(finite[:, None, None], sig, 0.0)
    shape = (PROBE_TIME_POINTS, -1)                           # (times, states)
    min_eig = np.linalg.eigvalsh(sig @ np.swapaxes(sig, 1, 2))[:, 0].reshape(shape)
    finite = finite.reshape(shape).all(axis=1)
    bad = ~finite | np.any(min_eig < model.delta, axis=1)
    if not np.any(bad):
        return
    i = int(np.argmax(bad))
    t = t_rows.reshape(shape)[i, 0]
    if not finite[i]:
        raise ConfigInvalid(f"non-finite coefficients at t={t}", field="coefficients")
    k = int(np.argmin(min_eig[i]))
    raise DegenerateVolatility(
        f"min eigenvalue of sigma sigma' = {min_eig[i, k]:.3e} < delta={model.delta} "
        f"at (t={t:.4f}, f={f_rows.reshape(shape)[i, k]})")


def coefficients_at(model: MarketModel, t, fvals: np.ndarray):
    """(sigma (N, m, n), mu (N, m), phi (N, n)) at factor states fvals (N,):
    sigma and mu evaluated once each, phi derived from them.  t is a time or
    one time per row; TimeOutOfRange outside [0, T]."""
    _check_times(t, model.horizon_T)
    sig = model.coefficients.sigma_batch(t, fvals)
    mu = model.coefficients.mu_batch(t, fvals)
    return sig, mu, pricing_kernel_from(sig, mu)


def pricing_kernel_batch(model: MarketModel, t, fvals: np.ndarray) -> np.ndarray:
    """phi = sigma' (sigma sigma')^{-1} mu, the minimal-norm solution of sigma phi = mu.

    (N,) factor states -> (N, n); t is a time or one time per row.
    """
    return coefficients_at(model, t, fvals)[2]


def pricing_kernel_from(sig: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """phi = sigma' (sigma sigma')^{-1} mu from (N, m, n) volatilities and (N, m)
    returns; one asset: (mu / |s|^2) s, s = sigma's row, a column at a time."""
    if sig.shape[1] == 1:
        s = sig[:, 0, :]
        r = s[:1] if s.strides[0] == 0 else s   # one s for every row: |s|^2 from one row
        k = mu[:, 0] / np.einsum("ij,ij->i", r, r)
        phi = np.empty(s.shape)
        for c in range(s.shape[1]):
            np.multiply(k, s[:, c], out=phi[:, c])
        return phi
    gram = sig @ np.swapaxes(sig, 1, 2)                    # (N, m, m)
    try:
        w = np.linalg.solve(gram, mu[..., None])           # (N, m, 1)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("sigma sigma' is singular") from exc
    return (np.swapaxes(sig, 1, 2) @ w)[..., 0]            # (N, n)
