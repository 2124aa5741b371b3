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
    read_array,
    read_count,
    read_number,
    read_object,
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
        """Constant coefficients, mu (m,) and sigma (m, n), or their values
        on the increasing time grid times (K,), mu (K, m) and sigma (K, m, n);
        entries of the wrong type or shape are a ConfigInvalid naming them."""
        grid = ()
        if times is not None:
            times = read_array(times, (None,), "coefficients.times", "a list of finite times")
            if np.any(np.diff(times) <= 0.0):
                raise ConfigInvalid("must increase", field="coefficients.times")
            grid = times.shape
        mu_g = read_array(mu, grid + (None,), "coefficients.mu",
                          "an (m,) array of numbers, (K, m) on K times", finite=False)
        m = mu_g.shape[-1]
        sig_g = read_array(sigma, grid + (m, None), "coefficients.sigma",
                           f"an ({m}, n) array of numbers, (K, {m}, n) on K times", finite=False)
        if times is None:
            times, mu_g, sig_g = np.zeros(1), mu_g[None], sig_g[None]
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
            raise ConfigInvalid("factor quantiles need markov coefficients",
                                field="coefficients.kind")
        if self.kappa > 0:
            var = self.nu ** 2 * (1.0 - math.exp(-2.0 * self.kappa * t)) / (2.0 * self.kappa)
        else:
            var = self.nu ** 2 * t
        z = np.array([NormalDist().inv_cdf(q) for q in levels])
        return self.factor_mean(t) + z * math.sqrt(max(var, 0.0))


def affine_factor_maps(m, n, mu0, mu1, sigma0, sigma1=None):
    """Vectorized (t, F) -> mu / sigma maps affine in the factor, from mu0
    and mu1 of shape (m,) and sigma0 and sigma1 of shape (m, n), each read
    under coefficients.<name>; when sigma1 is absent or zero, sigma_map
    returns the read-only sigma0 itself."""
    def read(name, value, shape):
        return read_array(value, shape, f"coefficients.{name}",
                          f"an array of numbers of shape {shape}", finite=False)

    mu0, mu1 = read("mu0", mu0, (m,)), read("mu1", mu1, (m,))
    sigma0 = read("sigma0", sigma0, (m, n))
    sigma0.flags.writeable = False
    sigma1 = None if sigma1 is None else read("sigma1", sigma1, (m, n))

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
    """Read a model description, each entry through the errors.read_*
    readers, into an immutable MarketModel.  Also refuses m > n, theta,
    T or delta <= 0, rate segments short of T, coefficients that do not
    match m x n, and any volatility whose Gram matrix drops below delta I
    on the probe lattice."""
    m, n = read_count(config, "m", None, "m"), read_count(config, "n", None, "n")
    horizon, x0, theta = (read_number(config, key, None, key) for key in ("T", "x0", "theta"))
    delta = read_number(config, "delta", 1e-8, "delta")
    if m > n:
        raise DimensionMismatch(f"m={m} risky assets exceed Brownian dimension n={n}")
    if theta <= 0:
        raise NonPositiveTheta(f"theta={theta} must be > 0")
    if horizon <= 0:
        raise ConfigInvalid("horizon T must be > 0", field="T")
    if delta <= 0:
        raise ConfigInvalid("ellipticity floor delta must be > 0", field="delta")

    rate_cfg = config.get("rate", 0.0)
    if isinstance(rate_cfg, list):
        segments = [read_object(seg, "rate") for seg in rate_cfg]
        rate = PiecewiseRate(*(tuple(read_number(seg, key, None, "rate") for seg in segments)
                               for key in ("until", "value")))
    else:
        rate = PiecewiseRate.constant(read_number(config, "rate", 0.0, "rate"), horizon)
    if rate.breaks[-1] < horizon - 1e-12:
        raise ConfigInvalid("rate segments must cover [0, T]", field="rate")

    coeff_cfg = read_object(config.get("coefficients"), "coefficients")
    kind = coeff_cfg.get("kind", "deterministic")
    if kind == "deterministic":
        coeffs = CoefficientField.deterministic(coeff_cfg.get("mu"), coeff_cfg.get("sigma"),
                                                coeff_cfg.get("times"))
    elif kind == "markov":
        mu_map, sigma_map = affine_factor_maps(
            m, n, coeff_cfg.get("mu0", np.zeros(m)), coeff_cfg.get("mu1", np.zeros(m)),
            coeff_cfg.get("sigma0"), coeff_cfg.get("sigma1"))
        kappa, mean, nu, f0 = (read_number(coeff_cfg, key, None, f"coefficients.{key}")
                               for key in ("kappa", "mean", "nu", "f0"))
        coeffs = CoefficientField.markov_factor(
            m, n, kappa, mean, nu,
            read_count(coeff_cfg, "driving_index", n - 1, "coefficients.driving_index", 0),
            f0, mu_map, sigma_map)
    else:
        raise ConfigInvalid(f"unknown coefficient kind {kind!r}", field="coefficients.kind")

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
    with np.errstate(invalid="ignore"):     # 0 * inf between the nodes of an infinite entry
        sig, mu = cf.sigma_batch(t_rows, f_rows), cf.mu_batch(t_rows, f_rows)
    finite = np.isfinite(sig).all(axis=(1, 2)) & np.isfinite(mu).all(axis=1)
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
