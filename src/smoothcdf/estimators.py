"""The five CDF estimators behind one evaluate/quantile interface.

Every fit function sorts and validates its sample once and returns an
immutable fitted object; evaluation is vectorized over the query points.
Each family's formula is written once, here.  The kernel, Bernstein and
Hermite formulas are functions over a leading row axis of samples
(``_kernel_rows``, ``_bernstein_rows`` over ``_bernstein_survival``,
``_hermite_coefficients``): a fitted object is the one-row case, and the
sweeps in ``simulation`` pass chunks of repetitions.  The smooth
half-line estimator is evaluated through its finite incomplete-gamma
representation: with c_i = max(1, ceil(m X_i)),

    Fhat(x) = (1/n) sum_i P(c_i, m x),

where P is the regularized lower incomplete gamma function; the Szasz
sweep uses the Poisson series form and is tested against this one.
Observations sharing an order give equal terms, so the Szasz and
Bernstein fits keep the distinct orders of their sample and their counts.
The Szasz fit computes one incomplete gamma (and one Poisson weight for
``density``) per distinct order and expands the rows back by the counts
before the same mean over observations (``SzaszEstimator._per_observation``),
so its values equal the per-observation form bit for bit.  The Bernstein
fit builds its survival table only for the occupied orders, at most
min(n, m + 1) rows; the Bernstein sweep keeps the full table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .special import hermite_basis, poisson_log_pmf

__all__ = [
    "QuantileBracketError",
    "EmpiricalCDF",
    "SzaszEstimator",
    "BernsteinEstimator",
    "KernelCDF",
    "HermiteHalfEstimator",
    "edf_fit",
    "szasz_fit",
    "bernstein_fit",
    "kernel_fit",
    "hermite_half_fit",
    "hermite_half_standardized_fit",
    "fit_from_spec",
    "KINDS",
]

_X_MAX = 1e6  # quantile bracketing gives up past this point
_ELEMENT_BUDGET = 4_000_000  # array elements one chunk of rows or points may allocate


class QuantileBracketError(RuntimeError):
    """The estimate does not cross the requested level within |x| <= 1e6."""


def _as_sample(values, lower=0.0, upper=None, what="sample"):
    x = np.sort(np.asarray(values, dtype=float).ravel())
    if x.size == 0:
        raise ValueError(f"{what} must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    if lower is not None and x[0] < lower:
        raise ValueError(f"{what} values must be >= {lower}")
    if upper is not None and x[-1] > upper:
        raise ValueError(f"{what} values must be <= {upper}")
    return x


def _check_level(p):
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return p


def _bisect_increasing(f, p, lo, hi, tol=1e-10):
    # invariant: f(lo) < p <= f(hi); returns inf{x: f(x) >= p} within tol
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi


def _in_chunks(fn, items, width):
    # fn over blocks of at most _ELEMENT_BUDGET // width items along the first
    # axis, results joined; empty items make one call, keeping fn's shape
    step = max(1, _ELEMENT_BUDGET // width)
    return np.concatenate([fn(items[i:i + step]) for i in range(0, len(items) or 1, step)])


def _row_bincount(idx, width_max):
    # counts of 0..width_max in each row of a non-negative integer matrix
    n_rows = idx.shape[0]
    width = width_max + 1
    offsets = (np.arange(n_rows, dtype=np.int64) * width)[:, None]
    flat = (idx + offsets).ravel()
    counts = np.bincount(flat, minlength=n_rows * width)
    return counts.reshape(n_rows, width).astype(float)


def _szasz_orders(samples, m):
    # c_i = max(1, ceil(m X_i)); from 2**53 on a float no longer holds that integer
    if m * float(np.max(samples)) >= 2.0 ** 53:
        raise ValueError(f"m = {m} times the largest observation {float(np.max(samples)):g} "
                         "is too large for ceil(m X) to be an exact integer (limit 2**53)")
    return np.maximum(1, np.ceil(m * samples)).astype(np.int64)


def _kernel_rows(samples, h, x):
    # Fhat(x) per sample row: mean_i ndtr((x - X_i) / h)
    return sp.ndtr((x[None, None, :] - samples[:, :, None]) / h).mean(axis=1)


def _bernstein_orders(samples, m):
    return np.ceil(m * samples).astype(np.int64).clip(0, m)


def _bernstein_survival(m, x, orders=None):
    # P(Bin(m, x) >= c) = I_x(c, m - c + 1), one row per c in orders (default
    # 0..m), a c = 0 row equal to 1
    c = np.arange(m + 1) if orders is None else np.asarray(orders)
    table = np.ones((c.size, x.size))
    pos = c > 0
    shapes = c[pos].astype(float)[:, None]
    table[pos] = sp.betainc(shapes, m - shapes + 1.0, x[None, :])
    return table


def _bernstein_rows(samples, m, survival):
    # Fhat per sample row: sum_k F_n(k/m) b_{k,m}(x) = (1/n) sum_c #{c_i = c} S[c]
    # with c_i = ceil(m X_i) and S = _bernstein_survival(m, x)
    return _row_bincount(_bernstein_orders(samples, m), m) @ survival / samples.shape[1]


def _hermite_coefficients(samples, scale, order_max):
    # a_hat_k = mean_i h_k(X_i / scale) for k = 0..order_max, one row per sample row
    vals, _ = hermite_basis((samples / scale).ravel(), order_max)
    return vals.reshape(order_max + 1, *samples.shape).mean(axis=2).T


class _Fitted:
    """What the fitted estimators share: the sample size, the evaluation
    shell around each family's ``_cdf`` formula and the quantile search.

    ``_lower`` and ``_upper`` bound the domain an estimate may be evaluated on.
    """

    _lower = -math.inf
    _upper = math.inf

    @property
    def n(self):
        return self.sample.size

    def evaluate(self, x):
        """The estimate at x: a float for a scalar, else an array shaped like x."""
        return self._pointwise(self._cdf, x)

    def _pointwise(self, formula, x):
        # formula maps a flat float array to the values at its points
        x = np.asarray(x, dtype=float)
        if self._upper < math.inf:
            if (x < self._lower).any() or (x > self._upper).any():
                raise ValueError(
                    f"evaluation points must lie in [{self._lower:g}, {self._upper:g}]")
        elif self._lower > -math.inf and (x < self._lower).any():
            raise ValueError(f"evaluation points must be >= {self._lower:g}")
        out = formula(np.atleast_1d(x).ravel())
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def _search(self, p, lo, hi):
        # inf{x: Fhat(x) >= p} for a non-decreasing fit: double the width of
        # [lo, hi] until Fhat(lo) < p <= Fhat(hi), within the domain and
        # +-_X_MAX, then bisect.  Fhat(lo) >= p at the domain's lower edge
        # makes the edge itself the answer
        p = _check_level(p)
        floor, ceiling = max(self._lower, -_X_MAX), min(self._upper, _X_MAX)
        while self.evaluate(lo) >= p:
            if lo <= floor:
                if floor == self._lower:
                    return lo
                raise QuantileBracketError(
                    f"estimator exceeds level {p} already at x = {floor:g}")
            lo = max(floor, hi - 2.0 * (hi - lo))
        while self.evaluate(hi) < p:
            if hi >= ceiling:
                raise QuantileBracketError(
                    f"estimator never reaches level {p} below x = {ceiling:g}")
            hi = min(ceiling, lo + 2.0 * (hi - lo))
        return _bisect_increasing(self.evaluate, p, lo, hi)


@dataclass(frozen=True)
class EmpiricalCDF(_Fitted):
    """Step-function estimator: fraction of observations <= x."""

    sample: np.ndarray
    kind: str = field(default="edf", init=False)

    def _cdf(self, flat):
        return np.searchsorted(self.sample, flat, side="right") / self.n

    def quantile(self, p):
        # inf{x: F_n(x) >= p} is the ceil(n p)-th order statistic; the tiny
        # slack guards against n*p landing one ulp above an integer
        p = _check_level(p)
        return float(self.sample[math.ceil(self.n * p - 1e-9) - 1])


@dataclass(frozen=True)
class SzaszEstimator(_Fitted):
    """Poisson-smoothed CDF estimator on [0, inf)."""

    sample: np.ndarray
    m: int
    orders: np.ndarray  # the distinct c_i = max(1, ceil(m X_i)), increasing
    counts: np.ndarray  # how many observations share each order
    kind: str = field(default="szasz", init=False)
    _lower = 0.0

    @property
    def gamma_shapes(self):
        """c_i = max(1, ceil(m X_i)), one per observation."""
        return np.repeat(self.orders, self.counts)

    def _per_observation(self, table):
        # one row per observation from one row per distinct order, then the
        # mean over observations; a counts-weighted sum would round differently
        return np.repeat(table, self.counts, axis=0).mean(axis=0)

    def _cdf(self, flat):
        shapes = self.orders.astype(float)[:, None]
        return _in_chunks(
            lambda t: self._per_observation(sp.gammainc(shapes, self.m * t[None, :])),
            flat, self.n)

    def density(self, x):
        """Derivative of the fitted CDF, a Poisson-weight mixture density."""
        k = (self.orders - 1).astype(float)[:, None]
        return self._pointwise(
            lambda t: self.m * self._per_observation(
                np.exp(poisson_log_pmf(k, self.m * t[None, :]))), x)

    def quantile(self, p):
        return self._search(p, 0.0, 2.0 * float(self.sample[-1]) + 10.0 / self.m)


@dataclass(frozen=True)
class BernsteinEstimator(_Fitted):
    """Polynomial CDF estimator on [0, 1] with binomial weights."""

    sample: np.ndarray
    m: int
    orders: np.ndarray  # the distinct c_i = ceil(m X_i), increasing
    counts: np.ndarray  # how many observations share each order
    kind: str = field(default="bernstein", init=False)
    _lower = 0.0
    _upper = 1.0

    def _cdf(self, flat):
        # _bernstein_rows on the occupied rows of the survival table only
        return _in_chunks(
            lambda t: self.counts @ _bernstein_survival(self.m, t, self.orders) / self.n,
            flat, self.orders.size)

    def quantile(self, p):
        return self._search(p, 0.0, 1.0)


@dataclass(frozen=True)
class KernelCDF(_Fitted):
    """Gaussian-kernel CDF estimator, smooth and strictly increasing."""

    sample: np.ndarray
    h: float
    kind: str = field(default="kernel", init=False)

    def _cdf(self, flat):
        return _kernel_rows(self.sample[None, :], self.h, flat)[0]

    def quantile(self, p):
        return self._search(p, float(self.sample[0]) - self.h,
                            2.0 * abs(float(self.sample[-1])) + 10.0 * self.h)


@dataclass(frozen=True)
class HermiteHalfEstimator(_Fitted):
    """Truncated Hermite-series density estimate integrated from 0.

    Not a proper CDF: the truncation keeps the limit at infinity away from
    one and the curve need not be monotone.  ``clip`` restricts evaluations
    to [0, 1] for consumers that need a distribution function; MISE
    experiments use the raw curve.
    """

    sample: np.ndarray
    order_max: int
    coef: np.ndarray  # a_hat_k = mean of h_k at the (rescaled) observations
    scale: float = 1.0
    clip: bool = False
    kind: str = field(default="hermite_half", init=False)
    _lower = 0.0

    def _cdf(self, flat):
        _, integrals = hermite_basis(flat / self.scale, self.order_max)
        out = self.coef @ integrals
        return np.clip(out, 0.0, 1.0) if self.clip else out

    def quantile(self, p):
        # generalized inf over a possibly non-monotone curve: locate the
        # first upcrossing on a grid, then bisect inside that cell
        p = _check_level(p)
        hi = 2.0 * float(self.sample[-1]) + 10.0 * self.scale
        while True:
            grid = np.linspace(0.0, hi, 4097)
            above = np.nonzero(self.evaluate(grid) >= p)[0]
            if above.size:
                break
            if hi >= _X_MAX:
                raise QuantileBracketError(
                    f"estimate never reaches level {p} below x = {_X_MAX:g}")
            hi = min(_X_MAX, 2.0 * hi)
        j = above[0]
        if j == 0:
            return 0.0
        return _bisect_increasing(self.evaluate, p, grid[j - 1], grid[j])


def edf_fit(values):
    """Empirical distribution function of a sample."""
    return EmpiricalCDF(_as_sample(values, lower=None))


def szasz_fit(values, m):
    """Fit the Poisson-smoothed estimator of order m on non-negative data.

    An observation exactly at 0 is assigned c_i = 1 (its smallest
    well-defined incomplete-gamma order); for continuous models the event
    has probability zero.  m times the largest observation must stay below
    2**53, so that every c_i is an exact integer.
    """
    m = _check_order(m)
    x = _as_sample(values)
    return SzaszEstimator(x, m, *np.unique(_szasz_orders(x, m), return_counts=True))


def bernstein_fit(values, m):
    """Fit the Bernstein polynomial estimator on data in [0, 1]."""
    m = _check_order(m)
    x = _as_sample(values, upper=1.0)
    return BernsteinEstimator(x, m, *np.unique(_bernstein_orders(x, m), return_counts=True))


def kernel_fit(values, h):
    """Fit the Gaussian-kernel CDF estimator with bandwidth h > 0."""
    return KernelCDF(_as_sample(values, lower=None), _check_bandwidth(h))


def hermite_half_fit(values, order_max, clip=False):
    """Fit the half-line Hermite estimator with N + 1 series terms."""
    return hermite_half_standardized_fit(values, order_max, None, 1.0, clip)


def hermite_half_standardized_fit(values, order_max, mu, sigma, clip=False):
    """Hermite estimator fitted to scale-standardized data z = x / sigma.

    Experimental: only the known true scale is used (a location shift would
    move mass off [0, inf)); ``mu`` is accepted for interface completeness.
    The estimate at x is the plain fit on z_i = X_i / sigma read at x / sigma,
    so rescaling data and query point together leaves the output unchanged.
    """
    del mu
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    order_max = _check_order_max(order_max)
    x = _as_sample(values)
    coef = _hermite_coefficients(x[None, :], sigma, order_max)[0]
    return HermiteHalfEstimator(x, order_max, coef, scale=sigma, clip=clip)


KINDS = ("edf", "szasz", "bernstein", "kernel", "hermite_half")  # the spec kinds


def fit_from_spec(spec, values, dist=None):
    """Fit an estimator from its JSON config form.

    Examples: {"kind": "szasz", "m": 50}, {"kind": "kernel", "h": 0.05},
    {"kind": "hermite_half", "N": 20, "standardize": true}.  Standardized
    Hermite fits take sigma from the spec or from ``dist``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("estimator spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "edf":
        return edf_fit(values)
    if kind == "szasz":
        return szasz_fit(values, spec["m"])
    if kind == "bernstein":
        return bernstein_fit(values, spec["m"])
    if kind == "kernel":
        return kernel_fit(values, spec["h"])
    if kind == "hermite_half":
        if spec.get("standardize", False):
            sigma = spec.get("sigma", dist.sd if dist is not None else None)
            if sigma is None:
                raise ValueError("standardized hermite fit needs sigma (or a model)")
            return hermite_half_standardized_fit(values, spec["N"], None, sigma,
                                                 clip=spec.get("clip", False))
        return hermite_half_fit(values, spec["N"], clip=spec.get("clip", False))
    raise ValueError(f"unknown estimator kind: {kind!r}")


def _check_order(m):
    if int(m) < 1:
        raise ValueError("order m must be a positive integer")
    return int(m)


def _check_bandwidth(h):
    if not float(h) > 0.0:  # NaN too
        raise ValueError("bandwidth must be positive")
    return float(h)


def _check_order_max(order_max):
    if int(order_max) < 0:
        raise ValueError("order_max must be >= 0")
    return int(order_max)
