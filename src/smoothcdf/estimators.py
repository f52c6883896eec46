"""The five CDF estimators behind one evaluate/quantile interface.

Every fit function sorts and validates its sample once and returns an
immutable fitted object; evaluation is vectorized over the query points.
Each family's formula is written once, here.  The kernel, Bernstein and
Hermite formulas are functions over a leading row axis of samples
(``_kernel_rows``, ``_bernstein_rows`` over ``_bernstein_survival``,
``_hermite_coefficients``): a fitted object is the one-row case, and the
sweeps in ``simulation`` pass chunks of repetitions.  ``evaluate_rows``
reads every row's estimate at one point through these formulas and
``_szasz_rows`` without building a fitted object per row; it and
``fit_from_spec`` share one spec parser over the shared spec reader,
``_checks.spec``.  Each kind takes exactly the keys it reads: edf none,
szasz and bernstein ``m``, kernel ``h``, and hermite_half ``N``, with an
optional ``standardize`` and, only when that is true, ``sigma``.
``_KINDS`` holds, per kind, the fitted class (whose ``_lower`` and
``_upper`` are the family's domain), its required and optional spec keys
and the check of its parameter, one of the shared checks of ``_checks``;
the spec parser and ``simulation``'s sweep config read it.  The smooth
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
so its values equal the per-observation form bit for bit; ``_szasz_rows``
does the same per distinct order of a chunk of rows.  The Bernstein fit
builds its survival table only for the occupied orders, at most
min(n, m + 1) rows; the Bernstein sweep keeps the full table.

Quantiles are inf{x: Fhat(x) >= p}.  The EDF takes the k-th order
statistic for the smallest k with k / n >= p.  The Szasz, Bernstein and
kernel fits are non-decreasing in exact arithmetic.  They widen a bracket
and then return exactly what bisecting it one midpoint per ``evaluate``
returns, in about 8 one-point calls per level instead of about 40
(``_bisect_certified``).  Each fit keeps one table of the one-point values
its quantile searches have computed, at most ``_KNOWN_CAP`` = 256 of them,
shared by all its levels: the bracket ends, the same for every level, are
computed once per fit.  Only one-point values enter it, since a value
evaluated among other points can differ in the last bit.  Brent's method,
started from the tightest bracket the table knows inside the widened one,
*locates* the crossing x_hat.  Probes on either
side, 4-fold farther each time, *certify* a lower point with Fhat < p - eta
and an upper one with Fhat >= p + eta, eta = ``_ETA`` = 1e-12.  The
bisection is then *replayed* unchanged: a midpoint at or above the upper
point counts as >= p and one at or below the lower point as < p without a
call, and only midpoints strictly between them are evaluated.  Each replay
decision is the plain loop's unless a float value of the fit falls below
the value at an earlier point by eta; the largest such dip measured over
random fits of the three families, points 1e-9 apart, was 0.0.  Every
call takes one point: their cost grows with the number of points, so wider
batches would be slower.  Quantiles of one fit may be asked from several
threads at once: a search reads the table through a snapshot, never while
another thread extends it, one lock makes each size test and insert a
single step, and a value computed twice is the same value.

The Hermite series need not be monotone.  Its search finds the first upcrossing
on a 4097-point grid, which each fit evaluates once and keeps read-only for
every level, and bisects that cell six levels per ``evaluate``, whose cost
is nearly all per call.  A Hermite value at a point does not depend on the
other points evaluated with it, so the answers are bit-identical to one
midpoint per call.

Work over many rows or points goes in chunks (``_in_chunks``) whose
arrays held at once, temporaries included, have at most
``_ELEMENT_BUDGET`` elements.  The Szasz and kernel ``evaluate`` and the
Szasz ``density`` take their points so.  A chunk of exactly one point
averages over the observations in another order than a wider chunk does,
so its value can differ in the last bit from the same point evaluated
among others.

Evaluation points are finite, but m x, (x - X_i) / h and x / sigma can
overflow to +-inf at the largest of them; every family then reads its limit
there, the Szasz density 0, without an overflow warning.  The Hermite
estimate takes x / sigma, and its coefficients X_i / sigma, at most
``_HERMITE_FLAT`` = 40, where every h_k is already 0, so the Hermite
x * x stays finite.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy import optimize, special as sp

from . import _checks
from ._checks import flag, integer, positive
from .special import hermite_basis, hermite_values, poisson_log_pmf

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
    "evaluate_rows",
    "KINDS",
]

_X_MAX = 1e6  # quantile bracketing gives up past this point
_FLOAT_MAX = float(np.finfo(float).max)  # the largest finite float
_ELEMENT_BUDGET = 250_000  # array elements one chunk of rows or points may allocate
# eta: a float evaluation of a non-decreasing fit is taken to dip below an
# earlier point's value by less than this; the certified quantile search
# rests on it (the dip measured over random fits of each family was 0.0)
_ETA = 1e-12
# one-point values a fit's table of known values keeps; the lock makes each
# table's size test and insert one step across threads
_KNOWN_CAP = 256
_KNOWN_LOCK = threading.Lock()
# past this x / sigma, exp(-x^2/2) has underflowed to 0: every Hermite function
# is 0 and every integral at its limit, so the estimate reads as it does here
_HERMITE_FLAT = 40.0


class QuantileBracketError(RuntimeError):
    """The estimate does not cross the requested level within |x| <= 1e6."""


def _as_sample(values, lower=0.0, upper=None):
    return _check_sample(np.sort(np.asarray(values, dtype=float).ravel()), lower, upper)


def _check_sample(x, lower, upper, what="sample"):
    # x holds one sample or a matrix of sample rows; None or an infinite
    # bound leaves that side open
    if x.size == 0:
        raise ValueError(f"{what} must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    if lower is not None and x.min() < lower:
        raise ValueError(f"{what} values must be >= {lower}")
    if upper is not None and x.max() > upper:
        raise ValueError(f"{what} values must be <= {upper}")
    return x


def _check_points(x, lower, upper):
    # finite evaluation points inside an estimator's domain [lower, upper]; NaN
    # fails both comparisons and the infinities lie outside the finite floats,
    # so the one test rejects them on every domain
    if not np.all((x >= max(lower, -_FLOAT_MAX)) & (x <= min(upper, _FLOAT_MAX))):
        if np.isnan(x).any():
            raise ValueError("evaluation points must not be NaN")
        if np.isinf(x).any():
            raise ValueError("evaluation points must be finite")
        if upper < math.inf:
            raise ValueError(f"evaluation points must lie in [{lower:g}, {upper:g}]")
        raise ValueError(f"evaluation points must be >= {lower:g}")


def _check_level(p):
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return p


def _bisect_increasing(f, p, lo, hi, tol=1e-10, levels=1):
    # invariant: f(lo) < p <= f(hi); returns inf{x: f(x) >= p} within tol,
    # after at most 200 halvings.  Each call of f takes the 2**levels - 1
    # midpoints of the next `levels` halvings at once, heap-ordered (node i
    # splits into 2i + 1 and 2i + 2); the walk down that tree halves as one
    # midpoint per call would, so for an f whose value at a point does not
    # depend on the other points the answer does not depend on levels
    steps = 0
    while steps < 200 and hi - lo > tol:
        depth = min(levels, 200 - steps)
        ends, mids = [(lo, hi)], []
        for node in range(2 ** depth - 1):
            a, b = ends[node]
            mid = 0.5 * (a + b)
            mids.append(mid)
            ends += (a, mid), (mid, b)
        values = f(mids)
        node = 0
        for _ in range(depth):
            if hi - lo <= tol:
                break
            if values[node] >= p:
                hi, node = mids[node], 2 * node + 1
            else:
                lo, node = mids[node], 2 * node + 2
            steps += 1
    return hi


def _recall(known, f, x):
    # f(x) from a fit's table of one-point values, or computed and added to it
    # while it has room
    value = known.get(x)
    if value is None:
        value = f(x)
        with _KNOWN_LOCK:
            if len(known) < _KNOWN_CAP:
                known[x] = value
    return value


def _bisect_certified(f, p, lo, f_lo, hi, f_hi, known, tol=1e-10):
    # _bisect_increasing(f, p, lo, hi, tol) bit for bit, for a non-decreasing
    # f of one point with f_lo = f(lo) < p <= f_hi = f(hi), in far fewer
    # calls: locate, certify, replay (see the module docstring).  known is the
    # fit's table of one-point values of f, read and extended here
    if hi - lo <= tol:
        return hi
    seen = {lo: f_lo, hi: f_hi}

    def at(x):
        if x not in seen:
            seen[x] = _recall(known, f, x)
        return seen[x]

    def straddle():
        # the nearest evaluated points on either side of p
        return (max(t for t, v in seen.items() if v < p),
                min(t for t, v in seen.items() if v >= p))

    # the tightest bracket the table knows inside [lo, hi], bisected over the
    # sorted points of a snapshot, since other threads may extend the table;
    # wherever the bisection stops, its two neighbours straddle p
    snap = known.copy()
    xs = sorted(snap)
    i, k = bisect_left(xs, lo), bisect_right(xs, hi)
    j = bisect_left(xs, p, i, k, key=snap.__getitem__)
    if i < j < k:
        seen.update({xs[j - 1]: snap[xs[j - 1]], xs[j]: snap[xs[j]]})
    # Brent's method locates x; the replay is exact for any x, so running out
    # of iterations only costs calls and must not raise
    x = optimize.brentq(lambda t: at(t) - p, *straddle(), xtol=tol, disp=False)
    # the closest points known to decide: lo and hi, whose values are exact
    # at themselves, and any evaluated point clear of p by _ETA; the probes
    # start from the slope between the nearest evaluated points across p
    lower = max([lo] + [t for t, v in seen.items() if v < p - _ETA])
    upper = min([hi] + [t for t, v in seen.items() if v >= p + _ETA])
    a, b = straddle()
    delta = 0.5 * tol + 4.0 * _ETA * (b - a) / (seen[b] - seen[a])
    step = delta
    while x - step > lower and at(x - step) >= p - _ETA:
        step *= 4.0
    lower = max(lower, x - step)
    step = delta
    while x + step < upper and at(x + step) < p + _ETA:
        step *= 4.0
    upper = min(upper, x + step)

    def decided(mids):
        mid = mids[0]
        return [math.inf if mid >= upper else -math.inf if mid <= lower else at(mid)]

    return _bisect_increasing(decided, p, lo, hi, tol)


def _in_chunks(fn, items, width):
    # fn over blocks of at most _ELEMENT_BUDGET // width items along the first
    # axis, results joined; width is the most array elements, temporaries
    # included, that fn holds at once per item.  Empty items make one call,
    # keeping fn's shape
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


def _szasz_rows(samples, m, x):
    # Fhat(x) per sample row in the fit's incomplete-gamma form: one P(c, m x)
    # per distinct order c of the rows, gathered back per observation and
    # averaged over observations as SzaszEstimator._per_observation does;
    # holds about 6 elements per observation and point at once
    orders = _szasz_orders(samples, m)
    distinct, index = np.unique(orders, return_inverse=True)
    table = sp.gammainc(distinct.astype(float)[:, None], m * x[None, :])
    return table[index.reshape(orders.shape)].mean(axis=1)


def _kernel_rows(samples, h, x):
    # Fhat(x) per sample row: mean_i ndtr((x - X_i) / h), the ndtr taken in
    # place, so one element per observation and point
    t = (x[None, None, :] - samples[:, :, None]) / h
    return sp.ndtr(t, out=t).mean(axis=1)


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
    # with c_i = ceil(m X_i) and S = _bernstein_survival(m, x); holds at most
    # 2 (n + m + 1) elements per row at once, and the result
    return _row_bincount(_bernstein_orders(samples, m), m) @ survival / samples.shape[1]


@np.errstate(over="ignore")  # at the largest observations, as at the largest points
def _hermite_coefficients(samples, scale, order_max):
    # a_hat_k = mean_i h_k(X_i / scale) for k = 0..order_max, one row per
    # sample row, each X_i / scale taken at most _HERMITE_FLAT, where every
    # h_k is already 0.  hermite_values holds the values of every order and
    # four temporaries per point (measured under tracemalloc), so the rows go
    # in chunks
    def block(rows):
        vals = hermite_values(np.minimum(rows / scale, _HERMITE_FLAT).ravel(), order_max)
        return vals.reshape(order_max + 1, *rows.shape).mean(axis=2).T

    return _in_chunks(block, samples, samples.shape[1] * (order_max + 5))


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

    @np.errstate(over="ignore")  # at the largest points: see the module docstring
    def _pointwise(self, formula, x):
        # formula maps a flat float array to the values at its points
        x = np.asarray(x, dtype=float)
        _check_points(x, self._lower, self._upper)
        out = formula(np.atleast_1d(x).ravel())
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    @cached_property
    def _known(self):
        # {x: Fhat(x)} of the one-point values this fit's quantile searches
        # have computed, shared by all its levels (see the module docstring)
        return {}

    def _search(self, p, lo, hi):
        # inf{x: Fhat(x) >= p} for a non-decreasing fit: double the width of
        # [lo, hi] until Fhat(lo) < p <= Fhat(hi), within the domain and
        # +-_X_MAX, then bisect on certified decisions.  Fhat(lo) >= p at the
        # domain's lower edge makes the edge itself the answer
        p = _check_level(p)
        floor, ceiling = max(self._lower, -_X_MAX), min(self._upper, _X_MAX)
        known = self._known
        value = partial(_recall, known, self.evaluate)
        f_lo = value(lo)
        while f_lo >= p:
            if lo <= floor:
                if floor == self._lower:
                    return lo
                raise QuantileBracketError(
                    f"estimator exceeds level {p} already at x = {floor:g}")
            lo = max(floor, hi - 2.0 * (hi - lo))
            f_lo = value(lo)
        f_hi = value(hi)
        while f_hi < p:
            if hi >= ceiling:
                raise QuantileBracketError(
                    f"estimator never reaches level {p} below x = {ceiling:g}")
            hi = min(ceiling, lo + 2.0 * (hi - lo))
            f_hi = value(hi)
        return _bisect_certified(self.evaluate, p, lo, f_lo, hi, f_hi, known)


@dataclass(frozen=True)
class EmpiricalCDF(_Fitted):
    """Step-function estimator: fraction of observations <= x."""

    sample: np.ndarray
    kind: str = field(default="edf", init=False)

    def _cdf(self, flat):
        return np.searchsorted(self.sample, flat, side="right") / self.n

    def quantile(self, p):
        # inf{x: F_n(x) >= p} is the k-th order statistic for the smallest k
        # with k / n >= p, the quotient taken as _cdf takes it; ceil(n p) is
        # off by at most one, since n p rounds once
        p, n = _check_level(p), self.n
        k = min(max(math.ceil(n * p), 1), n)
        if k > 1 and (k - 1) / n >= p:
            k -= 1
        elif k / n < p:
            k += 1
        return float(self.sample[k - 1])


@dataclass(frozen=True)
class SzaszEstimator(_Fitted):
    """Poisson-smoothed CDF estimator on [0, inf)."""

    sample: np.ndarray
    m: int
    orders: np.ndarray  # the distinct c_i = max(1, ceil(m X_i)), increasing
    counts: np.ndarray  # how many observations share each order
    kind: str = field(default="szasz", init=False)
    _lower = 0.0

    def _per_observation(self, table):
        # one row per observation from one row per distinct order, then the
        # mean over observations; a counts-weighted sum would round differently
        return np.repeat(table, self.counts, axis=0).mean(axis=0)

    def _cdf(self, flat):
        shapes = self.orders.astype(float)[:, None]
        return _in_chunks(
            lambda t: self._per_observation(sp.gammainc(shapes, self.m * t[None, :])),
            flat, self.n + self.orders.size)

    def density(self, x):
        """Derivative of the fitted CDF, a Poisson-weight mixture density.

        Taken in chunks of points, as ``evaluate`` is; a point alone in its
        chunk can differ in the last bit (see the module docstring).  Where
        m x overflows to inf the density is 0.
        """
        k = (self.orders - 1).astype(float)[:, None]
        return self._pointwise(lambda flat: _in_chunks(
            lambda t: np.where(np.isinf(self.m * t), 0.0, self.m * self._per_observation(
                np.exp(poisson_log_pmf(k, self.m * t[None, :])))),
            flat, self.n + 2 * self.orders.size), x)

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
            flat, 2 * self.orders.size)

    def quantile(self, p):
        return self._search(p, 0.0, 1.0)


@dataclass(frozen=True)
class KernelCDF(_Fitted):
    """Gaussian-kernel CDF estimator, smooth and strictly increasing."""

    sample: np.ndarray
    h: float
    kind: str = field(default="kernel", init=False)

    def _cdf(self, flat):
        return _in_chunks(lambda t: _kernel_rows(self.sample[None, :], self.h, t)[0],
                          flat, self.n + 1)

    def quantile(self, p):
        return self._search(p, float(self.sample[0]) - self.h,
                            2.0 * abs(float(self.sample[-1])) + 10.0 * self.h)


@dataclass(frozen=True)
class HermiteHalfEstimator(_Fitted):
    """Truncated Hermite-series density estimate integrated from 0.

    Not a proper CDF: the truncation keeps the limit at infinity away from
    one and the curve need not be monotone.  Evaluations return the raw
    curve, which is what the MISE experiments integrate.
    """

    sample: np.ndarray
    order_max: int
    coef: np.ndarray  # a_hat_k = mean of h_k at the (rescaled) observations
    scale: float = 1.0
    kind: str = field(default="hermite_half", init=False)
    _lower = 0.0

    def _cdf(self, flat):
        _, integrals = hermite_basis(np.minimum(flat / self.scale, _HERMITE_FLAT), self.order_max)
        # one dot product per contiguous row of integrals, so a point's value
        # does not depend on the other points; coef @ integrals is a ddot at
        # one point and a gemv at several, which round differently
        return np.vecdot(np.ascontiguousarray(integrals.T), self.coef)

    @cached_property
    def _scan(self):
        # the range the quantile search scans first and the estimate on it,
        # evaluated once per fit and shared read-only by every level
        grid = np.linspace(0.0, 2.0 * float(self.sample[-1]) + 10.0 * self.scale, 4097)
        values = self.evaluate(grid)
        grid.flags.writeable = values.flags.writeable = False
        return grid, values

    def quantile(self, p):
        # generalized inf over a possibly non-monotone curve: locate the
        # first upcrossing on a grid, doubling its range until one shows,
        # then bisect inside that cell (six levels per call: see the module
        # docstring)
        p = _check_level(p)
        grid, values = self._scan
        above = np.nonzero(values >= p)[0]
        while not above.size:
            hi = float(grid[-1])
            if hi >= _X_MAX:
                raise QuantileBracketError(
                    f"estimate never reaches level {p} below x = {_X_MAX:g}")
            grid = np.linspace(0.0, min(_X_MAX, 2.0 * hi), 4097)
            above = np.nonzero(self.evaluate(grid) >= p)[0]
        j = above[0]
        if j == 0:
            return 0.0
        return _bisect_increasing(self.evaluate, p, grid[j - 1], grid[j], levels=6)


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
    m = integer("order m", m)
    x = _as_sample(values)
    return SzaszEstimator(x, m, *np.unique(_szasz_orders(x, m), return_counts=True))


def bernstein_fit(values, m):
    """Fit the Bernstein polynomial estimator on data in [0, 1]."""
    m = integer("order m", m)
    x = _as_sample(values, upper=1.0)
    return BernsteinEstimator(x, m, *np.unique(_bernstein_orders(x, m), return_counts=True))


def kernel_fit(values, h):
    """Fit the Gaussian-kernel CDF estimator with bandwidth h > 0."""
    return KernelCDF(_as_sample(values, lower=None), positive("bandwidth", h))


def hermite_half_fit(values, order_max):
    """Fit the half-line Hermite estimator with N + 1 series terms."""
    return hermite_half_standardized_fit(values, order_max, None, 1.0)


def hermite_half_standardized_fit(values, order_max, mu, sigma):
    """Hermite estimator fitted to scale-standardized data z = x / sigma.

    Experimental: only the known true scale is used (a location shift would
    move mass off [0, inf)); ``mu`` is accepted for interface completeness.
    The estimate at x is the plain fit on z_i = X_i / sigma read at x / sigma,
    so rescaling data and query point together leaves the output unchanged.
    """
    del mu
    sigma = positive("sigma", sigma)
    order_max = integer("order_max", order_max, lo=0)
    x = _as_sample(values)
    coef = _hermite_coefficients(x[None, :], sigma, order_max)[0]
    return HermiteHalfEstimator(x, order_max, coef, scale=sigma)


def _parse_spec(spec, dist=None):
    # an estimator spec's kind and its fit's checked arguments after the
    # sample: (), (m,), (h,) or (N, mu, sigma) for the standardized fit
    kind = _checks.spec("estimator", spec, _KEYS)
    _, (required, _), check = _KINDS[kind]
    args = tuple(check(spec[key]) for key in required)
    if kind == "hermite_half":
        standardize = flag("standardize", spec.get("standardize", False))
        if "sigma" in spec and not standardize:
            raise ValueError("hermite_half spec takes 'sigma' only with 'standardize': true")
        sigma = spec.get("sigma", dist.sd if dist is not None else None) if standardize else 1.0
        if sigma is None:
            raise ValueError("standardized hermite fit needs sigma (or a model)")
        args += (None, positive("sigma", sigma))
    return kind, args


def fit_from_spec(spec, values, dist=None):
    """Fit an estimator from its JSON config form, with exactly its kind's keys.

    The forms: {"kind": "edf"}, {"kind": "szasz", "m": 50},
    {"kind": "bernstein", "m": 50}, {"kind": "kernel", "h": 0.05} and
    {"kind": "hermite_half", "N": 20}, which may add "standardize": true
    and then "sigma"; standardized Hermite fits take sigma from the spec or
    from ``dist``.
    """
    kind, args = _parse_spec(spec, dist)
    fit = {"edf": edf_fit, "szasz": szasz_fit, "bernstein": bernstein_fit,
           "kernel": kernel_fit, "hermite_half": hermite_half_standardized_fit}[kind]
    return fit(values, *args)


@np.errstate(over="ignore")  # at the largest points: see the module docstring
def evaluate_rows(spec, samples, x, dist=None):
    """The estimate at the point x of the fit of each row of ``samples``.

    Equals ``fit_from_spec(spec, row, dist).evaluate(x)`` for every row, and
    builds no fitted object: the rows go in chunks through the family's
    row-axis formula.  The formulas are symmetric in the observations; rows
    sorted as ``simulation.samples_matrix`` draws them give the fits'
    values bit for bit for edf, szasz, kernel and hermite_half.  Bernstein
    sums its counts over every order 0..m where the fit sums over the
    occupied ones, which can round differently in the last bit.
    """
    kind, args = _parse_spec(spec, dist)
    cls = _KINDS[kind][0]
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a matrix with one sample per row")
    _check_sample(samples, cls._lower, cls._upper)
    point = np.array([float(x)])
    _check_points(point, cls._lower, cls._upper)
    n = samples.shape[1]
    if kind == "hermite_half":
        order_max, _, scale = args
        _, integrals = hermite_basis(np.minimum(point / scale, _HERMITE_FLAT), order_max)
        # one dot product per contiguous coefficient row, the form the fit's
        # _cdf takes per point; a matrix product would round differently
        coefs = np.ascontiguousarray(_hermite_coefficients(samples, scale, order_max))
        return np.vecdot(coefs, integrals[:, 0])
    if kind == "edf":
        rows, width = (lambda chunk: (chunk <= point).sum(axis=1) / n), n
    elif kind == "szasz":
        rows, width = (lambda chunk: _szasz_rows(chunk, args[0], point)[:, 0]), 6 * n
    elif kind == "bernstein":
        m = args[0]
        survival = _bernstein_survival(m, point)
        rows, width = (lambda chunk: _bernstein_rows(chunk, m, survival)[:, 0]), 2 * (n + m + 1)
    else:
        rows, width = (lambda chunk: _kernel_rows(chunk, args[0], point)[:, 0]), n + 1
    return _in_chunks(rows, samples, width)


# kind: (fitted class, its spec keys (required, optional), the check of its
# parameter, which is its required key)
_KINDS = {
    "edf": (EmpiricalCDF, ((), ()), float),
    "szasz": (SzaszEstimator, (("m",), ()), partial(integer, "order m")),
    "bernstein": (BernsteinEstimator, (("m",), ()), partial(integer, "order m")),
    "kernel": (KernelCDF, (("h",), ()), partial(positive, "bandwidth")),
    "hermite_half": (HermiteHalfEstimator, (("N",), ("standardize", "sigma")),
                     partial(integer, "order_max", lo=0)),
}
KINDS = tuple(_KINDS)  # the spec kinds
_KEYS = {kind: keys for kind, (_, keys, _) in _KINDS.items()}
