"""The five CDF estimators behind one evaluate/quantile interface.

Every fit function sorts and validates its sample once and returns an
immutable fitted object; evaluation is vectorized over the query points.
Each family's formula is written once, here.  The kernel and Hermite
formulas are functions over a leading row axis of samples (``_kernel_rows``,
``_hermite_coefficients``): a fitted object is the one-row case, and the
sweeps in ``simulation`` pass chunks of repetitions.  ``evaluate_rows``
reads every row's estimate at one point through these formulas and
``_grid_rows`` without building a fitted object per row; it and
``fit_from_spec`` share one spec parser over the shared spec reader,
``_checks.spec``.  Each kind takes exactly the keys it reads: edf none,
szasz and bernstein ``m``, kernel ``h``, and hermite_half ``N``, with an
optional ``standardize`` and, only when that is true, ``sigma``.
``_KINDS`` holds, per kind, the fitted class (whose ``_lower`` and
``_upper`` are the family's domain), its required and optional spec keys
and the check of its parameter, one of the shared checks of ``_checks``;
the spec parser and ``simulation``'s sweep config read it.

The Szasz and Bernstein estimators are one grid operator
(``_GridOperator``).  With c_i the grid order of X_i, the least k with
k / m >= X_i (``_grid_orders``),

    Fhat(x) = sum_k F_n(k / m) w_k(x) = (1/n) sum_i S(c_i, x),

where S(c, x) is the chance that the count reaches c: P(Poisson(m x) >= c)
= P(c, m x), the regularized lower incomplete gamma function, for Szasz,
whose orders are raised to at least 1; P(Bin(m, x) >= c) = I_x(c, m - c + 1),
the regularized incomplete beta function, for Bernstein, with S(0, x) = 1.
``_OPERATORS`` maps each of the two kinds to its orders and its S.  The
quotient k / m is taken as the EDF takes it, so c_i is the grid point where
F_n(k / m) first counts X_i; ceil(m X_i) can round to its other side.
Observations sharing an order give equal terms, so a fit keeps the distinct
orders of its sample and their counts, computes S once per distinct order
and expands the rows back by the counts before one sum over observations,
divided by n (``_GridOperator._average``); its values equal the
per-observation form bit for bit.  ``_grid_rows`` does the same per distinct
order of a chunk of rows.  The sweeps keep faster forms, tested against the
fits: the Szasz sweep the Poisson series, the Bernstein sweep counts times
the full 0..m table.

Quantiles are inf{x: Fhat(x) >= p}.  The EDF takes the k-th order
statistic for the smallest k with k / n >= p.  Every smooth fit ends in one
step, ``_Fitted._brent``: from a bracket [lo, hi] with Fhat(lo) < p <=
Fhat(hi), Brent's method runs to ``_XTOL`` = 1e-10, one point per
``evaluate``, and the step returns the least point q evaluated with
Fhat(q) >= p, a value equal to p counting as above p, so Brent's method
never stops on it.  Then some evaluated point no more than
1e-10 + 4 eps |q| below q has Fhat < p; a search that does not converge
within ``_BRENT_MAXITER`` iterations raises.  Bracket ends stay within
+-the largest float, and Brent's method runs in t = x / 2, whose bracket
[lo / 2, hi / 2] is finitely wide for any two finite ends; doubling t back
to x is exact.  Brent's method is ``_brentq``, a port of the loop of
scipy's ``brentq.c`` (Brent 1973, *Algorithms for Minimization without
Derivatives*, ch. 4) with scipy's least relative tolerance 4 eps: it keeps
the C code's order of operations, so every iterate and every quantile has
the bits ``scipy.optimize.brentq`` gives, and no quantile loads
``scipy.optimize``, whose import costs a process about 22 MB.

The Szasz, Bernstein and kernel fits are non-decreasing, so their quantile
is the one root of Fhat(x) = p.  Their search widens the bracket until it
holds the level.  Each fit keeps the values at the points its bracket
widened through (``_Fitted._known``): every level starts from the same
bracket, so these are computed once per fit, and they are as many as the
doublings, two or three after hundreds of levels.  Brent's method reads
nothing else from other levels, so each answer is a function of the fit
and p alone, whatever levels or threads came before.

The Hermite series need not be monotone.  Its search finds the first
upcrossing on a 4097-point grid, which each fit evaluates once and keeps
read-only for every level, and runs the Brent step in that cell from its
two grid values.  A Hermite value at a point does not depend on the other
points evaluated with it, so those values are what one-point calls would
return.  Fhat(0) = 0 exactly, since every integral of the ladder is 0
there, so the cell always has a grid point below the level.

Work over many rows or points goes in chunks (``_in_chunks``) whose
arrays held at once, temporaries included, have at most
``_ELEMENT_BUDGET`` elements.  Every smooth ``evaluate`` and the Szasz
``density`` take their points so.  In the Szasz, Bernstein and kernel
forms a chunk of exactly one point averages over the observations in
another order than a wider chunk does, so its value can differ in the last
bit from the same point evaluated among others.

Evaluation points are finite, but m x, (x - X_i) / h and x / sigma can
overflow to +-inf at the largest of them; every family then reads its limit
there, the Szasz density 0, without an overflow warning.  The Hermite
estimate takes x / sigma, and its coefficients X_i / sigma, at most
``_HERMITE_FLAT`` = 40, where every h_k is already 0, so the Hermite
x * x stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy import special as sp

from . import _checks
from ._checks import finite, flag, integer, positive
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
_XTOL = 1e-10  # the width Brent's method brings a quantile bracket down to
_RTOL = 4.0 * float(np.finfo(float).eps)  # its relative tolerance, scipy brentq's least
# Brent's method's iteration cap.  It runs in t = x / 2 over a bracket within
# +-_FLOAT_MAX / 2, under 2**1024 wide, and halving brings that to
# _XTOL / 2 > 2**-35 in at most 1024 + 35 = 1059 steps; the cap is about 2.8
# times that, room for the interpolation steps _brentq takes between its
# halvings.  _brentq reads it at each call
_BRENT_MAXITER = 3000
# past this x / sigma, exp(-x^2/2) has underflowed to 0: every Hermite function
# is 0 and every integral at its limit, so the estimate reads as it does here
_HERMITE_FLAT = 40.0


class QuantileBracketError(RuntimeError):
    """The estimate does not cross the requested level within the search's bracket.

    The bracket widens to |x| <= 1e6, or stays at its first ends where the
    data already put them farther out, within the largest float; answers
    beyond 1e6 are returned when the first bracket holds them.  The
    message names the bracket end reached.
    """


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
    p = _checks.number("quantile level", p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return p


def _in_chunks(fn, items, width):
    # fn over blocks of at most _ELEMENT_BUDGET // width items along the first
    # axis, results joined; width is the most array elements, temporaries
    # included, that fn holds at once per item.  Empty items make one call,
    # keeping fn's shape
    step = max(1, _ELEMENT_BUDGET // width)
    return np.concatenate([fn(items[i:i + step]) for i in range(0, len(items) or 1, step)])


def _grid_orders(samples, m):
    # the least k with k / m >= X_i, the quotient taken as the EDF takes it:
    # the grid point k / m where F_n first counts X_i, and the EDF quantile's
    # order statistic.  t = m X_i rounds once, so ceil(t) is off, by one,
    # only where t lies within 2**-52 t of an integer; where some t lies
    # within 2**-50 max(ceil(t)) of one, every order is checked against the
    # quotients themselves
    x = np.asarray(samples, dtype=float)
    t = m * x
    c = np.ceil(t)
    tol = 2.0 ** -50 * c.max()
    t -= c  # minus the distance up to the next integer, in (-1, 0]
    if t.max() >= -tol or t.min() <= tol - 1.0:
        c -= (c - 1.0) / m >= x
        c += c / m < x
    return c.astype(np.int64)


def _szasz_orders(samples, m):
    # c_i = max(1, the grid order of X_i); from 2**53 on a float no longer
    # holds that integer
    if m * float(np.max(samples)) >= 2.0 ** 53:
        raise ValueError(f"m = {m} times the largest observation {float(np.max(samples)):g} "
                         "is too large for ceil(m X) to be an exact integer (limit 2**53)")
    return np.maximum(1, _grid_orders(samples, m))


def _kernel_rows(samples, h, x):
    # Fhat(x) per sample row: mean_i ndtr((x - X_i) / h), the ndtr taken in
    # place, so one element per observation and point
    t = (x[None, None, :] - samples[:, :, None]) / h
    return sp.ndtr(t, out=t).mean(axis=1)


def _szasz_survival(orders, m, x):
    # P(Poisson(m x) >= c) = P(c, m x), one row per c in orders, each c >= 1
    return sp.gammainc(orders.astype(float)[:, None], m * x[None, :])


def _bernstein_orders(samples, m):
    return _grid_orders(samples, m).clip(0, m)


def _bernstein_survival(orders, m, x):
    # P(Bin(m, x) >= c) = I_x(c, m - c + 1), one row per c in orders, a c = 0
    # row equal to 1
    table = np.ones((orders.size, x.size))
    pos = orders > 0
    shapes = orders[pos].astype(float)[:, None]
    table[pos] = sp.betainc(shapes, m - shapes + 1.0, x[None, :])
    return table


# grid-operator kind: (the orders c_i of sample rows, the survival S(orders, m, x))
_OPERATORS = {"szasz": (_szasz_orders, _szasz_survival),
              "bernstein": (_bernstein_orders, _bernstein_survival)}


def _grid_rows(kind, samples, m, x):
    # Fhat(x) per sample row of a grid operator: S once per distinct order of
    # the rows, gathered back per observation and averaged in the fit's order
    # (_GridOperator._average); holds about 6 elements per observation and
    # point at once
    orders_of, survival = _OPERATORS[kind]
    orders = orders_of(samples, m)
    distinct, index = np.unique(orders, return_inverse=True)
    table = survival(distinct, m, x)
    return table[index.reshape(orders.shape)].sum(axis=1) / samples.shape[1]


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
        x = _checks.floats("evaluation points", x)
        _check_points(x, self._lower, self._upper)
        out = formula(np.atleast_1d(x).ravel())
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    @cached_property
    def _known(self):
        # {x: Fhat(x)} at the points the quantile searches' brackets widened
        # through, the same for every level (see the module docstring)
        return {}

    def _search(self, p, lo, hi):
        # inf{x: Fhat(x) >= p} for a non-decreasing fit: double the width of
        # [lo, hi] until Fhat(lo) < p <= Fhat(hi), within the domain and
        # +-_X_MAX, then run Brent's method over it.  Fhat(lo) >= p at the
        # domain's lower edge makes the edge itself the answer.  The ends are
        # clamped to +-_FLOAT_MAX; every family's starting bracket has
        # lo <= hi / 2 unless hi was clamped, so the clamp cannot close it
        p = _check_level(p)
        hi = min(hi, _FLOAT_MAX)
        lo = max(min(lo, 0.5 * hi), -_FLOAT_MAX)
        floor, ceiling = max(self._lower, -_X_MAX), min(self._upper, _X_MAX)
        known = self._known

        def value(x):
            # threads may compute one point twice, which gives one value
            if x not in known:
                known[x] = self.evaluate(x)
            return known[x]

        while value(lo) >= p:
            if lo <= floor:
                if floor == self._lower:
                    return lo
                raise QuantileBracketError(f"estimator exceeds level {p} already at x = {lo:g}")
            lo = max(floor, hi - 2.0 * (hi - lo))
        while value(hi) < p:
            if hi >= ceiling:
                raise QuantileBracketError(f"estimator never reaches level {p} below x = {hi:g}")
            hi = min(ceiling, lo + 2.0 * (hi - lo))
        return self._brent(p, lo, hi, known)

    def _brent(self, p, lo, hi, known):
        # the least point evaluated with Fhat >= p by Brent's method over
        # [lo, hi], where Fhat(lo) < p <= Fhat(hi); known maps points to
        # their values, read in place of evaluating them.  The method runs
        # in t = x / 2, so that the bracket's width is finite
        upper = hi

        def excess(t):
            # Fhat(x) - p at x = 2 t, the least positive float where
            # Fhat(x) = p, so that Brent's method does not stop there
            nonlocal upper
            x = 2.0 * t
            v = known[x] if x in known else self.evaluate(x)
            if v < p:
                return v - p
            upper = min(upper, x)
            return max(v - p, math.ulp(0.0))

        _brentq(excess, lo / 2.0, hi / 2.0, _XTOL / 2.0)
        return upper


def _brentq(f, xpre, xcur, xtol):
    # a root of f in [xpre, xcur] to xtol + _RTOL |x|: the loop of scipy's
    # brentq.c (Brent 1973, ch. 4) in its order of operations, so every
    # iterate keeps the C code's bits.  The caller has f(xpre) < 0 < f(xcur),
    # so the C code's exits for a zero or a same-signed end are left out.
    # Where C bisects without trying a step, or its step divides by zero
    # (inf or NaN), stry is inf here, which fails the same short-step test
    fpre, fcur = float(f(xpre)), float(f(xcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                if denom:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / denom
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


@dataclass(frozen=True)
class EmpiricalCDF(_Fitted):
    """Step-function estimator: fraction of observations <= x."""

    sample: np.ndarray
    kind: str = field(default="edf", init=False)

    def _cdf(self, flat):
        return np.searchsorted(self.sample, flat, side="right") / self.n

    def quantile(self, p):
        # inf{x: F_n(x) >= p} is the k-th order statistic for the least k
        # with k / n >= p, the quotient taken as _cdf takes it; 0 < p < 1
        # puts k in 1..n
        return float(self.sample[_grid_orders(_check_level(p), self.n) - 1])


@dataclass(frozen=True)
class _GridOperator(_Fitted):
    """A Szasz or Bernstein fit: Fhat(x) = (1/n) sum_i S(c_i, x) over the
    grid orders c_i of the sample, S its kind's survival in ``_OPERATORS``."""

    sample: np.ndarray
    m: int
    orders: np.ndarray  # the distinct c_i of the sample, increasing
    counts: np.ndarray  # how many observations share each order
    _lower = 0.0

    def _average(self, table):
        # one row per observation from one row per distinct order, then the
        # sum over observations divided by n, which is numpy's mean bit for
        # bit; a counts-weighted sum would round differently
        return np.repeat(table, self.counts, axis=0).sum(axis=0) / self.n

    def _cdf(self, flat):
        survival = _OPERATORS[self.kind][1]
        return _in_chunks(lambda t: self._average(survival(self.orders, self.m, t)),
                          flat, self.n + self.orders.size)


@dataclass(frozen=True)
class SzaszEstimator(_GridOperator):
    """Poisson-smoothed CDF estimator on [0, inf)."""

    kind: str = field(default="szasz", init=False)

    def density(self, x):
        """Derivative of the fitted CDF, a Poisson-weight mixture density.

        Taken in chunks of points, as ``evaluate`` is; a point alone in its
        chunk can differ in the last bit (see the module docstring).  Where
        m x overflows to inf the density is 0.
        """
        k = (self.orders - 1).astype(float)[:, None]
        return self._pointwise(lambda flat: _in_chunks(
            lambda t: np.where(np.isinf(self.m * t), 0.0, self.m * self._average(
                np.exp(poisson_log_pmf(k, self.m * t[None, :])))),
            flat, self.n + 2 * self.orders.size), x)

    def quantile(self, p):
        return self._search(p, 0.0, 2.0 * float(self.sample[-1]) + 10.0 / self.m)


@dataclass(frozen=True)
class BernsteinEstimator(_GridOperator):
    """Polynomial CDF estimator on [0, 1]: the grid operator with binomial counts."""

    kind: str = field(default="bernstein", init=False)
    _upper = 1.0

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
        # one dot product per contiguous row of integrals, so a point's value
        # does not depend on the other points; coef @ integrals is a ddot at
        # one point and a gemv at several, which round differently.  The
        # values and integrals of every order and the integrals' copy are
        # held at once per point
        def block(t):
            _, integrals = hermite_basis(np.minimum(t / self.scale, _HERMITE_FLAT), self.order_max)
            return np.vecdot(np.ascontiguousarray(integrals.T), self.coef)

        return _in_chunks(block, flat, 3 * (self.order_max + 1))

    @cached_property
    def _scan(self):
        # the range the quantile search scans first and the estimate on it,
        # evaluated once per fit and shared read-only by every level
        end = min(2.0 * float(self.sample[-1]) + 10.0 * self.scale, _FLOAT_MAX)
        grid = np.linspace(0.0, end, 4097)
        values = self.evaluate(grid)
        grid.flags.writeable = values.flags.writeable = False
        return grid, values

    def quantile(self, p):
        # generalized inf over a possibly non-monotone curve: locate the
        # first upcrossing on a grid, doubling its range until one shows,
        # then run Brent's method inside that cell from its two grid values.
        # Fhat(0) = 0 < p, so the cell has a grid point on each side
        p = _check_level(p)
        grid, values = self._scan
        above = np.nonzero(values >= p)[0]
        while not above.size:
            end = float(grid[-1])
            if end >= _X_MAX:
                raise QuantileBracketError(f"estimate never reaches level {p} below x = {end:g}")
            grid = np.linspace(0.0, min(_X_MAX, 2.0 * end), 4097)
            values = self.evaluate(grid)
            above = np.nonzero(values >= p)[0]
        lo, hi = float(grid[above[0] - 1]), float(grid[above[0]])
        return self._brent(p, lo, hi, {lo: values[above[0] - 1], hi: values[above[0]]})


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
    return _grid_fit(SzaszEstimator, values, m)


def bernstein_fit(values, m):
    """Fit the Bernstein polynomial estimator on data in [0, 1]."""
    return _grid_fit(BernsteinEstimator, values, m)


def _grid_fit(cls, values, m):
    # a grid-operator fit: the sample on cls's domain, its distinct orders
    # and their counts
    m = integer("order m", m)
    x = _as_sample(values, cls._lower, cls._upper)
    return cls(x, m, *np.unique(_OPERATORS[cls.kind][0](x, m), return_counts=True))


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
    sorted as ``simulation.samples_matrix`` draws them give the fits' values
    bit for bit for all five kinds.
    """
    kind, args = _parse_spec(spec, dist)
    cls = _KINDS[kind][0]
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a matrix with one sample per row")
    _check_sample(samples, cls._lower, cls._upper)
    point = np.array([_checks.number("evaluation point", x)])
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
    elif kind in _OPERATORS:
        rows, width = (lambda chunk: _grid_rows(kind, chunk, args[0], point)[:, 0]), 6 * n
    else:
        rows, width = (lambda chunk: _kernel_rows(chunk, args[0], point)[:, 0]), n + 1
    return _in_chunks(rows, samples, width)


# kind: (fitted class, its spec keys (required, optional), the check of its
# parameter, which is its required key)
_KINDS = {
    "edf": (EmpiricalCDF, ((), ()), partial(finite, "edf parameter")),
    "szasz": (SzaszEstimator, (("m",), ()), partial(integer, "order m")),
    "bernstein": (BernsteinEstimator, (("m",), ()), partial(integer, "order m")),
    "kernel": (KernelCDF, (("h",), ()), partial(positive, "bandwidth")),
    "hermite_half": (HermiteHalfEstimator, (("N",), ("standardize", "sigma")),
                     partial(integer, "order_max", lo=0)),
}
KINDS = tuple(_KINDS)  # the spec kinds
_KEYS = {kind: keys for kind, (_, keys, _) in _KINDS.items()}
