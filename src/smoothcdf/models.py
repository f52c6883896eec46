"""Ground-truth distributions for the simulation study.

Each model carries the analytic CDF, survival function, density, density
derivative and quantile, and a sampler in two parts: a fixed count of
uniforms per draw (1 for the exponential and beta models, 2 for the
Weibull mixture, whose first n uniforms pick the components and whose next
n invert them), and a pure elementwise inverse transform of an array of
such uniforms.  The uniforms of a chunk of rows come from one Philox
counter-based generator, re-keyed through its state for each row's seed,
which gives the bits a fresh ``Philox(key=seed)`` would.  ``sample`` is
the one-row case: n draws' uniforms from the stream keyed by the seed,
inverted and sorted, so a (seed, n) pair fully determines the output on
any platform.  ``simulation.samples_matrix`` applies the same fill and
transform to chunks of rows, each row keyed by its own seed, and gets the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sp

from ._checks import integer, positive

__all__ = [
    "TrueDistribution",
    "MixtureSpec",
    "make_exponential",
    "make_weibull_mixture",
    "make_beta",
    "sample",
    "distribution_from_spec",
]


@dataclass(frozen=True)
class TrueDistribution:
    """A known distribution exposing everything the experiments need.

    ``support`` is (0, inf) for the half-line models and (0, 1) for beta.
    ``sf`` is 1 - cdf without its cancellation near F = 1.  ``mean`` and
    ``sd`` are the analytic moments; the standardized Hermite estimator
    uses ``sd`` as its known true scale.
    """

    name: str
    support: tuple[float, float]
    cdf: Callable[[np.ndarray], np.ndarray]
    sf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    pdf_prime: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    mean: float
    sd: float
    # uniforms one draw consumes, and the elementwise inverse transform of
    # an array whose last axis holds uniforms_per_draw * n of them, giving
    # the n draws of each row, unsorted
    uniforms_per_draw: int = field(repr=False)
    _invert: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # array elements per draw held at once while inverting, uniforms included
    invert_width: int = field(repr=False)
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MixtureSpec:
    """Weibull mixture components as (weight, shape, scale) triples."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple((positive("mixture weight", w), positive("Weibull shape", a),
                       positive("Weibull scale", b)) for w, a, b in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if abs(np.sum([c[0] for c in comps]) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")


def make_exponential(rate):
    """Exponential distribution with rate parameter, F(x) = 1 - exp(-rate*x)."""
    rate = positive("rate", rate)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, -np.expm1(-rate * x), 0.0)

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, np.exp(-rate * x), 1.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, rate * np.exp(-rate * x), 0.0)

    def pdf_prime(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, -rate * rate * np.exp(-rate * x), 0.0)

    def quantile(p):
        p = _check_prob(p)
        with np.errstate(divide="ignore"):  # p = 1 maps to +inf
            return -np.log1p(-p) / rate

    def invert(u):
        return -np.log1p(-u) / rate

    return TrueDistribution(
        name=f"exponential(rate={rate:g})",
        support=(0.0, math.inf),
        cdf=cdf,
        sf=sf,
        pdf=pdf,
        pdf_prime=pdf_prime,
        quantile=quantile,
        mean=1.0 / rate,
        sd=1.0 / rate,
        uniforms_per_draw=1,
        _invert=invert,
        invert_width=3,
        spec={"kind": "exponential", "rate": rate},
    )


def _weibull_hazard(x, shape, scale):
    # cumulative hazard (x / scale)^shape: cdf 1 - exp(-t), survival exp(-t)
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(x > 0.0, (x / scale) ** shape, 0.0)


def _weibull_pdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(x > 0.0, (x / scale) ** shape, 0.0)
        out = np.where(x > 0.0, (shape / scale) * (x / scale) ** (shape - 1.0) * np.exp(-t), 0.0)
    if shape == 1.0:
        out = np.where(np.asarray(x) == 0.0, 1.0 / scale, out)
    return out


def _weibull_pdf_prime(x, shape, scale):
    # f'(x) = f(x) * [(shape-1)/x - shape/scale * (x/scale)^(shape-1)];
    # unbounded at 0 when 1 < shape < 2, callers stay in the interior.
    x = np.asarray(x, dtype=float)
    f = _weibull_pdf(x, shape, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = (shape - 1.0) / x - (shape / scale) * (x / scale) ** (shape - 1.0)
        out = np.where(x > 0.0, f * term, 0.0)
    if shape == 1.0:
        out = np.where(x == 0.0, -1.0 / scale**2, out)
    return out


def make_weibull_mixture(spec):
    """Mixture of Weibull(shape, scale) components.

    ``spec`` is a MixtureSpec or an iterable of (weight, shape, scale)
    triples.  Weibull(1, 1) is the unit exponential, so a single
    (1.0, 1, 1) component reduces to Exp(1).
    """
    if not isinstance(spec, MixtureSpec):
        spec = MixtureSpec(tuple(tuple(c) for c in spec))
    weights = np.array([c[0] for c in spec.components])
    shapes = np.array([c[1] for c in spec.components])
    scales = np.array([c[2] for c in spec.components])
    cumw = np.cumsum(weights)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        parts = [w * -np.expm1(-_weibull_hazard(x, a, b)) for w, a, b in spec.components]
        return np.sum(parts, axis=0)

    def sf(x):
        parts = [w * np.exp(-_weibull_hazard(x, a, b)) for w, a, b in spec.components]
        return np.sum(parts, axis=0)

    def pdf(x):
        parts = [w * _weibull_pdf(x, a, b) for w, a, b in spec.components]
        return np.sum(parts, axis=0)

    def pdf_prime(x):
        parts = [w * _weibull_pdf_prime(x, a, b) for w, a, b in spec.components]
        return np.sum(parts, axis=0)

    def quantile(p):
        p = _check_prob(p)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        # bracket by the component quantiles, then plain bisection:
        # F_mix(min_i q_i(p)) <= p <= F_mix(max_i q_i(p))
        with np.errstate(divide="ignore"):
            qs = np.stack([b * (-np.log1p(-p)) ** (1.0 / a) for a, b in zip(shapes, scales)])
        lo, hi = qs.min(axis=0), qs.max(axis=0)
        # p = 1 brackets at [inf, inf] and stays there: the stop test leaves
        # such levels out, so they change neither the others' steps nor bits
        finite = np.isfinite(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            top = hi[finite]
            if top.size == 0 or np.max(top - lo[finite]) < 1e-14 * max(1.0, float(np.max(top))):
                break
        out = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out

    def invert(u):
        # per draw: the first half's uniform picks the component, the
        # second half's inverts its CDF
        n = u.shape[-1] // 2
        idx = np.searchsorted(cumw, u[..., :n], side="right").clip(max=len(cumw) - 1)
        return scales[idx] * (-np.log1p(-u[..., n:])) ** (1.0 / shapes[idx])

    means = scales * sp.gamma(1.0 + 1.0 / shapes)
    second = scales**2 * sp.gamma(1.0 + 2.0 / shapes)
    mean = float(np.sum(weights * means))
    var = float(np.sum(weights * second) - mean**2)

    name = "+".join(f"{w:g}*Weibull({a:g},{b:g})" for w, a, b in spec.components)
    return TrueDistribution(
        name=name,
        support=(0.0, math.inf),
        cdf=cdf,
        sf=sf,
        pdf=pdf,
        pdf_prime=pdf_prime,
        quantile=quantile,
        mean=mean,
        sd=math.sqrt(var),
        uniforms_per_draw=2,
        _invert=invert,
        invert_width=7,
        spec={"kind": "weibull_mixture", "components": [list(c) for c in spec.components]},
    )


def make_beta(alpha, beta):
    """Beta(alpha, beta) on [0, 1]."""
    alpha, beta = positive("alpha", alpha), positive("beta", beta)
    lognc = sp.betaln(alpha, beta)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, 0.0, 1.0)
        return sp.betainc(alpha, beta, xc)

    def sf(x):
        x = np.asarray(x, dtype=float)
        return sp.betaincc(alpha, beta, np.clip(x, 0.0, 1.0))

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        vals = np.exp((alpha - 1.0) * np.log(xs) + (beta - 1.0) * np.log1p(-xs) - lognc)
        return np.where(inside, vals, 0.0)

    def pdf_prime(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        f = np.exp((alpha - 1.0) * np.log(xs) + (beta - 1.0) * np.log1p(-xs) - lognc)
        term = (alpha - 1.0) / xs - (beta - 1.0) / (1.0 - xs)
        return np.where(inside, f * term, 0.0)

    def quantile(p):
        p = _check_prob(p)
        out = sp.betaincinv(alpha, beta, p)
        return float(out) if out.ndim == 0 else out

    def invert(u):
        return sp.betaincinv(alpha, beta, u)

    s = alpha + beta
    return TrueDistribution(
        name=f"beta({alpha:g},{beta:g})",
        support=(0.0, 1.0),
        cdf=cdf,
        sf=sf,
        pdf=pdf,
        pdf_prime=pdf_prime,
        quantile=quantile,
        mean=alpha / s,
        sd=math.sqrt(alpha * beta / (s * s * (s + 1.0))),
        uniforms_per_draw=1,
        _invert=invert,
        invert_width=2,
        spec={"kind": "beta", "alpha": alpha, "beta": beta},
    )


def sample(dist, seed, n):
    """n i.i.d. draws from ``dist``, sorted ascending.

    Deterministic given (seed, n): ``dist.uniforms_per_draw * n`` uniforms
    from the Philox stream keyed by ``seed``, then the model's inverse
    transform.  This is the one-row case of ``simulation.samples_matrix``,
    which draws chunks of rows through the same two steps.
    """
    n = integer("n", n)
    u = np.empty(dist.uniforms_per_draw * n)
    _fill_uniforms(np.array([int(seed) & 0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64), u[None, :])
    values = dist._invert(u)
    values.sort()
    return values


def _fill_uniforms(seeds, out):
    # fills row i of out with the first uniforms of the Philox stream keyed
    # by seeds[i]: one generator re-keyed per row through its state (key
    # [seed, 0], zero counter, empty buffer), the state Philox(key=seed)
    # starts from, so each row has the bits of a fresh generator's
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    key = np.zeros(2, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for seed, row in zip(seeds, out):
        key[0] = seed
        bits.state = state
        rng.random(out=row)


def distribution_from_spec(spec):
    """Build a TrueDistribution from its JSON config form.

    Accepted shapes:
        {"kind": "exponential", "rate": 2}
        {"kind": "weibull_mixture", "components": [[0.5, 1, 1], [0.5, 4, 4]]}
        {"kind": "beta", "alpha": 3, "beta": 3}
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("distribution spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "exponential":
        return make_exponential(spec["rate"])
    if kind == "weibull_mixture":
        return make_weibull_mixture(spec["components"])
    if kind == "beta":
        return make_beta(spec["alpha"], spec["beta"])
    raise ValueError(f"unknown distribution kind: {kind!r}")


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN too
        raise ValueError("probabilities must lie in [0, 1]")
    return p
