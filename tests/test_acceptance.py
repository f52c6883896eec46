"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import math
import os
import time

import numpy as np
import pytest

from smoothcdf import (
    ExperimentConfig,
    L_m,
    R_j,
    R_tilde_1,
    c_opt,
    c_star,
    hermite_half_fit,
    kernel_fit,
    m_opt_mise,
    m_opt_mse,
    mise_constants,
    mise_monte_carlo,
    normality_experiment,
    parameter_sweep,
    pointwise_coeffs,
    sample,
    szasz_exact_moments,
    szasz_fit,
    weighted_L_integral,
)
from smoothcdf.special import poisson_log_pmf

_WORKERS = min(4, os.cpu_count() or 1)
_SZASZ_GRID = tuple(range(2, 201))
_KERNEL_GRID = tuple(i / 1000.0 for i in range(2, 201))
_HERMITE_GRID = tuple(range(2, 61))


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_1_edf_mise_analytic_anchor(exp2):
    start = time.time()
    failures = []
    details = []
    for n, reported in ((20, 8.29e-3), (50, 3.3e-3), (100, 1.68e-3), (500, 0.34e-3)):
        cfg = ExperimentConfig(exp2, "edf", (0,), n=n, M=2000, master_seed=11)
        est, se = mise_monte_carlo(cfg, 0)
        target = 1.0 / (6.0 * n)
        if abs(est - target) > 3.0 * se:
            failures.append(f"n={n}: MC {est:.3e} vs 1/(6n) {target:.3e} (se {se:.1e})")
        if abs(reported - target) > 3.0 * se:
            failures.append(f"n={n}: reported {reported:.3e} vs 1/(6n) {target:.3e} (se {se:.1e})")
        details.append(f"n={n}: {est * 1e3:.3f}e-3")
    _report(1, not failures,
            f"EDF MISE anchor 1/(6n) [{'; '.join(details)}; "
            f"{time.time() - start:.1f}s]" + (f" failures: {failures}" if failures else ""))


@pytest.mark.slow
def test_criterion_2_table_reproduction(exp2):
    start = time.time()
    rows = [
        ("szasz", _SZASZ_GRID, 20, 5.3e-3),
        ("szasz", _SZASZ_GRID, 50, 2.41e-3),
        ("szasz", _SZASZ_GRID, 100, 1.32e-3),
        ("szasz", _SZASZ_GRID, 500, 0.30e-3),
        ("kernel", _KERNEL_GRID, 20, 6.09e-3),
        ("hermite_half", _HERMITE_GRID, 20, 8.68e-3),
    ]
    failures = []
    details = []
    for family, grid, n, reported in rows:
        cfg = ExperimentConfig(exp2, family, grid, n=n, M=1000, master_seed=7)
        res = parameter_sweep(cfg, workers=_WORKERS)
        rel = abs(res.argmin_mise / reported - 1.0)
        details.append(f"{family} n={n}: {res.argmin_mise * 1e3:.3f}e-3 "
                       f"(reported {reported * 1e3:g}, rel {rel * 100:.1f}%)")
        if rel > 0.15:
            failures.append(details[-1])
    _report(2, not failures,
            f"benchmark table at M=1000 within 15% [{'; '.join(details)}; "
            f"{time.time() - start:.0f}s]")


@pytest.mark.slow
def test_criterion_3_ordering(exp2, weibull1, weibull2, weibull3):
    start = time.time()
    failures = []
    details = []
    for dist, name in ((exp2, "Exp(2)"), (weibull1, "Weibull1"),
                       (weibull2, "Weibull2"), (weibull3, "Weibull3")):
        n, M = 50, 1000
        edf_est, _ = mise_monte_carlo(
            ExperimentConfig(dist, "edf", (0,), n=n, M=M, master_seed=5), 0)
        sz = parameter_sweep(
            ExperimentConfig(dist, "szasz", _SZASZ_GRID, n=n, M=M, master_seed=5),
            workers=_WORKERS)
        kn = parameter_sweep(
            ExperimentConfig(dist, "kernel", _KERNEL_GRID, n=n, M=M, master_seed=5),
            workers=_WORKERS)
        ok = sz.argmin_mise < edf_est and sz.argmin_mise < kn.argmin_mise
        details.append(f"{name}: szasz {sz.argmin_mise * 1e3:.2f} < edf {edf_est * 1e3:.2f} "
                       f"and < kernel {kn.argmin_mise * 1e3:.2f}: {ok}")
        if not ok:
            failures.append(details[-1])
    _report(3, not failures,
            f"smooth half-line estimator wins at n=50 [{'; '.join(details)}; "
            f"{time.time() - start:.0f}s]")


def test_criterion_4_identity_suite():
    start = time.time()
    m = 10**4
    failures = []
    if L_m(m, 0.0) != 1.0:
        failures.append("L_m(0) != 1")
    for x in (0.5, 1.0, 4.0):
        ratio = math.sqrt(4.0 * math.pi * m * x) * L_m(m, x)
        if not 0.99 <= ratio <= 1.01:
            failures.append(f"L_m ratio at x={x}: {ratio:.5f}")
        ratio_t = R_tilde_1(m, x) / (-math.sqrt(x / math.pi))
        if not 0.98 <= ratio_t <= 1.02:
            failures.append(f"R_tilde_1 ratio at x={x}: {ratio_t:.5f}")
    rng = np.random.Generator(np.random.Philox(key=44))
    for _ in range(100):
        mm = int(rng.integers(1, 500))
        xx = float(rng.uniform(0.01, 8.0))
        r2 = R_j(mm, xx, 2)
        if not 0.0 <= r2 <= xx / mm + 1e-15:
            failures.append(f"R_2 bound violated at m={mm}, x={xx:.3f}")
    for mm, aa in ((3, 4.0), (50, 1.0), (500, 0.25)):
        _, _, diff = weighted_L_integral(mm, aa)
        if abs(diff) > 1e-10:
            failures.append(f"weighted integral m={mm}, a={aa}: diff {diff:.2e}")
    _report(4, not failures,
            f"squared-weight identity suite at m=1e4 [{time.time() - start:.1f}s]"
            + (f" failures: {failures}" if failures else ""))


def test_criterion_5_exact_moments_vs_coefficients(exp2):
    start = time.time()
    co = pointwise_coeffs(exp2, 1.0)
    bias_ratio = {}
    var_ratio = {}
    for m in (10**3, 10**4):
        em = szasz_exact_moments(exp2, m, 1, 1.0)
        bias_ratio[m] = m * em.bias / co.bS
        var_ratio[m] = (co.sigma2 - em.variance) * math.sqrt(m) / co.VS
    ok = (abs(bias_ratio[10**4] - 1.0) <= 0.02
          and abs(bias_ratio[10**4] - 1.0) < abs(bias_ratio[10**3] - 1.0)
          and abs(var_ratio[10**4] - 1.0) <= 0.05
          and abs(var_ratio[10**4] - 1.0) < abs(var_ratio[10**3] - 1.0))
    _report(5, ok,
            f"exact moments vs bias/variance coefficients: m*bias ratio "
            f"{bias_ratio[10**4]:.4f} (2% band), variance ratio {var_ratio[10**4]:.4f} "
            f"(5% band), residuals shrink from m=1e3 [{time.time() - start:.1f}s]")


def test_criterion_6_optimal_order_formulas(exp2):
    start = time.time()
    co = pointwise_coeffs(exp2, 1.0)
    consts = mise_constants(exp2, 1.0)
    failures = []
    ms = np.arange(1, 10_001)
    for n in (50, 500, 5000):
        mse_vals = co.sigma2 / n - co.VS / (np.sqrt(ms) * n) + (co.bS / ms) ** 2
        brute = int(ms[np.argmin(mse_vals)])
        if abs(brute - round(m_opt_mse(co, n).m_opt)) > 1:
            failures.append(f"m_opt_mse n={n}: brute {brute} vs {m_opt_mse(co, n).m_opt:.2f}")
        mise_vals = consts.C1 / n - consts.C2 / (np.sqrt(ms) * n) + consts.C3 / ms**2
        brute = int(ms[np.argmin(mise_vals)])
        if abs(brute - round(m_opt_mise(consts, n).m_opt)) > 1:
            failures.append(f"m_opt_mise n={n}: brute {brute} vs {m_opt_mise(consts, n).m_opt:.2f}")
    cs = np.geomspace(0.02, 50.0, 500_001)
    gain = consts.C2 / consts.C1 / np.sqrt(cs) - consts.C3 / consts.C1 / cs**2
    c_grid = float(cs[np.argmax(gain)])
    if abs(c_grid / c_opt(consts) - 1.0) > 0.01:
        failures.append(f"c_opt grid {c_grid:.4f} vs formula {c_opt(consts):.4f}")
    if abs(c_opt(consts) / (2.0 ** (4.0 / 3.0) * c_star(consts)) - 1.0) > 1e-12:
        failures.append("c_opt != 2^(4/3) c_star")
    _report(6, not failures,
            f"optimal-order formulas vs brute force (c_opt {c_opt(consts):.4f}) "
            f"[{time.time() - start:.1f}s]" + (f" failures: {failures}" if failures else ""))


def test_criterion_7_asymptotic_normality(beta33):
    start = time.time()
    n, reps = 500, 3000
    m = round(n ** (2.0 / 3.0) * 4.0)
    results = {}
    for name, spec in (("edf", {"kind": "edf"}), ("szasz", {"kind": "szasz", "m": m})):
        res = normality_experiment(beta33, spec, 0.4, n, reps, master_seed=0)
        results[name] = res.ks_distance
        assert abs(res.reference_mean - 0.31744) < 1e-9  # the benchmark rounds this to 0.32
    ok = all(v < 0.05 for v in results.values())
    _report(7, ok,
            f"normality at x=0.4, n=500, M=3000, szasz m={m}: KS "
            + ", ".join(f"{k}={v:.4f}" for k, v in results.items())
            + f" (< 0.05 required) [{time.time() - start:.1f}s]"
            + ("" if ok else " — the smooth estimator's exact law at this m sits "
               "0.0566 from the reference normal (variance-reduction plus bias shift), "
               "so this bound is unattainable; see the note on the normality criterion "
               "in README.md, section Install and test"))


def test_criterion_8_estimator_property_suite(exp2):
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=808))
    failures = []

    # monotone, bounded, boundary values on 1e4 random (sample, m, x < y)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 150))
        fit = szasz_fit(sample(exp2, int(rng.integers(0, 2**62)), n), m)
        xy = np.sort(rng.uniform(0.0, 9.0, size=40))
        vals = fit.evaluate(xy)
        checked += 20
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            failures.append("bounds violated")
        if not np.all(vals[1::2] >= vals[0::2] - 1e-14):
            failures.append("monotonicity violated")
        if fit.evaluate(0.0) != 0.0:
            failures.append("F(0) != 0")
        if abs(fit.evaluate(60.0 + float(fit.sample[-1])) - 1.0) > 1e-9:
            failures.append("F does not reach 1")

    # quantile round trips for the smooth kinds
    s = sample(exp2, 313, 60)
    smooth_fits = [szasz_fit(s, 45), kernel_fit(s, 0.1),
                   hermite_half_fit(s, 25)]
    for fit in smooth_fits:
        for p in (0.1, 0.5, 0.9):
            if abs(fit.evaluate(fit.quantile(p)) - p) > 1e-8:
                failures.append(f"round trip {fit.kind} p={p}")

    # finite incomplete-gamma form vs truncated-series form on 1e4 triples
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 80))
        s = sample(exp2, int(rng.integers(0, 2**62)), n)
        fit = szasz_fit(s, m)
        xs = rng.uniform(0.0, 6.0, size=10)
        direct = fit.evaluate(xs)
        for x, d in zip(xs, direct):
            z = m * x
            k_max = int(math.ceil(z + 12.0 * math.sqrt(z) + 30.0)) if z > 0 else 0
            k = np.arange(k_max + 1, dtype=float)
            edf_grid = np.searchsorted(s, k / m, side="right") / n
            series = float(np.sum(edf_grid * np.exp(poisson_log_pmf(k, z))))
            worst = max(worst, abs(d - series))
    if worst > 1e-9:
        failures.append(f"series mismatch {worst:.2e}")

    _report(8, not failures,
            f"estimator property suite: {checked} monotonicity pairs, "
            f"1e4 series triples (worst {worst:.1e}), quantile round trips "
            f"[{time.time() - start:.0f}s]" + (f" failures: {set(failures)}" if failures else ""))
