"""Closed-form accuracy theory for the smooth half-line estimator.

Walks through the pointwise coefficients, the integrated-error constants,
the optimal smoothing orders and the deficiency of the step estimator,
all for the Exp(2) model where every integral also has a closed form.
"""

import numpy as np

import smoothcdf as sc

dist = sc.make_exponential(2.0)
x, n, a = 1.0, 500, 1.0

co = sc.pointwise_coeffs(dist, x)
print(f"pointwise coefficients at x={x} for {dist.name}:")
print(f"  sigma2 = F(1-F)        = {co.sigma2:.6f}")
print(f"  bS     = x f'(x)/2     = {co.bS:.6f}")
print(f"  VS     = f sqrt(x/pi)  = {co.VS:.6f}")

opt = sc.m_opt_mse(co, n)
print(f"\noptimal pointwise order at n={n}: m_opt = {opt.m_opt:.1f}")
ms = np.arange(1, 3001)
expansion = co.sigma2 / n - co.VS / (np.sqrt(ms) * n) + (co.bS / ms) ** 2
print(f"  brute-force argmin of the expansion: m = {ms[np.argmin(expansion)]}")
print(f"  expansion at the optimum: {opt.mse:.3e} vs step-estimator {co.sigma2 / n:.3e}")

consts = sc.mise_constants(dist, a)
print(f"\nintegrated constants with weight exp(-{a:g} x) f(x):")
print(f"  C1 = {consts.C1:.6f}   (closed form 4/35 = {4 / 35:.6f})")
print(f"  C2 = {consts.C2:.6f}   (closed form 2/5^1.5 = {2 / 5**1.5:.6f})")
print(f"  C3 = {consts.C3:.6f}   (closed form 16/343 = {16 / 343:.6f})")
mise_opt = sc.m_opt_mise(consts, n)
print(f"  m_opt for the integrated error: {mise_opt.m_opt:.1f}")

print("\ndeficiency: extra observations the step estimator needs to keep up")
for c in (0.5 * sc.c_opt(consts), sc.c_opt(consts), 2.0 * sc.c_opt(consts)):
    d = sc.deficiency_asymptotic(consts, n, c=c)
    print(f"  order = {c:.3f} n^(2/3): deficiency ~ {d:.1f}")
print(f"  threshold c* = {sc.c_star(consts):.4f}, maximizer c_opt = {sc.c_opt(consts):.4f} "
      f"= 2^(4/3) c*")

i_l = sc.exact_deficiency_local(dist, round(n ** (2 / 3) * sc.c_opt(consts)), n, x)
print(f"\nexact local deficiency at n={n}, x={x}: the step estimator needs "
      f"{i_l} observations ({i_l - n:+d})")
