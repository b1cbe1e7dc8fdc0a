"""Quasistationarity: the killed walk's long-run conditional profile.

Three independently computed objects meet here: the Perron pair of the
truncated killed kernel (restarted Arnoldi on the tilted kernel's forward
step, matrix-free, certified by its Collatz-Wielandt bracket), the
normalized table kappa * U' (harmonic construction), and the DP conditional
law at large n.  The first two agree to sub-percent total variation and the
eigenvalue matches the survival rate c.  The DP conditional is the
interesting one: this walk has period 2, so at a fixed time it occupies one
parity class only, and it converges to the class-restricted normalization of
kappa * U' rather than to the full-support profile.
"""

import numpy as np

from conelab import ConeSpec, StepLaw, solve_cramer_point
from conelab.dp_oracle import conditional_law, dp_evolve
from conelab.harmonic import build_U_tables, build_V_tables
from conelab.spectral import qsd_for_model, tv_distance_tables
from conelab.whiten import whiten_model

law = StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
              probs=np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8]))
cone = ConeSpec.orthant(2)
cd = solve_cramer_point(law)

print("=" * 70)
print("eigenvalue of the truncated kernel converges up to c from below")
print("=" * 70)
results = {}
for L in (20, 30, 40, 60):
    results[L] = qsd_for_model(law, cd, cone, L)
    low, high = results[L].bracket
    print(f"  L = {L:3d}: lambda = {results[L].lambda_:.9f} "
          f"(c - lambda = {cd.c - results[L].lambda_:.2e}, bracket width "
          f"{high - low:.1e}, {results[L].iterations} kernel steps)")

print()
print("=" * 70)
print("the Perron vector is the normalized harmonic table")
print("=" * 70)
wd = whiten_model(cd, cone)
tabs = build_U_tables(build_V_tables(cd.tilted, cone, wd.cone_image, wd.M, L=72), cd.h)
kU = np.zeros(tabs.grid.shape)
kU[tabs.grid.mask] = tabs.kappa * tabs.Uprime[tabs.grid.mask]
mu60 = np.zeros(results[60].grid.shape)
mu60[results[60].grid.mask] = results[60].mu
tv = tv_distance_tables(mu60, results[60].grid, kU, tabs.grid)
print(f"TV(mu_60, kappa U') = {tv:.5f}")

print()
print("=" * 70)
print("the conditional law at fixed n sees the period-2 class structure")
print("=" * 70)
series = dp_evolve(law, cone, [1, 1], 400, rescale_by=cd.c, L=60,
                   retain=[100, 200, 300, 400])
cond = conditional_law(series, 300)
pts = series.grid.coords[series.grid.mask]
parity = pts.sum(axis=1) % 2
cond_vals = cond[series.grid.mask]
print(f"conditional mass on even coordinate-sum sites: "
      f"{cond_vals[parity == 0].sum():.6f}")
print(f"conditional mass on odd sites               : "
      f"{cond_vals[parity == 1].sum():.6f}")
mu_pts = tabs.grid.coords[tabs.grid.mask]
mu_vals = tabs.kappa * tabs.Uprime[tabs.grid.mask]
mu_odd = mu_vals[(mu_pts.sum(axis=1) % 2) == 1].sum()
print(f"kappa U' mass on odd sites                  : {mu_odd:.6f}")
print()
print("so TV(conditional, kappa U') is pinned near the off-class mass:")
tv_cond = tv_distance_tables(cond, series.grid, kU, tabs.grid)
print(f"TV at n = 300: {tv_cond:.4f}")
print()
print("restricted to the even class the conditional does converge to the")
print("class-normalized kappa U', at the usual O(1/n) pace:")
even_mu = np.where(((tabs.grid.coords.sum(axis=-1) % 2) == 0), kU, 0.0)
even_mu /= even_mu.sum()
for n in (100, 200, 300, 400):
    cn = conditional_law(series, n)
    even_cond = np.where(((series.grid.coords.sum(axis=-1) % 2) == 0), cn, 0.0)
    even_cond /= even_cond.sum()
    tv_even = tv_distance_tables(even_cond, series.grid, even_mu, tabs.grid)
    print(f"  n = {n:3d}: class-restricted TV = {tv_even:.4f}")
