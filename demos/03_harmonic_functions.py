"""Harmonic functions of the killed walk: continuous u, discrete V, tilted U.

u solves the Dirichlet problem on the whitened cone (closed form for wedges
and orthants).  V is its discrete counterpart: the positive solution of the
one-step mean-value equation of the killed driftless walk, built here on a
lattice window with u as far-field data.  U(x) = e^(h.x) V(Mx) then satisfies
c U(x) = E[U(x + X); one-step survival] for the original drifted walk, the
relation every conditioning limit is built on.
"""

import numpy as np

from conelab import ConeSpec, StepLaw, solve_cramer_point
from conelab.harmonic import build_U_tables, build_V_tables, u_eval
from conelab.whiten import whiten_model

law = StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
              probs=np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8]))
cone = ConeSpec.orthant(2)
cd = solve_cramer_point(law)
wd = whiten_model(cd, cone)
image = wd.cone_image

print("=" * 70)
print("continuous harmonic function of the image cone")
print("=" * 70)
print(f"image cone {image.kind}, degree p = {wd.p}")
x = np.array([2.0, 3.0])
print(f"u({x.tolist()}) = {u_eval(image, x)}   (product form)")
for lam in (2.0, 3.0):
    print(f"u({(lam * x).tolist()}) = {u_eval(image, lam * x)} "
          f"= {lam}^p * {u_eval(image, x)}")
print(f"u on the boundary: u([2, 0]) = {u_eval(image, [2.0, 0.0])}")

print()
print("=" * 70)
print("discrete tables on the window")
print("=" * 70)
tables = build_V_tables(cd.tilted, cone, image, wd.M, L=72)
tables = build_U_tables(tables, cd.h)
print(f"window holds {tables.grid.n_states} lattice points; "
      f"mean-value residual {tables.convergence_residual:.2e}")
print("for this walk u is exactly discrete-harmonic, so V(y) = 2 y1 y2:")
for y in ([1, 1], [3, 5], [10, 7]):
    print(f"  V{tuple(y)} = {tables.value(tables.V, y):.12f}   "
          f"(2 y1 y2 = {2 * y[0] * y[1]})")
print(f"normalizer kappa = {tables.kappa:.12f} "
      f"(window sum of U' = {1 / tables.kappa:.6f}, "
      f"certified tail bound {tables.tail_bound:.2e})")

print()
print("drift-adjusted functions and their one-step fixed-point relations:")
print("  c-harmonicity of U and the U' eigenvector relation are the mean-value")
print("  equations of V and V' in tilted coordinates, so they hold to the tables'")
print(f"  own residual {tables.convergence_residual:.2e}")
print(f"  U(1,1)/U(2,2) = {tables.U_at([1, 1]) / tables.U_at([2, 2]):.12f} "
      f"(= 1/12; this exact ratio is what the exit-time limits converge to)")
