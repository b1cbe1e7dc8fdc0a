"""The walk conditioned to never leave the cone.

Conditioning on survival up to an ever-later horizon and passing to the
limit produces a genuine Markov chain with transition weights
(1/c) P(X = z) U(x + z)/U(x).  c-harmonicity of U makes the rows sum to one,
and the chain is transient: it escapes toward the interior instead of dying
at the boundary.
"""

import numpy as np

from conelab import ConeSpec, StepLaw, solve_cramer_point
from conelab.harmonic import build_U_tables, build_V_tables
from conelab.simulate import transience_indicator, z_chain
from conelab.whiten import whiten_model

law = StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
              probs=np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8]))
cone = ConeSpec.orthant(2)
cd = solve_cramer_point(law)
wd = whiten_model(cd, cone)
tables = build_U_tables(build_V_tables(cd.tilted, cone, wd.cone_image, wd.M, L=120), cd.h)

run = z_chain(law, cd, tables, [1, 1], 200, seed=7, n_paths=1000)

print("row-sum diagnostic (raw, before normalization) at interior states:")
print(f"  [{run.row_sum_min:.12f}, {run.row_sum_max:.12f}]")
print(f"paths frozen at the window edge: {run.n_truncated} of {run.paths.shape[0]}")
print(f"every sampled position stays in the open cone: {bool((run.paths > 0).all())}")
print()
print("drift away from the boundary (transience):")
for t in (20, 50, 100, 200):
    r = np.linalg.norm(run.paths[:, t], axis=1)
    print(f"  mean |position| at step {t:3d}: {r.mean():7.2f} "
          f"(+- {r.std(ddof=1) / np.sqrt(len(r)):.2f})")
diff, se = transience_indicator(run, early=20, late=200)
print(f"gain from step 20 to 200: {diff:.2f}, {diff / se:.0f} standard errors above 0")
print()
print("one sample path, first 15 positions:")
print(run.paths[0, :15].tolist())
