"""Whitening the tilted walk and reading off the image cone's degree.

An invertible M with M cov M^T = I maps the tilted walk to unit covariance.
The quadrant maps to a wedge whose opening is arccos(-alpha), where alpha is
the normalized cross-correlation; the harmonic function of that wedge is
homogeneous of degree p = pi / arccos(-alpha), the exponent that later
governs the polynomial factor of the survival tail.
"""

import numpy as np

from conelab import ConeSpec, StepLaw, solve_cramer_point
from conelab.whiten import (cone_image_and_p, correlation_alpha, tilted_covariance,
                            whitening_matrix)

cone = ConeSpec.orthant(2)

for name, law in [
    ("reference walk (uncorrelated after tilting)",
     StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
             probs=np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8]))),
    ("diagonal walk (correlated components)",
     StepLaw(support=np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]]),
             probs=np.array([1 / 8, 3 / 8, 1 / 4, 1 / 4]))),
]:
    print("=" * 70)
    print(name)
    print("=" * 70)
    cd = solve_cramer_point(law)
    cov = tilted_covariance(cd.tilted)
    alpha = correlation_alpha(cov)
    print(f"tilted second-moment matrix:\n{cov}")
    print(f"alpha = {alpha:.9f}")
    for mode in ("general", "example2d"):
        M = whitening_matrix(cov, mode=mode)
        defect = np.max(np.abs(M @ cov @ M.T - np.eye(2)))
        image, p = cone_image_and_p(cone, M)
        opening = image.beta if image.kind == "wedge2d" else np.pi / 2
        print(f"  mode {mode:9s}: |M cov M^T - I| = {defect:.1e}, "
              f"image opening = {opening:.9f}, p = {p:.9f}")
    print(f"  arccos(-alpha) = {np.arccos(-alpha):.9f}  "
          f"(the opening, independent of which valid M is used)")
    print(f"  pi / arccos(-alpha) = {np.pi / np.arccos(-alpha):.9f}")
    print()

print("half-space cones reduce to the half-line, degree p = 1:")
half = ConeSpec.halfspace(np.array([1.0, 0.0]))
image, p = cone_image_and_p(half, np.eye(2))
print(f"  image kind = {image.kind}, p = {p}")
