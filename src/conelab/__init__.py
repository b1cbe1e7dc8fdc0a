"""conelab: numerical laboratory for lattice walks with drift killed outside a cone.

The pipeline: validate a step law and cone, solve the exponential tilt that
removes the drift, whiten the tilted walk, build the harmonic functions of
the killed walk, and verify the survival/conditioning limit laws against an
exact dynamic-programming oracle and Monte Carlo estimators.
"""

__version__ = "0.1.0"

from .cramer import CramerData, log_mgf, solve_cramer_point, tilt_law
from .errors import ConfigError, NumericsError, WindowTooSmallError
from .harmonic import HarmonicTables, build_U_tables, build_V_tables, u_eval
from .model import (ConeSpec, ModelReport, StepLaw, build_model,
                    check_acute_cone_condition, cone_geometry)
from .whiten import (WhiteningData, cone_image_and_p, tilted_covariance,
                     whiten_model, whitening_matrix)

__all__ = [
    "__version__",
    "ConfigError", "NumericsError", "WindowTooSmallError",
    "StepLaw", "ConeSpec", "ModelReport", "build_model", "cone_geometry",
    "check_acute_cone_condition",
    "CramerData", "log_mgf", "solve_cramer_point", "tilt_law",
    "WhiteningData", "tilted_covariance", "whitening_matrix", "cone_image_and_p",
    "whiten_model",
    "HarmonicTables", "u_eval", "build_V_tables", "build_U_tables",
]
