"""Numerical differential geometry for isometric immersions with flat
normal bundle between space forms: fundamental forms, principal normals,
curvature-identity verification, principal coordinates by commuting flows,
and growth of the second fundamental form over geodesic balls."""

from . import dual
from .charts import AmbientModel, ImmersionChart, euclidean, hyperbolic, sphere
from .engines import AD, DEFAULT_TOL, FD, jet
from .errors import (ConfigError, CoherenceError, DegenerateMetricError,
                     DomainError, DomainExitError, FlatBundleError,
                     FrameError, HypothesisViolation, ModelConsistencyError,
                     NumericalError)
from .fields import Grid, make_grid, principal_field
from .flows import (build_flow_map, check_flow_identities,
                    commutator_residual, verify_principal_frame_property)
from .fundamental import (FundamentalBatch, flatness_violation,
                          fundamental_batch)
from .growth import (ball_max_sff, ball_volume, check_ball_containment,
                     check_distance_inequality, check_length_inequality,
                     curve_length, fit_exponential, growth_report,
                     reference_ball_volume, unit_ball_volume)
from .principal import (comparison_metric, principal_batch,
                        principal_decomposition)
from .verifiers import (check_codazzi_c1, check_codazzi_c2,
                        check_connection_formula, check_g0_flat, check_gauss,
                        check_intrinsic_curvature, verify_chart)

__version__ = "0.1.0"
