"""Numerical dynamics of holomorphic correspondences on the Riemann sphere.

The toolkit covers: chart-safe sphere geometry and simultaneous-iteration
root finding, correspondences given by formal sums of bivariate
polynomial components, permissible forward and backward path spaces with
separated and spanning families, topological pressure and entropy
estimation, measures on the sphere and on path space with partition
entropies and variational reports, pullback equidistribution measures
with support extraction, and the Ruelle transfer operator with its
maximal eigendata and adjoint fixed-point measure.
"""

__version__ = "0.1.0"

from .correspondence import (BranchPoint, Correspondence, Fiber,  # noqa: F401
                             expansivity_probe, parse_correspondence)
from .functions import (SphereFunction, TestFunctionFamily,  # noqa: F401
                        default_test_family, fn_const, fn_im, fn_log_abs,
                        fn_re, fn_zero, named_function)
from .grid import SphereGrid  # noqa: F401
from .measures import (PathMeasure, SphereMeasure, SpherePartition,  # noqa: F401
                       VariationalEntry, check_shift_invariance,
                       empirical_invariant_measure, intermediate_entropy,
                       join, measure_distance,
                       measure_entropy, partition_entropy, pushforward,
                       total_variation, variational_check)
from .paths import (ForwardPath, PathBatch,  # noqa: F401
                    enumerate_backward_paths, enumerate_forward_paths,
                    path_metric, project_point, project_symbol,
                    separated_subset, shift, spanning_subset)
from .pressure import (PressureReport, circle_starts,  # noqa: F401
                       grid_starts, pressure_estimate)
from .pullback import (check_backward_invariance, ds_support,  # noqa: F401
                       invariant_forward_paths, pullback_iterate)
from .sphere import (BivarPoly, SpherePoint, roots, sph_dist)  # noqa: F401
from .transfer import (ActiveGrid, GridFunction, SpectralResult,  # noqa: F401
                       TransferKernel, adjoint_fixed_point, convergence_check,
                       holder_norm, lifted_consistency_check, normalize,
                       power_iteration)
