"""Critical spheres of the Hawking energy on initial data sets.

Builds discretized geodesic spheres and radial graphs over them, evaluates
the Hawking energy and the area-constrained Euler-Lagrange residual, locates
critical spheres by a discrete Lyapunov-Schmidt reduction, traces the local
foliation in the radius, and compares the small-sphere energy expansions
along geodesic spheres with those along light cuts.
"""

__version__ = "0.1.0"

from .background import (AmbientFields, CurvatureAtPoint, InitialDataSet,
                         ambient_fields, concentration_scalar, curvature_at, preset)
from .el_operator import ResidualField, el_residual, rescaled_phi
from .errors import (BandLimitExceeded, ChartExceeded, ContinuationBroken,
                     DegenerateHessian, DegenerateInducedMetric, DegenerateMetric,
                     HawkfolError, InvalidParams, NoRoot, NonConvergence,
                     NonEmbedded, NotOrthogonal, StepSizeUnderflow,
                     UnknownPreset, UnsupportedDegree)
from .functionals import EnergyReport, hawking_energy, willmore
from .geodesic import (RayFan, VariationBundle, exp_map, geodesic_acceleration,
                       orthonormal_frame, transported_center_frame)
from .grid import SphereGrid, default_grid
from .harmonics import (HarmonicField, analyze, analyze_compensated,
                        biharmonic_apply, biharmonic_eigenvalues, biharmonic_solve,
                        moment_integral, moment_value, project_K0, project_K1,
                        project_Kperp, synthesize, synthesize_derivatives)
from .reduction import (CriticalSurfaceSolution, FoliationTrace, NonexistenceReport,
                        foliate, initial_guess, kernel_obstruction,
                        nonexistence_check, solve_critical)
from .smallsphere import (ComparisonReport, SpacetimeCurvatureAtPoint,
                          comparison_report, geodesic_area,
                          geodesic_energy_coefficient, geodesic_side_expansions,
                          lightcut_area, lightcut_energy_coefficient,
                          lightcut_expansions, radius_matching)
from .surface import (EmbeddedSurface, coordinate_sphere, geodesic_sphere,
                      graph_surface, surface_from_positions)
