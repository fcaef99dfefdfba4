"""Hybridizable DG solver for linear elastic waves with symmetric stress."""

from .basis import SimplexBasis, monomial_integral, simplex_space_dim
from .cases import ExactCase, make_case
from .discretization import Discretization
from .errors import (ErrorReport, compute_errors, energy_identity_sides, eoc,
                     problem_data_from_case, run_energy_identity_check)
from .global_system import (HybridSystem, ProblemData, SingularSystemError,
                            SolutionFields, assemble_hybrid, assemble_monolithic,
                            flux_residual, load_solution, reconstruct,
                            save_solution, solve_monolithic, solve_skeleton,
                            solve_time_harmonic)
from .local_ops import (CONSERVATIVE, FIRST_ORDER, KAPPA_SCALED, TIME_REVERSED,
                        VARIANTS, FluxVariant, LocalBlocks, SingularLocalSolverError)
from .materials import (FROBENIUS_WEIGHTS, SYM_COMPONENTS, SYM_INDEX, SYM_MATS, Jet, Material,
                        isotropic, pack_sym, unpack_sym, variable_preset)
from .mesh import (BoundaryTag, Mesh, build_structured_cube, load_mesh,
                   outward_normal, save_mesh, tag_boundary)
from .quadrature import QuadratureRule, simplex_rule
from .time_domain import (FLUXES, SemidiscreteSystem, TimeState, initial_state,
                          write_energy_trace)

__version__ = "0.1.0"
