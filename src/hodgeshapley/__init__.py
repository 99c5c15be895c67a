"""Per-player decomposition of cooperative games on the coalition hypercube.

A TU game is a function on coalitions vanishing on the empty set.  Viewed
as a vertex function on the (possibly weighted, possibly restricted)
coalition hypercube, it splits into one component game per player via the
orthogonal edge-space decomposition; each component solves a graph
Laplacian system, and its grand-coalition value recovers the player's
Shapley value on the full symmetric cube.
"""

from .coalition import (PLAYER_CAP, apply_permutation, coalition_key, coalition_label,
                        distance, enumerate_coalitions, from_members, grand_coalition,
                        members, parse_coalition)
from .errors import (CapacityError, ConfigError, ConvergenceError, DomainError,
                     HodgeShapleyError, InfeasibilityError, SpecFileError)
from .game import (FLOAT, RATIONAL, Game, format_scalar, game_from_map, game_from_spec,
                   game_from_values, is_inessential, linear_combine, load_game,
                   make_glove_game, make_inessential_game, make_pure_bargaining_game,
                   parse_scalar, pullback)
from .graph import (Edge, EdgeWeighting, GameGraph, constraints_from_spec,
                    degree_product_weighting, full_hypercube, load_constraints, restrict)
from .operators import (EdgeFunction, VertexFunction, d, d_i, d_star, edge_difference,
                        edge_inner_product, game_from_vertex_function, laplacian_apply,
                        laplacian_i_apply, vertex_function_from_game)
from .solve import (CG_FLOAT, DENSE_RATIONAL, Decomposition, PlayerSolveStats,
                    SolverConfig, decompose, edge_residual, residual_orthogonality,
                    solve_component)
from .closed_form import (GreensKernel, component_explicit, greens_kernel,
                          feasible_permutations, precedence_shapley_oracle,
                          pure_bargaining_component, shapley_direct,
                          shapley_permutation_oracle, shapley_values,
                          verify_shapley_coefficient)
from .report import DecompositionTable, build_table, compare_allocations, \
    parse_rendered_json, render_table

__version__ = "0.1.0"
