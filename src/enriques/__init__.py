"""Exact calculus of weighted clusters of infinitely near points,
pullbacks under ramified local maps, and Harbourne constants of plane
curve configurations."""

from .errors import (BudgetExceeded, ContractedCurvePresent, DivisionByZero,
                     EmptyCluster, EnriquesError, ForestViolation,
                     HypothesisViolated, ModulusSplit, NonReducedGerm,
                     ParseError, PlacementConflict, RetryBudgetExceeded,
                     UnrealizableForest)
from .field import QQ, BiPoly, Tower, branched, poly_gcd, split_directions
from .clusters import (EnriquesForest, Node, WeightedMultiCluster,
                       chain_cluster, cluster_from_json, cluster_to_json,
                       excesses, harbourne_constant, is_consistent,
                       noether_intersection, self_intersection, single_point,
                       validate_forest, virtual_codimension)
from .localeng import (Germ, LocalMap, base_points, curves_through,
                       fixed_part, intersection_multiplicity, local_degree,
                       map_multiplicity, monomial_map, mult_cluster,
                       pullback_cluster, shared_cluster)
from .configs import (PlaneConfig, SingularSpec, config_from_json,
                      config_to_json, fermat, h_bound_gap, h_index,
                      klein_closed_forms, klein_lines, klein_polars,
                      klein_recursion, klein_report, klein_S_cluster,
                      klein_state, kummer_pullback, pullback_theorem_check,
                      strict_gap_demo, theorem_b_family, triangle, wiman)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
