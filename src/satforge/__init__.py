"""satforge: construct, decide and exhaustively verify saturated graphs.

The library builds the layered extremal trees and their disconnected
assemblies, decides family-saturation for families built from cliques,
paths, disjoint unions and hub-joins, and re-verifies the closed-form
saturation numbers by canonical enumeration at desk scale.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    build_graph,
    connected_components,
    diameter,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    join,
)
from .canon import CanonicalCode, canonical_form
from .patterns import (
    Witness,
    contains_join_k1,
    contains_linear_forest,
    has_clique,
    has_path_of_order,
    subtree_contains,
)
from .saturation import (
    Clique,
    DisjointUnion,
    ForbiddenFamily,
    JoinK1,
    Path,
    SaturationVerdict,
    check_saturated,
    contains_member,
    parse_family,
    saturation_gap,
)
from .constructions import (
    make_erdos_kp,
    make_g0,
    make_h0,
    make_small_tree,
    make_star,
    make_t0k,
    make_t1k,
    make_tk,
    saturated_tree_of_order,
)
from .formulas import (
    SatBounds,
    linear_forest_sat_bounds,
    order_constant,
    sat_join_k1,
    sat_k3_cup_pk_bounds,
    sat_k3_pk,
    sat_kp,
    sat_pk,
)
from .search import (
    BruteForceResult,
    ScanReport,
    enumerate_graphs,
    enumerate_trees,
    sat_bruteforce,
    scan_saturated_trees,
)
