"""Minimum-cost enclosing curves with penalties.

Compute a cheapest weakly simple closed curve that encloses a set of
required polygonal objects while paying penalties for any optional objects
it also encloses; includes a plane-graph variant (faces as objects, edges
as weighted moves) and an inverted variant (keep required objects outside,
pay for optional objects left outside — a geometric knapsack when nothing
is required).
"""

from .dijkstra import solve_dijkstra
from .dp import solve_dp
from .errors import *  # noqa: F401,F403
from .errors import EnclosureError
from .freespace import (
    FreeSpaceEdge,
    FreeSpaceGraph,
    compute_free_space_edges,
    segment_in_free_space,
)
from .geometry import Point, Segment, orient, signed_area2, winding_number
from .instance import (
    InputPolygon,
    Instance,
    parse_instance,
    pick_reference_point,
    validate_and_subdivide,
)
from .inverted import solve_inverted
from .oracle import OracleResult, brute_force, random_instance
from .planegraph import extract_faces, graph_to_instance, parse_plane_graph
from .svg import render_svg
from .uncrossing import (
    PlaneMultigraph,
    UncrossReport,
    non_crossing_euler_tour,
    reduce_multiplicities,
    subdivide_walk,
    uncross,
)
from .verify import Solution, check_weak_simplicity, evaluate_solution
from .walks import Walk, make_walk, winding_cost

__version__ = "1.0.0"

__all__ = [
    "Point", "Segment", "orient", "signed_area2", "winding_number",
    "InputPolygon", "Instance", "parse_instance", "validate_and_subdivide",
    "pick_reference_point", "parse_plane_graph", "graph_to_instance",
    "extract_faces", "FreeSpaceEdge", "FreeSpaceGraph",
    "compute_free_space_edges", "segment_in_free_space", "Walk", "make_walk",
    "winding_cost", "solve_dp", "solve_dijkstra", "solve_inverted", "uncross",
    "subdivide_walk", "reduce_multiplicities", "non_crossing_euler_tour",
    "PlaneMultigraph", "UncrossReport", "check_weak_simplicity",
    "evaluate_solution", "Solution", "brute_force", "random_instance",
    "OracleResult", "render_svg", "EnclosureError",
]
