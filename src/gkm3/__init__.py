"""Exact combinatorial realizability checks for 3-valent rank-2 GKM graphs."""

# The Thom-class route first, with the modules it imports: its compile
# then comes before cohomology's, not on top of the import's peak memory.
from . import thom
from .cohomology import (
    DEFAULT_DEGREE_CAP,
    betti_numbers,
    cohomology_table,
    ht_basis_q,
    ht_basis_z,
    poincare_duality,
    thom_class_edge,
    thom_class_vertex,
    z_freeness,
)
from .connection import (
    Connection,
    ConnectionPath,
    available_connections,
    connection_from_block,
    connection_paths,
    enumerate_connections,
    loop_holonomy,
    transition,
    transport_coefficients,
)
from .graph import (
    DirectedEdge,
    Edge,
    GkmGraph,
    GraphSemanticError,
    GraphSyntaxError,
    Weight,
    connected_isotropy_check,
    parse_graph,
    serialize_graph,
    validate,
)
from .orientation import eta, eta_assignment, is_orientable, potential_from_eta
from .surface import build_surface, classify_surface
from .verdict import realizability_report

__version__ = "0.1.0"
