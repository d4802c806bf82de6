"""The combined realizability verdict for a labelled 3-valent graph.

The report walks the decision ladder:

  invalid                   the abstract-graph axioms or effectivity fail
  not-gkm                   no compatible connection exists
  not-realizable            rational Poincare duality fails
  rational-gkm-realizable   duality holds over Q
  integer-gkm-realizable    additionally the integral classes are free
  rigid-class               additionally every isotropy is connected
                            (primitive weights, unit pair determinants)

Orientability and the glued surface are reported alongside but do not gate
the ladder.  All numeric content is exact.
"""

from __future__ import annotations

from functools import cached_property

from .cohomology import DEFAULT_DEGREE_CAP, betti_numbers, poincare_duality, z_freeness
from .connection import Connection, available_connections, loop_holonomy
from .graph import GkmGraph, connected_isotropy_check, validate
from .orientation import eta_all_connections, is_orientable
from .surface import classify_surface

__all__ = ["SCHEMA", "MIN_DEGREE_CAP", "Analysis", "NoSuchConnection",
           "realizability_report"]

SCHEMA = "gkm3.verdict/1"

# Duality needs b_6 = 1 and stabilized Betti numbers, which takes
# b_8 = b_10 = 0; below this cap every verdict would be "not-realizable".
MIN_DEGREE_CAP = 10


class NoSuchConnection(IndexError):
    """The selected connection index is not that of a compatible connection."""


class Analysis:
    """One graph's analysis; each stage is computed on first use, at most once.

    connection_index selects the compatible connection behind orientability,
    surface and holonomy; a file-supplied connection is always index 0.
    """

    def __init__(self, g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP,
                 connection_index: int = 0):
        self.graph = g
        self.degree_cap = degree_cap
        self.connection_index = connection_index

    # Each stage calls the public function that tests and tracing know by
    # name.  connections is (connections, explicit) and raises
    # GraphSemanticError for a bad connection block.
    validity = cached_property(lambda a: validate(a.graph))
    connections = cached_property(lambda a: available_connections(a.graph))
    betti = cached_property(lambda a: betti_numbers(a.graph, a.degree_cap))
    poincare = cached_property(lambda a: poincare_duality(a.graph, a.degree_cap))
    freeness = cached_property(lambda a: z_freeness(a.graph, a.degree_cap))
    isotropy = cached_property(lambda a: connected_isotropy_check(a.graph))
    orientability = cached_property(lambda a: is_orientable(a.graph, a.connection))
    surface = cached_property(lambda a: classify_surface(a.graph, a.connection))

    @cached_property
    def connection(self) -> Connection:
        conns, _ = self.connections
        if not 0 <= self.connection_index < len(conns):
            raise NoSuchConnection(
                f"connection index {self.connection_index} out of range "
                f"({len(conns)} compatible connections)"
            )
        return conns[self.connection_index]

    @cached_property
    def orientability_consistent(self) -> bool:
        """Whether every compatible connection has the selected one's eta
        vector, and so its orientability; decided per edge option."""
        options = self.connections[0].options
        return eta_all_connections(self.graph, options) == (
            self.orientability.eta
        )

    def orientability_section(self) -> dict:
        orient = self.orientability
        cycle = orient.violating_cycle
        return {
            "orientable": orient.orientable,
            "eta": {str(k): v for k, v in sorted(orient.eta.items())},
            "potential": dict(orient.potential) if orient.potential else None,
            "violating_cycle": None if cycle is None else list(cycle),
        }

    def surface_section(self) -> dict:
        surf = self.surface
        return {
            "name": surf.name,
            "closed": surf.closed,
            "euler_characteristic": surf.euler_characteristic,
            "orientable": surf.orientable,
            "genus": surf.genus,
            "crosscaps": surf.crosscaps,
            "face_lengths": list(surf.face_lengths),
        }

    def report(self) -> dict:
        """The verdict report; see the module docstring for the tiers.

        Raises ValueError for a degree cap below MIN_DEGREE_CAP.
        """
        if self.degree_cap < MIN_DEGREE_CAP:
            raise ValueError(
                f"the verdict needs a degree cap of {MIN_DEGREE_CAP} or more, "
                f"got {self.degree_cap}"
            )
        g = self.graph
        report: dict = {
            "schema": SCHEMA,
            "name": g.name,
            "options": {
                "degree_cap": self.degree_cap,
                "connection_index": self.connection_index,
            },
            "warnings": list(g.warnings),
            "findings": [],
        }

        validity = self.validity
        report["validity"] = {
            "ok": validity.ok,
            "failures": [dict(f) for f in validity.failures],
        }
        if not validity.ok:
            report.update(
                connections=None, orientability=None, betti=None,
                poincare_duality=None, z_freeness=None,
                connected_isotropy=None, surface=None, tier="invalid",
            )
            return report

        conns, explicit = self.connections
        report["connections"] = {"count": len(conns), "explicit": explicit}
        # An out-of-range index fails here, before any cohomology stage.
        conn = self.connection if conns else None

        betti = self.betti
        report["betti"] = list(betti.betti)
        if not betti.stabilized:
            report["warnings"].append(
                "betti numbers did not stabilize below the degree cap"
            )
        pd = self.poincare
        report["poincare_duality"] = {
            "ok": pd.ok,
            "pairing_rank": pd.pairing_rank,
            "reasons": list(pd.reasons),
        }
        freeness = self.freeness
        report["z_freeness"] = {
            "status": freeness.status,
            "witness": freeness.witness,
        }
        report["connected_isotropy"] = self.isotropy

        if not conns:
            report.update(orientability=None, surface=None, tier="not-gkm")
            if pd.ok:
                report["findings"].append(
                    "poincare duality holds but no compatible connection exists"
                )
            return report

        orient = self.orientability
        report["orientability"] = dict(
            self.orientability_section(),
            consistent_across_connections=self.orientability_consistent,
        )

        report["surface"] = self.surface_section()
        holonomy_trivial = all(
            loop_holonomy(g, conn, p) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            for p in self.surface.faces
        )
        report["connections"]["loop_holonomy_trivial"] = holonomy_trivial
        if orient.orientable and not holonomy_trivial:
            report["findings"].append(
                "internal inconsistency: orientable but nontrivial loop "
                "holonomy"
            )

        if pd.ok and not orient.orientable:
            raise RuntimeError(
                "poincare duality certified for a nonorientable connection; "
                "this combination should be impossible"
            )

        if not pd.ok:
            tier = "not-realizable"
        elif freeness.status != "certified":
            tier = "rational-gkm-realizable"
        elif not self.isotropy["ok"]:
            tier = "integer-gkm-realizable"
            report["warnings"].append(
                "disconnected isotropy: the integral realization need not be "
                "unique up to equivalence"
            )
        else:
            tier = "rigid-class"
        report["tier"] = tier
        return report


def realizability_report(
    g: GkmGraph,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    connection_index: int = 0,
) -> dict:
    """Full JSON-serializable report; see the module docstring for the tiers
    and Analysis for connection_index."""
    return Analysis(g, degree_cap, connection_index).report()
