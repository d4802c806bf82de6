"""The closed surface glued from the connection paths of a 3-valent graph.

Each connection path bounds one polygonal face; faces are glued to the
graph along their boundary edges.  The result is a closed surface exactly
when every edge lies on precisely two boundary occurrences, and its
homeomorphism type is determined by the Euler characteristic
chi = |V| - |E| + #faces together with orientability, decided by one
signed spanning forest of the face graph (graph.signed_forest, the walk
behind the eta potential) whose -1 edges join the faces that run through
an edge the same way.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, NamedTuple, Optional, Tuple

from .connection import Connection, ConnectionPath, connection_paths
from .graph import GkmGraph, signed_forest

__all__ = ["SurfaceResult", "build_surface", "classify_surface"]


class SurfaceResult(NamedTuple):
    closed: bool
    faces: Tuple[ConnectionPath, ...]
    face_lengths: Tuple[int, ...]
    euler_characteristic: Optional[int] = None
    orientable: Optional[bool] = None
    genus: Optional[int] = None
    crosscaps: Optional[int] = None
    name: Optional[str] = None


def build_surface(g: GkmGraph, conn: Connection) -> SurfaceResult:
    """Glues the face complex; closedness means every edge is used twice."""
    faces = tuple(connection_paths(g, conn))
    occurrences = defaultdict(list)
    for fi, path in enumerate(faces):
        for step in path.steps:
            occurrences[step.edge_id].append((fi, step.forward))
    closed = all(len(occurrences[eid]) == 2 for eid in range(len(g.edges)))
    result = SurfaceResult(closed, faces, tuple(len(p) for p in faces))
    if not closed:
        return result
    return result._replace(
        euler_characteristic=len(g.vertices) - len(g.edges) + len(faces),
        orientable=_orientable(len(faces), occurrences),
    )


def _orientable(nfaces: int, occurrences) -> bool:
    """Whether faces can be flipped so that every edge is traversed once in
    each direction: flips tau = ±1 with tau(f1) * tau(f2) = -1 exactly when
    the edge's two occurrences run the same way.  A face that runs through
    an edge twice the same way is a -1 loop, which no flip satisfies."""
    edges = [(f1, f2, -1 if d1 == d2 else 1)
             for (f1, d1), (f2, d2) in occurrences.values()]
    tau, _ = signed_forest(range(nfaces), edges)
    return all(tau[a] * tau[b] == s for a, b, s in edges)


def classify_surface(g: GkmGraph, conn: Connection) -> SurfaceResult:
    """Names the glued surface: sphere, genus-g surface or crosscap-k surface."""
    s = build_surface(g, conn)
    if not s.closed:
        return s
    chi = s.euler_characteristic
    if s.orientable:
        if chi % 2 or chi > 2:
            raise RuntimeError(f"orientable closed surface with chi = {chi}")
        genus = (2 - chi) // 2
        name = "sphere" if genus == 0 else f"genus-{genus} surface"
        return s._replace(genus=genus, name=name)
    crosscaps = 2 - chi
    if crosscaps < 1:
        raise RuntimeError(f"nonorientable closed surface with chi = {chi}")
    return s._replace(crosscaps=crosscaps, name=f"crosscap-{crosscaps} surface")
