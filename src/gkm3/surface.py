"""The closed surface glued from the connection paths of a 3-valent graph.

Each connection path bounds one polygonal face; faces are glued to the
graph along their boundary edges.  The result is a closed surface exactly
when every edge lies on precisely two boundary occurrences, and its
homeomorphism type is determined by the Euler characteristic
chi = |V| - |E| + #faces together with orientability, decided by
propagating coherent face orientations across shared edges.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .connection import Connection, ConnectionPath, connection_paths
from .graph import GkmGraph

__all__ = ["SurfaceResult", "build_surface", "classify_surface"]


@dataclass(frozen=True)
class SurfaceResult:
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
    closed = all(
        len(occurrences[eid]) == 2 for eid in range(len(g.edges))
    ) and len(occurrences) == len(g.edges)
    result = SurfaceResult(closed, faces, tuple(len(p) for p in faces))
    if not closed:
        return result
    chi = len(g.vertices) - len(g.edges) + len(faces)
    orientable = _orientable(len(faces), occurrences)
    return SurfaceResult(
        closed,
        faces,
        result.face_lengths,
        euler_characteristic=chi,
        orientable=orientable,
    )


def _orientable(nfaces: int, occurrences) -> bool:
    """Coherent-orientation propagation over the face adjacency.

    Flipping a face reverses all its boundary directions; the surface is
    orientable iff flips can be chosen so that every edge is traversed once
    in each direction.
    """
    constraints = defaultdict(list)  # face -> [(other face, parity)]
    for occ in occurrences.values():
        (f1, d1), (f2, d2) = occ
        if f1 == f2:
            if d1 == d2:
                # The same face runs through the edge twice the same way; no
                # flip can fix that.
                return False
            continue
        parity = 1 if d1 == d2 else 0
        constraints[f1].append((f2, parity))
        constraints[f2].append((f1, parity))
    flip: dict = {}
    for start in range(nfaces):
        if start in flip:
            continue
        flip[start] = 0
        stack = [start]
        while stack:
            f = stack.pop()
            for other, parity in constraints[f]:
                want = flip[f] ^ parity
                if other not in flip:
                    flip[other] = want
                    stack.append(other)
                elif flip[other] != want:
                    return False
    return True


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
        return SurfaceResult(
            True, s.faces, s.face_lengths, chi, True, genus=genus, name=name
        )
    crosscaps = 2 - chi
    if crosscaps < 1:
        raise RuntimeError(f"nonorientable closed surface with chi = {chi}")
    name = f"crosscap-{crosscaps} surface"
    return SurfaceResult(
        True, s.faces, s.face_lengths, chi, False, crosscaps=crosscaps, name=name
    )
