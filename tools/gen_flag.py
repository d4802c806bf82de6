"""Generates the flag-manifold corpus graph (corpus/flag.json).

Run from anywhere as `python3 tools/gen_flag.py`; it overwrites
src/gkm3/corpus/flag.json with flag_document().

Vertices are the permutations of {1,2,3} in one-line notation; an edge
joins w and w*s for each transposition s of two positions, labelled by the
image of e_{w(i)} - e_{w(j)} under e1 -> (0,0), e2 -> (-1,0), e3 -> (0,-1).
The embedded connection is found by exhaustive search: it is the one whose
connection paths consist of three 4-gons and one 6-gon made entirely of
horizontal edges (the edges not coming from the position swap (2,3)).
"""

import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gkm3.connection import connection_paths, enumerate_connections
from gkm3.graph import parse_graph

E = {1: (0, 0), 2: (-1, 0), 3: (0, -1)}


def flag_document() -> str:
    """The text of corpus/flag.json, embedded connection included."""
    perms = ["".join(p) for p in itertools.permutations("123")]
    edges = []
    swaps = [(0, 1), (0, 2), (1, 2)]  # positions, 0-based
    for w in perms:
        for i, j in swaps:
            chars = list(w)
            chars[i], chars[j] = chars[j], chars[i]
            wp = "".join(chars)
            if w < wp:
                a = E[int(w[i])]
                b = E[int(w[j])]
                weight = [a[0] - b[0], a[1] - b[1]]
                edges.append(
                    {"from": w, "to": wp, "weight": weight, "_swap": (i, j)}
                )
    vertical = {k for k, e in enumerate(edges) if e["_swap"] == (1, 2)}
    for e in edges:
        del e["_swap"]

    doc = {"name": "flag", "vertices": perms, "edges": edges}
    g = parse_graph(json.dumps(doc))
    found = None
    for conn in enumerate_connections(g):
        lengths = sorted(len(p) for p in connection_paths(g, conn))
        if lengths != [4, 4, 4, 6]:
            continue
        six = next(p for p in connection_paths(g, conn) if len(p) == 6)
        if all(s.edge_id not in vertical for s in six.steps):
            found = conn
            break
    if found is None:
        raise RuntimeError("no fibration connection found")

    block = {}
    for eid in range(len(edges)):
        fwd = found.maps[(eid, True)]
        block[str(eid)] = {"forward": {str(a): b for a, b in sorted(fwd.items())}}
    doc["connection"] = block
    return json.dumps(doc, indent=2) + "\n"


def main() -> None:
    out = pathlib.Path(__file__).resolve().parents[1] / "src/gkm3/corpus/flag.json"
    out.write_text(flag_document())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
