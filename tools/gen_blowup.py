"""Generates GKM graphs of equivariant blow-ups of CP^3, projected to T^2.

Run from anywhere, for example

    python3 tools/gen_blowup.py 10 last -- -3 3 2 -3 -2 -2 > tests/blowup_last10.json

which prints blowup_document(10, "last", [[-3, 3, 2], [-3, -2, -2]]).

CP^3 is the T^3 graph on vertices 0..3 with characters 0, e1, e2, e3; the
edge i -> j (i < j, in lexicographic order) has weight e_j - e_i.  Blowing
up a vertex v takes its three edges in edge-list order, with weights
w1, w2, w3 pointing out of v; it appends three new vertices (max + 1, + 2,
+ 3), re-attaches edge i to new vertex i with its direction and weight
kept, appends the triangle edges (1, 2), (1, 3), (2, 3), each pointing from
new vertex i to new vertex j with weight w_j - w_i, and removes v from the
vertex list.  The rule picks the vertex of each step: "first" the first in
the list, "last" the last, "cycle" the one at position k mod |V| on step k.
A 2 x 3 matrix P projects every weight to T^2, and vertices are named
v<int>.

K blow-ups give a simply-connected toric 6-manifold with Betti numbers
(1, 1 + K, 1 + K, 1), torsion-free cohomology and rational Poincare
duality (e.g. Fulton, Introduction to Toric Varieties, 1993), so gkm3's
verdict must read those Betti numbers and at least rational-gkm-realizable.
"""

import argparse
import json
import pathlib
import sys
from typing import List, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gkm3.graph import parse_graph, validate  # noqa: E402

RULES = ("first", "last", "cycle")
Edge = Tuple[int, int, Tuple[int, int, int]]  # (from, to, T^3 weight)


def _sub(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def cp3() -> Tuple[List[int], List[Edge]]:
    """CP^3's T^3 graph: vertices 0..3 and the edges i -> j, i < j."""
    chars = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    edges = [(i, j, _sub(chars[j], chars[i]))
             for i in range(4) for j in range(i + 1, 4)]
    return list(range(4)), edges


def blow_up(vertices: List[int], edges: List[Edge], v: int
            ) -> Tuple[List[int], List[Edge]]:
    """The graph with vertex v blown up (see the module docstring)."""
    at = [k for k, (a, b, _) in enumerate(edges) if v in (a, b)]
    new = [max(vertices) + i for i in (1, 2, 3)]
    out = [w if a == v else _sub((0, 0, 0), w)
           for a, _, w in (edges[k] for k in at)]
    edges = list(edges)
    for k, n in zip(at, new):
        a, b, w = edges[k]
        edges[k] = (n, b, w) if a == v else (a, n, w)
    edges += [(new[i], new[j], _sub(out[j], out[i]))
              for i, j in ((0, 1), (0, 2), (1, 2))]
    return [u for u in vertices if u != v] + new, edges


def blowup_document(K: int, rule: str, P: Sequence[Sequence[int]]) -> dict:
    """The graph document of K blow-ups of CP^3 by rule, projected by the
    2 x 3 matrix P; ValueError when the rule is unknown or gkm3's validate
    rejects the projected graph."""
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, not {rule!r}")
    vertices, edges = cp3()
    for k in range(K):
        pick = {"first": 0, "last": -1, "cycle": k % len(vertices)}[rule]
        vertices, edges = blow_up(vertices, edges, vertices[pick])
    doc = {
        "name": f"blowup_{rule}{K}",
        "vertices": [f"v{u}" for u in vertices],
        "edges": [{"from": f"v{a}", "to": f"v{b}",
                   "weight": [sum(p * x for p, x in zip(row, w)) for row in P]}
                  for a, b, w in edges],
    }
    res = validate(parse_graph(json.dumps(doc)))
    if not res.ok:
        raise ValueError(f"{doc['name']} under P = {list(map(list, P))} "
                         f"is not a valid graph")
    return doc


def document_text(doc: dict) -> str:
    """doc as JSON with the vertex list on one line and one edge a line."""
    edges = ",\n".join(f"    {json.dumps(e)}" for e in doc["edges"])
    return (f'{{\n  "name": {json.dumps(doc["name"])},\n'
            f'  "vertices": {json.dumps(doc["vertices"])},\n'
            f'  "edges": [\n{edges}\n  ]\n}}\n')


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("K", type=int, help="number of blow-ups")
    p.add_argument("rule", choices=RULES)
    p.add_argument("P", type=int, nargs=6, help="the projection, row by row")
    args = p.parse_args(argv)
    if args.K < 0:
        p.error("K must be nonnegative")
    try:
        doc = blowup_document(args.K, args.rule, [args.P[:3], args.P[3:]])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(document_text(doc), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
