"""Deterministic inputs for the gkm3 benchmark.

Every graph is built here as a JSON-ready dict; the library only ever sees
the JSON text.  Each ``Input`` records why it is in the benchmark
and the answer an independent source (known topology, or a golden report
pinned by the repository) says it must get.  The seeded variants (relift
and reorder) leave every connection-independent field of the verdict
unchanged, which is what the checker relies on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

@dataclass(frozen=True)
class Input:
    """One benchmark graph: its JSON document, why it is used, what it must give.

    ``expect`` holds the verdict fields an independent source fixes: for
    example ``tier``, ``betti`` (trailing zeros stripped) and
    ``connections``.  ``golden_text`` is the pinned verdict report, byte for
    byte, when the repository ships one.  ``text`` is used in place of ``doc`` for inputs
    that are not valid JSON.  ``defect`` names a known defect of the program
    on this input: an operation on it may fail (traceback, exit code or time
    limit) without making the run incorrect, though a wrong answer still does.
    """

    name: str
    why: str
    doc: Optional[dict]
    expect: dict
    golden_text: Optional[str] = None
    text: Optional[str] = None
    defect: Optional[str] = None

    @property
    def golden(self) -> Optional[dict]:
        return json.loads(self.golden_text) if self.golden_text else None

    def json_text(self) -> str:
        return self.text if self.text is not None else json.dumps(self.doc)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def prism(n: int, polygon: Sequence[Tuple[int, int]], vertical: Tuple[int, int],
          name: str) -> dict:
    """Two n-gons b0..b(n-1), t0..t(n-1) joined by n vertical edges.

    Polygon edge i (vertex i to i+1) carries ``polygon[i % len(polygon)]``
    on both n-gons; every vertical edge carries ``vertical``.  The graph is
    the product of a polygon with CP^1, so its Betti numbers are those of
    the polygon's surface (1, n-2, 1) times (1, 1).
    """
    bottom = [f"b{i}" for i in range(n)]
    top = [f"t{i}" for i in range(n)]
    edges = []
    for layer in (bottom, top):
        for i in range(n):
            w = polygon[i % len(polygon)]
            edges.append({"from": layer[i], "to": layer[(i + 1) % n],
                          "weight": list(w)})
    for b, t in zip(bottom, top):
        edges.append({"from": b, "to": t, "weight": list(vertical)})
    return {"name": name, "vertices": bottom + top, "edges": edges}


def complete_graph(images: Sequence[Tuple[int, int]], name: str) -> dict:
    """K_n with edge ij labelled e_j - e_i, for e_1..e_n mapped to ``images``.

    This is the GKM graph of CP^(n-1) with the torus acting through the
    projection that sends the standard weights to ``images``.
    """
    verts = [f"v{i + 1}" for i in range(len(images))]
    edges = []
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            (a, b), (c, d) = images[i], images[j]
            edges.append({"from": verts[i], "to": verts[j],
                          "weight": [c - a, d - b]})
    return {"name": name, "vertices": verts, "edges": edges}


HEXAGON_LABELS = ((1, 0), (1, 1), (0, 1))
HEXAGON_VERTICAL = (1, 2)


def strip_zeros(betti: Sequence[int]) -> List[int]:
    out = list(betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def corpus_dir(root: Path) -> Path:
    return root / "src" / "gkm3" / "corpus"


def _corpus_input(root: Path, name: str, why: str) -> Input:
    doc = json.loads((corpus_dir(root) / f"{name}.json").read_text())
    golden = (corpus_dir(root) / f"{name}.golden.json").read_text()
    return Input(name, why, doc, {}, golden_text=golden)


def build_graphs(root: Path) -> Dict[str, Input]:
    """Every graph the workloads draw from, keyed by name.

    ``root`` is the checkout holding ``src/gkm3/corpus``; the corpus graphs
    and their goldens are read from there.  The Betti numbers in ``expect``
    come from known topology, not from earlier runs of the program.
    """
    graphs = [
        _corpus_input(root, "cube", "Fraction RREF, HNF and SNF to degree cap "
                      "20 dominate; the slowest corpus verdict"),
        _corpus_input(root, "flag", "512 connections and a rigid-class "
                      "verdict; the bundled explicit connection is index 0"),
        _corpus_input(root, "theta", "smallest graph; interpreter and "
                      "argument handling dominate a CLI call on it"),
        _corpus_input(root, "nonorientable", "the odd-cycle branch: eta is "
                      "-1, duality fails, 2-torsion in degree 6"),
        Input(
            "cp3",
            "CP^3 as K4: a second manifold of known topology whose basis "
            "lattices need more HNF work than the theta graph",
            complete_graph(((0, 0), (1, 0), (0, 1), (1, 2)), "cp3"),
            # A complex manifold with free integral cohomology; the edge
            # v2v4 carries the imprimitive (0, 2), so an isotropy group is
            # disconnected and the tier stops below rigid-class.
            {"betti": [1, 1, 1, 1], "poincare_ok": True,
             "z_freeness": "certified", "tier": "integer-gkm-realizable"},
        ),
        Input(
            "prism4",
            "(CP^1)^3 with standard labels: 2^12 = 4096 connections, so "
            "per-connection orientability dominates its verdict",
            prism(4, ((1, 0), (0, 1)), (1, 1), "prism4"),
            # A toric manifold: free integral cohomology, and all labels
            # are primitive with unit determinants, so the tier is the top
            # one.  Every edge admits both bijections of its side edges.
            {"betti": [1, 3, 3, 1], "poincare_ok": True,
             "z_freeness": "certified", "tier": "rigid-class",
             "connections": 4096},
        ),
    ]
    for n in (6, 8):
        graphs.append(Input(
            f"prism{n}",
            f"hexagon-labelled prism over a {n}-gon: Q and Z bases grow "
            f"with |V| = {2 * n} without a verdict's connection loop",
            prism(n, HEXAGON_LABELS, HEXAGON_VERTICAL, f"prism{n}"),
            {"betti": [1, n - 1, n - 1, 1]},
        ))
    graphs += [
        Input("malformed", "unreadable JSON must give exit 2, not a traceback",
              None, {"exit": 2}, text='{"vertices": ["a", "b"], "edges": ['),
        Input(
            "dependent",
            "parallel labels at a vertex: validation must report tier invalid",
            {"name": "dependent", "vertices": ["u", "w"], "edges": [
                {"from": "u", "to": "w", "weight": [1, 0]},
                {"from": "u", "to": "w", "weight": [2, 0]},
                {"from": "u", "to": "w", "weight": [0, 1]}]},
            {"tier": "invalid"},
        ),
        Input(
            "not-gkm",
            "valid labels that admit no compatible connection: tier not-gkm",
            {"name": "not-gkm", "vertices": ["A", "B", "C", "D"], "edges": [
                {"from": "A", "to": "B", "weight": [1, -2]},
                {"from": "B", "to": "C", "weight": [1, 2]},
                {"from": "C", "to": "D", "weight": [0, 3]},
                {"from": "D", "to": "A", "weight": [2, -3]},
                {"from": "A", "to": "C", "weight": [1, 3]},
                {"from": "B", "to": "D", "weight": [3, -1]}]},
            {"tier": "not-gkm"},
        ),
        Input(
            "two-valent",
            "CP^1 x CP^1 as a 2-valent square: out of the 3-valent scope, so "
            "exit 2 or tier invalid",
            {"name": "two-valent", "vertices": ["a", "b", "c", "d"], "edges": [
                {"from": "a", "to": "b", "weight": [1, 0]},
                {"from": "b", "to": "c", "weight": [0, 1]},
                {"from": "c", "to": "d", "weight": [1, 0]},
                {"from": "d", "to": "a", "weight": [0, 1]}]},
            {"tier": "invalid"},
            defect="the verdict ends in a traceback",
        ),
        Input(
            "bad-connection",
            "a connection block {\"0\": 5} must be rejected with exit 2",
            dict(complete_graph(((0, 0), (1, 0), (0, 1), (1, 2)),
                                "bad-connection"), connection={"0": 5}),
            {"exit": 2},
            defect="the verdict ends in an AttributeError traceback",
        ),
        Input(
            "k5",
            "CP^4 as the 4-valent K5: out of the 3-valent scope, so exit 2 or "
            "tier invalid",
            complete_graph(((0, 0), (1, 0), (0, 1), (1, 2), (2, 1)), "k5"),
            {"tier": "invalid"},
            defect="the verdict runs for minutes, past the time limit",
        ),
    ]
    return {g.name: g for g in graphs}


NEGATIVES = ("malformed", "dependent", "not-gkm", "two-valent",
             "bad-connection", "k5")


# ---------------------------------------------------------------------------
# Seeded variants
# ---------------------------------------------------------------------------

def relift(doc: dict, rng: random.Random) -> dict:
    """Negates a random subset of edge weights (w -> -w names the same label)."""
    out = json.loads(json.dumps(doc))
    for e in out["edges"]:
        if rng.random() < 0.5:
            e["weight"] = [-x for x in e["weight"]]
    return out


def reorder(doc: dict, rng: random.Random) -> dict:
    """Shuffles vertices and edges and flips edge directions at random.

    A connection block is rewritten to the new edge ids; a flipped edge's
    forward map becomes the inverse of the old one.
    """
    out = json.loads(json.dumps(doc))
    rng.shuffle(out["vertices"])
    old_edges = out["edges"]
    order = list(range(len(old_edges)))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    flipped = set()
    edges = []
    for old in order:
        e = dict(old_edges[old])
        if rng.random() < 0.5:
            e["from"], e["to"] = e["to"], e["from"]
            flipped.add(old)
        edges.append(e)
    out["edges"] = edges
    block = out.get("connection")
    if block is not None:
        new_block = {}
        for key, rec in block.items():
            old = int(key)
            fwd = {int(a): b for a, b in rec["forward"].items()}
            if old in flipped:
                fwd = {b: a for a, b in fwd.items()}
            new_block[str(new_id[old])] = {
                "forward": {str(new_id[a]): new_id[b] for a, b in fwd.items()}
            }
        out["connection"] = new_block
    return out


def variant(doc: dict, rng: random.Random) -> dict:
    """A relifted and reordered copy of ``doc``."""
    return reorder(relift(doc, rng), rng)

