import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from gkm3.graph import parse_graph, validate

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "src" / "gkm3" / "corpus"
CORPUS_NAMES = ["cube", "flag", "nonorientable", "theta"]

# A valid K4 labelling with no compatible connection: some edge admits no
# transport of its side labels.
NOT_GKM_K4 = {
    "vertices": ["A", "B", "C", "D"],
    "edges": [
        {"from": "A", "to": "B", "weight": [1, -2]},
        {"from": "B", "to": "C", "weight": [1, 2]},
        {"from": "C", "to": "D", "weight": [0, 3]},
        {"from": "D", "to": "A", "weight": [2, -3]},
        {"from": "A", "to": "C", "weight": [1, 3]},
        {"from": "B", "to": "D", "weight": [3, -1]},
    ],
}


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / f"{name}.json").read_text()


def corpus_graph(name: str):
    return parse_graph(corpus_text(name))


def corpus_json(name: str) -> dict:
    return json.loads(corpus_text(name))


def named_graph(name: str):
    """The graph of tests/<name>.json, or else the corpus graph name."""
    path = ROOT / "tests" / f"{name}.json"
    return parse_graph(path.read_text()) if path.exists() else corpus_graph(name)


@pytest.fixture(params=CORPUS_NAMES)
def any_corpus_graph(request):
    return corpus_graph(request.param)


@pytest.fixture
def cube():
    return corpus_graph("cube")


@pytest.fixture
def flag():
    return corpus_graph("flag")


@pytest.fixture
def nonorientable():
    return corpus_graph("nonorientable")


@pytest.fixture
def theta():
    return corpus_graph("theta")


_LABELS = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]


def _fits(w, placed) -> bool:
    """Whether w is independent of the weights placed at a vertex and, as
    its third weight, completes a set that generates Z^2 (effectivity)."""
    dets = [w[0] * x[1] - w[1] * x[0] for x in placed]
    if 0 in dets:
        return False
    if len(placed) == 2:
        dets.append(placed[0][0] * placed[1][1] - placed[0][1] * placed[1][0])
        return math.gcd(*dets) == 1
    return True


@st.composite
def small_graph_docs(draw):
    """Documents of valid 3-valent graphs: 2, 4 or 6 vertices, weights in
    [-2, 2].  Each edge joins the first free stub to a free stub at another
    vertex, and its weight is drawn among those that fit at both ends, so
    that most drawn graphs pass validation."""
    n = draw(st.sampled_from([2, 4, 6]))
    # A few labels per graph, so that labels recur and transports match.
    palette = draw(st.lists(st.sampled_from(_LABELS), min_size=3, max_size=5))
    stubs = [v for v in range(n) for _ in range(3)]
    at = {v: [] for v in range(n)}
    edges = []
    while stubs:
        u = stubs.pop(0)
        others = [i for i, v in enumerate(stubs) if v != u]
        assume(others)
        v = stubs.pop(draw(st.sampled_from(others)))
        free = [w for w in palette if _fits(w, at[u]) and _fits(w, at[v])]
        assume(free)
        w = draw(st.sampled_from(free))
        at[u].append(w)
        at[v].append(w)
        edges.append({"from": f"v{u}", "to": f"v{v}", "weight": list(w)})
    doc = {"vertices": [f"v{v}" for v in range(n)], "edges": edges}
    assume(validate(parse_graph(json.dumps(doc))).ok)
    return doc


# Label triples (w1, w2, w3) that fit at one vertex, in that order.
_PALETTES = [(w1, w2, w3) for w1 in _LABELS for w2 in _LABELS if _fits(w2, [w1])
             for w3 in _LABELS if _fits(w3, [w1, w2])]


@st.composite
def coloured_graph_docs(draw):
    """Documents of valid 3-valent graphs with a compatible transport at
    every edge: 2, 4 or 6 vertices, weights in [-2, 2].  The edges are
    3-coloured, colour c labelled +-w_c from one palette that fits at a
    vertex, so every vertex sees the same labels up to sign, and each edge
    transports the other two colours onto themselves.  Colours 1 and 2 form
    a Hamiltonian cycle, so the graph is connected; colour 3 is a random
    perfect matching, and may double an edge of the cycle."""
    n = draw(st.sampled_from([2, 4, 6]))
    palette = draw(st.sampled_from(_PALETTES))
    order = draw(st.permutations(range(n)))
    third = draw(st.permutations(range(n)))
    pairs = ([(order[i], order[i + 1], 0) for i in range(0, n, 2)]
             + [(order[i + 1], order[(i + 2) % n], 1) for i in range(0, n, 2)]
             + [(third[i], third[i + 1], 2) for i in range(0, n, 2)])
    edges = []
    for u, v, c in draw(st.permutations(pairs)):
        sign = draw(st.sampled_from([1, -1]))
        edges.append({"from": f"v{u}", "to": f"v{v}",
                      "weight": [sign * x for x in palette[c]]})
    return {"vertices": [f"v{v}" for v in range(n)], "edges": edges}


def prism_graph(n: int):
    """The standard-label prism: two n-gons with edges labelled (1, 0), (0, 1)
    alternately, joined by n edges labelled (1, 1).  For n = 4 it is the GKM
    graph of (CP^1)^3; every edge has two compatible transports, so there
    are 2^(3n) connections."""
    edges = []
    for layer in "bt":
        edges += [{"from": f"{layer}{i}", "to": f"{layer}{(i + 1) % n}",
                   "weight": [1, 0] if i % 2 == 0 else [0, 1]}
                  for i in range(n)]
    edges += [{"from": f"b{i}", "to": f"t{i}", "weight": [1, 1]}
              for i in range(n)]
    vertices = [f"{layer}{i}" for layer in "bt" for i in range(n)]
    return parse_graph(json.dumps(
        {"name": f"prism{n}", "vertices": vertices, "edges": edges}))


_spec = importlib.util.spec_from_file_location(
    "scale_sweep", ROOT / "tools" / "scale_sweep.py")
scale_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_sweep)


_spec = importlib.util.spec_from_file_location(
    "gen_blowup", ROOT / "tools" / "gen_blowup.py")
gen_blowup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_blowup)


def hexagon_prism(n: int):
    """The hexagon-labelled prism over an n-gon (tools/scale_sweep.py), whose
    Betti numbers are (1, n - 1, n - 1, 1)."""
    return parse_graph(json.dumps(scale_sweep.hexagon_prism(n)))


def random_graph_doc(seed: int) -> dict:
    """A seeded 3-valent multigraph on 2, 4, 6 or 8 vertices, its stubs
    paired at random (loops and parallel edges allowed), each edge labelled
    with a nonzero vector in [-3, 3]^2; it need not pass validation."""
    rng = random.Random(seed)
    n = rng.choice([2, 4, 6, 8])
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    labels = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    edges = [{"from": f"v{u}", "to": f"v{v}", "weight": list(rng.choice(labels))}
             for u, v in zip(stubs[::2], stubs[1::2])]
    return {"vertices": [f"v{v}" for v in range(n)], "edges": edges}
