"""Acceptance suite: one check per top-level criterion, one printed line each.

Every criterion is exact (no tolerances); the per-graph pipeline runs are
also held to the < 5 s budget.
"""

import json
import random
import time

import pytest

from gkm3 import cohomology as coh
from gkm3 import thom
from gkm3.connection import (
    available_connections,
    connection_paths,
    loop_holonomy,
    transition,
)
from gkm3.graph import (
    DirectedEdge,
    connected_isotropy_check,
    parse_graph,
    serialize_graph,
    validate,
)
from gkm3.orientation import eta, is_orientable
from gkm3.verdict import realizability_report

import oracles
from conftest import CORPUS_NAMES, corpus_graph

TIME_BUDGET = 5.0


def report(capsys, num: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_cube(capsys):
    g = corpus_graph("cube")
    t0 = time.monotonic()
    rep = realizability_report(g)
    elapsed = time.monotonic() - t0
    iso = connected_isotropy_check(g)
    dets = {abs(f["det"]) for f in iso["failing_pairs"] if f["kind"] == "pair"}
    ok = (
        rep["tier"] == "integer-gkm-realizable"
        and any("unique" in w for w in rep["warnings"])
        and dets == {2, 3, 5}
        and rep["surface"]["name"] == "sphere"
        and rep["surface"]["euler_characteristic"] == 2
        and len(rep["surface"]["face_lengths"]) == 6
        and rep["betti"] == [1, 3, 3, 1, 0, 0]
        and sum(rep["betti"]) == 8
        and elapsed < TIME_BUDGET
    )
    report(capsys, 1, ok,
           f"cube: integer-realizable, sphere, Betti (1,3,3,1) [{elapsed:.2f}s]")


def test_criterion_2_flag(capsys):
    g = corpus_graph("flag")
    t0 = time.monotonic()
    rep = realizability_report(g)
    elapsed = time.monotonic() - t0
    ok = (
        rep["tier"] == "rigid-class"
        and sorted(rep["surface"]["face_lengths"]) == [4, 4, 4, 6]
        and rep["surface"]["name"] == "crosscap-1 surface"
        and rep["surface"]["euler_characteristic"] == 1
        and rep["betti"] == [1, 2, 2, 1, 0, 0]
        and elapsed < TIME_BUDGET
    )
    report(capsys, 2, ok,
           f"flag: rigid-class, RP^2 from 4+4+4+6-gons, Betti (1,2,2,1) "
           f"[{elapsed:.2f}s]")


def test_criterion_3_nonorientable(capsys):
    g = corpus_graph("nonorientable")
    t0 = time.monotonic()
    orient = is_orientable(g)
    pd = coh.poincare_duality(g)
    # Image of every vertex Thom class in the degree-6 quotient.
    project = oracles.projector(g, 3)[2]
    thoms_vanish = all(
        all(c == 0 for c in project(coh.thom_class_vertex(g, v)))
        for v in g.vertices
    )
    elapsed = time.monotonic() - t0
    ok = (
        not orient.orientable
        and orient.violating_cycle is not None
        and len(orient.violating_cycle) % 2 == 1
        and not pd.ok
        and thoms_vanish
        and elapsed < TIME_BUDGET
    )
    report(capsys, 3, ok,
           f"nonorientable: odd-cycle witness, PD false, vertex Thom classes "
           f"vanish in H^6 [{elapsed:.2f}s]")


def test_criterion_4_property_suite(capsys):
    violations = []
    for name in CORPUS_NAMES:
        g = corpus_graph(name)
        conns, _ = available_connections(g)
        pd_ok = coh.poincare_duality(g).ok
        betti = coh.betti_numbers(g)
        # (h) free-module prediction, once per graph.
        if betti.total != len(g.vertices):
            violations.append((name, "h", "total rank"))
        for d in range(6):
            predicted = sum(
                b * (d - j + 1) for j, b in enumerate(betti.betti) if j <= d
            )
            if len(coh.ht_basis_q(g, d)) != predicted:
                violations.append((name, "h", d))
        # (g) H^4 spanning.
        spanning = [coh.thom_class_edge(g, eid) for eid in range(len(g.edges))]
        for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            spanning.append([c for _ in g.vertices for c in mono])
        if oracles.q_rank_rows(spanning) != len(coh.ht_basis_q(g, 2)):
            violations.append((name, "g", None))
        # (e) the edge Thom class read from eta is the one that every
        # connection's transport signs give.
        for eid in range(len(g.edges)):
            th = coh.thom_class_edge(g, eid)
            if any(oracles.edge_thom_class(g, c, eid) != th for c in conns):
                violations.append((name, "e", eid))
        # (i) PD implies orientable; eta reads no connection.
        orientable = is_orientable(g).orientable
        if pd_ok and not orientable:
            violations.append((name, "i", None))
        for conn in conns:
            # (a), (b) per directed edge.
            for eid in range(len(g.edges)):
                for forward in (True, False):
                    data = transition(g, conn, DirectedEdge(eid, forward))
                    if data.det_phi not in (1, -1):
                        violations.append((name, "b", eid))
                    if eta(g, eid) != -data.sign_sigma * data.det_phi:
                        violations.append((name, "a", eid))
            # (d) path length sum; (c) holonomy.
            paths = connection_paths(g, conn)
            if sum(len(p) for p in paths) != 2 * len(g.edges):
                violations.append((name, "d", None))
            if orientable:
                for path in paths:
                    h = loop_holonomy(g, conn, path)
                    if not all(
                        h[i][j] == (1 if i == j else 0)
                        for i in range(3)
                        for j in range(3)
                    ):
                        violations.append((name, "c", None))
        # (f) boundary relation.
        for eid, e in enumerate(g.edges):
            th = coh.thom_class_edge(g, eid)
            lhs = []
            for i in range(len(g.vertices)):
                lhs.extend(
                    thom.poly_mul(th[i * 3 : (i + 1) * 3], e.weight.vector)
                )
            thu = coh.thom_class_vertex(g, e.u)
            thv = coh.thom_class_vertex(g, e.v)
            if not any(
                lhs == [a + s * b for a, b in zip(thu, thv)]
                for s in (1, -1)
            ):
                violations.append((name, "f", eid))
    report(capsys, 4, not violations,
           f"property suite (a)-(i) over all corpus graphs and connections, "
           f"violations: {violations or 'none'}")


def test_criterion_5_oracle_equivalence(capsys):
    ok = True
    for name in CORPUS_NAMES:
        g = corpus_graph(name)
        if not all(e.weight.is_primitive() for e in g.edges):
            ok = False
            break
        for d in range(6):
            bq = coh.ht_basis_q(g, d)
            dim = oracles.q_dimension(g, d)
            rows_q = [list(r) for r in bq]
            if len(bq) != dim or oracles.q_rank_rows(rows_q) != dim:
                ok = False
            if not all(
                oracles.class_satisfies(g, r, d, over_z=False) for r in rows_q
            ):
                ok = False
            bz = coh.ht_basis_z(g, d)
            rows_z = [[int(c) for c in r] for r in bz]
            if len(bz) != dim:
                ok = False
            if not all(
                oracles.class_satisfies(g, r, d, over_z=True) for r in rows_z
            ):
                ok = False
            if rows_z and oracles.snf_divisors(rows_z, len(bz[0])) != [1] * len(
                rows_z
            ):
                ok = False
    report(capsys, 5, ok,
           "Q and Z bases match independent sympy oracles, degrees <= 10")


def test_criterion_6_invariance(capsys):
    ok = True
    rng = random.Random(99)
    for name in CORPUS_NAMES:
        g = corpus_graph(name)
        doc = json.loads(serialize_graph(g))
        conn = available_connections(g)[0][0]
        doc["connection"] = {
            str(eid): {
                "forward": {str(a): b for a, b in sorted(conn.maps[(eid, True)].items())}
            }
            for eid in range(len(g.edges))
        }
        base = realizability_report(parse_graph(json.dumps(doc)))

        # (i) negate arbitrary weight lifts.
        neg = json.loads(json.dumps(doc))
        for e in neg["edges"]:
            if rng.random() < 0.5:
                e["weight"] = [-e["weight"][0], -e["weight"][1]]
        rep = realizability_report(parse_graph(json.dumps(neg)))
        if (
            rep["tier"] != base["tier"]
            or rep["betti"] != base["betti"]
            or rep["surface"]["euler_characteristic"]
            != base["surface"]["euler_characteristic"]
        ):
            ok = False

        # (ii) permute vertex and edge input order.
        perm = json.loads(json.dumps(doc))
        rng.shuffle(perm["vertices"])
        order = list(range(len(perm["edges"])))
        rng.shuffle(order)
        new_of_old = {old: new for new, old in enumerate(order)}
        perm["edges"] = [doc["edges"][old] for old in order]
        perm["connection"] = {
            str(new_of_old[int(old)]): {
                "forward": {
                    str(new_of_old[int(a)]): new_of_old[b]
                    for a, b in entry["forward"].items()
                }
            }
            for old, entry in doc["connection"].items()
        }
        rep = realizability_report(parse_graph(json.dumps(perm)))
        if (
            rep["tier"] != base["tier"]
            or rep["betti"] != base["betti"]
            or rep["surface"]["euler_characteristic"]
            != base["surface"]["euler_characteristic"]
        ):
            ok = False
    report(capsys, 6, ok,
           "verdict/Betti/chi invariant under lift negation and input "
           "reordering")
