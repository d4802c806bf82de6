"""Span tracing for the benchmark's traced runs.

Wrappers are installed from the benchmark side around the public functions
of each gkm3 module; the library source is not touched.  Callers import
names directly (``from .orientation import is_orientable``), so a wrapper
replaces the function at every module attribute that holds it.  Each call
records a span (name, start, end, parent); a few calls also record counts
(connections enumerated, largest integer entry, matrix cells, basis
lookups).  Statistics are gathered after the span's end time, and that
bookkeeping time is kept out of every layer's self time.

Spans are kept in memory and handed over by ``Tracer.take`` after each
operation, so memory stays bounded on the 4096-connection graphs.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("graph", "connection", "orientation", "cohomology", "linalg",
          "surface", "verdict", "cli")

# Public entry points per module.  Tiny helpers called from inner loops
# (exgcd, poly_mul, transport_coefficients, qmat, ...) stay unwrapped: their
# time is part of the caller's self time, and wrapping them would cost more
# than they do.
TRACED: Dict[str, Tuple[str, ...]] = {
    "graph": ("parse_graph", "validate", "connected_isotropy_check"),
    "connection": ("enumerate_connections", "available_connections",
                   "connection_from_block", "transition", "connection_paths",
                   "loop_holonomy"),
    "orientation": ("is_orientable", "eta_assignment", "potential_from_eta"),
    "cohomology": ("ht_basis_q", "ht_basis_z", "betti_numbers",
                   "cohomology_table", "poincare_duality", "z_freeness",
                   "thom_class_vertex", "thom_class_edge"),
    "linalg": ("rref", "q_rank", "nullspace", "solve_left", "hnf_transform",
               "hnf", "z_kernel", "snf_transform", "elementary_divisors",
               "unimodular_inverse", "lattice_solve", "hnf_solve"),
    "surface": ("build_surface", "classify_surface"),
    "verdict": ("realizability_report",),
    "cli": ("run", "_emit"),
}

_BITS_FROM = {"linalg.z_kernel", "linalg.hnf_transform", "linalg.snf_transform"}

Span = Tuple[str, float, float, int, float]  # name, start, end, parent, end+stats


def _max_bits(result) -> int:
    arrays = result if isinstance(result, tuple) else (result,)
    best = 0
    for arr in arrays:
        for x in getattr(arr, "flat", ()):
            best = max(best, abs(int(x)).bit_length())
    return best


class Tracer:
    """Records spans and counts for the calls made inside one process."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.basis_keys: set = set()

    def _stats(self, name: str, args, result) -> None:
        c = self.counts
        if name == "connection.enumerate_connections":
            c["connection.count"] += len(result)
        elif name in ("cohomology.ht_basis_q", "cohomology.ht_basis_z"):
            c["cohomology.basis_calls"] += 1
            self.basis_keys.add((id(args[0]), name, args[1]))
        if name.startswith("linalg."):
            shape = getattr(args[0], "shape", ()) if args else ()
            if len(shape) == 2:
                c["linalg.cells"] += shape[0] * shape[1]
            if name in _BITS_FROM:
                c["linalg.max_entry_bits"] = max(
                    c["linalg.max_entry_bits"], _max_bits(result))

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, t1)
                raise
            t1 = perf_counter()
            stack.pop()
            self._stats(name, args, result)
            spans[idx] = (name, t0, t1, parent, perf_counter())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wraps every TRACED function wherever a gkm3 module holds it."""
        import gkm3  # noqa: F401  (loads every submodule)
        import gkm3.cli  # noqa: F401

        wrapped = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"gkm3.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrapped[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "gkm3" and not modname.startswith("gkm3."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

    def take(self) -> Tuple[List[Span], Dict[str, float]]:
        """This operation's spans and counts; the tracer is left empty."""
        counts = dict(self.counts)
        counts["cohomology.basis_cache_hits"] = (
            counts.get("cohomology.basis_calls", 0) - len(self.basis_keys))
        spans = list(self.spans)  # every call records its span, even on error
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.basis_keys.clear()
        return spans, counts


class Totals:
    """Per-function self time, call counts and counters over many operations."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.wall = 0.0
        self.uncovered = 0.0
        self.bookkeeping = 0.0

    def add(self, spans: List[Span], counts: Dict[str, float],
            wall: float) -> Dict[str, float]:
        """Folds in one operation; returns its self time per layer.

        ``startup`` is the part of ``wall`` no top-level span covers: the
        interpreter and imports for a CLI process, loop glue in-process.
        """
        covered_by_children: Dict[int, float] = defaultdict(float)
        top = 0.0
        for name, t0, t1, parent, t2 in spans:
            if parent < 0:
                top += t2 - t0
            else:
                covered_by_children[parent] += t2 - t0
        per_layer: Dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent, t2) in enumerate(spans):
            own = (t1 - t0) - covered_by_children.get(i, 0.0)
            self.self_s[name] += own
            self.calls[name] += 1
            self.bookkeeping += t2 - t1
            per_layer[name.split(".", 1)[0]] += own
        per_layer["startup"] = max(0.0, wall - top)
        self.wall += wall
        self.uncovered += per_layer["startup"]
        for key, value in counts.items():
            if key == "linalg.max_entry_bits":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        return per_layer

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def group(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def ncalls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

