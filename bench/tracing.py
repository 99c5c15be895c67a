"""Per-layer spans for the traced run, recorded from outside ``src/``.

``install`` wraps the public callables of each layer (module) of
``hodgeshapley`` at every name under which a loaded module binds them, so
``cli.render_table`` and ``report.render_table`` are both traced, as are
``solve.FractionLU`` and the ``GameGraph.weight_*`` cached properties.
Nothing in ``src/`` is edited; the wrappers only replace attributes in
this process.  A name that a later version of the package no longer has
is skipped and listed in ``Tracer.missing``.

Spans are ``[name, start, end, parent]`` rows kept in memory.  A span's
self time is its duration minus the time its direct children cover, so
the self times of all spans under a case add up to the case's time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from functools import cached_property
from pathlib import Path

# (span name, module, attribute): the layer boundaries.  The span name's
# prefix before the first dot is the layer.
_BOUNDARIES = (
    ("solve.decompose", "solve", "decompose"),
    ("solve.residual", "solve", "residual_orthogonality"),
    ("graph.build", "graph", "full_hypercube"),
    ("graph.build", "graph", "restrict"),
    ("graph.reweight", "graph", "degree_product_weighting"),
    ("game.load", "game", "load_game"),
    ("report.render", "report", "render_table"),
    ("cli.main", "cli", "main"),
)
_OPERATORS = ("d", "d_i", "d_star", "laplacian_apply", "laplacian_i_apply",
              "edge_inner_product", "edge_difference", "vertex_function_from_game",
              "game_from_vertex_function")
_WEIGHT_PROPERTIES = ("weight_fractions", "weight_floats")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        # keyed by span index: facts read off a solve.decompose result, and
        # the edge count of a graph whose weights were materialised
        self.decompose_facts: dict[int, dict] = {}
        self.edge_counts: dict[int, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _rebind(original, replacement) -> None:
    """Point every hodgeshapley module attribute bound to original at replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hodgeshapley" or mod_name.startswith("hodgeshapley.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every hodgeshapley module loaded so far.

    A module that is not loaded has no callers in this run, so it is left
    alone rather than imported.
    """
    from hodgeshapley import _exact, graph, operators, solve

    for span, mod_name, attr in _BOUNDARIES:
        mod = sys.modules.get(f"hodgeshapley.{mod_name}")
        if mod is None:
            continue
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        if attr == "decompose":
            _rebind(fn, _decompose_wrapper(tracer, fn, solve))
        else:
            _rebind(fn, tracer.wrap(span, fn))

    for attr in _OPERATORS:
        fn = getattr(operators, attr, None)
        if fn is None:
            tracer.missing.append(f"operators.{attr}")
            continue
        _rebind(fn, tracer.wrap("operators", fn))

    for attr in _WEIGHT_PROPERTIES:
        prop = graph.GameGraph.__dict__.get(attr)
        if not isinstance(prop, cached_property):
            tracer.missing.append(f"graph.GameGraph.{attr}")
            continue
        traced = cached_property(_weights_wrapper(tracer, prop.func))
        traced.__set_name__(graph.GameGraph, attr)
        setattr(graph.GameGraph, attr, traced)

    for cls_name in ("FractionLU", "DixonSolver"):
        cls = getattr(_exact, cls_name, None)
        if cls is None:
            tracer.missing.append(f"_exact.{cls_name}")
            continue
        _rebind(cls, _traced_solver_class(tracer, cls))


def _decompose_wrapper(tracer: Tracer, fn, solve):
    cache = getattr(solve, "_rational_solvers", None)

    @functools.wraps(fn)
    def traced(g, v, *args, **kwargs):
        idx = tracer.begin("solve.decompose")
        facts = {"rational": bool(getattr(v, "is_rational", False))}
        if facts["rational"] and cache is not None:
            facts["cache_hit"] = g in cache
        try:
            dec = fn(g, v, *args, **kwargs)
        finally:
            tracer.end(idx)
        stats = getattr(dec, "diagnostics", ())
        facts["cg_iterations"] = sum(int(getattr(s, "iterations", 0)) for s in stats)
        facts["max_rel_residual"] = max((float(getattr(s, "residual", 0.0)) for s in stats),
                                        default=0.0)
        tracer.decompose_facts[idx] = facts
        return dec
    return traced


def _weights_wrapper(tracer: Tracer, func):
    @functools.wraps(func)
    def traced(self):
        idx = tracer.begin("graph.weights")
        try:
            return func(self)
        finally:
            tracer.end(idx)
            tracer.edge_counts[idx] = self.num_edges
    return traced


def _traced_solver_class(tracer: Tracer, cls):
    class Traced(cls):
        def __init__(self, *args, **kwargs):
            idx = tracer.begin("exact.factor")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end(idx)

        def solve(self, *args, **kwargs):
            idx = tracer.begin("exact.solve")
            try:
                return super().solve(*args, **kwargs)
            finally:
                tracer.end(idx)

    Traced.__name__ = Traced.__qualname__ = cls.__name__
    return Traced


# ---------------------------------------------------------------------------
# reduction of spans to per-pass layer numbers
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def per_pass_layers(tracer: Tracer, pass_roots: list[list[int]]) -> list[dict]:
    """One dict of layer numbers per traced pass.

    ``pass_roots[k]`` lists the span indices of the case spans of pass k.
    """
    spans = tracer.spans
    own = self_times(spans)
    root_of = [-1] * len(spans)
    pass_of_root = {r: k for k, roots in enumerate(pass_roots) for r in roots}
    for idx, s in enumerate(spans):
        if idx in pass_of_root:
            root_of[idx] = idx
        elif s[3] >= 0:
            root_of[idx] = root_of[s[3]]
    out = [defaultdict(float) for _ in pass_roots]
    for idx, s in enumerate(spans):
        root = root_of[idx]
        if root < 0:
            continue
        acc = out[pass_of_root[root]]
        name = s[0]
        acc[f"self:{name}"] += own[idx]
        if name == "exact.factor":
            acc["exact.factorizations"] += 1
        elif name == "graph.weights":
            acc["graph.edges"] += tracer.edge_counts.get(idx, 0)
        elif name == "solve.decompose":
            facts = tracer.decompose_facts.get(idx, {})
            acc["solve.cg_iterations"] += facts.get("cg_iterations", 0)
            acc["solve.max_rel_residual"] = max(acc["solve.max_rel_residual"],
                                                facts.get("max_rel_residual", 0.0))
            if facts.get("rational"):
                acc["rational_decomposes"] += 1
                acc["cache_hits"] += 1 if facts.get("cache_hit") else 0
    for acc, roots in zip(out, pass_roots):
        acc["pass_s"] = sum(spans[r][2] - spans[r][1] for r in roots)
    return [dict(acc) for acc in out]
