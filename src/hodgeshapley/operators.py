"""Matrix-free discrete calculus on a coalition graph.

The discrete gradient ``d`` sends vertex functions to edge functions,
``(d u)(S, S|{i}) = u(S|{i}) - u(S)``; its per-player splitting keeps
only the edges a single player joins on.  The weighted adjoint reverses
direction: incoming edges contribute ``+w f``, outgoing edges ``-w f``.
Composing the two gives the (weighted) graph Laplacian without ever
materializing a matrix; each apply is one pass over the feasible edges.

Values are numpy arrays whose dtype carries the scalar mode: ``object``
arrays of ``Fraction`` in rational mode, ``float64`` in float mode.  Each
operator is written once for both; the mode only picks the dtype, the
zero and the edge weights (``weight_fractions`` or ``weight_floats``).

Edge values are stored in canonical orientation only (base to base|{i});
the sign convention for the reverse orientation lives entirely inside
``d_star``.  Float-mode reductions accumulate in fixed edge-index order,
so repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coalition as co
from .errors import DomainError
from .game import RATIONAL, Game
from .graph import GameGraph


def _zero(mode: str):
    return Fraction(0) if mode == RATIONAL else 0.0


def _as_values(mode: str, values) -> np.ndarray:
    return np.asarray(values, dtype=object if mode == RATIONAL else np.float64)


def _edge_weights(g: GameGraph, mode: str) -> np.ndarray:
    return _as_values(mode, g.weight_fractions if mode == RATIONAL else g.weight_floats)


def _scalar(x):
    """A reduction's result as a Python scalar: a Fraction, or a float."""
    return x.item() if isinstance(x, np.generic) else x


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A scalar per feasible vertex, ordered like graph.vertices."""

    graph: GameGraph
    mode: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.mode, self.values))

    def value_at(self, S: co.Coalition):
        return self.values[self.graph.position(S)]

    def norm_inf(self):
        return _scalar(np.abs(self.values).max(initial=_zero(self.mode)))

    def total(self):
        return _scalar(self.values.sum())


@dataclass(frozen=True, eq=False)
class EdgeFunction:
    """A scalar per feasible edge, in canonical orientation, ordered like graph edges."""

    graph: GameGraph
    mode: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.mode, self.values))

    def value_at(self, edge) -> object:
        k = self.graph.edge_index.get(tuple(edge))
        if k is None:
            raise DomainError(f"edge {edge} is not a feasible edge")
        return self.values[k]

    def is_zero(self) -> bool:
        return not np.any(self.values)


def vertex_function_from_game(g: GameGraph, v: Game) -> VertexFunction:
    """Restrict a game's value table to the feasible vertices of g."""
    if v.n != g.n:
        raise DomainError("game and graph have different player counts")
    return VertexFunction(g, v.mode, _as_values(v.mode, v.values)[g.vertices])


def game_from_vertex_function(u: VertexFunction, names=None) -> Game:
    """Game whose values agree with u on feasible vertices (0 elsewhere).

    On a restricted graph the infeasible entries are padding only; every
    consumer in this package reads feasible coalitions exclusively.
    """
    g = u.graph
    vals = np.full(1 << g.n, _zero(u.mode), dtype=u.values.dtype)
    vals[g.vertices] = u.values
    return Game(g.n, u.mode, vals, names)


def _check_same_graph(a, b):
    if a.graph is not b.graph:
        raise DomainError("functions live on different graphs")
    if a.mode != b.mode:
        raise TypeError(f"scalar mode mismatch: {a.mode} vs {b.mode}")


def d(u: VertexFunction) -> EdgeFunction:
    """Discrete gradient: marginal value along each feasible edge."""
    g = u.graph
    return EdgeFunction(g, u.mode, u.values[g.edge_dst_pos] - u.values[g.edge_src_pos])


def d_i(i: int, u: VertexFunction) -> EdgeFunction:
    """Partial gradient: equals d(u) on player i's edges, zero elsewhere."""
    g = u.graph
    if not 0 <= i < g.n:
        raise DomainError(f"player index {i} outside [0, {g.n})")
    mine = g.edge_player == i
    vals = np.full(g.num_edges, _zero(u.mode), dtype=u.values.dtype)
    vals[mine] = u.values[g.edge_dst_pos[mine]] - u.values[g.edge_src_pos[mine]]
    return EdgeFunction(g, u.mode, vals)


def d_star(f: EdgeFunction) -> VertexFunction:
    """Weighted adjoint of d: signed, weighted edge sums at each vertex."""
    g = f.graph
    wf = _edge_weights(g, f.mode) * f.values
    incoming = np.full(g.num_vertices, _zero(f.mode), dtype=wf.dtype)
    outgoing = incoming.copy()
    np.add.at(incoming, g.edge_dst_pos, wf)
    np.add.at(outgoing, g.edge_src_pos, wf)
    return VertexFunction(g, f.mode, incoming - outgoing)


def laplacian_apply(u: VertexFunction) -> VertexFunction:
    """Weighted graph Laplacian L = d* d applied matrix-free."""
    return d_star(d(u))


def laplacian_i_apply(i: int, u: VertexFunction) -> VertexFunction:
    """Per-player Laplacian d* d_i; equals the Laplacian weighted by w on
    player i's edges and 0 elsewhere."""
    return d_star(d_i(i, u))


def edge_inner_product(f: EdgeFunction, g2: EdgeFunction):
    """Weighted l2 inner product over feasible edges."""
    _check_same_graph(f, g2)
    return _scalar(np.dot(_edge_weights(f.graph, f.mode) * f.values, g2.values))


def edge_difference(f: EdgeFunction, g2: EdgeFunction) -> EdgeFunction:
    """Pointwise f - g2 on the shared graph."""
    _check_same_graph(f, g2)
    return EdgeFunction(f.graph, f.mode, f.values - g2.values)
