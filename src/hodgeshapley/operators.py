"""Matrix-free discrete calculus on a coalition graph.

The discrete gradient ``d`` sends vertex functions to edge functions,
``(d u)(S, S|{i}) = u(S|{i}) - u(S)``; its per-player splitting keeps
only the edges a single player joins on.  The weighted adjoint reverses
direction: incoming edges contribute ``+w f``, outgoing edges ``-w f``.
Composing the two gives the (weighted) graph Laplacian without ever
materializing a matrix.  As in the solvers, player i's edges pair the two
halves of ``x.reshape(-1, 2, 2**i)`` for x on all ``2**n`` coalitions.

Values are numpy arrays whose dtype carries the scalar mode: ``object``
arrays of ``Fraction`` in rational mode, ``float64`` in float mode.  Each
operator is written once for both; the mode only picks the dtype, the
zero and the edge weights (``player_weights``, or ``integer_weights`` as
fractions), which ``graph._edge_table`` reads out in edge order.

Edge values are stored in canonical orientation only (base to base|{i});
the sign convention for the reverse orientation lives entirely inside
``d_star``.  Float-mode reductions accumulate in a fixed order, so
repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coalition as co
from .errors import DomainError
from .game import RATIONAL, Game
from .graph import GameGraph, _edge_table


def _zero(mode: str):
    return Fraction(0) if mode == RATIONAL else 0.0


def _as_values(mode: str, values) -> np.ndarray:
    return np.asarray(values, dtype=object if mode == RATIONAL else np.float64)


def _on_edges(g: GameGraph, table: np.ndarray) -> np.ndarray:
    """A table laid out like ``g.edge_mask``, read out in edge order."""
    return _edge_table(g.n, table)[g.edge_base, g.edge_player]


def _edge_weights(g: GameGraph, mode: str) -> np.ndarray:
    if mode != RATIONAL:
        return _on_edges(g, g.player_weights)
    W, D_w = g.integer_weights
    return _as_values(mode, [Fraction(x, D_w) for x in _on_edges(g, W).tolist()])


def _padded(u: "VertexFunction") -> np.ndarray:
    """u on all 2**n coalitions, zero on the infeasible ones."""
    x = np.full(1 << u.graph.n, _zero(u.mode), dtype=u.values.dtype)
    x[u.graph.vertices] = u.values
    return x


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
        # a binary search of the edge list, (base, player) in ascending order
        g, (base, player) = self.graph, map(int, edge)
        lo, hi = np.searchsorted(g.edge_base, [base, base + 1])
        k = lo + int(np.searchsorted(g.edge_player[lo:hi], player))
        if not (k < hi and g.edge_player[k] == player):
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
    return Game(u.graph.n, u.mode, _padded(u), names)


def _check_same_graph(a, b):
    if a.graph is not b.graph:
        raise DomainError("functions live on different graphs")
    if a.mode != b.mode:
        raise TypeError(f"scalar mode mismatch: {a.mode} vs {b.mode}")


def _gradient(u: VertexFunction, players) -> EdgeFunction:
    """u(S|{i}) - u(S) on the edges of the given players, zero on the others."""
    g, x = u.graph, _padded(u)
    table = np.full(g.edge_mask.shape, _zero(u.mode), dtype=x.dtype)
    for i in players:
        pair = x.reshape(-1, 2, 1 << i)
        np.subtract(pair[:, 1], pair[:, 0], out=table[i].reshape(-1, 1 << i))
    return EdgeFunction(g, u.mode, _on_edges(g, table))


def d(u: VertexFunction) -> EdgeFunction:
    """Discrete gradient: marginal value along each feasible edge."""
    return _gradient(u, range(u.graph.n))


def d_i(i: int, u: VertexFunction) -> EdgeFunction:
    """Partial gradient: equals d(u) on player i's edges, zero elsewhere."""
    g = u.graph
    if not 0 <= i < g.n:
        raise DomainError(f"player index {i} outside [0, {g.n})")
    return _gradient(u, [i])


def d_star(f: EdgeFunction) -> VertexFunction:
    """Weighted adjoint of d: signed, weighted edge sums at each vertex.

    A vertex sums its incoming edges by descending player and its outgoing
    ones by ascending player, apart: in edge order, as ``np.bincount`` would."""
    g, n, zero = f.graph, f.graph.n, _zero(f.mode)
    wf = _edge_weights(g, f.mode) * f.values
    table = np.full((1 << n, n), zero, dtype=wf.dtype)  # the layout of _edge_table
    table[g.edge_base, g.edge_player] = wf
    sums = np.full((2, 1 << n), zero, dtype=wf.dtype)  # at the edges' bases, at their tops
    for end, order in ((1, reversed(range(n))), (0, range(n))):
        for i in order:
            sums[end].reshape(-1, 2, 1 << i)[:, end] += table[:, i].reshape(-1, 2, 1 << i)[:, 0]
    return VertexFunction(g, f.mode, (sums[1] - sums[0])[g.vertices])


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
