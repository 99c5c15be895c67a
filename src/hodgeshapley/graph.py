"""The coalition hypercube graph, edge weightings, and restricted subgraphs.

Vertices are coalitions (bitset ints); the oriented edge ``(S, S|{i})``
is named by its base coalition plus the joining player and always kept
in that canonical orientation.  A graph is two boolean masks, one over
the ``2**n`` coalitions and one over the ``n * 2**(n-1)`` cube edges in
the solvers' ``(player, slot)`` layout, as are its weight tables; the
edge list is derived only when a per-edge API asks for it.  Restricted
cooperation removes vertices and edges; the remaining graph must stay
connected, keep the empty and grand coalitions, and keep every vertex
reachable from the empty coalition by adding one player at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import coalition as co
from .errors import DomainError, InfeasibilityError, SpecFileError
from .game import RATIONAL, parse_scalar, read_spec_file


class Edge(NamedTuple):
    """Oriented edge (base, base | {player}); the player is not in base."""

    base: co.Coalition
    player: int


CONSTANT = "constant"
BY_CARDINALITY = "by_cardinality"
EXPLICIT = "explicit"


def _int_arrays(*seqs) -> tuple[np.ndarray, ...]:
    """Integer sequences as int64 arrays when every value fits, else as object arrays."""
    arrays = [a if isinstance(a, np.ndarray) and a.dtype.kind == "i" else np.array(a, dtype=object)
              for a in seqs]
    if all(a.dtype.kind == "i" or not len(a) or -(1 << 63) <= min(a) and max(a) < 1 << 63
           for a in arrays):
        return tuple(a.astype(np.int64) for a in arrays)
    return tuple(a.astype(object) for a in arrays)


def _no_entries() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class EdgeWeighting:
    """Strictly positive weight per hypercube edge.

    Kinds: a single constant (``default``); a per-cardinality table
    indexed by |base| (length n); or explicit per-edge weights with
    ``default`` for unlisted edges.  A weight of zero is never allowed --
    absent cooperation is modeled by removing the edge, which keeps the
    Laplacian kernel one-dimensional.

    Explicit weights are four parallel arrays sorted by (base, player):
    ``bases``, ``players`` and each weight in lowest terms as
    ``numerators`` over ``denominators``.  The two ratio arrays are int64
    when every value fits and object arrays of Python ints otherwise.
    """

    kind: str
    table: tuple[Fraction, ...] = ()
    default: Fraction = Fraction(1)
    bases: np.ndarray = field(default_factory=_no_entries)
    players: np.ndarray = field(default_factory=_no_entries)
    numerators: np.ndarray = field(default_factory=_no_entries)
    denominators: np.ndarray = field(default_factory=_no_entries)

    @staticmethod
    def constant(c=1) -> "EdgeWeighting":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("edge weights must be strictly positive")
        return EdgeWeighting(CONSTANT, default=c)

    @staticmethod
    def by_cardinality(values: Sequence) -> "EdgeWeighting":
        table = tuple(Fraction(x) for x in values)
        if any(w <= 0 for w in table):
            raise ValueError("edge weights must be strictly positive")
        return EdgeWeighting(BY_CARDINALITY, table=table)

    @staticmethod
    def size_plus_one(n: int) -> "EdgeWeighting":
        """The per-cardinality weighting w(S, S|{i}) = |S| + 1."""
        return EdgeWeighting.by_cardinality([s + 1 for s in range(n)])

    @staticmethod
    def explicit(entries: Mapping[Edge, object], default=1) -> "EdgeWeighting":
        """Weights for the listed edges ``(base, player)``; every other edge weighs default."""
        edges = [Edge(*e) for e in entries]
        weights = [Fraction(w) for w in entries.values()]
        return EdgeWeighting._explicit_arrays(
            [e.base for e in edges], [e.player for e in edges],
            [w.numerator for w in weights], [w.denominator for w in weights], default)

    @staticmethod
    def _explicit_arrays(bases, players, numerators, denominators, default=1) -> "EdgeWeighting":
        """Explicit weighting from parallel sequences, one entry per distinct edge.

        Each numerator/denominator pair must be in lowest terms with a
        positive denominator, as ``Fraction`` keeps them.
        """
        default = Fraction(default)
        bases = np.asarray(bases, dtype=np.int64)
        players = np.asarray(players, dtype=np.int64)
        nums, dens = _int_arrays(numerators, denominators)
        if default <= 0 or np.any(nums <= 0):
            raise ValueError("edge weights must be strictly positive")
        off_cube = (players < 0) | (players >= co.PLAYER_CAP) | (bases < 0) \
            | (bases >= 1 << co.PLAYER_CAP)
        if off_cube.any():
            k = int(np.argmax(off_cube))
            raise ValueError(f"({int(bases[k])}, {int(players[k])}) is not an edge of a "
                             f"coalition hypercube")
        inside = (bases >> players) & 1 == 1
        if inside.any():
            k = int(np.argmax(inside))
            raise ValueError(f"edge base {co.coalition_key(int(bases[k]))} already contains "
                             f"player {int(players[k])}")
        keys = _edge_keys(bases, players)
        if np.any(np.diff(keys) < 0):
            order = np.argsort(keys)
            bases, players, nums, dens = bases[order], players[order], nums[order], dens[order]
        return EdgeWeighting(EXPLICIT, default=default, bases=bases, players=players,
                             numerators=nums, denominators=dens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeWeighting):
            return NotImplemented
        return (self.kind, self.table, self.default) == (other.kind, other.table, other.default) \
            and all(np.array_equal(getattr(self, a), getattr(other, a))
                    for a in ("bases", "players", "numerators", "denominators"))

    def __hash__(self) -> int:
        return hash((self.kind, self.table, self.default, len(self.bases)))

    @cached_property
    def _keys(self) -> np.ndarray:
        return _edge_keys(self.bases, self.players)

    def by_size(self, n: int) -> tuple[Fraction, ...]:
        """Weight of an edge without an explicit entry, by its base size 0, ..., n - 1."""
        if self.kind != BY_CARDINALITY:
            return (self.default,) * n
        if n > len(self.table):
            raise ValueError(f"cardinality table too short for edge base size {n - 1}")
        return self.table[:n]

    def weight(self, edge: Edge) -> Fraction:
        base, player = int(edge[0]), int(edge[1])
        if 0 <= player < co.PLAYER_CAP and 0 <= base < 1 << co.PLAYER_CAP:
            key = _edge_keys(base, player)
            k = int(np.searchsorted(self._keys, key))
            if k < len(self._keys) and self._keys[k] == key:
                return Fraction(int(self.numerators[k]), int(self.denominators[k]))
        return self.by_size(co.size(base) + 1)[-1]

    @property
    def permutation_invariant(self) -> bool:
        """True when no edge has an explicit weight: every weight then
        depends on its base's size alone (``by_size``), so the weighting is
        symmetric under every player relabeling."""
        return len(self.bases) == 0


def _edge_keys(base, player):
    """One integer per edge, ascending in (base, player) order."""
    return base * co.PLAYER_CAP + player


@dataclass(frozen=True, eq=False)
class GameGraph:
    """A connected subgraph of the coalition hypercube with positive edge weights.

    ``edge_mask[i, slot]`` marks the edge ``(S, S|{i})``, slot being S
    with bit i squeezed out, so row i lines up with the half-views
    ``x.reshape(2**(n-1-i), 2, 2**i)[:, 0]`` of a vector on all ``2**n``
    coalitions.  Vertex arrays, the edge list and the weight tables are
    derived lazily and cached; edges come in ascending ``(base, player)``
    order, the order of every ``EdgeFunction``.
    """

    n: int
    vertex_mask: np.ndarray     # (2**n,) bool: feasible coalitions
    edge_mask: np.ndarray       # (n, 2**(n-1)) bool: feasible edges by player and slot
    weighting: EdgeWeighting

    def __post_init__(self):
        object.__setattr__(self, "vertex_mask", np.asarray(self.vertex_mask, dtype=bool))
        object.__setattr__(self, "edge_mask", np.asarray(self.edge_mask, dtype=bool))
        shapes = self.vertex_mask.shape, self.edge_mask.shape
        if shapes != ((1 << self.n,), (self.n, 1 << max(self.n - 1, 0))):
            raise ValueError(f"masks of shapes {shapes} do not fit {self.n} players")
        if self.weighting.kind == BY_CARDINALITY and len(self.weighting.table) != self.n:
            raise ValueError(f"cardinality weight table needs {self.n} entries, "
                             f"got {len(self.weighting.table)}")

    # -- basic shape ------------------------------------------------------

    @cached_property
    def num_vertices(self) -> int:
        return int(np.count_nonzero(self.vertex_mask))

    @cached_property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.edge_mask))

    @cached_property
    def is_full_cube(self) -> bool:
        return bool(self.vertex_mask.all() and self.edge_mask.all())

    @cached_property
    def vertices(self) -> np.ndarray:
        """Feasible coalition bitsets, ascending."""
        return np.flatnonzero(self.vertex_mask)

    @cached_property
    def vertex_pos(self) -> np.ndarray:
        """Dense position of each coalition among feasible vertices; -1 if infeasible."""
        return np.where(self.vertex_mask, np.cumsum(self.vertex_mask) - 1, -1)

    def contains_vertex(self, S: co.Coalition) -> bool:
        return 0 <= S < (1 << self.n) and bool(self.vertex_mask[S])

    def position(self, S: co.Coalition) -> int:
        """Index of S in ``vertices``; DomainError unless S is a feasible vertex."""
        if not self.contains_vertex(S):
            shown = co.coalition_key(S) if S >= 0 else S
            raise DomainError(f"coalition {shown} is not a feasible vertex")
        return int(self.vertex_pos[S])

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Base and player of every feasible edge, ascending in (base, player)."""
        return np.nonzero(_edge_table(self.n, self.edge_mask))

    @property
    def edge_base(self) -> np.ndarray:
        return self._edges[0]

    @property
    def edge_player(self) -> np.ndarray:
        return self._edges[1]

    def edges(self) -> Iterable[Edge]:
        for b, p in zip(self.edge_base.tolist(), self.edge_player.tolist()):
            yield Edge(b, p)

    # -- weights and degrees ----------------------------------------------

    def _slot_table(self, by_size: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """A value per edge of the full cube in the layout of ``edge_mask``.

        The edge ``(S, S|{i})`` gets ``by_size[|S|]``, or the entry of the
        weighting's explicit arrays that lists it; ``entries`` runs parallel
        to those arrays.  Entries for edges outside the cube never apply.
        """
        n, w = self.n, self.weighting
        # squeezing out a bit the base lacks keeps its size
        table = np.tile(by_size[_popcounts(max(n - 1, 0))], (n, 1))
        ok = (w.players < n) & (w.bases < (1 << n))
        players = w.players[ok]
        table[players, _squeeze_bit(w.bases[ok], players)] = entries[ok]
        return table

    @cached_property
    def integer_weights(self) -> tuple[np.ndarray, int]:
        """``(W, D_w)``: each edge's weight times ``D_w``, the lcm of the feasible
        edges' weight denominators, as Python ints in the layout of
        ``edge_mask``; absent edges hold 0."""
        w, present = self.weighting, self.edge_mask
        sizes = w.by_size(self.n)
        nums = self._slot_table(np.array([x.numerator for x in sizes], dtype=object),
                                w.numerators)[present]
        dens = self._slot_table(np.array([x.denominator for x in sizes], dtype=object),
                                w.denominators)[present]
        scale = math.lcm(*set(dens.tolist()))
        table = np.zeros(present.shape, dtype=object)
        table[present] = nums * (scale // dens)
        return table, scale

    @cached_property
    def player_weights(self) -> np.ndarray:
        """Float weight of each edge in the layout of ``edge_mask``; absent edges weigh 0.

        Each weight is rounded as ``float(Fraction)`` rounds it.
        """
        w = self.weighting
        nums, dens = w.numerators, w.denominators
        floats = np.empty(len(nums))
        # int64 / int64 in numpy is correctly rounded only when both are exact floats
        exact = (nums < 1 << 53) & (dens < 1 << 53)
        floats[exact] = nums[exact].astype(np.float64) / dens[exact].astype(np.float64)
        floats[~exact] = [x / y for x, y in zip(nums[~exact].tolist(), dens[~exact].tolist())]
        table = self._slot_table(np.array([float(x) for x in w.by_size(self.n)]), floats)
        table[~self.edge_mask] = 0.0
        return table

    @cached_property
    def _product_form(self) -> tuple[float, np.ndarray] | None:
        """``(c0, b)`` with ``w(S, S|{i}) = c0 * b(S) * b(S|{i})`` on every
        edge, b 0 on infeasible coalitions; None unless g keeps every cube
        edge between two feasible coalitions.  A size table ``c_s`` gives
        ``c0 = c_0`` and ``b(S) = b_|S|``, ``b_0 = 1``, ``b_{s+1} = c_s / (c0
        b_s)`` in exact fractions, None past ``_LEVEL_RANGE``; explicit
        weights have none, unless ``degree_product_weighting`` sets it."""
        w, n = self.weighting, self.n
        if not w.permutation_invariant or not _keeps_feasible_edges(self):
            return None
        sizes = w.by_size(n)
        levels = [Fraction(1)]
        for c in sizes:
            levels.append(c / (sizes[0] * levels[-1]))
        # checked on the fractions: float() of a level past 2**1024 raises
        if not all(1 / _LEVEL_RANGE < b < _LEVEL_RANGE for b in levels):
            return None
        b = np.array([float(x) for x in levels])[_popcounts(n)]
        b[~self.vertex_mask] = 0.0
        return float(sizes[0]), b

    @cached_property
    def degrees(self) -> np.ndarray:
        """Orientation-blind incident-edge count per feasible vertex."""
        return _endpoint_sums(self.edge_mask)[self.vertex_mask]

    def degree(self, S: co.Coalition) -> int:
        return int(self.degrees[self.position(S)])


# Range of the levels b of a product form, which keeps b * x far from
# overflow and from subnormals; a table past it runs the per-player kernel.
_LEVEL_RANGE = Fraction(2) ** 256


def _feasible_edges(n: int, vertex_mask: np.ndarray) -> np.ndarray:
    """The cube edges between two feasible coalitions, in the layout of ``edge_mask``."""
    out = np.empty((n, 1 << max(n - 1, 0)), dtype=bool)
    for i in range(n):
        ends = vertex_mask.reshape(-1, 2, 1 << i)
        np.logical_and(ends[:, 0], ends[:, 1], out=out[i].reshape(-1, 1 << i))
    return out


def _keeps_feasible_edges(g: GameGraph) -> bool:
    """Whether g has every cube edge between two feasible coalitions, and no other."""
    return np.array_equal(g.edge_mask, _feasible_edges(g.n, g.vertex_mask))


def _popcounts(n: int) -> np.ndarray:
    """Size |S| of every coalition S in ``range(2**n)``, as uint8."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        out[1 << b:2 << b] = out[:1 << b] + 1
    return out


def _edge_table(n: int, table: np.ndarray) -> np.ndarray:
    """A table laid out like ``edge_mask``, of any dtype, as a (2**n, n)
    table whose entry [S, i] is the edge (S, S|{i})'s (zero where S holds
    i); the nonzeros of ``_edge_table(n, edge_mask)`` run in ascending
    (base, player) order, the edge order."""
    out = np.zeros((1 << n, n), dtype=table.dtype)
    for i in range(n):
        out.reshape(-1, 2, 1 << i, n)[:, 0, :, i] = table[i].reshape(-1, 1 << i)
    return out


def _squeeze_bit(base: np.ndarray, player: np.ndarray) -> np.ndarray:
    """base with bit ``player`` removed and the higher bits shifted down one."""
    low = base & ((np.int64(1) << player) - 1)
    return ((base >> (player + 1)) << player) | low


def _endpoint_sums(table: np.ndarray) -> np.ndarray:
    """Per coalition, the sum of ``table`` (laid out like ``edge_mask``) over its edges."""
    out = np.zeros(2 * table.shape[1], dtype=np.result_type(table.dtype, np.int64))
    for i, t in enumerate(table):
        h = out.reshape(-1, 2, 1 << i)
        t = t.reshape(-1, 1 << i)
        h[:, 0] += t
        h[:, 1] += t
    return out


def _formed(n: int, edge_mask: np.ndarray) -> np.ndarray:
    """The coalitions formed from {} one player at a time along the edges.

    Each sweep passes over the players once and carries reach upward
    (base to base|{i}); at most n + 1 sweeps run.
    """
    formed = np.zeros(1 << n, dtype=bool)
    formed[0] = True
    while True:
        before = int(np.count_nonzero(formed))
        for i, present in enumerate(edge_mask):
            r = formed.reshape(-1, 2, 1 << i)
            r[:, 1] |= r[:, 0] & present.reshape(-1, 1 << i)
        if np.count_nonzero(formed) == before:
            return formed


def _reached(n: int, edge_mask: np.ndarray) -> np.ndarray:
    """The coalitions connected to {} along the edges: a breadth-first search,
    whose cost does not grow with the length of the paths it follows."""
    present = edge_mask.tolist()
    reached = [False] * (1 << n)
    reached[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for S in frontier:
            for i in range(n):
                T = S ^ (1 << i)
                base = min(S, T)
                slot = ((base >> (i + 1)) << i) | (base & ((1 << i) - 1))
                if not reached[T] and present[i][slot]:
                    reached[T] = True
                    nxt.append(T)
        frontier = nxt
    return np.array(reached)


def _validate(n: int, vertex_mask: np.ndarray, edge_mask: np.ndarray) -> None:
    """InfeasibilityError unless every feasible coalition can be formed from
    {} one player at a time (which implies that the graph is connected).

    A disconnected graph is reported as such, before any coalition that
    cannot be formed; either way the smallest such coalition is named.
    """
    full = (1 << n) - 1
    if not vertex_mask[0]:
        raise InfeasibilityError("the empty coalition must be feasible", coalition=0)
    if not vertex_mask[full]:
        raise InfeasibilityError("the grand coalition must be feasible", coalition=full)
    formed = _formed(n, edge_mask)
    if np.array_equal(formed, vertex_mask):
        return
    reached = _reached(n, edge_mask)
    if not np.array_equal(reached, vertex_mask):
        S = int(np.argmax(vertex_mask & ~reached))
        raise InfeasibilityError(
            f"graph is disconnected: {co.coalition_key(S)} cannot be reached "
            f"from the empty coalition", coalition=S)
    S = int(np.argmax(vertex_mask & ~formed))
    raise InfeasibilityError(
        f"coalition {co.coalition_key(S)} cannot be formed starting from "
        f"the empty coalition", coalition=S)


def full_hypercube(n: int, weighting: EdgeWeighting | None = None) -> GameGraph:
    """The complete n-dimensional coalition hypercube."""
    if n < 1:
        raise ValueError("the hypercube graph needs at least one player")
    co.check_player_count(n)
    if weighting is None:
        weighting = EdgeWeighting.constant(1)
    # full cube is trivially connected; skip validation
    return GameGraph(n, np.ones(1 << n, dtype=bool), np.ones((n, 1 << (n - 1)), dtype=bool),
                     weighting)


def restrict(g: GameGraph, removed_vertices: Iterable[co.Coalition] = (),
             removed_edges: Iterable[Edge] = ()) -> GameGraph:
    """Subgraph with the given vertices (plus incident edges) and edges removed.

    A removed edge must be an edge of the cube; one that g lacks already
    is ignored.
    """
    n, full = g.n, (1 << g.n) - 1
    rv = {int(S) for S in removed_vertices}
    if 0 in rv:
        raise InfeasibilityError("cannot remove the empty coalition", coalition=0)
    if full in rv:
        raise InfeasibilityError("cannot remove the grand coalition", coalition=full)
    for S in rv:
        g.position(S)  # raises unless S is a feasible vertex
    vertex_mask = g.vertex_mask.copy()
    vertex_mask[list(rv)] = False
    # keep the edges whose two ends stay feasible
    edge_mask = g.edge_mask & _feasible_edges(n, vertex_mask)
    for b, p in {(int(b), int(p)) for b, p in removed_edges}:
        if not (0 <= p < n and 0 <= b <= full):
            raise DomainError(f"({b}, {p}) is not an edge of the {n}-player cube")
        if (b >> p) & 1:
            raise DomainError(f"edge base {co.coalition_key(b)} already contains player {p}")
        edge_mask[p, _squeeze_bit(b, p)] = False
    _validate(n, vertex_mask, edge_mask)
    return GameGraph(n, vertex_mask, edge_mask, g.weighting)


def degree_product_weighting(g: GameGraph) -> GameGraph:
    """Reweight every edge by the product of its endpoint degrees.

    On the full cube every degree is n, so the weighting is the constant n**2.
    Elsewhere the result carries the product form ``(1, deg)`` whenever g
    keeps every cube edge between two feasible coalitions; the degrees are
    small integers, so ``deg(S) * deg(T)`` is each weight bit for bit.
    """
    n = g.n
    if g.is_full_cube:
        return GameGraph(n, g.vertex_mask, g.edge_mask, EdgeWeighting.constant(n * n))
    deg = _endpoint_sums(g.edge_mask)
    products = np.zeros(g.edge_mask.shape, dtype=np.int64)  # in the layout of edge_mask
    for i in range(n):
        ends = deg.reshape(-1, 2, 1 << i)
        np.multiply(ends[:, 0], ends[:, 1], out=products[i].reshape(-1, 1 << i),
                    where=g.edge_mask[i].reshape(-1, 1 << i))
    bases, players = g._edges
    nums = _edge_table(n, products)[bases, players]
    weighting = EdgeWeighting(EXPLICIT, bases=bases, players=players, numerators=nums,
                              denominators=np.ones_like(nums))
    out = GameGraph(n, g.vertex_mask, g.edge_mask, weighting)
    # what player_weights would build from the explicit arrays: every
    # product is an integer far below 2**53
    out.__dict__["player_weights"] = products.astype(np.float64)
    if _keeps_feasible_edges(g):
        out.__dict__["_product_form"] = (1.0, deg.astype(np.float64))
    return out


# ---------------------------------------------------------------------------
# Constraint spec files (JSON)
# ---------------------------------------------------------------------------

_SPEC_KINDS = {"an object": Mapping, "a list": (list, tuple)}


def _expect(value, kind: str, location: str):
    """value, if it is of the kind named by a key of ``_SPEC_KINDS``."""
    if not isinstance(value, _SPEC_KINDS[kind]):
        raise SpecFileError(f"expected {kind}, got {type(value).__name__}", location=location)
    return value


def _coalition_at(text, n: int, location: str) -> co.Coalition:
    try:
        return co.parse_coalition(text, n)
    except ValueError as exc:
        raise SpecFileError(str(exc), location=location) from None


def _edge_at(item, n: int, location: str, needs: str) -> Edge:
    """The cube edge a spec entry names by 'base' and 'player'; needs says what a
    malformed entry lacks."""
    # the player is a JSON integer: not 1.7, true or "1"
    if not isinstance(item, Mapping) or "base" not in item or type(item.get("player")) is not int:
        raise SpecFileError(needs, location=location)
    base, p = item["base"], item["player"]
    S = _coalition_at(base, n, location)
    if not 0 <= p < n:
        raise SpecFileError(f"player {p} outside [0, {n})", location=location)
    if (S >> p) & 1:
        raise SpecFileError(f"edge base {base} already contains player {p}", location=location)
    return Edge(S, p)


def weighting_from_spec(spec: Mapping, n: int) -> EdgeWeighting:
    kind = _expect(spec, "an object", "weights").get("kind")
    if kind == CONSTANT:
        return EdgeWeighting.constant(parse_scalar(spec.get("value", "1"), RATIONAL))
    if kind == BY_CARDINALITY:
        values = _expect(spec.get("values", []), "a list", "weights.values")
        if len(values) != n:
            raise SpecFileError(f"by_cardinality table needs {n} entries, got {len(values)}",
                                location="weights.values")
        return EdgeWeighting.by_cardinality([parse_scalar(x, RATIONAL) for x in values])
    if kind == EXPLICIT:
        needs = "an explicit weight entry needs 'base', an integer 'player' and 'w'"
        entries = {}
        for k, item in enumerate(_expect(spec.get("entries", []), "a list", "weights.entries")):
            where = f"weights.entries[{k}]"
            edge = _edge_at(item, n, where, needs)
            if "w" not in item:
                raise SpecFileError(needs, location=where)
            entries[edge] = parse_scalar(item["w"], RATIONAL)
        return EdgeWeighting.explicit(entries)
    raise SpecFileError(f"unknown weighting kind {kind!r}", location="weights.kind")


def constraints_from_spec(spec: Mapping, n: int):
    """Parse a constraint spec dict.

    Layout: {"removed_coalitions": ["[1]"], "removed_edges":
    [{"base": "[]", "player": 1}], "weights": {...}}.  Every field is
    optional; returns (removed_vertices, removed_edges, weighting_or_None).
    """
    _expect(spec, "an object", "constraints")
    coalitions = _expect(spec.get("removed_coalitions", []), "a list", "removed_coalitions")
    removed_vertices = [_coalition_at(t, n, f"removed_coalitions[{k}]")
                        for k, t in enumerate(coalitions)]
    removed_edges = [_edge_at(item, n, f"removed_edges[{k}]",
                              "removed edge needs 'base' and an integer 'player'")
                     for k, item in enumerate(_expect(spec.get("removed_edges", []), "a list",
                                                      "removed_edges"))]
    weighting = None
    if "weights" in spec:
        weighting = weighting_from_spec(spec["weights"], n)
    return removed_vertices, removed_edges, weighting


def load_constraints(path, n: int):
    return constraints_from_spec(read_spec_file(path), n)
