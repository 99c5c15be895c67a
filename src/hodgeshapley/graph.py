"""The coalition hypercube graph, edge weightings, and restricted subgraphs.

Vertices are coalitions (bitset ints); the oriented edge ``(S, S|{i})``
is stored as its base coalition plus the joining player and always kept
in that canonical orientation.  Restricted cooperation removes vertices
and edges; the remaining graph must stay connected, keep the empty and
grand coalitions, and keep every vertex reachable from the empty
coalition by adding one player at a time.
"""

from __future__ import annotations

from collections import deque
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

    Kinds: a single constant; a per-cardinality table indexed by |base|
    (length n); or explicit per-edge weights with a default for unlisted
    edges.  A weight of zero is never allowed -- absent cooperation is
    modeled by removing the edge, which keeps the Laplacian kernel
    one-dimensional.

    Explicit weights are four parallel arrays sorted by (base, player):
    ``bases``, ``players`` and each weight in lowest terms as
    ``numerators`` over ``denominators``.  The two ratio arrays are int64
    when every value fits and object arrays of Python ints otherwise.
    """

    kind: str
    constant_value: Fraction = Fraction(1)
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
        return EdgeWeighting(CONSTANT, constant_value=c)

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
        return (self.kind, self.constant_value, self.table, self.default) == \
            (other.kind, other.constant_value, other.table, other.default) \
            and all(np.array_equal(getattr(self, a), getattr(other, a))
                    for a in ("bases", "players", "numerators", "denominators"))

    def __hash__(self) -> int:
        return hash((self.kind, self.constant_value, self.table, self.default,
                     len(self.bases)))

    @cached_property
    def _keys(self) -> np.ndarray:
        return _edge_keys(self.bases, self.players)

    @cached_property
    def floats(self) -> np.ndarray:
        """Explicit weights as float64, each rounded as ``float(Fraction)`` rounds it."""
        nums, dens = self.numerators, self.denominators
        out = np.empty(len(nums))
        # int64 / int64 in numpy is correctly rounded only when both are exact floats
        exact = (nums < 1 << 53) & (dens < 1 << 53)
        out[exact] = nums[exact].astype(np.float64) / dens[exact].astype(np.float64)
        out[~exact] = [x / y for x, y in zip(nums[~exact].tolist(), dens[~exact].tolist())]
        return out

    def weight(self, edge: Edge) -> Fraction:
        if self.kind == CONSTANT:
            return self.constant_value
        if self.kind == BY_CARDINALITY:
            s = co.size(edge.base)
            if s >= len(self.table):
                raise ValueError(f"cardinality table too short for edge base size {s}")
            return self.table[s]
        base, player = int(edge[0]), int(edge[1])
        if 0 <= player < co.PLAYER_CAP and 0 <= base < 1 << co.PLAYER_CAP:
            key = _edge_keys(base, player)
            k = int(np.searchsorted(self._keys, key))
            if k < len(self._keys) and self._keys[k] == key:
                return Fraction(int(self.numerators[k]), int(self.denominators[k]))
        return self.default

    @property
    def permutation_invariant(self) -> bool:
        """True when the weighting is symmetric under every player relabeling."""
        return self.kind in (CONSTANT, BY_CARDINALITY)


def _edge_keys(base, player):
    """One integer per edge, ascending in (base, player) order."""
    return base * co.PLAYER_CAP + player


@dataclass(frozen=True, eq=False)
class GameGraph:
    """A connected subgraph of the coalition hypercube with positive edge weights.

    Immutable after construction; the heavyweight index structures used by
    the solvers are built lazily and cached on the instance.
    """

    n: int
    vertices: np.ndarray        # feasible coalition bitsets, ascending
    edge_base: np.ndarray       # base coalition per feasible edge
    edge_player: np.ndarray     # joining player per feasible edge
    weighting: EdgeWeighting

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=np.int64))
        object.__setattr__(self, "edge_base", np.asarray(self.edge_base, dtype=np.int64))
        object.__setattr__(self, "edge_player", np.asarray(self.edge_player, dtype=np.int64))
        if self.weighting.kind == BY_CARDINALITY and len(self.weighting.table) != self.n:
            raise ValueError(f"cardinality weight table needs {self.n} entries, "
                             f"got {len(self.weighting.table)}")

    # -- basic shape ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_base)

    @cached_property
    def edge_dst(self) -> np.ndarray:
        return self.edge_base | (np.int64(1) << self.edge_player)

    @cached_property
    def is_full_cube(self) -> bool:
        return self.num_vertices == (1 << self.n) and self.num_edges == self.n << max(self.n - 1, 0)

    @cached_property
    def vertex_pos(self) -> np.ndarray:
        """Dense position of each coalition among feasible vertices; -1 if infeasible."""
        pos = np.full(1 << self.n, -1, dtype=np.int64)
        pos[self.vertices] = np.arange(self.num_vertices)
        return pos

    @cached_property
    def edge_src_pos(self) -> np.ndarray:
        return self.vertex_pos[self.edge_base]

    @cached_property
    def edge_dst_pos(self) -> np.ndarray:
        return self.vertex_pos[self.edge_dst]

    def contains_vertex(self, S: co.Coalition) -> bool:
        return 0 <= S < (1 << self.n) and self.vertex_pos[S] >= 0

    def edges(self) -> Iterable[Edge]:
        for b, p in zip(self.edge_base.tolist(), self.edge_player.tolist()):
            yield Edge(b, p)

    @cached_property
    def edge_index(self) -> dict:
        return {Edge(b, p): k
                for k, (b, p) in enumerate(zip(self.edge_base.tolist(), self.edge_player.tolist()))}

    # -- weights and degrees ----------------------------------------------

    @cached_property
    def weight_ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """Numerator and denominator of each edge's weight in lowest terms.

        Both are int64 when every value fits and object arrays otherwise.
        """
        w = self.weighting
        if w.kind == EXPLICIT:
            # a listed edge picks its entry, any other the default after them
            keys = _edge_keys(self.edge_base, self.edge_player)
            pick = np.searchsorted(w._keys, keys)
            listed = pick < len(w._keys)
            listed[listed] = w._keys[pick[listed]] == keys[listed]
            pick[~listed] = len(w._keys)
            nums = np.append(w.numerators.astype(object), w.default.numerator)
            dens = np.append(w.denominators.astype(object), w.default.denominator)
        else:
            ratios = w.table if w.kind == BY_CARDINALITY else [w.constant_value]
            nums = np.array([x.numerator for x in ratios], dtype=object)
            dens = np.array([x.denominator for x in ratios], dtype=object)
            pick = _popcounts(self.n)[self.edge_base] if w.kind == BY_CARDINALITY \
                else np.zeros(self.num_edges, dtype=np.int64)
        return _int_arrays(nums[pick], dens[pick])

    @cached_property
    def weight_fractions(self) -> tuple[Fraction, ...]:
        """Exact weight per feasible edge; built only where rational mode asks for it."""
        nums, dens = self.weight_ratios
        return tuple(map(Fraction, nums.tolist(), dens.tolist()))

    @cached_property
    def weight_floats(self) -> np.ndarray:
        """Float weight per feasible edge; equals ``float`` of each weight fraction."""
        return self.player_weights[self.edge_player, self.edge_slot]

    @cached_property
    def edge_slot(self) -> np.ndarray:
        """Column of each edge in ``player_weights``: its base without the player's bit."""
        return _squeeze_bit(self.edge_base, self.edge_player)

    @cached_property
    def player_weights(self) -> np.ndarray:
        """Float weight of edge ``(S, S|{i})`` at ``[i, slot]``, shape ``(n, 2**(n-1))``.

        ``slot`` is S with bit i squeezed out, so row i lines up with the
        half-views ``x.reshape(2**(n-1-i), 2, 2**i)[:, 0]`` of a vector on
        all ``2**n`` coalitions.  Edges not in the graph weigh 0.
        """
        n, w = self.n, self.weighting
        half = 1 << max(n - 1, 0)
        if w.kind == CONSTANT:
            table = np.full((n, half), float(w.constant_value))
        elif w.kind == BY_CARDINALITY:
            # squeezing out a bit the base lacks keeps its size
            by_size = np.array([float(x) for x in w.table])
            table = np.tile(by_size[_popcounts(max(n - 1, 0))], (n, 1))
        else:
            table = np.full((n, half), float(w.default))
            # entries for edges outside the cube never apply
            ok = (w.players < n) & (w.bases < (1 << n))
            players = w.players[ok]
            table[players, _squeeze_bit(w.bases[ok], players)] = w.floats[ok]
        if not self.is_full_cube:
            table[~_edge_mask(n, self.edge_player, self.edge_slot)] = 0.0
        return table

    @cached_property
    def player_weight_fractions(self) -> np.ndarray:
        """Exact twin of ``player_weights``: an object array of fractions."""
        table = np.full((self.n, 1 << max(self.n - 1, 0)), Fraction(0), dtype=object)
        table[self.edge_player, self.edge_slot] = np.asarray(self.weight_fractions, dtype=object)
        return table

    @cached_property
    def degrees(self) -> np.ndarray:
        """Orientation-blind incident-edge count per feasible vertex."""
        deg = np.zeros(self.num_vertices, dtype=np.int64)
        np.add.at(deg, self.edge_src_pos, 1)
        np.add.at(deg, self.edge_dst_pos, 1)
        return deg

    def degree(self, S: co.Coalition) -> int:
        if not self.contains_vertex(S):
            raise DomainError(f"coalition {co.coalition_key(S)} is not a feasible vertex")
        return int(self.degrees[self.vertex_pos[S]])


def _popcounts(n: int) -> np.ndarray:
    """Size |S| of every coalition S in ``range(2**n)``, as uint8."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        out[1 << b:2 << b] = out[:1 << b] + 1
    return out


def _squeeze_bit(base: np.ndarray, player: np.ndarray) -> np.ndarray:
    """base with bit ``player`` removed and the higher bits shifted down one."""
    low = base & ((np.int64(1) << player) - 1)
    return ((base >> (player + 1)) << player) | low


def _edge_mask(n: int, edge_player: np.ndarray, edge_slot: np.ndarray) -> np.ndarray:
    """(n, 2**(n-1)) bool: True where the edge (slot, player) is present."""
    mask = np.zeros((n, 1 << max(n - 1, 0)), dtype=bool)
    mask[edge_player, edge_slot] = True
    return mask


def _all_formable(n: int, vertices: np.ndarray, edge_base: np.ndarray,
                  edge_player: np.ndarray) -> bool:
    """True when every vertex can be formed from {} one player at a time.

    Each sweep over the players extends every formation path by at least
    one step, so n sweeps reach the fixpoint.  A True answer implies that
    the graph is connected too.
    """
    present = _edge_mask(n, edge_player, _squeeze_bit(edge_base, edge_player))
    formed = np.zeros(1 << n, dtype=bool)
    formed[0] = True
    for _ in range(n):
        before = int(np.count_nonzero(formed))
        for i in range(n):
            f = formed.reshape(-1, 2, 1 << i)
            f[:, 1] |= f[:, 0] & present[i].reshape(-1, 1 << i)
        if int(np.count_nonzero(formed)) == before:
            break
    return bool(formed[vertices].all())


def _validate(n: int, vertices: np.ndarray, edge_base: np.ndarray,
              edge_player: np.ndarray) -> None:
    full = (1 << n) - 1
    feasible = np.zeros(1 << n, dtype=bool)
    feasible[vertices] = True
    if not feasible[0]:
        raise InfeasibilityError("the empty coalition must be feasible", coalition=0)
    if not feasible[full]:
        raise InfeasibilityError("the grand coalition must be feasible", coalition=full)
    dst = edge_base | (np.int64(1) << edge_player)
    dangling = ~(feasible[edge_base] & feasible[dst])
    if dangling.any():
        k = int(np.argmax(dangling))
        b, d = int(edge_base[k]), int(dst[k])
        bad = d if feasible[b] else b
        raise InfeasibilityError(f"edge endpoint {co.coalition_key(bad)} is infeasible",
                                 coalition=bad)
    if _all_formable(n, vertices, edge_base, edge_player):
        return
    # something fails: the searches below find and name it
    vset = set(vertices.tolist())
    # adjacency over feasible edges only
    adj: dict[int, list[int]] = {v: [] for v in vset}
    up: dict[int, list[int]] = {v: [] for v in vset}
    for b, d in zip(edge_base.tolist(), dst.tolist()):
        adj[b].append(d)
        adj[d].append(b)
        up[b].append(d)
    # undirected connectivity: BFS from {} must reach every feasible vertex
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if seen != vset:
        missing = min(vset - seen)
        raise InfeasibilityError(
            f"graph is disconnected: {co.coalition_key(missing)} cannot be reached "
            f"from the empty coalition", coalition=missing)
    # feasibility: every coalition must be formable by adding players one at
    # a time starting from the empty coalition (upward reachability)
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in up[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if seen != vset:
        missing = min(vset - seen)
        raise InfeasibilityError(
            f"coalition {co.coalition_key(missing)} cannot be formed starting from "
            f"the empty coalition", coalition=missing)


def full_hypercube(n: int, weighting: EdgeWeighting | None = None) -> GameGraph:
    """The complete n-dimensional coalition hypercube."""
    if n < 1:
        raise ValueError("the hypercube graph needs at least one player")
    co.check_player_count(n)
    if weighting is None:
        weighting = EdgeWeighting.constant(1)
    verts = np.arange(1 << n, dtype=np.int64)
    bases = []
    players = []
    for i in range(n):
        free = verts[(verts >> i) & 1 == 0]
        bases.append(free)
        players.append(np.full(len(free), i, dtype=np.int64))
    edge_base = np.concatenate(bases)
    edge_player = np.concatenate(players)
    order = np.lexsort((edge_player, edge_base))
    # full cube is trivially connected; skip validation
    return GameGraph(n, verts, edge_base[order], edge_player[order], weighting)


def restrict(g: GameGraph, removed_vertices: Iterable[co.Coalition] = (),
             removed_edges: Iterable[Edge] = ()) -> GameGraph:
    """Subgraph with the given vertices (plus incident edges) and edges removed."""
    rv = set(int(S) for S in removed_vertices)
    full = (1 << g.n) - 1
    if 0 in rv:
        raise InfeasibilityError("cannot remove the empty coalition", coalition=0)
    if full in rv:
        raise InfeasibilityError("cannot remove the grand coalition", coalition=full)
    for S in rv:
        if not g.contains_vertex(S):
            raise DomainError(f"removed coalition {co.coalition_key(S)} is not in the graph")
    re = set(Edge(int(b), int(p)) for b, p in removed_edges)
    for e in re:
        if (e.base >> e.player) & 1:
            raise DomainError(f"edge base {co.coalition_key(e.base)} already contains "
                              f"player {e.player}")
    removed = np.zeros(1 << g.n, dtype=bool)
    removed[list(rv)] = True
    keep_v = g.vertices[~removed[g.vertices]]
    keep = ~(removed[g.edge_base] | removed[g.edge_dst])
    cut = [e.base * g.n + e.player for e in re
           if 0 <= e.player < g.n and 0 <= e.base < (1 << g.n)]
    if cut:
        keep &= ~np.isin(g.edge_base * g.n + g.edge_player, cut)
    edge_base = g.edge_base[keep]
    edge_player = g.edge_player[keep]
    _validate(g.n, keep_v, edge_base, edge_player)
    return GameGraph(g.n, keep_v, edge_base, edge_player, g.weighting)


def degree_product_weighting(g: GameGraph) -> GameGraph:
    """Reweight every edge by the product of its endpoint degrees."""
    deg = g.degrees
    products = deg[g.edge_src_pos] * deg[g.edge_dst_pos]
    weighting = EdgeWeighting._explicit_arrays(g.edge_base, g.edge_player, products,
                                               np.ones_like(products))
    return GameGraph(g.n, g.vertices, g.edge_base, g.edge_player, weighting)


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
        entries = {}
        for k, item in enumerate(_expect(spec.get("entries", []), "a list", "weights.entries")):
            where = f"weights.entries[{k}]"
            try:
                base, p, w = item["base"], int(item["player"]), item["w"]
            except (KeyError, TypeError, ValueError):
                raise SpecFileError("an explicit weight entry needs 'base', an integer "
                                    "'player' and 'w'", location=where) from None
            S = _coalition_at(base, n, where)
            if not 0 <= p < n:
                raise SpecFileError(f"player {p} outside [0, {n})", location=where)
            if (S >> p) & 1:
                raise SpecFileError(f"edge base {base} already contains player {p}",
                                    location=where)
            entries[Edge(S, p)] = parse_scalar(w, RATIONAL)
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
    removed_edges = []
    for k, item in enumerate(_expect(spec.get("removed_edges", []), "a list", "removed_edges")):
        where = f"removed_edges[{k}]"
        try:
            base, p = item["base"], int(item["player"])
        except (KeyError, TypeError, ValueError):
            raise SpecFileError("removed edge needs 'base' and an integer 'player'",
                                location=where) from None
        removed_edges.append(Edge(_coalition_at(base, n, where), p))
    weighting = None
    if "weights" in spec:
        weighting = weighting_from_spec(spec["weights"], n)
    return removed_vertices, removed_edges, weighting


def load_constraints(path, n: int):
    return constraints_from_spec(read_spec_file(path), n)
