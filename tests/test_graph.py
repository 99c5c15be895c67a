import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import graph as gr
from hodgeshapley.errors import DomainError, InfeasibilityError, SpecFileError
from oracles import edge_positions, edge_weights


def bits(*players):
    return co.from_members(players)


def test_full_hypercube_counts():
    g3 = gr.full_hypercube(3)
    assert g3.num_vertices == 8 and g3.num_edges == 12
    g1 = gr.full_hypercube(1)
    assert g1.num_vertices == 2 and g1.num_edges == 1
    assert gr.full_hypercube(4).num_edges == 32
    for n in range(1, 6):
        g = gr.full_hypercube(n)
        assert g.num_edges == n * 2 ** (n - 1)
        assert all(g.degree(S) == n for S in co.enumerate_coalitions(n))


def test_restrict_remove_vertex():
    g = gr.restrict(gr.full_hypercube(3), [bits(0)])
    assert g.num_vertices == 7
    assert g.num_edges == 9  # a degree-3 vertex takes its three edges with it
    assert not g.contains_vertex(bits(0))


def test_restrict_noop():
    g = gr.full_hypercube(3)
    h = gr.restrict(g)
    assert h.num_vertices == g.num_vertices and h.num_edges == g.num_edges


def test_restrict_isolating_empty_coalition():
    with pytest.raises(InfeasibilityError):
        gr.restrict(gr.full_hypercube(3), [bits(0), bits(1), bits(2)])


def test_restrict_rejects_removing_endpoints():
    g = gr.full_hypercube(3)
    with pytest.raises(InfeasibilityError):
        gr.restrict(g, [0])
    with pytest.raises(InfeasibilityError):
        gr.restrict(g, [bits(0, 1, 2)])


def test_restrict_edge_only_removal_can_break_formability():
    # {0} stays connected through its upper edges but can no longer be
    # formed by starting from the empty coalition
    g = gr.full_hypercube(3)
    with pytest.raises(InfeasibilityError) as err:
        gr.restrict(g, removed_edges=[gr.Edge(0, 0)])
    assert err.value.coalition == bits(0)


def test_restrict_edge_removal_ok():
    # dropping one edge between two interior levels keeps everything formable
    g = gr.restrict(gr.full_hypercube(3), removed_edges=[gr.Edge(bits(0), 1)])
    assert g.num_edges == 11
    assert g.degree(bits(0)) == 2 and g.degree(bits(0, 1)) == 2


def test_restrict_no_dangling_endpoints():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        g = gr.full_hypercube(n)
        candidates = [S for S in co.enumerate_coalitions(n) if S not in (0, (1 << n) - 1)]
        removal = rng.sample(candidates, k=rng.randint(0, len(candidates) // 2))
        try:
            h = gr.restrict(g, removal)
        except InfeasibilityError:
            continue
        feasible = set(h.vertices.tolist())
        for e, d in zip(h.edge_base.tolist(), (h.edge_base | 1 << h.edge_player).tolist()):
            assert e in feasible and d in feasible
        assert 0 in feasible and (1 << n) - 1 in feasible


def test_degree_after_removal():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)])
    assert g.degree(0) == 2
    assert g.degree(bits(0, 1)) == 2
    assert g.degree(bits(0)) == 3
    with pytest.raises(DomainError):
        g.degree(bits(1))


def test_degree_product_full_cube():
    g = gr.degree_product_weighting(gr.full_hypercube(3))
    assert all(w == 9 for w in edge_weights(g))


def test_degree_product_after_removal():
    g = gr.degree_product_weighting(gr.restrict(gr.full_hypercube(3), [bits(1)]))
    k = list(g.edges()).index(gr.Edge(0, 2))  # edge from {} to {2}: degrees 2 and 3
    assert edge_weights(g)[k] == 6
    assert len(set(edge_weights(g))) > 1


def test_weighting_kinds():
    w = gr.EdgeWeighting.constant(Fraction(1, 2))
    assert w.weight(gr.Edge(0, 1)) == Fraction(1, 2)
    t = gr.EdgeWeighting.by_cardinality([1, 2, 3])
    assert t.weight(gr.Edge(0, 0)) == 1
    assert t.weight(gr.Edge(bits(0, 2), 1)) == 3
    e = gr.EdgeWeighting.explicit({gr.Edge(0, 0): Fraction(1, 2)})
    assert e.weight(gr.Edge(0, 0)) == Fraction(1, 2)
    assert e.weight(gr.Edge(0, 1)) == 1  # unlisted entries default to 1
    assert gr.EdgeWeighting.size_plus_one(3).weight(gr.Edge(bits(1), 0)) == 2


def test_weighting_rejects_nonpositive():
    with pytest.raises(ValueError):
        gr.EdgeWeighting.constant(0)
    with pytest.raises(ValueError):
        gr.EdgeWeighting.by_cardinality([1, -1])
    with pytest.raises(ValueError):
        gr.EdgeWeighting.explicit({gr.Edge(0, 0): 0})


def test_permutation_invariance_flag():
    assert gr.EdgeWeighting.constant(2).permutation_invariant
    assert gr.EdgeWeighting.by_cardinality([1, 2, 3]).permutation_invariant
    assert not gr.EdgeWeighting.explicit({gr.Edge(0, 0): 2}).permutation_invariant


def test_explicit_weights_without_entries_are_size_only():
    # one description per constant weighting: the default of every unlisted edge
    empty = gr.EdgeWeighting.explicit({}, default=3)
    assert empty.permutation_invariant
    assert empty.by_size(4) == gr.EdgeWeighting.constant(3).by_size(4) == (Fraction(3),) * 4


def test_constraints_spec():
    spec = {"removed_coalitions": ["[1]"],
            "removed_edges": [{"base": "[]", "player": 0}],
            "weights": {"kind": "by_cardinality", "values": ["1", "2", "3"]}}
    removed_v, removed_e, weighting = gr.constraints_from_spec(spec, 3)
    assert removed_v == [bits(1)]
    assert removed_e == [gr.Edge(0, 0)]
    assert weighting.table == (1, 2, 3)
    spec = {"weights": {"kind": "explicit",
                        "entries": [{"base": "[]", "player": 0, "w": "1/2"}]}}
    _, _, weighting = gr.constraints_from_spec(spec, 3)
    assert weighting.weight(gr.Edge(0, 0)) == Fraction(1, 2)
    assert weighting.weight(gr.Edge(0, 1)) == 1


def test_is_full_cube():
    assert gr.full_hypercube(3).is_full_cube
    assert not gr.restrict(gr.full_hypercube(3), [bits(1)]).is_full_cube


@pytest.mark.parametrize("n, removed_vertices, removed_edges, message, coalition", [
    # disconnected (and unformable): the connectivity error wins
    (3, [bits(0), bits(1), bits(2)], [],
     "graph is disconnected: [0,1] cannot be reached from the empty coalition", bits(0, 1)),
    (3, [bits(0), bits(1)], [gr.Edge(0, 2)],
     "graph is disconnected: [0,1] cannot be reached from the empty coalition", bits(0, 1)),
    (4, [bits(0), bits(1), bits(2)], [gr.Edge(0, 3)],
     "graph is disconnected: [0,1] cannot be reached from the empty coalition", bits(0, 1)),
    # connected but not formable one player at a time
    (3, [], [gr.Edge(0, 0)],
     "coalition [0] cannot be formed starting from the empty coalition", bits(0)),
    (3, [bits(0, 1)], [gr.Edge(0, 0), gr.Edge(0, 1)],
     "coalition [0] cannot be formed starting from the empty coalition", bits(0)),
    (4, [bits(0, 1), bits(0, 2), bits(1, 2)], [],
     "coalition [0,1,2] cannot be formed starting from the empty coalition", bits(0, 1, 2)),
    (4, [], [gr.Edge(bits(0), 1), gr.Edge(bits(1), 0)],
     "coalition [0,1] cannot be formed starting from the empty coalition", bits(0, 1)),
])
def test_restrict_error_precedence(n, removed_vertices, removed_edges, message, coalition):
    with pytest.raises(InfeasibilityError) as err:
        gr.restrict(gr.full_hypercube(n), removed_vertices, removed_edges)
    assert str(err.value) == message
    assert err.value.coalition == coalition


def _gray_code_path_edges(n):
    """The cube edges (base, player) of the reflected Gray-code Hamiltonian path."""
    code = [i ^ (i >> 1) for i in range(1 << n)]
    return {(min(a, b), (a ^ b).bit_length() - 1) for a, b in zip(code, code[1:])}


def _all_edges_but(n, kept):
    return [gr.Edge(b, p) for b in range(1 << n) for p in range(n)
            if not b >> p & 1 and (b, p) not in kept]


def test_restrict_rejects_gray_code_path():
    # connected through all 2**n coalitions, but the path steps down from
    # [0,1] to [1] at its third edge
    n = 8
    with pytest.raises(InfeasibilityError) as err:
        gr.restrict(gr.full_hypercube(n), [], _all_edges_but(n, _gray_code_path_edges(n)))
    assert str(err.value) == "coalition [1] cannot be formed starting from the empty coalition"
    assert err.value.coalition == bits(1)


def test_restrict_names_a_cut_gray_code_path_disconnected():
    # the path without its middle edge: its second half is unreachable
    n = 8
    code = [i ^ (i >> 1) for i in range(1 << n)]
    a, b = code[(1 << n - 1) - 1], code[1 << n - 1]
    kept = _gray_code_path_edges(n) - {(min(a, b), (a ^ b).bit_length() - 1)}
    with pytest.raises(InfeasibilityError) as err:
        gr.restrict(gr.full_hypercube(n), [], _all_edges_but(n, kept))
    S = min(code[1 << n - 1:])
    assert str(err.value) == (f"graph is disconnected: {co.coalition_key(S)} cannot be "
                              f"reached from the empty coalition")
    assert err.value.coalition == S


def _formable_reference(n, vertices, edges):
    """Coalitions reachable from {} by adding one player at a time (a plain loop)."""
    present = set(edges)
    formable = {0}
    for T in sorted(vertices):
        if any(T >> i & 1 and (T & ~(1 << i)) in formable and (T & ~(1 << i), i) in present
               for i in range(n)):
            formable.add(T)
    return formable


def test_restrict_matches_loop_reference():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = gr.full_hypercube(n)
        candidates = [S for S in co.enumerate_coalitions(n) if S not in (0, (1 << n) - 1)]
        removed = rng.sample(candidates, k=rng.randint(0, len(candidates) // 3))
        cut = [e for e in g.edges() if rng.random() < 0.1]
        kept_v = [S for S in range(1 << n) if S not in removed]
        kept_e = [(e.base, e.player) for e in g.edges()
                  if e.base not in removed and e.base | 1 << e.player not in removed
                  and e not in cut]
        formable = _formable_reference(n, kept_v, kept_e)
        try:
            h = gr.restrict(g, removed, cut)
        except InfeasibilityError as err:
            assert formable != set(kept_v)
            assert err.coalition in set(kept_v) - formable or \
                str(err).startswith("graph is disconnected")
            continue
        assert formable == set(kept_v)
        assert h.vertices.tolist() == kept_v
        assert list(zip(h.edge_base.tolist(), h.edge_player.tolist())) == kept_e


def _slot(e):
    """The column of the edge e in the (player, slot) layout: its base without the player's bit."""
    return (e.base >> (e.player + 1)) << e.player | e.base & ((1 << e.player) - 1)


def _weight_graphs():
    explicit = gr.EdgeWeighting.explicit(
        {gr.Edge(0, 0): Fraction(1, 3), gr.Edge(bits(1), 0): Fraction(7, 5),
         gr.Edge(bits(0), 1): 2, gr.Edge(bits(2), 3): Fraction(1, 10)},
        default=Fraction(2, 3))
    weightings = [gr.EdgeWeighting.constant(Fraction(1, 3)),
                  gr.EdgeWeighting.by_cardinality([Fraction(1, 3), 2, Fraction(5, 7), 9]),
                  explicit]
    for w in weightings:
        full = gr.full_hypercube(4, w)
        yield full
        # removes the explicitly weighted edges ({1}, 0) and ({0}, 1) with {0,1}
        yield gr.restrict(full, [bits(0, 1), bits(2, 3)], [gr.Edge(bits(0), 2)])
    yield gr.degree_product_weighting(gr.restrict(gr.full_hypercube(4), [bits(1, 2)]))


def test_player_weights_layout():
    for g in _weight_graphs():
        n = g.n
        assert g.player_weights.shape == (n, 1 << (n - 1))
        expected = np.zeros((n, 1 << (n - 1)))
        for e, w in zip(g.edges(), edge_weights(g)):
            low = e.base & ((1 << e.player) - 1)
            expected[e.player, (e.base >> (e.player + 1)) << e.player | low] = float(w)
        assert np.array_equal(g.player_weights, expected)


def test_integer_weights_are_python_ints_over_one_denominator():
    n = 6
    edges = list(gr.full_hypercube(n).edges())
    rng = random.Random(72)
    weightings = (
        gr.EdgeWeighting.constant(Fraction(5, 2)),
        gr.EdgeWeighting.size_plus_one(n),
        gr.EdgeWeighting.explicit({e: Fraction(rng.randint(1, 12), 4) for e in edges}),
        # scaled by D_w = 10**15 these reach 10**30, past int64
        gr.EdgeWeighting.explicit({e: Fraction(10) ** (15 if (e.base + e.player) % 2 else -15)
                                   for e in edges}),
    )
    for w in weightings:
        full = gr.full_hypercube(n, w)
        for g in (full, gr.restrict(full, [bits(1, 4)])):
            table, scale = g.integer_weights
            assert table.shape == g.edge_mask.shape and type(scale) is int
            # an np.int64 would wrap silently inside object arithmetic
            assert all(type(x) is int for x in table.flat)
            assert all(x == 0 for x in table[~g.edge_mask])
            exact = [g.weighting.weight(e) for e in g.edges()]
            on_edges = [Fraction(table[e.player, _slot(e)], scale) for e in g.edges()]
            assert on_edges == exact == edge_weights(g)
            assert scale == math.lcm(*(f.denominator for f in exact))


def test_degree_product_weighting_unchanged():
    # the numpy products give the same EdgeWeighting as per-edge Fractions
    g = gr.restrict(gr.full_hypercube(4), [bits(1), bits(0, 2, 3)])
    deg, (src, dst) = g.degrees, edge_positions(g)
    expected = gr.EdgeWeighting.explicit(
        {e: Fraction(int(deg[src[k]]) * int(deg[dst[k]]))
         for k, e in enumerate(g.edges())})
    assert gr.degree_product_weighting(g).weighting == expected


def _loop_player_weights(g, fractions):
    """The (n, 2**(n-1)) float table of player_weights, by a plain loop over edges."""
    table = np.zeros((g.n, 1 << (g.n - 1)))
    for e, w in zip(g.edges(), fractions):
        low = e.base & ((1 << e.player) - 1)
        table[e.player, (e.base >> (e.player + 1)) << e.player | low] = float(w)
    return table


def _assert_weights_match(g, expected):
    """g's weights equal expected, a Fraction per edge in edge order, bit for bit."""
    for e, w in zip(g.edges(), expected):
        got = g.weighting.weight(e)
        assert type(got) is Fraction and got == w
    assert edge_weights(g) == list(expected)
    assert all(type(w) is Fraction for w in edge_weights(g))
    floats = np.array([float(w) for w in expected])
    on_edges = np.array([g.player_weights[e.player, _slot(e)] for e in g.edges()])
    assert on_edges.tobytes() == floats.tobytes()
    assert g.player_weights.tobytes() == _loop_player_weights(g, expected).tobytes()


@pytest.mark.parametrize("n", range(3, 8))
def test_degree_product_arrays_match_mapping(n):
    rng = random.Random(n)
    # coalitions of size 2..n-2 at pairwise distance >= 3 keep every other one formable
    removed = [bits(1)] if n == 3 else []
    while n > 3 and len(removed) < n - 3:
        S = rng.randrange(1, (1 << n) - 1)
        if 2 <= co.size(S) <= n - 2 and all(co.distance(S, T) >= 3 for T in removed):
            removed.append(S)
    g = gr.restrict(gr.full_hypercube(n), removed)
    deg, (src, dst) = g.degrees, edge_positions(g)
    mapping = {e: Fraction(int(deg[src[k]]) * int(deg[dst[k]]))
               for k, e in enumerate(g.edges())}
    from_map = gr.GameGraph(n, g.vertex_mask, g.edge_mask,
                            gr.EdgeWeighting.explicit(mapping))
    h = gr.degree_product_weighting(g)
    assert h.weighting == from_map.weighting
    assert h.weighting.numerators.dtype == np.int64
    for graph in (h, from_map):
        _assert_weights_match(graph, list(mapping.values()))


# numerators from 2**53 on: numpy's int64 division would round two of these
# differently from float(Fraction); from 2**63 on: no longer int64
_BIG = [Fraction(2 ** 53 + 1, 7), Fraction(2 ** 53 + 3, 3), Fraction(2 ** 62 + 1, 3),
        Fraction(2 ** 53 + 1, 2 ** 53), Fraction(2 ** 60 + 12345, 10 ** 18 + 7)]
_HUGE = [Fraction(2 ** 63 + 1, 5), Fraction(10 ** 30 + 1, 10 ** 29 + 3), Fraction(3, 2 ** 64)]


@pytest.mark.parametrize("extra, dtype", [(_BIG, np.int64), (_BIG + _HUGE, object)])
def test_explicit_arrays_round_like_fractions(extra, dtype):
    assert any(float(np.int64(w.numerator)) / float(np.int64(w.denominator)) != float(w)
               for w in _BIG)
    full = gr.full_hypercube(5)
    rng = random.Random(len(extra))
    # every edge of the cube is listed, including those restrict removes
    mapping = {e: extra[k % len(extra)] if k % 3 else Fraction(rng.randrange(1, 50),
                                                               rng.randrange(1, 9))
               for k, e in enumerate(full.edges())}
    weighting = gr.EdgeWeighting.explicit(dict(reversed(mapping.items())),
                                          default=Fraction(2, 3))
    assert weighting.numerators.dtype == weighting.denominators.dtype == dtype
    assert weighting == gr.EdgeWeighting.explicit(mapping, default=Fraction(2, 3))
    assert list(zip(weighting.bases.tolist(), weighting.players.tolist())) == sorted(mapping)
    for g in (gr.full_hypercube(5, weighting),
              gr.restrict(gr.full_hypercube(5, weighting), [bits(1, 2)], [gr.Edge(bits(0), 3)])):
        _assert_weights_match(g, [mapping[e] for e in g.edges()])
    # unlisted edges weigh the default
    sparse = gr.EdgeWeighting.explicit({gr.Edge(0, 0): extra[-1]}, default=extra[0])
    _assert_weights_match(gr.full_hypercube(3, sparse),
                          [extra[-1] if e == (0, 0) else extra[0]
                           for e in gr.full_hypercube(3).edges()])


@pytest.mark.parametrize("entries", [
    {gr.Edge(1, 0): 2, gr.Edge(0, -1): 3},   # base {0} already holds player 0
    {gr.Edge(0, -1): 3},
    {gr.Edge(-1, 0): 2},
    {gr.Edge(bits(0, 2), 2): 5},
    {gr.Edge(0, co.PLAYER_CAP): 2},
    {gr.Edge(1 << co.PLAYER_CAP, 0): 2},
])
def test_explicit_rejects_malformed_entries(entries):
    with pytest.raises(ValueError):
        gr.EdgeWeighting.explicit(entries)


@pytest.mark.parametrize("base, player, message", [
    ("[0]", 0, "already contains player 0"),
    ("[]", -1, "player -1 outside"),
    ("[]", 3, "player 3 outside"),
])
def test_weight_spec_rejects_malformed_entries(base, player, message):
    spec = {"kind": "explicit", "entries": [{"base": base, "player": player, "w": "2"}]}
    with pytest.raises(SpecFileError, match=message):
        gr.weighting_from_spec(spec, 3)


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "value": True},
    {"kind": "by_cardinality", "values": ["1", False, "2"]},
    {"kind": "explicit", "entries": [{"base": "[]", "player": 0, "w": True}]},
], ids=["constant", "by-cardinality", "explicit"])
def test_weight_spec_rejects_booleans(spec):
    with pytest.raises(SpecFileError, match="boolean"):
        gr.weighting_from_spec(spec, 3)


def test_negative_and_off_cube_coalitions_raise_domain_errors():
    g = gr.full_hypercube(3)
    for S in (-1, -2, 8):
        with pytest.raises(DomainError):
            g.degree(S)
        with pytest.raises(DomainError):
            gr.restrict(g, [S])


@pytest.mark.parametrize("edge", [gr.Edge(-1, 0), gr.Edge(0, -1), gr.Edge(0, 3),
                                  gr.Edge(8, 0), gr.Edge(bits(0), 0)])
def test_restrict_rejects_edges_outside_the_cube(edge):
    with pytest.raises(DomainError):
        gr.restrict(gr.full_hypercube(3), [], [edge])


@pytest.mark.parametrize("player", [-1, 3, 5])
def test_constraints_spec_rejects_out_of_range_edge_players(player):
    spec = {"removed_edges": [{"base": "[]", "player": 0}, {"base": "[]", "player": player}]}
    with pytest.raises(SpecFileError, match=rf"^removed_edges\[1\]: player {player} outside"):
        gr.constraints_from_spec(spec, 3)


@pytest.mark.parametrize("player", [1.7, 0.9, 1.0, True, "1", None],
                         ids=["1.7", "0.9", "1.0", "true", "string", "null"])
def test_spec_edge_players_must_be_json_integers(player):
    # int() used to read 1.7 and true as player 1 and 0.9 as player 0
    entry = {"base": "[]", "player": player}
    with pytest.raises(SpecFileError, match=r"^removed_edges\[1\]: removed edge needs 'base' "
                                            r"and an integer 'player'$"):
        gr.constraints_from_spec({"removed_edges": [{"base": "[]", "player": 0}, entry]}, 3)
    weights = {"kind": "explicit", "entries": [{**entry, "w": "2"}]}
    with pytest.raises(SpecFileError, match=r"^weights\.entries\[0\]: an explicit weight entry "
                                            r"needs 'base', an integer 'player' and 'w'$"):
        gr.constraints_from_spec({"weights": weights}, 3)


def test_masks_are_the_graph():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)], [gr.Edge(bits(0), 2)])
    assert g.vertex_mask.tolist() == [S != bits(1) for S in range(8)]
    present = {(e.base, e.player) for e in g.edges()}
    for i in range(3):
        for slot in range(4):
            S = (slot >> i) << (i + 1) | slot & ((1 << i) - 1)  # bit i put back, as 0
            assert g.edge_mask[i, slot] == ((S, i) in present)
    assert g.num_edges == len(present) == 12 - 3 - 1
    with pytest.raises(ValueError):
        gr.GameGraph(3, g.vertex_mask, g.edge_mask[:2], g.weighting)


def test_float_decompose_builds_no_edge_arrays():
    from hodgeshapley import game as gm, solve as sv

    n = 6
    g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    v = gm.Game(n, gm.FLOAT, [0.0] + [float(S % 7) for S in range(1, 1 << n)])
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    assert dec.efficiency_gap < 1e-9
    assert "_edges" not in g.__dict__
    assert g.edge_base.tolist() == sorted(g.edge_base.tolist())  # built on first use
    assert "_edges" in g.__dict__
