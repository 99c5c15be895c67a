import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley import graph as gr
from hodgeshapley import operators as ops
from hodgeshapley import solve as sv
from hodgeshapley.errors import DomainError
from oracles import cube_edges, dense_laplacian, edge_positions, edge_weights, \
    random_rational_values


def bits(*players):
    return co.from_members(players)


def vf(g, values):
    return ops.VertexFunction(g, gm.RATIONAL, [Fraction(x) for x in values])


def random_graph(rng, n, weighted=True, restricted=True):
    kind = rng.choice(["constant", "by_cardinality", "explicit"]) if weighted else "constant"
    if kind == "constant":
        weighting = gr.EdgeWeighting.constant(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    elif kind == "by_cardinality":
        weighting = gr.EdgeWeighting.by_cardinality(
            [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)])
    else:
        g0 = gr.full_hypercube(n)
        entries = {e: Fraction(rng.randint(1, 6), rng.randint(1, 4))
                   for e in g0.edges() if rng.random() < 0.4}
        weighting = gr.EdgeWeighting.explicit(entries)
    g = gr.full_hypercube(n, weighting)
    if restricted and rng.random() < 0.5:
        candidates = [S for S in co.enumerate_coalitions(n) if S not in (0, (1 << n) - 1)]
        rng.shuffle(candidates)
        for S in candidates[:rng.randint(0, max(1, len(candidates) // 3))]:
            try:
                g = gr.restrict(g, [S])
            except (gr.InfeasibilityError, Exception):
                pass
    return g


def random_vertex_function(rng, g):
    return vf(g, [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                  for _ in range(g.num_vertices)])


def random_edge_function(rng, g):
    return ops.EdgeFunction(g, gm.RATIONAL,
                            [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                             for _ in range(g.num_edges)])


def test_d_of_constant_is_zero():
    g = gr.full_hypercube(3)
    assert ops.d(vf(g, [7] * 8)).is_zero()


def test_d_of_glove_edge_value():
    g = gr.full_hypercube(3)
    u = ops.vertex_function_from_game(g, gm.make_glove_game())
    dv = ops.d(u)
    assert dv.value_at(gr.Edge(bits(2), 0)) == 1  # v({0,2}) - v({2})


def test_d_of_grand_indicator():
    g = gr.full_hypercube(3)
    grand = bits(0, 1, 2)
    u = vf(g, [1 if S == grand else 0 for S in range(8)])
    dv = ops.d(u)
    for e, val in zip(g.edges(), dv.values):
        expected = 1 if (e.base | (1 << e.player)) == grand else 0
        assert val == expected


def test_partial_gradients_sum_to_gradient():
    rng = random.Random(4)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 4))
        u = random_vertex_function(rng, g)
        total = [Fraction(0)] * g.num_edges
        for i in range(g.n):
            for k, x in enumerate(ops.d_i(i, u).values):
                total[k] += x
        assert total == list(ops.d(u).values)


def test_d_i_of_glove():
    g = gr.full_hypercube(3)
    u = ops.vertex_function_from_game(g, gm.make_glove_game())
    d0 = ops.d_i(0, u)
    assert d0.value_at(gr.Edge(bits(1), 0)) == 1   # player 0 joins {1}
    assert d0.value_at(gr.Edge(bits(0), 1)) == 0   # a player-1 edge
    assert ops.d_i(1, vf(g, [3] * 8)).is_zero()


def test_d_star_single_edge():
    g = gr.full_hypercube(1)
    f = ops.EdgeFunction(g, gm.RATIONAL, [Fraction(1)])
    y = ops.d_star(f)
    assert y.value_at(0) == -1
    assert y.value_at(1) == 1


def test_adjointness_exact():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        u = random_vertex_function(rng, g)
        f = random_edge_function(rng, g)
        du = ops.d(u)
        lhs = ops.edge_inner_product(du, f)
        rhs = sum((a * b for a, b in zip(u.values, ops.d_star(f).values)), Fraction(0))
        assert lhs == rhs


def test_d_star_annihilates_gradient_of_constant():
    g = gr.full_hypercube(3, gr.EdgeWeighting.by_cardinality([1, 2, 3]))
    f = ops.d(vf(g, [5] * 8))
    assert all(x == 0 for x in ops.d_star(f).values)


def test_laplacian_of_indicator():
    g = gr.full_hypercube(3)
    u = vf(g, [1] + [0] * 7)
    Lu = ops.laplacian_apply(u)
    assert Lu.value_at(0) == 3
    for j in range(3):
        assert Lu.value_at(1 << j) == -1
    assert Lu.value_at(bits(0, 1)) == 0
    assert Lu.total() == 0


def test_laplacian_total_always_zero():
    rng = random.Random(6)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        u = random_vertex_function(rng, g)
        assert ops.laplacian_apply(u).total() == 0


def test_laplacian_of_constant_is_zero():
    g = gr.full_hypercube(4, gr.EdgeWeighting.constant(Fraction(2, 3)))
    Lu = ops.laplacian_apply(vf(g, [9] * 16))
    assert all(x == 0 for x in Lu.values)


def test_player_laplacians_sum():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 4))
        u = random_vertex_function(rng, g)
        total = [Fraction(0)] * g.num_vertices
        for i in range(g.n):
            for k, x in enumerate(ops.laplacian_i_apply(i, u).values):
                total[k] += x
        assert total == list(ops.laplacian_apply(u).values)


def test_player_laplacian_antisymmetry_on_full_cube():
    # on the unweighted cube, (L_i v)(T | {i}) = -(L_i v)(T)
    rng = random.Random(8)
    g = gr.full_hypercube(4)
    u = random_vertex_function(rng, g)
    for i in range(4):
        Li = ops.laplacian_i_apply(i, u)
        for T in co.enumerate_coalitions(4):
            if not T & (1 << i):
                assert Li.value_at(T | (1 << i)) == -Li.value_at(T)
        assert all(x == 0 for x in ops.laplacian_i_apply(i, vf(g, [2] * 16)).values)


def test_edge_inner_product_properties():
    rng = random.Random(9)
    g = gr.full_hypercube(3, gr.EdgeWeighting.constant(Fraction(5, 2)))
    f = random_edge_function(rng, g)
    h = random_edge_function(rng, g)
    assert ops.edge_inner_product(f, f) > 0
    zero = ops.EdgeFunction(g, gm.RATIONAL, [Fraction(0)] * g.num_edges)
    assert ops.edge_inner_product(zero, zero) == 0
    unweighted = sum((a * b for a, b in zip(f.values, h.values)), Fraction(0))
    assert ops.edge_inner_product(f, h) == Fraction(5, 2) * unweighted


def test_inner_product_laplacian_identity():
    rng = random.Random(10)
    for _ in range(10):
        g = random_graph(rng, 3)
        u = random_vertex_function(rng, g)
        w = random_vertex_function(rng, g)
        lhs = ops.edge_inner_product(ops.d(u), ops.d(w))
        rhs = sum((a * b for a, b in zip(u.values, ops.laplacian_apply(w).values)),
                  Fraction(0))
        assert lhs == rhs


def test_graph_mismatch_rejected():
    g1 = gr.full_hypercube(2)
    g2 = gr.full_hypercube(2)
    f1 = ops.EdgeFunction(g1, gm.RATIONAL, [Fraction(1)] * g1.num_edges)
    f2 = ops.EdgeFunction(g2, gm.RATIONAL, [Fraction(1)] * g2.num_edges)
    with pytest.raises(Exception):
        ops.edge_inner_product(f1, f2)


def test_matrix_free_matches_dense_assembly():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(4):
            g = random_graph(rng, n)
            edges = [(e.base, e.player) for e in g.edges()]
            feasible, L = dense_laplacian(n, g.vertices.tolist(), edges,
                                          edge_weights(g))
            u = random_vertex_function(rng, g)
            dense = [sum((L[r][c] * u.values[c] for c in range(len(feasible))),
                         Fraction(0)) for r in range(len(feasible))]
            assert dense == list(ops.laplacian_apply(u).values)
            # symmetry and positive semidefiniteness of the dense matrix
            m = len(feasible)
            assert all(L[r][c] == L[c][r] for r in range(m) for c in range(m))
            quad = sum((u.values[r] * dense[r] for r in range(m)), Fraction(0))
            assert quad >= 0


def test_float_operators_match_rational():
    rng = random.Random(12)
    for _ in range(8):
        g = random_graph(rng, 3)
        vals = random_rational_values(rng, 3)
        u_rat = ops.VertexFunction(g, gm.RATIONAL,
                                   [vals[S] for S in g.vertices.tolist()])
        u_f = ops.VertexFunction(g, gm.FLOAT,
                                 np.array([float(vals[S]) for S in g.vertices.tolist()]))
        rat = [float(x) for x in ops.laplacian_apply(u_rat).values]
        flt = np.asarray(ops.laplacian_apply(u_f).values)
        assert np.allclose(rat, flt, atol=1e-10)


def test_kernel_is_one_dimensional():
    # numerically: the second-smallest eigenvalue of the dense Laplacian is
    # positive on every connected graph we build
    rng = random.Random(13)
    for _ in range(6):
        g = random_graph(rng, 3)
        edges = [(e.base, e.player) for e in g.edges()]
        _, L = dense_laplacian(3, g.vertices.tolist(), edges, edge_weights(g))
        arr = np.array([[float(x) for x in row] for row in L])
        eig = np.linalg.eigvalsh(arr)
        assert eig[0] < 1e-9
        assert eig[1] > 1e-9


def test_vertex_function_from_game_checks_players():
    g = gr.full_hypercube(3)
    with pytest.raises(Exception):
        ops.vertex_function_from_game(g, gm.make_pure_bargaining_game(2, 1))


# ---------------------------------------------------------------------------
# one implementation per operator: both modes against per-mode reference
# formulas (list loops over fractions, the float formulas with bincount)
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return a.dtype == np.float64 and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fractions(values):
    return (isinstance(values, np.ndarray) and values.dtype == object
            and all(type(x) is Fraction for x in values))


def _random_pair(rng, g):
    """The same vertex and edge functions in rational and in float mode;
    the vertex function vanishes on the empty coalition, like a game."""
    u = vf(g, [0] + [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                     for _ in range(g.num_vertices - 1)])
    f = random_edge_function(rng, g)
    u_f = ops.VertexFunction(g, gm.FLOAT, np.array([float(x) for x in u.values]))
    f_f = ops.EdgeFunction(g, gm.FLOAT, np.array([float(x) for x in f.values]))
    return u, f, u_f, f_f


def _without_an_edge(rng, n):
    """A weighted full cube less one edge between two feasible coalitions,
    which random_graph never removes; the edge's top keeps another way in."""
    g = random_graph(rng, n, restricted=False)
    return gr.restrict(g, [], [rng.choice([e for e in g.edges() if e.base])])


def _reference_graphs(rng, most):
    """random_graph's graphs on 2..most players, graphs less an edge, and n = 1."""
    for _ in range(12):
        yield random_graph(rng, rng.randint(2, most))
    for n in range(2, most + 1):
        yield _without_an_edge(rng, n)
    yield random_graph(rng, 1)


def test_float_operators_bit_identical_to_reference_formulas():
    rng = random.Random(14)
    for g in _reference_graphs(rng, 6):
        _, _, u, f = _random_pair(rng, g)
        _, _, _, h = _random_pair(rng, g)
        (src, dst), w = edge_positions(g), np.array([float(x) for x in edge_weights(g)])
        diff = u.values[dst] - u.values[src]
        assert _same_bits(ops.d(u).values, diff)
        for i in range(g.n):
            assert _same_bits(ops.d_i(i, u).values, np.where(g.edge_player == i, diff, 0.0))
        wf = w * f.values
        expected = (np.bincount(dst, weights=wf, minlength=g.num_vertices)
                    - np.bincount(src, weights=wf, minlength=g.num_vertices))
        assert _same_bits(ops.d_star(f).values, expected)
        assert _same_bits(ops.edge_difference(f, h).values, f.values - h.values)
        ip = ops.edge_inner_product(f, h)
        assert type(ip) is float and ip == float(np.dot(wf, h.values))
        norm, total = u.norm_inf(), u.total()
        assert type(norm) is float and norm == float(np.max(np.abs(u.values)))
        assert type(total) is float and total == float(np.sum(u.values))
        assert not f.is_zero() and ops.EdgeFunction(g, gm.FLOAT, 0 * f.values).is_zero()
        v = ops.game_from_vertex_function(u)
        padded = np.zeros(1 << g.n)
        padded[g.vertices] = u.values
        assert _same_bits(np.asarray(v.values), padded)
        assert _same_bits(ops.vertex_function_from_game(g, v).values, u.values)


def test_rational_operators_are_fraction_arrays_equal_to_list_formulas():
    rng = random.Random(15)
    for g in _reference_graphs(rng, 5):
        u, f, _, _ = _random_pair(rng, g)
        h = random_edge_function(rng, g)
        src, dst = (side.tolist() for side in edge_positions(g))
        players, weights = g.edge_player.tolist(), edge_weights(g)
        uv, fv, hv = list(u.values), list(f.values), list(h.values)
        results = {"d": (ops.d(u).values, [uv[t] - uv[s] for s, t in zip(src, dst)])}
        for i in range(g.n):
            results[f"d_{i}"] = (ops.d_i(i, u).values,
                                 [uv[t] - uv[s] if p == i else Fraction(0)
                                  for s, t, p in zip(src, dst, players)])
        star = [Fraction(0)] * g.num_vertices
        for k, wk in enumerate(weights):
            star[dst[k]] += wk * fv[k]
            star[src[k]] -= wk * fv[k]
        results["d_star"] = (ops.d_star(f).values, star)
        results["difference"] = (ops.edge_difference(f, h).values,
                                 [x - y for x, y in zip(fv, hv)])
        v = ops.game_from_vertex_function(u)
        results["from_game"] = (ops.vertex_function_from_game(g, v).values, uv)
        for name, (got, expected) in results.items():
            assert _fractions(got), name
            assert list(got) == expected, name
        ip = ops.edge_inner_product(f, h)
        assert type(ip) is Fraction
        assert ip == sum((wk * x * y for wk, x, y in zip(weights, fv, hv)), Fraction(0))
        assert type(u.norm_inf()) is Fraction and u.norm_inf() == max(abs(x) for x in uv)
        assert type(u.total()) is Fraction and u.total() == sum(uv, Fraction(0))
        padded = [Fraction(0)] * (1 << g.n)
        for S, x in zip(g.vertices.tolist(), uv):
            padded[S] = x
        assert v.values == tuple(padded)
        # the half-view residual check and the operators agree exactly, on
        # components that do not split v, so the residuals are not all 0
        dec = sv.decompose(g, v)
        guesses = tuple(ops.game_from_vertex_function(_random_pair(rng, g)[0])
                        for _ in range(g.n))
        for d in (dec, dataclasses.replace(dec, components=guesses)):
            residuals = sv.residual_orthogonality(g, v, d)
            assert residuals == [ops.d_star(sv.edge_residual(g, v, d, i)).norm_inf()
                                 for i in range(g.n)]
        assert any(residuals)


@pytest.mark.parametrize("edge", [(0, 3), (0, 9), (0, -1), (1, 0), (5, 2), (8, 0), (-1, 0),
                                  (-8, 1)])
def test_edge_value_at_rejects_malformed_edges(edge):
    # on 3 players: a player >= n or negative, a base that holds the player,
    # a base >= 2**n or negative; a wrapped or masked index must not answer
    g = gr.full_hypercube(3)
    f = ops.EdgeFunction(g, gm.RATIONAL, [Fraction(k) for k in range(g.num_edges)])
    assert f.value_at(gr.Edge(0b100, 0)) == list(g.edges()).index((0b100, 0))
    with pytest.raises(DomainError, match="is not a feasible edge"):
        f.value_at(edge)


def test_vertex_value_at_rejects_coalitions_off_the_graph():
    from hodgeshapley.errors import DomainError

    v = gm.make_glove_game()
    u = ops.vertex_function_from_game(gr.full_hypercube(v.n), v)
    assert u.value_at((1 << v.n) - 1) == 1
    # -1 used to wrap around to the grand coalition's value
    for S in (-1, 1 << v.n):
        with pytest.raises(DomainError):
            u.value_at(S)
    holdout = ops.vertex_function_from_game(gr.restrict(gr.full_hypercube(v.n), [bits(1)]), v)
    with pytest.raises(DomainError, match=r"coalition \[1\] is not a feasible vertex"):
        holdout.value_at(bits(1))
