import random
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from hodgeshapley import closed_form as cf
from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley import graph as gr
from hodgeshapley import solve as sv
from hodgeshapley.errors import CapacityError, DomainError
from oracles import brute_shapley, dense_laplacian, edge_weights, feasible_orders, \
    order_average, random_rational_values


def bits(*players):
    return co.from_members(players)


def rational_game(rng, n):
    return gm.game_from_values(n, random_rational_values(rng, n))


def test_shapley_direct_glove():
    v = gm.make_glove_game()
    assert cf.shapley_direct(v, 0) == Fraction(2, 3)
    assert cf.shapley_direct(v, 1) == Fraction(1, 6)
    assert cf.shapley_direct(v, 2) == Fraction(1, 6)


def test_shapley_direct_inessential():
    v = gm.make_inessential_game([3, -2, Fraction(1, 2)])
    for i in range(3):
        assert cf.shapley_direct(v, i) == v.value(1 << i)


def test_shapley_direct_matches_brute_force():
    rng = random.Random(40)
    for _ in range(10):
        n = rng.randint(1, 5)
        v = rational_game(rng, n)
        for i in range(n):
            assert cf.shapley_direct(v, i) == brute_shapley(v.values, n, i)


def test_permutation_oracle_glove():
    v = gm.make_glove_game()
    assert cf.shapley_permutation_oracle(v, 0) == Fraction(2, 3)


def test_permutation_oracle_equals_direct():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.randint(1, 6)
        v = rational_game(rng, n)
        for i in range(n):
            assert cf.shapley_permutation_oracle(v, i) == cf.shapley_direct(v, i)


def test_permutation_oracle_single_player():
    v = gm.game_from_values(1, [0, Fraction(7, 3)])
    assert cf.shapley_permutation_oracle(v, 0) == Fraction(7, 3)


def test_permutation_oracle_capacity_guard():
    v = gm.game_from_values(11, [0] * (1 << 11))
    with pytest.raises(CapacityError):
        cf.shapley_permutation_oracle(v, 0)


def test_precedence_oracle_holdout():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)])
    v = gm.make_glove_game()
    assert cf.feasible_permutations(g) == [(0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0)]
    values = tuple(cf.precedence_shapley_oracle(g, v, i) for i in range(3))
    assert values == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_precedence_oracle_full_cube_equals_direct():
    rng = random.Random(42)
    g = gr.full_hypercube(4)
    v = rational_game(rng, 4)
    for i in range(4):
        assert cf.precedence_shapley_oracle(g, v, i) == cf.shapley_direct(v, i)


def test_precedence_differs_from_components_on_restricted_graph():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)])
    dec = sv.decompose(g, gm.make_glove_game())
    assert dec.allocation() == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    prec = tuple(cf.precedence_shapley_oracle(g, gm.make_glove_game(), i)
                 for i in range(3))
    assert prec != dec.allocation()


def test_component_explicit_on_a_float_game():
    # promoted exactly, solved in rationals, rounded back once
    rng = random.Random(45)
    v = rational_game(rng, 4)
    for i in range(4):
        got = cf.component_explicit(v.as_float(), i, gr.full_hypercube(4))
        assert got.mode == gm.FLOAT
        assert got.values.tolist() == [float(x) for x in
                                       cf.component_explicit(v.as_float().as_rational(), i).values]


def test_order_walk_matches_per_player_enumeration():
    # each float player's marginals are summed in the order of the orders,
    # so every value is bit for bit that of a walk for the player alone
    for n in range(1, 8):
        rng = random.Random(44 + n)
        cube = gr.full_hypercube(n)
        graphs = [cube, gr.restrict(cube, [bits(1), bits(0, 2)][:n - 1])]
        if n >= 2:
            graphs.append(gr.restrict(cube, [], [gr.Edge(bits(0), 1)]))
        rational = rational_game(rng, n)
        floating = gm.game_from_values(n, [0.0] + [rng.uniform(-9, 9) for _ in range(1, 1 << n)],
                                       gm.FLOAT)
        for g in graphs:
            orders = feasible_orders(n, set(g.edges()))
            assert cf.feasible_permutations(g) == orders
            for v in (rational, floating):
                values = cf.precedence_shapley_values(g, v)
                assert values == tuple(order_average(v.values, orders, i) for i in range(n))
                # each oracle reads one player off the same walk
                i = rng.randrange(n)
                assert cf.precedence_shapley_oracle(g, v, i) == values[i]
                if g is cube:
                    assert cf.shapley_permutation_oracle(v, i) == values[i]


def test_order_walk_refuses_past_the_cap_before_any_work(monkeypatch):
    g = gr.full_hypercube(11)
    v = gm.game_from_values(11, [0] * (1 << 11))
    monkeypatch.setattr(cf, "_over_common_denominator", None)  # not reached
    with pytest.raises(CapacityError, match="n <= 10"):
        cf.precedence_shapley_values(g, v)
    with pytest.raises(CapacityError, match="n <= 10"):
        cf.feasible_permutations(g)


def test_binomial_tables():
    for n in range(25):
        assert cf._binomial_prefixes(n) == tuple(sum(comb(n, j) for j in range(k + 1))
                                                 for k in range(n + 1))
        assert cf._binomial_tails(n) == tuple(sum(comb(n, j) for j in range(k + 1, n + 1))
                                              for k in range(n + 1))


def test_greens_kernel_inverts_laplacian():
    rng = random.Random(43)
    for n in range(1, 6):
        K = cf.greens_kernel(n)
        size = 1 << n
        y = [Fraction(rng.randint(-10, 10), rng.randint(1, 5)) for _ in range(size)]
        mean = sum(y, Fraction(0)) / size
        y = [a - mean for a in y]
        u = K.apply(y)
        edges = [(S, i) for S in range(size) for i in range(n) if not (S >> i) & 1]
        _, L = dense_laplacian(n, range(size), edges, [1] * len(edges))
        for S in range(size):
            assert sum((L[S][T] * u[T] for T in range(size)), Fraction(0)) == y[S]


def test_greens_kernel_difference_identity():
    for n in (2, 3, 4):
        K = cf.greens_kernel(n)
        i = n - 1
        for S in range(1 << n):
            for T in range(1 << n):
                if (S >> i) & 1 or (T >> i) & 1:
                    continue
                k = co.distance(S, T)
                assert (K.value(S, T | (1 << i)) - K.value(S, T)
                        == cf.kernel_difference(n, k))


def test_greens_kernel_depends_on_distance_only():
    K = cf.greens_kernel(3)
    for S in range(8):
        for T in range(8):
            assert K.value(S, T) == K.by_distance[co.distance(S, T)]
            assert K.value(S, T) == K.value(T, S)


def test_greens_kernel_positive_definite_on_mean_zero():
    for n in (2, 3, 4):
        K = cf.greens_kernel(n)
        size = 1 << n
        dense = np.array([[float(K.value(S, T)) for T in range(size)] for S in range(size)])
        # restrict to the mean-zero subspace via an orthonormal basis
        basis = np.linalg.svd(np.eye(size) - np.full((size, size), 1.0 / size))[0][:, :-1]
        eig = np.linalg.eigvalsh(basis.T @ dense @ basis)
        assert eig.min() > 0


def test_component_explicit_glove():
    v = gm.make_glove_game()
    comp = cf.component_explicit(v, 0)
    assert comp.value(bits(0)) == Fraction(5, 12)
    assert comp.value(bits(1, 2)) == Fraction(-1, 4)
    assert comp.grand_value() == Fraction(2, 3)


def test_component_explicit_equals_solver():
    rng = random.Random(44)
    g = gr.full_hypercube(3)
    for _ in range(5):
        v = rational_game(rng, 3)
        for i in range(3):
            assert cf.component_explicit(v, i).values == \
                sv.solve_component(g, v, i).values


def test_component_explicit_grand_value_is_direct_formula():
    rng = random.Random(45)
    for n in (2, 3, 4):
        v = rational_game(rng, n)
        for i in range(n):
            assert cf.component_explicit(v, i).grand_value() == cf.shapley_direct(v, i)


def test_component_explicit_antisymmetry():
    # v_i(S) + v_i(S | {i}) is a constant shift: the underlying solution is
    # antisymmetric across player i's direction
    rng = random.Random(46)
    n = 4
    v = rational_game(rng, n)
    for i in range(n):
        comp = cf.component_explicit(v, i)
        shift = comp.value(0) + comp.value(1 << i)
        for S in co.enumerate_coalitions(n):
            if not S & (1 << i):
                assert comp.value(S) + comp.value(S | (1 << i)) == shift


def test_component_explicit_domain_guard():
    v = gm.make_glove_game()
    weighted = gr.full_hypercube(3, gr.EdgeWeighting.size_plus_one(3))
    with pytest.raises(DomainError):
        cf.component_explicit(v, 0, graph=weighted)
    restricted = gr.restrict(gr.full_hypercube(3), [bits(1)])
    with pytest.raises(DomainError):
        cf.component_explicit(v, 0, graph=restricted)
    ok = gr.full_hypercube(3)
    assert cf.component_explicit(v, 0, graph=ok).grand_value() == Fraction(2, 3)
    # any weighting that gives every edge the same value is the constant cube
    for w in (gr.EdgeWeighting.by_cardinality([1, 1, 1]), gr.EdgeWeighting.explicit({}, 1)):
        g = gr.full_hypercube(3, w)
        for i in range(3):
            assert cf.component_explicit(v, i, graph=g).values == \
                sv.solve_component(g, v, i).values
    with pytest.raises(DomainError):
        cf.component_explicit(v, 0, graph=gr.full_hypercube(3, gr.EdgeWeighting.by_cardinality(
            [1, 1, 2])))


def test_pure_bargaining_component_values():
    n = 3
    for i in range(n):
        assert cf.pure_bargaining_component(n, Fraction(1), i, bits(0, 1, 2)) == Fraction(1, 3)
        assert cf.pure_bargaining_component(n, Fraction(1), i, 0) == 0


def test_pure_bargaining_matches_solver():
    for n in (3, 4):
        total = Fraction(5, 3)
        v = gm.make_pure_bargaining_game(n, total)
        g = gr.full_hypercube(n)
        for i in range(n):
            comp = sv.solve_component(g, v, i)
            for S in co.enumerate_coalitions(n):
                assert cf.pure_bargaining_component(n, total, i, S) == comp.value(S)


def test_shapley_coefficient_route():
    for n in range(1, 13):
        for s in range(n):
            expected = Fraction(factorial(s) * factorial(n - 1 - s), factorial(n))
            for i in {0, s, n - 1}:
                assert cf.verify_shapley_coefficient(n, s, i) == expected


def test_shapley_coefficient_past_the_lifting_cap():
    # the unit game's component solves on the spectral engine, which has no
    # player cap; the lifting stops at 4096 unknowns, and n = 13 has 8191
    for n, s, i in ((13, 0, 0), (13, 6, 12), (13, 12, 5), (16, 8, 3), (16, 15, 15)):
        expected = Fraction(factorial(s) * factorial(n - 1 - s), factorial(n))
        assert cf.verify_shapley_coefficient(n, s, i) == expected


def test_shapley_coefficient_at_17_players():
    # one component at n = 17 lifts from float solves of L_1^+ in under a
    # second; an exact engine capped at n = 16 refused it
    for s, i in ((0, 3), (8, 16), (16, 5)):
        expected = Fraction(factorial(s) * factorial(16 - s), factorial(17))
        assert cf.verify_shapley_coefficient(17, s, i) == expected


def test_unit_game_component_solves_the_single_edge_system():
    # player i's component u of the unit game on T = S|{i} solves L u = d* chi,
    # chi the unit edge function on (S, T), with u({}) = 0; d* chi is
    # w(S, T) (e_T - e_S) for the Laplacian L = D - A
    for n in range(2, 6):
        for g in (gr.full_hypercube(n), gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
                  gr.restrict(gr.full_hypercube(n), [bits(1), bits(0, 2)][:n - 1])):
            edges = list(g.edges())
            weights = dict(zip(edges, edge_weights(g)))
            feasible, L = dense_laplacian(n, g.vertices.tolist(), edges, edge_weights(g))
            L = [[(k, a) for k, a in enumerate(row) if a] for row in L]
            for T in feasible[1:]:
                dec = sv.decompose(g, gm.game_from_map(n, {T: Fraction(1)}))
                for i in co.members(T):
                    S = T & ~(1 << i)
                    if (S, i) not in weights:
                        continue
                    u = [dec.components[i].value(V) for V in feasible]
                    w = weights[(S, i)]
                    assert u[0] == 0
                    assert [sum(a * u[k] for k, a in row) for row in L] == \
                        [w * (V == T) - w * (V == S) for V in feasible]


def test_shapley_coefficient_independent_of_edge():
    n, s = 4, 2
    values = {cf.verify_shapley_coefficient(n, s, i) for i in range(n)}
    assert len(values) == 1


def test_shapley_coefficient_domain_guards():
    with pytest.raises(DomainError):
        cf.verify_shapley_coefficient(3, 3, 0)
    with pytest.raises(DomainError):
        cf.verify_shapley_coefficient(3, 1, 5)


def test_spectral_engine_equals_component_explicit():
    rng = random.Random(49)
    for n in range(1, 7):
        g = gr.full_hypercube(n, gr.EdgeWeighting.constant(Fraction(7, 3)))
        v = rational_game(rng, n)
        dec = sv.decompose(g, v)
        assert dec.diagnostics[0].backend == sv.SPECTRAL
        for i in range(n):
            assert dec.components[i].values == cf.component_explicit(v, i, g).values
