import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley import graph as gr
from hodgeshapley import operators as ops
from hodgeshapley import solve as sv
from hodgeshapley import _exact
from hodgeshapley import closed_form
from hodgeshapley.reference_tables import ALL_REFERENCES
from hodgeshapley.errors import CapacityError, ConfigError, ConvergenceError, \
    InfeasibilityError
from oracles import dense_laplacian, edge_weights, lstsq_component, modular_inverse, \
    random_rational_values, random_dyadic_values
from test_operators import random_graph


def bits(*players):
    return co.from_members(players)


def rational_game(rng, n, **kw):
    return gm.game_from_values(n, random_rational_values(rng, n, **kw))


def test_component_matches_reference_plain_values():
    g = gr.full_hypercube(3)
    v = gm.make_glove_game()
    comp = sv.solve_component(g, v, 0)
    assert comp.value(bits(0)) == Fraction(5, 12)
    assert comp.value(bits(0, 1)) == Fraction(5, 8)
    assert comp.grand_value() == Fraction(2, 3)


def test_component_matches_reference_weighted_values():
    g = gr.full_hypercube(3, gr.EdgeWeighting.size_plus_one(3))
    comp = sv.solve_component(g, gm.make_glove_game(), 0)
    assert comp.value(bits(0)) == Fraction(16, 31)
    assert comp.grand_value() == Fraction(2, 3)


def test_component_of_inessential_game():
    g = gr.full_hypercube(3)
    v = gm.make_inessential_game([1, 2, 3])
    for i in range(3):
        comp = sv.solve_component(g, v, i)
        for S in co.enumerate_coalitions(3):
            expected = v.value(1 << i) if S & (1 << i) else 0
            assert comp.value(S) == expected


def test_decompose_grand_values_weighted_asymmetric():
    weighting = gr.EdgeWeighting.explicit({gr.Edge(0, 0): Fraction(1, 2)})
    dec = sv.decompose(gr.full_hypercube(3, weighting), gm.make_glove_game())
    assert dec.allocation() == (Fraction(13, 17), Fraction(2, 17), Fraction(2, 17))


def test_decompose_grand_values_restricted():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)])
    dec = sv.decompose(g, gm.make_glove_game())
    assert dec.allocation() == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def test_decompose_matches_least_squares_oracle():
    rng = random.Random(20)
    for _ in range(12):
        n = rng.randint(2, 4)
        g = random_graph(rng, n)
        v = rational_game(rng, n)
        dec = sv.decompose(g, v)
        edges = [(e.base, e.player) for e in g.edges()]
        weights = [float(w) for w in edge_weights(g)]
        values = [float(x) for x in v.values]
        for i in range(n):
            expected = lstsq_component(n, g.vertices.tolist(), edges, weights, values, i)
            for S, x in expected.items():
                assert abs(float(dec.components[i].value(S)) - x) < 1e-8


def test_efficiency_exact():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        v = rational_game(rng, n)
        dec = sv.decompose(g, v)
        assert dec.efficiency_gap == 0
        for S in g.vertices.tolist():
            assert sum(c.value(S) for c in dec.components) == v.value(S)


def test_null_player_component_vanishes():
    rng = random.Random(22)
    for _ in range(8):
        n = rng.randint(2, 4)
        g = random_graph(rng, n)
        i = rng.randrange(n)
        # a game that never depends on player i has i contributing zero
        # marginal value on every edge
        base = random_rational_values(rng, n)
        vals = [base[S & ~(1 << i)] for S in co.enumerate_coalitions(n)]
        v = gm.game_from_values(n, vals)
        dec = sv.decompose(g, v)
        assert all(x == 0 for x in dec.components[i].values)


def test_holdout_makes_other_players_null():
    # removing the {player 0} vertex from the glove cube leaves players 1, 2
    # with no marginal value anywhere, so player 0's component is the game
    g = gr.restrict(gr.full_hypercube(3), [bits(0)])
    v = gm.make_glove_game()
    dec = sv.decompose(g, v)
    for S in g.vertices.tolist():
        assert dec.components[0].value(S) == v.value(S)
    assert all(x == 0 for x in dec.components[1].values)
    assert all(x == 0 for x in dec.components[2].values)


def test_linearity():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        v1 = rational_game(rng, n)
        v2 = rational_game(rng, n)
        a1 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        a2 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        dec1 = sv.decompose(g, v1)
        dec2 = sv.decompose(g, v2)
        dec = sv.decompose(g, gm.linear_combine(a1, v1, a2, v2))
        for i in range(n):
            combined = gm.linear_combine(a1, dec1.components[i], a2, dec2.components[i])
            assert dec.components[i].values == combined.values


def _permuted_setup(g, v, sigma):
    """Graph carrying sigma-pulled-back weights/vertices, and the game sigma* v."""
    n = g.n
    removed = [S for S in co.enumerate_coalitions(n)
               if not g.contains_vertex(co.apply_permutation(sigma, S))]
    if g.weighting.kind == gr.EXPLICIT:
        entries = {}
        for e in g.edges():
            pre_base = co.apply_permutation(_inverse(sigma), e.base)
            pre_player = _inverse(sigma)[e.player]
            entries[gr.Edge(pre_base, pre_player)] = g.weighting.weight(e)
        weighting = gr.EdgeWeighting.explicit(entries, g.weighting.default)
    else:
        weighting = g.weighting  # constant / by-cardinality weights are symmetric
    g2 = gr.full_hypercube(n, weighting)
    if removed:
        g2 = gr.restrict(g2, removed)
    return g2, gm.pullback(sigma, v)


def _inverse(sigma):
    inv = [0] * len(sigma)
    for j, s in enumerate(sigma):
        inv[s] = j
    return inv


def test_equivariance_all_permutations():
    import itertools
    rng = random.Random(24)
    n = 3
    g0 = gr.full_hypercube(n)
    entries = {e: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for e in g0.edges()}
    for g in (g0,
              gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries)),
              gr.restrict(gr.full_hypercube(n), [bits(1)])):
        v = rational_game(rng, n)
        dec = sv.decompose(g, v)
        for sigma in itertools.permutations(range(n)):
            g2, v2 = _permuted_setup(g, v, sigma)
            dec2 = sv.decompose(g2, v2)
            for i in range(n):
                expected = gm.pullback(sigma, dec.components[sigma[i]])
                for S in g2.vertices.tolist():
                    assert dec2.components[i].value(S) == expected.value(S)



def test_mean_zero_check_scales_with_the_column():
    g = gr.full_hypercube(3)
    tiny = 1e-12 * gm.make_glove_game().as_float().values
    sv._verify_mean_zero(g, sv._rhs(g, tiny, range(3)))
    sv._verify_mean_zero(g, np.zeros((1, 8)))
    # an absolute floor of 1 would pass a constant row of tiny values
    with pytest.raises(ArithmeticError, match="not mean-zero"):
        sv._verify_mean_zero(g, np.full((1, 8), 1e-20))

def test_residual_orthogonality_zero_rational():
    rng = random.Random(25)
    for _ in range(8):
        n = rng.randint(2, 4)
        g = random_graph(rng, n)
        v = rational_game(rng, n)
        dec = sv.decompose(g, v)
        assert all(r == 0 for r in sv.residual_orthogonality(g, v, dec))


def test_edge_residual_zero_iff_inessential():
    g = gr.full_hypercube(3)
    v = gm.make_inessential_game([1, 2, 3])
    dec = sv.decompose(g, v)
    for i in range(3):
        assert sv.edge_residual(g, v, dec, i).is_zero()
    glove = gm.make_glove_game()
    dec = sv.decompose(g, glove)
    nonzero = [i for i in range(3) if not sv.edge_residual(g, glove, dec, i).is_zero()]
    assert nonzero  # the glove game is not additive
    for i in range(3):
        r = sv.edge_residual(g, glove, dec, i)
        assert all(x == 0 for x in ops.d_star(r).values)


def test_backend_equivalence():
    rng = random.Random(26)
    for n in (2, 3, 5, 8):
        vals = random_dyadic_values(rng, n)
        v_rat = gm.game_from_values(n, vals)
        v_float = v_rat.as_float()
        g = gr.full_hypercube(n)
        exact = sv.decompose(g, v_rat, sv.SolverConfig(backend=sv.DENSE_RATIONAL))
        cg = sv.decompose(g, v_float, sv.SolverConfig(backend=sv.CG_FLOAT))
        for i in range(n):
            ref = np.array([float(x) for x in exact.components[i].values])
            assert np.allclose(np.asarray(cg.components[i].values), ref, atol=1e-8)


def _cg_float(g, v):
    """``_cg_float`` for every player of the float game v, with the default
    tolerance and iteration cap."""
    B = sv._rhs(g, np.asarray(v.values), range(g.n))
    cfg = sv.SolverConfig()
    return sv._cg_float(g, B, np.abs(B).max(axis=1), range(g.n), cfg.cg_tolerance,
                        cfg.max_iters_for(g.n))


def test_cg_scales_each_row_by_its_own_power_of_two():
    # one right-hand side 2**-900 times the other: a scale shared by the
    # rows would underflow that row's dot products and stop it unsolved;
    # its own scale gives the same bits, scaled
    n = 6
    g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    v = gm.game_from_values(n, random_dyadic_values(random.Random(56), n)).as_float()
    cfg = sv.SolverConfig()

    def solve(B):
        return sv._cg_float(g, B, np.abs(B).max(axis=1), [0, 1], cfg.cg_tolerance,
                            cfg.max_iters_for(n))

    B = sv._rhs(g, np.asarray(v.values), [0, 1])
    ref, _, iterations, _ = solve(B.copy())
    B[1] = np.ldexp(B[1], -900)
    X, _, scaled_iterations, _ = solve(B)
    assert scaled_iterations == iterations
    assert np.array_equal(X[0], ref[0])
    assert np.array_equal(X[1], np.ldexp(ref[1], -900))


def test_cg_iteration_count_on_cube():
    # on a constant cube the Walsh preconditioner is L_w's pseudo-inverse,
    # so one step solves every player; 10 * n bounds any preconditioner
    rng = np.random.default_rng(27)
    n = 8
    vals = rng.standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    # decompose takes the spectral engine on this cube, so CG runs directly
    g = gr.full_hypercube(n)
    X, _, iterations, _ = _cg_float(g, v)
    assert max(iterations) <= 10 * n
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    assert all(s.backend == sv.SPECTRAL for s in dec.diagnostics)
    assert np.allclose(X, [c.values for c in dec.components], rtol=0, atol=1e-12)


def test_cg_jacobi_preconditioner_on_badly_scaled_weights():
    # edge weights 10**k, k in [-6, 6]: unpreconditioned CG needs 387
    # iterations on this case, Jacobi 80
    rng = random.Random(45)
    n = 6
    entries = {e: Fraction(10) ** rng.randint(-6, 6) for e in gr.full_hypercube(n).edges()}
    g = gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries))
    vals = np.random.default_rng(45).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    assert max(s.iterations for s in dec.diagnostics) <= 150
    exact = sv.decompose(g, v.as_rational(), sv.SolverConfig(backend=sv.DENSE_RATIONAL))
    for a, b in zip(exact.components, dec.components):
        ref = np.array([float(x) for x in a.values])
        assert np.max(np.abs(np.asarray(b.values) - ref)) <= 1e-7


def test_least_squares_minimality():
    rng = np.random.default_rng(28)
    g = gr.full_hypercube(4, gr.EdgeWeighting.by_cardinality([1, 2, 1, 3]))
    vals = rng.standard_normal(16)
    vals[0] = 0.0
    v = gm.game_from_values(4, vals, gm.FLOAT)
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    u = ops.vertex_function_from_game(g, v)
    for i in range(4):
        ui = ops.vertex_function_from_game(g, dec.components[i])
        best = ops.edge_inner_product(
            ops.edge_difference(ops.d(ui), ops.d_i(i, u)),
            ops.edge_difference(ops.d(ui), ops.d_i(i, u)))
        for _ in range(5):
            pert = rng.standard_normal(16) * 1e-3
            pert[0] = 0.0
            shifted = ops.VertexFunction(g, gm.FLOAT, np.asarray(ui.values) + pert[g.vertices])
            worse = ops.edge_inner_product(
                ops.edge_difference(ops.d(shifted), ops.d_i(i, u)),
                ops.edge_difference(ops.d(shifted), ops.d_i(i, u)))
            assert worse >= best - 1e-12


def test_cg_non_convergence_error():
    # size-plus-one weights take several steps (a constant cube takes one)
    v = gm.make_glove_game().as_float()
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT, cg_max_iters=1)
    with pytest.raises(ConvergenceError) as err:
        sv.decompose(gr.full_hypercube(3, gr.EdgeWeighting.size_plus_one(3)), v, cfg)
    assert err.value.residual_history


def test_default_config_follows_the_game_mode():
    g = gr.full_hypercube(3)
    v = gm.make_glove_game()
    assert sv.SolverConfig().backend is None
    exact = sv.decompose(g, v)
    assert [s.backend for s in exact.diagnostics] == [sv.SPECTRAL] * 3
    dec = sv.decompose(g, v.as_float())
    assert [s.backend for s in dec.diagnostics] == [sv.SPECTRAL] * 3
    assert dec.efficiency_gap < 1e-12
    for c, e in zip(dec.components, exact.components):
        assert c.mode == gm.FLOAT
        assert np.allclose(c.values, [float(x) for x in e.values], rtol=0, atol=1e-12)
    comp = sv.solve_component(g, v.as_float(), 0)
    assert comp.mode == gm.FLOAT and abs(comp.grand_value() - 2 / 3) < 1e-12


def test_config_errors():
    g = gr.full_hypercube(2)
    v = gm.make_pure_bargaining_game(2, 1)
    with pytest.raises(ConfigError):
        sv.SolverConfig(backend="qr_float")
    with pytest.raises(ConfigError):
        sv.SolverConfig(cg_tolerance=0.0)
    with pytest.raises(ConfigError):
        sv.SolverConfig(cg_max_iters=0)
    with pytest.raises(ConfigError):
        sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.DENSE_RATIONAL))
    with pytest.raises(ConfigError):
        sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    with pytest.raises(ConfigError):
        sv.solve_component(g, v, 5)
    with pytest.raises(ConfigError):
        sv.decompose(gr.full_hypercube(3), v)


def test_solve_component_agrees_with_decompose():
    rng = random.Random(29)
    g = random_graph(rng, 3)
    v = rational_game(rng, 3)
    dec = sv.decompose(g, v)
    for i in range(3):
        assert sv.solve_component(g, v, i).values == dec.components[i].values


def _dense_apply(L, x):
    return [sum((a * y for a, y in zip(row, x) if a), Fraction(0)) for row in L]


def _assert_solves_oracle_system(g, v, dec):
    # each component x solves L x = L_i v on the feasible vertices, x({}) = 0,
    # with both matrices assembled from the raw edge list
    edges = [(e.base, e.player) for e in g.edges()]
    feasible, L = dense_laplacian(g.n, g.vertices.tolist(), edges, edge_weights(g))
    vals = [v.values[S] for S in feasible]
    for i, comp in enumerate(dec.components):
        own = [(e, w) for e, w in zip(edges, edge_weights(g)) if e[1] == i]
        _, L_i = dense_laplacian(g.n, feasible, [e for e, _ in own], [w for _, w in own])
        x = [comp.values[S] for S in feasible]
        assert x[0] == 0
        assert _dense_apply(L, x) == _dense_apply(L_i, vals)


def test_rational_reconstruct_matches_brute_force():
    # every residue mod 101 either has one fraction n/d in lowest terms
    # with |n|, d <= 7 and n = x*d mod 101, or reconstructs to None
    M, bound = 101, 7
    outcomes = set()
    for x in range(M):
        fits = [(a, d) for d in range(1, bound + 1) for a in range(-bound, bound + 1)
                if math.gcd(a, d) == 1 and (a - x * d) % M == 0]
        got = _exact._rational_reconstruct(x, M, bound)
        assert got == (fits[0] if fits else None), x
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_lifting_matches_oracle_system():
    rng = random.Random(30)
    n = 5
    g = gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality([1, 2, 3, 1, 2]))
    for graph in (g, gr.restrict(g, [bits(0, 1), bits(2, 3, 4)])):
        v = rational_game(rng, n)
        dec = sv.decompose(graph, v)
        assert dec.efficiency_gap == 0
        _assert_solves_oracle_system(graph, v, dec)


def test_oversized_weights_lift_on_python_ints(monkeypatch):
    # scaled by their common denominator the weights reach 10**30, past
    # int64, so the lifting's residual update runs on Python ints; the
    # matrix's condition number, 9.6e16, leaves a float step no bits, so
    # the solver gives the float route up after one step and lifts p-adic
    # digits
    steps = []
    step = _exact.DixonSolver._float_step
    monkeypatch.setattr(_exact.DixonSolver, "_float_step",
                        lambda self, rf: steps.append(rf.shape) or step(self, rf))
    n = 6
    g0 = gr.full_hypercube(n)
    entries = {e: Fraction(10) ** (15 if (e.base + e.player) % 2 else -15)
               for e in g0.edges()}
    g = gr.restrict(gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries)), [bits(1, 4)])
    assert g.num_vertices - 1 == 62
    v = rational_game(random.Random(37), n)
    dec = sv.decompose(g, v)
    assert dec.efficiency_gap == 0 and isinstance(dec.efficiency_gap, Fraction)
    assert all(r == 0 for r in sv.residual_orthogonality(g, v, dec))
    _assert_solves_oracle_system(g, v, dec)
    solver = sv._rational_solver(g)
    assert solver._data.dtype == object
    assert solver.p is not None and len(steps) == 1


_P = _exact._PRIMES[0]


def _random_matrix(rng, m, zero_pivot_at=None, zero_rows=()):
    """A random integer m x m matrix, entries in [-p, 2p], so reduction mod p
    matters.  Each row in zero_rows agrees, on its first zero_pivot_at + 1
    entries and mod p, with a combination of rows 0 .. zero_pivot_at - 1:
    Gauss-Jordan then meets a zero at column zero_pivot_at in all of them."""
    A = [[rng.randint(-_P, 2 * _P) for _ in range(m)] for _ in range(m)]
    k = zero_pivot_at
    for i in zero_rows:
        coef = [rng.randrange(_P) for _ in range(k)]
        for j in range(k + 1):
            combo = sum(c * A[t][j] for c, t in zip(coef, range(k))) % _P
            A[i][j] = combo + _P * rng.randint(-1, 1)
    return A


def _assert_inverse_mod_p(A):
    m = len(A)
    C = _exact._modular_inverse_matrix(np.array(A, dtype=np.int64), _P)
    assert C is not None
    C = C.tolist()
    for i in range(m):
        for j in range(m):
            assert sum(C[i][t] * A[t][j] for t in range(m)) % _P == (i == j)
    assert C == modular_inverse(A, _P)


def _singular_minor(A, rows):
    return modular_inverse([[A[i][j] for j in range(len(rows))] for i in rows], _P) is None


def test_blocked_inverse_smaller_than_one_panel():
    A = _random_matrix(random.Random(50), 7)
    assert len(A) < _exact._PANEL
    _assert_inverse_mod_p(A)


def test_blocked_inverse_partial_last_panel():
    A = _random_matrix(random.Random(51), 2 * _exact._PANEL + 13)
    _assert_inverse_mod_p(A)


def test_blocked_inverse_zero_leading_pivot():
    A = _random_matrix(random.Random(52), 40)
    A[0][0] = 2 * _P
    _assert_inverse_mod_p(A)


def test_blocked_inverse_swap_inside_a_panel():
    # column 5 has a zero pivot in row 5 only; row 6, in the same panel, takes over
    A = _random_matrix(random.Random(53), 40, zero_pivot_at=5, zero_rows=[5])
    assert _singular_minor(A, range(6)) and not _singular_minor(A, [0, 1, 2, 3, 4, 6])
    _assert_inverse_mod_p(A)


def test_blocked_inverse_swap_across_a_panel_boundary():
    # column 20 has zero pivots in rows 20 .. 35, so the pivot comes from row
    # 36, in the next panel; column 31, the first panel's last, needs a
    # swap too when rows 31 .. 33 are made zero there
    A = _random_matrix(random.Random(54), 45, zero_pivot_at=20, zero_rows=range(20, 36))
    assert all(_singular_minor(A, [*range(20), i]) for i in range(20, 36))
    assert not _singular_minor(A, [*range(20), 36])
    _assert_inverse_mod_p(A)
    A = _random_matrix(random.Random(55), 45, zero_pivot_at=31, zero_rows=range(31, 34))
    assert _singular_minor(A, range(32)) and not _singular_minor(A, [*range(31), 34])
    _assert_inverse_mod_p(A)


def test_blocked_inverse_singular_mod_p_returns_none():
    rng = random.Random(56)
    A = _random_matrix(rng, 40)
    A[33] = [(2 * x) % _P + _P * rng.randint(-1, 1) for x in A[3]]
    assert modular_inverse(A, _P) is None
    assert _exact._modular_inverse_matrix(np.array(A, dtype=np.int64), _P) is None


def _dense_solver(A):
    """The lifting solver of a dense integer matrix, built from its nonzeros."""
    rows, cols = np.nonzero(A)
    return _exact.DixonSolver(len(A), rows, cols, A[rows, cols])


def _pinned_integer_laplacian(g):
    """The solver's scaled pinned matrix, rebuilt from the oracle's Laplacian."""
    edges = [(e.base, e.player) for e in g.edges()]
    _, L = dense_laplacian(g.n, g.vertices.tolist(), edges, edge_weights(g))
    scale = math.lcm(*(x.denominator for row in L for x in row))
    return [[int(x * scale) for x in row[1:]] for row in L[1:]]


def test_lifting_stops_before_the_hadamard_count(monkeypatch):
    n = 8
    g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    v = rational_game(random.Random(57), n)
    shifts = []
    lifts = []
    step, solve = _exact.DixonSolver._float_step, _exact.DixonSolver.solve

    def counted_step(self, rf):
        y, s = step(self, rf)
        shifts.append(s)
        return y, s

    def counted_solve(self, B):
        before = len(shifts)
        sol = solve(self, B)
        lifted = sum(max(s, 0) for s in shifts[before:])  # bits of the answer
        lifts.append((len(shifts) - before, lifted,
                      self._guaranteed_bits(max(map(abs, B.flat)))))
        return sol

    monkeypatch.setattr(_exact.DixonSolver, "_float_step", counted_step)
    monkeypatch.setattr(_exact.DixonSolver, "solve", counted_solve)
    dec = sv.decompose(g, v)
    assert len(lifts) == 1  # every player's column in one block
    assert all(0 < steps and 0 < bits < guaranteed for steps, bits, guaranteed in lifts), lifts
    assert sv._rational_solver(g).p is None  # no p-adic digit was lifted
    assert dec.efficiency_gap == 0
    _assert_solves_oracle_system(g, v, dec)


def _long_and_short_rhs(A, seed):
    """Right-hand sides whose answers are a 200-digit column and a
    single-digit one."""
    rng = random.Random(seed)
    x_true = [10 ** 200 + 7] + [rng.randint(-9, 9) for _ in range(len(A) - 1)]
    x_small = [rng.randint(-9, 9) for _ in range(len(A))]
    B = np.array([[sum(a * y for a, y in zip(row, x)) for x in (x_true, x_small)] for row in A],
                 dtype=object)
    assert max(len(str(abs(y))) for y in B[:, 0]) >= 200
    return B, x_true, x_small


def test_lifting_rejects_early_candidates_on_a_200_digit_rhs():
    # the p-adic route, forced on a system the float route solves
    n = 8
    A = _pinned_integer_laplacian(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)))
    solver = _dense_solver(np.array(A, dtype=np.int64))
    solver._factor_mod_p()
    B, x_true, x_small = _long_and_short_rhs(A, 58)
    verdicts, steps = [], []
    check, matvec = solver._check, solver._matvec_mod
    solver._check = lambda X, den, rhs: verdicts.append((X.shape, check(X, den, rhs))) \
        or verdicts[-1][1]
    solver._matvec_mod = lambda r: steps.append(r.shape) or matvec(r)
    X, den = solver.solve(B)
    # the accepted candidate holds both columns over the one denominator den
    assert verdicts[-1] == ((len(A), 2), True) and (X.shape, False) in verdicts, verdicts
    assert X[:, 0].tolist() == [den * y for y in x_true]
    assert X[:, 1].tolist() == [den * y for y in x_small]
    # the digits are lifted once for both: as many steps as the long column
    # alone takes, each carrying the two columns
    alone = []
    solver._matvec_mod = lambda r: alone.append(r.shape) or matvec(r)
    solver.solve(B[:, :1])
    assert steps == [(len(A), 2)] * len(alone)


def test_float_lifting_takes_a_200_digit_rhs_top_bits_first():
    n = 8
    A = _pinned_integer_laplacian(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)))
    solver = _dense_solver(np.array(A, dtype=np.int64))
    B, x_true, x_small = _long_and_short_rhs(A, 58)
    step = solver._float_step

    def counted(steps):
        def counted_step(rf):
            y, s = step(rf)
            steps.append((rf.shape, s))
            return y, s
        return counted_step

    both, alone = [], []
    solver._float_step = counted(both)
    X, den = solver.solve(B)
    assert X[:, 0].tolist() == [den * y for y in x_true]
    assert X[:, 1].tolist() == [den * y for y in x_small]
    assert solver.p is None
    # a step's digits hold 50 bits, so the 665-bit column comes in from its
    # top bits down (negative shifts) over many steps, and the short column
    # rides along in every one of them
    solver._float_step = counted(alone)
    solver.solve(B[:, :1])
    assert sum(s < 0 for _, s in alone) > 10
    assert [shape for shape, _ in both] == [(len(A), 2)] * len(alone)


def _lifting_graphs(n):
    """Full and restricted cubes with constant 5/2, size-plus-one and
    explicit k/4 weights."""
    rng = random.Random(n)
    weightings = [gr.EdgeWeighting.constant(Fraction(5, 2)), gr.EdgeWeighting.size_plus_one(n),
                  gr.EdgeWeighting.explicit({e: Fraction(rng.randint(1, 8), 4)
                                             for e in gr.full_hypercube(n).edges()
                                             if rng.random() < 0.3})]
    removed = [bits(1, 2)] if n >= 4 else []
    for w in weightings:
        g = gr.full_hypercube(n, w)
        yield g
        yield gr.restrict(g, removed, [gr.Edge(bits(0), 1)])


@pytest.mark.parametrize("n", range(2, 8))
def test_float_lifting_matches_the_p_adic_route(monkeypatch, n):
    # the same pinned systems on both routes, the p-adic one forced by a
    # floor no float step meets: equal fractions entry by entry
    for g in _lifting_graphs(n):
        v = rational_game(random.Random(n), n)
        values, _ = sv._over_common_denominator(v.values)
        B = sv._rhs(g, values, range(n))[:, g.vertices[1:]].T
        float_solver = sv._rational_solver(g)
        X, den = float_solver.solve(B)
        assert float_solver.p is None
        with monkeypatch.context() as patch:
            patch.setattr(_exact, "_MIN_GAIN_BITS", 1 << 20)
            p_adic = _dense_solver(float_solver._dense())
            Y, den_p = p_adic.solve(B)
        assert p_adic.p is not None
        assert [Fraction(x, den) for x in X.flat] == [Fraction(y, den_p) for y in Y.flat]


def test_suite_graphs_never_take_the_p_adic_route(monkeypatch):
    # the benchmark's exact graph kinds at n = 5..8 and the glove fixtures
    def never(*args):
        raise AssertionError("the mod-p inverse ran")

    monkeypatch.setattr(_exact, "_modular_inverse_matrix", never)
    rng = random.Random(59)
    for n in range(5, 9):
        w = gr.EdgeWeighting
        explicit = w.explicit({e: Fraction(rng.randint(1, 8), 4)
                               for e in gr.full_hypercube(n).edges() if rng.random() < 0.3})
        removed = [bits(0, 1), bits(2, 3, 4), bits(1, 2, 3, n - 1)]
        for g in (gr.full_hypercube(n, w.size_plus_one(n)), gr.full_hypercube(n, explicit),
                  gr.restrict(gr.full_hypercube(n, w.size_plus_one(n)), removed)):
            v = rational_game(rng, n)
            dec = sv.decompose(g, v)
            assert dec.diagnostics[0].backend == sv.DENSE_RATIONAL
            assert dec.efficiency_gap == 0
    for ref in ALL_REFERENCES:
        dec = sv.decompose(ref.graph(), ref.game())
        for S, row in ref.expected().items():
            assert [c.value(S) for c in dec.components] == list(row[1:]), (ref.key, S)


def test_float_range_overflow_takes_the_p_adic_route():
    # an entry past float64's range: no float inverse, p-adic from the start
    A = np.array([[10 ** 400, -1], [-1, 2]], dtype=object)
    solver = _dense_solver(A)
    assert solver.p is not None
    B = np.array([[1], [3]], dtype=object)
    X, den = solver.solve(B)
    assert (A.dot(X) == den * B).all()


def _small_system(seed):
    """The pinned Laplacian of a weighted cube at n = 4, its solver, and a
    block of three integer right-hand sides; the answer takes two float steps."""
    g = gr.full_hypercube(4, gr.EdgeWeighting.by_cardinality([1, 3, 5, 7]))
    A = np.array(_pinned_integer_laplacian(g), dtype=np.int64)
    rng = random.Random(seed)
    B = np.array([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(3)] for _ in A], dtype=object)
    return A, _dense_solver(A), B


def _assert_solves(A, solver, B):
    X, den = solver.solve(B)
    assert solver._check(X, den, B)
    assert (A.astype(object).dot(X) == den * B).all()


def test_lifting_solver_refuses_past_its_unknowns_cap(monkeypatch):
    # a restricted cube at n = 5 has 30 pinned unknowns
    monkeypatch.setattr(_exact, "_MAX_UNKNOWNS", 29)
    g = gr.restrict(gr.full_hypercube(5, gr.EdgeWeighting.size_plus_one(5)), [bits(0, 1)])
    with pytest.raises(ValueError, match=r"too large for the lifting solver \(30 unknowns\)"):
        sv.decompose(g, rational_game(random.Random(70), 5))


def test_lifting_solver_refuses_a_singular_matrix():
    with pytest.raises(_exact.SingularMatrixError, match="singular"):
        _dense_solver(np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=np.int64))


def test_a_float_step_past_float64_takes_the_p_adic_route():
    A, solver, B = _small_system(71)
    solver._F = solver._F * 1e308  # every product F r overflows
    steps, step = [], solver._float_step
    solver._float_step = lambda rf: steps.append(step(rf)) or steps[-1]
    _assert_solves(A, solver, B)
    assert steps == [None]
    assert solver.p is not None and solver._F is None


def test_float_lifting_tries_each_bit_count_once(monkeypatch):
    # from a first try at 1 bit, one float step passes several tries at
    # once; the tries it passed reuse no candidate
    monkeypatch.setattr(_exact, "_FIRST_TRY_BITS", 1)
    calls, reconstruct = [], _exact._reconstruct_dyadic
    monkeypatch.setattr(_exact, "_reconstruct_dyadic",
                        lambda N, E, err: calls.append((N.shape, E)) or reconstruct(N, E, err))
    A, solver, B = _small_system(72)
    _assert_solves(A, solver, B)
    assert solver.p is None
    assert len(calls) > 1 and len(set(calls)) == len(calls), calls
    assert calls[0][1] > 16  # the first step passed the tries at 1, 2, 4, 8 and 16 bits


def test_failed_float_candidates_take_the_p_adic_route(monkeypatch):
    # no dyadic candidate passes: the float route runs through every try,
    # up to the last resort, and hands the block to the p-adic route
    calls = []
    monkeypatch.setattr(_exact, "_reconstruct_dyadic", lambda N, E, err: calls.append(E))
    A, solver, B = _small_system(73)
    _assert_solves(A, solver, B)
    assert solver.p is not None
    last_resort = solver._guaranteed_bits(max(map(abs, B.flat))) << _exact._LAST_RESORT_DOUBLINGS
    assert calls[-1] >= last_resort


def test_convergent_matches_brute_force():
    # with 2 err bound**2 < 2**E at most one fraction of denominator at most
    # bound lies within err / 2**E of a / 2**E; _convergent finds it or
    # says there is none
    E = 9
    M = 1 << E
    for err in (0, 1, 3):
        bound = math.isqrt((M - 1) // (2 * err)) if err else 6
        outcomes = set()
        for a in range(-M, 2 * M, 7):
            fits = [(p, q) for q in range(1, bound + 1) for p in range(-3 * q, 3 * q + 1)
                    if math.gcd(p, q) == 1 and abs(a * q - p * M) <= q * err]
            got = _exact._convergent(a, E, err, bound)
            assert got == (fits[0] if fits else None), (a, err)
            outcomes.add(got is None)
        assert outcomes == {True, False}


def test_digits_sum_exactly():
    # digits at shifts that cross limb boundaries, with signs and negative
    # positions (digits above the binary point), read back over 2**E
    rng = random.Random(60)
    shape = (7, 3)
    for trial in range(20):
        digits = _exact._Digits(shape)
        total = [0] * 21
        E = 0
        for _ in range(rng.randint(1, 12)):
            p = E + rng.randint(-40, 50)
            y = np.array([rng.randint(-2 ** 50, 2 ** 50) for _ in range(21)]).reshape(shape)
            digits.add(y, p)
            E = max(E, p)
            total = [t + int(x) * Fraction(2) ** -p for t, x in zip(total, y.flat)]
        assert digits.value(E).flatten().tolist() == [t * 2 ** E for t in total]
        assert digits.value(E, slice(2)).tolist() == digits.value(E)[:2].tolist()


_SOLVES_WITHOUT_SCIPY = """
import sys
from fractions import Fraction
from hodgeshapley import cli, closed_form, coalition as co, game as gm, graph as gr, solve as sv
n = 6
g = gr.restrict(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)), [co.from_members([0, 1])])
v = gm.game_from_values(n, [Fraction(S % 7, 1 + S % 3) for S in range(1 << n)])
assert sv.decompose(g, v).efficiency_gap == 0
assert closed_form.verify_shapley_coefficient(4, 2, 0) == Fraction(1, 12)
cg = sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
assert cg.efficiency_gap < 1e-9
assert cli.main(["fixtures"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:3]
"""


def test_solves_never_import_scipy():
    # a fresh interpreter, so that no other test has imported scipy yet
    src = str(Path(sv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _SOLVES_WITHOUT_SCIPY],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_float_efficiency_gap_small():
    rng = np.random.default_rng(31)
    vals = rng.standard_normal(1 << 6)
    vals[0] = 0.0
    v = gm.game_from_values(6, vals, gm.FLOAT)
    dec = sv.decompose(gr.full_hypercube(6), v, sv.SolverConfig(backend=sv.CG_FLOAT))
    assert dec.efficiency_gap < 1e-10


def _restricted_explicit_graph(n, seed):
    rng = random.Random(seed)
    entries = {e: Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for e in gr.full_hypercube(n).edges() if rng.random() < 0.5}
    g = gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries))
    return gr.restrict(g, [bits(0, 1), bits(1, 2, 3)], [gr.Edge(bits(4), 0)])


def test_cg_restricted_explicit_matches_exact():
    rng = random.Random(32)
    n = 5
    g = _restricted_explicit_graph(n, 33)
    v_rat = gm.game_from_values(n, random_dyadic_values(rng, n))
    exact = sv.decompose(g, v_rat)
    cg = sv.decompose(g, v_rat.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
    infeasible = [S for S in range(1 << n) if not g.contains_vertex(S)]
    assert infeasible
    for i in range(n):
        ref = np.array([float(x) for x in exact.components[i].values])
        got = np.asarray(cg.components[i].values)
        feasible = g.vertices
        assert np.allclose(got[feasible], ref[feasible], atol=1e-8)
        assert all(got[S] == 0.0 for S in infeasible)
    assert cg.efficiency_gap < 1e-8


def test_cg_diagnostics_per_player():
    rng = np.random.default_rng(34)
    n = 5
    g = _restricted_explicit_graph(n, 35)
    vals = rng.standard_normal(1 << n)
    vals[0] = 0.0
    # player 2 is null, so its right-hand side vanishes and CG does no step
    vals = np.array([vals[S & ~(1 << 2)] for S in range(1 << n)])
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT, cg_tolerance=1e-10)
    dec = sv.decompose(g, gm.game_from_values(n, vals, gm.FLOAT), cfg)
    assert [s.player for s in dec.diagnostics] == list(range(n))
    assert all(s.residual <= cfg.cg_tolerance for s in dec.diagnostics)
    assert dec.diagnostics[2].iterations == 0 and dec.diagnostics[2].residual == 0.0
    assert not np.any(dec.components[2].values)
    assert len({s.iterations for s in dec.diagnostics}) > 1
    assert len({s.residual for s in dec.diagnostics}) == n


def test_cg_convergence_error_names_player():
    rng = np.random.default_rng(36)
    n = 4
    vals = rng.standard_normal(1 << n)
    vals[0] = 0.0
    # player 0 is null and converges at once; player 1 is the first to fail
    vals = np.array([vals[S & ~1] for S in range(1 << n)])
    g = gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality([1, 3, 2, 5]))
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT, cg_max_iters=2)
    with pytest.raises(ConvergenceError) as err:
        sv.decompose(g, gm.game_from_values(n, vals, gm.FLOAT), cfg)
    assert "player 1 " in str(err.value)
    assert len(err.value.residual_history) == 2
    assert err.value.residual_history[-1] > cfg.cg_tolerance


def test_float_solve_component_matches_decompose():
    rng = np.random.default_rng(37)
    n = 5
    vals = rng.standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    for g in (gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
              _restricted_explicit_graph(n, 38)):
        cfg = sv.SolverConfig(backend=sv.CG_FLOAT)
        dec = sv.decompose(g, v, cfg)
        for i in range(n):
            one = sv.solve_component(g, v, i, cfg)
            assert np.allclose(one.values, dec.components[i].values, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shift", [600, -600])
def test_cg_components_scale_exactly_with_the_game(shift):
    # r.r of a game times 2**600 overflows float64, and of a game times
    # 2**-600 underflows to 0; the solve scales each column by a power of
    # two first, so the scaled game's components are the scaled components
    n = 5
    vals = np.random.default_rng(41).standard_normal(1 << n)
    vals[0] = 0.0
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT)
    for g in (gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
              _restricted_explicit_graph(n, 42)):
        base = sv.decompose(g, gm.game_from_values(n, vals, gm.FLOAT), cfg)
        scaled = sv.decompose(g, gm.game_from_values(n, np.ldexp(vals, shift), gm.FLOAT), cfg)
        for a, b in zip(base.components, scaled.components):
            assert np.array_equal(np.ldexp(a.values, shift), b.values)
        assert scaled.diagnostics == base.diagnostics
        assert scaled.efficiency_gap == np.ldexp(base.efficiency_gap, shift)


def _alternating_game(n, amplitude):
    """v(S) = amplitude for odd bitsets S and -amplitude for even ones, v({}) = 0."""
    vals = np.where(np.arange(1 << n) % 2 == 1, amplitude, -amplitude)
    vals[0] = 0.0
    return gm.game_from_values(n, vals, gm.FLOAT)


def _route_weightings(n):
    """A weighting per float route: the spectral engine's and CG's."""
    return ((gr.EdgeWeighting.constant(1), sv.SPECTRAL),
            (gr.EdgeWeighting.size_plus_one(n), sv.CG_FLOAT))


def test_float_games_near_the_top_of_the_range_decompose_on_both_routes():
    # +-3e307: the components peak at 5.5e307, inside float64, but CG's
    # right-hand sides, up to 2 |v| max(w) = 3.6e308, overflowed before the
    # game was first scaled down by a power of two
    n = 6
    v = _alternating_game(n, 3e307)
    small = gm.game_from_values(n, np.ldexp(v.values, -64), gm.FLOAT)
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT)
    for weighting, engine in _route_weightings(n):
        g = gr.full_hypercube(n, weighting)
        dec = sv.decompose(g, v, cfg)
        assert dec.diagnostics[0].backend == engine
        exact = sv.decompose(g, v.as_rational()).components
        for comp, ref in zip(dec.components, exact):
            ref = np.array([float(x) for x in ref.values])
            assert np.max(np.abs(comp.values - ref)) <= 1e-10 * np.max(np.abs(ref)), engine
        # the scaling is exact: the components are the scaled-down game's
        # components scaled back up, bit for bit
        base = sv.decompose(g, small, cfg)
        for comp, ref in zip(dec.components, base.components):
            assert np.array_equal(comp.values, np.ldexp(ref.values, 64)), engine
        assert dec.diagnostics == base.diagnostics


def test_prescaling_leaves_games_below_its_threshold_as_they_are():
    # |v| < 2**1001 fits under 2**(1024 - 23)
    values = np.array([0.0, 2.0 ** 1000, -3.0])
    for headroom in (0, 23):
        scaled, shift = sv._prescaled(values, headroom)
        assert scaled is values and shift == 0
    scaled, shift = sv._prescaled(values, 25)
    assert shift == 2 and np.array_equal(scaled, np.ldexp(values, -2))


def test_float_components_past_float64_are_refused_on_both_routes():
    # +-1.7e308: the exact components reach about 2**1025, past float64;
    # they used to overflow with a RuntimeWarning and fail as a bad game spec
    n = 6
    v = _alternating_game(n, 1.7e308)
    for weighting, _ in _route_weightings(n):
        g = gr.full_hypercube(n, weighting)
        for solve in (lambda: sv.decompose(g, v), lambda: sv.solve_component(g, v, 0)):
            with pytest.raises(ConvergenceError, match=r"component of player 0 exceeds "
                               r"float64's range; --backend dense-rational"):
                solve()
        exact = sv.decompose(g, v.as_rational())
        assert max(abs(x) for x in exact.components[0].values) > np.finfo(float).max


def _subnormal_game(n):
    """A standard-normal game scaled by 1e-310, into float64's subnormals."""
    vals = np.random.default_rng(3).standard_normal(1 << n) * 1e-310
    vals[0] = 0.0
    return gm.game_from_values(n, vals, gm.FLOAT)


def _alternating_thousands(n):
    """The size table 1000, 1/1000, 1000, ...: weights past the Walsh spread."""
    return gr.EdgeWeighting.by_cardinality(
        [Fraction(1000) ** (-1) ** s for s in range(n)])


@pytest.mark.parametrize("case", ["top", "subnormal"])
def test_float_residual_orthogonality_at_both_ends_of_the_range(case):
    # L_w of the components overflowed at +-3e307 (nan peaks), and b * x
    # underflowed on a subnormal game with levels down to 1e-18, which the
    # residual check took for a failed split; both decompose
    n = 6
    if case == "top":
        g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
        v, preconditioner, e = _alternating_game(n, 3e307), sv.WALSH, -64
    else:
        g = gr.full_hypercube(n, _alternating_thousands(n))
        v, preconditioner, e = _subnormal_game(n), sv.JACOBI, 1000
    dec = sv.decompose(g, v)
    assert {s.preconditioner for s in dec.diagnostics} == {preconditioner}
    residuals = sv.residual_orthogonality(g, v, dec)
    assert max(residuals) <= 1e-8 * np.max(np.abs(v.values))
    assert max(sv.residual_orthogonality(g, v.as_rational(),
                                         sv.decompose(g, v.as_rational()))) == 0
    # the scaling is exact: the game and components scaled by 2**e give the
    # peaks scaled by 2**e, bit for bit
    scaled = dataclasses.replace(dec, components=tuple(
        gm.game_from_values(n, np.ldexp(c.values, e), gm.FLOAT) for c in dec.components))
    got = sv.residual_orthogonality(
        g, gm.game_from_values(n, np.ldexp(v.values, e), gm.FLOAT), scaled)
    assert np.array_equal(np.ldexp(got, -e), residuals)


# ---------------------------------------------------------------------------
# the sub-cube Laplacian of float CG (weights c0 * b(S) * b(T) on the edges
# between feasible coalitions)
# ---------------------------------------------------------------------------

def _permutation_invariant_weightings(n):
    # alternating 10**3 and 10**-3 drives the level scaling to 10**(3n)
    wide = [Fraction(10) ** (3 * (-1) ** s) for s in range(n)]
    return {"constant": gr.EdgeWeighting.constant(Fraction(3, 2)),
            "size-plus-one": gr.EdgeWeighting.size_plus_one(n),
            "wide": gr.EdgeWeighting.by_cardinality(wide)}


def _vertex_restricted(g, seed):
    """g with up to n // 2 coalitions removed, each kept out only while
    every other coalition stays formable; no edge is removed on its own."""
    rng = random.Random(seed)
    removed = []
    for _ in range(50):
        S = rng.randrange(1, (1 << g.n) - 1)
        if len(removed) < g.n // 2 and S not in removed:
            try:
                gr.restrict(g, removed + [S])
            except InfeasibilityError:
                continue
            removed.append(S)
    return gr.restrict(g, removed)


def _product_graph(n, weighting, seed):
    """A vertex-restricted cube whose weights factor as c0 * b(S) * b(T)."""
    if weighting == "degree-product":
        return gr.degree_product_weighting(_vertex_restricted(gr.full_hypercube(n), seed))
    return _vertex_restricted(
        gr.full_hypercube(n, _permutation_invariant_weightings(n)[weighting]), seed)


@pytest.mark.parametrize("weighting, n", [
    *((w, n) for w in ("constant", "size-plus-one", "wide") for n in range(1, 13)),
    *((f"restricted-{w}", n) for w in ("constant", "size-plus-one", "wide", "degree-product")
      for n in range(2, 11))])
def test_subcube_laplacian_matches_per_player_kernel(weighting, n):
    if weighting.startswith("restricted-"):
        g = _product_graph(n, weighting[len("restricted-"):], n)
        assert not g.vertex_mask.all()
    else:
        g = gr.full_hypercube(n, _permutation_invariant_weightings(n)[weighting])
    rng = np.random.default_rng([n, len(weighting)])
    for k in (1, n):
        x = rng.standard_normal((k, 1 << n))
        ref = np.empty_like(x)
        sv._laplacian(g.player_weights, x, ref, np.empty((k, x.shape[1] // 2)))
        out = np.full_like(x, np.nan)
        sv._subcube_laplacian(g, k)(x, out)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_subcube_laplacian_chunks_every_block(monkeypatch):
    # chunks smaller than one slab of the top block split its third axis
    n, k = 9, 3
    monkeypatch.setattr(sv, "_CHUNK", 1 << 7)
    g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    x = np.random.default_rng(5).standard_normal((k, 1 << n))
    ref = np.empty_like(x)
    sv._laplacian(g.player_weights, x, ref, np.empty((k, x.shape[1] // 2)))
    out = np.empty_like(x)
    sv._subcube_laplacian(g, k)(x, out)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_subcube_laplacian_refuses_levels_out_of_range():
    n = 6
    # 10**+-80 already misses the product tolerance through underflow;
    # 10**+-40 factors within it, and only the range check refuses it
    for e in (80, 40):
        table = [Fraction(10) ** (e * (-1) ** s) for s in range(n)]
        g = gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality(table))
        assert sv._subcube_laplacian(g, 1) is None
    assert sv._subcube_laplacian(gr.full_hypercube(n), 1) is not None


def test_product_form_refuses_graphs_that_do_not_factor():
    n = 6
    g = _product_graph(n, "degree-product", 7)
    assert g._product_form is not None
    # a removed edge between two feasible coalitions
    edge = gr.Edge(bits(1), 2)
    assert g.contains_vertex(bits(1)) and g.contains_vertex(bits(1, 2))
    for h in (gr.restrict(gr.full_hypercube(n), [], [edge]), gr.restrict(g, [], [edge]),
              _restricted_explicit_graph(n, 43)):
        assert h._product_form is None
        assert sv._subcube_laplacian(h, 1) is None
    # one degree-product weight off by a relative 1e-9
    entries = dict(zip(g.edges(), edge_weights(g)))
    entries[edge] *= 1 + Fraction(1, 10 ** 9)
    off = gr.GameGraph(n, g.vertex_mask, g.edge_mask, gr.EdgeWeighting.explicit(entries))
    assert off._product_form is None


def _count_product_forms(monkeypatch):
    """The graphs whose ``_product_form`` is computed from now on, in order."""
    prop, calls = gr.GameGraph.__dict__["_product_form"], []

    def counted(g):
        calls.append(g)
        return prop.func(g)

    traced = functools.cached_property(counted)
    traced.__set_name__(gr.GameGraph, "_product_form")
    monkeypatch.setattr(gr.GameGraph, "_product_form", traced)
    return calls


def test_product_form_is_computed_once_per_graph(monkeypatch):
    # solve_component over every player computes the form once; the cached
    # form changes no bit of any component.  A degree-product graph gets its
    # form where its weights are made and never computes it.
    n = 7
    vals = np.random.default_rng(54).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    for weighting, computed in (("size-plus-one", 1), ("degree-product", 0)):
        uncached = [sv.solve_component(_product_graph(n, weighting, 54), v, i).values
                    for i in range(n)]
        with monkeypatch.context() as patch:
            calls = _count_product_forms(patch)
            g = _product_graph(n, weighting, 54)
            assert not g.vertex_mask.all()
            for i in range(n):
                comp = sv.solve_component(g, v, i)
                assert np.array_equal(comp.values, uncached[i])
            assert calls == [g] * computed
            dec = sv.decompose(g, v)
            sv.residual_orthogonality(g, v, dec)
            assert calls == [g] * computed
        assert g._product_form is not None
        assert {s.preconditioner for s in dec.diagnostics} == {sv.WALSH}


def _random_size_table(rng, n):
    """A by-cardinality table of n ratios within 10**+-6."""
    return gr.EdgeWeighting.by_cardinality(
        [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(n)])


@pytest.mark.parametrize("seed", range(16))
def test_product_form_matches_the_weights(seed):
    # c0 * b(S) * b(S|{i}) is every edge's weight within the 4 (n + 1) eps
    # relative tolerance of the old numerical search, and b is exactly 0 off
    # the feasible coalitions
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    eps = np.finfo(float).eps
    for weighting in (gr.EdgeWeighting.constant(Fraction(rng.randint(1, 99), rng.randint(1, 9))),
                      gr.EdgeWeighting.size_plus_one(n), _random_size_table(rng, n)):
        cube = gr.full_hypercube(n, weighting)
        for g in (cube, _vertex_restricted(cube, seed)):
            c0, b = g._product_form
            assert c0 == float(weighting.by_size(n)[0])
            assert np.all(b[~g.vertex_mask] == 0.0)
            w = g.player_weights
            for i in range(n):
                ends = b.reshape(-1, 2, 1 << i)
                product = (c0 * ends[:, 0] * ends[:, 1]).reshape(-1)
                assert np.all(np.abs(product - w[i]) <= 4 * (n + 1) * eps * w[i])


def test_degree_products_carry_their_form_bit_for_bit():
    # whatever the input weighting, here explicit: c0 = 1 and b = the degrees
    n = 7
    rng = random.Random(56)
    entries = {e: Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for e in gr.full_hypercube(n).edges() if rng.random() < 0.5}
    g = _vertex_restricted(gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries)), 56)
    assert not g.vertex_mask.all() and g._product_form is None
    h = gr.degree_product_weighting(g)
    c0, b = h._product_form
    assert c0 == 1.0 and np.array_equal(b[h.vertex_mask], h.degrees)
    assert np.all(b[~h.vertex_mask] == 0.0)
    # the weights as the explicit arrays give them, not the table built alongside
    fresh = gr.GameGraph(n, h.vertex_mask, h.edge_mask, h.weighting).player_weights
    for i in range(n):
        ends = b.reshape(-1, 2, 1 << i)
        product = (c0 * ends[:, 0] * ends[:, 1]).reshape(-1)
        assert np.array_equal(product, h.player_weights[i])
        assert np.array_equal(product, fresh[i])


def _count_laplacians(monkeypatch):
    """A list that grows by one on every call of the per-player ``_laplacian``."""
    kernel, calls = sv._laplacian, []

    def counted(*args):
        calls.append(None)
        kernel(*args)

    monkeypatch.setattr(sv, "_laplacian", counted)
    return calls


def test_graphs_without_a_product_form_take_the_per_player_kernel(monkeypatch):
    n = 6
    vals = np.random.default_rng(57).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    edge = gr.Edge(bits(1), 2)
    less_an_edge = gr.restrict(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)), [],
                               [edge])
    assert less_an_edge.contains_vertex(bits(1)) and less_an_edge.contains_vertex(bits(1, 2))
    degree_products = gr.degree_product_weighting(_product_graph(n, "constant", 57))
    assert degree_products._product_form is not None
    # explicit weights that equal the degree products: the same graph to
    # round-off, but nothing reads the form off the float weights
    listed = gr.GameGraph(n, degree_products.vertex_mask, degree_products.edge_mask,
                          gr.EdgeWeighting.explicit(dict(zip(degree_products.edges(),
                                                             edge_weights(degree_products)))))
    # levels up to 10**320: no float() of a level runs before the range check
    alternating = gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality(
        [Fraction(10) ** (80 * (-1) ** s) for s in range(n)]))
    for g in (less_an_edge, gr.degree_product_weighting(less_an_edge), listed, alternating):
        assert g._product_form is None
        assert sv._subcube_laplacian(g, 1) is None
        # the residual check of the exact components (float CG does not
        # converge on weights 10**+-80), and the float decompose elsewhere
        exact = sv.decompose(g, v.as_rational())
        exact = dataclasses.replace(exact, components=tuple(c.as_float()
                                                            for c in exact.components))
        with monkeypatch.context() as patch:
            calls = _count_laplacians(patch)
            sv.residual_orthogonality(g, v, exact)
            assert len(calls) == 1
            if g is not alternating:
                sv.decompose(g, v)
                assert len(calls) > 1
    dec = sv.decompose(listed, v)
    ref = sv.decompose(degree_products, v)
    for comp, want in zip(dec.components, ref.components):
        assert np.max(np.abs(comp.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


def test_a_cg_miss_points_to_the_exact_backend():
    # sizes weighted 10**80 and 10**-80 in turn (the per-player kernel with
    # Jacobi): float CG stops short of its tolerance, and the error names
    # the backend that decomposes the game exactly
    n = 6
    g = gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality(
        [Fraction(10) ** (80 * (-1) ** s) for s in range(n)]))
    vals = np.random.default_rng(57).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    with pytest.raises(ConvergenceError, match=r"^CG for player 0 did not reach tolerance 1e-12 "
                                               r"in 640 iterations \(relative residual .*\); "
                                               r"--backend dense-rational gives exact "
                                               r"components$"):
        sv.decompose(g, v)
    assert sv.decompose(g, v.as_rational()).efficiency_gap == 0


def test_benchmark_graphs_keep_their_route(monkeypatch):
    # graphs shaped like every benchmark case, at small n: constant cubes
    # run spectral, size-plus-one cubes and restricted degree-product cubes
    # run CG with the Walsh preconditioner and the sub-cube apply, and their
    # residual check applies L_w by sub-cube products too
    n = 7
    vals = np.random.default_rng(58).standard_normal(1 << n) * 10.0
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    removed = [bits(0, 1), bits(2, 3, 4), bits(1, 5, 6)]
    cases = ((gr.full_hypercube(n), sv.SPECTRAL, ""),
             (gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)), sv.CG_FLOAT, sv.WALSH),
             (gr.degree_product_weighting(gr.restrict(gr.full_hypercube(n), removed)),
              sv.CG_FLOAT, sv.WALSH))
    for g, engine, preconditioner in cases:
        assert g._product_form is not None
        with monkeypatch.context() as patch:
            calls = _count_laplacians(patch)
            dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
            residuals = sv.residual_orthogonality(g, v, dec)
        assert calls == []
        assert {(s.backend, s.preconditioner) for s in dec.diagnostics} == \
            {(engine, preconditioner)}
        assert max(residuals) <= 1e-9 * np.max(np.abs(vals))


def test_float_residual_orthogonality_takes_the_subcube_apply(monkeypatch):
    # on weights that factor, L_w of the components is the sub-cube apply:
    # the per-player kernel runs only for the n right-hand sides, and the
    # residuals match the half-view sweep to round-off
    n = 7
    vals = np.random.default_rng(55).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    for g, sweeps in ((_product_graph(n, "degree-product", 55), 1),
                      (_restricted_explicit_graph(n, 55), 2)):
        dec = sv.decompose(g, v)
        kernel, calls = sv._add_player_laplacian, []

        def counted(*args):
            calls.append(args[1])
            kernel(*args)

        with monkeypatch.context() as patch:
            patch.setattr(sv, "_add_player_laplacian", counted)
            got = sv.residual_orthogonality(g, v, dec)
        assert sorted(calls) == sorted(list(range(n)) * sweeps)
        X = np.array([c.values for c in dec.components])
        out = np.empty_like(X)
        sv._laplacian(g.player_weights, X, out, np.empty((n, X.shape[1] // 2)))
        out -= sv._rhs(g, vals, range(n))
        ref = np.abs(out[:, g.vertex_mask]).max(axis=1)
        assert np.max(np.abs(np.array(got) - ref)) <= 1e-13 * np.max(np.abs(vals))
        assert max(got) <= 1e-9 * np.max(np.abs(vals))


def _raise(*args):
    raise AssertionError("the per-player Laplacian ran")


def test_cg_routes_product_weightings_to_subcube_apply(monkeypatch):
    n = 5
    vals = np.random.default_rng(39).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT)
    monkeypatch.setattr(sv, "_laplacian", _raise)
    for weighting in _permutation_invariant_weightings(n).values():
        sv.decompose(gr.full_hypercube(n, weighting), v, cfg)
    sv.decompose(gr.restrict(gr.full_hypercube(n), [bits(0, 1)]), v, cfg)
    sv.decompose(_product_graph(n, "degree-product", 39), v, cfg)
    with pytest.raises(AssertionError, match="per-player"):
        sv.decompose(_restricted_explicit_graph(n, 40), v, cfg)


def test_cg_restricted_degree_product_matches_exact(monkeypatch):
    rng = random.Random(44)
    n = 7
    g = _product_graph(n, "degree-product", 44)
    v_rat = gm.game_from_values(n, random_dyadic_values(rng, n))
    exact = sv.decompose(g, v_rat)
    monkeypatch.setattr(sv, "_laplacian", _raise)
    cg = sv.decompose(g, v_rat.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
    feasible = g.vertices
    for a, b in zip(exact.components, cg.components):
        ref = np.array([float(x) for x in a.values])
        got = np.asarray(b.values)
        assert np.max(np.abs(got - ref)[feasible]) <= 1e-9 * np.max(np.abs(ref))
        assert not np.any(got[~g.vertex_mask])
    assert cg.efficiency_gap < 1e-9


@pytest.mark.parametrize("weighting", ["size-plus-one", "by-cardinality"])
def test_float_matches_exact_on_weighted_cubes(weighting):
    # the wide table's float error reaches 1e-7 at this tolerance, before and
    # after the sub-cube apply; this table spans a factor of 28
    table = [2, Fraction(1, 3), 5, Fraction(1, 2), 3, 1, Fraction(1, 4), 7]
    rng = random.Random(41)
    for n in (3, 6, 8):
        g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n) if weighting == "size-plus-one"
                              else gr.EdgeWeighting.by_cardinality(table[:n]))
        v = gm.game_from_values(n, random_dyadic_values(rng, n))
        exact = sv.decompose(g, v)
        cg = sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
        for a, b in zip(exact.components, cg.components):
            ref = np.array([float(x) for x in a.values])
            assert np.max(np.abs(np.asarray(b.values) - ref)) <= 1e-8


def test_float_matches_exact_off_the_subcube_path():
    rng = random.Random(42)
    n = 6
    entries = {e: Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for e in gr.full_hypercube(n).edges() if rng.random() < 0.5}
    explicit = gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries))
    restricted = gr.restrict(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
                             [bits(0, 1), bits(2, 3, 4)])
    for g in (explicit, restricted):
        v = gm.game_from_values(n, random_dyadic_values(rng, n))
        exact = sv.decompose(g, v)
        cg = sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
        for a, b in zip(exact.components, cg.components):
            ref = np.array([float(x) for x in a.values])
            assert np.max(np.abs(np.asarray(b.values) - ref)) <= 1e-8


# ---------------------------------------------------------------------------
# the Walsh preconditioner of float CG
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_solves_constant_cubes_in_one_iteration(n):
    rng = random.Random(n)
    v = gm.game_from_values(n, random_dyadic_values(rng, n))
    for c in (1, Fraction(3, 2), 2 ** 40):
        g = gr.full_hypercube(n, gr.EdgeWeighting.constant(c))
        exact = sv.decompose(g, v)
        assert {s.backend for s in exact.diagnostics} == {sv.SPECTRAL}
        assert {s.preconditioner for s in exact.diagnostics} == {""}
        X, preconditioner, iterations, _ = _cg_float(g, v.as_float())
        assert preconditioner == sv.WALSH
        for a, b, its in zip(exact.components, X, iterations):
            ref = np.array([float(x) for x in a.values])
            assert its == (1 if ref.any() else 0)
            assert np.max(np.abs(b - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("weighting", ["size-plus-one", "by-cardinality", "restricted-constant",
                                       "restricted-degree-product"])
def test_walsh_matches_exact_in_few_iterations(weighting):
    rng = random.Random(len(weighting))
    for n in (3, 6, 8):
        if weighting == "size-plus-one":
            g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
        elif weighting == "by-cardinality":
            g = gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality(range(n, 0, -1)))
        else:
            g = _product_graph(n, weighting[len("restricted-"):], n)
            assert not g.vertex_mask.all()
        v = gm.game_from_values(n, random_dyadic_values(rng, n))
        exact = sv.decompose(g, v)
        assert {s.preconditioner for s in exact.diagnostics} == {""}
        cg = sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
        assert {s.preconditioner for s in cg.diagnostics} == {sv.WALSH}
        assert max(s.iterations for s in cg.diagnostics) <= 12
        for a, b in zip(exact.components, cg.components):
            ref = np.array([float(x) for x in a.values])
            assert np.max(np.abs(np.asarray(b.values) - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("chunk", [None, 1 << 7])
@pytest.mark.parametrize("n", range(1, 13))
def test_blocked_walsh_matches_walsh_hadamard(n, chunk, monkeypatch):
    # chunks of 128 floats split the third axis of the wider blocks
    if chunk is not None:
        monkeypatch.setattr(sv, "_CHUNK", chunk)
    rng = np.random.default_rng(n)
    for k in (1, n):
        x = rng.standard_normal((k, 1 << n))
        # the dense Hadamard matrix, as the Kronecker product of two halves
        # (128 MiB at n = 12 against 288 MiB for sv._hadamard(12) itself)
        ref = x @ np.kron(sv._hadamard(n - n // 2), sv._hadamard(n // 2))
        prod = np.empty(sv._chunk_floats(1 << n, k))
        sv._blocked_walsh(x, [(a, sv._hadamard(w)) for a, w in sv._player_blocks(n)], prod)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def _jacobi_cg(g, v, tol=1e-12):
    """Components and iteration counts of every player of the float game v
    by Jacobi-preconditioned CG, written out step for step as ``_cg_float``
    takes it on a graph that ``_walsh_fits`` refuses."""
    n, k = g.n, g.n
    infeasible = np.flatnonzero(~g.vertex_mask)
    deg = gr._endpoint_sums(g.player_weights)
    dinv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    scratch = np.empty((k, 1 << (n - 1)))
    apply = sv._subcube_laplacian(g, k)
    if apply is None:
        def apply(x, out):
            sv._laplacian(g.player_weights, x, out, scratch)

    def deflate(x):
        x -= x.sum(axis=1, keepdims=True) / g.num_vertices
        x[:, infeasible] = 0.0

    R = sv._rhs(g, np.asarray(v.values), range(n))
    _, scale = np.frexp(np.abs(R).max(axis=1, keepdims=True))
    np.ldexp(R, -scale, out=R)
    deflate(R)
    X, P, AP = np.zeros_like(R), R * dinv, np.empty_like(R)
    rz, b_norm = sv._row_dots(R, P), np.sqrt(sv._row_dots(R, R))
    running, iterations = b_norm > 0, np.zeros(k, dtype=int)
    for it in range(1, (10 << n) + 1):
        if not running.any():
            break
        apply(P, AP)
        alpha = np.divide(rz, sv._row_dots(P, AP), out=np.zeros(k), where=running)[:, None]
        for half in (slice(0, 1 << (n - 1)), slice(1 << (n - 1), 1 << n)):
            np.multiply(P[:, half], alpha, out=scratch)
            X[:, half] += scratch
        AP *= alpha
        R -= AP
        deflate(R)
        rel = np.divide(np.sqrt(sv._row_dots(R, R)), b_norm, out=np.zeros(k), where=running)
        np.multiply(R, dinv, out=AP)
        rz_new = sv._row_dots(R, AP)
        P *= np.divide(rz_new, rz, out=np.zeros(k), where=running)[:, None]
        P += AP
        rz = rz_new
        done = running & (rel <= tol)
        iterations[done] = it
        running &= ~done
    X -= X[:, :1].copy()
    X[:, infeasible] = 0.0
    np.ldexp(X, scale, out=X)
    return X, iterations.tolist()


def test_jacobi_keeps_graphs_whose_weights_span_more_than_three_decades():
    # the alternating 10**3 / 10**-3 table, full and restricted, the size
    # table 10**s, explicit weights 10**k with k in [-3, 3] and a removed
    # edge, and with k in [-6, 6]
    rng = random.Random(46)
    n = 6
    cube = gr.full_hypercube(n)
    wide = {e: Fraction(10) ** rng.randint(-3, 3) for e in cube.edges()}
    entries = {e: Fraction(10) ** rng.randint(-6, 6) for e in cube.edges()}
    graphs = [gr.full_hypercube(n, _permutation_invariant_weightings(n)["wide"]),
              _product_graph(n, "wide", 46),
              gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality(
                  [Fraction(10) ** s for s in range(n)])),
              gr.restrict(gr.full_hypercube(n, gr.EdgeWeighting.explicit(wide)),
                          [bits(0, 1), bits(1, 2, 3)], [gr.Edge(bits(4), 0)]),
              gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries))]
    vals = np.random.default_rng(46).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    for g in graphs:
        dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
        assert {s.preconditioner for s in dec.diagnostics} == {sv.JACOBI}
        X, iterations = _jacobi_cg(g, v)
        assert [s.iterations for s in dec.diagnostics] == iterations
        assert np.array_equal(np.array([c.values for c in dec.components]), X)


def test_walsh_fits_reads_the_weight_spread():
    n = 5
    cube = gr.full_hypercube(n)
    edge = gr.Edge(bits(1), 2)
    for spread, fits in ((1000, True), (1001, False)):
        entries = {e: Fraction(1) for e in cube.edges()}
        entries[edge] = Fraction(spread)
        g = gr.full_hypercube(n, gr.EdgeWeighting.explicit(entries))
        assert sv._walsh_fits(g) is fits
        # a removed edge no longer counts
        assert sv._walsh_fits(gr.restrict(g, [], [edge]))
    for g, fits in ((cube, True),
                    (gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)), True),
                    (_product_graph(n, "degree-product", 47), True),
                    (gr.restrict(cube, [], [gr.Edge(bits(1), 2)]), True),
                    (_restricted_explicit_graph(n, 47), True),
                    (gr.full_hypercube(n, _permutation_invariant_weightings(n)["wide"]), False),
                    (_product_graph(n, "wide", 47), False)):
        assert sv._walsh_fits(g) is fits


def test_walsh_beats_jacobi_on_random_explicit_weights():
    # weights p / q with p in 1..9, q in 1..4 and a removed edge; Jacobi
    # takes 37 iterations here
    rng = random.Random(48)
    n = 6
    g = _restricted_explicit_graph(n, 48)
    v = gm.game_from_values(n, random_dyadic_values(rng, n))
    exact = sv.decompose(g, v)
    cg = sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
    assert {s.preconditioner for s in cg.diagnostics} == {sv.WALSH}
    assert max(s.iterations for s in cg.diagnostics) < min(_jacobi_cg(g, v.as_float())[1])
    for a, b in zip(exact.components, cg.components):
        ref = np.array([float(x) for x in a.values])
        assert np.max(np.abs(np.asarray(b.values) - ref)) <= 1e-9 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# the exact spectral engine (full cube, constant weights)
# ---------------------------------------------------------------------------

def test_spectral_bit_exact_against_factored_path():
    # an explicit weighting that lists one edge at c is the same Laplacian,
    # but a listed edge keeps it off the spectral route
    rng = random.Random(40)
    for n in range(1, 9):
        for c in (1, Fraction(5, 2)):
            v = rational_game(rng, n)
            spectral = sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.constant(c)), v)
            listed = gr.EdgeWeighting.explicit({gr.Edge(0, 0): c}, c)
            factored = sv.decompose(gr.full_hypercube(n, listed), v)
            assert [s.backend for s in spectral.diagnostics] == [sv.SPECTRAL] * n
            assert [s.backend for s in factored.diagnostics] == [sv.DENSE_RATIONAL] * n
            for a, b in zip(spectral.components, factored.components):
                assert a.values == b.values
            assert spectral.efficiency_gap == 0


def test_spectral_solve_component_is_column_of_decompose():
    rng = random.Random(41)
    n = 5
    g = gr.full_hypercube(n, gr.EdgeWeighting.constant(3))
    v = rational_game(rng, n)
    dec = sv.decompose(g, v)
    for i in range(n):
        assert sv.solve_component(g, v, i).values == dec.components[i].values


def test_spectral_routing():
    rng = random.Random(42)
    n = 4
    v = rational_game(rng, n)
    g = gr.full_hypercube(n)
    assert sv.decompose(gr.restrict(g, []), v).diagnostics[0].backend == sv.SPECTRAL
    holdout = gr.restrict(g, [bits(1, 2)])
    assert sv.decompose(holdout, v).diagnostics[0].backend == sv.DENSE_RATIONAL
    weighted = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    assert sv.decompose(weighted, v).diagnostics[0].backend == sv.DENSE_RATIONAL
    with pytest.raises(ConfigError):
        sv.SolverConfig(backend=sv.SPECTRAL)


def test_constant_valued_weightings_take_the_spectral_engine():
    # an even cardinality table and explicit weights that list no edge
    # weigh every edge alike; at n = 13 the factored path would refuse
    # its 8,191 unknowns
    rng = random.Random(49)
    n = 13
    v = rational_game(rng, n)
    constant = sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.constant(2)), v)
    table = sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.by_cardinality([2] * n)), v)
    assert {s.backend for s in table.diagnostics} == {sv.SPECTRAL}
    assert [c.values for c in table.components] == [c.values for c in constant.components]
    n = 6
    v = rational_game(rng, n).as_float()
    ref = sv.decompose(gr.full_hypercube(n), v)
    for w in (gr.EdgeWeighting.by_cardinality([Fraction(7, 3)] * n),
              gr.EdgeWeighting.explicit({}, default=5)):
        dec = sv.decompose(gr.full_hypercube(n, w), v)
        assert dec.diagnostics == ref.diagnostics
        for a, b in zip(dec.components, ref.components):
            assert np.array_equal(a.values, b.values)


def test_spectral_null_players_get_exact_zeros():
    rng = random.Random(43)
    n = 6
    base = random_rational_values(rng, n)
    null = (1 << 1) | (1 << 4)
    v = gm.game_from_values(n, [base[S & ~null] for S in co.enumerate_coalitions(n)])
    dec = sv.decompose(gr.full_hypercube(n), v)
    for i in (1, 4):
        assert all(x == 0 and isinstance(x, Fraction) for x in dec.components[i].values)
    assert not all(x == 0 for x in dec.components[0].values)


def _patched_float_step(monkeypatch, change):
    """Route every spectral float step through change(z) after the true
    ``L_1^+``; returns the list of steps taken."""
    original, steps = sv._unit_pseudo_inverse, []

    def patched(n, prod):
        apply = original(n, prod)

        def step(r, z):
            steps.append(n)
            apply(r, z)
            change(z)
        return step

    monkeypatch.setattr(sv, "_unit_pseudo_inverse", patched)
    return steps


def test_spectral_verification_catches_corrupted_transform(monkeypatch):
    # a float step that solves nothing leaves the exact residual as it was,
    # which raises on that first step instead of looping
    steps = _patched_float_step(monkeypatch, lambda z: z.fill(0.0))
    v = rational_game(random.Random(44), 4)
    with pytest.raises(ArithmeticError, match="gained 0 bits.*this is a bug"):
        sv.decompose(gr.full_hypercube(4), v)
    assert steps == [4]
    with pytest.raises(ArithmeticError, match="gained 0 bits"):
        sv.solve_component(gr.full_hypercube(4), v, 2)
    assert steps == [4, 4]


def _huge_game(rng, n):
    """About 400-digit numerators over large composite denominators."""
    dens = (2 ** 5 * 3 ** 3 * 7, 10 ** 30 - 1, 720720 * 11 ** 4)
    vals = [Fraction(rng.randint(-10 ** 400, 10 ** 400), rng.choice(dens)) for _ in range(1 << n)]
    vals[0] = Fraction(0)
    return gm.game_from_values(n, vals)


def test_spectral_lift_absorbs_a_noisy_float_step(monkeypatch):
    rng, noise = np.random.default_rng(46), [1e-3]
    steps = _patched_float_step(
        monkeypatch, lambda z: np.multiply(z, 1 + noise[0] * rng.uniform(-1, 1, z.shape), out=z))
    # 1e-3 relative noise stays under rint's half unit on the glove game's
    # answer, 48 times its values, so one step is still exact
    glove = gm.make_glove_game()
    assert sv.decompose(gr.full_hypercube(3), glove).allocation() == \
        (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
    assert steps == [3]
    # across many steps 1e-9 costs bits per step, not exactness; 1e-3 cuts a
    # step's gain to about 10 bits, a stall, which raises
    v = _huge_game(random.Random(47), 4)
    listed = gr.EdgeWeighting.explicit({gr.Edge(0, 0): 1}, 1)
    ref = sv.decompose(gr.full_hypercube(4, listed), v)
    steps.clear()
    noise[0] = 1e-9
    dec = sv.decompose(gr.full_hypercube(4), v)
    assert [a.values for a in dec.components] == [b.values for b in ref.components]
    assert len(steps) > 40
    noise[0] = 1e-3
    with pytest.raises(ArithmeticError, match="fewer than 16; this is a bug"):
        sv.decompose(gr.full_hypercube(4), v)


def test_spectral_lift_on_huge_values_matches_the_lifting_route(monkeypatch):
    # residuals far past int64 run on Python ints for many steps
    steps = _patched_float_step(monkeypatch, lambda z: None)
    rng = random.Random(48)
    for n in (4, 5, 6):
        v = _huge_game(rng, n)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        steps.clear()
        spectral = sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.constant(c)), v)
        assert len(steps) > 20
        listed = gr.EdgeWeighting.explicit({gr.Edge(0, 0): c}, c)
        factored = sv.decompose(gr.full_hypercube(n, listed), v)
        assert [s.backend for s in spectral.diagnostics] == [sv.SPECTRAL] * n
        assert [s.backend for s in factored.diagnostics] == [sv.DENSE_RATIONAL] * n
        for a, b in zip(spectral.components, factored.components):
            assert a.values == b.values


def test_huge_values_lift_on_the_float_inverse(monkeypatch):
    # right-hand sides past float64's range lift from their top 62 bits
    # down on the float inverse; the mod-p inverse never runs
    def never(*args):
        raise AssertionError("the mod-p inverse ran")

    monkeypatch.setattr(_exact, "_modular_inverse_matrix", never)
    rng = random.Random(48)
    for n in (4, 5, 6):
        v = _huge_game(rng, n)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        listed = gr.EdgeWeighting.explicit({gr.Edge(0, 0): c}, c)
        lifted = sv.decompose(gr.full_hypercube(n, listed), v)
        spectral = sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.constant(c)), v)
        assert [s.backend for s in lifted.diagnostics] == [sv.DENSE_RATIONAL] * n
        assert max(abs(x) for x in v.values) > 2 ** 1024
        for a, b in zip(lifted.components, spectral.components):
            assert a.values == b.values


@pytest.mark.parametrize("top", [61, 62, 63])
def test_spectral_lift_across_the_int64_boundary(top):
    # right-hand sides L_{1,i} c x whose largest entries sit just below and
    # above 2**62, where the residual leaves int64 for Python ints; the
    # lift's own scale c = 2**n lcm(1..n) makes the pinned solution integral
    n = 5
    c = math.lcm(*range(1, n + 1)) << n
    rng = random.Random(top)
    m = ((1 << top) - 1) // c
    x = np.array([rng.randint(-m, m) for _ in range(1 << n)], dtype=object)
    assert sv._max_bits(x * c) == top  # 61 keeps the right-hand sides in int64
    players = range(n)
    N, scale = sv._spectral_lift(n, x, players)
    assert scale == c
    R = np.zeros((n, 1 << n), dtype=object)
    sv._add_rhs(None, x * c, players, R)
    assert 62 <= sv._max_bits(R) <= 64
    LN = np.zeros_like(N)
    sv._laplacian(None, N, LN, np.empty((n, 1 << (n - 1)), dtype=object))
    assert (LN == R).all() and not N[:, 0].any()
    assert all(type(y) is int for y in N.flat)

def test_exact_efficiency_check_catches_a_wrong_component(monkeypatch):
    # one unit off in the last player's grand-coalition numerator, after
    # each engine's own verification: the integer efficiency check catches it
    spectral, lift = sv._spectral, _exact.DixonSolver.solve

    def off_by_one(solve):
        def wrong(*args):
            X, *rest = solve(*args)
            X[-1, -1] += 1
            return (X, *rest)
        return wrong

    monkeypatch.setattr(sv, "_spectral", off_by_one(spectral))
    monkeypatch.setattr(_exact.DixonSolver, "solve", off_by_one(lift))
    v = rational_game(random.Random(45), 4)
    g = gr.full_hypercube(4, gr.EdgeWeighting.size_plus_one(4))
    for graph in (gr.full_hypercube(4), g):
        with pytest.raises(ArithmeticError, match="efficiency identity"):
            sv.decompose(graph, v)


def test_spectral_capacity_error_before_any_work(monkeypatch):
    # a decompose at n = 8 is estimated at (170 * 8 + 70) * 2**8 bytes and
    # a chunk of 8 * 2**8 * 8 (0.36 MiB), one component at 248 * 2**8 (62 KiB)
    n = 8
    v = rational_game(random.Random(49), n)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 400_000)
    assert sv.decompose(gr.full_hypercube(n), v).diagnostics[0].backend == sv.SPECTRAL

    def never(*args):
        raise AssertionError("transform ran past the cap")

    monkeypatch.setattr(sv, "_unit_pseudo_inverse", never)
    monkeypatch.setattr(sv, "_blocked_walsh", never)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 300_000)
    with pytest.raises(CapacityError, match=r"exact spectral solve of 8 players at n = 8 needs "
                                            r"about 0\.0 GiB and 0\.0 s, more than"):
        sv.decompose(gr.full_hypercube(n), v)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 50_000)
    with pytest.raises(CapacityError, match="exact spectral solve of 1 players at n = 8"):
        sv.solve_component(gr.full_hypercube(n), v, 0)


def _recorded_inverses(monkeypatch):
    """A list that gets a copy of every input of an ``L_1^+`` apply
    (``_unit_pseudo_inverse``): a (1, 2**n) row for the game's potential,
    (rows, 2**(n-1)) for half rows solved on their own."""
    original, inputs = sv._unit_pseudo_inverse, []

    def recorded(n, prod):
        apply = original(n, prod)

        def solve(r, z):
            inputs.append(r.copy())
            apply(r, z)
        return solve

    monkeypatch.setattr(sv, "_unit_pseudo_inverse", recorded)
    return inputs


def _own_half_row(v, i):
    """Player i's half right-hand side ``v(S) - v(S | {i})`` on the
    coalitions S without i, times the power of two that brings its peak
    into [0.5, 1)."""
    pair = np.asarray(v.values).reshape(-1, 2, 1 << i)
    d = (pair[:, 0] - pair[:, 1]).ravel()
    return np.ldexp(d, -np.frexp(np.max(np.abs(d)))[1])


@pytest.mark.parametrize("n", range(1, 11))
def test_float_spectral_reads_every_row_off_the_potential(monkeypatch, n):
    # standard-normal games from 2**-900 to 2**900: every component is the
    # exact one's float to within 1e-12 of its peak, and no row is solved
    # again on its own
    rng = np.random.default_rng(200 + n)
    g = gr.full_hypercube(n, gr.EdgeWeighting.constant(5))
    inputs = _recorded_inverses(monkeypatch)
    for shift in (-900, -40, 0, 40, 900):
        vals = np.ldexp(rng.standard_normal(1 << n), shift)
        vals[0] = 0.0
        v = gm.game_from_values(n, vals, gm.FLOAT)
        exact = [np.array([float(x) for x in sv.solve_component(g, v.as_rational(), i).values])
                 for i in range(n)]
        inputs.clear()
        dec = sv.decompose(g, v)
        assert [x.shape for x in inputs] == [(1, 1 << n)], shift
        assert {s.backend for s in dec.diagnostics} == {sv.SPECTRAL}
        for ref, comp in zip(exact, dec.components):
            assert np.max(np.abs(comp.values - ref)) <= 1e-12 * np.max(np.abs(ref)), shift


def test_float_spectral_transforms_one_potential_row_per_call(monkeypatch):
    # any number of players costs one Walsh inverse of the game's (1, 2**n)
    # row and none of the (k, 2**(n-1)) half rows
    n = 9
    vals = np.random.default_rng(61).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    g = gr.full_hypercube(n)
    inputs = _recorded_inverses(monkeypatch)
    dec = sv.decompose(g, v)
    assert [x.shape for x in inputs] == [(1, 1 << n)]
    for players in ([0, 4, 8], [2, 7]):
        inputs.clear()
        X = sv._solve(g, v, players, sv.SolverConfig())[0]
        assert [x.shape for x in inputs] == [(1, 1 << n)]
        for x, i in zip(X, players):
            want = dec.components[i].values
            assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))
    inputs.clear()
    comp = sv.solve_component(g, v, 3)
    assert [x.shape for x in inputs] == [(1, 1 << n)]
    assert np.max(np.abs(comp.values - dec.components[3].values)) <= \
        1e-13 * np.max(np.abs(comp.values))


@pytest.mark.parametrize("n", [3, 6])
def test_a_wrong_potential_table_falls_back_on_every_row(monkeypatch, n):
    # the game's potential gets the table 2|T| - 1 (1 at T = {}) instead of
    # 2|T|: the check catches every row, every row is solved again on its
    # own half row, and the components are the unmutated ones
    v = gm.game_from_values(n, random_dyadic_values(random.Random(62 + n), n)).as_float()
    g = gr.full_hypercube(n)
    ref = sv.decompose(g, v)
    original = sv._walsh_inverse

    def wrong(eigenvalues, prod):
        if len(eigenvalues) == 1 << n:
            eigenvalues = eigenvalues - 1
        return original(eigenvalues, prod)

    monkeypatch.setattr(sv, "_walsh_inverse", wrong)
    inputs = _recorded_inverses(monkeypatch)
    dec = sv.decompose(g, v)
    assert [x.shape for x in inputs] == [(1, 1 << n), (n, 1 << (n - 1))]
    assert all(s.backend == sv.SPECTRAL and s.residual <= 1e-14 for s in dec.diagnostics)
    for comp, want in zip(dec.components, ref.components):
        assert np.max(np.abs(comp.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


@pytest.mark.parametrize("n", range(1, 13))
def test_float_spectral_matches_cg_and_the_exact_engine(n):
    rng = random.Random(100 + n)
    v = gm.game_from_values(n, random_dyadic_values(rng, n))
    # the components do not depend on the constant
    exact = [np.array([float(x) for x in c.values])
             for c in sv.decompose(gr.full_hypercube(n), v).components]
    for c in (1, Fraction(3, 2), 2 ** 40):
        g = gr.full_hypercube(n, gr.EdgeWeighting.constant(c))
        dec = sv.decompose(g, v.as_float())
        assert all(s == sv.PlayerSolveStats(i, sv.SPECTRAL, 0, s.residual, "")
                   for i, s in enumerate(dec.diagnostics))
        assert all(0 <= s.residual <= 1e-14 for s in dec.diagnostics)
        assert dec.efficiency_gap <= 1e-13 * max(map(abs, v.values))
        X = _cg_float(g, v.as_float())[0]
        for i, (ref, comp) in enumerate(zip(exact, dec.components)):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(comp.values - ref)) <= 1e-13 * scale
            assert np.max(np.abs(comp.values - X[i])) <= 1e-13 * scale


def test_float_spectral_null_players_get_exact_zeros(monkeypatch):
    n = 7
    base = np.random.default_rng(46).standard_normal(1 << n)
    null = (1 << 1) | (1 << 4)
    v = gm.game_from_values(n, [base[S & ~null] - base[0] for S in range(1 << n)], gm.FLOAT)
    g = gr.full_hypercube(n)
    inputs = _recorded_inverses(monkeypatch)
    dec = sv.decompose(g, v)
    assert dec.diagnostics[1].backend == sv.SPECTRAL
    # the potential alone: no row, null or not, is solved again on its own
    assert [x.shape for x in inputs] == [(1, 1 << n)]
    for i in (1, 4):
        assert not np.any(dec.components[i].values)
        assert not np.any(sv.solve_component(g, v, i).values)
        assert dec.diagnostics[i].residual == 0.0
    assert np.any(dec.components[0].values)


def _small_player_graphs(n):
    """Per float route: the graph, its (engine, preconditioner, whether the
    per-player Laplacian runs), and a bound on the last player's miss
    relative to its own scale: on the spectral route the bound this test
    began with, on the others about 30 times what it was when set (3.5e-13
    on both Walsh routes, 2.8e-11 with Jacobi)."""
    return {
        "spectral": (gr.full_hypercube(n, gr.EdgeWeighting.constant(3)),
                     (sv.SPECTRAL, "", False), 1e-12),
        "walsh-subcube": (gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
                          (sv.CG_FLOAT, sv.WALSH, False), 1e-11),
        "walsh-per-player": (_restricted_explicit_graph(n, 53),
                             (sv.CG_FLOAT, sv.WALSH, True), 1e-11),
        "jacobi": (gr.full_hypercube(n, _permutation_invariant_weightings(n)["wide"]),
                   (sv.CG_FLOAT, sv.JACOBI, False), 1e-9),
    }


def test_float_spectral_keeps_a_small_player_accurate_to_its_own_scale(monkeypatch):
    # the last player's marginals are about 1e-6 of the game's scale; a
    # solve at the game's scale would leave its component accurate to the
    # game's scale only, about 1e-10 of its own.  Every float route keeps
    # each player's row at its own power-of-two scale, step sizes and
    # stopping test
    n = 10
    rng = np.random.default_rng(52)
    base, small = rng.standard_normal(1 << n), np.ldexp(rng.standard_normal(1 << n), -20)
    last = 1 << (n - 1)
    vals = np.array([base[S & ~last] + small[S] for S in range(1 << n)])
    v = gm.game_from_values(n, vals - vals[0], gm.FLOAT)
    laplacian, calls = sv._laplacian, []

    def counted(*args):
        calls.append(args)
        laplacian(*args)

    monkeypatch.setattr(sv, "_laplacian", counted)
    inputs = _recorded_inverses(monkeypatch)
    for name, (g, (engine, preconditioner, per_player), bound) in _small_player_graphs(n).items():
        exact = np.array([float(x) for x in sv.solve_component(g, v.as_rational(), n - 1).values])
        calls.clear()
        inputs.clear()
        dec = sv.decompose(g, v)
        assert (dec.diagnostics[-1].backend, dec.diagnostics[-1].preconditioner) == \
            (engine, preconditioner), name
        assert bool(calls) == per_player, name
        if engine == sv.SPECTRAL:
            # the potential misses the small player's row, and that row
            # alone is solved again on its own half row, to its own scale
            assert [x.shape for x in inputs] == [(1, 1 << n), (1, 1 << (n - 1))]
            assert np.array_equal(inputs[1][0], _own_half_row(v, n - 1))
            assert dec.diagnostics[-1].residual <= 1e-14
        for comp in (dec.components[-1].values, sv.solve_component(g, v, n - 1).values):
            assert np.max(np.abs(comp - exact)) <= bound * np.max(np.abs(exact)), name


@pytest.mark.parametrize("shift", [600, -600])
def test_float_spectral_components_scale_exactly_with_the_game(shift):
    n = 9
    vals = np.random.default_rng(47).standard_normal(1 << n)
    vals[0] = 0.0
    g = gr.full_hypercube(n, gr.EdgeWeighting.constant(3))
    base = sv.decompose(g, gm.game_from_values(n, vals, gm.FLOAT))
    scaled = sv.decompose(g, gm.game_from_values(n, np.ldexp(vals, shift), gm.FLOAT))
    assert base.diagnostics[0].backend == sv.SPECTRAL
    for a, b in zip(base.components, scaled.components):
        assert np.array_equal(np.ldexp(a.values, shift), b.values)
    assert scaled.diagnostics == base.diagnostics
    assert scaled.efficiency_gap == np.ldexp(base.efficiency_gap, shift)


def test_float_spectral_check_catches_a_corrupted_transform(monkeypatch):
    n = 5
    vals = np.random.default_rng(48).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    g = gr.full_hypercube(n)
    with pytest.raises(ConvergenceError, match=r"player 0 .* tolerance 1e-20 .*; --backend "
                                               r"dense-rational gives exact components$") as err:
        sv.decompose(g, v, sv.SolverConfig(cg_tolerance=1e-20))
    assert len(err.value.residual_history) == 1  # no iteration to repeat
    original = sv._blocked_walsh

    def corrupted(x, *args):
        original(x, *args)
        x[-1, -1] += 1

    monkeypatch.setattr(sv, "_blocked_walsh", corrupted)
    with pytest.raises(ConvergenceError, match=f"spectral solve for player {n - 1} "):
        sv.decompose(g, v)
    with pytest.raises(ConvergenceError, match="spectral solve for player 2 "):
        sv.solve_component(g, v, 2)


def test_float_spectral_refuses_past_physical_memory_before_any_transform(monkeypatch):
    # at n = 10 a decompose needs about 8 * 2**10 * (2n + 2) bytes plus a
    # chunk of 8 * 2**10 * n (0.25 MiB) on the spectral route, and about
    # 8 * 2**10 * (6.5n + 5) bytes plus the chunk (0.62 MiB) in CG
    n = 10
    vals = np.random.default_rng(49).standard_normal(1 << n)
    vals[0] = 0.0
    v = gm.game_from_values(n, vals, gm.FLOAT)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 400_000)
    assert sv.decompose(gr.full_hypercube(n), v).diagnostics[0].backend == sv.SPECTRAL
    with pytest.raises(CapacityError, match="float solve of 10 players at n = 10"):
        sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)), v)

    def never(*args):
        raise AssertionError("transform ran past the cap")

    # neither the game's potential nor a half row is transformed
    monkeypatch.setattr(sv, "_unit_pseudo_inverse", never)
    monkeypatch.setattr(sv, "_blocked_walsh", never)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 200_000)
    with pytest.raises(CapacityError, match="float solve of 10 players at n = 10"):
        sv.decompose(gr.full_hypercube(n), v)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 30_000)  # one player needs 40 KiB
    with pytest.raises(CapacityError, match="float solve of 1 players at n = 10"):
        sv.solve_component(gr.full_hypercube(n), v, 0)


def test_float_spectral_scales_each_row_by_its_own_power_of_two(monkeypatch):
    # the last player's only marginal is 2**-60 against a game of about
    # 2**1000: under one power of two for the whole game its half row would
    # sit below 2**-1022 and lose its bits; at its own scale it keeps them.
    # The game's potential cannot carry it, so that row alone is solved again
    n = 6
    rng = np.random.default_rng(57)
    base, last = np.ldexp(rng.standard_normal(1 << n), 1000), 1 << (n - 1)
    vals = np.array([base[S & ~last] - base[0] for S in range(1 << n)])
    vals[last] = 2.0 ** -60
    v = gm.game_from_values(n, vals, gm.FLOAT)
    g = gr.full_hypercube(n)
    exact = np.array([float(x) for x in sv.solve_component(g, v.as_rational(), n - 1).values])
    inputs = _recorded_inverses(monkeypatch)
    dec = sv.decompose(g, v)
    assert dec.diagnostics[-1].backend == sv.SPECTRAL
    assert [x.shape for x in inputs] == [(1, 1 << n), (1, 1 << (n - 1))]
    assert np.array_equal(inputs[1][0], _own_half_row(v, n - 1))
    assert dec.diagnostics[-1].residual <= 1e-14
    for comp in (dec.components[-1].values, sv.solve_component(g, v, n - 1).values):
        assert np.max(np.abs(comp - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_spectral_half_cube_inverse_solves_the_antisymmetric_rows():
    # on rows antisymmetric in player i, L_1 is L_{n-1} + 2I on the half
    # without i, and the half-row inverse is that half of L_1^+
    rng = np.random.default_rng(54)
    for n in range(1, 9):
        players = list(range(n))
        x = rng.standard_normal(1 << n)
        full = np.zeros((n, 1 << n))
        sv._add_rhs(None, x, players, full)
        half = np.empty((n, 1 << (n - 1)))
        sv._half_differences(x, players, half)
        prod = np.empty(sv._chunk_floats(1 << n, n))
        solve = sv._unit_pseudo_inverse(n, prod)
        Z, Y = np.empty_like(full), np.empty_like(half)
        solve(full, Z)
        solve(half, Y)
        for j, i in enumerate(players):
            pair = Z[j].reshape(-1, 2, 1 << i)
            assert np.allclose(pair[:, 0].ravel(), Y[j], rtol=0, atol=1e-14)
            assert np.allclose(pair[:, 1], -pair[:, 0], rtol=0, atol=1e-14)
        X = np.empty_like(full)
        sv._mirror(Y, players, X)
        assert np.allclose(X, Z - Z[:, :1], rtol=0, atol=1e-14) and not X[:, 0].any()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_a_wrong_half_cube_table_fails_loudly(monkeypatch, n):
    # the half-cube inverse gets the table 2|T| + 1 instead of 2(|T| + 1):
    # the float check names the first player it fails and the exact lift
    # stalls; neither returns a wrong answer.  A float call reads its rows
    # off the game's potential, which does not read this table, so the
    # float calls here also get the wrong potential table 2|T| - 1 (1 at
    # T = {}), which sends every row to its own half row
    original, wrong_widths = sv._walsh_inverse, {1 << (n - 1)}

    def wrong(eigenvalues, prod):
        if len(eigenvalues) in wrong_widths:
            eigenvalues = eigenvalues - 1
        return original(eigenvalues, prod)

    monkeypatch.setattr(sv, "_walsh_inverse", wrong)
    v = gm.game_from_values(n, random_dyadic_values(random.Random(55 + n), n))
    g = gr.full_hypercube(n)
    wrong_widths.add(1 << n)
    with pytest.raises(ConvergenceError, match="spectral solve for player 0 "):
        sv.decompose(g, v.as_float())
    with pytest.raises(ConvergenceError, match="spectral solve for player 0 "):
        sv.solve_component(g, v.as_float(), 0)
    with pytest.raises(ConvergenceError, match=f"spectral solve for player {n - 1} "):
        sv.solve_component(g, v.as_float(), n - 1)
    wrong_widths.remove(1 << n)
    with pytest.raises(ArithmeticError, match="spectral lifting step gained"):
        sv.decompose(g, v)
    with pytest.raises(ArithmeticError, match="spectral lifting step gained"):
        sv.solve_component(g, v, n - 1)


def test_each_call_builds_only_the_walsh_inverse_it_uses(monkeypatch):
    # the full-cube table serves the float potential and the Walsh
    # preconditioner, the half-cube table the exact lift and a float row
    # solved again on its own; neither is built for a call that does not
    # read it
    n = 6
    full, half = 1 << n, 1 << (n - 1)
    original, widths = sv._walsh_inverse, []

    def recorded(eigenvalues, prod):
        widths.append(len(eigenvalues))
        return original(eigenvalues, prod)

    monkeypatch.setattr(sv, "_walsh_inverse", recorded)
    v = gm.game_from_values(n, random_dyadic_values(random.Random(64), n))
    g = gr.full_hypercube(n)
    # the last player's only marginal sits 2**-60 below a game of about 1,
    # which the potential cannot carry
    small = v.as_float().values.copy()
    last = 1 << (n - 1)
    small[last:] = small[:last]
    small[last] = 2.0 ** -60
    calls = {
        "float decompose": (lambda: sv.decompose(g, v.as_float()), [full]),
        "float component": (lambda: sv.solve_component(g, v.as_float(), 2), [full]),
        "walsh cg": (lambda: sv.decompose(gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
                                          v.as_float()), [full]),
        "fallback": (lambda: sv.decompose(g, gm.game_from_values(n, small, gm.FLOAT)),
                     [full, half]),
        "exact decompose": (lambda: sv.decompose(g, v), [half]),
        "exact component": (lambda: sv.solve_component(g, v, 2), [half]),
        "shapley coefficient": (lambda: closed_form.verify_shapley_coefficient(n, 2, 1), [half]),
    }
    for name, (call, built) in calls.items():
        widths.clear()
        call()
        assert widths == built, name


def test_a_flipped_mirror_fails_the_exact_efficiency_check(monkeypatch):
    # u(S | {i}) = y(S) - y({}) in place of -y(S) - y({}): the lift's own
    # residual is on the half rows and stays 0, so decompose's integer
    # efficiency identity is what catches it
    def flipped(Y, players, out):
        for j, i in enumerate(players):
            pair = out[j].reshape(-1, 2, 1 << i)
            pair[:, 0] = pair[:, 1] = Y[j].reshape(-1, 1 << i) - Y[j, 0]

    monkeypatch.setattr(sv, "_mirror", flipped)
    for n in (2, 5):
        v = rational_game(random.Random(56 + n), n)
        with pytest.raises(ArithmeticError, match="efficiency identity"):
            sv.decompose(gr.full_hypercube(n), v)


def test_float_routing():
    n = 6
    v = gm.game_from_values(n, random_dyadic_values(random.Random(50), n)).as_float()
    g = gr.full_hypercube(n)
    assert sv.decompose(g, v).diagnostics[0].backend == sv.SPECTRAL
    for other in (gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n)),
                  gr.restrict(g, [bits(1, 2)]), _restricted_explicit_graph(n, 51)):
        dec = sv.decompose(other, v)
        assert {s.backend for s in dec.diagnostics} == {sv.CG_FLOAT}
        assert sv.decompose(other, v.as_rational()).diagnostics[0].backend == sv.DENSE_RATIONAL


def test_exact_capacity_error_before_dense_assembly(monkeypatch):
    # 8191 pinned unknowns: past the lifting limit, and the dense system
    # would hold 67M fractions; the refusal comes before any of it is built
    n = 13
    g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    v = gm.game_from_values(n, [0] * (1 << n))
    monkeypatch.setattr(sv, "DixonSolver", None)
    with pytest.raises(CapacityError, match="67,092,481"):
        sv.decompose(g, v)
    with pytest.raises(CapacityError):
        sv.solve_component(g, v, 0)


def test_exact_capacity_error_states_cost():
    n = 13
    g = gr.full_hypercube(n, gr.EdgeWeighting.size_plus_one(n))
    v = gm.game_from_values(n, [0] * (1 << n))
    with pytest.raises(CapacityError, match=r"8191 unknowns .* estimated [\d,]+ s to factor, "
                                            r"[\d,]+ s per player's solve and [\d.]+ GB"):
        sv.decompose(g, v)


def test_exact_capacity_error_before_right_hand_sides(monkeypatch):
    # one removed coalition keeps the factored path: 8190 pinned unknowns
    n = 13
    g = gr.restrict(gr.full_hypercube(n), [bits(0, 1)])
    v = gm.game_from_values(n, [0] * (1 << n))

    def never(*args):
        raise AssertionError("right-hand sides built past the cap")

    monkeypatch.setattr(sv, "_rhs", never)
    with pytest.raises(CapacityError, match="8190 unknowns"):
        sv.decompose(g, v)
    with pytest.raises(CapacityError, match="8190 unknowns"):
        sv.solve_component(g, v, 3)


def test_cg_refuses_past_physical_memory_at_entry(monkeypatch):
    n = 6
    g = gr.full_hypercube(n)
    v = gm.Game(n, gm.FLOAT, [0.0] + [float(S % 5) for S in range(1, 1 << n)])
    cfg = sv.SolverConfig(backend=sv.CG_FLOAT)
    assert sv._physical_memory() > 0
    # a decompose needs about 8 * 2**n * (5n + n/2 + 4) bytes plus two chunks of
    # 8 * 2**n * n (24.5 KiB here), one player's component 8 * 2**n * (5 + n/2 + 4)
    # bytes plus two of 8 * 2**n (7.0 KiB)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 8 << 10)
    built = []
    monkeypatch.setattr(sv, "_rhs", lambda *args: built.append(args))
    with pytest.raises(CapacityError, match=r"float solve of 6 players at n = 6 needs about "
                                            r"0\.0 GiB, more than this machine's 0\.0 GiB"):
        sv.decompose(g, v, cfg)
    assert not built  # refused before any buffer
    monkeypatch.undo()
    monkeypatch.setattr(sv, "_physical_memory", lambda: 8 << 10)
    sv.solve_component(g, v, 0, cfg)
    monkeypatch.setattr(sv, "_physical_memory", lambda: 0)  # unknown: no check
    assert sv.decompose(g, v, cfg).efficiency_gap < 1e-9


# ---------------------------------------------------------------------------
# route matrix: one graph per solve route, each checked the same way
# ---------------------------------------------------------------------------

def _route_graphs():
    """Per case: the graph; the float route, as (engine, preconditioner,
    whether the per-player Laplacian runs); the CG iterations each player
    took before the solver kept one contiguous row per player, now upper
    bounds; a bound on the float components' miss of the exact ones and on
    the float efficiency gap; and a bound on the float orthogonality
    residual.  Bounds are relative to the game's largest value, and each is
    a round number 3 to 15 times (for the orthogonality residual 40 to 300
    times) what these inputs gave when it was set, with one BLAS thread or
    two: misses of about 1e-16 on the spectral route, 1e-13 on Walsh, and
    4e-12 and 1e-11 on the two Jacobi cases, whose weights span six and
    eight decades."""
    rng = random.Random(50)

    def explicit(n, weight):
        return gr.EdgeWeighting.explicit({e: weight() for e in gr.full_hypercube(n).edges()})

    wide = [Fraction(10) ** (3 * (-1) ** s) for s in range(6)]
    # precedence 0 < 1 and 2 < 3: no coalition holds 1 without 0, or 3 without 2
    unordered = [S for S in range(1 << 6)
                 if S & bits(1) and not S & bits(0) or S & bits(3) and not S & bits(2)]
    cut = [gr.Edge(bits(0), 1)]
    return {
        "constant": (gr.full_hypercube(5, gr.EdgeWeighting.constant(Fraction(3, 2))),
                     (sv.SPECTRAL, "", False), [0] * 5, 1e-15, 1e-13),
        "size-plus-one": (gr.full_hypercube(6, gr.EdgeWeighting.size_plus_one(6)),
                          (sv.CG_FLOAT, sv.WALSH, False), [8, 8, 8, 9, 8, 0], 1e-12, 1e-9),
        "degree-product": (gr.degree_product_weighting(
            gr.restrict(gr.full_hypercube(7), [bits(1), bits(0, 2), bits(3, 4, 5)])),
            (sv.CG_FLOAT, sv.WALSH, False), [9] * 6 + [0], 1e-12, 1e-9),
        "down-set": (gr.restrict(gr.full_hypercube(6, gr.EdgeWeighting.size_plus_one(6)),
                                 unordered),
                     (sv.CG_FLOAT, sv.WALSH, False), [13] * 5 + [0], 1e-12, 1e-10),
        "explicit-1e3": (gr.restrict(gr.full_hypercube(
            6, explicit(6, lambda: Fraction(rng.randint(1, 1000)))), [], cut),
            (sv.CG_FLOAT, sv.WALSH, True), [20] * 5 + [0], 1e-12, 1e-7),
        "wide": (gr.full_hypercube(6, gr.EdgeWeighting.by_cardinality(wide)),
                 (sv.CG_FLOAT, sv.JACOBI, False), [19] * 5 + [0], 1e-10, 1e-10),
        "explicit-1e4": (gr.restrict(gr.full_hypercube(
            5, explicit(5, lambda: Fraction(10) ** rng.randint(-4, 4))), [], cut),
            (sv.CG_FLOAT, sv.JACOBI, True), [32, 31, 31, 31, 0], 1e-10, 1e-6),
    }


def test_route_matrix(monkeypatch):
    # every solve route on one graph each: efficiency, a null player,
    # orthogonality, linearity in rational mode, power-of-two scaling in
    # float mode, float against exact, and the route itself, with each
    # player's CG iterations at most those pinned (a broken preconditioner
    # or a mixed-up row still converges, only slower); the per-player
    # kernel is the weighted Laplacian, not the exact spectral lift's L_1 y
    laplacian, calls = sv._laplacian, []

    def counted(w, *args):
        if w is not None:
            calls.append(args)
        laplacian(w, *args)

    monkeypatch.setattr(sv, "_laplacian", counted)

    def solve(g, v):
        calls.clear()
        dec = sv.decompose(g, v)
        (engine, preconditioner), = {(s.backend, s.preconditioner) for s in dec.diagnostics}
        return dec, (v.mode, engine, preconditioner, bool(calls))

    routes = set()
    for name, (g, float_route, iterations, bound, orth_bound) in _route_graphs().items():
        n = g.n
        values = random_dyadic_values(random.Random(n), n)
        v = gm.game_from_values(n, [values[S & ~(1 << (n - 1))] for S in range(1 << n)])
        scale = float(max(abs(x) for x in v.values))
        exact, route = solve(g, v)
        engine = sv.SPECTRAL if name == "constant" else sv.DENSE_RATIONAL
        assert route == (gm.RATIONAL, engine, "", False), name
        routes.add(route)
        assert exact.efficiency_gap == 0
        assert max(sv.residual_orthogonality(g, v, exact)) == 0
        assert not any(exact.components[-1].values), name  # the null last player
        w = gm.game_from_values(n, random_dyadic_values(random.Random(-n), n))
        a, b = Fraction(-3, 7), Fraction(5, 2)
        mixed, route = solve(g, gm.linear_combine(a, v, b, w))
        assert route == (gm.RATIONAL, engine, "", False), name
        for x, y, z in zip(exact.components, sv.decompose(g, w).components, mixed.components):
            assert [a * p + b * q for p, q in zip(x.values, y.values)] == list(z.values), name
        fl, route = solve(g, v.as_float())
        assert route == (gm.FLOAT, *float_route), name
        routes.add(route)
        for shift in (300, -300):  # powers of two scale every float step exactly
            scaled = sv.decompose(g, gm.game_from_values(n, np.ldexp(fl.source.values, shift),
                                                         gm.FLOAT))
            assert scaled.diagnostics == fl.diagnostics, name
            for x, y in zip(fl.components, scaled.components):
                assert np.array_equal(np.ldexp(x.values, shift), y.values), name
        assert max(s.iterations for s in fl.diagnostics) <= max(iterations) * 5 // 4, name
        assert all(s.iterations <= its for s, its in zip(fl.diagnostics, iterations, strict=True)), \
            name
        assert fl.efficiency_gap <= bound * scale, name
        assert max(sv.residual_orthogonality(g, fl.source, fl)) <= orth_bound * scale, name
        assert not np.any(fl.components[-1].values), name
        miss = max(np.max(np.abs(np.asarray(a.values) - [float(x) for x in b.values]))
                   for a, b in zip(fl.components, exact.components))
        assert miss <= bound * scale, name
    assert routes == {(gm.RATIONAL, sv.SPECTRAL, "", False), (gm.FLOAT, sv.SPECTRAL, "", False),
                      (gm.RATIONAL, sv.DENSE_RATIONAL, "", False),
                      (gm.FLOAT, sv.CG_FLOAT, sv.WALSH, False),
                      (gm.FLOAT, sv.CG_FLOAT, sv.WALSH, True),
                      (gm.FLOAT, sv.CG_FLOAT, sv.JACOBI, False),
                      (gm.FLOAT, sv.CG_FLOAT, sv.JACOBI, True)}
