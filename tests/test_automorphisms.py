"""Symmetry of the decomposition under a graph's own automorphisms.

A swap sigma = (a b) of two players that maps a graph onto itself (its
feasible coalitions and its edge weights) relabels every component:
``decompose(g, sigma* v).components[sigma(i)]`` is ``sigma*`` of
``decompose(g, v).components[i]``, and a sigma-symmetric game gives a and
b the same grand-coalition value.  The graphs cover every engine: the
spectral one, exact lifting, and CG with the Walsh and the Jacobi
preconditioner.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley import graph as gr
from hodgeshapley import solve as sv
from oracles import random_dyadic_values

N, A, B = 5, 1, 3
SIGMA = [B if j == A else A if j == B else j for j in range(N)]
# closed under sigma: {0,1} and {0,3} swap, {2,4} holds neither a nor b
REMOVED = [co.from_members(m) for m in ([0, 1], [0, 3], [2, 4])]


def _symmetric_explicit(rng, exponents):
    """Explicit weights 2**k, k drawn from exponents, equal on every edge and
    its image under sigma."""
    entries = {}
    for e in gr.full_hypercube(N).edges():
        image = gr.Edge(co.apply_permutation(SIGMA, e.base), SIGMA[e.player])
        entries[e] = entries.get(image, Fraction(2) ** rng.choice(exponents))
    return gr.EdgeWeighting.explicit(entries)


def _graphs():
    rng = random.Random(80)
    narrow = _symmetric_explicit(rng, range(-2, 3))
    wide = _symmetric_explicit(rng, [-6, 6])  # a spread of 2**12: Jacobi
    graphs = {}
    for name, w in (("constant", gr.EdgeWeighting.constant(3)),
                    ("size-plus-one", gr.EdgeWeighting.size_plus_one(N)),
                    ("explicit", narrow), ("explicit-wide", wide)):
        graphs[f"cube/{name}"] = gr.full_hypercube(N, w)
        graphs[f"restricted/{name}"] = gr.restrict(gr.full_hypercube(N, w), REMOVED)
    restricted = graphs["restricted/constant"]
    graphs["restricted/degree-product"] = gr.degree_product_weighting(restricted)
    return graphs


def test_sigma_is_an_automorphism_of_every_graph():
    for name, g in _graphs().items():
        for S in range(1 << N):
            image = co.apply_permutation(SIGMA, S)
            assert g.contains_vertex(S) == g.contains_vertex(image), name
        for e in g.edges():
            image = gr.Edge(co.apply_permutation(SIGMA, e.base), SIGMA[e.player])
            assert g.weighting.weight(e) == g.weighting.weight(image), name


def _close(x, y):
    """y equals x within 1e-12 of x's peak (exactly when x is all zeros)."""
    return np.max(np.abs(np.subtract(x, y))) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("mode", [gm.RATIONAL, gm.FLOAT])
def test_components_follow_the_swap(mode):
    rng = random.Random(81)
    routes = set()
    for name, g in _graphs().items():
        v = gm.game_from_values(N, random_dyadic_values(rng, N))
        if mode == gm.FLOAT:
            v = v.as_float()
        dec = sv.decompose(g, v)
        swapped = sv.decompose(g, gm.pullback(SIGMA, v))
        routes |= {(s.backend, s.preconditioner) for s in dec.diagnostics}
        for i in range(N):
            want = gm.pullback(SIGMA, dec.components[i]).values
            got = swapped.components[SIGMA[i]].values
            if mode == gm.RATIONAL:
                assert got == want, (name, i)
            else:
                assert _close(want, got), (name, i)
        # a sigma-symmetric game: the mean of v and its pullback, exact on
        # dyadic values in both modes
        both = gm.linear_combine(Fraction(1, 2), v, Fraction(1, 2), gm.pullback(SIGMA, v))
        grand = sv.decompose(g, both).allocation()
        if mode == gm.RATIONAL:
            assert grand[A] == grand[B], name
        else:
            assert abs(grand[A] - grand[B]) <= 1e-12 * max(map(abs, grand)), name
    if mode == gm.RATIONAL:
        assert routes == {(sv.SPECTRAL, ""), (sv.DENSE_RATIONAL, "")}
    else:
        assert routes == {(sv.SPECTRAL, ""), (sv.CG_FLOAT, sv.WALSH), (sv.CG_FLOAT, sv.JACOBI)}
