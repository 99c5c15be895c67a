"""Solver backends: exact rationals, matrix-free CG and one spectral engine.

The exact backend reproduces reference fractions bit-for-bit.  On the
full cube with constant weights both backends take every component from
Walsh-Hadamard transforms (the spectral engine): in integers up to 16
players in rational mode, in float64 as far as memory goes in float mode.
Elsewhere the exact backend factors the Laplacian and scales to about a
dozen players (p-adic lifting keeps it fast well past where naive
fraction elimination bogs down), and the conjugate-gradient backend never
forms the Laplacian: it runs all n
players' solves at once on arrays over the 2**n coalitions, with numpy
alone.  When every edge weight factors as c0 * b(S) * b(T) over its two
ends (constant, by coalition size, size plus one, degree product) and
the graph keeps every edge between two feasible coalitions, it applies
the Laplacian as one small dense matrix product per block of up to five
players (the cube is a product of sub-cubes), and handles 2**16
coalitions in under a second; a removed edge, or explicit weights that
do not factor, take one numpy pass per player instead.  Its Walsh
preconditioner inverts the unweighted cube Laplacian with two Walsh
transforms, so size-plus-one or degree-product weights take under ten
iterations; weights that span more than three decades fall back to the
inverse weighted degree (Jacobi), which keeps badly scaled weights to a
few hundred iterations.  The diagnostics name the engine and the
preconditioner that ran.
"""

import time
from fractions import Fraction

import numpy as np

from hodgeshapley import (CG_FLOAT, DENSE_RATIONAL, EdgeWeighting, SolverConfig, decompose,
                          full_hypercube, game_from_values, make_glove_game)

print("=== two backends, one answer ===")
v = make_glove_game()
g = full_hypercube(3)
exact = decompose(g, v, SolverConfig(backend=DENSE_RATIONAL))
print("exact:", [str(x) for x in exact.allocation()])
dec = decompose(g, v.as_float(), SolverConfig(backend=CG_FLOAT))
drift = max(abs(float(a) - b) for a, b in zip(exact.allocation(), dec.allocation()))
print(f"{CG_FLOAT}: max drift {drift:.2e}")

print()
print("=== float solves at scale: spectral on constant weights, CG elsewhere ===")
for n in (12, 14, 16):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(1 << n)
    vals[0] = 0.0
    game = game_from_values(n, vals, "float")
    for label, weighting in (("constant", EdgeWeighting.constant(1)),
                             ("size plus one", EdgeWeighting.size_plus_one(n))):
        t0 = time.time()
        graph = full_hypercube(n, weighting)
        dec = decompose(graph, game, SolverConfig(backend=CG_FLOAT))
        stats = dec.diagnostics[0]
        engine = stats.backend
        if engine == CG_FLOAT:
            iters = max(s.iterations for s in dec.diagnostics)
            engine += f", max {iters} iterations ({stats.preconditioner})"
        print(f"n={n}, {label}: {graph.num_vertices} vertices, {graph.num_edges} edges, "
              f"{time.time() - t0:5.2f}s, {engine}, efficiency gap {dec.efficiency_gap:.2e}")

print()
print("=== the weights choose the preconditioner (n = 12) ===")
n = 12
vals = np.random.default_rng(0).standard_normal(1 << n)
vals[0] = 0.0
game = game_from_values(n, vals, "float")
for label, weighting in (("size plus one", EdgeWeighting.size_plus_one(n)),
                         ("10^3 and 10^-3 by size", EdgeWeighting.by_cardinality(
                             [Fraction(10) ** (3 * (-1) ** s) for s in range(n)]))):
    dec = decompose(full_hypercube(n, weighting), game, SolverConfig(backend=CG_FLOAT))
    iters = max(s.iterations for s in dec.diagnostics)
    print(f"{label}: {dec.diagnostics[0].preconditioner}, max {iters} CG iterations, "
          f"efficiency gap {dec.efficiency_gap:.2e}")
