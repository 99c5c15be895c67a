"""Cross-check the solver against closed-form and combinatorial routes.

The component games on the full unweighted cube admit an explicit
binomial-sum expression through the discrete Green's function of the
cube Laplacian; pure bargaining games have an even simpler closed form.
Both must agree with the Laplacian solve to the last bit, as must the
classical coefficient formula and the brute-force permutation average.
The joining coefficients themselves are the grand values of unit games'
components, which the exact spectral engine lifts from float solves in a
fraction of a second at 16 and 17 players.
"""

import random
from fractions import Fraction
from math import factorial

from hodgeshapley import (component_explicit, decompose, full_hypercube,
                          game_from_values, greens_kernel, make_glove_game,
                          make_pure_bargaining_game, pure_bargaining_component,
                          shapley_direct, shapley_permutation_oracle, solve_component,
                          verify_shapley_coefficient)

rng = random.Random(0)

print("=== explicit formula vs. Laplacian solve, random 4-player game ===")
n = 4
vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(1 << n)]
vals[0] = Fraction(0)
v = game_from_values(n, vals)
g = full_hypercube(n)
for i in range(n):
    explicit = component_explicit(v, i)
    solved = solve_component(g, v, i)
    assert explicit.values == solved.values
print("all components agree exactly")

print()
print("=== the joining coefficients, recovered from single-edge sources ===")
# player i's component of the unit game on one coalition S|{i}: its d_i is
# the unit source on the edge (S, S|{i}), and its grand value s!(n-1-s)!/n!
for size in range(4):
    u_N = verify_shapley_coefficient(4, size, 0)
    print(f"coalition size {size}: u(N) = {u_N}")
for n in (16, 17):  # one component each, lifted exactly from float solves
    for size in (0, 8, n - 1):
        u_N = verify_shapley_coefficient(n, size, 0)
        assert u_N == Fraction(factorial(size) * factorial(n - 1 - size), factorial(n))
        print(f"n = {n}, coalition size {size}: u(N) = {u_N}")

print()
print("=== permutation average vs. coefficient formula, glove game ===")
v3 = make_glove_game()
for i in range(3):
    assert shapley_direct(v3, i) == shapley_permutation_oracle(v3, i)
print("both give", [str(shapley_direct(v3, i)) for i in range(3)])

print()
print("=== pure bargaining: one closed-form line per coalition ===")
pb = make_pure_bargaining_game(3, Fraction(1))
dec = decompose(full_hypercube(3), pb)
for i in range(3):
    for S in range(8):
        assert pure_bargaining_component(3, Fraction(1), i, S) == dec.components[i].value(S)
print("closed form matches the solve; each player gets v(N)/n =",
      dec.components[0].grand_value())

print()
print("=== the kernel itself: distance-indexed entries for the 3-cube ===")
K = greens_kernel(3)
for k, x in enumerate(K.by_distance):
    print(f"distance {k}: {x}")
