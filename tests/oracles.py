"""Independent brute-force references used by the tests.

Everything here is built from first principles (raw edge lists, numpy
least squares, permutation enumeration) with no reliance on the package
operators or solvers, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np


def cube_edges(n, feasible):
    """Canonical (base, player) edge list of the cube induced on feasible vertices."""
    vs = set(feasible)
    return [(S, i) for S in sorted(vs) for i in range(n)
            if not (S >> i) & 1 and (S | (1 << i)) in vs]


def lstsq_component(n, feasible, edges, weights, values, i):
    """Weighted least-squares fit of d u to player i's marginal edge values.

    Returns {coalition: u(coalition)} with u(empty) = 0, computed with
    numpy lstsq on the explicit incidence matrix.
    """
    feasible = sorted(feasible)
    pos = {S: k for k, S in enumerate(feasible)}
    D = np.zeros((len(edges), len(feasible)))
    b = np.zeros(len(edges))
    for e, (S, j) in enumerate(edges):
        T = S | (1 << j)
        D[e, pos[T]] += 1.0
        D[e, pos[S]] -= 1.0
        if j == i:
            b[e] = values[T] - values[S]
    root_w = np.sqrt(np.asarray(weights, dtype=float))
    A = (D * root_w[:, None])[:, 1:]
    sol, *_ = np.linalg.lstsq(A, b * root_w, rcond=None)
    out = np.zeros(len(feasible))
    out[1:] = sol
    return {S: out[pos[S]] for S in feasible}


def brute_shapley(values, n, i):
    """Average marginal contribution over every joining order (exact)."""
    total = Fraction(0)
    for order in permutations(range(n)):
        S = 0
        for j in order:
            if j == i:
                total += Fraction(values[S | (1 << i)]) - Fraction(values[S])
                break
            S |= 1 << j
    return total / factorial(n)


def feasible_orders(n, edges):
    """Joining orders of the n players, in lexicographic order, whose every
    step (S, j) is one of the (base, player) pairs in edges."""
    out = []
    for order in permutations(range(n)):
        S = 0
        for j in order:
            if (S, j) not in edges:
                break
            S |= 1 << j
        else:
            out.append(order)
    return out


def order_average(values, orders, i):
    """Player i's marginal contribution averaged over the orders, summed in
    their order from a zero of the values' own type."""
    total = values[0] * 0
    for order in orders:
        S = 0
        for j in order:
            if j == i:
                total += values[S | (1 << i)] - values[S]
                break
            S |= 1 << j
    return total / len(orders)


def dense_laplacian(n, feasible, edges, weights):
    """Explicit weighted Laplacian matrix (degree-minus-adjacency form)."""
    feasible = sorted(feasible)
    pos = {S: k for k, S in enumerate(feasible)}
    m = len(feasible)
    L = [[Fraction(0)] * m for _ in range(m)]
    for (S, j), w in zip(edges, weights):
        w = Fraction(w)
        a, b = pos[S], pos[S | (1 << j)]
        L[a][a] += w
        L[b][b] += w
        L[a][b] -= w
        L[b][a] -= w
    return feasible, L


def random_rational(rng, max_num=40, max_den=12):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_rational_values(rng, n, max_num=40, max_den=12):
    vals = [random_rational(rng, max_num, max_den) for _ in range(1 << n)]
    vals[0] = Fraction(0)
    return vals


def random_dyadic_values(rng, n, max_num=64, den_pow=6):
    """Float-representable rational game values (denominators are powers of two)."""
    vals = [Fraction(rng.randint(-max_num, max_num), 1 << rng.randint(0, den_pow))
            for _ in range(1 << n)]
    vals[0] = Fraction(0)
    return vals


def modular_inverse(A, p):
    """Inverse of the integer matrix A (list of rows) mod p, by textbook
    Gauss-Jordan on Python ints with the first nonzero pivot below the
    diagonal; None when A is singular mod p."""
    m = len(A)
    M = [[int(x) % p for x in row] + [int(i == j) for j in range(m)]
         for i, row in enumerate(A)]
    for k in range(m):
        piv = next((i for i in range(k, m) if M[i][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        inv = pow(M[k][k], -1, p)
        M[k] = [x * inv % p for x in M[k]]
        for i in range(m):
            c = M[i][k]
            if i != k and c:
                M[i] = [(x - c * y) % p for x, y in zip(M[i], M[k])]
    return [row[m:] for row in M]
