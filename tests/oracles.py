"""Independent brute-force references used by the tests.

Everything here is built from first principles (raw edge lists, numpy
least squares, permutation enumeration) with no reliance on the package
operators or solvers, so agreement is meaningful.
"""

import csv
import io
import json
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


def render_table_reference(n, mode, names, feasible, game, components, format):
    """A decomposition table as render_table prints it, cell by cell:
    ``format_scalar`` per cell, ``csv.writer`` for CSV and
    ``json.dumps(indent=2)`` for JSON.  game and components[i] are value
    sequences over all 2**n coalitions; rows are the feasible coalitions
    by size, then bitset."""
    from hodgeshapley.game import format_scalar

    rows = sorted(feasible, key=lambda S: (bin(S).count("1"), S))
    members = {S: [p for p in range(n) if S >> p & 1] for S in rows}
    cells = {S: [game[S]] + [c[S] for c in components] for S in rows}
    headers = ["v"] + [f"v_{i + 1}" for i in range(n)]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["coalition"] + headers)
        for S in rows:
            key = "[" + ",".join(map(str, members[S])) + "]"
            writer.writerow([key] + [format_scalar(x) for x in cells[S]])
        return buf.getvalue()
    if format == "json":
        def scalar(x):
            return format_scalar(x) if mode == "rational" else float(x)
        doc = {"rows": [{"coalition": members[S], "v": scalar(cells[S][0]),
                         "components": [scalar(x) for x in cells[S][1:]]} for S in rows],
               "allocation": [scalar(x) for x in cells[rows[-1]][1:]]}
        return json.dumps(doc, indent=2) + "\n"
    labels = names if names is not None else [str(p + 1) for p in range(n)]
    table = [["{" + ",".join(labels[p] for p in members[S]) + "}"]
             + [format_scalar(x) for x in cells[S]] for S in rows]
    widths = [max(len(row[c]) for row in [["S"] + headers] + table) for c in range(n + 2)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
             for row in [["S"] + headers] + table]
    rule = "  ".join("-" * w for w in widths)
    lines[1:1] = [rule]
    lines.insert(len(lines) - 1, rule)
    alloc = ", ".join(format_scalar(x) for x in cells[rows[-1]][1:])
    return "\n".join(lines) + f"\nallocation: ({alloc})\n"


def game_from_spec_per_entry(spec):
    """The game_from_spec of a spec with a 'players' list and a known mode,
    one entry at a time through parse_coalition and parse_scalar: the
    values and names, or the SpecFileError the first bad entry raises."""
    from hodgeshapley import coalition as co
    from hodgeshapley.errors import SpecFileError
    from hodgeshapley.game import RATIONAL, Game, parse_scalar

    n, mode = len(spec["players"]), spec.get("mode", RATIONAL)
    vals = [Fraction(0) if mode == RATIONAL else 0.0] * (1 << n)
    listed = {}
    for key, literal in spec.get("values", {}).items():
        try:
            S = co.parse_coalition(key, n)
            x = parse_scalar(literal, mode)
        except ValueError as exc:
            raise SpecFileError(str(exc), location=f"values.{key}") from None
        if S in listed:
            raise SpecFileError(f"coalition {co.coalition_key(S)} is listed twice, as "
                                f"{listed[S]!r} and {key!r}", location=f"values.{key}")
        listed[S] = key
        if S == 0 and x != 0:
            raise SpecFileError("the empty coalition may only be listed with value 0",
                                location=f"values.{key}")
        vals[S] = x
    return Game(n, mode, vals, tuple(map(str, spec["players"])))
