"""Closed-form and combinatorial references for the decomposition.

These routes never touch the linear solver (but for
``verify_shapley_coefficient``, which reads the joining coefficient off
a unit game's component), which makes them independent oracles: the
classical marginal-contribution formula, the brute-force average over
permutations and its restricted-graph variant that averages over
feasible permutations only (one walk over the orders serves both, every
player at once), the discrete Green's function of the hypercube
Laplacian, and the explicit binomial-sum expression for the component
games on the full unweighted cube.

All binomial-sum formulas are evaluated in exact rational arithmetic
even for float-mode games (inputs are promoted); the coefficients
cancel catastrophically in floating point once n grows past a dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm
from typing import Iterator

import numpy as np

from . import coalition as co
from .errors import CapacityError, DomainError, InfeasibilityError
from .game import RATIONAL, Game, game_from_values
from .graph import GameGraph, _edge_table, full_hypercube
from .solve import _check_memory, _over_common_denominator, _spectral_applies, \
    _spectral_lift

_PERMUTATION_CAP = 10  # factorial enumeration guard


@lru_cache(maxsize=None)
def _binomial_prefixes(n: int) -> tuple:
    """prefixes[j] = C(n,0) + ... + C(n,j) for j = 0..n."""
    return tuple(accumulate(comb(n, j) for j in range(n + 1)))


@lru_cache(maxsize=None)
def _binomial_tails(n: int) -> tuple:
    """tails[k] = C(n,k+1) + ... + C(n,n) for k = 0..n."""
    return tuple((1 << n) - p for p in _binomial_prefixes(n))


# ---------------------------------------------------------------------------
# classical allocation formulas
# ---------------------------------------------------------------------------

def shapley_direct(v: Game, i: int) -> Fraction | float:
    """Coefficient-weighted sum of player i's marginal contributions."""
    n = v.n
    if not 0 <= i < n:
        raise DomainError(f"player index {i} outside [0, {n})")
    bit = 1 << i
    total = Fraction(0) if v.is_rational else 0.0
    for S in co.enumerate_coalitions(n):
        if S & bit:
            continue
        s = co.size(S)
        coeff = Fraction(factorial(s) * factorial(n - 1 - s), factorial(n))
        marginal = v.values[S | bit] - v.values[S]
        total += coeff * marginal if v.is_rational else float(coeff) * marginal
    return total


def shapley_values(v: Game) -> tuple:
    return tuple(shapley_direct(v, i) for i in range(v.n))


def _check_enumerable(n: int) -> None:
    if n > _PERMUTATION_CAP:
        raise CapacityError(f"permutation enumeration capped at n <= {_PERMUTATION_CAP}")


def _feasible_orders(g: GameGraph) -> Iterator[tuple[int, ...]]:
    """g's feasible joining orders, lazily and in lexicographic order: depth
    first from {} along the edges (S, S|{j}) of ``g.edge_mask``, j ascending."""
    n = g.n
    _check_enumerable(n)
    joiners = [np.flatnonzero(row).tolist() for row in _edge_table(n, g.edge_mask)]

    def extend(order, S):
        if len(order) == n:
            yield order
        for j in joiners[S]:
            yield from extend(order + (j,), S | 1 << j)

    return extend((), 0)


def feasible_permutations(g: GameGraph) -> list[tuple[int, ...]]:
    """The joining orders of g whose every step is a feasible edge, listed."""
    return list(_feasible_orders(g))


def precedence_shapley_values(g: GameGraph, v: Game) -> tuple:
    """Average marginal contribution of every player over the feasible
    joining orders of g, in one walk over the orders.  Rational games are
    summed in ints over the lcm of their denominators."""
    if v.n != g.n:
        raise DomainError("game and graph have different player counts")
    orders = _feasible_orders(g)  # refuses past the cap before any other work
    values, den = _over_common_denominator(v.values) if v.is_rational else (v.values, None)
    values = values.tolist()
    totals = [0] * g.n
    count = 0
    for order in orders:
        S = 0
        for j in order:
            T = S | 1 << j
            totals[j] += values[T] - values[S]
            S = T
        count += 1
    if not count:
        raise InfeasibilityError("no feasible permutation path from the empty coalition "
                                 "to the grand coalition")
    if den is None:
        return tuple(t / count for t in totals)
    return tuple(Fraction(t, den * count) for t in totals)


def precedence_shapley_oracle(g: GameGraph, v: Game, i: int) -> Fraction | float:
    """Average marginal contribution of i over the feasible joining orders of g."""
    if not 0 <= i < g.n:
        raise DomainError(f"player index {i} outside [0, {g.n})")
    return precedence_shapley_values(g, v)[i]


def shapley_permutation_oracle(v: Game, i: int) -> Fraction | float:
    """Average marginal contribution of i over all n! joining orders."""
    _check_enumerable(v.n)
    if not 0 <= i < v.n:
        raise DomainError(f"player index {i} outside [0, {v.n})")
    return precedence_shapley_values(full_hypercube(v.n), v)[i]


# ---------------------------------------------------------------------------
# discrete Green's function of the unweighted cube Laplacian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreensKernel:
    """Inverse of the cube Laplacian on mean-zero functions.

    The kernel value depends only on the Hamming distance between the
    two coalitions, so it is tabulated per distance.
    """

    n: int
    by_distance: tuple[Fraction, ...]

    def value(self, S: co.Coalition, T: co.Coalition) -> Fraction:
        return self.by_distance[co.distance(S, T)]

    def apply(self, y: list[Fraction]) -> list[Fraction]:
        """Dense kernel-vector product over all coalitions."""
        size = 1 << self.n
        return [sum((self.by_distance[co.distance(S, T)] * y[T] for T in range(size)),
                    Fraction(0)) for S in range(size)]


def greens_kernel(n: int) -> GreensKernel:
    """Distance-indexed kernel entries for the n-cube."""
    if n < 1:
        raise DomainError("kernel requires at least one player")
    co.check_player_count(n)
    prefixes = _binomial_prefixes(n)
    tails = _binomial_tails(n)
    scale = Fraction(1, n * (1 << (2 * n)))
    values = []
    for k in range(n + 1):
        total = Fraction(0)
        for j in range(n):
            if j < k:
                total -= Fraction(prefixes[j] * tails[j], comb(n - 1, j))
            else:
                total += Fraction(tails[j] * tails[j], comb(n - 1, j))
        values.append(scale * total)
    return GreensKernel(n, tuple(values))


def kernel_difference(n: int, k: int) -> Fraction:
    """K(S, T|{i}) - K(S, T) for S, T in the i-free face at distance k."""
    tails = _binomial_tails(n)
    return -Fraction(tails[k], n * (1 << n) * comb(n - 1, k))


# ---------------------------------------------------------------------------
# explicit component formula on the full unweighted cube
# ---------------------------------------------------------------------------

def component_explicit(v: Game, i: int, graph: GameGraph | None = None) -> Game:
    """Player i's component game via the binomial-sum formula.

    Valid on a full cube whose edges all weigh the same; pass the graph
    to have that checked.  Works in exact rational arithmetic; a
    float-mode input is promoted exactly and the result converted back.
    """
    if graph is not None:
        if not _spectral_applies(graph):
            raise DomainError("the explicit component formula applies to the full "
                              "hypercube with constant weights only")
        if graph.n != v.n:
            raise DomainError("game and graph have different player counts")
    n = v.n
    if not 0 <= i < n:
        raise DomainError(f"player index {i} outside [0, {n})")
    vals = v.values if v.is_rational else [Fraction(float(x)) for x in v.values]
    bit = 1 << i
    coeff = [-kernel_difference(n, k) for k in range(n)]
    free = [S for S in co.enumerate_coalitions(n) if not S & bit]
    marginal = {T: vals[T | bit] - vals[T] for T in free}
    upper = {}
    for S in free:
        acc = Fraction(0)
        for T in free:
            m = marginal[T]
            if m:
                acc += coeff[co.distance(S, T)] * m
        upper[S] = acc
    shift = upper[0]  # -u_i({}) since u_i({}) = -u_i({i})
    out = [Fraction(0)] * (1 << n)
    for S in free:
        out[S | bit] = upper[S] + shift
        out[S] = -upper[S] + shift
    if v.is_rational:
        return game_from_values(n, out, RATIONAL, v.names)
    return game_from_values(n, [float(x) for x in out], v.mode, v.names)


def pure_bargaining_component(n: int, total, i: int, S: co.Coalition):
    """Component value v_i(S) when only the grand coalition has worth ``total``."""
    if n < 1:
        raise DomainError("need at least one player")
    if not 0 <= i < n:
        raise DomainError(f"player index {i} outside [0, {n})")
    if not 0 <= S < (1 << n):
        raise DomainError("coalition out of range")
    as_float = isinstance(total, float)
    worth = Fraction(total)
    prefixes = _binomial_prefixes(n)
    base_size = co.size(S & ~(1 << i))
    ratio = Fraction(prefixes[base_size], comb(n - 1, base_size))
    scale = Fraction(1, n * (1 << n))
    if (S >> i) & 1:
        result = scale * (1 + ratio) * worth
    else:
        result = scale * (1 - ratio) * worth
    return float(result) if as_float else result


def verify_shapley_coefficient(n: int, s: int, i: int) -> Fraction:
    """u(N) for player i's component u of the unit game on S|{i}, |S| = s.

    ``d_i`` of that game is the unit edge function chi on (S, S|{i}), so u
    solves ``L u = d* chi`` with ``u({}) = 0`` on the full unweighted cube.
    The contract is the joining coefficient s! (n-1-s)! / n!, whichever
    edge is chosen.  The unit game goes to the exact spectral lift as one
    int64 vector, with no Fractions, and is solved on the half cube of
    coalitions without i: 0.12 s and +88 MiB at n = 20 (one BLAS thread,
    2 vCPUs).
    """
    if not 0 <= s <= n - 1:
        raise DomainError(f"cardinality {s} outside [0, {n - 1}]")
    if not 0 <= i < n:
        raise DomainError(f"player index {i} outside [0, {n})")
    joined = co.from_members([j for j in range(n) if j != i][:s] + [i], n)
    # the unit game times c = 2**n lcm(1..n), whose component is integral,
    # as the exact spectral solve scales it; u(N) alone is read off the row
    _check_memory(n, 1, 112, "exact spectral solve")  # 97..114 B at n = 17..20
    c = lcm(*range(1, n + 1)) << n
    unit = np.zeros(1 << n, dtype=np.int64)
    unit[joined] = c
    return Fraction(int(_spectral_lift(n, unit, [i])[0, -1]), c)
