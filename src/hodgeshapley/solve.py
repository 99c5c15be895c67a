"""Solver backends and the per-player decomposition driver.

Each component game solves the singular system ``L_w v_i = L_{w_i} v``
normalized by ``v_i({}) = 0``.  Only the scalar field differs between the
modes, so one code path serves both: vectors live on all ``2**n``
coalitions, one column per player, as ``object`` arrays of Python ints in
rational mode and ``float64`` arrays in float mode; infeasible coalitions
of a restricted graph are rows that stay exactly 0.  Player i's edges
pair the two halves of the strided view ``x.reshape(2**(n-1-i), 2, 2**i,
k)``, so ``L_{w_i}`` is a difference of half-views scaled by row i of
``GameGraph.player_weights`` (or of its integer twin
``integer_weights``), and ``L_w`` is the sum of the n of them.  The
right-hand sides of all players come from one such sweep.

Rational mode computes on Python ints over one common denominator: v as
``D v`` (D the lcm of its denominators), the weights as
``GameGraph.integer_weights``, and each engine returns all players'
columns over one denominator; fractions are built only for the component
games.  On the full cube with one weight c on every edge, in any
weighting kind, both modes run the spectral engine: the Walsh transform
diagonalises both operators (``L_w`` has eigenvalue ``2c|T|`` and
``L_{w_i}`` ``2c[i in T]`` on the character of T), so ``v_i^(T) = [i in
T] v^(T) / |T|``.  Rational mode transforms v once, scatters into the
players' columns (in integers, the quotient by ``lcm(1..n)``; ``n <=
16``) and transforms them back; float mode applies ``L_1^+``, two
transforms around a division by 2|T|, to each player's own ``L_{1,i}
v``, so that a player with small marginals keeps its own precision.
Both check ``L_1 X = L_{1,i} v`` at unit weights column by column:
exactly in rational mode, and to ``cg_tolerance`` in relative residual
in float mode.  Every other graph in rational mode inverts the integer
pinned Laplacian (empty coalition's row and column deleted) mod p once
per graph, by panel-blocked Gauss-Jordan with float64 BLAS panel
updates; a solve then lifts p-adic digits of all players' right-hand
sides as one block until a reconstructed candidate passes the exact
check, up to 4096 unknowns; past that limit it raises ``CapacityError``
before any right-hand side is built.  ``decompose``
checks ``sum_i v_i = v`` exactly after either engine.

Every other graph in float mode runs ``cg_float``: preconditioned
conjugate gradient on all columns at once in preallocated buffers.  Each
column is first scaled by the power of two that brings its largest entry
into [0.5, 1); that is exact, so a game of any magnitude float64 holds
solves to the same bits, scaled.  Each column keeps its own step sizes,
has its residual deflated to mean zero over the feasible coalitions every
step (the constant nullspace), and stops when its unpreconditioned
relative residual meets the tolerance; a stopped column keeps its place
with zero step sizes.  The result is scaled back and shifted to ``v_i({})
= 0``.  The preconditioner is read off the weights.  When they span at
most three decades (max / min <= 1e3 over the edges), it is the Walsh one,
``z = s * L_1^+ (s * r)`` with ``s = sqrt(n / deg)`` and L_1 the
unweighted cube Laplacian: two in-place Walsh transforms around a division
by 2|T|.  Size plus one and restricted degree products take under ten
iterations, random explicit weights about twenty.  Wider weights (explicit
tables spanning decades) keep the inverse weighted degree (Jacobi).  When
the graph keeps every cube edge between two feasible coalitions and every
weight factors as ``w(S, S|{i}) = c_0 b(S) b(S|{i})`` (constant, by
cardinality, size plus one, degree product, on the full cube or with
coalitions removed), ``L_w`` is applied as sub-cube matrix products
instead of n half-view passes: ``L_w x = deg * x - c_0 b * A(b * x)`` with
b = 0 on infeasible coalitions, and the unweighted adjacency A is a
Kronecker sum over the players, so each block of up to five players is one
matmul with that block's cube adjacency on a strided view, in chunks of
bounded size.  The Walsh transform is the Kronecker product of the blocks'
Hadamard matrices and runs through the same chunked products and chunk
buffer.  A graph with a removed edge between feasible coalitions, explicit
weights that do not factor, the right-hand sides and the exact engines
keep the half-view passes.  The solve reads the graph through its masks
and ``player_weights`` only, so it derives no per-edge array, and it
refuses with ``CapacityError`` at entry when its buffers, about ``(6.5 n +
5) * 2**n * 8`` bytes for a full decompose (``(2 n + 6) * 2**n * 8`` on
the spectral route), would exceed physical memory.
Every route needs numpy alone.  All routes land on the same answer, which
is unique up to constants on a connected graph.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import operators as ops
from ._exact import _MAX_UNKNOWNS, DixonSolver
from .errors import CapacityError, ConfigError, ConvergenceError
from .game import FLOAT, RATIONAL, Game
from .graph import GameGraph, _endpoint_sums, _popcounts

DENSE_RATIONAL = "dense_rational"
CG_FLOAT = "cg_float"
_BACKENDS = (DENSE_RATIONAL, CG_FLOAT)
# The engine that both modes run on full cubes with constant weights; it
# shows up in PlayerSolveStats.backend and is not a configurable backend.
SPECTRAL = "spectral"
# The preconditioners of cg_float, in PlayerSolveStats.preconditioner.
WALSH = "walsh"
JACOBI = "jacobi"

# Largest player count of the spectral engine in rational mode, set by the
# cost of exact arithmetic: a full decompose at n = 16 takes about 6 s and
# 225 MB peak RSS on a 2-vCPU box, and both grow faster than 2**n.
_SPECTRAL_MAX_N = 16


@dataclass(frozen=True)
class SolverConfig:
    """Backend choice (``dense_rational`` for rational-mode games,
    ``cg_float`` for float-mode ones; None, the default, follows the
    game's mode; either runs the spectral engine on a constant full cube)
    plus iterative-solver knobs.

    ``cg_tolerance`` bounds every float column's relative residual, in CG
    and in the spectral engine's check.  ``cg_max_iters`` defaults to ``10
    * 2**n`` at solve time; CG takes under ten iterations on size-plus-one
    and degree-product weights, about twenty on random weights within three
    decades (Walsh preconditioner), and tens to hundreds with Jacobi on
    weights that span more.
    """

    backend: str | None = None
    cg_tolerance: float = 1e-12
    cg_max_iters: int | None = None

    def __post_init__(self):
        if self.backend is not None and self.backend not in _BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; expected one of {_BACKENDS}")
        if not self.cg_tolerance > 0:
            raise ConfigError("cg_tolerance must be positive")
        if self.cg_max_iters is not None and self.cg_max_iters < 1:
            raise ConfigError("cg_max_iters must be at least 1")

    def max_iters_for(self, n: int) -> int:
        return self.cg_max_iters if self.cg_max_iters is not None else 10 << n


@dataclass(frozen=True)
class PlayerSolveStats:
    """One player's solve: the engine; its CG iterations (0 outside CG);
    its relative residual, which is ``|r| / |b|`` where CG stops, ``|L_{1,i}
    v - L_1 x| / |L_{1,i} v|`` at unit weights in the float spectral
    engine, and 0 in rational mode; and the CG preconditioner, "walsh" or
    "jacobi" ("" outside CG)."""

    player: int
    backend: str
    iterations: int
    residual: float
    preconditioner: str = ""


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The family of component games plus solver diagnostics.

    ``components[i]`` is player i's component game; on a restricted graph
    its values are meaningful on feasible coalitions only (infeasible
    entries are zero padding).  The components sum back to the original
    game on feasible coalitions: exactly in rational mode, within
    ``efficiency_gap`` in float mode (reported; ``render_table`` checks it).
    """

    graph: GameGraph
    source: Game
    components: tuple[Game, ...]
    diagnostics: tuple[PlayerSolveStats, ...]
    efficiency_gap: float | Fraction

    def allocation(self) -> tuple:
        """Grand-coalition value of each component game."""
        return tuple(c.grand_value() for c in self.components)


# ---------------------------------------------------------------------------
# cached per-graph factorizations
# ---------------------------------------------------------------------------

_rational_solvers: "weakref.WeakKeyDictionary[GameGraph, DixonSolver]" = \
    weakref.WeakKeyDictionary()


def _rational_solver(g: GameGraph) -> DixonSolver:
    """The lifting solver of g's pinned Laplacian (the empty coalition's row
    and column deleted) with the weights ``GameGraph.integer_weights``, so
    scaled by ``D_w`` into a symmetric integer matrix; cached per graph."""
    solver = _rational_solvers.get(g)
    if solver is not None:
        return solver
    m = g.num_vertices - 1
    if m > _MAX_UNKNOWNS:
        # restricted size-plus-one cubes on a 2-vCPU box, one BLAS thread,
        # at 509 / 1021 / 2045 / 4093 unknowns: factor 0.21 / 1.0 / 7.3 /
        # 51 s, a decompose's block lift 0.012 / 0.058 / 0.19 / 0.57 s per
        # player, +11 / 39 / 158 / 638 MB RSS; so about m**3 (the factor's
        # asymptote), m**2 and 38 m**2 bytes
        growth = m / 2045
        raise CapacityError(
            f"exact solve of {m} unknowns exceeds the limit of {_MAX_UNKNOWNS}: "
            f"the dense system would hold {m * m:,} entries; estimated "
            f"{7.3 * growth ** 3:,.0f} s to factor, {0.19 * growth ** 2:,.0f} s per "
            f"player's solve and {0.16 * growth ** 2:,.1f} GB")
    w = g.integer_weights[0][g.edge_player, g.edge_slot]
    if max(w) * g.n < 1 << 62:  # a diagonal entry sums at most n weights
        w = w.astype(np.int64)
    s, t = g.edge_src_pos, g.edge_dst_pos
    A = np.zeros((m + 1, m + 1), dtype=w.dtype)
    np.add.at(A, (s, s), w)
    np.add.at(A, (t, t), w)
    A[s, t] = A[t, s] = -w
    solver = _rational_solvers[g] = DixonSolver(A[1:, 1:])
    return solver


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """``(D * values, D)``: Python ints over D, the lcm of the denominators."""
    D = math.lcm(*(x.denominator for x in values))
    return np.array([x.numerator * (D // x.denominator) for x in values], dtype=object), D


# ---------------------------------------------------------------------------
# right-hand sides and the conjugate-gradient kernel
# ---------------------------------------------------------------------------

def _add_player_laplacian(w_i: np.ndarray | None, i: int, x: np.ndarray, out: np.ndarray,
                          scratch: np.ndarray) -> None:
    """out += L_{w_i} x column by column; the rows of x and out are the 2**n coalitions.

    Player i's edges join the two halves of ``x.reshape(2**(n-1-i), 2,
    2**i, k)``, and ``w_i`` (``GameGraph.player_weights[i]``) lines up with
    either half; ``w_i = None`` means unit weights.  scratch has half of
    x's rows, at least k columns and x's dtype.
    """
    shape = (x.shape[0] >> (i + 1), 2, 1 << i, x.shape[1])
    x, out = x.reshape(shape), out.reshape(shape)
    d = scratch[:, :shape[3]].reshape(shape[0], shape[2], shape[3])
    np.subtract(x[:, 1], x[:, 0], out=d)
    if w_i is not None:
        d *= w_i.reshape(shape[0], shape[2], 1)
    out[:, 1] += d
    out[:, 0] -= d


def _walsh_hadamard(x: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform of every column of x, in place.

    Axis i maps the half-views ``(a, b)`` of ``_add_player_laplacian`` to
    ``(a + b, a - b)``; applied twice, the transform multiplies by 2**n.
    """
    rows, k = x.shape
    scratch = np.empty((rows // 2, k), dtype=x.dtype)
    for i in range(rows.bit_length() - 1):
        h = x.reshape(rows >> (i + 1), 2, 1 << i, k)
        s = scratch.reshape(rows >> (i + 1), 1 << i, k)
        np.add(h[:, 0], h[:, 1], out=s)
        np.subtract(h[:, 0], h[:, 1], out=h[:, 1])
        h[:, 0] = s


def _spectral(g: GameGraph, v: Game, players: Sequence[int], cfg: SolverConfig):
    """Components of v for the given players on a full cube with constant
    weights, as ``(X, den, residuals)``: the components are X / den, and
    residuals the float check's relative residuals (0 in ints).

    In ints X = 2**n * lcm(1..n) * D * (the component), D the lcm of v's
    denominators, and a failed check is a bug.  Floats scale v by a power
    of two first, as ``_cg_float`` does, so a null player's column is
    exactly 0; a check past ``cfg.cg_tolerance`` raises ConvergenceError.
    """
    n, k, rows = g.n, len(players), 1 << g.n
    if v.is_rational:
        if n > _SPECTRAL_MAX_N:
            # memory grows like n * 2**n, time like n**2 * 2**n (the verification)
            growth = n / _SPECTRAL_MAX_N * 2.0 ** (n - _SPECTRAL_MAX_N)
            raise CapacityError(
                f"exact spectral solve at n = {n} exceeds the limit n <= {_SPECTRAL_MAX_N}: "
                f"estimated {6 * growth * n / _SPECTRAL_MAX_N:,.0f} s and {225 * growth:,.0f} MB")
        values, D = _over_common_denominator(v.values)
        ell = math.lcm(*range(1, n + 1))
        q = values.reshape(-1, 1).copy()
        _walsh_hadamard(q)
        q[1:, 0] *= np.array([ell // s for s in _popcounts(n)[1:].tolist()], dtype=object)
        X = np.zeros((rows, k), dtype=object)
        for col, i in enumerate(players):
            shape = (rows >> (i + 1), 2, 1 << i)
            X.reshape(shape + (k,))[:, 1, :, col] = q.reshape(shape)[:, 1]
        _walsh_hadamard(X)
        miss = np.zeros_like(X)  # L_1 X - L_{1,i} (2**n * ell * D v), column by column
        scratch = np.empty((rows // 2, k), dtype=object)
        for j in range(n):
            _add_player_laplacian(None, j, X, miss, scratch)
        _add_rhs(None, values.reshape(-1, 1) * -(ell << n), players, miss)
        if miss.any():
            raise ArithmeticError("spectral solve failed its exact verification; this is a bug")
        X -= X[0].copy()  # normalize v_i({}) = 0
        return X, D * ell << n, [0.0] * k
    # X and the right-hand sides: decomposes and single components at
    # n = 12..16 peaked at 2 k + 2.0..3.4 vectors of 2**n floats and the
    # chunk (tracemalloc)
    _check_float_memory(g, k, 2 * k + 6)
    values = np.asarray(v.values, dtype=np.float64)
    _, scale = np.frexp(np.max(np.abs(values)))
    R = np.zeros((rows, k))
    _add_rhs(None, np.ldexp(values, -scale).reshape(-1, 1), players, R)
    norms = np.sqrt(_column_dots(R, R))
    prod = np.empty(_chunk_floats(rows, k))
    blocks = [(a, _hadamard(s)) for a, s in _player_blocks(n)]
    X = R.copy()
    _blocked_walsh(X, blocks, prod)
    # L_1 has eigenvalue 2|T|, and the two transforms multiply by 2**n
    X *= np.ldexp(1.0 / (2 * np.maximum(_popcounts(n), 1)), -n)[:, None]
    X[0] = 0.0  # the constants, which L_1 maps to 0
    _blocked_walsh(X, blocks, prod)
    np.negative(R, out=R)  # becomes L_1 X - L_{1,i} v, a sum of sub-cube Laplacians
    for a, s in _player_blocks(n):
        _block_product(s * np.eye(1 << s) - _cube_adjacency(s), a, X, R, prod, add=True)
    X -= X[0].copy()  # normalize v_i({}) = 0
    gap = np.sqrt(_column_dots(R, R))
    residuals = np.divide(gap, norms, out=np.where(gap > 0, np.inf, 0.0), where=norms > 0)
    c = np.argmin(residuals <= cfg.cg_tolerance)  # the first miss, if any
    if not residuals[c] <= cfg.cg_tolerance:
        raise ConvergenceError(
            f"spectral solve for player {players[c]} missed tolerance {cfg.cg_tolerance} "
            f"(relative residual {residuals[c]:.3e})", residual_history=[float(residuals[c])])
    np.ldexp(X, scale, out=X)
    return X, 1, residuals.tolist()


def _add_rhs(w: np.ndarray | None, x: np.ndarray, players: Sequence[int], out: np.ndarray) -> None:
    """out[:, col] += L_{w_i} x for player i = players[col], x one column;
    w is a per-player weight table or None for unit weights."""
    scratch = np.empty((x.shape[0] // 2, 1), dtype=x.dtype)
    for col, i in enumerate(players):
        _add_player_laplacian(None if w is None else w[i], i, x, out[:, col:col + 1], scratch)


def _rhs(g: GameGraph, values: np.ndarray, players: Sequence[int]) -> np.ndarray:
    """Right-hand sides L_{w_i} v on all 2**n coalitions, one column per player.

    The output has the dtype of values: object for Python ints, weighted by
    ``GameGraph.integer_weights`` (so scaled by its ``D_w``), or float64,
    weighted by ``player_weights``.
    """
    out = np.zeros((values.shape[0], len(players)), dtype=values.dtype)
    w = g.integer_weights[0] if values.dtype == object else g.player_weights
    _add_rhs(w, values.reshape(-1, 1), players, out)
    return out


def _laplacian_float(w: np.ndarray, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = L_w x column by column."""
    out.fill(0.0)
    for i in range(w.shape[0]):
        _add_player_laplacian(w[i], i, x, out, scratch)


# Players per block of the sub-cube apply.  A block of s players is one
# matmul with a 2**s x 2**s matrix that has s nonzeros a row: wider blocks
# do more redundant flops, narrower ones more passes over the vector.
_BLOCK_PLAYERS = 5
# Floats per matmul chunk: the apply's product temporary stays at 512 KiB
# for any n and for up to 2,048 columns.  Chunks also run faster: with
# the chunking removed, float-cube's largest case took 0.033-0.036 s
# against 0.029 s and its wall time rose about 5 % (three pairs of 12 s
# bench/run.py runs, 2 vCPUs).
_CHUNK = 1 << 16
# Range of the coalition scaling b: b * x then stays far from overflow and
# from subnormals; a weighting past it runs the per-player kernel.
_LEVEL_RANGE = 2.0 ** 256


def _chunk_floats(rows: int, k: int) -> int:
    """Size of the product temporary of the sub-cube apply on (rows, k)
    arrays: at least one row of the widest block, at most the whole array."""
    return min(rows * k, max(_CHUNK, (1 << _BLOCK_PLAYERS) * k))


def _chunks(shape: tuple[int, int, int, int]) -> list[tuple[slice, slice]]:
    """Index pairs for the first and third axes of a view of this shape that
    cut it into pieces of at most ``max(_CHUNK, m * k)`` floats: whole slabs
    of the first axis, or slices of the third when one slab is too big."""
    h, m, l, k = shape
    if l * m * k <= _CHUNK:
        step = _CHUNK // (l * m * k)
        return [(slice(i, i + step), slice(None)) for i in range(0, h, step)]
    step = max(1, _CHUNK // (m * k))
    return [(slice(i, i + 1), slice(j, j + step)) for i in range(h) for j in range(0, l, step)]


def _player_blocks(n: int) -> list[tuple[int, int]]:
    """(first player, width) of the near-equal blocks of at most
    ``_BLOCK_PLAYERS`` players that the sub-cube products act on."""
    count = -(-n // _BLOCK_PLAYERS)
    bounds = [n * j // count for j in range(count + 1)]
    return [(a, e - a) for a, e in zip(bounds, bounds[1:])]


def _cube_adjacency(s: int) -> np.ndarray:
    """Adjacency matrix of the s-player cube, coalitions as row and column indices."""
    t = np.arange(1 << s)
    A = np.zeros((1 << s, 1 << s))
    A[t[:, None], t[:, None] ^ (1 << np.arange(s))] = 1.0
    return A


def _hadamard(s: int) -> np.ndarray:
    """Walsh-Hadamard matrix of the s-player cube: entry (S, T) is (-1)**|S & T|."""
    t = np.arange(1 << s)
    return 1.0 - 2.0 * (_popcounts(s)[t[:, None] & t] & 1)


def _block_product(M: np.ndarray, a: int, x: np.ndarray, out: np.ndarray, prod: np.ndarray,
                   add: bool) -> None:
    """out += M x (add) or out = M x, where M acts on the players a, a+1, ...
    of C-contiguous (2**n, k) arrays; out may be x when not adding.

    Over the view ``x.reshape(2**n / (m * 2**a), m, 2**a, k)``, m = len(M),
    this is one matmul per chunk of ``_chunks``, through prod (at least
    ``_chunk_floats`` floats).  A chunk reads only its own rows, so the
    product may overwrite them.
    """
    m, k = M.shape[0], x.shape[1]
    shape = (x.shape[0] // (m << a), m, 1 << a, k)
    xv, ov = x.reshape(shape), out.reshape(shape)
    for hs, ls in _chunks(shape):
        src = xv[hs, :, ls]
        flat = (src.shape[0], m, src.shape[2] * k)
        t = np.matmul(M, src.reshape(flat), out=prod[:src.size].reshape(flat)).reshape(src.shape)
        o = ov[hs, :, ls]
        if add:
            np.add(o, t, out=o)
        else:
            o[...] = t


def _product_factors(g: GameGraph):
    """``(c0, b)`` with ``w(S, S|{i}) = c0 * b(S) * b(S|{i})`` on every cube
    edge, b a float per coalition with ``b({}) = 1`` and 0 on infeasible
    coalitions; None when g lacks an edge between two feasible coalitions,
    when a weight misses the product by more than a few ulp per level, or
    when b leaves ``_LEVEL_RANGE``.

    c0 is the weight of the first edge out of {}; every other feasible
    coalition takes b from one feasible in-edge, level by level, which the
    graph's formability guarantees.  Read from ``player_weights`` alone.
    """
    n, w, feasible = g.n, g.player_weights, g.vertex_mask
    via = np.full(1 << n, -1)  # the joining player of each coalition's chosen in-edge
    up = np.zeros(1 << n)      # that edge's weight
    for i in reversed(range(n)):
        ends = feasible.reshape(-1, 2, 1 << i)
        present = g.edge_mask[i].reshape(-1, 1 << i)
        if not np.array_equal(present, ends[:, 0] & ends[:, 1]):
            return None
        np.copyto(via.reshape(-1, 2, 1 << i)[:, 1], i, where=present)
        np.copyto(up.reshape(-1, 2, 1 << i)[:, 1], w[i].reshape(-1, 1 << i), where=present)
    if np.any(via[1:][feasible[1:]] < 0):
        return None
    c0 = float(w[np.argmax(g.edge_mask[:, 0]), 0])
    b = np.zeros(1 << n)
    b[0] = 1.0
    sizes = _popcounts(n)
    tol = 4 * (n + 1) * np.finfo(float).eps
    with np.errstate(all="ignore"):
        for level in range(1, n + 1):
            T = np.flatnonzero((sizes == level) & feasible)
            b[T] = up[T] / (c0 * b[T ^ (1 << via[T])])
        for i in range(n):
            h = b.reshape(-1, 2, 1 << i)
            w_i = w[i].reshape(-1, 1 << i)
            if not np.all(np.abs(c0 * h[:, 0] * h[:, 1] - w_i) <= tol * w_i):
                return None
        if not np.all((1 / _LEVEL_RANGE < b[feasible]) & (b[feasible] < _LEVEL_RANGE)):
            return None
    return c0, b


def _subcube_laplacian(g: GameGraph, k: int, deg: np.ndarray | None = None,
                       prod: np.ndarray | None = None):
    """``apply(x, out)``, out = L_w x for C-contiguous (2**n, k) arrays, as
    sub-cube matmuls; None unless ``_product_factors`` factors g's weights.

    With ``w(S, S|{i}) = c0 b(S) b(S|{i})`` on exactly the edges between
    feasible coalitions, ``L_w = diag(deg) - c0 diag(b) A diag(b)``, where
    A is the unweighted cube adjacency and b is 0 on infeasible coalitions;
    deg is ``_endpoint_sums(g.player_weights)`` as a column.  A is a
    Kronecker sum over the players, so over a block of s players starting
    at bit a it acts on the view ``x.reshape(2**(n-a-s), 2**s, 2**a, k)``
    as one matmul with the s-cube's adjacency (``_block_product``), through
    the product chunk prod, which is allocated here when not given.  Unless
    b is 1 everywhere, ``b * x`` is written once per apply into a buffer of
    x's shape.
    """
    factors = _product_factors(g)
    if factors is None:
        return None
    c0, b = factors
    n = g.n
    if deg is None:
        deg = _endpoint_sums(g.player_weights)[:, None]
    b = b[:, None]
    diag = np.divide(deg, b, out=np.zeros_like(deg), where=b > 0)
    scaled = bool(np.any(b != 1.0))
    blocks = [(a, -c0 * _cube_adjacency(s)) for a, s in _player_blocks(n)]
    if prod is None:
        prod = np.empty(_chunk_floats(1 << n, k))
    bx = np.empty((1 << n, k)) if scaled else None

    def apply(x: np.ndarray, out: np.ndarray) -> None:
        # out = b * (deg / b * x - c0 A(b * x)) on feasible rows, 0 elsewhere
        np.multiply(x, diag, out=out)
        y = np.multiply(x, b, out=bx) if scaled else x
        for a, M in blocks:
            _block_product(M, a, y, out, prod, add=True)
        if scaled:
            out *= b

    return apply


def _blocked_walsh(x: np.ndarray, blocks: list[tuple[int, np.ndarray]], prod: np.ndarray) -> None:
    """``_walsh_hadamard`` of x in place, one chunked product per
    (first player, ``_hadamard`` matrix) block; the transform is their
    Kronecker product."""
    for a, H in blocks:
        _block_product(H, a, x, x, prod, add=False)


# Widest spread max / min of a graph's edge weights that takes the Walsh
# preconditioner; wider weights take Jacobi.  In float decomposes at
# n = 10..14 (2 vCPUs, one BLAS thread), Walsh took 0.3-0.9 times Jacobi's
# time at the same efficiency gap on random explicit weights within 10**3,
# constant, size-plus-one, binomial and polynomial size tables and degree
# products, with up to half of the coalitions removed; on explicit 10**k
# weights past k in [-1, 1] and on 10**s size tables it took 1.0-2.0 times,
# and on 10**s a 40-500 times larger gap.  The cut still costs 1.1-2.3
# times on size tables alternating a and 1/a, a >= 3, and on 2**s at
# n <= 12, which take Walsh, and 1.4-1.6 times on binomial size tables
# from n = 14 (spread 1716), which take Jacobi.
_WALSH_MAX_SPREAD = 1e3


def _walsh_fits(g: GameGraph) -> bool:
    """Whether g's edge weights span at most ``_WALSH_MAX_SPREAD``."""
    w, present = g.player_weights, g.edge_mask
    return bool(np.max(w, where=present, initial=0.0)
                <= _WALSH_MAX_SPREAD * np.min(w, where=present, initial=np.inf))


def _walsh_preconditioner(n: int, deg: np.ndarray, prod: np.ndarray):
    """``precondition(r, z)``: z = s * L_1^+ (s * r) with ``s = sqrt(n / deg)``
    (0 on rows without edges), for C-contiguous (2**n, k) arrays.

    L_1, the unweighted cube Laplacian, has eigenvalue 2|T| on the Walsh
    character of T, so its pseudo-inverse is two Walsh transforms around a
    division by 2|T|; T = {} takes 2 instead of 0, so that the
    preconditioner stays definite.  On a full cube with a constant weight
    c, ``s**2 = 1 / c`` and this is ``L_w^+``.  Each transform runs in place
    on z (``_blocked_walsh``) through the product chunk prod.
    """
    s = np.sqrt(np.divide(n, deg, out=np.zeros_like(deg), where=deg > 0))
    # the two unnormalised transforms multiply by 2**n, which this absorbs
    eig = 2.0 * np.maximum(_popcounts(n), 1)
    inv = np.ldexp(1.0 / eig, -n)[:, None]
    blocks = [(a, _hadamard(w)) for a, w in _player_blocks(n)]

    def precondition(r: np.ndarray, z: np.ndarray) -> None:
        np.multiply(r, s, out=z)
        _blocked_walsh(z, blocks, prod)
        z *= inv
        _blocked_walsh(z, blocks, prod)
        z *= s

    return precondition


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine; 0 where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def _check_float_memory(g: GameGraph, k: int, vectors: float) -> None:
    """CapacityError when this many vectors of 2**n floats and the product
    chunk of k columns would not fit in physical memory."""
    rows = 1 << g.n
    need = 8 * (rows * vectors + _chunk_floats(rows, k))
    have = _physical_memory()
    if have and need > have:
        raise CapacityError(
            f"float solve of {k} players at n = {g.n} needs about {need / 2 ** 30:,.1f} GiB, "
            f"more than this machine's {have / 2 ** 30:,.1f} GiB of physical memory")


def _cg_float(g: GameGraph, R: np.ndarray, peak: np.ndarray, players: Sequence[int], tol: float,
              max_iters: int):
    """Deflated CG for L_w X = R, every column at once; R is overwritten.

    Column j solves for player ``players[j]`` with the scalar recurrence
    of one-right-hand-side CG and keeps its place throughout.  The
    preconditioner is ``_walsh_preconditioner`` where ``_walsh_fits``
    accepts the weights, and the inverse weighted degree (Jacobi)
    otherwise.  Each column is scaled by a power of two (exactly) so that
    its largest magnitude, ``peak``, lies in [0.5, 1), and its dot products
    neither overflow nor underflow.  A column stops when its
    unpreconditioned relative residual meets tol; its step sizes are zero
    from then on, so its x and r stay as they are.  Returns (X,
    preconditioner, iterations, residuals), the lists in ``players`` order.
    """
    n_rows, k = R.shape
    w = g.player_weights
    m = g.num_vertices
    infeasible = np.flatnonzero(~g.vertex_mask)
    deg = _endpoint_sums(w)[:, None]
    scratch = np.empty((n_rows // 2, k))
    prod = np.empty(_chunk_floats(n_rows, k))
    apply = _subcube_laplacian(g, k, deg, prod)
    if apply is None:
        def apply(x, out):
            _laplacian_float(w, x, out, scratch)
    if _walsh_fits(g):
        preconditioner = WALSH
        precondition = _walsh_preconditioner(g.n, deg, prod)
    else:
        preconditioner = JACOBI
        # 1 / diag(L_w), 0 on rows without edges
        dinv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)

        def precondition(r, z):
            np.multiply(r, dinv, out=z)

    def deflate(x):
        x -= x.sum(axis=0) / m
        x[infeasible] = 0.0

    _, scale = np.frexp(peak)
    np.ldexp(R, -scale, out=R)
    deflate(R)
    X = np.zeros_like(R)
    P = np.empty_like(R)
    precondition(R, P)
    AP = np.empty_like(R)  # holds L_w p, then the preconditioned residual z
    rz = _column_dots(R, P)
    b_norm = np.sqrt(_column_dots(R, R))
    running = b_norm > 0
    iterations = np.zeros(k, dtype=int)
    residuals = np.zeros(k)
    history = []  # the relative residual of every column, per iteration
    for it in range(1, max_iters + 1):
        if not running.any():
            break
        apply(P, AP)
        alpha = np.divide(rz, _column_dots(P, AP), out=np.zeros(k), where=running)
        for rows in (slice(0, n_rows // 2), slice(n_rows // 2, n_rows)):
            np.multiply(P[rows], alpha, out=scratch)
            X[rows] += scratch
        AP *= alpha
        R -= AP
        # L_w p is orthogonal to constants up to round-off, which deflation
        # removes; x may carry a constant, which the normalization removes
        deflate(R)
        rel = np.divide(np.sqrt(_column_dots(R, R)), b_norm, out=np.zeros(k), where=running)
        history.append(rel)
        done = running & (rel <= tol)
        iterations[done] = it
        residuals[done] = rel[done]
        running &= ~done
        if not running.any():
            break  # no next direction to build
        precondition(R, AP)
        rz_new = _column_dots(R, AP)
        P *= np.divide(rz_new, rz, out=np.zeros(k), where=running)
        P += AP
        rz = rz_new
    if running.any():
        c = np.flatnonzero(running)[0]
        raise ConvergenceError(
            f"CG for player {players[c]} did not reach tolerance {tol} in {max_iters} "
            f"iterations (relative residual {history[-1][c]:.3e})",
            residual_history=[float(h[c]) for h in history])
    X -= X[0].copy()  # normalize v_i({}) = 0
    X[infeasible] = 0.0
    np.ldexp(X, scale, out=X)
    return X, preconditioner, iterations.tolist(), residuals.tolist()


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------

def _check_modes(g: GameGraph, v: Game, cfg: SolverConfig) -> None:
    if v.n != g.n:
        raise ConfigError("game and graph have different player counts")
    if cfg.backend == DENSE_RATIONAL and v.mode != RATIONAL:
        raise ConfigError("dense_rational backend needs a rational-mode game "
                          "(use Game.as_rational())")
    if cfg.backend == CG_FLOAT and v.mode != FLOAT:
        raise ConfigError("cg_float backend needs a float-mode game (use Game.as_float())")


def _verify_mean_zero(g: GameGraph, B: np.ndarray):
    # L_{w_i} v lies in the range of d*, hence is orthogonal to constants:
    # exactly for ints, to round-off for floats.  One column per
    # player; infeasible rows are 0 and add nothing.  The float tolerance
    # is relative to each column's largest entry, so it is 0 for a zero
    # column and scales down with a small one; those peaks are returned
    # (0 for ints), for ``_cg_float`` to scale by.
    peak = 0 if B.dtype == object else np.max(np.abs(B), axis=0)
    if np.any(np.abs(B.sum(axis=0)) > 1e-8 * peak * g.num_vertices):
        raise ArithmeticError("right-hand side is not mean-zero; this is a bug")
    return peak


def _spectral_applies(g: GameGraph) -> bool:
    """Whether g is a full cube whose edges all weigh the same, in any
    weighting kind; the engine solves at unit weight."""
    w = g.weighting
    return g.is_full_cube and len(w.bases) == 0 and len(set(w.by_size(g.n))) == 1


def _solve(g: GameGraph, v: Game, players: Sequence[int], cfg: SolverConfig):
    """Components of v for the given players, as columns on all 2**n coalitions.

    Returns (X, den, engine, preconditioner, iterations, residuals), the
    lists in the order of players; the preconditioner is "" for the exact
    engines.  The components are X / den: Python ints over one common
    denominator in rational mode, floats over 1 in float mode; infeasible
    rows are zero.
    """
    k = len(players)
    if _spectral_applies(g):
        X, den, residuals = _spectral(g, v, players, cfg)
        return X, den, SPECTRAL, "", [0] * k, residuals
    if not v.is_rational:
        # per column four CG buffers, half a scratch, the component's copy and
        # the apply's b * x, plus the weight table and five vectors: full-cube
        # decomposes at n = 16 peaked at 5.1-6.1 * n * 2**n * 8 bytes over v
        _check_float_memory(g, k, 6 * k + g.n / 2 + 5)
        B = _rhs(g, np.asarray(v.values, dtype=np.float64), players)
        peak = _verify_mean_zero(g, B)
        X, preconditioner, iterations, residuals = _cg_float(
            g, B, peak, players, cfg.cg_tolerance, cfg.max_iters_for(g.n))
        return X, 1, CG_FLOAT, preconditioner, iterations, residuals
    # the pinned solver comes first, so that a system past its capacity
    # is refused before any right-hand side is built
    solver = _rational_solver(g)
    values, D = _over_common_denominator(v.values)
    B = _rhs(g, values, players)  # D * D_w * L_{w_i} v
    _verify_mean_zero(g, B)
    X = np.zeros(B.shape, dtype=object)
    X[g.vertices[1:]], den = solver.solve(B[g.vertices[1:]])
    # an exact solve has no residual
    return X, den * D, DENSE_RATIONAL, "", [0] * k, [0.0] * k


def _efficiency_gap(g: GameGraph, v: Game, X: np.ndarray, den):
    """Largest miss of the component sum ``X.sum(axis=1) / den`` against v
    over feasible coalitions; in rational mode an exact check in ints."""
    total = X.sum(axis=1)
    if not v.is_rational:
        return ops._scalar(np.abs(total - v.values)[g.vertex_mask].max())
    for S in g.vertices.tolist():
        if total[S] * v.values[S].denominator != den * v.values[S].numerator:
            raise ArithmeticError("exact decomposition failed the efficiency identity; "
                                  "this is a bug")
    return Fraction(0)


def _component(v: Game, x: np.ndarray, den) -> Game:
    """The component game x / den; rational mode builds its fractions here."""
    if v.is_rational:
        x = [Fraction(y, den) for y in x.tolist()]
    return Game(v.n, v.mode, x, v.names)


def solve_component(g: GameGraph, v: Game, i: int, cfg: SolverConfig | None = None) -> Game:
    """Player i's component game of v on the graph g."""
    cfg = cfg or SolverConfig()
    _check_modes(g, v, cfg)
    if not 0 <= i < g.n:
        raise ConfigError(f"player index {i} outside [0, {g.n})")
    X, den = _solve(g, v, [i], cfg)[:2]
    return _component(v, X[:, 0], den)


def decompose(g: GameGraph, v: Game, cfg: SolverConfig | None = None) -> Decomposition:
    """All component games of v on g, with per-player solve diagnostics."""
    cfg = cfg or SolverConfig()
    _check_modes(g, v, cfg)
    X, den, engine, preconditioner, iterations, residuals = _solve(g, v, range(g.n), cfg)
    gap = _efficiency_gap(g, v, X, den)
    components = tuple(_component(v, X[:, i], den) for i in range(g.n))
    stats = tuple(PlayerSolveStats(i, engine, iterations[i], residuals[i], preconditioner)
                  for i in range(g.n))
    return Decomposition(g, v, components, stats, gap)


def residual_orthogonality(g: GameGraph, v: Game, dec: Decomposition) -> list:
    """Max-norm of d*_w (d v_i - d_i v) per player; zero certifies the split."""
    return [ops.d_star(edge_residual(g, v, dec, i)).norm_inf() for i in range(len(dec.components))]


def edge_residual(g: GameGraph, v: Game, dec: Decomposition, i: int) -> ops.EdgeFunction:
    """The edge function d v_i - d_i v (zero exactly when the split is exact)."""
    u = ops.vertex_function_from_game(g, v)
    ui = ops.vertex_function_from_game(g, dec.components[i])
    return ops.edge_difference(ops.d(ui), ops.d_i(i, u))


def solve_poisson_rational(g: GameGraph, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact solve of L_w u = rhs with u({}) = 0; rhs indexed like graph.vertices."""
    solver = _rational_solver(g)
    b, d = _over_common_denominator(rhs)
    _verify_mean_zero(g, b.reshape(-1, 1))
    X, den = solver.solve(b[1:, None] * g.integer_weights[1])  # D_w * d * rhs
    return [Fraction(0)] + [Fraction(x, den * d) for x in X[:, 0].tolist()]
