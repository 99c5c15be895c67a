"""Solver backends and the per-player decomposition driver.

Each component game solves the singular system ``L_w v_i = L_{w_i} v``
normalized by ``v_i({}) = 0``.  Only the scalar field differs between the
modes, so one code path serves both: vectors live on all ``2**n``
coalitions, one column per player, as ``object`` arrays of fractions in
rational mode and ``float64`` arrays in float mode; infeasible coalitions
of a restricted graph are rows that stay exactly 0.  Player i's edges
pair the two halves of the strided view ``x.reshape(2**(n-1-i), 2, 2**i,
k)``, so ``L_{w_i}`` is a difference of half-views scaled by row i of
``GameGraph.player_weights`` (or its exact twin
``player_weight_fractions``), and ``L_w`` is the sum of the n of them.
The right-hand sides of all players come from one such sweep.

Rational mode has two engines.  On the full cube with a constant weight
c the Walsh transform diagonalises both operators: ``L_w`` has
eigenvalue ``2c|T|`` and ``L_{w_i}`` has ``2c[i in T]`` on the character
of T, so ``v_i^(T) = [i in T] v^(T) / |T|``.  The spectral engine does
this in integers (v scaled by its denominator lcm, the quotient by
``lcm(1..n)``), inverse-transforms every player's column in one sweep,
verifies ``L_w X = L_{w_i} v`` column by column in integers, and only
then builds fractions; it takes ``n <= 16``.  Every other graph scales
its weights by their common denominator and inverts the integer pinned
Laplacian (empty coalition's row and column deleted) mod p once per
graph, by panel-blocked Gauss-Jordan with float64 BLAS panel updates;
each solve then lifts p-adic digits only until a reconstructed candidate
passes the exact check, up to 4096 unknowns; past that limit the solve
raises ``CapacityError`` before any right-hand side is built.

Float mode has one engine, ``cg_float``: conjugate gradient on all
columns at once in preallocated buffers, preconditioned by the inverse
weighted degree (Jacobi), which is a scalar on a full cube with a
constant weight.  Each column is first scaled by the power of two that
brings its largest entry into [0.5, 1); that is exact, so a game of any
magnitude float64 holds solves to the same bits, scaled.  Each column
keeps its own step sizes, has its residual deflated to mean zero over
the feasible coalitions every step (the constant nullspace), and stops
when its unpreconditioned relative residual meets the tolerance; a
stopped column keeps its place with zero step sizes.  The result is
scaled back and shifted to ``v_i({}) = 0``.  On a full cube whose weight
depends only on |S| (constant, by cardinality, size plus one), ``L_w``
is applied as sub-cube matrix products instead of n half-view passes:
with a level scaling b of the coalitions, ``L_w = diag(deg) - c_0
diag(b) A diag(b)``, and the unweighted adjacency A is a Kronecker sum
over the players, so each block of up to five players is one matmul with
that block's cube adjacency on a strided view, in chunks of bounded
size.  Other graphs, the right-hand sides and the exact engines keep the
half-view passes.  The solve reads the graph through its vertex mask and
``player_weights`` only, so it derives no per-edge array, and it refuses
with ``CapacityError`` at entry when its buffers, about ``(5.5 n + 4) *
2**n * 8`` bytes for a full decompose, would exceed physical memory.
Every route needs numpy alone.  All routes land on the same answer,
which is unique up to constants on a connected graph.
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
from .graph import CONSTANT, GameGraph, _endpoint_sums, _popcounts

DENSE_RATIONAL = "dense_rational"
CG_FLOAT = "cg_float"
_BACKENDS = (DENSE_RATIONAL, CG_FLOAT)
# The engine that rational mode runs on full cubes with constant weights;
# it shows up in PlayerSolveStats.backend and is not a configurable backend.
SPECTRAL = "spectral"

# Largest player count of the spectral engine: a full decompose at n = 16
# takes about 6 s and 225 MB peak RSS on a 2-vCPU box, and both grow
# faster than 2**n.
_SPECTRAL_MAX_N = 16


@dataclass(frozen=True)
class SolverConfig:
    """Backend choice (``dense_rational`` for rational-mode games,
    ``cg_float`` for float-mode ones) plus iterative-solver knobs.

    ``cg_max_iters`` defaults to ``10 * 2**n`` at solve time; the
    unweighted cube Laplacian has condition number n on the mean-zero
    subspace, so CG actually converges in a few dozen iterations.
    """

    backend: str = DENSE_RATIONAL
    cg_tolerance: float = 1e-12
    cg_max_iters: int | None = None

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; expected one of {_BACKENDS}")
        if not self.cg_tolerance > 0:
            raise ConfigError("cg_tolerance must be positive")
        if self.cg_max_iters is not None and self.cg_max_iters < 1:
            raise ConfigError("cg_max_iters must be at least 1")

    def max_iters_for(self, n: int) -> int:
        return self.cg_max_iters if self.cg_max_iters is not None else 10 << n


@dataclass(frozen=True)
class PlayerSolveStats:
    player: int
    backend: str
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The family of component games plus solver diagnostics.

    ``components[i]`` is player i's component game; on a restricted graph
    its values are meaningful on feasible coalitions only (infeasible
    entries are zero padding).  The components sum back to the original
    game on feasible coalitions: exactly in rational mode, within
    ``efficiency_gap`` (checked against solver tolerance) in float mode.
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

_rational_solvers: "weakref.WeakKeyDictionary[GameGraph, _RationalPinnedSolver]" = \
    weakref.WeakKeyDictionary()


class _RationalPinnedSolver:
    """Exact solver for the reduced (empty-coalition-pinned) weighted Laplacian.

    The weights are scaled by their common denominator ``D_w``, so the
    pinned matrix is a symmetric integer matrix and ``L x = b`` becomes
    ``(D_w L) x = D_w b``.
    """

    def __init__(self, g: GameGraph):
        m = g.num_vertices - 1
        if m > _MAX_UNKNOWNS:
            # restricted size-plus-one cubes on a 2-vCPU box, one BLAS thread,
            # at 509 / 1021 / 2045 / 4093 unknowns: factor 0.13 / 0.83 / 5.3 /
            # 39 s, one solve 0.03 / 0.09 / 0.59 / 4.0 s, +11 / 39 / 157 / 637 MB
            # RSS; so about m**3 (the factor's asymptote), m**2.7 and 38 m**2 bytes
            growth = m / 2045
            raise CapacityError(
                f"exact solve of {m} unknowns exceeds the limit of {_MAX_UNKNOWNS}: "
                f"the dense system would hold {m * m:,} entries; estimated "
                f"{5.3 * growth ** 3:,.0f} s to factor, {0.6 * growth ** 2.7:,.0f} s per "
                f"player's solve and {0.16 * growth ** 2:,.1f} GB")
        nums, dens = g.weight_ratios
        self._scale = math.lcm(*set(dens.tolist()))
        w = [x * (self._scale // y) for x, y in zip(nums.tolist(), dens.tolist())]
        # a diagonal entry sums at most n weights
        w = np.array(w, dtype=np.int64 if max(w) * g.n < 1 << 62 else object)
        s, t = g.edge_src_pos, g.edge_dst_pos
        A = np.zeros((m + 1, m + 1), dtype=w.dtype)
        np.add.at(A, (s, s), w)
        np.add.at(A, (t, t), w)
        A[s, t] = A[t, s] = -w
        self._lift = DixonSolver(A[1:, 1:])

    def solve(self, b: Sequence[Fraction]) -> list[Fraction]:
        d = math.lcm(*(x.denominator for x in b))
        y = self._lift.solve([x.numerator * (d // x.denominator) * self._scale for x in b])
        return [x / d for x in y]


def _rational_solver(g: GameGraph) -> _RationalPinnedSolver:
    solver = _rational_solvers.get(g)
    if solver is None:
        solver = _RationalPinnedSolver(g)
        _rational_solvers[g] = solver
    return solver


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


def _spectral_rational(g: GameGraph, v: Game, players: Sequence[int]) -> np.ndarray:
    """Exact components of v for the given players on a full cube with
    constant weights, as fraction columns on all 2**n coalitions.

    In integers: X = 2**n * lcm(1..n) * D * (component), D the lcm of v's
    denominators.  X is checked against ``L X = 2**n * lcm(1..n) * L_i (D v)``
    with unit weights (the constant weight cancels) before any fraction is
    built.
    """
    n = g.n
    if n > _SPECTRAL_MAX_N:
        # memory grows like n * 2**n, time like n**2 * 2**n (the verification)
        growth = n / _SPECTRAL_MAX_N * 2.0 ** (n - _SPECTRAL_MAX_N)
        raise CapacityError(
            f"exact spectral solve at n = {n} exceeds the limit n <= {_SPECTRAL_MAX_N}: "
            f"estimated {6 * growth * n / _SPECTRAL_MAX_N:,.0f} s and {225 * growth:,.0f} MB")
    rows, k = 1 << n, len(players)
    D = math.lcm(*(x.denominator for x in v.values))
    v_int = np.empty((rows, 1), dtype=object)
    v_int[:, 0] = [x.numerator * (D // x.denominator) for x in v.values]
    ell = math.lcm(*range(1, n + 1))
    q = v_int.copy()
    _walsh_hadamard(q)
    q[1:, 0] *= np.array([ell // s for s in _popcounts(n)[1:].tolist()], dtype=object)
    X = np.zeros((rows, k), dtype=object)
    for col, i in enumerate(players):
        shape = (rows >> (i + 1), 2, 1 << i)
        X.reshape(shape + (k,))[:, 1, :, col] = q.reshape(shape)[:, 1]
    _walsh_hadamard(X)
    X -= X[0].copy()  # normalize v_i({}) = 0

    scratch = np.empty((rows // 2, k), dtype=object)
    lhs = np.zeros((rows, k), dtype=object)
    for j in range(n):
        _add_player_laplacian(None, j, X, lhs, scratch)
    v_int *= ell << n
    for col, i in enumerate(players):
        rhs = np.zeros((rows, 1), dtype=object)
        _add_player_laplacian(None, i, v_int, rhs, scratch)
        if not np.array_equal(lhs[:, col:col + 1], rhs):
            raise ArithmeticError("spectral solve failed its exact verification; this is a bug")
    del lhs, scratch
    denom = D * ell << n
    return np.frompyfunc(lambda y: Fraction(y, denom), 1, 1)(X)


def _rhs(g: GameGraph, values: np.ndarray, players: Sequence[int]) -> np.ndarray:
    """Right-hand sides L_{w_i} v on all 2**n coalitions, one column per player.

    The output has the dtype of values: object for fractions, weighted by
    ``GameGraph.player_weight_fractions``, or float64, weighted by
    ``player_weights``.
    """
    out = np.zeros((values.shape[0], len(players)), dtype=values.dtype)
    scratch = np.empty((values.shape[0] // 2, 1), dtype=values.dtype)
    w = g.player_weight_fractions if values.dtype == object else g.player_weights
    for col, i in enumerate(players):
        _add_player_laplacian(w[i], i, values.reshape(-1, 1), out[:, col:col + 1], scratch)
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
# Floats per matmul chunk: the apply's two temporaries stay at 512 KiB each
# for any n and for up to 2,048 columns.
_CHUNK = 1 << 16
# Range of the level scaling b: b * x then stays far from overflow and from
# subnormals; a weighting past it runs the per-player kernel.
_LEVEL_RANGE = 2.0 ** 256


def _chunk_floats(rows: int, k: int) -> int:
    """Size of each temporary of the sub-cube apply on (rows, k) arrays: at
    least one row of the widest block, at most the whole array."""
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


def _cube_adjacency(s: int) -> np.ndarray:
    """Adjacency matrix of the s-player cube, coalitions as row and column indices."""
    t = np.arange(1 << s)
    A = np.zeros((1 << s, 1 << s))
    A[t[:, None], t[:, None] ^ (1 << np.arange(s))] = 1.0
    return A


def _subcube_laplacian(g: GameGraph, k: int):
    """``apply(x, out)``, out = L_w x for C-contiguous (2**n, k) arrays, as
    sub-cube matmuls; None when the level scaling leaves its range.

    g is a full cube whose weight ``w(S, S|{i}) = c_{|S|}`` depends only
    on |S|.  With levels ``b_0 = 1`` and ``c_0 * b_l * b_{l+1} = c_l``,
    ``L_w = diag(deg) - c_0 diag(b) A diag(b)``, where A is the unweighted
    adjacency and ``deg(S) = |S| c_{|S|-1} + (n - |S|) c_{|S|}``; b is 1
    on a constant weight.  A is a Kronecker sum over the players, so over
    a block of s players starting at bit a it acts on the view
    ``x.reshape(2**(n-a-s), 2**s, 2**a, k)`` as one matmul with the
    s-cube's adjacency, taken in chunks of at most ``_CHUNK`` floats.
    """
    n = g.n
    c = [float(x) for x in g.weighting.by_size(n)]
    level = [1.0]
    for cl in c:
        level.append(cl / (c[0] * level[-1]))
    level = np.array(level)
    if not np.all((1 / _LEVEL_RANGE < level) & (level < _LEVEL_RANGE)):
        return None
    size = np.arange(n + 1)
    deg = size * np.array([0.0] + c) + (n - size) * np.array(c + [0.0])
    at = _popcounts(n)
    b, diag = level[at][:, None], (deg / level)[at][:, None]
    scaled = bool(np.any(level != 1.0))
    count = -(-n // _BLOCK_PLAYERS)  # blocks of near-equal width
    bounds = [n * j // count for j in range(count + 1)]
    blocks = [(a, -c[0] * _cube_adjacency(e - a)) for a, e in zip(bounds, bounds[1:])]
    prod, scaled_x = (np.empty(_chunk_floats(1 << n, k)) for _ in range(2))

    def apply(x: np.ndarray, out: np.ndarray) -> None:
        np.multiply(x, diag, out=out)
        for a, M in blocks:
            m = M.shape[0]
            shape = (x.shape[0] // (m << a), m, 1 << a, k)
            xv, ov, bv = x.reshape(shape), out.reshape(shape), b.reshape(shape[:3] + (1,))
            for hs, ls in _chunks(shape):
                src = xv[hs, :, ls]
                if scaled:
                    src = np.multiply(src, bv[hs, :, ls],
                                      out=scaled_x[:src.size].reshape(src.shape))
                flat = (src.shape[0], m, src.shape[2] * k)
                t = np.matmul(M, src.reshape(flat), out=prod[:src.size].reshape(flat))
                o = ov[hs, :, ls]
                np.add(o, t.reshape(src.shape), out=o)
        if scaled:
            out *= b

    return apply


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine; 0 where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def _check_cg_memory(g: GameGraph, k: int) -> None:
    """CapacityError when k CG columns would not fit in physical memory."""
    # per column four buffers of 2**n floats, half a scratch and the component
    # game's copy; the (n, 2**(n-1)) weight table; four vectors (the degrees,
    # their inverses and the sub-cube apply's two level vectors) and that
    # apply's two chunks.  Float decomposes of full cubes peaked 5.2-5.4
    # (constant weight, n = 16..20; 835 MiB at n = 20) and 5.4-5.5 (size plus
    # one, n = 16 and 18) * n * 2**n * 8 bytes over the game; the estimate is
    # 5.5 * n + 4 of those units plus the chunks.
    rows = 1 << g.n
    need = 8 * (rows * (5 * k + g.n / 2 + 4) + 2 * _chunk_floats(rows, k))
    have = _physical_memory()
    if have and need > have:
        raise CapacityError(
            f"float solve of {k} players at n = {g.n} needs about {need / 2 ** 30:,.1f} GiB, "
            f"more than this machine's {have / 2 ** 30:,.1f} GiB of physical memory")


def _cg_float(g: GameGraph, R: np.ndarray, players: Sequence[int], tol: float, max_iters: int):
    """Deflated CG for L_w X = R, every column at once; R is overwritten.

    Column j solves for player ``players[j]`` with the scalar recurrence
    of one-right-hand-side CG, preconditioned by the inverse weighted
    degree (Jacobi), and keeps its place throughout.  Each column is scaled
    by a power of two (exactly) so that its largest entry lies in [0.5, 1),
    and its dot products neither overflow nor underflow.  A column stops
    when its unpreconditioned relative residual meets tol; its step sizes
    are zero from then on, so its x and r stay as they are.  Returns (X,
    iterations, residuals), in the order of ``players``.
    """
    n_rows, k = R.shape
    w = g.player_weights
    m = g.num_vertices
    infeasible = np.flatnonzero(~g.vertex_mask)
    deg = _endpoint_sums(w)[:, None]
    # the Jacobi preconditioner 1 / diag(L_w), 0 on rows without edges
    dinv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    scratch = np.empty((n_rows // 2, k))
    apply = None
    if g.is_full_cube and g.weighting.permutation_invariant:
        apply = _subcube_laplacian(g, k)
    if apply is None:
        def apply(x, out):
            _laplacian_float(w, x, out, scratch)

    def deflate(x):
        x -= x.sum(axis=0) / m
        x[infeasible] = 0.0

    _, scale = np.frexp(np.abs(R).max(axis=0))
    np.ldexp(R, -scale, out=R)
    deflate(R)
    X = np.zeros_like(R)
    P = R * dinv
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
        np.multiply(R, dinv, out=AP)
        rz_new = _column_dots(R, AP)
        P *= np.divide(rz_new, rz, out=np.zeros(k), where=running)
        P += AP
        rz = rz_new
        done = running & (rel <= tol)
        iterations[done] = it
        residuals[done] = rel[done]
        running &= ~done
    if running.any():
        c = np.flatnonzero(running)[0]
        raise ConvergenceError(
            f"CG for player {players[c]} did not reach tolerance {tol} in {max_iters} "
            f"iterations (relative residual {history[-1][c]:.3e})",
            residual_history=[float(h[c]) for h in history])
    X -= X[0].copy()  # normalize v_i({}) = 0
    X[infeasible] = 0.0
    np.ldexp(X, scale, out=X)
    return X, iterations.tolist(), residuals.tolist()


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


def _verify_mean_zero(g: GameGraph, B: np.ndarray) -> None:
    # L_{w_i} v lies in the range of d*, hence is orthogonal to constants:
    # exactly for fractions, to round-off for floats.  One column per
    # player; infeasible rows are 0 and add nothing.  The float tolerance
    # is relative to each column's largest entry, so it is 0 for a zero
    # column and scales down with a small one.
    tol = 0
    if B.dtype != object:
        tol = 1e-8 * np.max(np.abs(B), axis=0) * g.num_vertices
    if np.any(np.abs(B.sum(axis=0)) > tol):
        raise ArithmeticError("right-hand side is not mean-zero; this is a bug")


def _spectral_applies(g: GameGraph) -> bool:
    return g.is_full_cube and g.weighting.kind == CONSTANT


def _solve(g: GameGraph, v: Game, players: Sequence[int], cfg: SolverConfig):
    """Components of v for the given players, as columns on all 2**n coalitions.

    Returns (X, engine, iterations, residuals), the lists in the order of
    players.  X holds fractions in rational mode and floats in float mode;
    infeasible rows are zero.
    """
    k = len(players)
    if not v.is_rational:
        _check_cg_memory(g, k)
        B = _rhs(g, np.asarray(v.values, dtype=np.float64), players)
        _verify_mean_zero(g, B)
        X, iterations, residuals = _cg_float(g, B, players, cfg.cg_tolerance,
                                             cfg.max_iters_for(g.n))
        return X, CG_FLOAT, iterations, residuals
    if _spectral_applies(g):
        return _spectral_rational(g, v, players), SPECTRAL, [0] * k, [0.0] * k
    # the pinned solver comes first, so that a system past its capacity
    # is refused before any right-hand side is built
    solver = _rational_solver(g)
    B = _rhs(g, np.asarray(v.values, dtype=object), players)
    _verify_mean_zero(g, B)
    X = np.full(B.shape, Fraction(0), dtype=object)
    for j in range(k):
        X[g.vertices[1:], j] = solver.solve(B[g.vertices[1:], j])
    # an exact solve has no residual
    return X, DENSE_RATIONAL, [0] * k, [0.0] * k


def _efficiency_gap(g: GameGraph, v: Game, X: np.ndarray, engine: str):
    """Largest miss of the component sum against v over feasible coalitions."""
    if engine == SPECTRAL:
        # the exact verification of every column implies the identity
        return Fraction(0)
    miss = X.sum(axis=1) - np.asarray(v.values, dtype=X.dtype)
    gap = ops._scalar(np.abs(miss[g.vertex_mask]).max())
    if v.is_rational and gap != 0:
        raise ArithmeticError("exact decomposition failed the efficiency identity; "
                              "this is a bug")
    return gap


def solve_component(g: GameGraph, v: Game, i: int, cfg: SolverConfig | None = None) -> Game:
    """Player i's component game of v on the graph g."""
    cfg = cfg or SolverConfig()
    _check_modes(g, v, cfg)
    if not 0 <= i < g.n:
        raise ConfigError(f"player index {i} outside [0, {g.n})")
    X, _, _, _ = _solve(g, v, [i], cfg)
    return Game(g.n, v.mode, X[:, 0], v.names)


def decompose(g: GameGraph, v: Game, cfg: SolverConfig | None = None) -> Decomposition:
    """All component games of v on g, with per-player solve diagnostics."""
    cfg = cfg or SolverConfig()
    _check_modes(g, v, cfg)
    X, engine, iterations, residuals = _solve(g, v, range(g.n), cfg)
    components = tuple(Game(g.n, v.mode, X[:, i], v.names) for i in range(g.n))
    stats = tuple(PlayerSolveStats(i, engine, iterations[i], residuals[i]) for i in range(g.n))
    return Decomposition(g, v, components, stats, _efficiency_gap(g, v, X, engine))


def residual_orthogonality(g: GameGraph, v: Game, dec: Decomposition) -> list:
    """Max-norm of d*_w (d v_i - d_i v) per player; zero certifies the split."""
    u = ops.vertex_function_from_game(g, v)
    out = []
    for i, comp in enumerate(dec.components):
        ui = ops.vertex_function_from_game(g, comp)
        r = ops.edge_difference(ops.d(ui), ops.d_i(i, u))
        out.append(ops.d_star(r).norm_inf())
    return out


def edge_residual(g: GameGraph, v: Game, dec: Decomposition, i: int) -> ops.EdgeFunction:
    """The edge function d v_i - d_i v (zero exactly when the split is exact)."""
    u = ops.vertex_function_from_game(g, v)
    ui = ops.vertex_function_from_game(g, dec.components[i])
    return ops.edge_difference(ops.d(ui), ops.d_i(i, u))


def solve_poisson_rational(g: GameGraph, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact solve of L_w u = rhs with u({}) = 0; rhs indexed like graph.vertices."""
    solver = _rational_solver(g)
    b = np.asarray(rhs, dtype=object)
    _verify_mean_zero(g, b.reshape(-1, 1))
    return [Fraction(0)] + solver.solve(b[1:])
