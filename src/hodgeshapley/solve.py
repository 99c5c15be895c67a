"""Solver backends and the per-player decomposition driver.

Each component game solves the singular system ``L_w v_i = L_{w_i} v``
normalized by ``v_i({}) = 0``.  Only the scalar field differs between the
modes, so one code path serves both.  Every engine keeps the k players it
solves for in one player-major C-contiguous ``(k, 2**n)`` array (``(k,
2**(n-1))`` half rows in the spectral engine), row j holding player
``players[j]``: ``object`` arrays of Python ints in rational mode,
``float64`` in float mode, exactly 0 on infeasible coalitions.  A
per-player scalar broadcasts as a ``(k, 1)`` column.  Player i's edges
pair the two halves of ``x.reshape(k, 2**(n-1-i), 2, 2**i)``, so
``L_{w_i}`` is a difference of half-views scaled by row i of
``GameGraph.player_weights`` (or of ``integer_weights``), and ``L_w`` is
the sum of the n of them.

Rational mode computes on Python ints over one common denominator (v as
``D v``, the weights as ``integer_weights``); fractions are built only for
the component games.  On the full cube with one weight c on every edge,
both modes run the spectral engine (``_spectral``): the Walsh transform
diagonalises both operators, so ``v_i^(T) = [i in T] v^(T) / |T|``, and
each player is solved on the half cube of the coalitions without it,
stopping at the relative residual ``cg_tolerance`` or at an exact integer
residual of 0 (``_spectral_lift``).  A float call for three or more
players transforms one potential ``phi = L_1^+ v`` instead and reads each
player's half row off phi's differences in that player; a row that fails
its check is solved again on its own.  Every other graph in rational mode
lifts exact digits from a float64 inverse of the integer pinned Laplacian
(``_exact``; built once per graph from the slot tables, up to 4096
unknowns, and ``CapacityError`` comes before any right-hand side past
that).  ``decompose`` checks ``sum_i v_i = v`` exactly after either engine.

Every other graph in float mode runs ``cg_float`` (``_cg_float``):
preconditioned conjugate gradient on all rows at once in preallocated
buffers, each row scaled by its own power of two and stopped at its own
relative residual.  Weights within three decades take the Walsh
preconditioner ``z = s * L_1^+ (s * r)``, ``s = sqrt(n / deg)``, wider
ones Jacobi.  Where a graph carries a product form ``w(S, S|{i}) = c_0
b(S) b(S|{i})`` (``GameGraph._product_form``: size tables and degree
products, on a graph that keeps every cube edge between two feasible
coalitions), ``L_w`` is a few chunked sub-cube matmuls
(``_subcube_laplacian``); every other explicit weighting, other graphs,
the right-hand sides and the exact engines keep the half-view passes.
Both float engines first divide a game near the top of float64's range
by a power of two (``_prescaled``, exact), and refuse a component past
that range with ``ConvergenceError``.  The solve refuses with
``CapacityError`` at entry when its buffers, about ``(6.5 n + 5) * 2**n
* 8`` bytes for a full decompose (``(2 n + 2) * 2**n * 8`` on the
spectral route), would exceed physical memory.  Every route needs numpy
alone, and all land on the same answer, unique up to constants on a
connected graph.
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
from ._exact import _MAX_UNKNOWNS, _MIN_GAIN_BITS, _STEP_BITS, DixonSolver, _float_view, _max_bits
from .errors import CapacityError, ConfigError, ConvergenceError
from .game import FLOAT, RATIONAL, Game
from .graph import GameGraph, _edge_table, _endpoint_sums, _popcounts

DENSE_RATIONAL = "dense_rational"
CG_FLOAT = "cg_float"
_BACKENDS = (DENSE_RATIONAL, CG_FLOAT)
# The engine that both modes run on full cubes with constant weights; it
# shows up in PlayerSolveStats.backend and is not a configurable backend.
SPECTRAL = "spectral"
# The preconditioners of cg_float, in PlayerSolveStats.preconditioner.
WALSH = "walsh"
JACOBI = "jacobi"

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
    engine (read off the half rows, whose norms are both the full rows'
    over sqrt(2), whether x came from the game's potential or from the
    player's own half-row solve), and 0 in rational mode; and the CG
    preconditioner, "walsh" or "jacobi" ("" outside CG)."""

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
        # restricted size-plus-one cubes, 2 vCPUs, one BLAS thread, at 509 /
        # 1021 / 2045 / 4093 unknowns: inverse 0.047 / 0.18 / 0.94 / 5.0 s, a
        # decompose 0.011 / 0.026 / 0.090 / 0.32 s per player, +137 / 530 MiB
        # peak RSS at the last two: about m**3, m**2 and 33 m**2 bytes
        growth = m / 4093
        raise CapacityError(
            f"exact solve of {m} unknowns exceeds the limit of {_MAX_UNKNOWNS}: "
            f"the dense system would hold {m * m:,} entries; estimated "
            f"{5.0 * growth ** 3:,.0f} s to factor, {0.32 * growth ** 2:,.0f} s per "
            f"player's solve and {0.56 * growth ** 2:,.1f} GB")
    W = g.integer_weights[0]
    if W.max() * g.n < 1 << 62:  # a diagonal entry sums at most n weights
        W = W.astype(np.int64)
    deg = _endpoint_sums(W)[g.vertex_mask]
    base, player = g.edge_base, g.edge_player
    w = _edge_table(g.n, W)[base, player]
    s, t = g.vertex_pos[base], g.vertex_pos[base | 1 << player]
    # the nonzeros without {}'s row and column (position 0, only ever a source)
    s, t, off = s[s > 0] - 1, t[s > 0] - 1, -w[s > 0]
    rows, cols = np.concatenate([s, t, np.arange(m)]), np.concatenate([t, s, np.arange(m)])
    order = np.lexsort((cols, rows))
    entries = np.concatenate([off, off, deg[1:]])[order]
    solver = _rational_solvers[g] = DixonSolver(m, rows[order], cols[order], entries)
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
    """out += L_{w_i} x row by row; x and out are (k, 2**n), one row per player.

    Player i's edges join the two halves of ``x.reshape(k, 2**(n-1-i), 2,
    2**i)``, and ``w_i`` (``GameGraph.player_weights[i]``) lines up with
    either half; ``w_i = None`` means unit weights.  scratch has at least k
    rows of half of x's columns, in x's dtype.
    """
    k = x.shape[0]
    shape = (k, x.shape[1] >> (i + 1), 2, 1 << i)
    x, out = x.reshape(shape), out.reshape(shape)
    d = scratch[:k].reshape(k, shape[1], shape[3])
    np.subtract(x[:, :, 1], x[:, :, 0], out=d)
    if w_i is not None:
        d *= w_i.reshape(shape[1], shape[3])
    out[:, :, 1] += d
    out[:, :, 0] -= d


def _half_differences(x: np.ndarray, players: Sequence[int], out: np.ndarray) -> None:
    """out[j] = x(S) - x(S | {i}) for i = players[j] on the coalitions S
    without i, which ``L_{1,i} x`` takes there; a half row is indexed by S
    with bit i dropped, so by the coalitions of the other n - 1 players."""
    for j, i in enumerate(players):
        pair = x.reshape(-1, 2, 1 << i)
        np.subtract(pair[:, 0], pair[:, 1], out=out[j].reshape(-1, 1 << i))


def _mirror(Y: np.ndarray, players: Sequence[int], out: np.ndarray) -> None:
    """out[j] = the row antisymmetric in player i = players[j] whose half
    on the coalitions without i is Y[j], normalized to 0 at {}: ``y(S) -
    y({})`` at S and ``-y(S) - y({})`` at S | {i}."""
    for j, i in enumerate(players):
        y, pair = Y[j].reshape(-1, 1 << i), out[j].reshape(-1, 2, 1 << i)
        np.subtract(y, Y[j, 0], out=pair[:, 0])
        np.subtract(0 - Y[j, 0], y, out=pair[:, 1])  # not -y({}): a zero row stays +0.0


# Fewest players whose float spectral solve reads its rows off the game's
# potential: fewer half rows move no more data than the potential's one
# full row.  Three break even: 2.1-2.2 ms on their own half rows against
# 2.2-2.3 ms through the potential at n = 15, 17.2-17.4 against 17.5-18.4
# ms at n = 18; fifteen players took 8.5-9.0 against 4.3-4.4 ms (medians
# of 21 and 9 calls, two runs each, one BLAS thread)
_POTENTIAL_PLAYERS = 3


def _spectral(g: GameGraph, v: Game, players: Sequence[int], cfg: SolverConfig):
    """Components of v for the given players on a full cube with constant
    weights, as ``(X, den, residuals)``: the components are X / den, and
    residuals the float check's relative residuals (0 in ints).

    ``L_{1,i} v`` is antisymmetric under ``S -> S ^ {i}`` and ``L_1``
    commutes with that flip, so player i's solve runs on the half cube of
    coalitions without i, where ``L_1`` acts on an antisymmetric row as
    ``L_{n-1} + 2I`` (definite, eigenvalue ``2(|T| + 1)`` on the character
    of T, a set of the other players), and ``_mirror`` writes the full row.
    In ints X = 2**n * lcm(1..n) * D * (the component), D the lcm of v's
    denominators, lifted row by row.

    Floats scale each half row by a power of two, as ``_cg_float`` does,
    and a null player's row is exactly 0.  ``L_1`` and every ``L_{1,i}``
    are diagonal in the Walsh basis, so they commute and ``v_i = L_{1,i}
    phi`` for the one potential ``phi = L_1^+ v``: a call for at least
    ``_POTENTIAL_PLAYERS`` players transforms phi's single row, and player
    i's half row is phi's difference in i.  Each row is then checked on its
    half system, and one the potential cannot serve (a player far below
    the game's scale) is solved again on its own half row and checked
    again.  Smaller calls solve every half row on its own.  A check past
    ``cfg.cg_tolerance`` on a row's own solve raises ConvergenceError.
    """
    n, k, rows = g.n, len(players), 1 << g.n
    if v.is_rational:
        # fractions included, decomposes at n = 14..17 took +39 / 81 / 172 / 347 MiB
        # and 0.5 / 0.8 / 1.8 / 5 s, one component +5 / 8 / 15 / 30 MiB (2 vCPUs)
        _check_memory(n, k, 170 * k + 70, "exact spectral solve",
                      f" and {2e-6 * (k + 0.5) * rows:,.1f} s")
        values, D = _over_common_denominator(v.values)
        c = math.lcm(*range(1, n + 1)) << n
        return _spectral_lift(n, values * c, players), c * D, [0.0] * k
    # the half rows, their solutions and the potential come and go before
    # X; with the component games' copies of X, decomposes at n = 12..18
    # peaked at 2 k - 3.5..-0.1 vectors of 2**n floats and single components
    # at 2 k + 1.1..1.8, over the chunk (tracemalloc)
    _check_memory(n, k, 8 * (2 * k + 2), "float solve")
    # halved when some |v(S)| >= 2**1023, so that no difference overflows
    values, shift = _prescaled(np.asarray(v.values, dtype=np.float64), 1)
    prod = np.empty(_chunk_floats(rows >> 1, k))
    solve = _unit_pseudo_inverse(n, prod)
    Y = np.empty((k, rows >> 1))
    scale, residuals = np.zeros(k, dtype=int), np.zeros(k)
    redo = np.arange(k)  # the rows solved on their own half row
    if k >= _POTENTIAL_PLAYERS:
        B, scale, live = _half_rows(values, players)
        # phi of the game brought into [0.5, 1), exactly; player i's half
        # difference of it solves for B[j] at B[j]'s own scale
        _, top = np.frexp(np.max(np.abs(values)))
        phi = np.ldexp(values, -top).reshape(1, rows)
        solve(phi, phi)
        _half_differences(phi[0], players, Y)
        del phi
        with np.errstate(over="ignore"):
            np.ldexp(Y, (top - scale)[:, None], out=Y)
        # (L_{n-1} + 2I)^-1 is at most 1/2 in the max norm and |B| < 1, so a
        # row past 1 (inf included) is wrong; it is zeroed before the check
        fits = np.maximum(Y.max(axis=1), -Y.min(axis=1)) <= 1
        Y[~(fits & live)] = 0.0
        residuals = _half_residuals(n, Y, B, prod)
        del B
        redo = np.flatnonzero(live & ~(fits & (residuals <= cfg.cg_tolerance)))
    if redo.size:
        Z, scale[redo], _ = _half_rows(values, [players[j] for j in redo])
        W = np.empty_like(Z)
        solve(Z, W)
        residuals[redo] = _half_residuals(n, W, Z, prod)
        Y[redo] = W
        del Z, W
    missed = ~(residuals <= cfg.cg_tolerance)
    c = np.argmax(missed)  # the first miss, if any
    if missed[c]:
        raise ConvergenceError(
            f"spectral solve for player {players[c]} missed tolerance {cfg.cg_tolerance} "
            f"(relative residual {residuals[c]:.3e}); --backend dense-rational gives exact "
            f"components", residual_history=[float(residuals[c])])
    X = np.empty((k, rows))
    with np.errstate(over="ignore", invalid="ignore"):  # _check_range reports it
        np.ldexp(Y, (scale + shift)[:, None], out=Y)
        _mirror(Y, players, X)
    _check_range(X, players)
    return X, 1, residuals.tolist()


def _half_rows(values: np.ndarray, players: Sequence[int]):
    """``(B, scale, live)``: the half right-hand sides ``_half_differences``
    of values for the given players, each row times the power of two that
    brings its peak into [0.5, 1) (``B[j] * 2**scale[j]`` is the difference),
    as in ``_cg_float``, so a player far below the game's scale keeps its
    bits; live is False on the rows that are exactly 0."""
    B = np.empty((len(players), len(values) >> 1))
    _half_differences(values, players, B)
    mantissa, scale = np.frexp(np.maximum(B.max(axis=1), -B.min(axis=1)))
    np.ldexp(B, -scale[:, None], out=B)
    return B, scale, mantissa > 0


def _half_residuals(n: int, Y: np.ndarray, B: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Each row's relative residual ``|(L_{n-1} + 2I) Y[j] - B[j]| / |B[j]|``
    on (k, 2**(n-1)) half rows, 0 where both are 0, by the sub-cube products;
    B is overwritten.  A half row's norm is its full row's over sqrt(2), on
    both sides of the ratio."""
    norms = np.sqrt(_row_dots(B, B))
    np.negative(B, out=B)  # becomes (L_{n-1} + 2I) Y - B
    for a, s in _player_blocks(n - 1):
        M = (s + 2 * (a == 0)) * np.eye(1 << s) - _cube_adjacency(s)
        _block_product(M, a, Y, B, prod, add=True)
    gap = np.sqrt(_row_dots(B, B))
    return np.divide(gap, norms, out=np.where(gap > 0, np.inf, 0.0), where=norms > 0)


def _prescaled(values: np.ndarray, headroom: int) -> tuple[np.ndarray, int]:
    """``(values * 2**-shift, shift)``, the least shift that brings every
    |value| below ``2**(1024 - headroom)``, exactly; a game already there
    comes back as it is, with shift 0."""
    shift = max(0, int(np.frexp(np.max(np.abs(values)))[1]) - (1024 - headroom))
    return (np.ldexp(values, -shift) if shift else values), shift


def _check_range(X: np.ndarray, players: Sequence[int]) -> None:
    """ConvergenceError naming the first player whose component is not finite."""
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ConvergenceError(
            f"the component of player {players[int(np.argmin(finite))]} exceeds float64's "
            f"range; --backend dense-rational gives exact components")


def _spectral_lift(n: int, x: np.ndarray, players: Sequence[int]) -> np.ndarray:
    """Python-int rows N with ``L_1 N[j] = L_{1,i} x`` (i = players[j]) and
    ``N[j, 0] = 0``, for ints x whose pinned solutions are integral, by
    dyadic lifting (Wan 2006) with a known denominator.

    The lift runs on the half rows of ``_spectral``: Y with ``(L_{n-1} +
    2I) Y = B``, B from ``_half_differences``, whose solution is integral
    too, and ``_mirror`` gives N.  A step keeps the top ``_STEP_BITS`` bits
    ``y = rint(2**-h (L_{n-1} + 2I)^-1 r)`` of a float solve on the exact
    residual r's float view (``_float_view``, as the lifting solver's) and
    updates ``r -= 2**h (L_{n-1} + 2I) y``, ``Y += 2**h y`` exactly, in
    int64 while the bits allow.  The system's condition number is n, so a
    step gains over 40 bits and r ends at 0, the proof; a gain under
    ``_MIN_GAIN_BITS`` is a bug and raises."""
    half, k = 1 << (n - 1), len(players)
    r = np.empty((k, half), dtype=np.int64 if _max_bits(x) <= 61 else object)
    _half_differences(x.astype(r.dtype), players, r)
    solve = _unit_pseudo_inverse(n, np.empty(_chunk_floats(half, k)))
    Y = np.zeros((k, half), dtype=np.int64)
    bound = 0  # on |Y|: int64 holds Y and its mirror while bound < 2**62
    Ly = np.empty((k, half), dtype=np.int64)
    scratch = np.empty((k, half // 2), dtype=np.int64)
    r, z, bits, t = _float_view(r)
    while bits:
        solve(z, z)
        peak = np.max(np.abs(z))
        if not peak < np.inf:
            raise ArithmeticError("spectral float step is not finite; this is a bug")
        h = max(0, int(np.frexp(peak)[1]) + t - _STEP_BITS)
        y = np.rint(np.ldexp(z, t - h)).astype(np.int64)
        _laplacian(None, y, Ly, scratch)  # |(L_{n-1} + 2I) y| <= 2 n 2**_STEP_BITS
        Ly += y << 1
        if r.dtype == np.int64 and _max_bits(Ly) + h <= 62:
            r -= Ly << h  # both terms below 2**62
        else:
            r = r.astype(object) - (Ly.astype(object) << h)
        bound += 1 << (_STEP_BITS + h)
        Y = Y + (y << h if bound < 1 << 62 else y.astype(object) << h)
        before = bits
        r, z, bits, t = _float_view(r)
        if bits and before - bits < _MIN_GAIN_BITS:
            raise ArithmeticError(f"spectral lifting step gained {before - bits} bits, "
                                  f"fewer than {_MIN_GAIN_BITS}; this is a bug")
    N = np.empty((k, half << 1), dtype=Y.dtype)
    _mirror(Y, players, N)
    return N.astype(object)


def _add_rhs(w: np.ndarray | None, x: np.ndarray, players: Sequence[int], out: np.ndarray) -> None:
    """out[j] += L_{w_i} x for player i = players[j], x one vector over the
    coalitions; w is a per-player weight table or None for unit weights."""
    x = x.reshape(1, -1)
    scratch = np.empty((1, x.shape[1] // 2), dtype=x.dtype)
    for j, i in enumerate(players):
        _add_player_laplacian(None if w is None else w[i], i, x, out[j:j + 1], scratch)


def _rhs(g: GameGraph, values: np.ndarray, players: Sequence[int]) -> np.ndarray:
    """Right-hand sides L_{w_i} v on all 2**n coalitions, one row per player.

    The output has the dtype of values: object for Python ints, weighted by
    ``GameGraph.integer_weights`` (so scaled by its ``D_w``), or float64,
    weighted by ``player_weights``.
    """
    out = np.zeros((len(players), values.shape[0]), dtype=values.dtype)
    w = g.integer_weights[0] if values.dtype == object else g.player_weights
    _add_rhs(w, values, players, out)
    return out


def _laplacian(w: np.ndarray | None, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = L_w x row by row, as ``_add_player_laplacian`` (w = None: unit weights)."""
    out.fill(0)
    for i in range(x.shape[1].bit_length() - 1):
        _add_player_laplacian(None if w is None else w[i], i, x, out, scratch)


# Players per block of the sub-cube apply.  A block of s players is one
# matmul with a 2**s x 2**s matrix that has s nonzeros a row: wider blocks
# do more redundant flops, narrower ones more passes over the vector.
_BLOCK_PLAYERS = 5
# Floats per matmul chunk: the apply's product temporary stays at 512 KiB
# for any n and any number of players.  Chunks also run faster: with the
# chunking removed, float-cube's largest case took 0.033-0.036 s against
# 0.029 s and its wall time rose about 5 % (three pairs of 12 s
# bench/run.py runs, 2 vCPUs).
_CHUNK = 1 << 16


def _chunk_floats(cols: int, k: int) -> int:
    """Size of the product temporary of the sub-cube apply on (k, cols)
    arrays: at least one column of the widest block, at most the whole array."""
    return min(cols * k, max(_CHUNK, 1 << _BLOCK_PLAYERS))


def _chunks(shape: tuple[int, int, int]) -> list[tuple[slice, slice]]:
    """Index pairs for the first and third axes of a view of this shape that
    cut it into pieces of at most ``max(_CHUNK, m)`` floats: whole slabs of
    the first axis, or slices of the third when one slab is too big."""
    h, m, l = shape
    if m * l <= _CHUNK:
        step = _CHUNK // (m * l)
        return [(slice(i, i + step), slice(None)) for i in range(0, h, step)]
    step = max(1, _CHUNK // m)
    return [(slice(i, i + 1), slice(j, j + step)) for i in range(h) for j in range(0, l, step)]


def _player_blocks(n: int) -> list[tuple[int, int]]:
    """(first player, width) of the near-equal blocks of at most
    ``_BLOCK_PLAYERS`` players that the sub-cube products act on."""
    count = max(1, -(-n // _BLOCK_PLAYERS))  # n = 0: one block of no players
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
    of every row of C-contiguous (k, 2**n) arrays; out may be x when not
    adding.

    Over the view ``x.reshape(-1, m, 2**a)``, m = len(M), this is one
    matmul per chunk of ``_chunks``, through prod (at least
    ``_chunk_floats`` floats); for a = 0 each chunk is a single GEMM
    ``x.reshape(-1, m) @ M.T``.  A chunk reads only its own entries, so
    the product may overwrite them.
    """
    m = M.shape[0]
    shape = (x.size // (m << a), m, 1 << a)
    xv, ov = x.reshape(shape), out.reshape(shape)
    for hs, ls in _chunks(shape):
        src = xv[hs, :, ls]
        t = prod[:src.size].reshape(src.shape)
        if a:
            np.matmul(M, src, out=t)
        else:
            np.matmul(src[:, :, 0], M.T, out=t[:, :, 0])
        o = ov[hs, :, ls]
        if add:
            np.add(o, t, out=o)
        else:
            o[...] = t


def _subcube_laplacian(g: GameGraph, k: int, prod: np.ndarray | None = None):
    """``apply(x, out)``, out = L_w x for C-contiguous (k, 2**n) arrays, as
    sub-cube matmuls; None unless g has a ``GameGraph._product_form``.

    With ``w(S, S|{i}) = c0 b(S) b(S|{i})`` on exactly the edges between
    feasible coalitions, ``L_w = diag(deg) - c0 diag(b) A diag(b)``, where
    A is the unweighted cube adjacency, b is 0 on infeasible coalitions and
    the weighted degree is ``deg = c0 b (A b)``.  A is a Kronecker sum over
    the players, so over a block of s players starting at bit a it acts on
    the view ``x.reshape(-1, 2**s, 2**a)`` as one matmul with the s-cube's
    adjacency (``_block_product``), through the product chunk prod, which
    is allocated here when not given.  Unless b is 1 everywhere, ``b * x``
    is written once per apply into a buffer of x's shape.
    """
    if g._product_form is None:
        return None
    c0, b = g._product_form
    n = g.n
    blocks = [(a, -c0 * _cube_adjacency(s)) for a, s in _player_blocks(n)]
    if prod is None:
        prod = np.empty(_chunk_floats(1 << n, k))
    # deg / b = c0 A b, by the same products; -c0 A b accumulates here
    diag = np.zeros(1 << n)
    for a, M in blocks:
        _block_product(M, a, b, diag, prod, add=True)
    np.negative(diag, out=diag)
    scaled = bool(np.any(b != 1.0))
    bx = np.empty((k, 1 << n)) if scaled else None

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
    """Unnormalised Walsh-Hadamard transform of every row of x in place: one
    chunked product per (first player, ``_hadamard`` matrix) block, whose
    Kronecker product it is."""
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


def _walsh_inverse(eigenvalues: np.ndarray, prod: np.ndarray):
    """``apply(r, z)``: z = ``A^-1 r`` for C-contiguous (k, 2**m) arrays,
    where A has ``eigenvalues[T]`` on the Walsh character of each coalition
    T of m players; z may be r.

    That is two Walsh transforms around a division by the table.  The first
    transform block reads r and writes z; every later product runs in place
    on z, through the product chunk prod.
    """
    m = len(eigenvalues).bit_length() - 1
    inv = np.ldexp(1.0, -m) / eigenvalues  # 2**-m for the two unnormalised transforms
    blocks = [(a, _hadamard(s)) for a, s in _player_blocks(m)]
    (a0, H0), rest = blocks[0], blocks[1:]

    def apply(r: np.ndarray, z: np.ndarray) -> None:
        _block_product(H0, a0, r, z, prod, add=False)
        _blocked_walsh(z, rest, prod)
        z *= inv
        _blocked_walsh(z, blocks, prod)

    return apply


def _unit_pseudo_inverse(n: int, prod: np.ndarray):
    """``apply(r, z)``: z = L_1^+ r, L_1 the unweighted cube Laplacian of n
    players, by ``_walsh_inverse``; z may be r.

    On (k, 2**n) arrays the table is L_1's, 2|T|, with 2 instead of 0 at
    T = {}, which keeps it definite.  (k, 2**(n-1)) arrays hold the halves
    on the coalitions without i of rows antisymmetric in a player i, as
    ``_half_differences`` writes them; their characters are the T that hold
    i, so the table is the upper half of L_1's, ``2(|T| + 1)`` over the
    other players, the inverse of ``L_{n-1} + 2I``.
    """
    table = 2.0 * np.maximum(_popcounts(n), 1)
    solves = {len(t): _walsh_inverse(t, prod) for t in (table, table[len(table) // 2:])}

    def apply(r: np.ndarray, z: np.ndarray) -> None:
        solves[r.shape[1]](r, z)

    return apply


def _walsh_preconditioner(n: int, deg: np.ndarray, prod: np.ndarray):
    """``precondition(r, z)``: z = s * L_1^+ (s * r) with ``s = sqrt(n / deg)``
    (0 on coalitions without edges), for C-contiguous (k, 2**n) arrays.

    L_1^+ is ``_unit_pseudo_inverse``.  On a full cube with a constant weight
    c, ``s**2 = 1 / c`` and this is ``L_w^+``.
    """
    s = np.sqrt(np.divide(n, deg, out=np.zeros_like(deg), where=deg > 0))
    pseudo_inverse = _unit_pseudo_inverse(n, prod)

    def precondition(r: np.ndarray, z: np.ndarray) -> None:
        np.multiply(r, s, out=z)
        pseudo_inverse(z, z)
        z *= s

    return precondition


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine; 0 where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def _check_memory(n: int, k: int, per_coalition: float, what: str, cost: str = "") -> None:
    """CapacityError when a solve for k players on n players' coalitions, at
    this many bytes per coalition and the product chunk, needs more than
    physical memory."""
    need, have = per_coalition * (1 << n) + 8 * _chunk_floats(1 << n, k), _physical_memory()
    if have and need > have:
        raise CapacityError(
            f"{what} of {k} players at n = {n} needs about {need / 2 ** 30:,.1f} GiB{cost}, "
            f"more than this machine's {have / 2 ** 30:,.1f} GiB of physical memory")


def _cg_float(g: GameGraph, R: np.ndarray, peak: np.ndarray, players: Sequence[int], tol: float,
              max_iters: int, shift: int = 0):
    """Deflated CG for L_w X = R, every row at once; R is overwritten.

    Row j solves for player ``players[j]`` with the scalar recurrence of
    one-right-hand-side CG and keeps its place throughout.  The
    preconditioner is ``_walsh_preconditioner`` where ``_walsh_fits``
    accepts the weights, and the inverse weighted degree (Jacobi)
    otherwise.  Each row is scaled by a power of two (exactly) so that its
    largest magnitude, ``peak``, lies in [0.5, 1), and its dot products
    neither overflow nor underflow.  A row stops when its unpreconditioned
    relative residual meets tol; its step sizes are zero from then on, so
    its x and r stay as they are.  X comes back times ``2**shift``, inf
    where that leaves float64.  Returns (X, preconditioner, iterations,
    residuals), the lists in ``players`` order.
    """
    k, cols = R.shape
    w = g.player_weights
    m = g.num_vertices
    infeasible = np.flatnonzero(~g.vertex_mask)
    deg = _endpoint_sums(w)
    scratch = np.empty((k, cols // 2))
    prod = np.empty(_chunk_floats(cols, k))
    apply = _subcube_laplacian(g, k, prod)
    if apply is None:
        def apply(x, out):
            _laplacian(w, x, out, scratch)
    if _walsh_fits(g):
        preconditioner = WALSH
        precondition = _walsh_preconditioner(g.n, deg, prod)
    else:
        preconditioner = JACOBI
        # 1 / diag(L_w), 0 on coalitions without edges
        dinv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)

        def precondition(r, z):
            np.multiply(r, dinv, out=z)

    def deflate(x):
        x -= x.sum(axis=1, keepdims=True) / m
        x[:, infeasible] = 0.0

    _, scale = np.frexp(peak[:, None])
    np.ldexp(R, -scale, out=R)
    deflate(R)
    X = np.zeros_like(R)
    P = np.empty_like(R)
    precondition(R, P)
    AP = np.empty_like(R)  # holds L_w p, then the preconditioned residual z
    rz = _row_dots(R, P)
    b_norm = np.sqrt(_row_dots(R, R))
    running = b_norm > 0
    iterations = np.zeros(k, dtype=int)
    residuals = np.zeros(k)
    history = []  # the relative residual of every row, per iteration
    for it in range(1, max_iters + 1):
        if not running.any():
            break
        apply(P, AP)
        alpha = np.divide(rz, _row_dots(P, AP), out=np.zeros(k), where=running)[:, None]
        for half in (slice(0, cols // 2), slice(cols // 2, cols)):
            np.multiply(P[:, half], alpha, out=scratch)
            X[:, half] += scratch
        AP *= alpha
        R -= AP
        # L_w p is orthogonal to constants up to round-off, which deflation
        # removes; x may carry a constant, which the normalization removes
        deflate(R)
        rel = np.divide(np.sqrt(_row_dots(R, R)), b_norm, out=np.zeros(k), where=running)
        history.append(rel)
        done = running & (rel <= tol)
        iterations[done] = it
        residuals[done] = rel[done]
        running &= ~done
        if not running.any():
            break  # no next direction to build
        precondition(R, AP)
        rz_new = _row_dots(R, AP)
        P *= np.divide(rz_new, rz, out=np.zeros(k), where=running)[:, None]
        P += AP
        rz = rz_new
    if running.any():
        c = np.flatnonzero(running)[0]
        raise ConvergenceError(
            f"CG for player {players[c]} did not reach tolerance {tol} in {max_iters} "
            f"iterations (relative residual {history[-1][c]:.3e}); --backend dense-rational "
            f"gives exact components",
            residual_history=[float(h[c]) for h in history])
    X -= X[:, :1].copy()  # normalize v_i({}) = 0
    X[:, infeasible] = 0.0
    with np.errstate(over="ignore"):
        np.ldexp(X, scale + shift, out=X)
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
    # exactly for ints, to round-off for floats.  One row per player;
    # infeasible coalitions are 0 and add nothing.  The float tolerance is
    # relative to each row's largest entry, so it is 0 for a zero row and
    # scales down with a small one; those peaks are returned (0 for
    # ints), for ``_cg_float`` to scale by.
    peak = 0 if B.dtype == object else np.max(np.abs(B), axis=1)
    if np.any(np.abs(B.sum(axis=1)) > 1e-8 * peak * g.num_vertices):
        raise ArithmeticError("right-hand side is not mean-zero; this is a bug")
    return peak


def _spectral_applies(g: GameGraph) -> bool:
    """Whether g is a full cube whose edges all weigh the same, in any
    weighting kind; the engine solves at unit weight."""
    w = g.weighting
    return g.is_full_cube and w.permutation_invariant and len(set(w.by_size(g.n))) == 1


def _solve(g: GameGraph, v: Game, players: Sequence[int], cfg: SolverConfig):
    """Components of v for the given players, as rows on all 2**n coalitions.

    Returns (X, den, engine, preconditioner, iterations, residuals), the
    lists in the order of players; the preconditioner is "" for the exact
    engines.  The components are X / den: Python ints over one common
    denominator in rational mode, floats over 1 in float mode; infeasible
    coalitions are zero.
    """
    k = len(players)
    if _spectral_applies(g):
        X, den, residuals = _spectral(g, v, players, cfg)
        return X, den, SPECTRAL, "", [0] * k, residuals
    if not v.is_rational:
        # per player four CG buffers, half a scratch, the component's copy and
        # the apply's b * x, plus the weight table and five vectors: full-cube
        # decomposes at n = 16 peaked at 5.1-6.1 * n * 2**n * 8 bytes over v
        _check_memory(g.n, k, 8 * (6 * k + g.n / 2 + 5), "float solve")
        # B's entries reach 2 |v| max(w), and the mean-zero check sums 2**n of them
        headroom = g.n + 1 + int(np.frexp(np.max(g.player_weights))[1])
        values, shift = _prescaled(np.asarray(v.values, dtype=np.float64), headroom)
        B = _rhs(g, values, players)
        peak = _verify_mean_zero(g, B)
        X, preconditioner, iterations, residuals = _cg_float(
            g, B, peak, players, cfg.cg_tolerance, cfg.max_iters_for(g.n), shift)
        _check_range(X, players)
        return X, 1, CG_FLOAT, preconditioner, iterations, residuals
    # the pinned solver comes first, so that a system past its capacity
    # is refused before any right-hand side is built
    solver = _rational_solver(g)
    values, D = _over_common_denominator(v.values)
    B = _rhs(g, values, players)  # D * D_w * L_{w_i} v
    _verify_mean_zero(g, B)
    X = np.zeros(B.shape, dtype=object)
    pinned = g.vertices[1:]
    Y, den = solver.solve(B[:, pinned].T)  # the solver takes (unknowns, players)
    X[:, pinned] = Y.T
    # an exact solve has no residual
    return X, den * D, DENSE_RATIONAL, "", [0] * k, [0.0] * k


def _efficiency_gap(g: GameGraph, v: Game, X: np.ndarray, den):
    """Largest miss of the component sum ``X.sum(axis=0) / den`` against v
    over feasible coalitions; in rational mode an exact check in ints."""
    total = X.sum(axis=0)
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
    return _component(v, X[0], den)


def decompose(g: GameGraph, v: Game, cfg: SolverConfig | None = None) -> Decomposition:
    """All component games of v on g, with per-player solve diagnostics."""
    cfg = cfg or SolverConfig()
    _check_modes(g, v, cfg)
    X, den, engine, preconditioner, iterations, residuals = _solve(g, v, range(g.n), cfg)
    gap = _efficiency_gap(g, v, X, den)
    components = tuple(_component(v, x, den) for x in X)
    stats = tuple(PlayerSolveStats(i, engine, iterations[i], residuals[i], preconditioner)
                  for i in range(g.n))
    return Decomposition(g, v, components, stats, gap)


def residual_orthogonality(g: GameGraph, v: Game, dec: Decomposition) -> list:
    """Max-norm of d*_w (d v_i - d_i v) per player over the feasible
    coalitions; zero certifies the split.

    That vertex function is ``L_w v_i - L_{w_i} v``, so one sweep of
    half-view passes gives every player's at once: exactly in rational
    mode, on ints over one common denominator.  Float mode applies ``L_w``
    as the sub-cube products of ``_subcube_laplacian`` where g carries a
    product form.  It first divides v and the components by the power of
    two that brings the larger of their peaks into [0.5, 1), exactly, so
    that neither a game near the top of float64's range overflows nor a
    subnormal one loses its bits, and scales the peaks back at the end.
    """
    k = len(dec.components)
    apply = None
    if v.is_rational:
        values, D = _over_common_denominator(v.values)
        X, den = _over_common_denominator([x for c in dec.components for x in c.values])
        X = X.reshape(k, -1)
        W, D_w = g.integer_weights
    else:
        values, D = np.asarray(v.values, dtype=np.float64), 1
        X, den = np.array([c.values for c in dec.components], dtype=np.float64), 1
        _, scale = np.frexp(max(np.max(np.abs(values)), np.max(np.abs(X))))
        values, X = np.ldexp(values, -scale), np.ldexp(X, -scale)
        W, D_w = g.player_weights, 1
        apply = _subcube_laplacian(g, k)
    # D den D_w (L_w X_i / den - L_{w_i} v / D), row by row
    out = np.zeros_like(X)
    if apply is not None:
        apply(X, out)
    else:
        _laplacian(W, X, out, np.empty((k, X.shape[1] // 2), dtype=X.dtype))
    if D != 1:
        out *= D
    _add_rhs(W, values * -den, range(k), out)
    peaks = np.abs(out[:, g.vertex_mask]).max(axis=1)
    if v.is_rational:
        return [Fraction(x, D * den * D_w) for x in peaks.tolist()]
    with np.errstate(over="ignore"):  # a residual past float64's range reads inf
        return np.ldexp(peaks, scale).tolist()


def edge_residual(g: GameGraph, v: Game, dec: Decomposition, i: int) -> ops.EdgeFunction:
    """The edge function d v_i - d_i v (zero exactly when the split is exact)."""
    u = ops.vertex_function_from_game(g, v)
    ui = ops.vertex_function_from_game(g, dec.components[i])
    return ops.edge_difference(ops.d(ui), ops.d_i(i, u))

