"""Correctness checks for benchmark outputs, independent of the solver code.

A decomposition of a game v on a connected coalition graph is fully
determined by three properties, so checking all three checks the answer:

* normalization: every component is 0 on the empty coalition;
* efficiency: the components sum to v on every feasible coalition;
* orthogonality: d*_w (d v_i - d_i v) = 0 at every feasible vertex, for
  every player i.

The graph is rebuilt here from the case description (player count,
removed coalitions, weight rule) rather than read back from the library,
so a bug in graph construction or weighting cannot pass its own check.
On a full cube with permutation-invariant weights the allocation must
also equal the Shapley value, computed here by its classical formula.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import factorial

import numpy as np

# Float checks: efficiency within EFFICIENCY_RTOL * max|v|, orthogonality
# residual within ORTHOGONALITY_RTOL * max|v| * (largest weighted degree).
# CG solves to a relative residual of 1e-12, and CLI tables carry 12
# significant digits, so both sit well above round-off and well below the
# 1e-6 * max|v| corruption the self-test plants.
EFFICIENCY_RTOL = 1e-8
ORTHOGONALITY_RTOL = 1e-9
SHAPLEY_RTOL = 1e-8


class CheckError(AssertionError):
    pass


class CaseGraph:
    """Edges (base, player) of a cube with some coalitions removed, plus weights."""

    def __init__(self, n: int, removed=(), weights="constant", explicit=None):
        self.n = n
        self.removed = frozenset(removed)
        verts = np.arange(1 << n, dtype=np.int64)
        feasible = np.ones(1 << n, dtype=bool)
        feasible[list(self.removed)] = False
        self.vertices = verts[feasible]
        bases, players = [], []
        for i in range(n):
            b = verts[((verts >> i) & 1 == 0) & feasible]
            b = b[feasible[b | (1 << i)]]
            bases.append(b)
            players.append(np.full(len(b), i, dtype=np.int64))
        self.base = np.concatenate(bases)
        self.player = np.concatenate(players)
        self.dst = self.base | (np.int64(1) << self.player)
        size = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):
            size += (verts >> i) & 1
        if weights == "constant":
            w = np.ones(len(self.base))
        elif weights == "size-plus-one":
            w = (size[self.base] + 1).astype(np.float64)
        elif weights == "degree-product":
            deg = (np.bincount(self.base, minlength=1 << n)
                   + np.bincount(self.dst, minlength=1 << n))
            w = (deg[self.base] * deg[self.dst]).astype(np.float64)
        elif weights == "explicit":
            w = np.array([float(explicit.get((b, p), 1))
                          for b, p in zip(self.base.tolist(), self.player.tolist())])
        else:
            raise ValueError(f"unknown weight rule {weights!r}")
        self.weights_float = w
        self._explicit = explicit if weights == "explicit" else None
        wdeg = (np.bincount(self.base, weights=w, minlength=1 << n)
                + np.bincount(self.dst, weights=w, minlength=1 << n))
        self.max_weighted_degree = float(wdeg.max())
        self.is_full_cube = not self.removed
        self.permutation_invariant = weights in ("constant", "size-plus-one")

    def weights_exact(self) -> list:
        """Exact edge weights; every rule but explicit gives integers."""
        if self._explicit is not None:
            return [Fraction(self._explicit.get((b, p), 1))
                    for b, p in zip(self.base.tolist(), self.player.tolist())]
        return [Fraction(int(x)) for x in self.weights_float.tolist()]


# ---------------------------------------------------------------------------
# Shapley references
# ---------------------------------------------------------------------------

def shapley_exact(values, n: int) -> tuple:
    coeff = [Fraction(factorial(s) * factorial(n - 1 - s), factorial(n)) for s in range(n)]
    out = []
    for i in range(n):
        bit = 1 << i
        out.append(sum((coeff[S.bit_count()] * (values[S | bit] - values[S])
                        for S in range(1 << n) if not S & bit), Fraction(0)))
    return tuple(out)


def shapley_float(values: np.ndarray, n: int) -> np.ndarray:
    """Vectorised Shapley values of a float game given as a length-2**n table."""
    values = np.asarray(values, dtype=np.float64)
    S = np.arange(1 << n)
    size = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        size += (S >> i) & 1
    coeff = np.array([factorial(s) * factorial(n - 1 - s) / factorial(n) for s in range(n)])
    out = np.empty(n)
    for i in range(n):
        base = S[(S >> i) & 1 == 0]
        out[i] = float(np.dot(coeff[size[base]], values[base | (1 << i)] - values[base]))
    return out


# ---------------------------------------------------------------------------
# decomposition checks
# ---------------------------------------------------------------------------

def check_exact(cg: CaseGraph, v, components) -> None:
    """Bit-exact checks of rational component tables (length-2**n sequences)."""
    n = cg.n
    if len(components) != n:
        raise CheckError(f"expected {n} components, got {len(components)}")
    verts = cg.vertices.tolist()
    for i, c in enumerate(components):
        if c[0] != 0:
            raise CheckError(f"component {i} is {c[0]} on the empty coalition")
    for S in verts:
        total = sum((c[S] for c in components), Fraction(0))
        if total != v[S]:
            raise CheckError(f"efficiency fails at coalition {S}: {total} != {v[S]}")
    base, dst, player = cg.base.tolist(), cg.dst.tolist(), cg.player.tolist()
    weights = cg.weights_exact()
    for i, c in enumerate(components):
        acc = {S: Fraction(0) for S in verts}
        for b, t, p, w in zip(base, dst, player, weights):
            r = c[t] - c[b]
            if p == i:
                r -= v[t] - v[b]
            if r:
                acc[t] += w * r
                acc[b] -= w * r
        bad = [S for S, x in acc.items() if x != 0]
        if bad:
            raise CheckError(f"orthogonality fails for player {i} at coalition {bad[0]}")
    if cg.is_full_cube and cg.permutation_invariant:
        alloc = tuple(c[(1 << n) - 1] for c in components)
        if alloc != shapley_exact(v, n):
            raise CheckError("allocation differs from the Shapley value")


def check_float(cg: CaseGraph, v: np.ndarray, components: np.ndarray) -> None:
    """Tolerance checks of float components given as an (n, 2**n) array."""
    n = cg.n
    v = np.asarray(v, dtype=np.float64)
    comps = np.asarray(components, dtype=np.float64)
    if comps.shape != (n, 1 << n):
        raise CheckError(f"component array has shape {comps.shape}, expected {(n, 1 << n)}")
    if not np.all(np.isfinite(comps[:, cg.vertices])):
        raise CheckError("non-finite component value")
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.any(comps[:, 0] != 0.0):
        raise CheckError("a component is nonzero on the empty coalition")
    gap = float(np.max(np.abs(comps[:, cg.vertices].sum(axis=0) - v[cg.vertices])))
    if gap > EFFICIENCY_RTOL * scale:
        raise CheckError(f"efficiency gap {gap:.3e} exceeds {EFFICIENCY_RTOL:g} * {scale:g}")
    m = 1 << n
    dv = v[cg.dst] - v[cg.base]
    w = cg.weights_float
    limit = ORTHOGONALITY_RTOL * scale * cg.max_weighted_degree
    for i in range(n):
        r = comps[i, cg.dst] - comps[i, cg.base] - np.where(cg.player == i, dv, 0.0)
        wr = w * r
        res = np.bincount(cg.dst, weights=wr, minlength=m) - np.bincount(cg.base, weights=wr,
                                                                          minlength=m)
        worst = float(np.max(np.abs(res[cg.vertices])))
        if worst > limit:
            raise CheckError(f"orthogonality residual {worst:.3e} for player {i} "
                             f"exceeds {limit:.3e}")
    if cg.is_full_cube and cg.permutation_invariant:
        ref = shapley_float(v, n)
        err = float(np.max(np.abs(comps[:, m - 1] - ref)))
        if err > SHAPLEY_RTOL * scale:
            raise CheckError(f"allocation differs from the Shapley value by {err:.3e}")


def check_glove(expected: dict, v, components) -> None:
    """Bit-exact comparison with an embedded reference table."""
    rows = {S: (v[S],) + tuple(c[S] for c in components) for S in expected}
    for S, row in expected.items():
        if rows[S] != tuple(row):
            raise CheckError(f"reference table mismatch at coalition {S}: "
                             f"{tuple(map(str, rows[S]))} != {tuple(map(str, row))}")


# ---------------------------------------------------------------------------
# CLI output checks
# ---------------------------------------------------------------------------

def coalition_key(S: int) -> str:
    """The CLI's coalition literal: sorted 0-indexed members, as in "[0,2]"."""
    return "[" + ",".join(str(i) for i in range(S.bit_length()) if S >> i & 1) + "]"


def check_cli_csv(cg: CaseGraph, v: np.ndarray, text: str) -> None:
    """The decompose CSV table: one row per feasible coalition, correct values."""
    n = cg.n
    rows = list(csv.reader(io.StringIO(text)))
    header = ["coalition", "v"] + [f"v_{i + 1}" for i in range(n)]
    if not rows or rows[0] != header:
        raise CheckError("CSV header missing or malformed")
    body = rows[1:]
    if len(body) != len(cg.vertices):
        raise CheckError(f"CSV has {len(body)} rows, expected {len(cg.vertices)}")
    index = {coalition_key(S): S for S in cg.vertices.tolist()}
    comps = np.zeros((n, 1 << n))
    table_v = np.zeros(1 << n)
    seen = set()
    for row in body:
        if len(row) != n + 2 or row[0] not in index or row[0] in seen:
            raise CheckError(f"bad CSV row {row[:3]}")
        seen.add(row[0])
        S = index[row[0]]
        try:
            table_v[S] = float(row[1])
            comps[:, S] = [float(x) for x in row[2:]]
        except ValueError:
            raise CheckError(f"non-numeric CSV row {row[:3]}") from None
    scale = max(1.0, float(np.max(np.abs(v))))
    if float(np.max(np.abs(table_v[cg.vertices] - v[cg.vertices]))) > 1e-10 * scale:
        raise CheckError("CSV game column differs from the input game")
    check_float(cg, v, comps)


def check_cli_verify(code: int, text: str) -> None:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if code != 0 or len(lines) < 2 or not all(ln.startswith("PASS") for ln in lines):
        raise CheckError(f"verify exited {code} with output {lines!r}")
