"""Exact rational solves of the pinned Laplacian systems by p-adic lifting.

``DixonSolver`` takes a nonsingular integer matrix (the caller scales the
weights by their common denominator, which keeps the Laplacian symmetric
and leaves the solution unchanged).  It computes one modular matrix
inverse and then, per block of right-hand sides, lifts a p-adic digit
expansion of the whole solution block at once and recovers it by rational
reconstruction as Python ints over one common denominator.

The inverse is Gauss-Jordan on ``[A | I]`` mod p, blocked in panels of
``_PANEL`` pivot columns.  Within a panel the row-by-row steps touch only
the panel's ``m x _PANEL`` slice and record the panel's transform
``I + V``; the rest of the matrix then takes one product ``V @ M[panel
rows]`` mod p, over the columns those rows can reach, in column chunks.
That product runs in float64 BLAS with V split into 13-bit halves: each
half's entries stay below ``2**13`` and M's below ``p < 2**25.1``, so a
sum of ``_PANEL = 32`` products stays below ``2**43.1``, far inside the
53-bit mantissa, and is exact.  Each lifting step's product of the
inverse with the residual block mod p splits the residuals the same way;
its sums of ``m <= 2**12`` products stay below ``2**50.1``.

Lifting stops as early as the whole block allows: the digits accumulate
as ``acc += x * p**k``, and at ``k = 2, 4, 8, ...`` the solver
reconstructs a candidate over a running common denominator and returns
the first one that passes ``_check``.  The Hadamard bound on ``det A``
fixes the digit count at which a candidate is guaranteed; past it the
count doubles a few more times as a last resort.  The residual update ``A
@ x`` runs over A's nonzeros in int64 when that is exact and on Python
ints otherwise, so entries of any size are accepted.  ``_check`` verifies
every returned block, ``A X = den B``, against the exact integer matrix;
it is the only correctness guarantee, so neither an early candidate nor a
digit-count bound can give a silently wrong answer.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

# Primes just above 2**25: a product of two residues (< 2**50.2) is exact
# in int64 in a panel's elimination steps, a residue times a 13-bit half
# keeps the float64 products exact (module docstring), and each lifted
# digit carries 25 bits of the answer.
_PRIMES = (33554467, 33554473, 33554501, 33554509, 33554519)
_SPLIT = 1 << 13
_PANEL = 32  # pivot columns per panel of the blocked inverse
_CHUNK = 256  # columns per chunk of a panel's update
# Memory, not time, sets this cap: the inverse works on an m x 2m int64
# array and the solver keeps an m x m float64 copy of the result; with the
# caller's dense system that is about 38 m**2 bytes (0.6 GB at the cap).
# The lifting step's float64 product is exact only up to m = 2**12 too.
_MAX_UNKNOWNS = 1 << 12
_LAST_RESORT_DOUBLINGS = 5


class SingularMatrixError(ValueError):
    pass


def _modular_inverse_matrix(A: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of A mod p by panel-blocked Gauss-Jordan; None when singular mod p."""
    m = A.shape[0]
    M = np.concatenate([(A % p).astype(np.int64), np.eye(m, dtype=np.int64)], axis=1)
    # outside its own identity entry, every row of the right half is zero
    # past its first `reach` columns
    reach = 0
    for k0 in range(0, m, _PANEL):
        k1 = min(k0 + _PANEL, m)
        b = k1 - k0
        # W is the panel's columns, then V: the panel's steps so far have
        # multiplied M by I + V, where V is zero outside the columns k0..k1-1
        W = np.zeros((m, 2 * b), dtype=np.int64)
        W[:, :b] = M[:, k0:k1]
        for j in range(b):
            k = k0 + j
            nz = np.flatnonzero(W[k:, j])
            if len(nz) == 0:
                return None
            piv = k + int(nz[0])
            if piv != k:
                for X in (M, W):
                    X[[k, piv]] = X[[piv, k]]
            reach = max(reach, piv + 1)
            # the step is I + u e_k^T: scale row k, clear column k elsewhere.
            # It leaves the panel's columns left of j as they are, and turns
            # I + V into I + V + u (e_k + V[k])^T; V's columns past j are
            # still zero, so one slice of width b holds all that changes.
            inv = pow(int(W[k, j]), -1, p)
            u = W[:, j] * (p - inv) % p
            u[k] = (inv - 1) % p
            r = W[k, j + 1:j + 1 + b].copy()
            r[-1] += 1
            live = W[:, j + 1:j + 1 + b]
            live += np.outer(u, r)
            live %= p
        # apply I + V to the columns right of the panel that its rows reach;
        # columns left of k1 are never read again.  The product runs in
        # float64 on 13-bit halves of V (exact, see the module docstring);
        # hi * 2**13 + lo + M stays below 2**56, so int64 holds the sum.
        V_hi = (W[:, b:] // _SPLIT).astype(np.float64)
        V_lo = (W[:, b:] % _SPLIT).astype(np.float64)
        for c0 in range(k1, m + reach, _CHUNK):
            c1 = min(c0 + _CHUNK, m + reach)
            X = M[k0:k1, c0:c1].astype(np.float64)
            out = M[:, c0:c1]
            acc = (V_hi @ X).astype(np.int64)
            acc *= _SPLIT
            acc += (V_lo @ X).astype(np.int64)
            acc += out
            np.remainder(acc, p, out=out)
    return M[:, m:]


class DixonSolver:
    """Exact rational solves of an integer system via p-adic lifting.

    A is a dense square array of int64 or of Python ints (object dtype).
    """

    def __init__(self, A: np.ndarray):
        m = A.shape[0]
        if m > _MAX_UNKNOWNS:
            raise ValueError(f"system too large for the lifting solver ({m} unknowns)")
        self._m = m
        C = None
        for p in _PRIMES:
            C = _modular_inverse_matrix(A, p)
            if C is not None:
                self.p = p
                break
        if C is None:
            raise SingularMatrixError("matrix is singular (or singular modulo all probe primes)")
        self._C = C.astype(np.float64)
        # A's nonzeros row by row; a nonsingular matrix has no empty row
        rows, self._cols = np.nonzero(A)
        self._starts = np.searchsorted(rows, np.arange(m))
        self._entries = A[rows, self._cols].astype(object)
        max_abs = max(map(abs, self._entries), default=0)
        row_nnz = int(np.bincount(rows).max())
        # A @ x with 0 <= x < p is exact in int64 below this bound
        exact_in_int64 = max_abs * row_nnz * self.p < (1 << 62)
        self._data = self._entries.astype(np.int64) if exact_in_int64 else self._entries
        # Hadamard bound: log2 |det A| <= sum of row-norm logs
        sq = np.add.reduceat(self._entries * self._entries, self._starts)
        self._log2_det = sum(0.5 * int(x).bit_length() for x in sq)

    def _product(self, data: np.ndarray, X: np.ndarray) -> np.ndarray:
        """A @ X over A's nonzeros, in the dtype of data."""
        return np.add.reduceat(data[:, None] * X.astype(data.dtype)[self._cols], self._starts)

    def _matvec_mod(self, r_mod: np.ndarray) -> np.ndarray:
        """C @ r mod p on r's 13-bit halves: each float64 sum of m <= 2**12
        products below 2**38.1 is exact."""
        p = self.p
        hi = self._C @ (r_mod // _SPLIT)
        lo = self._C @ (r_mod % _SPLIT)
        return (hi.astype(np.int64) % p * _SPLIT + lo.astype(np.int64)) % p

    def _guaranteed_digits(self, max_b: int) -> int:
        """Digits after which reconstruction finds the solution (Hadamard bound)."""
        log2_needed = 2 * self._log2_det + max(1, max_b).bit_length() + self._m.bit_length() + 30
        return int(log2_needed / np.log2(self.p)) + 2

    def solve(self, B: np.ndarray) -> tuple[np.ndarray, int]:
        """``(X, den)`` with ``A X = den * B`` exactly: B and X are (m, k)
        arrays of ints, X of Python ints, over one common denominator."""
        B = np.asarray(B, dtype=object)
        max_b = max(map(abs, B.flat), default=1)
        # try powers of two below the guaranteed count, then that count,
        # then double it as a last resort
        guaranteed = self._guaranteed_digits(max_b)
        tries = {1 << e for e in range(1, guaranteed.bit_length()) if 1 << e < guaranteed}
        tries.update(guaranteed << e for e in range(_LAST_RESORT_DOUBLINGS + 1))
        p = self.p
        # with A x exact in int64 (|A x| < 2**62) and |r| < 2**62, r - A x
        # fits int64 and dividing by p brings it back below 2**62
        r = B.astype(np.int64) if self._data.dtype == np.int64 and max_b < 1 << 62 else B
        acc = np.zeros(B.shape, dtype=object)
        pk = 1
        for k in range(1, max(tries) + 1):
            x = self._matvec_mod((r % p).astype(np.float64))
            acc += x.astype(object) * pk
            pk *= p
            r = (r - self._product(self._data, x)) // p
            if k in tries:
                sol = _reconstruct(acc, pk)
                if sol is not None and self._check(*sol, B):
                    return sol
        raise ArithmeticError("p-adic lifting failed to produce a verified solution")

    def _check(self, X: np.ndarray, den: int, B: np.ndarray) -> bool:
        """A X == den B exactly, in Python ints."""
        return bool(np.all(self._product(self._entries, X) == den * B))


def _reconstruct(acc: np.ndarray, M: int) -> tuple[np.ndarray, int] | None:
    """``(X, den)`` with ``X / den`` congruent to acc mod M entry by entry,
    each entry within the balanced bound; None if there is none."""
    bound = isqrt(M // 2)
    found = []  # (numerator, denominator) per entry, in acc's flat order
    den = 1
    for a in acc.flat:
        # try the running common denominator first, else reconstruct
        y = a * den % M
        if y > M - bound:
            y -= M
        if abs(y) <= bound:
            found.append((y, den))
            continue
        nd = _rational_reconstruct(a, M, bound)
        if nd is None:
            return None
        found.append(nd)
        den = den * nd[1] // gcd(den, nd[1])
    X = np.array([y * (den // d) for y, d in found], dtype=object).reshape(acc.shape)
    return X, den


def _rational_reconstruct(x: int, M: int, bound: int):
    """n/d with n = x*d mod M, |n| <= bound, 0 < d <= bound; None if impossible."""
    r0, r1 = M, x % M
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    # s1 is never 0: |s1| grows from 1, as every quotient q is at least 1
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if d > bound or gcd(n if n >= 0 else -n, d) != 1:
        return None
    return n, d
