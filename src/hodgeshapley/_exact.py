"""Exact rational solves of the pinned Laplacian systems by p-adic lifting.

``DixonSolver`` takes a nonsingular integer matrix (the caller scales the
weights by their common denominator, which keeps the Laplacian symmetric
and leaves the solution unchanged).  It computes one modular matrix
inverse (numpy, word-sized arithmetic); each solve then lifts a p-adic
digit expansion of the solution and recovers exact fractions by rational
reconstruction.  The residual update ``A @ x`` runs over A's nonzeros in
int64 when that is exact and on Python ints otherwise, so entries of any
size are accepted.  Every returned solution is verified against the exact
integer matrix, so heuristic digit-count bounds cannot give silently
wrong answers; on a shortfall the digit count is doubled and the lift
rerun.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

# Primes just above 2**25: small enough that Gauss-Jordan stays in int64
# and the split matvec stays exact in float64, large enough that lifting
# needs few digits.
_PRIMES = (33554467, 33554473, 33554501, 33554509, 33554519)
_SPLIT = 1 << 13
_MAX_UNKNOWNS = 1 << 12  # dense modular inverse beyond this is impractical


class SingularMatrixError(ValueError):
    pass


def _modular_inverse_matrix(A: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of A mod p by Gauss-Jordan; None when singular mod p."""
    m = A.shape[0]
    M = np.concatenate([(A % p).astype(np.int64), np.eye(m, dtype=np.int64)], axis=1)
    for k in range(m):
        nz = np.nonzero(M[k:, k])[0]
        if len(nz) == 0:
            return None
        piv = k + int(nz[0])
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
        M[k] = (M[k] * pow(int(M[k, k]), -1, p)) % p
        col = M[:, k].copy()
        col[k] = 0
        M -= np.outer(col, M[k])
        M %= p
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
        self._C_hi = (C // _SPLIT).astype(np.float64)
        self._C_lo = (C % _SPLIT).astype(np.float64)
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

    def _product(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A @ x over A's nonzeros, in the dtype of data."""
        return np.add.reduceat(data * x.astype(data.dtype)[self._cols], self._starts)

    def _matvec_mod(self, r_mod: np.ndarray) -> np.ndarray:
        p = self.p
        hi = self._C_hi @ r_mod
        lo = self._C_lo @ r_mod
        return (hi.astype(np.int64) % p * _SPLIT + lo.astype(np.int64)) % p

    def _lift(self, b: np.ndarray, steps: int) -> list[Fraction] | None:
        p = self.p
        r = b
        digits = []
        for _ in range(steps):
            x = self._matvec_mod((r % p).astype(np.float64))
            digits.append(x)
            r = (r - self._product(self._data, x)) // p
        M = p ** steps
        bound = isqrt(M // 2)
        acc = np.zeros(self._m, dtype=object)
        for x in reversed(digits):  # Horner from the top digit down
            acc = acc * p + x.astype(object)
        sol = []
        den = 1
        for a in acc:
            # try the running common denominator first, else reconstruct
            y = a * den % M
            if y > M - bound:
                y -= M
            if abs(y) <= bound:
                sol.append(Fraction(y, den))
                continue
            nd = _rational_reconstruct(a, M, bound)
            if nd is None:
                return None
            num, d = nd
            den = den * d // gcd(den, d)
            sol.append(Fraction(num, d))
        return sol

    def solve(self, b: list[int]) -> list[Fraction]:
        b = np.array(b, dtype=object)
        max_b = max(map(abs, b), default=1)
        log2_needed = 2 * self._log2_det + max(1, max_b).bit_length() + self._m.bit_length() + 30
        steps = int(log2_needed / np.log2(self.p)) + 2
        for _ in range(6):
            sol = self._lift(b, steps)
            if sol is not None and self._check(sol, b):
                return sol
            steps *= 2
        raise ArithmeticError("p-adic lifting failed to produce a verified solution")

    def _check(self, x: list[Fraction], b: np.ndarray) -> bool:
        """A x == b exactly, checked as A (den x) == den b in Python ints."""
        den = lcm(*(f.denominator for f in x))
        x_int = np.array([f.numerator * (den // f.denominator) for f in x], dtype=object)
        return bool(np.all(self._product(self._entries, x_int) == den * b))


def _rational_reconstruct(x: int, M: int, bound: int):
    """n/d with n = x*d mod M, |n| <= bound, 0 < d <= bound; None if impossible."""
    r0, r1 = M, x % M
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if d > bound or gcd(n if n >= 0 else -n, d) != 1:
        return None
    return n, d
