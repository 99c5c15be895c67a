"""Exact rational solves of the pinned Laplacian systems by lifting.

``DixonSolver(m, rows, cols, entries)`` takes a nonsingular m x m integer
matrix A by its nonzeros (the caller scales the weights by their common
denominator, which keeps the Laplacian symmetric and leaves the solution
unchanged) and solves ``A X = B`` for a block of integer right-hand sides
at once, as Python ints over one common denominator.

It inverts A in float64 once (LAPACK) and lifts dyadic digits
(numeric-symbolic lifting, Wan 2006).  With the approximation ``N / 2**E``
and its exact residual ``r = 2**E B - A N``, a step takes ``x = F r`` on
r's float view (``_float_view``: its bits above ``2**62`` shifted off),
rounds ``y = rint(2**s x)`` with s set so that y's largest entry has
``_STEP_BITS`` bits (fewer when that keeps ``A y`` in int64), and updates
``r <- 2**s r - A y`` and ``N <- 2**s N + y`` exactly, over A's nonzeros:
in int64 when every term stays below ``2**62``, on Python ints otherwise
(s < 0, for a right-hand side far past A's scale, adds ``2**-s y`` to N
and leaves E as it is).
Each step gains the bits that float64 resolves, about 44 to 48 on
size-plus-one and constant cubes.  The digits accumulate in int64 limbs
(``_Digits``), so a step costs no Python int arithmetic.  At ``E = 64, 128,
256, ...`` bits (``_tries``) the solver reconstructs a candidate: the first
entries alone reject most early candidates, then continued fractions over
a running common denominator give every entry, and only a candidate that
passes ``_check`` is returned.  The Hadamard bound on ``det A`` fixes the
bit count at which a candidate is guaranteed; past it the count doubles a
few more times as a last resort.

Some systems are beyond float64: a weight spread of ``10**16`` between
neighbouring edges leaves a float step no bits.  When the float inverse
or a float step is not finite, a step gains fewer than ``_MIN_GAIN_BITS``
bits (the scale-up less the residual's growth), or no candidate passes,
the solver inverts A mod p once instead and lifts p-adic digits for this
and every later block.  That inverse is Gauss-Jordan on ``[A | I]`` mod
p, blocked in panels of ``_PANEL`` pivot columns.  Within a panel
the row-by-row steps touch only the panel's ``m x _PANEL`` slice and
record the panel's transform ``I + V``; the rest of the matrix then takes
one product ``V @ M[panel rows]`` mod p, over the columns those rows can
reach, in column chunks.  That product runs in float64 BLAS with V split
into 13-bit halves: each half's entries stay below ``2**13`` and M's below
``p < 2**25.1``, so a sum of ``_PANEL = 32`` products stays below
``2**43.1``, far inside the 53-bit mantissa, and is exact.  Each p-adic
step's product of the inverse with the residual block mod p splits the
residuals the same way; its sums of ``m <= 2**12`` products stay below
``2**50.1``.  The digits accumulate as ``acc += x * p**k``, and at ``k =
2, 4, 8, ...`` and the Hadamard count, on the float route's schedule, the
solver reconstructs a candidate by rational reconstruction mod ``p**k``.

``_check`` verifies every returned block, ``A X = den B``, against the
exact integer matrix; it is the only correctness guarantee, so neither a
float rounding, an early candidate nor a digit-count bound can give a
silently wrong answer.
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
# The p-adic step's float64 product is exact only up to m = 2**12, and the
# dense m x m arrays set memory: a decompose at 4093 unknowns peaked at
# +530 MiB, about 33 m**2 bytes, while the float inverse was computed (the
# float matrix, LAPACK's working copy and right-hand side, the output).
_MAX_UNKNOWNS = 1 << 12
_LAST_RESORT_DOUBLINGS = 5
# Bits of a float step's digits y; float64 resolves about 44 to 48 of them
# on well-conditioned systems, and step counts moved by under 2 % between 44
# and 53 (15 cubes, n = 5..9).
_STEP_BITS = 50
# A float step that gains fewer bits than this stalls the float route.
# Measured gains per step (n = 5..7 cubes): 44-50 on constant, size-plus-one
# and k/4 weights, 30-40 on 10**s size tables and weights within 10**+-6,
# 18-33 within 10**+-12 and 10**+-14 (where the float route took 0.6-1.4
# times the p-adic one), and at most 3 with neighbouring edges 10**16 or
# more apart (where the p-adic route was 2-50 times faster).
_MIN_GAIN_BITS = 16
_FIRST_TRY_BITS = 64  # the first reconstruction, in bits of the answer
_LIMB = 32  # bits per limb of _Digits
_PROBE = 64  # entries that vet a candidate before the whole block


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
    """Exact rational solves of an integer system: dyadic lifting on a
    float64 inverse, or p-adic lifting where float64 falls short.

    A is m x m, given by its nonzeros ``entries`` at ``(rows, cols)``, rows
    in ascending order, as int64 or Python ints; the float64 inverse is
    built without a dense integer copy of A.
    """

    def __init__(self, m: int, rows: np.ndarray, cols: np.ndarray, entries: np.ndarray):
        if m > _MAX_UNKNOWNS:
            raise ValueError(f"system too large for the lifting solver ({m} unknowns)")
        self._m = m
        # A's nonzeros row by row; a nonsingular matrix has no empty row
        self._rows, self._cols = rows, cols
        self._starts = np.searchsorted(self._rows, np.arange(m))
        self._entries = entries.astype(object)
        # bits of |A|_inf, which bounds |A y| by |A|_inf |y|
        self._row_bits = int(max(np.add.reduceat(np.abs(self._entries), self._starts))).bit_length()
        # A @ x for a p-adic digit 0 <= x < p < 2**26 stays below 2**61 in
        # int64 when |A|_inf < 2**35; a float step's digit then takes all the
        # room below 2**61, up to _STEP_BITS
        exact_in_int64 = self._row_bits <= 61 - _PRIMES[-1].bit_length()
        self._data = self._entries.astype(np.int64) if exact_in_int64 else self._entries
        self._step_bits = min(_STEP_BITS, 61 - self._row_bits) if exact_in_int64 else _STEP_BITS
        # Hadamard bound: log2 |det A| <= sum of row-norm logs
        sq = np.add.reduceat(self._entries * self._entries, self._starts)
        self._log2_det = sum(0.5 * int(x).bit_length() for x in sq)
        self.p = self._C = self._F = None
        try:
            F = np.zeros((m, m))
            F[rows, cols] = entries
            with np.errstate(all="ignore"):
                F = np.linalg.inv(F)
        except (np.linalg.LinAlgError, OverflowError):
            F = None
        if F is not None and np.all(np.isfinite(F)):
            self._F = F
            # at least 2 |F|_inf: |A^-1 r| stays below it times |r|
            self._err_scale = int(2 * np.abs(F).sum(axis=1).max()) + 1
        else:
            self._factor_mod_p()

    def _dense(self) -> np.ndarray:
        """A again, from its nonzeros, in the dtype of ``_data``."""
        A = np.zeros((self._m, self._m), dtype=self._data.dtype)
        A[self._rows, self._cols] = self._data
        return A

    def _factor_mod_p(self) -> None:
        """Switch to the p-adic route: invert A mod the first probe prime
        that leaves it nonsingular, and drop the float inverse."""
        self._F = None
        A = self._dense()
        for p in _PRIMES:
            C = _modular_inverse_matrix(A, p)
            if C is not None:
                self.p, self._C = p, C.astype(np.float64)
                return
        raise SingularMatrixError("matrix is singular (or singular modulo all probe primes)")

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

    def _guaranteed_bits(self, max_b: int) -> int:
        """Bits of the answer after which reconstruction finds it (Hadamard bound)."""
        return int(2 * self._log2_det) + max(1, max_b).bit_length() + self._m.bit_length() + 30

    def solve(self, B: np.ndarray) -> tuple[np.ndarray, int]:
        """``(X, den)`` with ``A X = den * B`` exactly: B and X are (m, k)
        arrays of ints, X of Python ints, over one common denominator."""
        B = np.asarray(B, dtype=object)
        max_b = max(map(abs, B.flat), default=0)
        if self._F is not None:
            sol = self._lift_float(B, max_b)
            if sol is not None:
                return sol
            self._factor_mod_p()
        return self._lift_p_adic(B, max_b)

    def _float_step(self, rf: np.ndarray) -> tuple[np.ndarray, int] | None:
        """``(y, s)``: y = rint(2**s F rf) in int64, rf a float view of the
        residual, with s set so that the largest entry has ``_step_bits``
        bits; None when F rf is not finite and nonzero."""
        with np.errstate(all="ignore"):
            x = self._F @ rf
            peak = np.max(np.abs(x))
        if not 0 < peak < np.inf:
            return None
        s = self._step_bits - int(np.frexp(peak)[1])
        return np.rint(np.ldexp(x, s)).astype(np.int64), s

    def _lift_float(self, B: np.ndarray, max_b: int) -> tuple[np.ndarray, int] | None:
        """Dyadic lifting: ``N / 2**E`` approaches ``A^-1 B`` with the exact
        residual ``r = 2**E B - A N``; None when a float step is not finite
        or gains fewer than ``_MIN_GAIN_BITS``, or every candidate fails."""
        # reconstruction needs 2**E past 2 err det(A)**2, err as below
        guaranteed = self._guaranteed_bits(max_b) + self._err_scale.bit_length() + self._row_bits
        digits = _Digits(B.shape)
        E = tried = 0
        r, rf, r_bits, t = _float_view(B)
        for bound in _tries(_FIRST_TRY_BITS, guaranteed):
            while E < bound and r_bits:
                step = self._float_step(rf)
                if step is None:
                    return None
                y, s = step
                s -= t  # rf is r / 2**t
                # r <- 2**up r - A y 2**down, with one of up and down zero
                up, down = max(s, 0), max(-s, 0)
                if r.dtype == self._data.dtype == np.int64 and not down and r_bits + up <= 61:
                    # |A y| < 2**61 by the choice of _step_bits, and so is
                    # |2**up r| unless the float step was far off: int64 is exact
                    r = (r << up) - self._product(self._data, y)
                else:
                    r = (r.astype(object) << up) - (self._product(self._entries, y) << down)
                digits.add(y, E + s)
                E += up
                # the step's gain: its scale-up plus the residual's fall
                before = up + r_bits
                r, rf, r_bits, t = _float_view(r)
                if before - r_bits < _MIN_GAIN_BITS:
                    return None
            if E <= tried and r_bits:
                continue  # no new bits since the last candidate
            tried = E
            # |A^-1 B - N / 2**E| <= |A^-1 r| / 2**E <= err / 2**E entry by entry
            err = self._err_scale << r_bits if r_bits else 0
            # on a large block, the first rows alone reject most early
            # candidates, and cheaply
            probe = slice(-(-_PROBE // B.shape[1]))
            if 4 * probe.stop < len(B) and not _reconstruct_dyadic(digits.value(E, probe), E, err):
                continue
            sol = _reconstruct_dyadic(digits.value(E), E, err)
            if sol is not None and self._check(*sol, B):
                return sol
        return None

    def _lift_p_adic(self, B: np.ndarray, max_b: int) -> tuple[np.ndarray, int]:
        """p-adic lifting on the inverse mod p."""
        tries = _tries(2, int(self._guaranteed_bits(max_b) / np.log2(self.p)) + 2)
        p = self.p
        # with A x exact in int64 (|A x| < 2**62) and |r| < 2**62, r - A x
        # fits int64 and dividing by p brings it back below 2**62
        r = B.astype(np.int64) if self._data.dtype == np.int64 and max_b < 1 << 62 else B
        acc = np.zeros(B.shape, dtype=object)
        pk = 1
        for k in range(1, tries[-1] + 1):
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


def _tries(first: int, guaranteed: int) -> list[int]:
    """Where a lift reconstructs a candidate, in bits or digits of the
    answer: first and its doublings below the guaranteed count, then that
    count, then ``_LAST_RESORT_DOUBLINGS`` doublings of it."""
    below = [first << e for e in range(guaranteed.bit_length()) if first << e < guaranteed]
    return below + [guaranteed << e for e in range(_LAST_RESORT_DOUBLINGS + 1)]


def _max_bits(r: np.ndarray) -> int:
    """Bits of the largest magnitude in an integer array (0 when all are 0)."""
    return int(np.max(np.abs(r))).bit_length()


def _float_view(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``(r, rf, bits, t)`` for an integer array r: r, as int64 when its
    entries fit; rf, the float64 copy of ``r >> t``; bits with ``|r| <
    2**bits``; and t, the bits above ``2**62`` shifted off, so rf is in
    float64's range however large r is."""
    bits = _max_bits(r)
    t = max(0, bits - 62)
    if r.dtype == object and not t:
        r = r.astype(np.int64)
    return r, (r >> t if t else r).astype(np.float64), bits, t


class _Digits:
    """A sum of int64 digit arrays ``y * 2**-p``, kept as int64 limbs of
    ``_LIMB`` bits with deferred carries, so that adding a digit costs a
    few numpy passes and no Python int.

    Against ``N = 2**s N + y`` on Python ints every step, decomposes of
    restricted size-plus-one cubes took 0.235 against 0.382 s at 1,021
    unknowns and 1.23 against 1.87 s at 2,045 (one BLAS thread), and the
    same at n = 8.
    """

    def __init__(self, shape: tuple):
        # limb t counts units of 2**(-_LIMB (t + 1)); the zero limb keeps the shape
        self._limbs = {0: np.zeros(shape, dtype=np.int64)}

    def _add(self, t: int, x: np.ndarray) -> None:
        if t in self._limbs:
            self._limbs[t] += x
        else:
            self._limbs[t] = x

    def add(self, y: np.ndarray, p: int) -> None:
        """Add y * 2**-p; |y| <= 2**_STEP_BITS."""
        t = (p - 1) // _LIMB  # the limb of y's lowest bit
        a = _LIMB * (t + 1) - p  # y's shift inside it, in [0, _LIMB)
        self._add(t, (y & ((1 << (_LIMB - a)) - 1)) << a)
        self._add(t - 1, y >> (_LIMB - a))

    def value(self, E: int, rows: slice = slice(None)) -> np.ndarray:
        """The sum times 2**E, as Python ints, on these rows of the digits;
        exact when every p <= E."""
        first, last = min(self._limbs), max(self._limbs)
        shape = self._limbs[first][rows].shape
        # carry from the least significant limb up; all but the top end in [0, 2**_LIMB)
        low = []
        carry = np.zeros(shape, dtype=np.int64)
        for t in range(last, first, -1):
            x = carry + self._limbs[t][rows] if t in self._limbs else carry
            low.append(x & ((1 << _LIMB) - 1))
            carry = x >> _LIMB
        top = carry + self._limbs[first][rows]
        count = len(low)
        V = top.astype(object) << (_LIMB * count)
        if count:
            buf = np.stack(low[::-1], axis=-1).astype(">u%d" % (_LIMB // 8)).tobytes()
            size = count * _LIMB // 8
            V += np.array([int.from_bytes(buf[i:i + size], "big")
                           for i in range(0, len(buf), size)], dtype=object).reshape(shape)
        shift = E - _LIMB * (last + 1)
        return V << shift if shift >= 0 else V >> -shift


def _reconstruct_dyadic(N: np.ndarray, E: int, err: int) -> tuple[np.ndarray, int] | None:
    """``(X, den)`` with ``|N / 2**E - X / den| <= err / 2**E`` entry by
    entry over one common denominator, each entry's own denominator below
    the bound that makes it unique; None if there is none."""
    half = 1 << E >> 1
    bound = isqrt(((1 << E) - 1) // (2 * err)) if err else 1 << E
    found = []  # (numerator, denominator) per entry, in N's flat order
    den = 1
    for a in N.flat:
        # try the running common denominator first, else a convergent
        t = a * den
        y = (t + half) >> E
        if abs(t - (y << E)) <= den * err:
            found.append((y, den))
            continue
        nd = _convergent(a, E, err, bound)
        if nd is None:
            return None
        found.append(nd)
        den = den * nd[1] // gcd(den, nd[1])
    X = np.array([y * (den // d) for y, d in found], dtype=object).reshape(N.shape)
    return X, den


def _convergent(a: int, E: int, err: int, bound: int):
    """The first convergent p/q of a / 2**E with ``|a q - p 2**E| <= q err``
    and q <= bound; None if there is none.

    Euclid on ``(2**E, a mod 2**E)`` keeps ``r = s a - t 2**E`` with t/s
    the convergents in turn, so the test needs no product with a.
    """
    M = 1 << E
    whole, a = divmod(a, M)
    r0, r1 = M, a
    s0, s1 = 0, 1
    while r1 > abs(s1) * err:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        if abs(s1) > bound:
            return None
    t = (s1 * a - r1) >> E
    q = abs(s1)
    return (t if s1 > 0 else -t) + whole * q, q


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
