"""Coalitions as bitmask integers over a fixed player set.

A coalition over ``n`` players is an ``int`` in ``[0, 2**n)`` whose set
bits are the 0-indexed members.  The bitset value doubles as the canonical
vertex index of the coalition hypercube, so enumeration order, file
formats, and solver orderings all agree.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence

from .errors import CapacityError, SpecFileError

# Hard cap on the player count, for bitsets and edge keys.  It promises no
# solve: float CG estimates (6.5 n + 5) * 2**n * 8 bytes (1.13 GB at n = 20,
# 21.6 GB at n = 24), spectral (2 n + 6) * 2**n * 8, exact spectral (170 n + 70)
# * 2**n; all refuse at entry past physical memory.  Exact lifting: 4096 unknowns.
PLAYER_CAP = 24

Coalition = int


def check_player_count(n: int) -> None:
    if not 0 <= n <= PLAYER_CAP:
        raise CapacityError(f"player count {n} outside supported range [0, {PLAYER_CAP}]")


def enumerate_coalitions(n: int) -> range:
    """All 2**n coalitions in ascending bitset order."""
    check_player_count(n)
    return range(1 << n)


def size(S: Coalition) -> int:
    """Number of members |S|."""
    return S.bit_count()


def members(S: Coalition) -> tuple[int, ...]:
    """Sorted member indices of S."""
    if S < 0:
        raise ValueError(f"coalition {S} is negative")
    out = []
    while S:
        low = S & -S
        out.append(low.bit_length() - 1)
        S ^= low
    return tuple(out)


def from_members(players: Iterable[int], n: int | None = None) -> Coalition:
    """Coalition containing the given 0-indexed players."""
    S = 0
    for p in players:
        if p < 0 or (n is not None and p >= n):
            raise ValueError(f"player index {p} outside [0, {n})")
        S |= 1 << p
    return S


def grand_coalition(n: int) -> Coalition:
    return (1 << n) - 1


def distance(S: Coalition, T: Coalition) -> int:
    """Hamming distance |S symmetric-difference T|."""
    return (S ^ T).bit_count()


def check_permutation(sigma: Sequence[int]) -> None:
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{n - 1}")


def apply_permutation(sigma: Sequence[int], S: Coalition) -> Coalition:
    """Image sigma(S) = {sigma[j] : j in S}."""
    check_permutation(sigma)
    out = 0
    for j in members(S):
        out |= 1 << sigma[j]
    return out


def parse_coalition(text: str, n: int | None = None) -> Coalition:
    """Parse a serialized member list such as "[0,2]" (0-indexed)."""
    if not isinstance(text, str):
        raise SpecFileError(f"coalition literal must be a string like '[0,2]', got {text!r}")
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise SpecFileError(f"coalition literal must look like '[0,2]', got {text!r}")
    body = t[1:-1].strip()
    if not body:
        return 0
    try:
        players = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise SpecFileError(f"non-integer player index in coalition {text!r}") from None
    S = from_members(players, n)
    if len(players) != size(S):
        raise SpecFileError(f"repeated player index in coalition {text!r}")
    return S


def coalition_key(S: Coalition) -> str:
    """Canonical serialized form: sorted 0-indexed member list, no spaces."""
    return "[" + ",".join(str(p) for p in members(S)) + "]"


@cache
def canonical_keys(n: int) -> tuple[str, ...]:
    """``coalition_key(S)`` for every S in ``range(2**n)``: the one label
    table per player count, which spec loading and table rendering share.

    Built on first use and kept for the process: with ``canonical_index``,
    about 130 bytes a coalition (1.0 MB at n = 13, 147 MB at n = 20).
    """
    check_player_count(n)
    return tuple(f"[{key}]" for key in joined_members(range(1 << n), [str(p) for p in range(n)]))


@cache
def canonical_index(n: int) -> dict[str, Coalition]:
    """The inverse of ``canonical_keys(n)``: the coalition of each canonical key.

    Callers read it and never modify it; it is built once per player count.
    """
    return {key: S for S, key in enumerate(canonical_keys(n))}


def joined_members(coalitions: Iterable[Coalition], names: Sequence[str]) -> list[str]:
    """``",".join(names[p] for p in members(S))`` for each coalition S.

    ``names`` holds one string per player.  The joins go through two
    tables, one per half of the player indices, of ``2**(n/2)`` entries
    each, so a long list costs one lookup pair per coalition.
    """
    h = (len(names) + 1) // 2
    low = [",".join(names[p] for p in members(S)) for S in range(1 << h)]
    high = [",".join(names[p + h] for p in members(S)) for S in range(1 << (len(names) - h))]
    mask = (1 << h) - 1
    out = []
    for S in coalitions:
        a, b = low[S & mask], high[S >> h]
        out.append(f"{a},{b}" if a and b else a or b)
    return out


def coalition_label(S: Coalition, names: Sequence[str] | None = None) -> str:
    """Human-readable label: member names, or 1-indexed numbers like {1,3}."""
    n = int(S).bit_length()
    names = [str(p + 1) for p in range(n)] if names is None else names[:n]
    return "{" + joined_members([S], names)[0] + "}"
