"""Cooperative games: a value per coalition, in exact-rational or float mode.

A game stores one scalar per coalition (dense, length ``2**n``) with
``v({}) = 0`` enforced at construction.  The whole game is either in
rational mode (``fractions.Fraction`` values, so reference fractions
reproduce bit-exactly) or float mode (``numpy.float64``, scales to larger
player counts).  Mode is fixed at construction and propagates through
every downstream computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

import numpy as np

from . import coalition as co
from .errors import SpecFileError

RATIONAL = "rational"
FLOAT = "float"

# Float-mode inessential classification: |v(S) - sum v({i})| within
# 1e-9 * ||v||_inf, relative to the game's own scale so that a game of
# small values is classified as closely as one of large values, and exact
# for the zero game.  Looser than solver tolerances on purpose, so the
# classification is stable under solver round-off.
INESSENTIAL_RTOL = 1e-9


def parse_scalar(value, mode: str):
    """Parse a scalar literal: 'p/q' or integer string (rational), finite number
    (float).  Booleans are not numbers here."""
    if isinstance(value, bool):
        raise SpecFileError(f"boolean {value!r} where a number is expected")
    if mode == RATIONAL:
        if isinstance(value, float):
            raise SpecFileError(f"float literal {value!r} in a rational-mode game")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError):
            raise SpecFileError(f"bad rational literal {value!r}") from None
    if mode == FLOAT:
        try:
            x = float(Fraction(value)) if isinstance(value, str) else float(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise SpecFileError(f"bad numeric literal {value!r}") from None
        if not math.isfinite(x):
            raise SpecFileError(f"numeric literal {value!r} is not a finite float64")
        return x
    raise SpecFileError(f"unknown scalar mode {mode!r}")


def format_scalar(x) -> str:
    """Canonical text for a scalar: lowest-terms fraction, or 12 significant digits."""
    if isinstance(x, Rational):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return format(float(x), ".12g")


@dataclass(frozen=True, eq=False)
class Game:
    """A TU game over n players.  Values are indexed by coalition bitset."""

    n: int
    mode: str
    values: tuple | np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        co.check_player_count(self.n)
        size = 1 << self.n
        if len(self.values) != size:
            raise ValueError(f"value table has length {len(self.values)}, expected {size}")
        if self.mode == RATIONAL:
            vals = tuple(x if type(x) is Fraction else Fraction(x) for x in self.values)
            if vals[0] != 0:
                raise ValueError("v({}) must be 0")
        elif self.mode == FLOAT:
            vals = np.asarray(self.values, dtype=np.float64).copy()
            if not np.all(np.isfinite(vals)):
                raise ValueError("float-mode game values must be finite")
            if vals[0] != 0.0:
                raise ValueError("v({}) must be 0")
            vals.setflags(write=False)
        else:
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        object.__setattr__(self, "values", vals)
        if self.names is not None and len(self.names) != self.n:
            raise ValueError("name table length must equal player count")

    def value(self, S: co.Coalition):
        return self.values[S]

    def grand_value(self):
        return self.values[(1 << self.n) - 1]

    @property
    def is_rational(self) -> bool:
        return self.mode == RATIONAL

    def as_float(self) -> "Game":
        """Float-mode copy (exact values rounded to nearest float64)."""
        if self.mode == FLOAT:
            return self
        return Game(self.n, FLOAT, [float(x) for x in self.values], self.names)

    def as_rational(self) -> "Game":
        """Rational-mode copy; float values convert exactly (dyadic fractions)."""
        if self.mode == RATIONAL:
            return self
        return Game(self.n, RATIONAL, [Fraction(float(x)) for x in self.values], self.names)


def game_from_values(n: int, values: Sequence, mode: str = RATIONAL,
                     names: Sequence[str] | None = None) -> Game:
    return Game(n, mode, tuple(values), None if names is None else tuple(names))


def game_from_map(n: int, table: Mapping[co.Coalition, object], mode: str = RATIONAL,
                  names: Sequence[str] | None = None) -> Game:
    """Game from a sparse {coalition: value} mapping; unlisted coalitions are 0."""
    zero = Fraction(0) if mode == RATIONAL else 0.0
    vals = [zero] * (1 << n)
    for S, x in table.items():
        vals[S] = x
    return game_from_values(n, vals, mode, names)


def make_glove_game(mode: str = RATIONAL) -> Game:
    """Three players; player 0 holds the left glove, players 1 and 2 right gloves.

    A coalition is worth 1 exactly when it can assemble a pair.
    """
    one = Fraction(1) if mode == RATIONAL else 1.0
    table = {S: one for S in range(8) if (S & 1) and (S & 0b110)}
    return game_from_map(3, table, mode)


def make_pure_bargaining_game(n: int, total, mode: str = RATIONAL) -> Game:
    """Only the grand coalition produces value: v(N) = total, v(S) = 0 otherwise."""
    if n < 1:
        raise ValueError("pure bargaining game needs at least one player")
    return game_from_map(n, {co.grand_coalition(n): parse_scalar(total, mode)}, mode)


def make_inessential_game(singleton_values: Sequence, mode: str = RATIONAL) -> Game:
    """Additive game: v(S) is the sum of its members' singleton values."""
    n = len(singleton_values)
    xs = [parse_scalar(x, mode) for x in singleton_values]
    zero = Fraction(0) if mode == RATIONAL else 0.0
    vals = []
    for S in co.enumerate_coalitions(n):
        vals.append(sum((xs[i] for i in co.members(S)), zero))
    return game_from_values(n, vals, mode)


def is_inessential(v: Game) -> bool:
    """True when every coalition is worth the sum of its members' singleton values."""
    singles = [v.value(1 << i) for i in range(v.n)]
    if v.is_rational:
        return all(v.value(S) == sum((singles[i] for i in co.members(S)), Fraction(0))
                   for S in co.enumerate_coalitions(v.n))
    tol = INESSENTIAL_RTOL * float(np.max(np.abs(v.values)))
    return all(abs(v.value(S) - math.fsum(singles[i] for i in co.members(S))) <= tol
               for S in co.enumerate_coalitions(v.n))


def pullback(sigma: Sequence[int], v: Game) -> Game:
    """Relabeled game (sigma* v)(S) = v(sigma(S))."""
    co.check_permutation(sigma)
    if len(sigma) != v.n:
        raise ValueError("permutation length must equal player count")
    vals = [v.value(co.apply_permutation(sigma, S)) for S in co.enumerate_coalitions(v.n)]
    return game_from_values(v.n, vals, v.mode, v.names)


def linear_combine(alpha, v: Game, alpha2, v2: Game) -> Game:
    """Pointwise alpha*v + alpha2*v2; both games must share n and mode."""
    if v.n != v2.n:
        raise ValueError("games have different player counts")
    if v.mode != v2.mode:
        raise TypeError(f"scalar mode mismatch: {v.mode} vs {v2.mode}")
    a = parse_scalar(alpha, v.mode)
    a2 = parse_scalar(alpha2, v.mode)
    if v.is_rational:
        vals = [a * x + a2 * y for x, y in zip(v.values, v2.values)]
    else:
        vals = a * v.values + a2 * v2.values
    return game_from_values(v.n, vals, v.mode)


# ---------------------------------------------------------------------------
# Game spec files (JSON)
# ---------------------------------------------------------------------------

def game_from_spec(spec: Mapping) -> Game:
    """Build a game from its JSON spec dict.

    Layout: {"players": [...names...], "mode": "rational"|"float",
    "values": {"[0,1]": "1", ...}}.  Unlisted coalitions default to 0; the
    empty coalition may be listed only with value 0.
    """
    try:
        players = list(spec["players"])
    except (KeyError, TypeError):
        raise SpecFileError("game spec needs a 'players' name list", location="players") from None
    n = len(players)
    co.check_player_count(n)
    mode = spec.get("mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise SpecFileError(f"unknown mode {mode!r}", location="mode")
    table = spec.get("values", {})
    if not isinstance(table, Mapping):
        raise SpecFileError("'values' must map coalition literals to values", location="values")
    # canonical keys resolve through the label table when the listing is
    # dense enough to pay for building it
    index = co.canonical_index(n) if 4 * len(table) >= 1 << n else {}
    vals = _float_listing(table, n, index) if mode == FLOAT else None
    if vals is None:
        vals = _parsed_listing(table, n, mode, index)
    return Game(n, mode, vals, tuple(str(p) for p in players))


def _float_listing(table: Mapping, n: int,
                   index: Mapping[str, co.Coalition]) -> np.ndarray | None:
    """The float value array of a listing in array passes, or None unless
    every key is in ``index`` and every value an int or float that is
    finite in float64, with 0 at the empty coalition; the per-entry parser
    takes every other listing, and names its first bad entry."""
    at, literals = list(map(index.get, table)), list(table.values())
    if None in at or not set(map(type, literals)) <= {int, float}:
        return None
    try:
        x = np.array(literals, dtype=np.float64)
    except OverflowError:  # an int past float64's range
        return None
    vals = np.zeros(1 << n)
    vals[at] = x
    return vals if np.isfinite(x).all() and vals[0] == 0 else None


def _parsed_listing(table: Mapping, n: int, mode: str, index: Mapping[str, co.Coalition]) -> list:
    """The value table of a listing, parsed entry by entry."""
    vals = [Fraction(0) if mode == RATIONAL else 0.0] * (1 << n)
    listed = {}  # coalition -> the key that listed it
    for key, literal in table.items():
        S = index.get(key)
        try:
            if S is None:
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
    return vals


def read_spec_file(path):
    """Parse a JSON spec file; malformed JSON raises SpecFileError naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"invalid JSON: {exc}", location=str(path)) from None


def load_game(path) -> Game:
    """Load a game spec from a JSON file."""
    return game_from_spec(read_spec_file(path))


def game_to_spec(v: Game) -> dict:
    """Inverse of game_from_spec (zero values omitted)."""
    names = list(v.names) if v.names is not None else [str(i) for i in range(v.n)]
    values = {}
    for S in co.enumerate_coalitions(v.n):
        x = v.value(S)
        if x != 0:
            values[co.coalition_key(S)] = format_scalar(x) if v.is_rational else float(x)
    return {"players": names, "mode": v.mode, "values": values}
