"""Built-in benchmark decompositions of the three-player glove game.

Six configurations with known exact component games: the plain cube,
two weighted cubes, two single-vertex holdout subgraphs, and a
degree-product reweighting of a holdout subgraph.  The expected values
are stored as exact fractions; the ``fixtures`` CLI command replays all
six through the solver and diffs every entry.

Rows are keyed by member tuple (0-indexed players); each row lists the
game value followed by the n component-game values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import coalition as co
from .game import Game, make_glove_game
from .graph import EdgeWeighting, Edge, GameGraph, degree_product_weighting, \
    full_hypercube, restrict


def _frac_rows(rows):
    return tuple((tuple(m), tuple(Fraction(x) for x in vals)) for m, vals in rows)


@dataclass(frozen=True)
class ReferenceDecomposition:
    key: str
    title: str
    removed_coalitions: tuple[tuple[int, ...], ...]
    weights: str  # constant | size-plus-one | reluctant-first | degree-product
    rows: tuple   # ((members, (v, v_0, ..., v_{n-1})), ...)

    def game(self) -> Game:
        return make_glove_game()

    def graph(self) -> GameGraph:
        n = 3
        if self.weights == "constant":
            weighting = EdgeWeighting.constant(1)
        elif self.weights == "size-plus-one":
            weighting = EdgeWeighting.size_plus_one(n)
        elif self.weights == "reluctant-first":
            weighting = EdgeWeighting.explicit({Edge(0, 0): Fraction(1, 2)})
        elif self.weights == "degree-product":
            weighting = EdgeWeighting.constant(1)  # replaced after restriction
        else:
            raise ValueError(f"unknown weights tag {self.weights!r}")
        g = full_hypercube(n, weighting)
        if self.removed_coalitions:
            g = restrict(g, [co.from_members(m, n) for m in self.removed_coalitions])
        if self.weights == "degree-product":
            g = degree_product_weighting(g)
        return g

    def expected(self) -> dict:
        return {co.from_members(m, 3): vals for m, vals in self.rows}


GLOVE_PLAIN = ReferenceDecomposition(
    key="glove-plain",
    title="glove game, full cube, unit weights",
    removed_coalitions=(),
    weights="constant",
    rows=_frac_rows([
        ((), ("0", "0", "0", "0")),
        ((0,), ("0", "5/12", "-5/24", "-5/24")),
        ((1,), ("0", "-5/24", "1/6", "1/24")),
        ((2,), ("0", "-5/24", "1/24", "1/6")),
        ((0, 1), ("1", "5/8", "3/8", "0")),
        ((0, 2), ("1", "5/8", "0", "3/8")),
        ((1, 2), ("0", "-1/4", "1/8", "1/8")),
        ((0, 1, 2), ("1", "2/3", "1/6", "1/6")),
    ]),
)

GLOVE_SIZE_WEIGHTED = ReferenceDecomposition(
    key="glove-size-weighted",
    title="glove game, full cube, weight |S|+1 per edge base",
    removed_coalitions=(),
    weights="size-plus-one",
    rows=_frac_rows([
        ((), ("0", "0", "0", "0")),
        ((0,), ("0", "16/31", "-8/31", "-8/31")),
        ((1,), ("0", "-8/31", "6/31", "2/31")),
        ((2,), ("0", "-8/31", "2/31", "6/31")),
        ((0, 1), ("1", "20/31", "21/62", "1/62")),
        ((0, 2), ("1", "20/31", "1/62", "21/62")),
        ((1, 2), ("0", "-9/31", "9/62", "9/62")),
        ((0, 1, 2), ("1", "2/3", "1/6", "1/6")),
    ]),
)

GLOVE_RELUCTANT = ReferenceDecomposition(
    key="glove-reluctant",
    title="glove game, full cube, weight 1/2 on the first player's entry edge",
    removed_coalitions=(),
    weights="reluctant-first",
    rows=_frac_rows([
        ((), ("0", "0", "0", "0")),
        ((0,), ("0", "10/17", "-5/17", "-5/17")),
        ((1,), ("0", "-5/34", "37/272", "3/272")),
        ((2,), ("0", "-5/34", "3/272", "37/272")),
        ((0, 1), ("1", "25/34", "87/272", "-15/272")),
        ((0, 2), ("1", "25/34", "-15/272", "87/272")),
        ((1, 2), ("0", "-3/17", "3/34", "3/34")),
        ((0, 1, 2), ("1", "13/17", "2/17", "2/17")),
    ]),
)

GLOVE_HOLDOUT_0 = ReferenceDecomposition(
    key="glove-holdout-0",
    title="glove game, vertex {player 0} removed (player 0 never joins first)",
    removed_coalitions=((0,),),
    weights="constant",
    rows=_frac_rows([
        ((), ("0", "0", "0", "0")),
        ((1,), ("0", "0", "0", "0")),
        ((2,), ("0", "0", "0", "0")),
        ((0, 1), ("1", "1", "0", "0")),
        ((0, 2), ("1", "1", "0", "0")),
        ((1, 2), ("0", "0", "0", "0")),
        ((0, 1, 2), ("1", "1", "0", "0")),
    ]),
)

GLOVE_HOLDOUT_1 = ReferenceDecomposition(
    key="glove-holdout-1",
    title="glove game, vertex {player 1} removed (player 1 never joins first)",
    removed_coalitions=((1,),),
    weights="constant",
    rows=_frac_rows([
        ((), ("0", "0", "0", "0")),
        ((0,), ("0", "3/10", "-1/10", "-1/5")),
        ((2,), ("0", "-3/10", "1/10", "1/5")),
        ((0, 1), ("1", "2/5", "3/5", "0")),
        ((0, 2), ("1", "1/2", "1/10", "2/5")),
        ((1, 2), ("0", "-2/5", "1/5", "1/5")),
        ((0, 1, 2), ("1", "1/2", "3/10", "1/5")),
    ]),
)

GLOVE_HOLDOUT_1_DEGREE = ReferenceDecomposition(
    key="glove-holdout-1-degree",
    title="glove game, vertex {player 1} removed, degree-product edge weights",
    removed_coalitions=((1,),),
    weights="degree-product",
    rows=_frac_rows([
        ((), ("0", "0", "0", "0")),
        ((0,), ("0", "1/3", "-1/12", "-1/4")),
        ((2,), ("0", "-1/3", "1/12", "1/4")),
        ((0, 1), ("1", "5/12", "7/12", "0")),
        ((0, 2), ("1", "1/2", "1/12", "5/12")),
        ((1, 2), ("0", "-5/12", "1/6", "1/4")),
        ((0, 1, 2), ("1", "1/2", "1/4", "1/4")),
    ]),
)

ALL_REFERENCES = (
    GLOVE_PLAIN,
    GLOVE_SIZE_WEIGHTED,
    GLOVE_RELUCTANT,
    GLOVE_HOLDOUT_0,
    GLOVE_HOLDOUT_1,
    GLOVE_HOLDOUT_1_DEGREE,
)

# Known allocations for the glove game under different rules.
GLOVE_HOLDOUT_1_HODGE = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
GLOVE_HOLDOUT_1_PRECEDENCE = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
