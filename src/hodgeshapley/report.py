"""Render decompositions as tables and compare allocation rules.

A table's rows are the feasible coalitions ordered by one lexsort on
(size, bitset), and its efficiency check is one vectorised comparison.
Float cells are formatted with ``%.12g`` once per row, which gives the
text of ``game.format_scalar`` cell by cell; rational cells go through
``format_scalar``.  The CSV quotes exactly what ``csv.writer`` quotes:
only coalition keys with a comma, since no cell holds a comma or quote.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import coalition as co
from . import closed_form as cf
from .errors import ConvergenceError
from .game import FLOAT, Game, format_scalar
from .graph import GameGraph, _popcounts
from .solve import Decomposition, SolverConfig, decompose

_FORMATS = ("text", "csv", "json")


class _FloatEfficiencyError(ConvergenceError, ValueError):
    """Float components miss the game: too little precision, not a bad
    input, though a ValueError like every failed table check."""


@dataclass(frozen=True)
class DecompositionTable:
    """One row per feasible coalition (sorted by size, then bitset value);
    the final row is the grand coalition, whose component values are the
    allocation."""

    n: int
    mode: str
    names: tuple[str, ...] | None
    coalitions: tuple[co.Coalition, ...]
    game_column: tuple
    component_columns: tuple  # component_columns[i][row]

    @property
    def allocation(self) -> tuple:
        return tuple(col[-1] for col in self.component_columns)


def build_table(d: Decomposition, v: Game) -> DecompositionTable:
    """Tabulate a decomposition against its source game, re-verifying that
    component columns sum to the game column in every row."""
    g = d.graph
    if v.n != g.n or v.mode != d.source.mode:
        raise ValueError("decomposition was not produced from this game")
    order = g.vertices[np.lexsort((g.vertices, _popcounts(g.n)[g.vertices]))]
    dtype = object if v.is_rational else np.float64
    columns = np.array([np.asarray(x.values, dtype=dtype)[order] for x in (v, *d.components)])
    # exact in rational mode, relative to the game's largest value in float mode
    tol = 0 if v.is_rational else 1e-6 * max(1.0, float(np.max(np.abs(v.values))))
    gaps = np.abs(columns[1:].sum(axis=0) - columns[0])
    bad = np.flatnonzero(gaps > tol)
    if len(bad):
        where = co.coalition_key(int(order[bad[0]]))
        if v.is_rational:
            raise ValueError(f"component columns do not sum to v at {where}")
        raise _FloatEfficiencyError(
            f"float components miss v at {where} by {gaps[bad[0]]:.3g} (tolerance "
            f"{tol:.3g}); the weights may be too badly scaled for float64: use the "
            f"exact backend (--backend dense-rational)")
    game_col, *comp_cols = map(tuple, columns.tolist())
    return DecompositionTable(g.n, v.mode, v.names, tuple(order.tolist()), game_col,
                              tuple(comp_cols))


def render_table(d: Decomposition, v: Game, format: str = "text") -> str:
    """Serialize the decomposition table as text, CSV, or JSON."""
    table = build_table(d, v)
    if format == "text":
        return _render_text(table)
    if format == "csv":
        return _render_csv(table)
    if format == "json":
        return _render_json(table)
    raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")


def _value_rows(t: DecompositionTable) -> Iterator[str]:
    """Each row's game value and component values as comma-joined text.

    Float cells go through one ``%.12g`` format per row, which gives the
    text of ``format_scalar``.
    """
    rows = zip(t.game_column, *t.component_columns)
    if t.mode == FLOAT:
        fmt = ",".join(["%.12g"] * (t.n + 1))
        return (fmt % row for row in rows)
    return (",".join(map(format_scalar, row)) for row in rows)


def _render_text(t: DecompositionTable) -> str:
    names = t.names if t.names is not None else [str(p + 1) for p in range(t.n)]
    rows = [["{" + label + "}", *cells.split(",")]
            for label, cells in zip(co.joined_members(t.coalitions, names), _value_rows(t))]
    # a second rule sets the grand coalition apart
    lines = _text_table(["S", "v"] + [f"v_{i + 1}" for i in range(t.n)], rows, len(rows) - 1)
    alloc = ", ".join(format_scalar(x) for x in t.allocation)
    lines.append(f"allocation: ({alloc})")
    return "\n".join(lines) + "\n"


def _render_csv(t: DecompositionTable) -> str:
    # the quoting of csv.writer: only a key with a comma needs quotes, no
    # cell does; rows stream into the buffer, so 2**n rows of text are not
    # held twice
    buf = io.StringIO()
    buf.write(",".join(["coalition", "v"] + [f"v_{i + 1}" for i in range(t.n)]) + "\n")
    keys = co.joined_members(t.coalitions, [str(p) for p in range(t.n)])
    for key, cells in zip(keys, _value_rows(t)):
        buf.write(f'"[{key}]",{cells}\n' if "," in key else f"[{key}],{cells}\n")
    return buf.getvalue()


def _text_table(headers: list[str], rows: list[list[str]], rule_before: int | None = None
                ) -> list[str]:
    """Lines of right-justified columns two spaces apart, the header over a
    rule; a second rule goes before row ``rule_before`` if given."""
    widths = [max(len(h), *(len(row[c]) for row in rows)) for c, h in enumerate(headers)]

    def line(cells):
        return "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))

    rule = "  ".join("-" * w for w in widths)
    body = [line(row) for row in rows]
    if rule_before is not None:
        body.insert(rule_before, rule)
    return [line(headers), rule] + body


def _csv_table(headers: list[str], rows: Iterable[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _scalar_json(x, mode):
    return format_scalar(x) if mode == "rational" else float(x)


def _render_json(t: DecompositionTable) -> str:
    rows = []
    for r, S in enumerate(t.coalitions):
        rows.append({
            "coalition": list(co.members(S)),
            "v": _scalar_json(t.game_column[r], t.mode),
            "components": [_scalar_json(col[r], t.mode) for col in t.component_columns],
        })
    doc = {"rows": rows,
           "allocation": [_scalar_json(x, t.mode) for x in t.allocation]}
    return json.dumps(doc, indent=2) + "\n"


def parse_rendered_json(text: str) -> dict:
    """Parse render_table JSON output back into Fractions/floats."""
    doc = json.loads(text)

    def back(x):
        return Fraction(x) if isinstance(x, str) else float(x)

    return {
        "rows": [{"coalition": tuple(row["coalition"]),
                  "v": back(row["v"]),
                  "components": [back(x) for x in row["components"]]}
                 for row in doc["rows"]],
        "allocation": [back(x) for x in doc["allocation"]],
    }


# ---------------------------------------------------------------------------
# side-by-side allocation comparison
# ---------------------------------------------------------------------------

def compare_allocations(g: GameGraph, v: Game, cfg: SolverConfig | None = None,
                        format: str = "text") -> str:
    """One row per player: the component-game allocation next to the
    classical formula (full cube) or the feasible-permutation average
    (restricted graph), with absolute differences."""
    dec = decompose(g, v, cfg)
    hodge = dec.allocation()
    columns = {"component": hodge}
    if g.is_full_cube:
        columns["classical"] = cf.shapley_values(v)
    else:
        columns["precedence"] = tuple(cf.precedence_shapley_oracle(g, v, i)
                                      for i in range(g.n))
    other_name = "classical" if g.is_full_cube else "precedence"
    other = columns[other_name]
    diffs = [abs(h - o) for h, o in zip(hodge, other)]

    if format == "json":
        doc = {"players": [_player_name(v, i) for i in range(g.n)],
               "component": [_scalar_json(x, v.mode) for x in hodge],
               other_name: [_scalar_json(x, v.mode) for x in other],
               "abs_difference": [_scalar_json(x, v.mode) for x in diffs]}
        return json.dumps(doc, indent=2) + "\n"

    headers = ["player", "component", other_name, "abs diff"]
    rows = [[_player_name(v, i), format_scalar(hodge[i]), format_scalar(other[i]),
             format_scalar(diffs[i])] for i in range(g.n)]
    if format == "csv":
        return _csv_table(headers, rows)
    if format == "text":
        return "\n".join(_text_table(headers, rows)) + "\n"
    raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")


def _player_name(v: Game, i: int) -> str:
    return v.names[i] if v.names is not None else str(i + 1)
