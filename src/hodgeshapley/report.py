"""Render decompositions as tables and compare allocation rules.

A table's rows are the feasible coalitions ordered by one lexsort on
(size, bitset), and its efficiency check is one vectorised comparison.
Every format writes a row with one ``%`` format: float cells go in as
they are (``%.12g``, which gives the text of ``game.format_scalar``, or
``%r``, JSON's float text), rational cells as ``%s``, which gives
``format_scalar``'s text of a ``Fraction``.  Coalition keys come from
``coalition.canonical_keys``.  The CSV quotes exactly what ``csv.writer``
quotes: only coalition keys with a comma, since no cell holds a comma or
quote; the JSON is the text of ``json.dumps(..., indent=2)``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import coalition as co
from . import closed_form as cf
from .errors import ConvergenceError
from .game import FLOAT, Game, format_scalar
from .graph import GameGraph, _popcounts
from .solve import Decomposition, SolverConfig, decompose

_FORMATS = ("text", "csv", "json")
_BLOCK = 1024  # table rows formatted per pass


class _FloatEfficiencyError(ConvergenceError, ValueError):
    """Float components miss the game: too little precision, not a bad
    input, though a ValueError like every failed table check."""


@dataclass(frozen=True, eq=False)
class DecompositionTable:
    """One row per feasible coalition (sorted by size, then bitset value);
    the final row is the grand coalition, whose component values are the
    allocation."""

    n: int
    mode: str
    names: tuple[str, ...] | None
    coalitions: tuple[co.Coalition, ...]
    values: np.ndarray  # (rows, n + 1): v, then each component; object in rational mode

    @property
    def game_column(self) -> tuple:
        return tuple(self.values[:, 0].tolist())

    @property
    def component_columns(self) -> tuple:  # component_columns[i][row]
        return tuple(map(tuple, self.values[:, 1:].T.tolist()))

    @property
    def allocation(self) -> tuple:
        return tuple(self.values[-1, 1:].tolist())


def build_table(d: Decomposition, v: Game) -> DecompositionTable:
    """Tabulate a decomposition against its source game, re-verifying that
    component columns sum to the game column in every row."""
    g = d.graph
    if v.n != g.n or v.mode != d.source.mode:
        raise ValueError("decomposition was not produced from this game")
    order = g.vertices[np.lexsort((g.vertices, _popcounts(g.n)[g.vertices]))]
    dtype = object if v.is_rational else np.float64
    columns = np.array([np.asarray(x.values, dtype=dtype)[order] for x in (v, *d.components)])
    # exact in rational mode, relative to the game's largest value in float
    # mode (so 0 for the zero game)
    tol = 0 if v.is_rational else 1e-6 * float(np.max(np.abs(v.values)))
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
    columns.setflags(write=False)
    return DecompositionTable(g.n, v.mode, v.names, tuple(order.tolist()), columns.T)


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


def _rows(t: DecompositionTable, fmt: str, labels: Sequence[str] | None = None) -> Iterator[str]:
    """``fmt % (label, v, v_1, ..., v_n)`` for each row, or ``fmt % (v, v_1,
    ..., v_n)`` without labels.  Values go into the format as they are:
    ``'%s' % Fraction`` is ``format_scalar``'s text.  Rows become Python
    scalars ``_BLOCK`` at a time, so the table is never held whole as
    Python objects."""
    for start in range(0, len(t.coalitions), _BLOCK):
        columns = t.values[start:start + _BLOCK].T.tolist()
        if labels is not None:
            columns.insert(0, labels[start:start + _BLOCK])
        yield from map(fmt.__mod__, zip(*columns))


def _keys(t: DecompositionTable) -> list[str]:
    return list(map(co.canonical_keys(t.n).__getitem__, t.coalitions))


def _cell(t: DecompositionTable) -> str:
    """The format of one value: ``%.12g`` gives ``format_scalar``'s float text."""
    return "%.12g" if t.mode == FLOAT else "%s"


def _render_text(t: DecompositionTable) -> str:
    names = t.names if t.names is not None else [str(p + 1) for p in range(t.n)]
    labels = ["{" + label + "}" for label in co.joined_members(t.coalitions, names)]
    # no cell holds a comma
    cells = [row.split(",") for row in _rows(t, ",".join([_cell(t)] * (t.n + 1)))]
    # a second rule sets the grand coalition apart
    lines = _text_table(["S", "v"] + [f"v_{i + 1}" for i in range(t.n)],
                        [labels, *zip(*cells)], len(labels) - 1)
    alloc = ", ".join(format_scalar(x) for x in t.allocation)
    return "\n".join(lines + [f"allocation: ({alloc})", ""])


def _render_csv(t: DecompositionTable) -> str:
    # the quoting of csv.writer: only a key with a comma needs quotes, no
    # cell does
    labels = [f'"{key}"' if "," in key else key for key in _keys(t)]
    header = ",".join(["coalition", "v"] + [f"v_{i + 1}" for i in range(t.n)])
    rows = _rows(t, ",".join(["%s"] + [_cell(t)] * (t.n + 1)), labels)
    # one join, so the 2**n lines of text are not copied again
    return "\n".join(chain([header], rows, [""]))


def _text_table(headers: list[str], columns: Sequence[Sequence[str]],
                rule_before: int | None = None) -> list[str]:
    """Lines of right-justified columns two spaces apart, the header over a
    rule; a second rule goes before row ``rule_before`` if given."""
    widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(headers, columns)]
    line = "  ".join(f"%{w}s" for w in widths)
    rule = "  ".join("-" * w for w in widths)
    body = list(map(line.__mod__, zip(*columns)))
    if rule_before is not None:
        body.insert(rule_before, rule)
    return [line % tuple(headers), rule] + body


def _csv_table(headers: list[str], rows: Iterable[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _scalar_json(x, mode):
    return format_scalar(x) if mode == "rational" else float(x)


def _render_json(t: DecompositionTable) -> str:
    # the layout of json.dumps(doc, indent=2): each list item and object
    # member on a line of its own, indented two spaces a level; the members
    # of a row's coalition and its components sit four levels deep
    item = "\n" + " " * 8
    coalitions = ["[]" if key == "[]" else f"[{item}{key[1:-1].replace(',', ',' + item)}\n      ]"
                  for key in _keys(t)]
    cell = "%r" if t.mode == FLOAT else '"%s"'  # JSON's float text, or a string
    row = ('    {\n      "coalition": %s,\n      "v": ' + cell + ',\n      "components": ['
           + item + ("," + item).join([cell] * t.n) + "\n      ]\n    }")
    alloc = json.dumps([_scalar_json(x, t.mode) for x in t.allocation], indent=2)
    return "".join(['{\n  "rows": [\n', ",\n".join(_rows(t, row, coalitions)),
                    '\n  ],\n  "allocation": ', alloc.replace("\n", "\n  "), "\n}\n"])


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
# allocation vectors and side-by-side comparison
# ---------------------------------------------------------------------------

def render_allocation(values, format: str = "text") -> str:
    """Serialize an allocation vector as text, CSV, or JSON."""
    if format == "json":
        payload = [format_scalar(x) if isinstance(x, Fraction) else float(x) for x in values]
        return json.dumps({"allocation": payload}) + "\n"
    if format == "csv":
        return _csv_table(["player", "value"],
                          ([str(i + 1), format_scalar(x)] for i, x in enumerate(values)))
    if format == "text":
        return "(" + ", ".join(format_scalar(x) for x in values) + ")\n"
    raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")


def compare_allocations(g: GameGraph, v: Game, cfg: SolverConfig | None = None,
                        format: str = "text") -> str:
    """One row per player: the component-game allocation next to the
    classical formula (full cube) or the feasible-permutation average
    (restricted graph), with absolute differences."""
    dec = decompose(g, v, cfg)
    hodge = dec.allocation()
    if g.is_full_cube:
        other_name, other = "classical", cf.shapley_values(v)
    else:
        other_name, other = "precedence", cf.precedence_shapley_values(g, v)
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
        return "\n".join(_text_table(headers, list(zip(*rows)))) + "\n"
    raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")


def _player_name(v: Game, i: int) -> str:
    return v.names[i] if v.names is not None else str(i + 1)
