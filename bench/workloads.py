"""The three benchmark workloads and their cases.

A workload is a list of cases; a pass runs every case once, in list
order.  Inputs (games, removed coalitions, weights, JSON files) are made
from the seed during set-up.  Each case's ``run`` is the timed call into
``hodgeshapley``; its ``check`` runs untimed on the output.  Library
functions are looked up on their module at call time (``solve.decompose``,
``graph.full_hypercube``, ``cli.main``), so the traced run sees every call.

Why each workload is here, and why its sizes are capped where they are,
is written down in RATIONALE.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from hodgeshapley import graph, solve
from hodgeshapley.game import FLOAT, RATIONAL, Game
from hodgeshapley.reference_tables import ALL_REFERENCES

from checks import CaseGraph, CheckError, check_cli_csv, check_cli_verify, check_exact, \
    check_float, check_glove, coalition_key


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    largest: str             # the case whose time is reported as largest_s
    setup_code: str          # fresh-interpreter set-up probe: import + first decompose
    inputs: list             # everything generated from the seed, for the digest


def _removed_coalitions(rng, n: int, count: int) -> list[int]:
    """Coalitions of size 2..n-2 at pairwise Hamming distance >= 3.

    Every coalition T with |T| >= 2 has at least two one-smaller subsets,
    which are pairwise at distance 2, so at most one of them is removed:
    every remaining coalition stays formable from the empty one.
    """
    out: list[int] = []
    while len(out) < count:
        S = int(rng.integers(1, (1 << n) - 1))
        if 2 <= S.bit_count() <= n - 2 and all((S ^ T).bit_count() >= 3 for T in out):
            out.append(S)
    return sorted(out)


def _rational_values(rng, n: int) -> list[Fraction]:
    nums = rng.integers(-60, 61, size=1 << n).tolist()
    dens = rng.integers(1, 9, size=1 << n).tolist()
    vals = [Fraction(a, b) for a, b in zip(nums, dens)]
    vals[0] = Fraction(0)
    return vals


def _float_values(rng, n: int) -> np.ndarray:
    vals = rng.standard_normal(1 << n) * 10.0
    vals[0] = 0.0
    return vals


def _weighting(n: int, rule: str, explicit=None):
    W = graph.EdgeWeighting
    if rule == "constant":
        return W.constant(1)
    if rule == "size-plus-one":
        return W.size_plus_one(n)
    return W.explicit({graph.Edge(b, p): w for (b, p), w in explicit.items()})


# ---------------------------------------------------------------------------
# exact-suite: rational decompose
# ---------------------------------------------------------------------------

# (n, weight rule, removed coalitions, games on the graph).  Each case
# builds its graph afresh, so the first game pays for the factorization and
# a second game on the same graph hits the factor cache.
EXACT_CASES = (
    (5, "constant", 0, 2),
    (5, "size-plus-one", 0, 2),
    (6, "constant", 0, 2),
    (6, "size-plus-one", 0, 2),
    (5, "explicit", 0, 1),
    (6, "size-plus-one", 3, 1),
    (7, "constant", 0, 1),
    (8, "size-plus-one", 0, 1),
)
EXACT_LARGEST = "cube-n8-size-plus-one"


def exact_suite(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cases = []
    inputs = []

    def run_gloves():
        return [solve.decompose(ref.graph(), ref.game()) for ref in ALL_REFERENCES]

    def check_gloves(decs):
        for ref, dec in zip(ALL_REFERENCES, decs):
            check_glove(ref.expected(), ref.game().values, [c.values for c in dec.components])

    cases.append(Case("glove-fixtures", run_gloves, check_gloves))
    for n, rule, removed_count, games in EXACT_CASES:
        removed = _removed_coalitions(rng, n, removed_count)
        explicit = None
        if rule == "explicit":
            explicit = {}
            for i in range(n):
                for b in range(1 << n):
                    if not b >> i & 1 and rng.random() < 0.3:
                        explicit[(b, i)] = Fraction(int(rng.integers(1, 9)), 4)
        vals = [_rational_values(rng, n) for _ in range(games)]
        inputs.append((n, rule, removed, sorted((explicit or {}).items()), vals))
        cg = CaseGraph(n, removed, rule, explicit)
        weighting = _weighting(n, rule, explicit)
        game_objs = [Game(n, RATIONAL, tuple(v)) for v in vals]
        kind = "restricted" if removed else "cube"
        name = f"explicit-n{n}" if rule == "explicit" else f"{kind}-n{n}-{rule}"

        def run(n=n, weighting=weighting, removed=removed, game_objs=game_objs):
            g = graph.full_hypercube(n, weighting)
            if removed:
                g = graph.restrict(g, removed)
            return [solve.decompose(g, v) for v in game_objs]

        def check(decs, cg=cg, vals=vals):
            for v, dec in zip(vals, decs):
                check_exact(cg, v, [c.values for c in dec.components])

        cases.append(Case(name, run, check))
    setup = ("import hodgeshapley as hs\n"
             "from hodgeshapley.reference_tables import GLOVE_PLAIN as r\n"
             "hs.decompose(r.graph(), r.game())\n")
    return Workload("exact-suite", cases, EXACT_LARGEST, setup, inputs)


# ---------------------------------------------------------------------------
# float-cube: cg_float decompose on full cubes
# ---------------------------------------------------------------------------

FLOAT_CASES = (
    (13, "constant"),
    (13, "size-plus-one"),
    (14, "constant"),
    (14, "size-plus-one"),
    (15, "constant"),
)
FLOAT_LARGEST = "cube-n15-constant"


def float_cube(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    cfg = solve.SolverConfig(backend=solve.CG_FLOAT)
    cases = []
    inputs = []
    for n, rule in FLOAT_CASES:
        vals = _float_values(rng, n)
        inputs.append((n, rule, vals.tobytes()))
        cg = CaseGraph(n, (), rule)
        weighting = _weighting(n, rule)
        v = Game(n, FLOAT, vals)

        def run(n=n, weighting=weighting, v=v):
            return solve.decompose(graph.full_hypercube(n, weighting), v, cfg)

        def check(dec, cg=cg, vals=vals):
            check_float(cg, vals, np.array([c.values for c in dec.components]))

        cases.append(Case(f"cube-n{n}-{rule}", run, check))
    setup = ("import hodgeshapley as hs\n"
             "from hodgeshapley.reference_tables import GLOVE_PLAIN as r\n"
             "hs.decompose(r.graph(), r.game().as_float(),\n"
             "             hs.SolverConfig(backend=hs.CG_FLOAT))\n")
    return Workload("float-cube", cases, FLOAT_LARGEST, setup, inputs)


# ---------------------------------------------------------------------------
# restricted-cli: hodgeshapley.cli.main on JSON files
# ---------------------------------------------------------------------------

# (n, removed coalitions); each n runs decompose and then verify.
CLI_CASES = (
    (12, 8),
    (13, 8),
)
CLI_LARGEST = "decompose-n13"


def _write_game(path: Path, vals: np.ndarray) -> None:
    n = int(len(vals)).bit_length() - 1
    spec = {"players": [f"p{i}" for i in range(n)], "mode": "float",
            "values": {coalition_key(S): float(vals[S]) for S in range(1, 1 << n)}}
    path.write_text(json.dumps(spec))


def _cli(argv: list[str]) -> tuple[int, str]:
    from hodgeshapley import cli  # only this workload loads the CLI module
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def restricted_cli(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    cases = []
    inputs = []
    for n, removed_count in CLI_CASES:
        removed = _removed_coalitions(rng, n, removed_count)
        vals = _float_values(rng, n)
        inputs.append((n, removed, vals.tobytes()))
        game_path = workdir / f"game-n{n}.json"
        cons_path = workdir / f"constraints-n{n}.json"
        _write_game(game_path, vals)
        cons_path.write_text(json.dumps(
            {"removed_coalitions": [coalition_key(S) for S in removed]}))
        cg = CaseGraph(n, removed, "degree-product")
        common = ["--game", str(game_path), "--constraints", str(cons_path),
                  "--weights", "degree-product", "--backend", "cg"]

        def run_decompose(common=common):
            return _cli(["decompose", *common, "--format", "csv"])

        def check_decompose(out, cg=cg, vals=vals):
            code, text = out
            if code != 0:
                raise CheckError(f"decompose exited {code}")
            check_cli_csv(cg, vals, text)

        def run_verify(common=common):
            return _cli(["verify", *common])

        cases.append(Case(f"decompose-n{n}", run_decompose, check_decompose))
        cases.append(Case(f"verify-n{n}", run_verify, lambda out: check_cli_verify(*out)))
    glove = workdir / "glove.json"
    _write_game(glove, np.array([0, 0, 0, 1, 0, 1, 0, 1], dtype=float))  # glove game
    setup = ("import io, contextlib\n"
             "from hodgeshapley import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main(['decompose', '--game', {str(glove)!r}, '--backend', 'cg',"
             " '--format', 'csv'])\n"
             "if code:\n"
             "    raise SystemExit(code)\n")
    return Workload("restricted-cli", cases, CLI_LARGEST, setup, inputs)


WORKLOADS = {"exact-suite": exact_suite, "float-cube": float_cube,
             "restricted-cli": restricted_cli}
