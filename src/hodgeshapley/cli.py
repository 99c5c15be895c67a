"""Command-line front end.

Subcommands: ``decompose`` (component-game table), ``shapley``
(allocation by a chosen method), ``compare`` (allocation rules side by
side), ``verify`` (invariant checks on the given input), ``fixtures``
(replay the built-in benchmark decompositions and diff every value).

Exit codes: 0 success; 1 failed invariant in verify/fixtures; 2 spec
parse error; 3 infeasible/disconnected graph; 4 solver non-convergence,
or float components that miss the game in a rendered table.
All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import closed_form as cf
from . import coalition as co
from .errors import CapacityError, ConfigError, ConvergenceError, DomainError, \
    InfeasibilityError, SpecFileError
from .game import FLOAT, RATIONAL, Game, format_scalar, load_game, read_spec_file
from .graph import EdgeWeighting, degree_product_weighting, full_hypercube, \
    load_constraints, restrict, weighting_from_spec
from .reference_tables import ALL_REFERENCES
from .report import compare_allocations, render_table
from .solve import CG_FLOAT, DENSE_RATIONAL, SolverConfig, decompose, residual_orthogonality

_BACKEND_FLAGS = {"dense-rational": DENSE_RATIONAL, "cg": CG_FLOAT}
_METHODS = ("direct", "permutation", "hodge", "precedence")


@dataclass
class RunSpec:
    """A fully parsed command invocation; files are loaded before any
    computation starts."""

    command: str
    game_path: str | None = None
    constraints_path: str | None = None
    weights: str | None = None
    backend: str = DENSE_RATIONAL
    cg_tolerance: float = 1e-12
    cg_max_iters: int | None = None
    output_format: str = "text"
    method: str = "hodge"


def _build_weighting(tag: str, n: int) -> EdgeWeighting | None:
    """Weighting from a CLI tag: constant[:c], size-plus-one, degree-product,
    or file:PATH."""
    if tag is None:
        return None
    if tag == "degree-product":
        return None  # applied to the restricted graph afterwards
    if tag.startswith("constant"):
        _, _, value = tag.partition(":")
        return EdgeWeighting.constant(Fraction(value) if value else 1)
    if tag == "size-plus-one":
        return EdgeWeighting.size_plus_one(n)
    if tag.startswith("file:"):
        return weighting_from_spec(read_spec_file(tag[len("file:"):]), n)
    raise SpecFileError(f"unknown weighting {tag!r}; expected constant[:c], "
                        "size-plus-one, degree-product, or file:PATH")


def _load_inputs(spec: RunSpec):
    """Load and validate every referenced file, then build the graph."""
    if spec.game_path is None:
        raise SpecFileError("a game file is required for this command")
    v = load_game(spec.game_path)
    removed_vertices, removed_edges, file_weighting = [], [], None
    if spec.constraints_path is not None:
        removed_vertices, removed_edges, file_weighting = \
            load_constraints(spec.constraints_path, v.n)
    weighting = _build_weighting(spec.weights, v.n)
    if weighting is None and spec.weights != "degree-product":
        weighting = file_weighting
    g = full_hypercube(v.n, weighting)
    if removed_vertices or removed_edges:
        g = restrict(g, removed_vertices, removed_edges)
    if spec.weights == "degree-product":
        g = degree_product_weighting(g)
    return g, v


def _coerce_mode(v: Game, backend: str) -> Game:
    """Match the game's scalar mode to the backend, noting promotions."""
    if backend == DENSE_RATIONAL and v.mode != RATIONAL:
        print("note: promoting float game to exact rationals for dense-rational",
              file=sys.stderr)
        return v.as_rational()
    if backend == CG_FLOAT and v.mode != FLOAT:
        print(f"note: converting rational game to floats for {backend}", file=sys.stderr)
        return v.as_float()
    return v


def _solver_config(spec: RunSpec) -> SolverConfig:
    return SolverConfig(backend=spec.backend, cg_tolerance=spec.cg_tolerance,
                        cg_max_iters=spec.cg_max_iters)


def _format_allocation(values, fmt: str) -> str:
    if fmt == "json":
        payload = [format_scalar(x) if isinstance(x, Fraction) else float(x)
                   for x in values]
        return json.dumps({"allocation": payload}) + "\n"
    if fmt == "csv":
        lines = ["player,value"]
        lines += [f"{i + 1},{format_scalar(x)}" for i, x in enumerate(values)]
        return "\n".join(lines) + "\n"
    return "(" + ", ".join(format_scalar(x) for x in values) + ")\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_decompose(spec: RunSpec) -> int:
    g, v = _load_inputs(spec)
    v = _coerce_mode(v, spec.backend)
    dec = decompose(g, v, _solver_config(spec))
    sys.stdout.write(render_table(dec, v, spec.output_format))
    return 0


def _cmd_shapley(spec: RunSpec) -> int:
    g, v = _load_inputs(spec)
    if spec.method == "direct":
        values = cf.shapley_values(v)
    elif spec.method == "permutation":
        values = tuple(cf.shapley_permutation_oracle(v, i) for i in range(v.n))
    elif spec.method == "precedence":
        values = tuple(cf.precedence_shapley_oracle(g, v, i) for i in range(v.n))
    elif spec.method == "hodge":
        v = _coerce_mode(v, spec.backend)
        values = decompose(g, v, _solver_config(spec)).allocation()
    else:
        raise SpecFileError(f"unknown method {spec.method!r}")
    sys.stdout.write(_format_allocation(values, spec.output_format))
    return 0


def _cmd_compare(spec: RunSpec) -> int:
    g, v = _load_inputs(spec)
    v = _coerce_mode(v, spec.backend)
    sys.stdout.write(compare_allocations(g, v, _solver_config(spec), spec.output_format))
    return 0


def _cmd_verify(spec: RunSpec) -> int:
    g, v = _load_inputs(spec)
    v = _coerce_mode(v, spec.backend)
    cfg = _solver_config(spec)
    dec = decompose(g, v, cfg)
    exact = v.is_rational
    tol = 0 if exact else 1e-8 * max(1.0, float(np.max(np.abs(np.asarray(v.values)))))
    checks = []

    gap = dec.efficiency_gap
    checks.append(("efficiency: components sum to the game", gap <= tol))
    residuals = residual_orthogonality(g, v, dec)
    checks.append(("orthogonality: d*(d v_i - d_i v) = 0 for every player",
                   max(residuals) <= tol))
    if g.is_full_cube and g.weighting.permutation_invariant and exact:
        direct = cf.shapley_values(v)
        checks.append(("allocation matches the classical formula",
                       tuple(dec.allocation()) == tuple(direct)))
        if v.n <= 7:
            perm = tuple(cf.shapley_permutation_oracle(v, i) for i in range(v.n))
            checks.append(("classical formula matches the permutation average",
                           perm == tuple(direct)))

    failed = 0
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def _cmd_fixtures(spec: RunSpec) -> int:
    mismatches = 0
    tables_ok = 0
    for ref in ALL_REFERENCES:
        g = ref.graph()
        v = ref.game()
        dec = decompose(g, v, SolverConfig(backend=DENSE_RATIONAL))
        expected = ref.expected()
        bad = 0
        for S, row in expected.items():
            got = (v.values[S],) + tuple(c.values[S] for c in dec.components)
            if got != row:
                bad += 1
                print(f"MISMATCH {ref.key} at {co.coalition_key(S)}: "
                      f"expected {tuple(map(str, row))}, got {tuple(map(str, got))}",
                      file=sys.stderr)
        if bad == 0:
            tables_ok += 1
        mismatches += bad
    # exercise the float backend on the plain-cube benchmark
    ref = ALL_REFERENCES[0]
    expect = np.array([[float(x) for x in row[1:]] for row in ref.expected().values()])
    dec = decompose(ref.graph(), ref.game().as_float(), SolverConfig(backend=CG_FLOAT))
    got = np.array([[c.values[S] for c in dec.components] for S in ref.expected()])
    if not np.allclose(got, expect, atol=1e-9):
        mismatches += 1
        print(f"MISMATCH {ref.key} under {CG_FLOAT}", file=sys.stderr)
    print(f"{tables_ok}/{len(ALL_REFERENCES)} tables reproduced")
    return 0 if mismatches == 0 and tables_ok == len(ALL_REFERENCES) else 1


_COMMANDS = {"decompose": _cmd_decompose, "shapley": _cmd_shapley,
             "compare": _cmd_compare, "verify": _cmd_verify, "fixtures": _cmd_fixtures}


def run(spec: RunSpec) -> int:
    """Execute a parsed invocation, mapping errors to exit codes."""
    try:
        return _COMMANDS[spec.command](spec)
    except (SpecFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CapacityError, ConfigError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgeshapley",
        description="Decompose cooperative games into per-player component games "
                    "on the coalition hypercube.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_game=True):
        if needs_game:
            p.add_argument("--game", required=True, metavar="PATH",
                           help="game spec JSON file")
            p.add_argument("--constraints", metavar="PATH",
                           help="constraint spec JSON file (removed coalitions/edges)")
            p.add_argument("--weights", metavar="SPEC",
                           help="constant[:c] | size-plus-one | degree-product | file:PATH")
        p.add_argument("--backend", choices=sorted(_BACKEND_FLAGS), default="dense-rational")
        p.add_argument("--tol", type=float, default=1e-12,
                       help="CG relative residual tolerance")
        p.add_argument("--max-iters", type=int, default=None, help="CG iteration cap")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    add_common(sub.add_parser("decompose", help="print the component-game table"))
    shapley = sub.add_parser("shapley", help="print an allocation vector")
    add_common(shapley)
    shapley.add_argument("--method", choices=_METHODS, default="direct")
    add_common(sub.add_parser("compare", help="compare allocation rules side by side"))
    add_common(sub.add_parser("verify", help="check decomposition invariants"))
    add_common(sub.add_parser("fixtures", help="replay built-in benchmark tables"),
               needs_game=False)
    return parser


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        command=args.command,
        game_path=getattr(args, "game", None),
        constraints_path=getattr(args, "constraints", None),
        weights=getattr(args, "weights", None),
        backend=_BACKEND_FLAGS[args.backend],
        cg_tolerance=args.tol,
        cg_max_iters=args.max_iters,
        output_format=args.format,
        method=getattr(args, "method", "hodge"),
    )


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    code = run(spec_from_args(args))
    if argv is None:
        sys.exit(code)
    return code
