"""Command-line front end.

Subcommands: ``decompose`` (component-game table), ``shapley``
(allocation by a chosen method), ``compare`` (allocation rules side by
side), ``verify`` (invariant checks on the given input), ``fixtures``
(replay the built-in benchmark decompositions and diff every value).
Each subcommand takes only the flags it reads: ``fixtures`` takes none,
and ``verify`` prints PASS/FAIL lines, so it has no ``--format``.

The solver flags default to ``SolverConfig``'s, so a spec is solved in
its own mode: exactly if rational, in float64 if float.  A ``--backend``
that names the other mode converts the game first, with a note on stderr.

Exit codes: 0 success; 1 failed invariant in verify/fixtures; 2 spec
parse error, or a capacity refusal (``CapacityError``, for example
``--method precedence`` or a restricted ``compare`` past 10 players, or
an exact solve past 4096 unknowns); 3 infeasible/disconnected graph; 4
solver non-convergence, or float components that miss the game in a
rendered table.
All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import closed_form as cf
from . import coalition as co
from .errors import ConvergenceError, InfeasibilityError, SpecFileError
from .game import RATIONAL, Game, load_game, parse_scalar, read_spec_file
from .graph import EdgeWeighting, degree_product_weighting, full_hypercube, \
    load_constraints, restrict, weighting_from_spec
from .reference_tables import ALL_REFERENCES
from .report import compare_allocations, render_allocation, render_table
from .solve import CG_FLOAT, DENSE_RATIONAL, SolverConfig, decompose, residual_orthogonality

_BACKEND_FLAGS = {"dense-rational": DENSE_RATIONAL, "cg": CG_FLOAT}
_METHODS = ("direct", "permutation", "hodge", "precedence")


def _build_weighting(tag: str, n: int) -> EdgeWeighting | None:
    """Weighting from a CLI tag: constant, constant:<c>, size-plus-one,
    degree-product, or file:PATH."""
    if tag in (None, "degree-product"):
        return None  # degree products are applied to the restricted graph afterwards
    name, _, value = tag.partition(":")
    if tag == "constant" or (name == "constant" and value):
        return EdgeWeighting.constant(parse_scalar(value, RATIONAL) if value else 1)
    if tag == "size-plus-one":
        return EdgeWeighting.size_plus_one(n)
    if tag.startswith("file:"):
        return weighting_from_spec(read_spec_file(tag[len("file:"):]), n)
    raise SpecFileError(f"unknown weighting {tag!r}; expected constant, constant:<c>, "
                        "size-plus-one, degree-product, or file:PATH")


def _load_inputs(args: argparse.Namespace):
    """Load and validate every referenced file, then build the graph."""
    v = load_game(args.game)
    removed_vertices, removed_edges, file_weighting = [], [], None
    if args.constraints is not None:
        removed_vertices, removed_edges, file_weighting = load_constraints(args.constraints, v.n)
    weighting = _build_weighting(args.weights, v.n)
    if weighting is None and args.weights != "degree-product":
        weighting = file_weighting
    g = full_hypercube(v.n, weighting)
    if removed_vertices or removed_edges:
        g = restrict(g, removed_vertices, removed_edges)
    if args.weights == "degree-product":
        g = degree_product_weighting(g)
    return g, v


def _solver_inputs(args: argparse.Namespace, v: Game) -> tuple[Game, SolverConfig]:
    """The game in the mode ``--backend`` names (its own mode without the
    flag), noting a conversion, and the solver configuration."""
    backend = _BACKEND_FLAGS.get(args.backend)
    if backend == DENSE_RATIONAL and not v.is_rational:
        print("note: promoting float game to exact rationals for dense-rational", file=sys.stderr)
        v = v.as_rational()
    elif backend == CG_FLOAT and v.is_rational:
        print(f"note: converting rational game to floats for {backend}", file=sys.stderr)
        v = v.as_float()
    return v, SolverConfig(backend=backend, cg_tolerance=args.tol, cg_max_iters=args.max_iters)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_decompose(args: argparse.Namespace) -> int:
    g, v = _load_inputs(args)
    v, cfg = _solver_inputs(args, v)
    sys.stdout.write(render_table(decompose(g, v, cfg), v, args.format))
    return 0


def _cmd_shapley(args: argparse.Namespace) -> int:
    g, v = _load_inputs(args)
    if args.method in ("direct", "permutation") and not (
            g.is_full_cube and g.weighting.permutation_invariant):
        raise SpecFileError(f"--method {args.method} gives the classical Shapley value, "
                            "which holds only on the full cube with symmetric weights; "
                            "use --method hodge or --method precedence")
    if args.method == "direct":
        values = cf.shapley_values(v)
    elif args.method in ("permutation", "precedence"):
        # on the full cube, which permutation requires, every order is feasible
        values = cf.precedence_shapley_values(g, v)
    else:
        v, cfg = _solver_inputs(args, v)
        values = decompose(g, v, cfg).allocation()
    sys.stdout.write(render_allocation(values, args.format))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    g, v = _load_inputs(args)
    v, cfg = _solver_inputs(args, v)
    sys.stdout.write(compare_allocations(g, v, cfg, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g, v = _load_inputs(args)
    v, cfg = _solver_inputs(args, v)
    dec = decompose(g, v, cfg)
    # relative to the game's largest value, so a small game is checked as
    # closely as a large one; exactly 0 for the zero game
    tol = 0 if v.is_rational else 1e-8 * float(np.max(np.abs(v.values)))
    checks = [("efficiency: components sum to the game", dec.efficiency_gap <= tol),
              ("orthogonality: d*(d v_i - d_i v) = 0 for every player",
               max(residual_orthogonality(g, v, dec)) <= tol)]
    if g.is_full_cube and g.weighting.permutation_invariant and v.is_rational:
        direct = cf.shapley_values(v)
        checks.append(("allocation matches the classical formula",
                       tuple(dec.allocation()) == tuple(direct)))
        if v.n <= 7:
            perm = cf.precedence_shapley_values(g, v)
            checks.append(("classical formula matches the permutation average",
                           perm == tuple(direct)))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_fixtures(args: argparse.Namespace) -> int:
    mismatches = tables_ok = 0
    for ref in ALL_REFERENCES:
        v = ref.game()  # rational: solved exactly
        dec = decompose(ref.graph(), v)
        bad = 0
        for S, row in ref.expected().items():
            got = (v.values[S],) + tuple(c.values[S] for c in dec.components)
            if got != row:
                bad += 1
                print(f"MISMATCH {ref.key} at {co.coalition_key(S)}: "
                      f"expected {tuple(map(str, row))}, got {tuple(map(str, got))}",
                      file=sys.stderr)
        tables_ok += bad == 0
        mismatches += bad
    # exercise the float backend on the plain-cube benchmark
    ref = ALL_REFERENCES[0]
    expect = np.array([[float(x) for x in row[1:]] for row in ref.expected().values()])
    dec = decompose(ref.graph(), ref.game().as_float())
    got = np.array([[c.values[S] for c in dec.components] for S in ref.expected()])
    if not np.allclose(got, expect, atol=1e-9):
        mismatches += 1
        print(f"MISMATCH {ref.key} under {CG_FLOAT}", file=sys.stderr)
    print(f"{tables_ok}/{len(ALL_REFERENCES)} tables reproduced")
    return 0 if mismatches == 0 and tables_ok == len(ALL_REFERENCES) else 1


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgeshapley",
        description="Decompose cooperative games into per-player component games "
                    "on the coalition hypercube.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, formats=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--game", required=True, metavar="PATH", help="game spec JSON file")
        p.add_argument("--constraints", metavar="PATH",
                       help="constraint spec JSON file (removed coalitions/edges)")
        p.add_argument("--weights", metavar="SPEC",
                       help="constant | constant:<c> | size-plus-one | degree-product "
                            "| file:PATH")
        p.add_argument("--backend", choices=sorted(_BACKEND_FLAGS),
                       help="solve in this mode (default: the game spec's mode)")
        p.add_argument("--tol", type=float, default=SolverConfig.cg_tolerance,
                       help="relative residual tolerance of float solves")
        p.add_argument("--max-iters", type=int, help="CG iteration cap")
        if formats:
            p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        return p

    command("decompose", _cmd_decompose, "print the component-game table")
    command("shapley", _cmd_shapley, "print an allocation vector").add_argument(
        "--method", choices=_METHODS, default="direct")
    command("compare", _cmd_compare, "compare allocation rules side by side")
    command("verify", _cmd_verify, "check decomposition invariants", formats=False)
    sub.add_parser("fixtures", help="replay built-in benchmark tables").set_defaults(
        run=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    # an infeasible graph and a float efficiency miss are ValueErrors too,
    # so their clauses come first
    try:
        code = args.run(args)
    except InfeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 4
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if argv is None:
        sys.exit(code)
    return code
