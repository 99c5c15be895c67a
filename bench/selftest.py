"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check must accept an untouched output and reject a corrupted one: an
exact component off by 1/1000, a float component off by 1e-6 * max|v|, a
pair of offsetting corruptions that keeps efficiency (so only the
orthogonality check can see it), a truncated CLI table and a failed
verify line.  The vectorised float Shapley reference is also compared
with ``closed_form.shapley_values``.  Exits 0 when every probe behaves.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from hodgeshapley import closed_form, graph, solve  # noqa: E402
from hodgeshapley.game import FLOAT, RATIONAL, Game  # noqa: E402
from hodgeshapley.reference_tables import ALL_REFERENCES  # noqa: E402

_results = []


def expect(label: str, fn, accept: bool) -> None:
    try:
        fn()
        ok = accept
        outcome = "accepted"
    except checks.CheckError as exc:
        ok = not accept
        outcome = f"rejected ({exc})"
    _results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'}  {label}: {outcome}")


def _corrupt(tables, i, S, delta):
    out = [list(t) for t in tables]
    out[i][S] += delta
    return out


def exact_probes() -> None:
    rng = np.random.default_rng(7)
    ref = ALL_REFERENCES[3]
    dec = solve.decompose(ref.graph(), ref.game())
    comps = [c.values for c in dec.components]
    v = ref.game().values
    expect("glove table, untouched", lambda: checks.check_glove(ref.expected(), v, comps), True)
    expect("glove table, component +1/1000",
           lambda: checks.check_glove(ref.expected(), v,
                                      _corrupt(comps, 1, 7, Fraction(1, 1000))), False)

    n = 6
    removed = workloads._removed_coalitions(rng, n, 3)
    cg = checks.CaseGraph(n, removed, "size-plus-one")
    g = graph.restrict(graph.full_hypercube(n, graph.EdgeWeighting.size_plus_one(n)), removed)
    vals = workloads._rational_values(rng, n)
    comps = [c.values for c in solve.decompose(g, Game(n, RATIONAL, tuple(vals))).components]
    S = int(cg.vertices[len(cg.vertices) // 2])
    expect("exact restricted, untouched", lambda: checks.check_exact(cg, vals, comps), True)
    expect("exact restricted, component +1/1000",
           lambda: checks.check_exact(cg, vals, _corrupt(comps, 2, S, Fraction(1, 1000))), False)
    shifted = _corrupt(_corrupt(comps, 0, S, Fraction(1, 1000)), 1, S, -Fraction(1, 1000))
    expect("exact restricted, offsetting +-1/1000 (efficiency holds)",
           lambda: checks.check_exact(cg, vals, shifted), False)

    cube = checks.CaseGraph(n, (), "constant")
    comps = [c.values for c in solve.decompose(graph.full_hypercube(n),
                                               Game(n, RATIONAL, tuple(vals))).components]
    top = (1 << n) - 1
    expect("exact cube, untouched", lambda: checks.check_exact(cube, vals, comps), True)
    expect("exact cube, grand-coalition value +1/1000",
           lambda: checks.check_exact(cube, vals, _corrupt(comps, 3, top, Fraction(1, 1000))),
           False)


def float_probes() -> None:
    rng = np.random.default_rng(8)
    n = 9
    vals = workloads._float_values(rng, n)
    cg = checks.CaseGraph(n, (), "size-plus-one")
    dec = solve.decompose(graph.full_hypercube(n, graph.EdgeWeighting.size_plus_one(n)),
                          Game(n, FLOAT, vals), solve.SolverConfig(backend=solve.CG_FLOAT))
    comps = np.array([c.values for c in dec.components])
    delta = 1e-6 * max(1.0, float(np.max(np.abs(vals))))
    expect("float cube, untouched", lambda: checks.check_float(cg, vals, comps), True)
    for S in (5, (1 << n) - 1):
        bad = comps.copy()
        bad[4, S] += delta
        expect(f"float cube, component at {S} +1e-6*scale",
               lambda bad=bad: checks.check_float(cg, vals, bad), False)
    bad = comps.copy()
    bad[0, 37] += delta
    bad[1, 37] -= delta
    expect("float cube, offsetting +-1e-6*scale (efficiency holds)",
           lambda: checks.check_float(cg, vals, bad), False)

    worst = 0.0
    for m in range(1, 8):
        v = workloads._float_values(rng, m)
        ref = np.array(closed_form.shapley_values(Game(m, FLOAT, v)))
        worst = max(worst, float(np.max(np.abs(checks.shapley_float(v, m) - ref))))
    ok = worst < 1e-12
    _results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'}  vectorised Shapley vs closed_form at n=1..7: "
          f"max difference {worst:.2e}")


def cli_probes(workdir: Path) -> None:
    wl = workloads.restricted_cli(3, workdir)
    n = workloads.CLI_CASES[0][0]
    dec_case, verify_case = wl.cases[0], wl.cases[1]
    code, text = dec_case.run()
    lines = text.splitlines(keepends=True)

    def check(t):
        return lambda: dec_case.check((code, t))

    expect(f"CLI table n={n}, untouched", check(text), True)
    expect("CLI table, last row dropped", check("".join(lines[:-1])), False)
    expect("CLI table, cut mid-row", check(text[: len(text) // 2]), False)
    v_code, v_text = verify_case.run()
    expect("CLI verify, untouched", lambda: checks.check_cli_verify(v_code, v_text), True)
    expect("CLI verify, a FAIL line",
           lambda: checks.check_cli_verify(1, v_text.replace("PASS", "FAIL", 1)), False)


def main() -> int:
    workdir = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        exact_probes()
        float_probes()
        cli_probes(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = _results.count(False)
    print(f"{len(_results) - failed}/{len(_results)} probes behaved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
