"""Benchmark for hodgeshapley: one workload, one process, one caller.

    python3 bench/run.py --workload exact-suite --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The run is a closed
loop with a single caller and no threads beyond the main one: it makes
passes until ``--seconds`` are used up, and a pass runs every case of the
workload once, in a fixed order, on inputs made from ``--seed`` during
set-up.  Every output is checked, untimed.  The first pass warms caches
and lazy imports; it counts against ``--seconds`` but not in the medians.

Timings are scaled to reference-host seconds by a host-speed probe taken
just before each case and each set-up sample (probe.py, RATIONALE.md).  ``--trace 0`` reports
the end-to-end metrics (medians over passes);
``--trace 1`` makes untraced passes for half the time, then wraps each
layer of the package (see tracing.py) and reports per-layer medians over
the traced passes.  The last line of stdout is the result JSON; the line
before it holds the run details (per-pass quartiles, host drift probe,
provenance).  ``python3 bench/selftest.py`` checks the checks.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on a 2-vCPU guest the
# default pool spins on both cores and makes float timings follow the
# neighbours' load (RATIONALE.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
MIN_PASSES = 3  # beyond the warm-up pass, whatever --seconds says


def _fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def _summary(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _run_pass(wl, counters: dict, tracer=None) -> dict:
    """Run every case once; time only the call, check the output after it.

    The host-speed probe runs just before each case, and the case's time
    is scaled by it (RATIONALE.md).
    """
    gc.collect()
    rec = {"cases": {}, "calibration_ms": {}, "scaled": {}, "roots": []}
    for case in wl.cases:
        counters["attempted"] += 1
        calibration = probe.calibration_ms()
        idx = tracer.begin("bench.case") if tracer else None
        t0 = time.perf_counter()
        try:
            out = case.run()
        except Exception:  # a failing case is counted, and the run goes on
            out = None
            err = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(idx)
            rec["roots"].append(idx)
        rec["cases"][case.name] = elapsed
        rec["calibration_ms"][case.name] = calibration
        rec["scaled"][case.name] = elapsed * probe.REFERENCE_CALIBRATION_MS / calibration
        if out is None:
            counters["failed"] += 1
            counters["errors"].append(f"{case.name}: {err}")
            continue
        try:
            case.check(out)
        except Exception as exc:  # CheckError, or a malformed output
            counters["failed"] += 1
            counters["errors"].append(f"{case.name}: check failed: {exc!r}")
    rec["pass_s"] = sum(rec["cases"].values())
    rec["scaled_pass_s"] = sum(rec["scaled"].values())
    return rec


def _passes(wl, counters: dict, seconds: float, tracer=None) -> list[dict]:
    """Passes until the next one would overrun ``seconds`` (at least MIN_PASSES)."""
    start = time.perf_counter()
    out = []
    walls = []
    while True:
        t0 = time.perf_counter()
        out.append(_run_pass(wl, counters, tracer))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(out) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return out


def _setup_samples(wl) -> tuple[list[float], list[float]]:
    """Raw and host-scaled times of import hodgeshapley plus a first glove
    decompose, each in a fresh interpreter."""
    code = ("import time\nt0 = time.perf_counter()\n" + wl.setup_code
            + "print(repr(time.perf_counter() - t0))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        calibration = probe.calibration_ms()
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            _fail(f"set-up probe failed:\n{res.stderr}")
        raw.append(float(res.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * probe.REFERENCE_CALIBRATION_MS / calibration)
    return raw, scaled


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timing(name: str, raw: list[float], scaled: list[float], metrics: dict,
            stats: dict) -> None:
    """Median of host-scaled samples as the metric; raw numbers in the details."""
    metrics[name] = _metric(statistics.median(scaled), "s")
    stats[name] = _summary(scaled) | {"raw": _summary(raw)}


def _end_to_end(wl, passes: list[dict], setup: tuple) -> tuple[dict, dict]:
    metrics, stats = {}, {}
    _timing("wall_s", [p["pass_s"] for p in passes], [p["scaled_pass_s"] for p in passes],
            metrics, stats)
    _timing("largest_s", [p["cases"][wl.largest] for p in passes],
            [p["scaled"][wl.largest] for p in passes], metrics, stats)
    stats["largest_s"]["case"] = wl.largest
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = _metric(peak_mb, "MB")
    stats["peak_rss_mb"] = {"value": peak_mb, "n": 1}
    _timing("setup_s", *setup, metrics, stats)
    return metrics, stats


# (metric, unit, key in the per-pass layer dict).  "self:" keys are summed
# self times of the named spans; the rest are counts.
_LAYER_METRICS = (
    ("exact.factor_s", "s", ("self:exact.factor",)),
    ("exact.solve_s", "s", ("self:exact.solve",)),
    ("exact.factorizations", "count", ("exact.factorizations",)),
    ("solve.self_s", "s", ("self:solve.decompose", "self:solve.residual")),
    ("solve.cg_iterations", "count", ("solve.cg_iterations",)),
    ("graph.weights_s", "s", ("self:graph.weights",)),
    ("graph.edges", "count", ("graph.edges",)),
    ("graph.build_s", "s", ("self:graph.build",)),
    ("graph.reweight_s", "s", ("self:graph.reweight",)),
    ("operators.s", "s", ("self:operators",)),
    ("game.load_s", "s", ("self:game.load",)),
    ("report.render_s", "s", ("self:report.render",)),
    ("cli.self_s", "s", ("self:cli.main",)),
)


def _per_layer(tracer, untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    layers = tracing.per_pass_layers(tracer, [p["roots"] for p in traced])
    metrics, stats = {}, {}
    for name, unit, keys in _LAYER_METRICS:
        values = [sum(layer.get(k, 0.0) for k in keys) for layer in layers]
        if unit == "s":
            # a pass's layer times share its time-weighted host scale
            scaled = [v * p["scaled_pass_s"] / p["pass_s"] for v, p in zip(values, traced)]
            _timing(name, values, scaled, metrics, stats)
        else:
            metrics[name] = _metric(statistics.median(values), unit)
            stats[name] = _summary(values)
    calls = sum(layer.get("rational_decomposes", 0) for layer in layers)
    hits = sum(layer.get("cache_hits", 0) for layer in layers)
    metrics["solve.factor_cache_hit_ratio"] = _metric(hits / calls if calls else 0.0, "ratio")
    stats["solve.factor_cache_hit_ratio"] = {"hits": hits, "rational_decomposes": calls}
    metrics["solve.max_rel_residual"] = _metric(
        max(layer.get("solve.max_rel_residual", 0.0) for layer in layers), "ratio")
    traced_median = statistics.median(p["scaled_pass_s"] for p in traced)
    untraced_median = statistics.median(p["scaled_pass_s"] for p in untraced)
    metrics["trace.overhead_s"] = _metric(traced_median - untraced_median, "s")
    # every span's self time is counted once, so the named layers plus the
    # untraced remainder (bench.case self time) add up to the pass time
    accounting = []
    for layer in layers:
        named = sum(v for k, v in layer.items()
                    if k.startswith("self:") and k != "self:bench.case")
        accounting.append({"pass_s": layer["pass_s"], "layers_s": named,
                           "untraced_remainder_s": layer.get("self:bench.case", 0.0)})
    stats["accounting"] = accounting
    stats["untraced_pass_s"] = _summary([p["pass_s"] for p in untraced])
    stats["traced_pass_s"] = _summary([layer["pass_s"] for layer in layers])
    stats["missing_boundaries"] = tracer.missing
    return metrics, stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hodgeshapley" / "__init__.py").is_file():
        _fail(f"no hodgeshapley sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hodgeshapley
    if Path(hodgeshapley.__file__).resolve().parent != (SRC / "hodgeshapley").resolve():
        _fail(f"imported hodgeshapley from {hodgeshapley.__file__}, not from {SRC}")

    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}")

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        digest = probe.input_digest(wl.inputs)
        setup = ([], []) if args.trace else _setup_samples(wl)
        counters = {"attempted": 0, "failed": 0, "errors": []}
        t0 = time.perf_counter()
        warmup = _run_pass(wl, counters)
        budget = args.seconds - (time.perf_counter() - t0)
        if args.trace:
            untraced = _passes(wl, counters, budget / 2)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = _passes(wl, counters, budget / 2, tracer)
            metrics, stats = _per_layer(tracer, untraced, traced)
            passes = untraced + traced
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            stats["spans_file"] = str(trace_path.relative_to(ROOT))
        else:
            passes = _passes(wl, counters, budget)
            metrics, stats = _end_to_end(wl, passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas = probe.loaded_openblas_threads()
    if any(t > 1 for t in blas.values()):
        _fail(f"BLAS is not pinned to one thread: {blas}", code=3)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": stats,
        "warmup_pass": {"pass_s": warmup["pass_s"], "cases": warmup["cases"]},
        "reference_calibration_ms": probe.REFERENCE_CALIBRATION_MS,
        "passes": [{"pass_s": p["pass_s"], "scaled_pass_s": p["scaled_pass_s"],
                    "cases": p["cases"], "calibration_ms": p["calibration_ms"]}
                   for p in passes],
        "errors": counters["errors"][:10],
        "provenance": probe.provenance(ROOT, digest, blas),
    }
    print(json.dumps({"details": details}))
    result = {"correct": counters["failed"] == 0, "attempted": counters["attempted"],
              "failed": counters["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
