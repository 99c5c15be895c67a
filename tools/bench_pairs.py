"""Alternating benchmark pairs: a git revision against the working tree.

    python3 tools/bench_pairs.py REV WORKLOAD --pairs N --seconds S --label L

Both sides run from fresh copies at paths of equal length in one
temporary directory: ``parent``, REV's committed files (``git archive``),
and ``change``, the working tree's files as they are, committed or not,
less what ``.gitignore`` leaves out; a tree's location alone moved
``float-cube``'s ``peak_rss_mb`` by about 2 MB.  Pair j (from 1) runs
``bench/run.py --workload WORKLOAD --seed FIRST+j-1 --seconds S`` once on
each copy, REV first on odd pairs and second on even ones, each run in its
own copy (so each imports its own ``src/``) and with its own bytecode
cache (``PYTHONPYCACHEPREFIX``), so both sides compile ``src/`` and
neither reads a ``__pycache__`` left in its tree.
Each run's cache starts as a copy of one template, the bytecode of one
short warm-up run (the standard library, numpy and the rest of what a run
imports from outside the trees) without the tree's own files, so a run
compiles its ``src/`` and ``bench/`` only, as a plain ``bench/run.py`` run
in a fresh checkout does.  The runs go to ``BENCH_<L>.json`` at the repo
root, and each end-to-end metric's medians, quartiles and the number of
pairs the working tree wins are printed.  A run that fails (a nonzero
exit, or no result line) stops the pairs: it is recorded with its exit
code and the tail of its stderr, the JSON is still written, the complete
pairs are summarized, and the exit status is 1.  The JSON and the summary
also give both sides' ``src/`` line count (``bench/probe.src_line_count``),
and the JSON the working tree's commit.  Nothing under ``bench/`` is
edited; the copies are removed when the pairs are done.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
src_line_count = runpy.run_path(str(ROOT / "bench" / "probe.py"))["src_line_count"]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


# The bytecode cache that each run's own cache starts as a copy of, set by
# main() for its pairs; None starts a run from an empty cache.
_template: Path | None = None


def _bench_env(cache: Path | str) -> dict:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the run's later imports read the cache
    return env


def _checkout(rev: str | None, dest: Path) -> None:
    """Write rev's committed files into the new directory dest, or, for rev
    None, the working tree's files that git tracks or would track."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if (ROOT / name).is_file():  # not a tracked file deleted in the tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _compile_template(prefix: Path, workload: str) -> None:
    """Fill prefix with the bytecode of one short run of the working tree's
    bench, less the files of the tree itself."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                    "--seconds", "0"], cwd=ROOT, env=_bench_env(prefix), capture_output=True)
    shutil.rmtree(prefix / ROOT.relative_to(ROOT.anchor), ignore_errors=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in tree: ``{"result": ...}``, its result JSON
    (the last line of stdout), or ``{"exit_code": ..., "stderr": ...}``,
    the last lines of its stderr, when it fails or prints no result."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        if _template is not None:
            shutil.copytree(_template, cache, dirs_exist_ok=True)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds)],
                              cwd=tree, env=_bench_env(cache), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return {"result": json.loads(lines[-1])}
        except json.JSONDecodeError:
            pass
    return {"exit_code": proc.returncode, "stderr": "\n".join(proc.stderr.splitlines()[-20:])}


def _host() -> str:
    try:
        kb = next(int(line.split()[1]) for line in open("/proc/meminfo")
                  if line.startswith("MemTotal:"))
        ram = f", {kb / 2 ** 20:.0f} GB RAM"
    except (OSError, StopIteration, ValueError):
        ram = ""
    return f"{os.cpu_count()} vCPUs{ram}, one BLAS thread (set by bench/run.py)"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: list[dict], better: dict[str, str]) -> list[str]:
    """Per metric: both sides' median and quartiles over the pairs whose two
    runs both finished, and the change's wins."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        if "result" in run:
            pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = {seed: pair for seed, pair in pairs.items() if len(pair) == 2}
    lines = []
    names = list(next(iter(pairs.values()))["parent"]["metrics"]) if pairs else []
    for name in names:
        sides = {side: [pairs[s][side]["metrics"][name]["value"] for s in pairs]
                 for side in ("parent", "change")}
        sign = -1 if better.get(name, "lower") == "higher" else 1
        wins = sum(sign * c < sign * p for p, c in zip(sides["parent"], sides["change"]))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(sides["parent"]), _quartiles(sides["change"])
        lines.append(f"{name:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
                     f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
                     f"change/parent {cm / pm if pm else float('nan'):.3f}  "
                     f"wins {wins}/{len(pairs)}")
    failed = {side: sum(r["result"]["failed"] for r in runs if r["side"] == side and "result" in r)
              for side in ("parent", "change")}
    lines.append(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    for run in runs:
        if "result" not in run:
            lines.append(f"failed run: {run['side']} seed {run['seed']} "
                         f"exit code {run['exit_code']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD or a commit")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    global _template
    rev = _git("rev-parse", "--short", args.rev)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    head = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain"):
        head += " with uncommitted changes"
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": tmp / "parent", "change": tmp / "change"}  # paths of equal length
    runs = []
    try:
        _checkout(rev, trees["parent"])
        _checkout(None, trees["change"])
        src_lines = {side: src_line_count(tree / "src") for side, tree in trees.items()}
        _template = tmp / "pycache"
        _compile_template(_template, args.workload)
        schedule = [(j, args.first_seed + j - 1, side) for j in range(1, args.pairs + 1)
                    for side in (("parent", "change") if j % 2 else ("change", "parent"))]
        for j, seed, side in schedule:
            run = _run(trees[side], args.workload, seed, args.seconds)
            runs.append({"side": side, "seed": seed, **run})
            if "result" not in run:
                print(f"pair {j} seed {seed} {side}: exit code {run['exit_code']}\n"
                      f"{run['stderr']}", flush=True)
                break
            wall = run["result"]["metrics"].get("wall_s", {}).get("value", float("nan"))
            print(f"pair {j} seed {seed} {side}: wall_s {wall:.4g}", flush=True)
    finally:
        _template = None
        shutil.rmtree(tmp, ignore_errors=True)

    last = args.first_seed + args.pairs - 1
    out = {
        "label": args.label,
        "command": f"PYTHONPYCACHEPREFIX=<per-run copy of a warm-up run's bytecode outside "
                   f"both trees> python3 bench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g}",
        "parent": rev,
        "change": head,
        "order": f"alternating pairs over seeds {args.first_seed}..{last}, "
                 "parent first on odd-numbered pairs",
        "host": _host(),
        "src_lines": src_lines,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    print(f"src/ lines: parent {src_lines['parent']}, change {src_lines['change']}")
    for line in summarize(runs, better):
        print(line)
    return 0 if all("result" in run for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
