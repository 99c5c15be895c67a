"""tools/bench_pairs.py keeps the pairs it finished when a run fails."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    git = []
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "_git", lambda *args: git.append(args) or "abc1234")
    return module, git


def _result(wall):
    return {"result": {"metrics": {"wall_s": {"value": wall}}, "failed": 0}}


def test_a_failed_run_keeps_the_finished_pairs(bench_pairs, tmp_path, monkeypatch, capsys):
    module, git = bench_pairs
    calls = []

    def run(tree, workload, seed, seconds):
        side = "change" if tree == tmp_path else "parent"
        calls.append((seed, side))
        if (seed, side) == (12, "change"):
            return {"exit_code": 3, "stderr": "Traceback ...\nIndexError: boom"}
        return _result(0.2 if side == "parent" else 0.1)

    monkeypatch.setattr(module, "_run", run)
    status = module.main(["HEAD", "exact-suite", "--pairs", "3", "--seconds", "1",
                          "--label", "t", "--first-seed", "11"])
    assert status == 1
    # pair 2 runs the change first; its failure stops the pairs
    assert calls == [(11, "parent"), (11, "change"), (12, "change")]
    assert [args[:2] for args in git] == [("rev-parse", "--short"), ("worktree", "add"),
                                           ("worktree", "remove")]
    runs = json.loads((tmp_path / "BENCH_t.json").read_text())["runs"]
    assert [(r["seed"], r["side"]) for r in runs] == calls
    assert runs[-1] == {"side": "change", "seed": 12, "exit_code": 3,
                        "stderr": "Traceback ...\nIndexError: boom"}
    out = capsys.readouterr().out
    assert "wins 1/1" in out and "failed run: change seed 12 exit code 3" in out


def test_a_run_without_a_result_line_is_a_failure(bench_pairs, tmp_path, monkeypatch):
    module, _ = bench_pairs

    class Proc:
        returncode, stdout, stderr = 0, "\n", "no output"

    monkeypatch.setattr(module.subprocess, "run", lambda *args, **kw: Proc)
    assert module._run(tmp_path, "exact-suite", 1, 1.0) == {"exit_code": 0,
                                                           "stderr": "no output"}
    Proc.stdout = 'log line\n{"metrics": {}, "failed": 0}\n'
    assert module._run(tmp_path, "exact-suite", 1, 1.0) == {"result": {"metrics": {},
                                                                       "failed": 0}}
    assert module.summarize([{"side": "parent", "seed": 1, **_result(0.2)}],
                            {"wall_s": "lower"}) == ["failed operations: parent 0, change 0"]


def test_each_run_compiles_into_its_own_empty_cache(bench_pairs, tmp_path, monkeypatch):
    # a __pycache__ left in a tree by a test run must not spare one side
    # the compile of src/
    module, _ = bench_pairs
    caches = []

    class Proc:
        returncode, stdout, stderr = 0, '{"metrics": {}, "failed": 0}\n', ""

    def run(args, cwd, env, **kw):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        assert "PYTHONDONTWRITEBYTECODE" not in env
        caches.append(cache)
        return Proc

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(module.subprocess, "run", run)
    for _ in range(2):
        assert "result" in module._run(tmp_path, "exact-suite", 1, 1.0)
    assert caches[0] != caches[1] and not any(c.exists() for c in caches)


def test_each_run_starts_from_its_own_copy_of_the_template(bench_pairs, tmp_path,
                                                           monkeypatch):
    # the standard library's bytecode comes from the template, and a run
    # that writes its own src/ bytecode leaves the template as it was
    module, _ = bench_pairs
    template = tmp_path / "template"
    (template / "usr" / "lib").mkdir(parents=True)
    (template / "usr" / "lib" / "json.pyc").write_bytes(b"stdlib")
    monkeypatch.setattr(module, "_template", template)
    caches = []

    class Proc:
        returncode, stdout, stderr = 0, '{"metrics": {}, "failed": 0}\n', ""

    def run(args, cwd, env, **kw):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert (cache / "usr" / "lib" / "json.pyc").read_bytes() == b"stdlib"
        assert cache != template
        (cache / "src.pyc").write_bytes(b"src")
        caches.append(cache)
        return Proc

    monkeypatch.setattr(module.subprocess, "run", run)
    for _ in range(2):
        assert "result" in module._run(tmp_path, "exact-suite", 1, 1.0)
    assert caches[0] != caches[1] and not any(c.exists() for c in caches)
    assert sorted(p.name for p in template.rglob("*.pyc")) == ["json.pyc"]


def test_the_template_leaves_out_the_working_tree(bench_pairs, tmp_path, monkeypatch):
    module, _ = bench_pairs
    prefix = tmp_path / "prefix"

    def run(args, cwd, env, **kw):
        assert cwd == tmp_path and "--seconds" in args
        assert "PYTHONDONTWRITEBYTECODE" not in env
        for path in ("usr/lib/json.pyc", f"{tmp_path.relative_to(tmp_path.anchor)}/src/x.pyc"):
            target = Path(env["PYTHONPYCACHEPREFIX"]) / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(module.subprocess, "run", run)
    module._compile_template(prefix, "exact-suite")
    assert [p.relative_to(prefix).as_posix() for p in prefix.rglob("*.pyc")] == \
        ["usr/lib/json.pyc"]
