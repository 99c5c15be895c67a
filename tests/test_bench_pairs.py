"""tools/bench_pairs.py keeps the pairs it finished when a run fails,
runs both sides from fresh copies at paths of equal length, and records
both sides' src/ line counts."""

import importlib.util
import json
import subprocess
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
    monkeypatch.setattr(module, "_checkout", lambda rev, dest: dest.mkdir(parents=True))
    return module, git


def _result(wall):
    return {"result": {"metrics": {"wall_s": {"value": wall}}, "failed": 0}}


def test_a_failed_run_keeps_the_finished_pairs(bench_pairs, tmp_path, monkeypatch, capsys):
    module, git = bench_pairs
    calls = []

    def run(tree, workload, seed, seconds):
        side = tree.name
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
    assert git == [("rev-parse", "--short", "HEAD"), ("rev-parse", "--short", "HEAD"),
                   ("status", "--porcelain")]
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


def test_the_pair_file_records_both_sides_src_line_counts(bench_pairs, tmp_path, monkeypatch,
                                                         capsys):
    module, _ = bench_pairs

    def checkout(rev, dest):
        if rev is None:  # the working tree's copy
            (dest / "src").mkdir(parents=True)
            (dest / "src" / "a.py").write_text("x = 1\n" * 4)
            (dest / "src" / "b.py").write_text("y = 2\n")
            (dest / "src" / "notes.txt").write_text("not counted\n")
        else:
            (dest / "src" / "pkg").mkdir(parents=True)
            (dest / "src" / "pkg" / "a.py").write_text("x = 1\n" * 7)

    monkeypatch.setattr(module, "_checkout", checkout)
    monkeypatch.setattr(module, "_compile_template", lambda prefix, workload: None)
    monkeypatch.setattr(module, "_run", lambda tree, workload, seed, seconds: _result(0.1))
    assert module.main(["HEAD", "exact-suite", "--pairs", "1", "--seconds", "1",
                        "--label", "t"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["src_lines"] == {"parent": 7, "change": 5}
    assert "src/ lines: parent 7, change 5" in capsys.readouterr().out


def test_both_sides_run_from_fresh_copies_at_paths_of_equal_length(bench_pairs, tmp_path,
                                                                   monkeypatch):
    # a tree's location alone moved float-cube's peak_rss_mb by about 2 MB,
    # so neither side runs in the repo itself
    module, _ = bench_pairs
    copies, trees = [], set()

    def checkout(rev, dest):
        copies.append((rev, dest))
        dest.mkdir(parents=True)

    def run(tree, workload, seed, seconds):
        assert tree.is_dir()
        trees.add(tree)
        return _result(0.1)

    monkeypatch.setattr(module, "_checkout", checkout)
    monkeypatch.setattr(module, "_compile_template", lambda prefix, workload: None)
    monkeypatch.setattr(module, "_run", run)
    assert module.main(["HEAD~1", "exact-suite", "--pairs", "2", "--seconds", "1",
                        "--label", "t"]) == 0
    assert [rev for rev, _ in copies] == ["abc1234", None]
    assert trees == {dest for _, dest in copies}
    parent, change = (str(dest) for _, dest in copies)
    assert len(parent) == len(change) and tmp_path not in map(Path, (parent, change))
    assert not any(Path(p).exists() for p in (parent, change))
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (out["parent"], out["change"]) == ("abc1234", "abc1234 with uncommitted changes")


def test_checkout_copies_a_commit_or_the_working_tree(tmp_path, monkeypatch):
    # a commit's files as committed; the working tree's as they are,
    # untracked ones included and ignored ones left out
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    (repo / "src" / "a.py").write_text("old\n")
    (repo / "gone.py").write_text("deleted in the tree\n")
    (repo / ".gitignore").write_text("*.log\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (repo / "src" / "a.py").write_text("new\n")
    (repo / "src" / "b.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()
    monkeypatch.setattr(module, "ROOT", repo)
    module._checkout("HEAD", tmp_path / "parent")
    module._checkout(None, tmp_path / "change")
    files = {side: {p.relative_to(tmp_path / side).as_posix(): p.read_text()
                    for p in (tmp_path / side).rglob("*") if p.is_file()}
             for side in ("parent", "change")}
    assert files["parent"] == {"src/a.py": "old\n", "gone.py": "deleted in the tree\n",
                               ".gitignore": "*.log\n"}
    assert files["change"] == {"src/a.py": "new\n", "src/b.py": "untracked\n",
                               ".gitignore": "*.log\n"}
