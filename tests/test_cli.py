import argparse
import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from hodgeshapley import cli
from hodgeshapley import game as gm
from hodgeshapley import solve as sv
from hodgeshapley.cli import main


@pytest.fixture()
def glove_path(tmp_path):
    path = tmp_path / "glove.json"
    path.write_text(json.dumps(gm.game_to_spec(gm.make_glove_game())))
    return str(path)


@pytest.fixture()
def holdout_path(tmp_path):
    path = tmp_path / "holdout.json"
    path.write_text(json.dumps({"removed_coalitions": ["[1]"]}))
    return str(path)


def test_decompose_text(glove_path, capsys):
    assert main(["decompose", "--game", glove_path]) == 0
    out = capsys.readouterr().out
    assert "allocation: (2/3, 1/6, 1/6)" in out
    assert "5/12" in out


def test_decompose_deterministic(glove_path, capsys):
    main(["decompose", "--game", glove_path])
    first = capsys.readouterr().out
    main(["decompose", "--game", glove_path])
    assert capsys.readouterr().out == first


def test_decompose_with_constraints_and_weights(glove_path, holdout_path, capsys):
    code = main(["decompose", "--game", glove_path, "--constraints", holdout_path,
                 "--weights", "degree-product"])
    assert code == 0
    assert "allocation: (1/2, 1/4, 1/4)" in capsys.readouterr().out


def test_decompose_weight_shortcuts(glove_path, capsys):
    assert main(["decompose", "--game", glove_path, "--weights", "size-plus-one"]) == 0
    assert "16/31" in capsys.readouterr().out
    assert main(["decompose", "--game", glove_path, "--weights", "constant:2"]) == 0
    # constant weights cancel out of the solve
    assert "5/12" in capsys.readouterr().out


def test_weights_file(glove_path, tmp_path, capsys):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(
        {"kind": "explicit", "entries": [{"base": "[]", "player": 0, "w": "1/2"}]}))
    assert main(["decompose", "--game", glove_path, "--weights", f"file:{wpath}"]) == 0
    assert "13/17" in capsys.readouterr().out


def test_explicit_weights_that_list_no_edge_are_size_only(glove_path, tmp_path, capsys):
    # the same weighting as constant(1): the classical methods and checks apply
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"kind": "explicit", "entries": []}))
    weights = ["--weights", f"file:{wpath}"]
    for method in ("direct", "permutation"):
        assert main(["shapley", "--game", glove_path, "--method", method, *weights]) == 0
        assert capsys.readouterr().out.strip() == "(2/3, 1/6, 1/6)"
    assert main(["verify", "--game", glove_path, *weights]) == 0
    out = capsys.readouterr().out
    assert "PASS  allocation matches the classical formula" in out
    assert "PASS  classical formula matches the permutation average" in out
    assert "FAIL" not in out


def test_constraints_file_weights(glove_path, tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(
        {"weights": {"kind": "by_cardinality", "values": ["1", "2", "3"]}}))
    assert main(["decompose", "--game", glove_path, "--constraints", str(cpath)]) == 0
    assert "16/31" in capsys.readouterr().out


def test_shapley_methods(glove_path, holdout_path, capsys):
    assert main(["shapley", "--game", glove_path, "--method", "direct"]) == 0
    assert capsys.readouterr().out.strip() == "(2/3, 1/6, 1/6)"
    assert main(["shapley", "--game", glove_path, "--method", "permutation"]) == 0
    assert capsys.readouterr().out.strip() == "(2/3, 1/6, 1/6)"
    assert main(["shapley", "--game", glove_path, "--method", "hodge"]) == 0
    assert capsys.readouterr().out.strip() == "(2/3, 1/6, 1/6)"
    assert main(["shapley", "--game", glove_path, "--constraints", holdout_path,
                 "--method", "precedence"]) == 0
    assert capsys.readouterr().out.strip() == "(1/2, 1/4, 1/4)"
    assert main(["shapley", "--game", glove_path, "--constraints", holdout_path,
                 "--method", "hodge"]) == 0
    assert capsys.readouterr().out.strip() == "(1/2, 3/10, 1/5)"


def test_shapley_json_format(glove_path, capsys):
    assert main(["shapley", "--game", glove_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["allocation"] == ["2/3", "1/6", "1/6"]


def test_shapley_csv_format(glove_path, holdout_path, capsys):
    assert main(["shapley", "--game", glove_path, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "player,value\n1,2/3\n2,1/6\n3,1/6\n"
    assert main(["shapley", "--game", glove_path, "--constraints", holdout_path,
                 "--method", "precedence", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "player,value\n1,1/2\n2,1/4\n3,1/4\n"


def test_compare_command(glove_path, holdout_path, capsys):
    assert main(["compare", "--game", glove_path, "--constraints", holdout_path]) == 0
    out = capsys.readouterr().out
    assert "precedence" in out and "3/10" in out


def test_verify_command(glove_path, capsys):
    assert main(["verify", "--game", glove_path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 3 and "FAIL" not in out


def test_verify_float_backend(glove_path, capsys):
    assert main(["verify", "--game", glove_path, "--backend", "cg"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_fixtures_command(capsys):
    assert main(["fixtures"]) == 0
    assert "6/6 tables reproduced" in capsys.readouterr().out


def test_fixtures_reports_mismatches(monkeypatch, capsys):
    # one wrong cell in the first table fails it, and its float replay too
    ref, *others = cli.ALL_REFERENCES
    *rows, (members, grand) = ref.rows
    wrong = dataclasses.replace(ref, rows=(*rows, (members, (grand[0], grand[1] + 1, *grand[2:]))))
    monkeypatch.setattr(cli, "ALL_REFERENCES", [wrong, *others])
    assert main(["fixtures"]) == 1
    out, err = capsys.readouterr()
    assert out == f"{len(others)}/{len(others) + 1} tables reproduced\n"
    assert err.splitlines() == [
        f"MISMATCH {ref.key} at [0,1,2]: expected {tuple(map(str, wrong.rows[-1][1]))}, "
        f"got {tuple(map(str, grand))}",
        f"MISMATCH {ref.key} under {sv.CG_FLOAT}"]


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", "--game", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["decompose", "--game", str(missing)]) == 2


def test_weights_file_invalid_json(glove_path, tmp_path, capsys):
    bad = tmp_path / "bad_weights.json"
    bad.write_text("{not json")
    assert main(["decompose", "--game", glove_path, "--weights", f"file:{bad}"]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: invalid JSON" in err


_GLOVE_SPEC = {"players": ["L", "R1", "R2"], "values": {"[0,1]": "1"}}


@pytest.mark.parametrize("game, constraints, weights", [
    ({"players": ["a"], "values": {"[0]": "1/0"}}, None, None),
    ({"players": ["a"], "mode": "float", "values": {"[0]": [1]}}, None, None),
    ({"players": ["a"], "values": 5}, None, None),
    (_GLOVE_SPEC, {"removed_coalitions": [1]}, None),
    (_GLOVE_SPEC, {"removed_coalitions": "[1]"}, None),
    (_GLOVE_SPEC, {"removed_edges": [{"base": "[]", "player": "x"}]}, None),
    (_GLOVE_SPEC, ["[1]"], None),
    (_GLOVE_SPEC, None, {"kind": "explicit", "entries": [{"player": 0, "w": "2"}]}),
    (_GLOVE_SPEC, None, {"kind": "by_cardinality", "values": 3}),
    (_GLOVE_SPEC, None, [1, 2, 3]),
], ids=["zero-denominator", "float-value-list", "values-not-object",
        "coalition-not-string", "coalitions-not-list", "edge-player-not-integer",
        "constraints-not-object", "weight-entry-without-base", "weight-table-not-list",
        "weights-not-object"])
def test_exit_code_invalid_values(tmp_path, capsys, game, constraints, weights):
    argv = ["decompose"]
    for flag, spec in (("--game", game), ("--constraints", constraints),
                       ("--weights", weights)):
        if spec is not None:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(spec))
            argv += [flag, str(path) if flag != "--weights" else f"file:{path}"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode, literal", [
    ("rational", "true"), ("float", "false"), ("float", "NaN"), ("float", "-Infinity"),
    ("float", "1e400"), ("float", "1" + "0" * 400),
], ids=["rational-true", "float-false", "nan", "infinity", "overflowing-float",
        "overflowing-integer"])
def test_game_value_must_be_a_finite_number(tmp_path, capsys, mode, literal):
    path = tmp_path / "game.json"
    path.write_text('{"players": ["a"], "mode": "%s", "values": {"[0]": %s}}' % (mode, literal))
    assert main(["decompose", "--game", str(path)]) == 2
    assert "error: values.[0]: " in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["constantfoo", "constant-size", "constant:", "constant:x"])
def test_weights_tag_constant_exactly(glove_path, capsys, tag):
    argv = ["shapley", "--game", glove_path, "--method", "hodge", "--weights"]
    assert main(argv + [tag]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(argv + ["constant"]) == 0


def test_exit_code_infeasible(glove_path, tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"removed_coalitions": ["[0]", "[1]", "[2]"]}))
    assert main(["decompose", "--game", glove_path, "--constraints", str(cpath)]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_exit_code_non_convergence(glove_path, capsys):
    # size-plus-one weights take several steps (a constant cube takes one)
    code = main(["decompose", "--game", glove_path, "--backend", "cg",
                 "--weights", "size-plus-one", "--max-iters", "1"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_exit_code_float_efficiency_miss(tmp_path, capsys):
    # weights spanning 1 to 2**64 leave float components that miss the game
    # by more than the table's tolerance: a precision shortfall (exit 4),
    # not a bad spec file (exit 2)
    n = 5
    values = [0.0] + [float((7 * S) % 19 - 9) for S in range(1, 1 << n)]
    gpath = tmp_path / "g5.json"
    gpath.write_text(json.dumps(gm.game_to_spec(gm.game_from_values(n, values, gm.FLOAT))))
    wpath = tmp_path / "w5.json"
    wpath.write_text(json.dumps({"kind": "explicit", "entries": [
        {"base": "[]", "player": 0, "w": str(2 ** 64 + 1)},
        {"base": "[1]", "player": 2, "w": f"{2 ** 53 + 1}/3"},
        {"base": "[2,3]", "player": 4, "w": "7/5"}]}))
    args = ["decompose", "--game", str(gpath), "--weights", f"file:{wpath}", "--format", "csv"]
    assert main(args + ["--backend", "cg"]) == 4
    err = capsys.readouterr().err
    assert re.search(r"miss v at \[\d(,\d)*\] by [\d.e+-]+ \(tolerance", err), err
    assert "--backend dense-rational" in err
    assert main(args + ["--backend", "dense-rational"]) == 0


@pytest.mark.parametrize("weights", ["constant", "size-plus-one"])
def test_exit_code_float_components_past_float64(tmp_path, capsys, weights):
    # the exact components of +-1.7e308 leave float64's range: a float solve
    # stops with exit 4, not with the bad-spec exit 2 of an overflowed table
    n = 6
    values = np.where(np.arange(1 << n) % 2 == 1, 1.7e308, -1.7e308)
    values[0] = 0.0
    gpath = tmp_path / "top.json"
    gpath.write_text(json.dumps(gm.game_to_spec(gm.game_from_values(n, values, gm.FLOAT))))
    args = ["decompose", "--game", str(gpath), "--weights", weights, "--format", "csv"]
    assert main(args + ["--backend", "cg"]) == 4
    err = capsys.readouterr().err
    assert "error: the component of player 0 exceeds float64's range" in err
    assert "--backend dense-rational" in err
    assert main(args + ["--backend", "dense-rational"]) == 0


def test_exit_code_float_cg_miss_names_the_exact_backend(tmp_path, capsys):
    # sizes weighted 10**80 and 10**-80 in turn: float CG stops short of its
    # tolerance (exit 4), and the message names the backend that decomposes
    # the game exactly
    n = 6
    values = np.random.default_rng(57).standard_normal(1 << n)
    values[0] = 0.0
    gpath = tmp_path / "game.json"
    gpath.write_text(json.dumps(gm.game_to_spec(gm.game_from_values(n, values, gm.FLOAT))))
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps({"kind": "by_cardinality",
                                 "values": [str(10 ** 80), f"1/{10 ** 80}"] * (n // 2)}))
    args = ["decompose", "--game", str(gpath), "--weights", f"file:{wpath}", "--format", "csv"]
    assert main(args + ["--backend", "cg"]) == 4
    err = capsys.readouterr().err
    assert "error: CG for player 0 did not reach tolerance" in err
    assert "--backend dense-rational" in err
    assert main(args + ["--backend", "dense-rational"]) == 0


@pytest.mark.parametrize("case", ["top", "subnormal"])
def test_verify_float_games_at_both_ends_of_the_range(tmp_path, capsys, case):
    # games that decompose handles: +-3e307 on size-plus-one weights, and a
    # subnormal game on the size table 1000, 1/1000, ... (the Jacobi route)
    n = 6
    if case == "top":
        values = np.where(np.arange(1 << n) % 2 == 1, 3e307, -3e307)
        weights = "size-plus-one"
    else:
        values = np.random.default_rng(3).standard_normal(1 << n) * 1e-310
        spec = tmp_path / "weights.json"
        spec.write_text(json.dumps({"kind": "by_cardinality",
                                    "values": ["1000", "1/1000"] * (n // 2)}))
        weights = f"file:{spec}"
    values[0] = 0.0
    gpath = tmp_path / "game.json"
    gpath.write_text(json.dumps(gm.game_to_spec(gm.game_from_values(n, values, gm.FLOAT))))
    for backend in ("cg", "dense-rational"):
        assert main(["verify", "--game", str(gpath), "--weights", weights,
                     "--backend", backend]) == 0, backend
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") >= 2, (backend, out)


def test_exit_code_capacity_refusal(tmp_path, holdout_path, capsys):
    # permutation enumeration past 10 players is refused with exit 2
    n = 11
    gpath = tmp_path / "big.json"
    gpath.write_text(json.dumps(gm.game_to_spec(
        gm.game_from_values(n, np.arange(1 << n, dtype=float), gm.FLOAT))))
    assert main(["shapley", "--game", str(gpath), "--constraints", holdout_path,
                 "--method", "precedence"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n <= 10" in err


def test_csv_format(glove_path, capsys):
    assert main(["decompose", "--game", glove_path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "coalition,v,v_1,v_2,v_3"
    assert len(lines) == 9


def test_module_entry_point(glove_path):
    proc = subprocess.run([sys.executable, "-m", "hodgeshapley", "shapley",
                           "--game", glove_path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(2/3, 1/6, 1/6)"


@pytest.mark.parametrize("player", [5, -1])
def test_exit_code_removed_edge_player_out_of_range(glove_path, tmp_path, capsys, player):
    # player 5 used to be ignored (exit 0), player -1 to fail on a negative shift
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"removed_edges": [{"base": "[]", "player": player}]}))
    assert main(["decompose", "--game", glove_path, "--constraints", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert f"error: removed_edges[0]: player {player} outside [0, 3)" in err


@pytest.mark.parametrize("method", ["direct", "permutation"])
def test_shapley_classical_methods_refuse_other_graphs(glove_path, holdout_path, tmp_path,
                                                        capsys, method):
    # the classical formula ignores constraints and weights, so a restricted
    # or asymmetrically weighted graph is refused rather than answered wrongly
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(
        {"kind": "explicit", "entries": [{"base": "[]", "player": 0, "w": "1/2"}]}))
    argv = ["shapley", "--game", glove_path, "--method", method]
    for extra in (["--constraints", holdout_path], ["--weights", f"file:{wpath}"]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "use --method hodge or --method precedence" in captured.err
    assert main(argv + ["--weights", "size-plus-one"]) == 0
    assert capsys.readouterr().out.strip() == "(2/3, 1/6, 1/6)"


@pytest.mark.parametrize("method", ["direct", "permutation"])
def test_shapley_classical_methods_on_degree_product_full_cube(glove_path, capsys, method):
    # every degree of the full cube is n, so degree-product weights are constant
    assert main(["shapley", "--game", glove_path, "--weights", "degree-product",
                 "--method", method]) == 0
    assert capsys.readouterr().out.strip() == "(2/3, 1/6, 1/6)"


def test_verify_degree_product_full_cube_runs_classical_checks(glove_path, capsys):
    assert main(["verify", "--game", glove_path, "--weights", "degree-product"]) == 0
    out = capsys.readouterr().out
    assert "PASS  allocation matches the classical formula" in out
    assert "PASS  classical formula matches the permutation average" in out
    assert "FAIL" not in out


def test_verify_tolerance_scales_with_the_game(tmp_path, capsys, monkeypatch):
    # zero components miss a 1e-12-scale game by its whole value; an
    # absolute floor of 1 in the tolerance would pass them
    tiny = gm.game_from_values(3, 1e-12 * gm.make_glove_game().as_float().values, gm.FLOAT)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(gm.game_to_spec(tiny)))

    def zero_decompose(g, v, cfg=None):
        zero = gm.Game(g.n, v.mode, np.zeros(1 << g.n))
        return sv.Decomposition(g, v, (zero,) * g.n, (), float(np.max(np.abs(v.values))))

    monkeypatch.setattr(cli, "decompose", zero_decompose)
    assert main(["verify", "--game", str(path), "--backend", "cg"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  efficiency" in out and "FAIL  orthogonality" in out


_SOLVER_FLAGS = {"--game", "--constraints", "--weights", "--backend", "--tol", "--max-iters"}
_FLAGS = {
    "decompose": _SOLVER_FLAGS | {"--format"},
    "shapley": _SOLVER_FLAGS | {"--format", "--method"},
    "compare": _SOLVER_FLAGS | {"--format"},
    "verify": _SOLVER_FLAGS,
    "fixtures": set(),
}


def _subcommands() -> dict:
    parser = cli._make_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommand_set():
    assert set(_subcommands()) == set(_FLAGS)


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_subcommand_takes_only_the_flags_it_reads(command):
    options = {s for action in _subcommands()[command]._actions
               for s in action.option_strings}
    assert options - {"-h", "--help"} == _FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["fixtures", "--tol", "1"],
    ["fixtures", "--backend", "cg"],
    ["verify", "--game", "g.json", "--format", "csv"],
], ids=["fixtures-tol", "fixtures-backend", "verify-format"])
def test_dead_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
