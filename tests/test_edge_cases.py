import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley import graph as gr
from hodgeshapley import operators as ops
from hodgeshapley import solve as sv
from hodgeshapley.cli import main
from hodgeshapley.errors import DomainError


def test_single_player_pipeline():
    v = gm.game_from_values(1, [0, Fraction(7, 2)])
    g = gr.full_hypercube(1)
    dec = sv.decompose(g, v)
    assert dec.components[0].values == v.values
    assert sv.residual_orthogonality(g, v, dec) == [0]
    f = dec.components[0].as_float()
    dec_f = sv.decompose(g, f, sv.SolverConfig(backend=sv.CG_FLOAT))
    assert abs(dec_f.components[0].grand_value() - 3.5) < 1e-12


def test_two_player_weighted_exact():
    # small enough to verify by hand against the pinned 3x3 system
    w = gr.EdgeWeighting.explicit({gr.Edge(0, 0): Fraction(2)})
    g = gr.full_hypercube(2, w)
    v = gm.game_from_values(2, [0, 1, 0, 3])
    dec = sv.decompose(g, v)
    assert sum(c.grand_value() for c in dec.components) == 3
    assert all(r == 0 for r in sv.residual_orthogonality(g, v, dec))


def test_dense_float_solve_component():
    g = gr.full_hypercube(3)
    v = gm.make_glove_game().as_float()
    comp = sv.solve_component(g, v, 0, sv.SolverConfig(backend=sv.CG_FLOAT))
    assert abs(comp.grand_value() - 2 / 3) < 1e-12
    assert abs(comp.value(co.from_members([0])) - 5 / 12) < 1e-12


def test_float_edge_inner_product_and_residual():
    g = gr.full_hypercube(3, gr.EdgeWeighting.size_plus_one(3))
    v = gm.make_glove_game().as_float()
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    u = ops.vertex_function_from_game(g, v)
    for i in range(3):
        r = sv.edge_residual(g, v, dec, i)
        assert ops.edge_inner_product(r, r) >= 0
        assert max(abs(x) for x in ops.d_star(r).values) < 1e-10


def test_edge_function_value_at_missing_edge():
    g = gr.restrict(gr.full_hypercube(3), [co.from_members([1])])
    f = ops.EdgeFunction(g, gm.RATIONAL, [Fraction(0)] * g.num_edges)
    with pytest.raises(DomainError):
        f.value_at(gr.Edge(0, 1))  # removed with the {1} vertex


def test_vertex_function_value_at_infeasible():
    g = gr.restrict(gr.full_hypercube(3), [co.from_members([1])])
    u = ops.VertexFunction(g, gm.RATIONAL, [Fraction(0)] * g.num_vertices)
    with pytest.raises(DomainError):
        u.value_at(co.from_members([1]))


def test_cli_cg_backend_success(tmp_path, capsys):
    path = tmp_path / "glove.json"
    path.write_text(json.dumps(gm.game_to_spec(gm.make_glove_game())))
    assert main(["decompose", "--game", str(path), "--backend", "cg"]) == 0
    captured = capsys.readouterr()
    assert "0.666666666667" in captured.out
    assert "note: converting rational game to floats" in captured.err


def test_cli_verify_restricted(tmp_path, capsys):
    gpath = tmp_path / "glove.json"
    gpath.write_text(json.dumps(gm.game_to_spec(gm.make_glove_game())))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"removed_coalitions": ["[1]"]}))
    assert main(["verify", "--game", gpath.as_posix(),
                 "--constraints", cpath.as_posix()]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_removed_edge_constraint(tmp_path, capsys):
    gpath = tmp_path / "glove.json"
    gpath.write_text(json.dumps(gm.game_to_spec(gm.make_glove_game())))
    cpath = tmp_path / "c.json"
    # forbid player 1 from joining {0}; decomposition still splits exactly
    cpath.write_text(json.dumps({"removed_edges": [{"base": "[0]", "player": 1}]}))
    assert main(["decompose", "--game", gpath.as_posix(),
                 "--constraints", cpath.as_posix()]) == 0
    assert "allocation:" in capsys.readouterr().out


def test_restricted_float_matches_rational():
    rng = random.Random(321)
    g = gr.restrict(gr.full_hypercube(4, gr.EdgeWeighting.size_plus_one(4)),
                    [co.from_members([2])])
    vals = [Fraction(rng.randint(-16, 16), 1 << rng.randint(0, 4)) for _ in range(16)]
    vals[0] = Fraction(0)
    v = gm.game_from_values(4, vals)
    exact = sv.decompose(g, v)
    approx = sv.decompose(g, v.as_float(), sv.SolverConfig(backend=sv.CG_FLOAT))
    for a, b in zip(exact.components, approx.components):
        ref = np.array([float(x) for x in a.values])
        assert np.allclose(np.asarray(b.values), ref, atol=1e-9)


def test_degree_product_weighting_preserves_structure():
    g = gr.restrict(gr.full_hypercube(3), [co.from_members([1])])
    h = gr.degree_product_weighting(g)
    assert h.num_vertices == g.num_vertices and h.num_edges == g.num_edges
    assert list(h.vertices) == list(g.vertices)
