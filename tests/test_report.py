import csv
import io
import re
from fractions import Fraction

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley import graph as gr
from hodgeshapley import report as rp
from hodgeshapley import solve as sv
from oracles import render_table_reference


def bits(*players):
    return co.from_members(players)


def glove_decomposition():
    g = gr.full_hypercube(3)
    v = gm.make_glove_game()
    return g, v, sv.decompose(g, v)


def test_text_table_layout():
    _, v, dec = glove_decomposition()
    text = rp.render_table(dec, v, "text")
    lines = text.strip().splitlines()
    assert lines[0].split() == ["S", "v", "v_1", "v_2", "v_3"]
    assert lines[2].split()[0] == "{}"              # empty coalition first
    assert lines[-2].split()[0] == "{1,2,3}"        # grand coalition last
    assert lines[-1] == "allocation: (2/3, 1/6, 1/6)"
    assert "5/12" in text and "-5/24" in text


def test_text_table_restricted_has_seven_rows():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)])
    v = gm.make_glove_game()
    dec = sv.decompose(g, v)
    text = rp.render_table(dec, v, "text")
    body = [ln for ln in text.strip().splitlines()[2:-1] if not set(ln) <= {"-", " "}]
    assert len(body) == 7
    assert "3/10" in text and "allocation: (1/2, 3/10, 1/5)" in text


def test_zero_game_table():
    g = gr.full_hypercube(2)
    v = gm.game_from_values(2, [0, 0, 0, 0])
    dec = sv.decompose(g, v)
    table = rp.build_table(dec, v)
    assert all(x == 0 for x in table.game_column)
    assert all(x == 0 for col in table.component_columns for x in col)


def test_rows_sorted_by_size_then_bitset():
    _, v, dec = glove_decomposition()
    table = rp.build_table(dec, v)
    keys = [(co.size(S), S) for S in table.coalitions]
    assert keys == sorted(keys)
    assert table.coalitions[0] == 0
    assert table.coalitions[-1] == bits(0, 1, 2)


def test_csv_output():
    _, v, dec = glove_decomposition()
    out = rp.render_table(dec, v, "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "coalition,v,v_1,v_2,v_3"
    assert len(lines) == 9
    assert lines[1] == "[],0,0,0,0"
    assert lines[-1] == '"[0,1,2]",1,2/3,1/6,1/6'


def test_json_round_trip():
    _, v, dec = glove_decomposition()
    doc = rp.parse_rendered_json(rp.render_table(dec, v, "json"))
    assert doc["allocation"] == [Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)]
    by_coalition = {row["coalition"]: row for row in doc["rows"]}
    row = by_coalition[(0, 1)]
    assert row["v"] == 1
    assert row["components"] == [Fraction(5, 8), Fraction(3, 8), Fraction(0)]
    # every parsed scalar matches the decomposition exactly
    for row in doc["rows"]:
        S = co.from_members(row["coalition"])
        assert row["v"] == v.value(S)
        assert row["components"] == [c.value(S) for c in dec.components]


def test_json_round_trip_float_mode():
    g = gr.full_hypercube(3)
    v = gm.make_glove_game().as_float()
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    doc = rp.parse_rendered_json(rp.render_table(dec, v, "json"))
    for row in doc["rows"]:
        S = co.from_members(row["coalition"])
        assert row["components"] == [c.value(S) for c in dec.components]


def test_render_reverifies_column_sums():
    g, v, dec = glove_decomposition()
    broken = sv.Decomposition(
        g, v, (dec.components[0],) * 3, dec.diagnostics, dec.efficiency_gap)
    with pytest.raises(ValueError):
        rp.render_table(broken, v, "text")


def test_render_reverifies_float_column_sums_per_row():
    g = gr.full_hypercube(3)
    v = gm.make_glove_game().as_float()
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    rp.build_table(dec, v)
    values = dec.components[1].values.copy()
    values[bits(0, 2)] += 1e-3
    corrupted = gm.Game(3, gm.FLOAT, values)
    broken = sv.Decomposition(
        g, v, (dec.components[0], corrupted, dec.components[2]), dec.diagnostics,
        dec.efficiency_gap)
    with pytest.raises(ValueError, match=re.escape(co.coalition_key(bits(0, 2)))):
        rp.build_table(broken, v)



def test_float_column_check_scales_with_the_game():
    # zero components miss a 1e-12-scale game by its whole value
    g = gr.full_hypercube(3)
    v = gm.game_from_values(3, 1e-12 * gm.make_glove_game().as_float().values, gm.FLOAT)
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    rp.build_table(dec, v)
    zero = gm.Game(3, gm.FLOAT, np.zeros(8))
    broken = sv.Decomposition(g, v, (zero,) * 3, dec.diagnostics, dec.efficiency_gap)
    with pytest.raises(ValueError, match="tolerance 1e-18"):
        rp.build_table(broken, v)

def test_render_rejects_wrong_game():
    g, v, dec = glove_decomposition()
    with pytest.raises(ValueError):
        rp.render_table(dec, gm.make_pure_bargaining_game(2, 1), "text")


def test_compare_restricted():
    g = gr.restrict(gr.full_hypercube(3), [bits(1)])
    out = rp.compare_allocations(g, gm.make_glove_game())
    assert "precedence" in out
    assert "3/10" in out and "1/4" in out
    assert "1/20" in out  # |3/10 - 1/4|


def test_compare_degree_product_agrees_with_precedence():
    g = gr.degree_product_weighting(gr.restrict(gr.full_hypercube(3), [bits(1)]))
    out = rp.compare_allocations(g, gm.make_glove_game())
    lines = out.strip().splitlines()
    for line in lines[2:]:
        player, component, precedence, diff = line.split()
        assert component == precedence
        assert diff == "0"


def test_compare_full_cube_all_rules_agree():
    g = gr.full_hypercube(3)
    out = rp.compare_allocations(g, gm.make_glove_game())
    assert "classical" in out
    for line in out.strip().splitlines()[2:]:
        assert line.split()[-1] == "0"


def test_compare_json():
    import json
    g = gr.full_hypercube(3)
    doc = json.loads(rp.compare_allocations(g, gm.make_glove_game(), format="json"))
    assert doc["component"] == ["2/3", "1/6", "1/6"]
    assert doc["classical"] == ["2/3", "1/6", "1/6"]


def test_player_names_in_tables():
    g = gr.full_hypercube(3)
    v = gm.game_from_spec(gm.game_to_spec(gm.make_glove_game()) | {
        "players": ["left", "r1", "r2"]})
    dec = sv.decompose(g, v)
    text = rp.render_table(dec, v, "text")
    assert "{left,r1}" in text


_GOLDEN_FULL_TEXT = """\
      S  v    v_1    v_2    v_3
-------  -  -----  -----  -----
     {}  0      0      0      0
    {1}  0   5/12  -5/24  -5/24
    {2}  0  -5/24    1/6   1/24
    {3}  0  -5/24   1/24    1/6
  {1,2}  1    5/8    3/8      0
  {1,3}  1    5/8      0    3/8
  {2,3}  0   -1/4    1/8    1/8
-------  -  -----  -----  -----
{1,2,3}  1    2/3    1/6    1/6
allocation: (2/3, 1/6, 1/6)
"""
_GOLDEN_FULL_CSV = """\
coalition,v,v_1,v_2,v_3
[],0,0,0,0
[0],0,5/12,-5/24,-5/24
[1],0,-5/24,1/6,1/24
[2],0,-5/24,1/24,1/6
"[0,1]",1,5/8,3/8,0
"[0,2]",1,5/8,0,3/8
"[1,2]",0,-1/4,1/8,1/8
"[0,1,2]",1,2/3,1/6,1/6
"""
_GOLDEN_FULL_COMPARE_TEXT = """\
player  component  classical  abs diff
------  ---------  ---------  --------
     1        2/3        2/3         0
     2        1/6        1/6         0
     3        1/6        1/6         0
"""
_GOLDEN_FULL_COMPARE_CSV = """\
player,component,classical,abs diff
1,2/3,2/3,0
2,1/6,1/6,0
3,1/6,1/6,0
"""
_GOLDEN_HOLDOUT_TEXT = """\
      S  v    v_1    v_2   v_3
-------  -  -----  -----  ----
     {}  0      0      0     0
    {1}  0   3/10  -1/10  -1/5
    {3}  0  -3/10   1/10   1/5
  {1,2}  1    2/5    3/5     0
  {1,3}  1    1/2   1/10   2/5
  {2,3}  0   -2/5    1/5   1/5
-------  -  -----  -----  ----
{1,2,3}  1    1/2   3/10   1/5
allocation: (1/2, 3/10, 1/5)
"""
_GOLDEN_HOLDOUT_CSV = """\
coalition,v,v_1,v_2,v_3
[],0,0,0,0
[0],0,3/10,-1/10,-1/5
[2],0,-3/10,1/10,1/5
"[0,1]",1,2/5,3/5,0
"[0,2]",1,1/2,1/10,2/5
"[1,2]",0,-2/5,1/5,1/5
"[0,1,2]",1,1/2,3/10,1/5
"""
_GOLDEN_HOLDOUT_COMPARE_TEXT = """\
player  component  precedence  abs diff
------  ---------  ----------  --------
     1        1/2         1/2         0
     2       3/10         1/4      1/20
     3        1/5         1/4      1/20
"""
_GOLDEN_HOLDOUT_COMPARE_CSV = """\
player,component,precedence,abs diff
1,1/2,1/2,0
2,3/10,1/4,1/20
3,1/5,1/4,1/20
"""


@pytest.mark.parametrize("holdout, table_text, table_csv, compare_text, compare_csv", [
    (False, _GOLDEN_FULL_TEXT, _GOLDEN_FULL_CSV,
     _GOLDEN_FULL_COMPARE_TEXT, _GOLDEN_FULL_COMPARE_CSV),
    (True, _GOLDEN_HOLDOUT_TEXT, _GOLDEN_HOLDOUT_CSV,
     _GOLDEN_HOLDOUT_COMPARE_TEXT, _GOLDEN_HOLDOUT_COMPARE_CSV),
])
def test_text_and_csv_layout_golden(holdout, table_text, table_csv, compare_text, compare_csv):
    g = gr.full_hypercube(3)
    if holdout:
        g = gr.restrict(g, [bits(1)])
    v = gm.make_glove_game()
    dec = sv.decompose(g, v)
    assert rp.render_table(dec, v, "text") == table_text
    assert rp.render_table(dec, v, "csv") == table_csv
    assert rp.compare_allocations(g, v, format="text") == compare_text
    assert rp.compare_allocations(g, v, format="csv") == compare_csv


def _float_golden_decomposition():
    """A cg_float decomposition on a restricted degree-product n = 5 graph.

    The game takes 1e-17, -2.5e20 and 2/3 among quarter-integer values.  At
    the -2.5e20 scale the last bits CG produces depend on the reduction
    order of the numpy build, so the components are rounded to multiples of
    2**30, far below the ~1e19 magnitudes they print at, to keep the pinned
    text independent of that order.
    """
    n = 5
    g = gr.degree_product_weighting(
        gr.restrict(gr.full_hypercube(n), [bits(0, 1), bits(2, 3, 4)]))
    vals = np.array([(S * 37 % 23 - 11) / 4 for S in range(1 << n)])
    vals[0] = 0.0
    vals[bits(0)] = 1e-17
    vals[bits(1, 2)] = -2.5e20
    vals[bits(0, 2)] = 2 / 3
    v = gm.Game(n, gm.FLOAT, vals)
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    grid = 2.0 ** 30
    comps = tuple(gm.Game(n, gm.FLOAT, np.round(c.values / grid) * grid + 0.0)
                  for c in dec.components)
    return v, sv.Decomposition(g, v, comps, dec.diagnostics, dec.efficiency_gap)


_GOLDEN_FLOAT_TEXT = """\
          S               v                 v_1                 v_2                 v_3                 v_4                 v_5
-----------  --------------  ------------------  ------------------  ------------------  ------------------  ------------------
         {}               0                   0                   0                   0                   0                   0
        {1}           1e-17   7.67195767154e+18  -4.62962962943e+18  -8.99470899485e+18   2.97619047637e+18   2.97619047637e+18
        {2}            -1.5  -8.99470899485e+18   -2.5462962963e+19   4.93386243386e+19  -7.44047619039e+18  -7.44047619039e+18
        {3}           -0.25  -3.70370370376e+18   3.98809523814e+19  -2.03703703702e+19  -7.90343915376e+18  -7.90343915376e+18
        {4}            2.25   2.38095238045e+18  -7.90343915376e+18  -5.95238095274e+18   1.01190476188e+19   1.35582010618e+18
        {5}             1.5   2.38095238045e+18  -7.90343915376e+18  -5.95238095274e+18   1.35582010618e+18   1.01190476188e+19
      {1,3}  0.666666666667   1.66666666664e+19                   0  -1.66666666664e+19                   0                   0
      {2,3}        -2.5e+20  -3.59788359783e+19  -6.58068783067e+19  -5.26455026458e+19  -4.77843915341e+19  -4.77843915341e+19
      {1,4}               0   7.01058201096e+18  -9.25925925887e+18   -9.6560846565e+18    8.7632275137e+18   3.14153439178e+18
      {2,4}           -2.25                   0  -1.80224867726e+19                   0   1.80224867726e+19                   0
      {3,4}              -1   1.42195767191e+18  -4.62962963373e+17  -1.52447089945e+19   1.75595238092e+19  -3.27380952433e+18
      {1,5}           -0.75   7.01058201096e+18  -9.25925925887e+18   -9.6560846565e+18   3.14153439178e+18    8.7632275137e+18
      {2,5}            2.75                   0  -1.80224867726e+19                   0                   0   1.80224867726e+19
      {3,5}           -1.75   1.42195767191e+18  -4.62962963373e+17  -1.52447089945e+19  -3.27380952433e+18   1.75595238092e+19
      {4,5}            0.75   3.50529100548e+18  -1.08796296301e+19  -6.91137566128e+18   7.14285714243e+18   7.14285714243e+18
    {1,2,3}           -1.25    6.6005291005e+19   -2.5462962963e+19  -2.56613756612e+19  -7.44047619039e+18  -7.44047619039e+18
    {1,2,4}            1.25   7.67195767154e+18  -1.50462962962e+19  -8.99470899485e+18   1.33928571431e+19   2.97619047637e+18
    {1,3,4}             2.5   1.07142857147e+19  -7.90343915376e+18  -1.42857142859e+19   1.01190476188e+19   1.35582010618e+18
    {2,3,4}            0.25  -3.70370370376e+18  -2.59259259263e+19  -2.03703703702e+19   5.79034391529e+19  -7.90343915376e+18
    {1,2,5}             0.5   7.67195767154e+18  -1.50462962962e+19  -8.99470899485e+18   2.97619047637e+18   1.33928571431e+19
    {1,3,5}            1.75   1.07142857147e+19  -7.90343915376e+18  -1.42857142859e+19   1.35582010618e+18   1.01190476188e+19
    {2,3,5}            -0.5  -3.70370370376e+18  -2.59259259263e+19  -2.03703703702e+19  -7.90343915376e+18   5.79034391529e+19
    {1,4,5}            -1.5   6.87830687841e+18  -1.10449735445e+19  -9.78835978798e+18   6.97751322702e+18   6.97751322702e+18
    {2,4,5}               2   2.38095238045e+18  -1.66666666664e+19  -5.95238095274e+18   1.01190476188e+19   1.01190476188e+19
  {1,2,3,4}              -2   1.66666666664e+19  -1.80224867726e+19  -1.66666666664e+19   1.80224867726e+19                   0
  {1,2,3,5}           -2.75   1.66666666664e+19  -1.80224867726e+19  -1.66666666664e+19                   0   1.80224867726e+19
  {1,2,4,5}           -0.25   7.01058201096e+18  -1.48809523808e+19   -9.6560846565e+18    8.7632275137e+18    8.7632275137e+18
  {1,3,4,5}               1   9.75529100511e+18  -1.08796296301e+19  -1.31613756609e+19   7.14285714243e+18   7.14285714243e+18
  {2,3,4,5}           -1.25   1.42195767191e+18  -2.12962962958e+19  -1.52447089945e+19   1.75595238092e+19   1.75595238092e+19
-----------  --------------  ------------------  ------------------  ------------------  ------------------  ------------------
{1,2,3,4,5}            2.25   1.07142857147e+19  -1.66666666664e+19  -1.42857142859e+19   1.01190476188e+19   1.01190476188e+19
allocation: (1.07142857147e+19, -1.66666666664e+19, -1.42857142859e+19, 1.01190476188e+19, 1.01190476188e+19)
"""
_GOLDEN_FLOAT_CSV = """\
coalition,v,v_1,v_2,v_3,v_4,v_5
[],0,0,0,0,0,0
[0],1e-17,7.67195767154e+18,-4.62962962943e+18,-8.99470899485e+18,2.97619047637e+18,2.97619047637e+18
[1],-1.5,-8.99470899485e+18,-2.5462962963e+19,4.93386243386e+19,-7.44047619039e+18,-7.44047619039e+18
[2],-0.25,-3.70370370376e+18,3.98809523814e+19,-2.03703703702e+19,-7.90343915376e+18,-7.90343915376e+18
[3],2.25,2.38095238045e+18,-7.90343915376e+18,-5.95238095274e+18,1.01190476188e+19,1.35582010618e+18
[4],1.5,2.38095238045e+18,-7.90343915376e+18,-5.95238095274e+18,1.35582010618e+18,1.01190476188e+19
"[0,2]",0.666666666667,1.66666666664e+19,0,-1.66666666664e+19,0,0
"[1,2]",-2.5e+20,-3.59788359783e+19,-6.58068783067e+19,-5.26455026458e+19,-4.77843915341e+19,-4.77843915341e+19
"[0,3]",0,7.01058201096e+18,-9.25925925887e+18,-9.6560846565e+18,8.7632275137e+18,3.14153439178e+18
"[1,3]",-2.25,0,-1.80224867726e+19,0,1.80224867726e+19,0
"[2,3]",-1,1.42195767191e+18,-4.62962963373e+17,-1.52447089945e+19,1.75595238092e+19,-3.27380952433e+18
"[0,4]",-0.75,7.01058201096e+18,-9.25925925887e+18,-9.6560846565e+18,3.14153439178e+18,8.7632275137e+18
"[1,4]",2.75,0,-1.80224867726e+19,0,0,1.80224867726e+19
"[2,4]",-1.75,1.42195767191e+18,-4.62962963373e+17,-1.52447089945e+19,-3.27380952433e+18,1.75595238092e+19
"[3,4]",0.75,3.50529100548e+18,-1.08796296301e+19,-6.91137566128e+18,7.14285714243e+18,7.14285714243e+18
"[0,1,2]",-1.25,6.6005291005e+19,-2.5462962963e+19,-2.56613756612e+19,-7.44047619039e+18,-7.44047619039e+18
"[0,1,3]",1.25,7.67195767154e+18,-1.50462962962e+19,-8.99470899485e+18,1.33928571431e+19,2.97619047637e+18
"[0,2,3]",2.5,1.07142857147e+19,-7.90343915376e+18,-1.42857142859e+19,1.01190476188e+19,1.35582010618e+18
"[1,2,3]",0.25,-3.70370370376e+18,-2.59259259263e+19,-2.03703703702e+19,5.79034391529e+19,-7.90343915376e+18
"[0,1,4]",0.5,7.67195767154e+18,-1.50462962962e+19,-8.99470899485e+18,2.97619047637e+18,1.33928571431e+19
"[0,2,4]",1.75,1.07142857147e+19,-7.90343915376e+18,-1.42857142859e+19,1.35582010618e+18,1.01190476188e+19
"[1,2,4]",-0.5,-3.70370370376e+18,-2.59259259263e+19,-2.03703703702e+19,-7.90343915376e+18,5.79034391529e+19
"[0,3,4]",-1.5,6.87830687841e+18,-1.10449735445e+19,-9.78835978798e+18,6.97751322702e+18,6.97751322702e+18
"[1,3,4]",2,2.38095238045e+18,-1.66666666664e+19,-5.95238095274e+18,1.01190476188e+19,1.01190476188e+19
"[0,1,2,3]",-2,1.66666666664e+19,-1.80224867726e+19,-1.66666666664e+19,1.80224867726e+19,0
"[0,1,2,4]",-2.75,1.66666666664e+19,-1.80224867726e+19,-1.66666666664e+19,0,1.80224867726e+19
"[0,1,3,4]",-0.25,7.01058201096e+18,-1.48809523808e+19,-9.6560846565e+18,8.7632275137e+18,8.7632275137e+18
"[0,2,3,4]",1,9.75529100511e+18,-1.08796296301e+19,-1.31613756609e+19,7.14285714243e+18,7.14285714243e+18
"[1,2,3,4]",-1.25,1.42195767191e+18,-2.12962962958e+19,-1.52447089945e+19,1.75595238092e+19,1.75595238092e+19
"[0,1,2,3,4]",2.25,1.07142857147e+19,-1.66666666664e+19,-1.42857142859e+19,1.01190476188e+19,1.01190476188e+19
"""


def test_float_text_and_csv_golden():
    v, dec = _float_golden_decomposition()
    assert rp.render_table(dec, v, "text") == _GOLDEN_FLOAT_TEXT
    assert rp.render_table(dec, v, "csv") == _GOLDEN_FLOAT_CSV


def test_float_csv_matches_per_cell_reference():
    n = 10
    g = gr.degree_product_weighting(
        gr.restrict(gr.full_hypercube(n), [bits(0, 1, 2), bits(3, 4, 5, 6)]))
    rng = np.random.default_rng(10)
    vals = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-20, 21, size=1 << n)
    vals[0] = 0.0
    specials = [-0.0, 5e-324, 1e-17, 0.1, 2 / 3, 1e16, 123456789012.5, -2.5e20, 1e100]
    vals[1:1 + len(specials)] = specials
    v = gm.Game(n, gm.FLOAT, vals)
    dec = sv.decompose(g, v, sv.SolverConfig(backend=sv.CG_FLOAT))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["coalition", "v"] + [f"v_{i + 1}" for i in range(n)])
    for S in sorted(g.vertices.tolist(), key=lambda S: (co.size(S), S)):
        writer.writerow([co.coalition_key(S), gm.format_scalar(v.values[S])]
                        + [gm.format_scalar(c.values[S]) for c in dec.components])
    assert rp.render_table(dec, v, "csv") == buf.getvalue()


_SPECIAL_FLOATS = [-0.0, 5e-324, 1e-17, 0.1, 2 / 3, 3.0, 1e16, 123456789012.5, -2.5e20, 1e100]


def _synthetic_decomposition(n, mode, restricted, names, rng):
    """A decomposition whose components sum to the game, without a solve:
    random components for players 1..n-1 and the rest in the last one;
    float tables take values from 1e-20 to 1e20 and the special values."""
    g = gr.full_hypercube(n)
    if restricted:
        g = gr.restrict(g, [bits(0, 1)] + ([bits(2, 3, 4)] if n >= 6 else []))
    rows = 1 << n
    if mode == gm.FLOAT:
        table = rng.standard_normal((n + 1, rows)) * 10.0 ** rng.integers(-20, 21, (n + 1, rows))
        for k, x in enumerate(_SPECIAL_FLOATS):
            table[k % (n + 1), 1 + (3 * k) % (rows - 1)] = x
        table[0, rows // 2] = 1e100  # the float check's scale, so a component may hold one
    else:
        table = np.array([[Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 13)))
                           for _ in range(rows)] for _ in range(n + 1)], dtype=object)
    table[:, 0] = 0
    table[n] = table[0] - table[1:n].sum(axis=0)
    v = gm.Game(n, mode, table[0], names)
    comps = tuple(gm.Game(n, mode, row, names) for row in table[1:])
    return g, v, sv.Decomposition(g, v, comps, (), 0)


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("mode", [gm.RATIONAL, gm.FLOAT])
def test_render_matches_the_cell_by_cell_reference(n, mode):
    rng = np.random.default_rng([n, mode == gm.FLOAT])
    for restricted in (False, True):
        for names in (None, tuple(f"p{i}" for i in range(n - 1)) + ("last,one",)):
            g, v, dec = _synthetic_decomposition(n, mode, restricted, names, rng)
            for fmt in ("text", "csv", "json"):
                expected = render_table_reference(
                    n, mode, names, g.vertices.tolist(), v.values,
                    [c.values for c in dec.components], fmt)
                assert rp.render_table(dec, v, fmt) == expected, (restricted, names, fmt)


@pytest.mark.parametrize("mode", [gm.RATIONAL, gm.FLOAT])
def test_render_in_blocks_of_rows(monkeypatch, mode):
    # rows become Python scalars a block at a time: blocks of 7 rows give
    # many full blocks and a partial last one
    monkeypatch.setattr(rp, "_BLOCK", 7)
    n, names = 6, ("a", "b", "c", "d", "e", "f")
    g, v, dec = _synthetic_decomposition(n, mode, True, names, np.random.default_rng(7))
    for fmt in ("text", "csv", "json"):
        expected = render_table_reference(n, mode, names, g.vertices.tolist(), v.values,
                                          [c.values for c in dec.components], fmt)
        assert rp.render_table(dec, v, fmt) == expected, fmt
