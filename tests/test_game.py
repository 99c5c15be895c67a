import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgeshapley import coalition as co
from hodgeshapley import game as gm
from hodgeshapley.errors import SpecFileError


def bits(*players):
    return co.from_members(players)


def test_glove_values():
    v = gm.make_glove_game()
    assert v.value(bits(0, 1)) == 1   # a left and a right glove
    assert v.value(bits(1, 2)) == 0   # two right gloves
    assert v.value(0) == 0
    assert v.value(bits(0)) == 0
    assert v.grand_value() == 1


def test_pure_bargaining():
    v = gm.make_pure_bargaining_game(3, 1)
    assert v.grand_value() == 1
    assert v.value(bits(0, 1)) == 0
    single = gm.make_pure_bargaining_game(1, 5)
    assert single.value(bits(0)) == 5


def test_inessential_game_values():
    v = gm.make_inessential_game([1, 2, 3])
    assert v.value(bits(0, 2)) == 4
    assert v.grand_value() == 6
    zero = gm.make_inessential_game([0, 0])
    assert all(x == 0 for x in zero.values)


def test_is_inessential():
    assert gm.is_inessential(gm.make_inessential_game([1, 2, 3]))
    assert not gm.is_inessential(gm.make_glove_game())
    assert gm.is_inessential(gm.game_from_values(2, [0, 0, 0, 0]))


def test_is_inessential_random_property():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 6)
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        assert gm.is_inessential(gm.make_inessential_game(xs))


def test_is_inessential_float_tolerance():
    v = gm.make_inessential_game([0.5, 0.25, 1.0], mode=gm.FLOAT)
    assert gm.is_inessential(v)
    vals = list(v.values)
    vals[-1] += 1e-3
    assert not gm.is_inessential(gm.game_from_values(3, vals, gm.FLOAT))



def test_is_inessential_tolerance_scales_with_the_game():
    # an absolute floor of 1 would call any game of tiny values inessential
    tiny = gm.game_from_values(3, 1e-12 * gm.make_glove_game().as_float().values, gm.FLOAT)
    assert not gm.is_inessential(tiny)
    assert gm.is_inessential(gm.make_inessential_game([1e-12, 2e-12, 0.0], mode=gm.FLOAT))
    assert gm.is_inessential(gm.game_from_values(2, [0.0] * 4, gm.FLOAT))

def test_pullback_identity_and_symmetry():
    v = gm.make_glove_game()
    assert gm.pullback([0, 1, 2], v).values == v.values
    # swapping the two right-glove holders leaves the game unchanged
    assert gm.pullback([0, 2, 1], v).values == v.values


def test_pullback_swap_first_two():
    v = gm.make_glove_game()
    w = gm.pullback([1, 0, 2], v)
    assert w.values != v.values
    assert w.value(bits(0, 1)) == 1                      # image is itself worth 1
    assert w.value(bits(1, 2)) == v.value(bits(0, 2))    # = 1


def test_pullback_composition():
    rng = random.Random(2)
    vals = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
    vals[0] = Fraction(0)
    v = gm.game_from_values(3, vals)
    import itertools
    for sigma in itertools.permutations(range(3)):
        for tau in itertools.permutations(range(3)):
            composed = [sigma[tau[j]] for j in range(3)]
            lhs = gm.pullback(composed, v)
            rhs = gm.pullback(tau, gm.pullback(sigma, v))
            assert lhs.values == rhs.values


def test_linear_combine():
    v = gm.make_glove_game()
    w = gm.make_pure_bargaining_game(3, 1)
    assert gm.linear_combine(1, v, 0, w).values == v.values
    zero = gm.linear_combine(1, v, -1, v)
    assert all(x == 0 for x in zero.values)
    five = gm.linear_combine(2, v, 3, v)
    assert five.value(bits(0, 1)) == 5


def test_linear_combine_float():
    v = gm.make_glove_game().as_float()
    w = gm.make_pure_bargaining_game(3, 1).as_float()
    mix = gm.linear_combine(2, v, -0.5, w)
    assert mix.mode == gm.FLOAT
    assert np.array_equal(mix.values, 2 * v.values - 0.5 * w.values)


def test_linear_combine_mode_mismatch():
    v = gm.make_glove_game()
    with pytest.raises(TypeError):
        gm.linear_combine(1, v, 1, v.as_float())


def test_construction_rejects_nonzero_empty_value():
    with pytest.raises(ValueError):
        gm.game_from_values(1, [1, 0])
    with pytest.raises(ValueError):
        gm.game_from_values(1, [0.5, 0.0], gm.FLOAT)


def test_construction_rejects_non_finite():
    with pytest.raises(ValueError):
        gm.game_from_values(1, [0.0, float("nan")], gm.FLOAT)
    with pytest.raises(ValueError):
        gm.game_from_values(1, [0.0, float("inf")], gm.FLOAT)


def test_mode_conversions():
    v = gm.game_from_values(2, [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)])
    f = v.as_float()
    assert f.mode == gm.FLOAT
    assert f.value(1) == 0.5
    back = f.as_rational()
    assert back.values == v.values  # dyadic fractions convert exactly


def test_game_spec_round_trip():
    spec = {"players": ["a", "b", "c"], "mode": "rational",
            "values": {"[0,1]": "1", "[2]": "1/2", "[0,1,2]": "3"}}
    v = gm.game_from_spec(spec)
    assert v.n == 3
    assert v.value(bits(0, 1)) == 1
    assert v.value(bits(2)) == Fraction(1, 2)
    assert v.value(bits(0)) == 0  # unlisted defaults to zero
    again = gm.game_from_spec(gm.game_to_spec(v))
    assert again.values == v.values


def test_game_spec_float_mode():
    spec = {"players": ["a", "b"], "mode": "float", "values": {"[0,1]": 2.5}}
    v = gm.game_from_spec(spec)
    assert v.mode == gm.FLOAT
    assert v.value(bits(0, 1)) == 2.5


def test_game_spec_errors():
    with pytest.raises(SpecFileError):
        gm.game_from_spec({"mode": "rational"})
    with pytest.raises(SpecFileError):
        gm.game_from_spec({"players": ["a"], "values": {"[]": "1"}})
    with pytest.raises(SpecFileError):
        gm.game_from_spec({"players": ["a"], "values": {"[0]": 0.25}})  # float in rational
    with pytest.raises(SpecFileError):
        gm.game_from_spec({"players": ["a"], "mode": "decimal"})


@pytest.mark.parametrize("players", ["abc", {"x": 1, "y": 2}, 3, None],
                         ids=["string", "object", "number", "null"])
def test_game_spec_players_must_be_a_list(players):
    # a string used to give one player per character, an object one per key
    with pytest.raises(SpecFileError, match="'players' name list") as err:
        gm.game_from_spec({"players": players, "values": {}})
    assert err.value.location == "players"


@pytest.mark.parametrize("dense", [False, True])  # keys parsed one by one, or via the table
def test_game_spec_rejects_a_coalition_listed_twice(dense):
    n = 4
    values = {co.coalition_key(S): "1" for S in range(1, 1 << n)} if dense else {"[0,1]": "1"}
    values["[1,0]"] = "2"
    with pytest.raises(SpecFileError) as err:
        gm.game_from_spec({"players": [str(p) for p in range(n)], "values": values})
    assert err.value.location == "values.[1,0]"
    assert "[0,1] is listed twice, as '[0,1]' and '[1,0]'" in str(err.value)


def test_game_spec_canonical_and_other_spellings_agree():
    n = 4
    rng = random.Random(3)
    canonical = {co.coalition_key(S): str(rng.randint(-9, 9)) for S in range(1, 1 << n)}
    spaced = {f"[ {', '.join(map(str, reversed(co.members(S))))} ]": canonical[co.coalition_key(S)]
              for S in range(1, 1 << n)}
    players = [str(p) for p in range(n)]
    a = gm.game_from_spec({"players": players, "values": canonical})
    b = gm.game_from_spec({"players": players, "values": spaced})
    assert a.values == b.values
    with pytest.raises(SpecFileError) as err:
        gm.game_from_spec({"players": players, "values": {**canonical, "[0,7]": "1"}})
    assert err.value.location == "values.[0,7]"


def test_load_game(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(gm.game_to_spec(gm.make_glove_game())))
    v = gm.load_game(path)
    assert v.value(bits(0, 2)) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecFileError):
        gm.load_game(bad)


def test_format_scalar():
    assert gm.format_scalar(Fraction(2, 4)) == "1/2"
    assert gm.format_scalar(Fraction(-5, 1)) == "-5"
    assert gm.format_scalar(0.5) == "0.5"
    assert gm.format_scalar(2.0 / 3.0) == "0.666666666667"


def test_float_values_read_only():
    v = gm.make_glove_game().as_float()
    with pytest.raises(ValueError):
        np.asarray(v.values)[3] = 7.0
