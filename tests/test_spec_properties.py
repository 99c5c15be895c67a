"""Property test: the array path of game_from_spec against a per-entry reader.

game_from_spec reads a dense float listing of canonical keys in array
passes and hands every other listing to the per-entry parser.  Either way
it must give the game, or the SpecFileError text and location, that
``oracles.game_from_spec_per_entry`` gives by parsing each entry.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hodgeshapley import coalition as co  # noqa: E402
from hodgeshapley import game as gm  # noqa: E402
from hodgeshapley.errors import SpecFileError  # noqa: E402
from oracles import game_from_spec_per_entry  # noqa: E402

_LITERALS = st.one_of(
    st.sampled_from([True, False, float("nan"), float("inf"), -float("inf"), 10 ** 400,
                     -10 ** 400, 2 ** 1024 - 1, 2 ** 64 + 1, -0.0, 0, "1/3", "-7", "1/0",
                     "abc", "nan", None, [1]]),
    st.floats(),
    st.integers(-10 ** 20, 10 ** 20),
)


@st.composite
def _specs(draw):
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from([gm.RATIONAL, gm.FLOAT]))
    # a sparse listing, or a dense one that the array path may take
    coalitions, dense = st.integers(0, (1 << n) - 1), -(-(1 << n) // 4)
    listed = draw(st.sets(coalitions, max_size=dense - 1) | st.sets(coalitions, min_size=dense))
    entries = [(co.coalition_key(S), S) for S in sorted(listed)]
    # now and then a second spelling, an unknown player or a malformed key
    if draw(st.integers(0, 3)) == 0:
        entries += [(key, None) for key in draw(st.lists(st.sampled_from(
            ["[1,0]", "[ 0 ]", f"[{n}]", f"[0,{n + 3}]", "[0,0]", "0", "[x]", "[]"]),
            min_size=1, max_size=2))]
    if entries and draw(st.booleans()):
        entries = draw(st.permutations(entries))
    # plain literals of the mode, then at most one odd literal in one entry
    if mode == gm.FLOAT:
        plain, zero = st.one_of(st.floats(-1e300, 1e300), st.integers(-10 ** 20, 10 ** 20)), 0.0
    else:
        plain, zero = st.fractions().map(str), "0"
    values = {key: draw(plain) if S != 0 else zero for key, S in entries}
    if values and draw(st.integers(0, 2)):
        values[draw(st.sampled_from(sorted(values)))] = draw(_LITERALS)
    return {"players": [f"p{i}" for i in range(n)], "mode": mode, "values": values}


def _outcome(read, spec):
    try:
        v = read(spec)
    except SpecFileError as exc:
        return "error", str(exc), exc.location
    values = np.asarray(v.values).tobytes() if v.mode == gm.FLOAT else v.values
    return "game", v.n, v.mode, v.names, values


@settings(max_examples=500, deadline=None)
@given(_specs())
def test_array_path_agrees_with_the_per_entry_reader(spec):
    assert _outcome(gm.game_from_spec, spec) == _outcome(game_from_spec_per_entry, spec)


@pytest.mark.parametrize("mode", [gm.RATIONAL, gm.FLOAT])
def test_dense_listings_of_either_kind_agree(mode):
    # a full canonical listing at n = 6 (the array path in float mode), and
    # the same listing with one key respelled (the per-entry path)
    n = 6
    rng = np.random.default_rng(6)
    cells = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-300, 300, 1 << n)
    as_literal = float if mode == gm.FLOAT else (lambda x: str(round(x * 1000)) + "/7")
    values = {co.coalition_key(S): as_literal(cells[S]) for S in range(1, 1 << n)}
    spec = {"players": [str(p) for p in range(n)], "mode": mode, "values": values}
    assert _outcome(gm.game_from_spec, spec) == _outcome(game_from_spec_per_entry, spec)
    values["[5,0]"] = values.pop("[0,5]")
    assert _outcome(gm.game_from_spec, spec) == _outcome(game_from_spec_per_entry, spec)
