"""Property test: the spectral engine against the closed form.

On a full cube with a constant weight both modes solve each player's
component on the coalitions without that player and mirror the half row
into the full one.  Rational components must equal
``closed_form.component_explicit`` bit for bit, float ones must match them
within the float spectral bounds, a planted null player must get an exact
zero row, and every component u of player i must satisfy ``u(S) + u(S |
{i}) = u({i})`` for each S without i, which is the mirror in output terms.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hodgeshapley import closed_form as cf  # noqa: E402
from hodgeshapley import game as gm  # noqa: E402
from hodgeshapley import graph as gr  # noqa: E402
from hodgeshapley import solve as sv  # noqa: E402

# a float component's miss against the exact one, relative to its own
# largest entry, as in the float spectral tests of test_solve.py
_FLOAT_BOUND = 1e-13


@st.composite
def _games(draw):
    """A dyadic game on 1..7 players with planted null players, scaled by
    2**-300, 1 or 2**300, and the set of its null players."""
    n = draw(st.integers(1, 7))
    null = draw(st.integers(0, (1 << n) - 1))
    size = 1 << n
    nums = draw(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=size, max_size=size))
    dens = draw(st.lists(st.integers(0, 12), min_size=size, max_size=size))
    scale = Fraction(2) ** draw(st.sampled_from([-300, 0, 300]))
    base = [Fraction(a, 1 << b) * scale for a, b in zip(nums, dens)]
    base[0] = Fraction(0)
    # v(S) depends on S's members outside null only, so each of them is a null player
    return gm.game_from_values(n, [base[S & ~null] for S in range(size)]), null


def _mirror_misses(u, i):
    """``u(S) + u(S | {i}) - u({i})`` over the coalitions S without i."""
    bit = 1 << i
    return [u[S] + u[S | bit] - u[bit] for S in range(len(u)) if not S & bit]


@settings(max_examples=40, deadline=None)
@given(_games(), st.sampled_from([1, Fraction(5, 2), 2 ** 40]))
def test_spectral_components_match_the_closed_form(game, c):
    v, null = game
    n = v.n
    g = gr.full_hypercube(n, gr.EdgeWeighting.constant(c))
    exact = sv.decompose(g, v)
    floats = sv.decompose(g, v.as_float())
    assert {s.backend for s in exact.diagnostics + floats.diagnostics} == {sv.SPECTRAL}
    for i in range(n):
        u = exact.components[i].values
        assert u == cf.component_explicit(v, i, g).values
        assert sv.solve_component(g, v, i).values == u
        assert not any(_mirror_misses(u, i))
        ref = np.array([float(x) for x in u])
        x = np.asarray(floats.components[i].values)
        bound = _FLOAT_BOUND * np.max(np.abs(ref))
        if null >> i & 1:
            assert not any(u)
            assert not np.any(x) and not np.any(np.signbit(x))
            assert floats.diagnostics[i].residual == 0.0
        assert np.max(np.abs(x - ref)) <= bound
        assert np.max(np.abs(_mirror_misses(x, i))) <= bound
        alone = np.asarray(sv.solve_component(g, v.as_float(), i).values)
        assert np.max(np.abs(alone - x)) <= bound
