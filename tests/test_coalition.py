import itertools
import random

import pytest

from hodgeshapley import coalition as co
from hodgeshapley.errors import CapacityError, SpecFileError


def test_enumerate_empty_player_set():
    assert list(co.enumerate_coalitions(0)) == [0]


def test_enumerate_binary_counting_order():
    assert list(co.enumerate_coalitions(2)) == [0b00, 0b01, 0b10, 0b11]


def test_enumerate_length_and_distinct():
    for n in range(5):
        seq = list(co.enumerate_coalitions(n))
        assert len(seq) == 2 ** n
        assert len(set(seq)) == 2 ** n
        assert seq == sorted(seq)  # index of a coalition equals its bitset value


def test_enumerate_above_cap():
    with pytest.raises(CapacityError):
        co.enumerate_coalitions(co.PLAYER_CAP + 1)


def test_distance_identity_and_symmetric_difference():
    assert co.distance(0, 0) == 0
    S = co.from_members([1, 2])
    T = co.from_members([2, 3])
    assert co.distance(S, T) == 2  # symmetric difference {1,3}


def test_distance_from_full_face():
    # distance from N \ {i} to any T inside N \ {i} is n - |T| - 1
    n = 5
    i = 2
    S = co.grand_coalition(n) & ~(1 << i)
    for T in co.enumerate_coalitions(n):
        if T & (1 << i) or T == S:
            continue
        if T | S == S:
            assert co.distance(S, T) == n - co.size(T) - 1


def test_distance_metric_axioms_exhaustive():
    for n in range(1, 5):
        all_S = list(co.enumerate_coalitions(n))
        for S, T in itertools.product(all_S, all_S):
            assert co.distance(S, T) == co.distance(T, S)
            assert (co.distance(S, T) == 0) == (S == T)
        for S, T, U in itertools.product(all_S[:8], all_S[:8], all_S[:8]):
            assert co.distance(S, U) <= co.distance(S, T) + co.distance(T, U)


def test_apply_permutation_identity():
    for S in co.enumerate_coalitions(3):
        assert co.apply_permutation([0, 1, 2], S) == S


def test_apply_permutation_swap():
    # swapping the last two players maps {0,1} to {0,2}
    sigma = [0, 2, 1]
    assert co.apply_permutation(sigma, co.from_members([0, 1])) == co.from_members([0, 2])


def test_apply_permutation_involution_and_cardinality():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 6)
        sigma = list(range(n))
        rng.shuffle(sigma)
        S = rng.randrange(1 << n)
        image = co.apply_permutation(sigma, S)
        assert co.size(image) == co.size(S)
    sigma = [0, 1, 3, 2]
    for S in co.enumerate_coalitions(4):
        assert co.apply_permutation(sigma, co.apply_permutation(sigma, S)) == S


def test_apply_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        co.apply_permutation([0, 0, 1], 0b101)


def test_members_round_trip():
    for S in co.enumerate_coalitions(5):
        assert co.from_members(co.members(S)) == S


def test_joined_members_spell_the_canonical_keys():
    for n in range(0, 8):
        keys = co.joined_members(range(1 << n), [str(p) for p in range(n)])
        assert [f"[{k}]" for k in keys] == [co.coalition_key(S) for S in range(1 << n)]


def test_canonical_keys_table():
    # game_from_spec resolves canonical keys through this table, and
    # render_table labels its CSV and JSON rows from it
    for n in range(0, 8):
        keys = co.canonical_keys(n)
        assert list(keys) == [co.coalition_key(S) for S in range(1 << n)]
        assert co.canonical_index(n) == {key: S for S, key in enumerate(keys)}
        assert co.canonical_keys(n) is keys  # built once per player count
    with pytest.raises(CapacityError):
        co.canonical_keys(co.PLAYER_CAP + 1)


def test_parse_and_key():
    assert co.parse_coalition("[0,2]") == 0b101
    assert co.parse_coalition("[]") == 0
    assert co.coalition_key(0b101) == "[0,2]"
    assert co.parse_coalition(co.coalition_key(0b1101)) == 0b1101
    with pytest.raises(SpecFileError):
        co.parse_coalition("0,2")
    with pytest.raises(SpecFileError):
        co.parse_coalition("[0,0]")
    with pytest.raises(ValueError):
        co.parse_coalition("[3]", n=2)


def test_labels():
    assert co.coalition_label(0) == "{}"
    assert co.coalition_label(0b011) == "{1,2}"  # 1-indexed display
    assert co.coalition_label(0b011, names=("a", "b", "c")) == "{a,b}"


def test_joined_members_matches_members():
    for n in range(0, 8):
        names = [f"p{i}" for i in range(n)]
        got = co.joined_members(range(1 << n), names)
        assert got == [",".join(names[p] for p in co.members(S)) for S in range(1 << n)]
    assert co.joined_members([0b101, 0], ["a", "b", "c"]) == ["a,c", ""]


def test_members_rejects_negative_coalitions():
    # a negative bitset has infinitely many set bits; members used to loop forever
    for S in (-1, -6):
        with pytest.raises(ValueError, match="negative"):
            co.members(S)
        with pytest.raises(ValueError):
            co.coalition_key(S)
