"""Blade bitmask kernel: signs and masks."""

import itertools

import hypothesis
import hypothesis.strategies as strat
import pytest

from grstacks.blades import (
    blade_mul_mask,
    blade_sign,
    indices_of,
    mask_of,
)

masks = strat.integers(0, (1 << 10) - 1)


def test_generator_relations():
    # e_i e_i = -1 and e_i e_j = -e_j e_i for i != j
    for i in range(1, 6):
        assert blade_mul_mask(1 << (i - 1), 1 << (i - 1)) == (-1, 0)
    s, t = 1 << 0, 1 << 3
    assert blade_mul_mask(s, t) == (1, s | t)
    assert blade_mul_mask(t, s) == (-1, s | t)


def test_identity_blade():
    assert blade_mul_mask(0, 0b1011) == (1, 0b1011)
    assert blade_mul_mask(0b1011, 0) == (1, 0b1011)


def test_known_triple_product():
    # (e1 e2)(e2 e3) = e1 e2 e2 e3 = -e1 e3
    assert blade_mul_mask(0b011, 0b110) == (-1, 0b101)


@hypothesis.given(masks, masks)
def test_product_mask_is_symmetric_difference(s, t):
    sign, u = blade_mul_mask(s, t)
    assert u == s ^ t
    assert sign in (1, -1)
    assert sign == blade_sign(s, t)


@hypothesis.given(masks, masks)
def test_swap_sign(s, t):
    # reordering two blades costs (-1)^(|s||t| - |common|)
    sign_st = blade_sign(s, t)
    sign_ts = blade_sign(t, s)
    flips = s.bit_count() * t.bit_count() - (s & t).bit_count()
    assert sign_st * sign_ts == (-1) ** (flips % 2)


def test_associative_exhaustive_rank4():
    # (a b) c = a (b c) including signs, all 16^3 triples
    for a, b, c in itertools.product(range(16), repeat=3):
        s1, ab = blade_mul_mask(a, b)
        s2, abc_l = blade_mul_mask(ab, c)
        t1, bc = blade_mul_mask(b, c)
        t2, abc_r = blade_mul_mask(a, bc)
        assert abc_l == abc_r
        assert s1 * s2 == t1 * t2


@hypothesis.given(masks)
def test_square_sign_depends_on_grade(s):
    # a blade of grade g squares to (-1)^(g(g+1)/2)
    sign, u = blade_mul_mask(s, s)
    g = s.bit_count()
    assert u == 0
    assert sign == (-1) ** ((g * (g + 1) // 2) % 2)


def test_mask_of_roundtrip():
    assert mask_of((1, 3, 4)) == 0b1101
    assert indices_of(0b1101) == (1, 3, 4)
    assert mask_of(()) == 0


@hypothesis.given(strat.sets(strat.integers(1, 12), max_size=6))
def test_indices_roundtrip(ix):
    assert set(indices_of(mask_of(ix))) == ix


def test_mask_of_rejects_bad_indices():
    with pytest.raises(ValueError):
        mask_of((0,))
    with pytest.raises(ValueError):
        mask_of((2, 2))


def _reordering_sign(s, t):
    # e_s e_t by brute force: bubble-sort the concatenated index lists, one
    # -1 per swap of distinct generators, then one -1 per e_i e_i = -1
    word = [i for i in range(1, 7) if s >> (i - 1) & 1]
    word += [i for i in range(1, 7) if t >> (i - 1) & 1]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
    shared = sum(1 for k in range(len(word) - 1) if word[k] == word[k + 1])
    return -sign if shared % 2 else sign


def test_sign_matches_reordering_oracle_rank6():
    for s, t in itertools.product(range(64), repeat=2):
        assert blade_sign(s, t) == _reordering_sign(s, t), (s, t)
