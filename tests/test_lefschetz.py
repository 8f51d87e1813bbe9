"""Exact arithmetic in the localized ring of Lefschetz classes."""

import functools
import itertools
import math
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from frozen_values import assert_frozen_value
from grstacks import dsl, intpoly, lefschetz, motive
from grstacks.lefschetz import (
    LC_ONE,
    LC_ZERO,
    LefschetzClass,
    NotAUnit,
    OverBudget,
    ZeroInverse,
    l_blocks,
    l_pow_minus_one,
    l_power,
    lc_add,
    lc_eq,
    lc_eval_at,
    lc_int,
    lc_inv,
    lc_mul,
    lc_neg,
    lc_normalize,
    lc_pow,
    lc_sum,
    regroup_cyclotomics,
    render_factors,
    work_budget,
    _cross_multiply_eq,
)

small_polys = strat.lists(strat.integers(-5, 5), min_size=1, max_size=5).map(tuple)


@strat.composite
def units(draw):
    u = l_power(draw(strat.integers(-6, 6)))
    if draw(strat.booleans()):
        u = lc_neg(u)
    for n in draw(strat.lists(strat.integers(1, 9), max_size=3)):
        f = l_pow_minus_one(n)
        u = lc_mul(u, lc_inv(f) if draw(strat.booleans()) else f)
    return u


@strat.composite
def classes(draw):
    # may be zero; every value is already in canonical form by construction
    return lc_mul(lc_normalize(draw(small_polys)), draw(units()))


# -- ring axioms ------------------------------------------------------


@hypothesis.given(classes(), classes(), classes())
def test_add_associative(a, b, c):
    # (a + b) + c = a + (b + c)
    assert lc_add(lc_add(a, b), c) == lc_add(a, lc_add(b, c))


@hypothesis.given(classes(), classes())
def test_add_commutative(a, b):
    # a + b = b + a
    assert lc_add(a, b) == lc_add(b, a)


@hypothesis.given(classes(), classes(), classes())
def test_mul_associative(a, b, c):
    # (a * b) * c = a * (b * c)
    assert lc_mul(lc_mul(a, b), c) == lc_mul(a, lc_mul(b, c))


@hypothesis.given(classes(), classes())
def test_mul_commutative(a, b):
    # a * b = b * a
    assert lc_mul(a, b) == lc_mul(b, a)


@hypothesis.given(classes(), classes(), classes())
def test_distributive(a, b, c):
    # a * (b + c) = a*b + a*c
    assert lc_mul(a, lc_add(b, c)) == lc_add(lc_mul(a, b), lc_mul(a, c))


@hypothesis.given(classes())
def test_additive_inverse(a):
    # a + (-a) = 0, and 0 is the designated zero
    assert lc_add(a, lc_neg(a)) == LC_ZERO


@hypothesis.given(classes())
def test_identities(a):
    assert lc_add(a, LC_ZERO) == a
    assert lc_mul(a, LC_ONE) == a
    assert lc_mul(a, LC_ZERO) == LC_ZERO


# -- canonical form ---------------------------------------------------


@hypothesis.given(classes())
def test_normalize_idempotent(a):
    # re-normalizing a canonical triple returns it unchanged
    assert lc_normalize(a.core, a.l_exp, a.cyc) == a


@hypothesis.given(classes())
def test_core_is_phi_free(a):
    # no cyclotomic candidate divides the canonical core
    deg = intpoly.degree(a.core)
    for d in intpoly.phi_bounded(deg):
        assert intpoly.monic_div(a.core, intpoly.cyclotomic(d)) is None


@hypothesis.given(classes(), classes())
def test_eq_matches_cross_multiplication(a, b):
    # structural comparison agrees with the expand-and-compare oracle
    assert lc_eq(a, b) == _cross_multiply_eq(a, b)
    assert _cross_multiply_eq(a, a)


@hypothesis.given(classes())
def test_eq_separates_neighbors(a):
    assert not lc_eq(a, lc_add(a, LC_ONE))


def test_single_zero_representation():
    assert lc_normalize(()) == LC_ZERO
    assert lc_normalize((0, 0)) == LC_ZERO
    assert lc_int(0) == LC_ZERO
    assert lc_add(l_power(3), lc_neg(l_power(3))) == LC_ZERO


# -- addition ---------------------------------------------------------


def test_add_merges_linear_terms():
    # (L - 1) + (L + 1) = 2L
    got = lc_add(lc_normalize((-1, 1)), lc_normalize((1, 1)))
    assert got == lc_normalize((0, 2))


def test_add_with_unit_denominators():
    # 1/L + L/(L + 1) = (L^2 + L + 1) / (L (L + 1))
    lhs = lc_add(l_power(-1), lc_mul(l_power(1), lc_inv(lc_normalize((1, 1)))))
    rhs = lc_mul(
        lc_normalize((1, 1, 1)),
        lc_mul(l_power(-1), lc_inv(lc_normalize((1, 1)))),
    )
    assert lc_eq(lhs, rhs)


def test_fractions_with_common_factor_sum_to_one():
    # 2 L^-1 + (L - 2) L^-1 = 1
    lhs = lc_add(
        lc_mul(lc_int(2), l_power(-1)),
        lc_mul(lc_normalize((-2, 1)), l_power(-1)),
    )
    assert lc_eq(lhs, LC_ONE)


def _summands(rng, k):
    """k classes: zeros, units, small polynomials times units, and negations
    of earlier summands, so that some sums cancel in part or to 0."""
    out = []
    for _ in range(k):
        roll = rng.random()
        if out and roll < 0.2:
            out.append(lc_neg(rng.choice(out)))
        elif roll < 0.3:
            out.append(LC_ZERO)
        else:
            u = l_power(rng.randint(-4, 4))
            for n in rng.sample(range(1, 10), rng.randint(0, 3)):
                f = l_pow_minus_one(n)
                u = lc_mul(u, lc_inv(f) if rng.random() < 0.5 else f)
            if roll >= 0.5:
                u = lc_mul(u, lc_normalize([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]))
            out.append(u)
    rng.shuffle(out)
    return out


def test_sum_matches_exact_values_and_term_by_term_adds():
    rng = random.Random(25)
    cancelled = 0
    for _ in range(400):
        terms = _summands(rng, rng.randint(0, 8))
        total = lc_sum(iter(terms))
        assert total == functools.reduce(lc_add, terms, LC_ZERO), terms
        for q in (2, 3, 5, 7):
            assert lc_eval_at(total, q) == sum((lc_eval_at(t, q) for t in terms), Fraction(0))
        cancelled += not total.core and any(t.core for t in terms)
        assert lc_sum(terms + [lc_neg(t) for t in reversed(terms)]) == LC_ZERO
    assert cancelled > 0


def test_sum_of_fewer_than_two_nonzero_terms_is_that_term():
    x = lc_mul(lc_normalize((3, 1)), lc_inv(l_pow_minus_one(4)))
    assert lc_sum(()) == LC_ZERO
    assert lc_sum([LC_ZERO, LC_ZERO]) == LC_ZERO
    assert lc_sum([LC_ZERO, x, LC_ZERO]) is x


def _old_cofactor(x, shift, extra):
    # the Phi-part multiplied out factor by factor, then into the core
    p = intpoly.shift(x.core, shift)
    if not extra:
        return p
    phis = functools.reduce(intpoly.mul, (intpoly.cyclotomic_power(d, m) for d, m in extra))
    return intpoly.mul(p, phis)


def _expanded(cofactor):
    # a cofactor (a, q) of lefschetz._cofactor, with (L - 1)^a multiplied back
    a, q = cofactor
    return _old_cofactor(LefschetzClass(q, 0, ()), 0, [(1, a)] if a else [])


def test_cofactors_of_the_cold_tower_match_the_factor_by_factor_expansion(monkeypatch):
    calls = []
    real = lefschetz._cofactor

    def recording(x, shift, extra):
        calls.append((x, shift, list(extra), real(x, shift, extra)))
        return calls[-1][-1]

    monkeypatch.setattr(lefschetz, "_cofactor", recording)
    motive.clear_tower_cache()
    try:
        for n in range(2, 41):
            motive.bspin(n)
        for n in range(30):
            motive.bpin(n)
    finally:
        motive.clear_tower_cache()
    # the odd spin row's excess has one factor per odd d up to 2m - 1
    assert max(len(extra) for _, _, extra, _ in calls) >= 10
    for x, shift, extra, got in calls:
        assert got[0] == dict(extra).get(1, 0), (x, shift, extra)
        assert _expanded(got) == _old_cofactor(x, shift, extra), (x, shift, extra)


def _staggered_summands(rng):
    """2-12 small classes, each times (L - 1)^a for a in -12..12 and some
    also times (L^n - 1)^(+-1); some lists end in the negations of their
    own terms, so that their sums cancel to 0."""
    out, cancel = [], rng.random() < 0.15
    for _ in range(rng.randint(1, 6) if cancel else rng.randint(2, 12)):
        core = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        u = lc_mul(lc_mul(lc_normalize(core), l_power(rng.randint(-3, 3))), l_blocks({1: rng.randint(-12, 12)}))
        if rng.random() < 0.4:
            u = lc_mul(u, l_blocks({rng.randint(2, 9): rng.choice((-1, 1))}))
        out.append(u)
    if cancel:
        out += [lc_neg(t) for t in out]
        rng.shuffle(out)
    return out


def test_sums_with_staggered_powers_of_l_minus_one_match_the_expanded_cofactors(monkeypatch):
    handed = []
    real = lefschetz.lc_normalize

    def recording(core, l_exp=0, cyc_exps=()):
        handed.append((intpoly.normalize(core), l_exp, dict(cyc_exps)))
        return real(core, l_exp, cyc_exps)

    monkeypatch.setattr(lefschetz, "lc_normalize", recording)
    rng = random.Random(38)
    distinct, cancelled = [], 0
    for _ in range(300):
        terms = _staggered_summands(rng)
        handed.clear()
        total = lc_sum(terms)
        # the polynomial handed to lc_normalize is the sum of the cofactors
        # multiplied out factor by factor, Phi_1^a by products too
        cofactors, common = _old_common_cofactors(terms)
        assert handed == [(intpoly.add(*cofactors), min(t.l_exp for t in terms), common)], terms
        for q in (2, 3, 5, 7):
            assert lc_eval_at(total, q) == sum((lc_eval_at(t, q) for t in terms), Fraction(0))
        distinct.append(len({dict(t.cyc).get(1, 0) for t in terms}))
        cancelled += not total.core
    # the Horner loops are deep, with many distinct steps, and some sums are 0
    assert max(distinct) >= 10 and sum(n >= 5 for n in distinct) >= 100
    assert cancelled >= 20


def _dict_merge(a, b):
    exps = dict(a)
    for d, m in b:
        exps[d] = exps.get(d, 0) + m
    return tuple(sorted((d, m) for d, m in exps.items() if m))


def _old_common_cofactors(values):
    # a set union of the keys, and one more per term
    maps = [dict(x.cyc) for x in values]
    common = {}
    for d in set().union(*maps):
        m = min(xm.get(d, 0) for xm in maps)
        if m:
            common[d] = m
    cofactors = []
    for x, xm in zip(values, maps):
        diffs = ((d, xm.get(d, 0) - common.get(d, 0)) for d in set(xm) | set(common))
        extra = [(d, m) for d, m in diffs if m]
        cofactors.append(_old_cofactor(x, x.l_exp - min(y.l_exp for y in values), extra))
    return cofactors, common


def _cyc_pair(rng):
    # sorted Phi-parts with negative multiplicities; the second one shares
    # keys with the first, cancels some of them to 0, or is disjoint from it,
    # and may have keys of its own beside the shared ones
    keys = rng.sample(range(1, 31), rng.randint(0, 6))
    a = sorted((d, rng.choice((-3, -2, -1, 1, 2, 3))) for d in keys)
    pool = [d for d in range(1, 31) if d not in keys]
    own = [(d, rng.choice((-2, -1, 1, 2))) for d in rng.sample(pool, rng.randint(0, 6))]
    kind = rng.choice(("shared", "cancel", "disjoint"))
    if kind == "disjoint":
        b = own
    else:
        # each shared key cancels a's multiplicity or takes a new one
        shared = [(d, -m if kind == "cancel" and rng.random() < 0.7 else rng.choice((-2, -1, 1, 2))) for d, m in a]
        b = rng.sample(shared, rng.randint(0, len(shared))) + own[: rng.randint(0, 2)]
    return kind, tuple(a), tuple(sorted(b))


def test_the_exponent_merges_match_the_dict_versions():
    rng = random.Random(28)
    seen = set()
    for _ in range(500):
        kind, a, b = _cyc_pair(rng)
        want = _dict_merge(a, b)
        assert lefschetz._merge_cyc(a, b) == want, (a, b)
        x, y = LefschetzClass(intpoly.ONE, 0, a), LefschetzClass((2, 1), rng.randint(-3, 3), b)
        assert lc_mul(x, y).cyc == want
        cofactors, _, common = lefschetz._common_cofactors((x, y))
        assert ([_expanded(c) for c in cofactors], common) == _old_common_cofactors((x, y)), (a, b)
        seen.add(kind)
        if any(d in dict(b) and d not in dict(want) for d, _ in a):
            seen.add("cancelled")
        if any(m < 0 for _, m in a + b):
            seen.add("negative")
    assert seen == {"shared", "cancel", "disjoint", "cancelled", "negative"}


# -- multiplication and inversion -------------------------------------


def test_mul_cancels_inverse_factor():
    x = lc_normalize((-1, 1))
    assert lc_mul(x, lc_inv(x)) == LC_ONE


def test_l_powers_add_exponents():
    assert lc_mul(l_power(4), l_power(-7)) == l_power(-3)


@hypothesis.given(strat.integers(-20, 20), strat.integers(-20, 20))
def test_l_power_homomorphism(a, b):
    # L^a * L^b = L^(a+b)
    assert lc_mul(l_power(a), l_power(b)) == l_power(a + b)


def test_inverse_of_spin7_style_product():
    x = lc_mul(
        l_power(9),
        lc_mul(l_pow_minus_one(2), lc_mul(l_pow_minus_one(4), l_pow_minus_one(6))),
    )
    y = lc_mul(
        l_power(-9),
        lc_mul(
            lc_inv(l_pow_minus_one(2)),
            lc_mul(lc_inv(l_pow_minus_one(4)), lc_inv(l_pow_minus_one(6))),
        ),
    )
    assert lc_inv(x) == y
    assert lc_mul(x, y) == LC_ONE


def test_six_dim_unit_product_is_one():
    # L^6 (L^2-1)(L^6-1) times its inverse
    x = lc_mul(l_power(6), lc_mul(l_pow_minus_one(2), l_pow_minus_one(6)))
    assert lc_mul(x, lc_inv(x)) == LC_ONE


def test_cyclotomic_trinomial_is_a_unit():
    # L^2 - L + 1 divides L^6 - 1, so it inverts
    u = lc_normalize((1, -1, 1))
    assert u.is_unit()
    assert lc_mul(u, lc_inv(u)) == LC_ONE


def test_shifted_linear_is_not_a_unit():
    with pytest.raises(NotAUnit):
        lc_inv(lc_normalize((2, 1)))


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverse):
        lc_inv(LC_ZERO)


@hypothesis.given(units())
def test_unit_roundtrip(u):
    # u * u^-1 = 1 and inv is an involution
    assert lc_mul(u, lc_inv(u)) == LC_ONE
    assert lc_inv(lc_inv(u)) == u


@hypothesis.given(classes(), strat.integers(0, 5))
def test_pow_matches_repeated_product(a, k):
    out = LC_ONE
    for _ in range(k):
        out = lc_mul(out, a)
    assert lc_pow(a, k) == out


# -- structural equality examples -------------------------------------


def test_a_class_is_a_frozen_value():
    assert_frozen_value(
        LefschetzClass,
        ("core", "l_exp", "cyc"),
        [
            ((-2, 1), 3, ((3, 2), (12, 1))),
            ((-2, 1), 3, ((3, 2),)),
            ((-2, 1), -3, ((3, 2), (12, 1))),
            ((1,), 3, ((3, 2), (12, 1))),
            ((), 0, ()),
        ],
        "LefschetzClass(core=(-2, 1), l_exp=3, cyc=((3, 2), (12, 1)))",
    )


def test_stratification_sum_collapses():
    # (L^4-1)^-1 (1 + L^-1 + (L-1)) = L^-1 (L^2-1)^-1
    inner = lc_add(LC_ONE, lc_add(l_power(-1), lc_normalize((-1, 1))))
    lhs = lc_mul(lc_inv(l_pow_minus_one(4)), inner)
    rhs = lc_mul(l_power(-1), lc_inv(l_pow_minus_one(2)))
    assert lc_eq(lhs, rhs)


def test_trailing_zero_cyclotomics_do_not_matter():
    # L built as a degree-1 polynomial equals the pure L power
    assert lc_eq(lc_normalize((0, 1)), l_power(1))
    assert lc_normalize((0, 1), 0, ((1, 0),)) == l_power(1)


# -- cyclotomic factorization -----------------------------------------


def test_phi_product_recovers_binomial():
    # prod over d | n of Phi_d = L^n - 1, checked at the polynomial level
    for n in range(1, 65):
        prod = intpoly.ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = intpoly.mul(prod, intpoly.cyclotomic(d))
        assert prod == intpoly.x_pow_minus_one(n)


def test_phi_product_recovers_binomial_as_classes():
    for n in range(1, 25):
        prod = LC_ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = lc_mul(prod, lc_normalize(intpoly.ONE, 0, ((d, 1),)))
        # l_pow_minus_one is built from this factorization, so compare with
        # what normalize finds by trial division of the expanded binomial
        binomial = lc_normalize(intpoly.x_pow_minus_one(n))
        assert lc_eq(prod, binomial)
        assert l_pow_minus_one(n) == binomial


@hypothesis.given(strat.dictionaries(strat.integers(1, 60), strat.integers(-3, 3), max_size=8))
@hypothesis.example({})
@hypothesis.example({4: 0, 6: 0})
def test_l_blocks_is_the_product_chain_of_its_blocks(exps):
    # the chain multiplies and inverts whole blocks; l_blocks only adds up
    # Phi-exponents over divisors, so a miscounted divisor shows here
    chain = LC_ONE
    for n, e in exps.items():
        block = l_pow_minus_one(n) if e >= 0 else lc_inv(l_pow_minus_one(n))
        for _ in range(abs(e)):
            chain = lc_mul(chain, block)
    assert l_blocks(exps) == chain


@pytest.mark.parametrize("n", [0, -2])
def test_l_blocks_refuses_a_block_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        l_blocks({n: 1})


@functools.cache
def _recurrence_cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e, by long division."""
    p = intpoly.x_pow_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            p = intpoly.monic_div(p, _recurrence_cyclotomic(e))
    return p


def test_cyclotomic_matches_divisor_recurrence():
    for d in range(1, 301):
        assert intpoly.cyclotomic(d) == _recurrence_cyclotomic(d), d


def _dfs_phi_bounded(m: int) -> tuple[int, ...]:
    """Every d with totient(d) <= m, by one DFS over prime factorizations
    with totient budget m: the per-degree walk phi_bounded used to run."""
    if m < 1:
        return ()
    primes = [p for p in range(2, m + 2) if all(p % r for r in range(2, int(p**0.5) + 1))]
    found = []

    def rec(start, d, tot):
        found.append(d)
        for idx in range(start, len(primes)):
            p = primes[idx]
            t = tot * (p - 1)
            if t > m:
                break
            dd, tt = d * p, t
            while tt <= m:
                rec(idx + 1, dd, tt)
                dd *= p
                tt *= p

    rec(0, 1, 1)
    return tuple(sorted(found))


def test_phi_bounded_matches_a_walk_per_degree():
    intpoly.phi_bounded.cache_clear()
    for m in range(-1, 2001):
        assert intpoly.phi_bounded(m) == _dfs_phi_bounded(m), m


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in list(range(1, 121)) + [210, 1155, 2310]:
        want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert intpoly.cyclotomic(d) == tuple(int(c) for c in want), d


def test_cyclotomic_of_a_large_squarefree_index():
    # 64 binomials; the divisor recurrence took about a minute here
    phi = intpoly.cyclotomic(30030)
    assert intpoly.degree(phi) == 5760
    assert intpoly.eval_at(phi, 2) == intpoly.cyclotomic_at(30030, 2)


def test_binomial_division_rejects_a_remainder():
    assert intpoly._div_binomial([-1, 0, 0, 1], 3) == [1]
    with pytest.raises(intpoly.NotDivisible):
        intpoly._div_binomial([-1, 0, 1, 1], 3)
    with pytest.raises(intpoly.NotDivisible):
        intpoly._div_binomial([1, 1], 3)


def test_typed_errors_for_bad_arguments():
    with pytest.raises(ValueError):
        intpoly.monic_div((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        intpoly.monic_div((), ())
    # Phi_d's Moebius walk is the one guard on d, so each reader of it, on a
    # short core and a long one alike, refuses d < 1
    for d in (0, -3):
        calls = [
            lambda: intpoly.cyclotomic(d),
            lambda: intpoly.cyclotomic_at(d, 2),
            lambda: intpoly.totient(d),
            lambda: intpoly.cyclotomic_quotient((1, 1), d),
            lambda: intpoly.cyclotomic_quotient(tuple(range(1, 20)), d),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be >= 1"):
                call()
    with pytest.raises(ValueError):
        lc_pow(l_power(1), -1)
    with pytest.raises(ValueError):
        l_pow_minus_one(0)
    for n in (0, -1):
        with pytest.raises(ValueError):
            intpoly.x_pow_minus_one(n)


# -- kernels against independent oracles -------------------------------


def _schoolbook_mul(p, q):
    if not p or not q:
        return ()
    cs = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            cs[i + j] += a * b
    return tuple(cs)


def _random_poly(rng, length, bits):
    # zeros inside and at either end, small values and values near +-2^bits
    pick = (
        lambda: 0,
        lambda: rng.randint(-3, 3),
        lambda: rng.randint(-(2**bits), 2**bits),
        lambda: rng.choice((-1, 1)) * 2**bits,
    )
    return tuple(rng.choice(pick)() for _ in range(length))


@hypothesis.given(
    strat.integers(0, 300),
    strat.integers(0, 300),
    strat.integers(0, 200),
    strat.randoms(use_true_random=False),
)
@hypothesis.settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook(len_p, len_q, bits, rng):
    p, q = _random_poly(rng, len_p, bits), _random_poly(rng, len_q, rng.randint(0, 200))
    want = _schoolbook_mul(p, q)
    assert intpoly.mul(p, q) == want
    assert intpoly.mul(q, p) == want


def test_mul_edge_values():
    big = 2**200
    for p, q in [
        ((), (1, 2)),
        ((0,), (5,)),
        ((1000,), (0,)),
        ((-big, 0, big), (big, -1)),
        ((-1,) * 300, (1,) * 300),
        ((0, 0, -128), (128, 0, 0)),
    ]:
        assert intpoly.mul(p, q) == _schoolbook_mul(p, q)
        assert intpoly.mul(q, p) == _schoolbook_mul(p, q)
    # constant-sign factors reach the slot-width bound exactly, for bounds of
    # every bit length up to 147
    for bits in range(70):
        for c in (2**bits - 1, 2**bits):
            for n in (1, 2, 3, 17, 18):
                p, q = (c,) * n, (-c,) * n
                assert intpoly.mul(p, q) == _schoolbook_mul(p, q)
                assert intpoly.mul(p, p) == _schoolbook_mul(p, p)


def _chained_schoolbook(ps):
    return functools.reduce(_schoolbook_mul, ps, intpoly.ONE)


@hypothesis.given(
    strat.lists(strat.tuples(strat.integers(0, 40), strat.integers(0, 200)), max_size=6),
    strat.randoms(use_true_random=False),
)
@hypothesis.settings(max_examples=80, deadline=None)
def test_mul_of_any_number_of_factors_matches_chained_schoolbook(shapes, rng):
    ps = [_random_poly(rng, length, bits) for length, bits in shapes]
    assert intpoly.mul(*ps) == _chained_schoolbook(ps)
    assert intpoly.mul(*ps[::-1]) == _chained_schoolbook(ps)


def test_mul_of_any_number_of_factors_edge_values():
    big = 2**200
    p, q, r = (-big, 0, big), (3, -1), (0, 0, 5)
    assert intpoly.mul() == intpoly.ONE
    # one factor is returned as it is, trailing zeros and all
    for one in ((), (0,), p, (1, 0, 0)):
        assert intpoly.mul(one) is one
    # an empty factor anywhere empties the product
    for ps in [((), p, q), (p, (), q, r), (p, q, r, ()), ((), (), ())]:
        assert intpoly.mul(*ps) == intpoly.ZERO
    # zeros inside, and all-zero factors next to wide ones
    for ps in [((0,), (big,), (-big,)), ((0, 0), p, q, r), ((0,), (1000,), (1,))]:
        assert intpoly.mul(*ps) == _chained_schoolbook(ps)
    # for any k the slot width reads max|A| times the other factors' L1
    # norms, A the longest factor, which a product of signed monomials
    # reaches exactly, with the wide coefficient in A or outside it, for
    # bounds of every bit length from 1 to 140 and past; constant-sign
    # factors come near it
    for k in (2, 3, 4):
        for bits in range(140):
            for c in (2**bits - 1, 2**bits):
                for small in (1, 3, 255, 256):
                    for sign, pad in itertools.product((1, -1), (0, k)):
                        ps = [(0,) * j + (small,) for j in range(k - 1)] + [(0,) * pad + (sign * c,)]
                        assert intpoly.mul(*ps) == _chained_schoolbook(ps), (k, bits, c, small, pad)
                for n in (1, 2, 17):
                    ps = [(c,) * n, (-c,) * n] + [(c,) * n] * (k - 2)
                    assert intpoly.mul(*ps) == _chained_schoolbook(ps), (k, bits, c, n)


def test_half_offsets_match_the_division_formula():
    # 2^(8w-1) in each of n slots of w bytes: the all-ones slot pattern,
    # built by long division, shifted to the top bit of each slot
    for n in (1, 2, 7, 60, 400):
        for w in (1, 2, 8, 30):
            ones = ((1 << (8 * w * n)) - 1) // ((1 << (8 * w)) - 1)
            assert intpoly._halves(n, w) == ones << (8 * w - 1), (n, w)


@hypothesis.given(
    strat.integers(1, 60),
    strat.lists(strat.integers(-9, 9), min_size=1, max_size=25),
    strat.integers(0, 3),
)
def test_exact_phi_test_matches_division(d, g, k):
    # on Phi_d^k * g and on Phi_d^k * g + 1 the residue test agrees with the
    # remainder of a full long division
    f = intpoly.normalize(g)
    for _ in range(k):
        f = intpoly.mul(f, intpoly.cyclotomic(d))
    for h in (f, intpoly.add(f, intpoly.ONE)):
        if h:
            want = intpoly.monic_div(h, intpoly.cyclotomic(d)) is not None
            assert intpoly.cyclotomic_divides(h, d) == want


def test_normalize_divides_the_core_only_when_it_succeeds(monkeypatch):
    # the residue test settles every candidate the prefilter lets through,
    # so each long division of a core by Phi_d is exact
    results = []
    real = intpoly.monic_div

    def recording(p, d):
        results.append(real(p, d))
        return results[-1]

    monkeypatch.setattr(intpoly, "monic_div", recording)
    for n in range(1, 25):
        lc_normalize(intpoly.add(intpoly.x_pow_minus_one(n), (0, 0, 3)))
        lc_normalize(intpoly.x_pow_minus_one(n), 0, ((n, -1),))
    assert results and None not in results


def test_phi_bounded_at_holds_the_candidates_values():
    # aligned with phi_bounded(m), and at least 1 at t >= 2, so the scan
    # divides by every value without a guard
    # t = 4 is also read as the second point of a scan whose first is 3
    for t in (2, 3, 4, 5):
        for m in range(301):
            values = intpoly.phi_bounded_at(m, t)
            assert values == tuple(intpoly.cyclotomic_at(d, t) for d in intpoly.phi_bounded(m)), (m, t)
            assert all(v >= 1 for v in values), (m, t)
        # and against Horner on the built Phi_d, which shares no arithmetic
        # with the Moebius product
        want = tuple(intpoly.eval_at(intpoly.cyclotomic(d), t) for d in intpoly.phi_bounded(300))
        assert intpoly.phi_bounded_at(300, t) == want


def test_a_root_at_two_moves_the_point_and_keeps_a_repeated_factor(monkeypatch):
    # L - 2 vanishes at 2, so the scan reads its values at t = 3; Phi_3
    # divides twice, and each time the point is divided by Phi_3(3) = 13
    points = []
    table = intpoly.phi_bounded_at
    monkeypatch.setattr(intpoly, "phi_bounded_at", lambda m, t: points.append(t) or table(m, t))
    phi = intpoly.cyclotomic
    p = intpoly.mul((-2, 1), phi(3), phi(3), phi(12))
    got = lc_normalize(p)
    assert points == [3]
    assert got == LefschetzClass((-2, 1), 0, ((3, 2), (12, 1)))
    assert _cross_multiply_eq(got, LefschetzClass(p, 0, ()))
    assert not _cross_multiply_eq(got, LefschetzClass(intpoly.add(p, intpoly.ONE), 0, ()))


def test_a_multiplicity_loop_ends_on_the_point(monkeypatch):
    # after each division the point core(t) is divided by Phi_d(t); once
    # Phi_d(t) no longer divides it, Phi_d cannot divide the core, so no
    # residue test runs to find that out
    events = []
    divides, quotient = intpoly.cyclotomic_divides, intpoly.cyclotomic_quotient

    def spy_divides(p, d):
        events.append(("test", d, divides(p, d)))
        return events[-1][2]

    def spy_quotient(p, d):
        events.append(("div", d, len(p)))
        return quotient(p, d)

    monkeypatch.setattr(intpoly, "cyclotomic_divides", spy_divides)
    monkeypatch.setattr(intpoly, "cyclotomic_quotient", spy_quotient)
    phi = intpoly.cyclotomic
    got = lc_normalize(intpoly.mul((-2, 1), phi(3), phi(3), phi(12), phi(5)))
    assert got == LefschetzClass((-2, 1), 0, ((3, 2), (5, 1), (12, 1)))
    assert [e[1] for e in events if e[0] == "div"] == [3, 3, 5, 12]
    after_division = [
        d for (kind, d, _), (next_kind, next_d, ok) in zip(events, events[1:])
        if kind == "div" and next_kind == "test" and next_d == d and not ok
    ]
    assert after_division == []


def test_a_root_at_the_second_point_passes_every_candidate_and_stays_exact(monkeypatch):
    # L - 3 vanishes at the second point s = 3, so Phi_d(3) divides p(3) = 0
    # for every d: each candidate that passes the first point's filter gets
    # its residue test, and the scan is exact as with one point
    tested = []
    divides = intpoly.cyclotomic_divides
    monkeypatch.setattr(intpoly, "cyclotomic_divides", lambda p, d: tested.append(d) or divides(p, d))
    phi = intpoly.cyclotomic
    p = intpoly.mul((-3, 1), phi(3), phi(3), phi(5), phi(12))
    assert intpoly.eval_at(p, 3) == 0 and intpoly.eval_at(p, 2) != 0
    q, exps = intpoly.cyclotomic_part(p)
    assert (q, exps) == ((-3, 1), {3: 2, 5: 1, 12: 1})
    assert intpoly.mul(q, phi(3), phi(3), phi(5), phi(12)) == p
    # the tests the first point alone lets through: one per candidate whose
    # Phi_d(2) divides the point, and one more after each division that
    # leaves it divisible
    point, want = intpoly.eval_at(p, 2), []
    for d in intpoly.phi_bounded(intpoly.degree(p)):
        v = intpoly.cyclotomic_at(d, 2)
        want += [d] * (not point % v)
        for _ in range(exps.get(d, 0)):
            point //= v
            want += [d] * (not point % v)
    assert tested == want


def test_the_second_point_spares_most_residue_tests(monkeypatch):
    # on a cold run of leading_delta_coeff(3..24) at most half of the
    # residue tests at d >= 2 say no (292 of 373 with the first point alone,
    # 51 of 132 with both)
    said = []
    divides = intpoly.cyclotomic_divides

    def spy(p, d):
        ok = divides(p, d)
        if d >= 2:
            said.append(ok)
        return ok

    monkeypatch.setattr(intpoly, "cyclotomic_divides", spy)
    motive.clear_tower_cache()
    for k in range(3, 25):
        motive.leading_delta_coeff(k)
    motive.clear_tower_cache()
    assert said and 2 * said.count(False) <= len(said), (said.count(False), len(said))


def _naive_totient(d: int) -> int:
    return sum(math.gcd(i, d) == 1 for i in range(1, d + 1))


@hypothesis.given(
    strat.integers(-6, 6).filter(bool),
    strat.lists(strat.integers(-6, 6), max_size=6),
    strat.dictionaries(strat.integers(1, 60), strat.integers(1, 3), max_size=4),
    strat.dictionaries(strat.integers(1, 60), strat.integers(-3, 3), max_size=2),
)
@hypothesis.example(1, [], {}, {})  # a constant: nothing to divide
@hypothesis.example(-2, [1], {3: 2, 12: 1}, {3: -2})  # L - 2 vanishes at the first point
@hypothesis.example(-3, [1], {1: 1, 2: 2, 6: 1}, {})  # L - 3 vanishes at the second point
@hypothesis.example(6, [-5, 1], {2: 1, 4: 2, 10: 1}, {})  # (L - 2)(L - 3): the points are 4 and 5
@hypothesis.settings(max_examples=60, deadline=None)
def test_cyclotomic_part_divides_out_every_planted_phi(c0, rest, planted, seed):
    # p = q * prod Phi_d^e multiplies back, and no Phi_d divides q, checked
    # by long division by the divisor recurrence's Phi_d, not by the scan's
    core = intpoly.normalize([c0, *rest])
    p = intpoly.mul(core, *(intpoly.cyclotomic_power(d, m) for d, m in planted.items()))
    before = dict(seed)
    q, exps = intpoly.cyclotomic_part(p, seed)
    assert seed == before  # the multiplicities go to a copy
    assert q[0] and q[-1] == p[-1]
    found = {d: m - seed.get(d, 0) for d, m in exps.items()}
    assert all(found.get(d, 0) >= m for d, m in planted.items())
    factors = (intpoly.cyclotomic_power(d, m) for d, m in found.items() if m)
    assert intpoly.mul(q, *factors) == p
    k = intpoly.degree(q)
    for d in range(1, 2 * k * k + 3):
        if _naive_totient(d) <= k:
            assert intpoly.monic_div(q, _recurrence_cyclotomic(d)) is None, d


# squarefull indices and indices with many prime factors, past which the
# binomial path's passes and the long division's terms differ most
BINOMIAL_INDICES = (8, 9, 27, 64, 128, 243, 256, 400, 30, 210, 330, 390)


@hypothesis.given(
    strat.lists(strat.integers(-9, 9), min_size=1, max_size=40),
    strat.one_of(strat.integers(1, 12), strat.sampled_from(BINOMIAL_INDICES), strat.integers(1, 400)),
)
@hypothesis.example(p=[3, -1, 2], d=3)  # a product of 5 coefficients: one long division
@hypothesis.example(p=[1] * 20, d=400)  # 180 coefficients: the Moebius binomials
@hypothesis.settings(max_examples=150, deadline=None)
def test_cyclotomic_quotient_divides_out_one_phi(p, d):
    # on either side of the short-core bound, p * Phi_d / Phi_d is p again,
    # and equal to monic_div's quotient
    p = intpoly.normalize(p)
    hypothesis.assume(p)
    f = intpoly.mul(p, intpoly.cyclotomic(d))
    assert intpoly.cyclotomic_quotient(f, d) == p
    assert intpoly.monic_div(f, intpoly.cyclotomic(d)) == p
    with pytest.raises(intpoly.NotDivisible):
        intpoly.cyclotomic_quotient(intpoly.add(f, intpoly.ONE), d)


def test_cyclotomic_quotient_refuses_non_multiples():
    # short and long, and shorter than Phi_d itself
    for d in (1, 2, 6, 30, 64, 210, 400):
        for p in ((2, 1), (1,) * 17, (1,) * 50, tuple(range(1, 300))):
            if intpoly.monic_div(p, intpoly.cyclotomic(d)) is None:
                with pytest.raises(intpoly.NotDivisible):
                    intpoly.cyclotomic_quotient(p, d)
    # and a bad index is refused on both paths
    for p in ((1,) * 5, (1,) * 50):
        with pytest.raises(ValueError):
            intpoly.cyclotomic_quotient(p, 0)


@hypothesis.given(strat.lists(strat.integers(-3, 3), max_size=30))
def test_phi_one_divides_exactly_the_polynomials_vanishing_at_one(p):
    assert intpoly.cyclotomic_divides(intpoly.normalize(p), 1) == (sum(p) == 0)


def test_only_short_cores_take_the_long_division(monkeypatch):
    calls = []
    real = intpoly.monic_div
    monkeypatch.setattr(intpoly, "monic_div", lambda p, d: calls.append(len(p)) or real(p, d))
    phi = intpoly.cyclotomic(30)
    short = intpoly.mul((1, 2), phi)
    long = intpoly.mul((1,) * 20, phi)
    assert len(short) <= intpoly.SHORT_CORE < len(long)
    assert intpoly.cyclotomic_quotient(short, 30) == (1, 2)
    assert intpoly.cyclotomic_quotient(long, 30) == (1,) * 20
    assert calls == [len(short)]


@hypothesis.given(
    strat.lists(strat.integers(-6, 6), min_size=1, max_size=6),
    strat.dictionaries(strat.integers(1, 30), strat.integers(1, 3), max_size=4),
    strat.integers(0, 3),
)
@hypothesis.settings(max_examples=40, deadline=None)
def test_normalize_matches_sympy_factor_list(g, phis, v):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    core = intpoly.normalize(g)
    hypothesis.assume(core)
    f = intpoly.shift(core, v)
    for d, m in phis.items():
        f = intpoly.mul(f, intpoly.cyclotomic_power(d, m))
    content, factors = sympy.factor_list(sympy.Poly(f[::-1], x))
    want_core, want_l, want_cyc = sympy.Poly(content, x), 0, {}
    for fac, m in factors:
        if fac == sympy.Poly(x, x):
            want_l += m
            continue
        k = fac.degree()
        for d in range(1, 2 * k * k + 3):
            if sympy.totient(d) == k and fac == sympy.Poly(sympy.cyclotomic_poly(d, x), x):
                want_cyc[d] = want_cyc.get(d, 0) + m
                break
        else:
            want_core = want_core * fac**m
    got = lc_normalize(f)
    assert got.core == tuple(int(c) for c in want_core.all_coeffs()[::-1])
    assert got.l_exp == want_l
    assert got.cyc == tuple(sorted(want_cyc.items()))


def test_non_factor_closed_quotient_reduces():
    # (L^2-1)/(L^6-1) has no (L^n-1) form; it is 1/(Phi_3 Phi_6)
    x = lc_mul(l_pow_minus_one(2), lc_inv(l_pow_minus_one(6)))
    assert x.core == (1,)
    assert x.cyc == ((3, -1), (6, -1))


# -- work budget ------------------------------------------------------


def _no_product(*ps):
    raise AssertionError("multiplied before refusing")


def test_core_degree_bound(monkeypatch):
    # the library bounds no core degree: products and sums past 2000 return,
    # and only a work budget refuses them, before any polynomial work

    def sparse(k):
        # L^k + 2: no root of unity has k-th power -2, so no Phi_d divides it
        return LefschetzClass((2,) + (0,) * (k - 1) + (1,), 0, ())

    def phi7_times_l(m, s):
        # Phi_7^m L^s, whose cofactor against 1 expands to degree 6m + s
        return LefschetzClass(intpoly.ONE, s, ((7, m),) if m else ())

    assert intpoly.degree(lc_mul(sparse(1000), sparse(1001)).core) == 2001
    for m in (0, 333):
        a = phi7_times_l(m, 2001 - 6 * m)
        got = lc_add(a, LC_ONE)
        assert lc_eval_at(got, 2) == lc_eval_at(a, 2) + 1
        assert _cross_multiply_eq(got, lc_add(LC_ONE, a))
    # a sum is charged (D + 1)^2 for its larger cofactor degree D = 2001
    top = 2002**2
    monkeypatch.setattr(intpoly, "mul", _no_product)
    with work_budget(top - 1), pytest.raises(OverBudget, match=f"more than {top - 1} work units"):
        lc_add(phi7_times_l(333, 3), LC_ONE)
    with work_budget(top):
        lc_add(phi7_times_l(0, 2001), LC_ONE)


def test_a_nested_budget_restores_the_outer_one_when_its_body_raises():
    assert lefschetz._budget.get() is None
    with work_budget(100):
        outer = lefschetz._budget.get()
        lefschetz._charge(lambda: 7)
        with pytest.raises(ZeroDivisionError):
            with work_budget(None):
                assert lefschetz._budget.get() is None
                lefschetz._charge(lambda: 10**9)
                1 / 0
        assert lefschetz._budget.get() is outer and outer == [7, 100]
        with pytest.raises(OverBudget, match="more than 10 work units"):
            with work_budget(10):
                lefschetz._charge(lambda: 11)
        assert lefschetz._budget.get() is outer and outer == [7, 100]
        lefschetz._charge(lambda: 93)
        with pytest.raises(OverBudget, match="more than 100 work units"):
            lefschetz._charge(lambda: 1)
    # the top level is unbounded again
    assert lefschetz._budget.get() is None
    lefschetz._charge(lambda: 10**12)


def test_coefficient_bits_bound(monkeypatch):
    # nor coefficient bits: two 5000-bit factors pass the former 8192-bit cap

    def wide(bits):
        # L + c, with c of the given bit length
        return LefschetzClass((2 ** (bits - 1) + 1, 1), 0, ())

    a, b = wide(5000), wide(5000)
    got = lc_mul(a, b)
    c = 2**4999 + 1
    assert got.core == (c * c, 2 * c, 1)
    # a product is charged its length times the bits of the product of its
    # factors' L1 norms
    top = 3 * ((2**4999 + 2) ** 2).bit_length()
    with work_budget(top):
        assert lc_mul(a, b) == got
    monkeypatch.setattr(intpoly, "mul", _no_product)
    with work_budget(top - 1), pytest.raises(OverBudget, match=f"more than {top - 1} work units"):
        lc_mul(a, b)


def test_phi_power_sums_are_refused_before_any_power_is_built(monkeypatch):
    # a cofactor is charged from the memoized Phi_d alone, so a refused sum
    # builds no Phi_d^m, here Phi_2^4400 = (L + 1)^4400
    intpoly.cyclotomic_power.cache_clear()
    monkeypatch.setattr(intpoly, "mul", _no_product)
    with pytest.raises(OverBudget):
        dsl.eval(dsl.parse("cyclo(2)^2000*cyclo(2)^2000*cyclo(2)^400 + 1"))


_WIDE = 2**999 + 1  # a 1000-bit coefficient


@pytest.mark.parametrize(
    "core, k",
    [
        # the former caps refused these: at least 8,992 bits, and degree 2002
        ((_WIDE, 1), 9),
        ((1, _WIDE), 9),
        ((2, 0, 1), 1001),
    ],
)
def test_powers_are_refused_before_the_first_squaring(monkeypatch, core, k):
    a = LefschetzClass(core, 0, ())
    # outside a budget the power returns, canonical without normalization
    got = lc_pow(a, k)
    assert got == lc_normalize(got.core) and (got.l_exp, got.cyc) == (0, ())
    assert lc_eval_at(got, 3) == lc_eval_at(a, 3) ** k
    # inside one, the whole loop is charged once, before its first product
    charges = []
    charge = lefschetz._charge
    monkeypatch.setattr(lefschetz, "_charge", lambda units_of: charges.append(units_of()) or charge(units_of))
    with work_budget(10**12):
        assert lc_pow(a, k) == got
    assert len(charges) == 1
    monkeypatch.setattr(intpoly, "mul", _no_product)
    with work_budget(charges[0] - 1), pytest.raises(OverBudget):
        lc_pow(a, k)


# -- specialization ---------------------------------------------------


def test_eval_counts_invertible_2x2_matrices():
    gl2 = lc_mul(l_power(1), lc_mul(l_pow_minus_one(1), l_pow_minus_one(2)))
    assert lc_eval_at(gl2, 3) == 48


def test_eval_counts_sl2():
    sl2 = lc_mul(l_power(1), l_pow_minus_one(2))
    assert lc_eval_at(sl2, 5) == 120


def test_eval_of_one():
    assert lc_eval_at(LC_ONE, 7) == 1


def test_eval_rejects_small_points():
    with pytest.raises(ValueError):
        lc_eval_at(LC_ONE, 1)


@hypothesis.given(classes(), classes(), strat.sampled_from((2, 3, 7, 11)))
def test_eval_is_a_ring_homomorphism(a, b, q):
    # eval(a*b) = eval(a)*eval(b) and eval(a+b) = eval(a)+eval(b)
    assert lc_eval_at(lc_mul(a, b), q) == lc_eval_at(a, q) * lc_eval_at(b, q)
    assert lc_eval_at(lc_add(a, b), q) == lc_eval_at(a, q) + lc_eval_at(b, q)


def test_eval_returns_exact_fractions():
    v = lc_eval_at(l_power(-3), 2)
    assert isinstance(v, Fraction) and v == Fraction(1, 8)


@hypothesis.given(
    classes(),
    # units of high degree, and a core whose coefficient carries 41 digits
    strat.sampled_from(
        [LC_ONE, l_power(50), l_power(-50), lc_normalize((7, 10**40)), *map(motive.class_gl, (2, 7, 30, 60))]
    ),
    strat.sampled_from((2, 3, 7, 13)),
)
@hypothesis.settings(max_examples=200, deadline=None)
def test_the_digit_estimate_falls_at_most_one_short(a, factor, q):
    # the estimate decides whether a value is printed, before it is computed
    x = lc_mul(a, factor)
    value = lc_eval_at(x, q)
    digits = max(len(str(abs(value.numerator))), len(str(value.denominator)))
    assert lefschetz.lc_eval_digits(x, q) >= digits - 1


# -- display ----------------------------------------------------------


def test_render_regroups_into_binomial_blocks():
    x = lc_mul(
        l_power(-9),
        lc_mul(
            lc_inv(l_pow_minus_one(2)),
            lc_mul(lc_inv(l_pow_minus_one(4)), lc_inv(l_pow_minus_one(6))),
        ),
    )
    assert render_factors(x) == "L^-9 * (L^2-1)^-1 * (L^4-1)^-1 * (L^6-1)^-1"


def test_render_keeps_stray_cyclotomics():
    x = lc_normalize(intpoly.ONE, 0, ((3, -1), (6, -1)))
    assert render_factors(x) == "cyclo(3)^-1 * cyclo(6)^-1"
    assert regroup_cyclotomics(x.cyc) == ([], [(3, -1), (6, -1)])


def _regroup_by_scan(cyc):
    # the greedy regroup with the largest key each round and its divisors
    # found by a scan of 1..d: the reference the one-pass regroup must match
    exps = dict(cyc)
    blocks, leftover = [], []
    while exps:
        d = max(exps)
        s = 1 if exps[d] > 0 else -1
        divisors = [e for e in range(1, d + 1) if d % e == 0]
        count = min(exps.get(e, 0) * s for e in divisors)
        if count >= 1:
            for e in divisors:
                exps[e] -= s * count
                if exps[e] == 0:
                    del exps[e]
            blocks.append((d, s * count))
        else:
            leftover.append((d, exps.pop(d)))
    return sorted(blocks), sorted(leftover)


def test_regroup_matches_the_divisor_scan():
    cases = [motive.class_gl(n) for n in range(1, 301)] + [motive.class_spin(n) for n in range(2, 301)]
    for n in range(2, 40):
        e = motive.bspin(n)
        cases += [e.scalar] + [c for _, c in e.atoms]
    cycs = [a.cyc for a in cases]
    # and mixed signs, where a block can leave part of its own key over
    rng = random.Random(0)
    for _ in range(500):
        exps = {d: rng.choice((-2, -1, 1, 1, 2, 3)) for d in rng.sample(range(1, 25), rng.randint(1, 12))}
        cycs.append(tuple(sorted(exps.items())))
    for cyc in cycs:
        assert regroup_cyclotomics(cyc) == _regroup_by_scan(cyc)
    for d in range(1, 1001):
        assert sorted(intpoly.divisors(d)) == [e for e in range(1, d + 1) if d % e == 0]


def test_render_constants():
    assert render_factors(LC_ZERO) == "0"
    assert render_factors(LC_ONE) == "1"
    assert render_factors(lc_neg(LC_ONE)) == "-1"
    assert render_factors(l_power(1)) == "L"
