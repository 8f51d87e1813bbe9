"""Exact Clifford algebra over Gaussian rationals: elements, involutions,
the twisted vector action, and the verification suites at small rank."""

import operator
import random
from fractions import Fraction
from math import gcd

import hypothesis
import hypothesis.strategies as strat
import pytest

from grstacks.clifford import (
    NEG_SUM,
    SPLIT,
    BadSupport,
    CliffordElement,
    DegenerateDirection,
    NotPin,
    QuadSpace,
    basis_vector,
    eta_center_check,
    f1_vector,
    f2_vector,
    f_map,
    f_recover,
    is_pin,
    is_spin,
    mat_det,
    mat_identity,
    mat_mul,
    mat_vec,
    phi_pin,
    phi_w_matrix,
    pin_sample,
    reflect_point,
    rho,
    spin_sample,
    unit_vector_sample,
    verify_clifford_relations,
    verify_f_properties,
    verify_phi_pin_embedding,
    verify_phi_w,
)
from grstacks.blades import blade_mul_mask
from grstacks.gaussian import GR_HALF, GR_I, GR_ONE, GR_ZERO, GaussianRational, dot

gaussians = strat.builds(
    GaussianRational,
    strat.fractions(min_value=-4, max_value=4, max_denominator=3),
    strat.fractions(min_value=-2, max_value=2, max_denominator=2),
)


# -- scalar layer -----------------------------------------------------


@hypothesis.given(gaussians, gaussians, gaussians)
def test_gaussian_field_laws(a, b, c):
    # a(b + c) = ab + ac, and conjugation is multiplicative
    assert a * (b + c) == a * b + a * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if b:
        assert (a / b) * b == a


@hypothesis.given(gaussians)
def test_gaussian_norm(a):
    assert a * a.conjugate() == GaussianRational(a.norm())
    assert a.norm() >= 0


def test_gaussian_foreign_types():
    assert GaussianRational(2) + 1 == GaussianRational(3)
    assert Fraction(1, 2) * GaussianRational(0, 2) == GR_I
    with pytest.raises(TypeError):
        GaussianRational(1) + "x"


# -- integer-numerator form against a Fraction-pair oracle ------------

# The oracle is the arithmetic of a pair (re, im) of Fractions, written
# out here; an operand is drawn with its oracle pair.
rationals = strat.fractions(min_value=-20, max_value=20, max_denominator=12)
operands = strat.one_of(
    strat.integers(-20, 20).map(lambda k: (k, (Fraction(k), Fraction(0)))),
    rationals.map(lambda q: (q, (q, Fraction(0)))),
    strat.tuples(rationals, rationals).map(lambda p: (GaussianRational(*p), p)),
)


def _oracle(op, p, q):
    (a, b), (c, d) = p, q
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _assert_matches(z, pair):
    re, im = pair
    assert isinstance(z, GaussianRational)
    assert (z.re, z.im) == (re, im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    # canonical form: positive denominator, no common factor, one zero
    assert z.d > 0 and gcd(z.x, z.y, z.d) == 1
    if not (re or im):
        assert (z.x, z.y, z.d) == (0, 0, 1)
    assert z == GaussianRational(re, im)
    # equal values hash equal: a real value hashes as the Fraction it equals
    assert hash(z) == hash(GaussianRational(re, im))
    if im == 0:
        assert hash(z) == hash(re)
    assert bool(z) == bool(re or im)
    # equal to a rational exactly when the imaginary part vanishes
    assert (z == re) is (im == 0)
    if re.denominator == 1:
        assert (z == int(re)) is (im == 0)


@hypothesis.given(strat.sampled_from("+-*/"), operands, operands)
def test_gaussian_matches_fraction_pair_oracle(op, left, right):
    (u, p), (v, q) = left, right
    hypothesis.assume(isinstance(u, GaussianRational) or isinstance(v, GaussianRational))
    if op == "/" and q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            u / v
        return
    z = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](u, v)
    _assert_matches(z, _oracle(op, p, q))


@hypothesis.given(rationals, rationals)
def test_gaussian_unary_ops_match_oracle(re, im):
    z = GaussianRational(re, im)
    _assert_matches(z, (re, im))
    _assert_matches(-z, (-re, -im))
    _assert_matches(z.conjugate(), (re, -im))
    assert z.norm() == re * re + im * im and type(z.norm()) is Fraction
    assert GaussianRational.coerce(re) == GaussianRational(re)
    assert GaussianRational.coerce(z) is z


def test_gaussian_constructor_reduces_to_canonical_form():
    z = GaussianRational(Fraction(2, 4), Fraction(-3, 6))
    assert (z.x, z.y, z.d) == (1, -1, 2)
    assert (GR_ZERO.x, GR_ZERO.y, GR_ZERO.d) == (0, 0, 1)
    assert GaussianRational(0, Fraction(0, 7)).d == 1
    assert GaussianRational(1.5) == Fraction(3, 2)
    with pytest.raises(AttributeError):
        z.x = 3


@pytest.mark.parametrize(
    "re, im, text, rep",
    [
        (0, 0, "0", "GaussianRational(Fraction(0, 1), Fraction(0, 1))"),
        (3, 0, "3", "GaussianRational(Fraction(3, 1), Fraction(0, 1))"),
        (Fraction(-1, 2), 0, "-1/2", "GaussianRational(Fraction(-1, 2), Fraction(0, 1))"),
        (0, 1, "i", "GaussianRational(Fraction(0, 1), Fraction(1, 1))"),
        (0, -1, "-i", "GaussianRational(Fraction(0, 1), Fraction(-1, 1))"),
        (0, Fraction(3, 2), "3/2*i", "GaussianRational(Fraction(0, 1), Fraction(3, 2))"),
        (0, -2, "-2*i", "GaussianRational(Fraction(0, 1), Fraction(-2, 1))"),
        (1, 1, "1+i", "GaussianRational(Fraction(1, 1), Fraction(1, 1))"),
        (Fraction(-2, 3), -1, "-2/3-i", "GaussianRational(Fraction(-2, 3), Fraction(-1, 1))"),
        (5, Fraction(-7, 4), "5-7/4*i", "GaussianRational(Fraction(5, 1), Fraction(-7, 4))"),
        (Fraction(1, 2), Fraction(1, 3), "1/2+1/3*i", "GaussianRational(Fraction(1, 2), Fraction(1, 3))"),
        (Fraction(6, 4), Fraction(-10, 4), "3/2-5/2*i", "GaussianRational(Fraction(3, 2), Fraction(-5, 2))"),
    ],
)
def test_gaussian_str_and_repr_are_unchanged(re, im, text, rep):
    z = GaussianRational(re, im)
    assert str(z) == text
    assert repr(z) == rep


# -- algebra basics ---------------------------------------------------


def test_generators_square_to_minus_one():
    for n in (2, 5):
        for i in range(1, n + 1):
            e = basis_vector(n, i)
            assert e * e == -1


def test_generators_anticommute():
    e1, e2 = basis_vector(4, 1), basis_vector(4, 2)
    assert e1 * e2 == -(e2 * e1)


def test_vector_square_is_form_value():
    space = QuadSpace(3, NEG_SUM)
    v = (GaussianRational(2), GaussianRational(Fraction(1, 2)), GR_I)
    el = CliffordElement.vector(3, v)
    assert el * el == CliffordElement.scalar(3, space.q(v))


def test_vector_coords_roundtrip():
    v = (GR_ONE, GR_ZERO, GR_I)
    assert CliffordElement.vector(3, v).vector_coords() == v
    with pytest.raises(ValueError):
        (basis_vector(3, 1) * basis_vector(3, 2)).vector_coords()


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        basis_vector(3, 1) + basis_vector(4, 1)
    with pytest.raises(ValueError):
        CliffordElement(2, {4: GR_ONE})


def test_involution_signs_on_blades():
    # eps: (-1)^g, transpose: (-1)^(g(g-1)/2), bar: (-1)^(g(g+1)/2)
    for g in range(5):
        b = CliffordElement.blade(5, tuple(range(1, g + 1)))
        assert b.eps() == ((-1) ** g) * b
        assert b.transpose() == ((-1) ** (g * (g - 1) // 2)) * b
        assert b.bar() == ((-1) ** (g * (g + 1) // 2)) * b


@hypothesis.given(strat.integers(0, 7), strat.integers(0, 7))
def test_involutions_on_products(ma, mb):
    a = CliffordElement(3, {ma: GaussianRational(2, 1)})
    b = CliffordElement(3, {mb: GaussianRational(1, -1)})
    # eps is a homomorphism, transpose and bar reverse the order
    assert (a * b).eps() == a.eps() * b.eps()
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (a * b).bar() == b.bar() * a.bar()


def test_bar_composes_eps_and_transpose():
    a = CliffordElement(4, {0b0110: GR_I, 0b0001: GR_ONE, 0: GR_HALF})
    assert a.bar() == a.eps().transpose() == a.transpose().eps()


# -- shared-denominator elements against a per-blade oracle -----------

# The oracle is the element as a dict blade mask -> nonzero GaussianRational,
# with the schoolbook product: one Gaussian product and sum, each reduced by
# its own gcd, per pair of terms.


def _nonzero(p):
    return {m: c for m, c in p.items() if c}


def _oracle_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            sign, mu = blade_mul_mask(ma, mb)
            c = ca * cb
            if sign < 0:
                c = -c
            cur = out.get(mu)
            out[mu] = c if cur is None else cur + c
    return _nonzero(out)


def _oracle_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, GR_ZERO) + c
    return _nonzero(out)


def _oracle_scale(p, c):
    return _nonzero({m: v * c for m, v in p.items()})


def _oracle_signed(p, sign_of_grade):
    return {m: sign_of_grade(m.bit_count()) * c for m, c in p.items()}


def _assert_canonical(e):
    # d > 0, no zero numerator, gcd(d, every part) == 1, zero over d = 1
    assert e.d > 0
    assert all(0 <= m < 1 << e.n and (x or y) for m, (x, y) in e.terms.items())
    assert gcd(e.d, *(part for t in e.terms.values() for part in t)) == 1


coefficients = strat.one_of(
    strat.just(GR_ZERO),
    strat.builds(
        GaussianRational,
        strat.fractions(min_value=-9, max_value=9, max_denominator=12),
        strat.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
)
scalars = strat.one_of(
    coefficients,
    strat.integers(-5, 5),
    strat.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@strat.composite
def element_terms(draw):
    n = draw(strat.integers(1, 6))
    terms = strat.dictionaries(strat.integers(0, (1 << n) - 1), coefficients, max_size=6)
    return n, draw(terms), draw(terms), draw(scalars)


@hypothesis.given(element_terms())
def test_elements_match_the_per_blade_oracle(case):
    n, s, t, c = case
    a, b = CliffordElement(n, s), CliffordElement(n, t)
    p, q = _nonzero(s), _nonzero(t)
    c_gr = GaussianRational.coerce(c)
    scalar = _nonzero({0: c_gr})
    cases = [
        (a, p),
        (b, q),
        (a * b, _oracle_mul(p, q)),
        (a + b, _oracle_add(p, q)),
        (a - b, _oracle_add(p, _oracle_scale(q, -GR_ONE))),
        (c - a, _oracle_add(scalar, _oracle_scale(p, -GR_ONE))),
        (-a, _oracle_scale(p, -GR_ONE)),
        (a * c, _oracle_scale(p, c_gr)),
        (c * a, _oracle_scale(p, c_gr)),
        (a.eps(), _oracle_signed(p, lambda g: (-1) ** g)),
        (a.transpose(), _oracle_signed(p, lambda g: (-1) ** (g * (g - 1) // 2))),
        (a.bar(), _oracle_signed(p, lambda g: (-1) ** (g * (g + 1) // 2))),
    ]
    for e, want in cases:
        _assert_canonical(e)
        assert all(e.coeff(m) == want.get(m, GR_ZERO) for m in range(1 << n))
        assert set(e.terms) == set(want)
        # the unique form makes equality and hashing structural
        built = CliffordElement(n, want)
        assert e == built and hash(e) == hash(built)
        assert bool(e) == bool(want)
    assert (a == b) is (p == q)
    assert CliffordElement.scalar(n, c) == c and (a == c) is (p == scalar)


def test_equal_scalars_hash_equal_in_sets_and_dicts():
    # a real Gaussian rational and a scalar-only element equal the int or
    # Fraction they hold, so a set keeps one of them and a dict finds either
    half = Fraction(1, 2)
    assert hash(GR_ONE) == hash(1) and hash(CliffordElement.scalar(3, 1)) == hash(1)
    assert len({GaussianRational(1), 1}) == 1
    assert len({CliffordElement.scalar(3, 1), 1}) == 1
    assert len({GR_HALF, half, CliffordElement.scalar(3, half)}) == 1
    assert len({CliffordElement(3), GR_ZERO, 0}) == 1
    assert {1: "one"}[GaussianRational(1)] == "one"
    assert {half: "half"}[CliffordElement.scalar(2, GR_HALF)] == "half"
    assert {GR_I: "i"}[CliffordElement.scalar(2, GR_I)] == "i"
    # an element with a blade term equals no scalar and stays its own key
    e = CliffordElement(2, {0: 1, 0b01: 1})
    assert len({e, CliffordElement(2, {0: 1, 0b01: 1}), 1}) == 2


@pytest.mark.parametrize("c", [0, 1, Fraction(1, 2), GR_I])
def test_scalar_equality_is_transitive_across_dimensions(c):
    # scalar(2, c) == c == scalar(3, c), so the two elements equal each
    # other too, and a set keeps one of the three in either order
    a, b = CliffordElement.scalar(2, c), CliffordElement.scalar(3, c)
    assert a == b and b == a and a == c and b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == len({c, a, b}) == len({b, c, a}) == 1
    assert a != CliffordElement.scalar(3, c + 1)
    # an element with a blade term still equals none of another n
    blade = CliffordElement.blade(2, (1,), GR_ONE + c)
    assert blade != CliffordElement.blade(3, (1,), GR_ONE + c)
    assert len({blade, CliffordElement.blade(3, (1,), GR_ONE + c)}) == 2


def test_zero_element_is_canonical():
    zero = CliffordElement(3, {0b101: GaussianRational(Fraction(1, 6)), 0b011: GR_ZERO})
    zero = zero - zero
    assert (zero.d, zero.terms, str(zero)) == (1, {}, "0")
    assert zero == CliffordElement(3) == 0 and not zero
    assert CliffordElement(3, {1: GaussianRational(Fraction(2, 3))}) * 0 == zero


def test_element_keeps_one_reduced_denominator():
    a = CliffordElement(3, {0: Fraction(1, 2), 0b011: GaussianRational(1, -1), 0b100: GR_I})
    assert (a.d, a.terms) == (2, {0: (1, 0), 0b011: (2, -2), 0b100: (0, 2)})
    assert str(a) == "1/2 + i*e3 + (1-i)*e1e2"
    assert a.coeff(0b011) == GaussianRational(1, -1) and a.coeff(0b111) == GR_ZERO
    # 1/2 + 1/2 = 1 leaves the other numerators over d = 1
    b = a + CliffordElement.scalar(3, Fraction(1, 2))
    assert (b.d, b.terms) == (1, {0: (1, 0), 0b011: (1, -1), 0b100: (0, 1)})
    with pytest.raises(AttributeError):
        a.d = 1


# -- the dot-product kernel -------------------------------------------

entries = strat.one_of(strat.just(GR_ZERO), gaussians, coefficients)


@hypothesis.given(strat.lists(strat.tuples(entries, entries), max_size=8))
def test_dot_matches_the_sum_of_products(pairs):
    u, v = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    want = sum((a * b for a, b in pairs), GR_ZERO)
    _assert_matches(dot(u, v), (want.re, want.im))


def test_dot_of_empty_and_zero_vectors_is_canonical_zero():
    for u in ((), (GR_ZERO,) * 4):
        z = dot(u, u)
        assert (z.x, z.y, z.d) == (0, 0, 1)
    half = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    assert dot((GR_ZERO, half, GR_I), (half, half, GR_I)) == half * half - 1


# -- quadratic spaces -------------------------------------------------


def test_neg_sum_form():
    space = QuadSpace(4, NEG_SUM)
    v = tuple(GaussianRational(k) for k in (1, 2, 0, -1))
    assert space.q(v) == GaussianRational(-6)
    assert space.h(v, v) == space.q(v)


def test_split_form_pairs_coordinates():
    space = QuadSpace(5, SPLIT)
    v = tuple(GaussianRational(k) for k in (1, 2, 3, 4, 5))
    # (x1 x2) + (x3 x4) + x5^2
    assert space.q(v) == GaussianRational(2 + 12 + 25)
    assert space.h(v, v) == space.q(v)


@hypothesis.given(strat.sampled_from((NEG_SUM, SPLIT)), strat.integers(2, 5))
def test_gram_matches_pairing(form, n):
    # the basis entries that preserves() compares against
    space = QuadSpace(n, form)
    basis = [tuple(GR_ONE if j == i else GR_ZERO for j in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert space._pair_entry(i, j) == space.h(basis[i], basis[j])
    assert space.preserves(mat_identity(n))


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        QuadSpace(3, "euclidean")


# -- exact unit sphere sampling ---------------------------------------


def test_reflect_point_stays_on_sphere():
    base = (GR_ONE, GR_ZERO, GR_ZERO)
    u = (GaussianRational(1), GaussianRational(2), GaussianRational(2))
    v = reflect_point(base, u)
    assert sum((x * x for x in v), GR_ZERO) == GR_ONE
    assert v != base


def test_reflect_point_rejects_isotropic_direction():
    base = (GR_ONE, GR_ZERO)
    with pytest.raises(DegenerateDirection):
        reflect_point(base, (GR_ONE, GR_I))


def test_unit_vector_sample_support():
    rng = random.Random(3)
    for _ in range(20):
        v = unit_vector_sample(5, rng, support=(2, 4))
        assert sum((x * x for x in v), GR_ZERO) == GR_ONE
        assert v[0] == v[2] == v[4] == GR_ZERO


def _unit_norm_even_non_pin():
    # a = 3/5 + 4/5 e1..e6: even with a bar(a) = 1, yet a e1 bar(a) has a
    # grade-5 part, so only the vector-image test rejects it
    return CliffordElement(6, {0: Fraction(3, 5), 0b111111: Fraction(4, 5)})


def test_pin_membership():
    rng = random.Random(1)
    a = pin_sample(4, rng)
    assert is_pin(a)
    s = spin_sample(4, rng)
    assert is_spin(s) and s.parity() == 0
    assert not is_pin(basis_vector(4, 1) + 1)  # mixed parity
    assert not is_pin(CliffordElement.scalar(4, GaussianRational(2)))
    b = _unit_norm_even_non_pin()
    assert b.parity() == 0 and b * b.bar() == 1
    assert is_pin(b) is False


def test_rho_of_a_generator_is_a_reflection():
    m = rho(basis_vector(3, 1))
    want = (
        (-GR_ONE, GR_ZERO, GR_ZERO),
        (GR_ZERO, GR_ONE, GR_ZERO),
        (GR_ZERO, GR_ZERO, GR_ONE),
    )
    assert m == want
    assert mat_det(m) == -GR_ONE


def test_rho_is_multiplicative():
    rng = random.Random(5)
    a, b = pin_sample(3, rng), pin_sample(3, rng)
    assert rho(a * b) == mat_mul(rho(a), rho(b))
    # det records the parity
    assert mat_det(rho(a)) == GaussianRational(1 - 2 * a.parity())


def test_rho_rejects_non_pin():
    with pytest.raises(NotPin):
        rho(basis_vector(3, 1) * GaussianRational(2))
    with pytest.raises(NotPin):
        rho(_unit_norm_even_non_pin())


def test_matrix_inverse():
    # bar(a) is the inverse of a on the pin group, so rho(bar(a)) inverts rho(a)
    rng = random.Random(9)
    a = pin_sample(4, rng)
    assert mat_mul(rho(a), rho(a.bar())) == mat_identity(4)


# -- the one-lower pin embedding --------------------------------------


def test_phi_pin_cases():
    rng = random.Random(2)
    even = spin_sample(5, rng, support=(2, 3, 4, 5))
    g, s = phi_pin(even)
    assert (g, s) == (even, 1)
    odd = pin_sample(5, rng, factors=1, support=(2, 3, 4, 5))
    g, s = phi_pin(odd)
    assert s == -1 and g == basis_vector(5, 1) * odd
    assert g.parity() == 0


def test_phi_pin_rejects_mixed_parity():
    with pytest.raises(NotPin):
        phi_pin(basis_vector(3, 2) + 1)


# -- the unipotent family f(w) ----------------------------------------


def test_f1_f2_are_isotropic_and_pair_to_half():
    space = QuadSpace(4, NEG_SUM)
    f1, f2 = f1_vector(4), f2_vector(4)
    assert space.q(f1) == GR_ZERO and space.q(f2) == GR_ZERO
    assert space.h(f1, f2) == GR_HALF


def test_f_map_addition_to_multiplication():
    w1 = (GR_ZERO, GR_ZERO, GaussianRational(2), GR_ZERO)
    w2 = (GR_ZERO, GR_ZERO, GaussianRational(-1), GaussianRational(3))
    ws = tuple(a + b for a, b in zip(w1, w2))
    assert f_map(4, w1) * f_map(4, w2) == f_map(4, ws)


def test_f_map_recover_roundtrip():
    w = (GR_ZERO, GR_ZERO, GaussianRational(Fraction(3, 2)), GR_I)
    assert f_recover(f_map(4, w)) == w


def test_f_map_rejects_head_support():
    with pytest.raises(BadSupport):
        f_map(4, (GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO))
    with pytest.raises(BadSupport):
        f_map(4, (GR_ZERO, GR_ZERO, GR_ZERO))


def test_phi_w_zero_is_identity():
    space = QuadSpace(4, SPLIT)
    assert phi_w_matrix(space, 4, tuple([GR_ZERO] * 4)) == mat_identity(4)
    e1 = (GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO)
    w = (GR_ZERO, GR_ZERO, GaussianRational(2), GaussianRational(1))
    m = phi_w_matrix(space, 4, w)
    assert mat_vec(m, e1) == e1
    assert space.preserves(m)


# -- suite smoke at reduced size --------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
def test_relations_suite(n):
    rep = verify_clifford_relations(n, samples=25, seed=11)
    assert rep.ok, rep.to_text()


@pytest.mark.parametrize("n", [3, 4])
def test_phi_pin_suite(n):
    rep = verify_phi_pin_embedding(n, samples=40, seed=11)
    assert rep.ok, rep.to_text()


def test_phi_pin_covers_every_parity_pair_at_few_samples():
    # ten random pairs miss one of the four parity pairs at some seeds; the
    # verifier must then test that pair itself rather than report a failure
    for n in range(3, 9):
        for seed in range(20):
            rep = verify_phi_pin_embedding(n, samples=10, seed=seed)
            assert rep.ok, rep.to_text()


@pytest.mark.parametrize("n", [3, 5])
def test_f_suite(n):
    rep = verify_f_properties(n, samples=25, seed=11)
    assert rep.ok, rep.to_text()


def test_phi_w_suite():
    rep = verify_phi_w(4, samples=25, seed=11)
    assert rep.ok, rep.to_text()


def test_eta_suite():
    rep = eta_center_check(samples=20, seed=11)
    assert rep.ok, rep.to_text()


def test_suite_size_guards():
    with pytest.raises(ValueError):
        verify_phi_pin_embedding(9)
    with pytest.raises(ValueError):
        verify_f_properties(2)
