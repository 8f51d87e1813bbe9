"""Fault injection: break one kernel at a time and check that the suites
built on it report FAIL rather than pass or crash."""

import itertools
import os
import random
import re
import subprocess
import sys
import types

import pytest

from grstacks import blades, clifford, dsl, finite, gaussian, intpoly, motive, suites
from grstacks.clifford import verify_clifford_relations
from grstacks.delta import DeltaGroup, verify_delta_structure
from grstacks.lefschetz import LC_ZERO, NotAUnit, l_power, lc_int, lc_mul, lc_neg
from grstacks.motive import Inconsistent
from grstacks.suites import (
    suite_clifford,
    suite_finite,
    suite_g2,
    suite_ring,
    suite_spin78,
    suite_tower,
)

# e_1 e_2: a pair every check from rank 2 up multiplies
FLIPPED_PAIR = (0b01, 0b10)
# e_1 e_3 times e_2 e_3: a pair no diagonal, center or vector-action check reads
FLIPPED_OFF_DIAGONAL_PAIR = (0b101, 0b110)


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_table_is_the_kernel(n):
    grp = DeltaGroup(n)
    for a, b in itertools.product(grp.elements, repeat=2):
        sign, mask = blades.blade_mul_mask(a[1], b[1])
        assert grp.mul(a, b) == (a[0] * b[0] * sign, mask)


def _flip_blade_sign(monkeypatch, pair):
    kernel = blades.blade_sign

    def flipped(s, t):
        sign = kernel(s, t)
        return -sign if (s, t) == pair else sign

    monkeypatch.setattr(blades, "blade_sign", flipped)


@pytest.fixture
def flipped_blade_sign(monkeypatch):
    _flip_blade_sign(monkeypatch, FLIPPED_PAIR)


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_flipped_blade_sign_fails_delta_structure(flipped_blade_sign, n):
    # (e_1, e_2) is a generator row, so every n reads the flipped sign
    assert DeltaGroup(n).mul((1, 0b01), (1, 0b10)) == (-1, 0b11)
    rep = verify_delta_structure(n)
    assert not rep.ok


@pytest.mark.parametrize("n", [3, 4, 6, 7, 10])
def test_flipped_off_diagonal_sign_fails_the_commutation_rule(monkeypatch, n):
    # Delta reads the kernel only on generator rows, so the one-pair flip goes
    # into its product; the rule reads the unordered pairs of masks in order,
    # every pair for n <= 9 and the pairs below 2^6 first at 10, and names the
    # flipped one
    mul = DeltaGroup.mul

    def flipped(self, a, b):
        sign, mask = mul(self, a, b)
        return (-sign if (a[1], b[1]) == FLIPPED_OFF_DIAGONAL_PAIR else sign, mask)

    monkeypatch.setattr(DeltaGroup, "mul", flipped)
    assert DeltaGroup(n).mul((1, 0b101), (1, 0b110)) == (-1, 0b011)
    failed = {c.id: c for c in verify_delta_structure(n).failures}
    pairs = itertools.combinations_with_replacement(range(1 << (n if n <= 9 else 6)), 2)
    i = list(pairs).index(FLIPPED_OFF_DIAGONAL_PAIR)
    assert failed["commutators"].lhs == f"seed 0 sample {i}: (s, t) = (5, 6)"
    assert failed["commutators"].rhs == "e_s e_t = (-1, 3); by the rule = (1, 3)"


def test_a_wrong_inverse_records_its_first_witness(monkeypatch):
    # e_1 e_2 squares to -1, so taking it for its own inverse fails there alone
    inv = DeltaGroup.inv
    monkeypatch.setattr(DeltaGroup, "inv", lambda self, a: a if a == (1, 0b11) else inv(self, a))
    failed = {c.id: c for c in verify_delta_structure(3).failures}
    i = DeltaGroup(3).elements.index((1, 0b11))
    assert failed["inverses"].lhs == f"seed 0 sample {i}: (sign, mask) = (1, 3)"
    assert failed["inverses"].rhs == "inv(a) = (1, 3); a * inv(a) = (-1, 0)"


def test_a_wrong_square_records_its_first_witness(monkeypatch):
    # a square that drops the sign of e_1 e_2 fails the closed form for that blade alone
    square = DeltaGroup.square
    monkeypatch.setattr(DeltaGroup, "square", lambda self, a: (1, 0) if a == (1, 0b11) else square(self, a))
    failed = {c.id: c for c in verify_delta_structure(3).failures}
    i = DeltaGroup(3).elements.index((1, 0b11))
    assert failed["squares"].lhs == f"seed 0 sample {i}: (sign, mask) = (1, 3)"
    assert failed["squares"].rhs == "e_S^2 = (1, 0); predicted = (-1, 0)"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_flipped_blade_sign_fails_clifford_relations(flipped_blade_sign, n):
    rep = verify_clifford_relations(n, samples=25, seed=0)
    assert not rep.ok
    failed = {c.id: c for c in rep.failures}
    # the first failing pair is named by its seed and sample index, and
    # redrawing that sample gives the same vectors
    m = re.fullmatch(r"seed 0 sample (\d+): v = (.+), w = (.+)", failed["rel.polar"].lhs)
    assert m and failed["rel.polar"].rhs.startswith("vw + wv = ")
    rng, full = random.Random(0), tuple(range(1, n + 1))
    for _ in range(int(m[1]) + 1):
        vc = clifford._random_direction(n, rng, full)
        wc = clifford._random_direction(n, rng, full)
    assert (m[2], m[3]) == tuple(str(clifford.CliffordElement.vector(n, u)) for u in (vc, wc))


@pytest.mark.parametrize(
    "pair, failing",
    [(FLIPPED_OFF_DIAGONAL_PAIR, "n3.f.frame"), ((0b1, 0b1), "n2.rho.reflect")],
    ids=["off-diagonal", "e1-square"],
)
def test_flipped_blade_sign_fails_the_clifford_suite_without_raising(monkeypatch, pair, failing):
    # rho refuses the images these flips produce; the checks that call it
    # record a FAIL instead of letting NotPin escape
    _flip_blade_sign(monkeypatch, pair)
    rep = suite_clifford(seed=0, samples=25)
    assert not rep.ok
    assert failing in {c.id for c in rep.failures}


def test_a_sign_dropping_embedding_records_its_first_witness(monkeypatch):
    # an embedding that records +1 for odd elements still multiplies and
    # lands in the even part, but it moves e_1 to -e_1 under a recorded +1;
    # only pairs whose first element is odd show it
    embed = clifford.phi_pin
    monkeypatch.setattr(clifford, "phi_pin", lambda beta: (embed(beta)[0], 1))
    n, seed = 4, 3
    failed = {c.id: c for c in clifford.verify_phi_pin_embedding(n, samples=20, seed=seed).failures}
    assert set(failed) == {"phi.stab"}
    m = re.fullmatch(rf"seed {seed} sample (\d+): b1 = (.+), b2 = (.+)", failed["phi.stab"].lhs)
    # the seed and index draw the same pair again, and it is the first bad one
    rng, sub = random.Random(seed), tuple(range(2, n + 1))
    for j in range(int(m[1]) + 1):
        b1, b2 = clifford.pin_sample(n, rng, None, sub), clifford.pin_sample(n, rng, None, sub)
        assert (b1.parity() == 1) == (j == int(m[1]))
    assert (str(b1), str(b2)) == (m[2], m[3])
    e1 = clifford.basis_vector(n, 1)
    g1 = e1 * b1
    assert failed["phi.stab"].rhs == f"phi(b1) = ({g1}, 1); eps(g1) e1 bar(g1) = {-e1}"


def test_a_missing_parity_pair_is_named(monkeypatch):
    # samples of two unit vectors each are all even, so the pairs with an
    # odd element never occur, the forced draws included
    sample = clifford.pin_sample

    def even(n, rng, factors=None, support=None):
        return sample(n, rng, 2, support)

    monkeypatch.setattr(clifford, "pin_sample", even)
    failed = {c.id: c for c in clifford.verify_phi_pin_embedding(3, samples=10, seed=0).failures}
    assert set(failed) == {"phi.cases"}
    assert failed["phi.cases"].lhs == "seed 0 sample 1: parity pair = 01"
    assert failed["phi.cases"].rhs == "pairs drawn = 0"


def test_a_broken_f_map_records_its_first_witness(monkeypatch):
    # an f that adds 1 when w has an imaginary coordinate is no longer
    # multiplicative on the pairs that draw one
    real = clifford.f_map
    monkeypatch.setattr(clifford, "f_map", lambda n, w: real(n, w) + (1 if any(x.im for x in w) else 0))
    n, seed = 4, 2
    failed = {c.id: c for c in suite_clifford(seed=seed, samples=25).failures}
    m = re.fullmatch(rf"seed {seed} sample (\d+): w1 = (.+), w2 = (.+)", failed["n4.f.hom"].lhs)
    assert m and failed["n4.f.hom"].rhs.startswith("f(w1) f(w2) = ")
    # the seed and index draw the same pair again, and it is the first bad one
    rng = random.Random(seed)
    for j in range(int(m[1]) + 1):
        w1 = clifford._random_tail_vector(n, rng, gaussian=True)
        w2 = clifford._random_tail_vector(n, rng, gaussian=True)
        ws = tuple(a + b for a, b in zip(w1, w2))
        f = clifford.f_map
        assert (f(n, w1) * f(n, w2) != f(n, ws)) == (j == int(m[1]))
    assert (m[2], m[3]) == tuple(str(clifford.CliffordElement.vector(n, w)) for w in (w1, w2))


def test_a_transposed_stabilizer_template_records_its_first_witness(monkeypatch):
    # the transpose still composes additively, but moves e_1 whenever w != 0
    template = clifford.phi_w_matrix
    monkeypatch.setattr(clifford, "phi_w_matrix", lambda space, n, w: tuple(zip(*template(space, n, w))))
    n, seed = 4, 3
    failed = {c.id: c for c in clifford.verify_phi_w(n, samples=20, seed=seed).failures}
    assert "phiw.fix" in failed and "phiw.hom" not in failed
    m = re.fullmatch(rf"seed {seed} sample (\d+): w1 = (.+)", failed["phiw.fix"].lhs)
    # the seed and index draw the same w1 again, and it is the first nonzero one
    rng = random.Random(seed)
    for j in range(int(m[1]) + 1):
        w1, _ = clifford._random_tail_vector(n, rng), clifford._random_tail_vector(n, rng)
        assert any(w1) == (j == int(m[1]))
    assert m[2] == str(clifford.CliffordElement.vector(n, w1))
    assert failed["phiw.fix"].rhs.startswith("phi_w(w1) e1 = ")


def test_an_odd_spin_sample_records_the_first_eta_witnesses(monkeypatch):
    # an odd sample anticommutes with the top blade: eta g = -g eta, and a
    # sign-twisted product picks up a sign whenever its second twist is set
    spin = clifford.spin_sample
    monkeypatch.setattr(
        clifford,
        "spin_sample",
        lambda n, rng, support=None: spin(n, rng, support) * clifford.basis_vector(n, 2),
    )
    failed = {c.id: c for c in clifford.eta_center_check(samples=12, seed=4).failures}
    assert set(failed) == {"eta.central", "eta.embed"}
    assert re.fullmatch(r"seed 4 sample 0: g = .+", failed["eta.central"].lhs)
    assert failed["eta.central"].rhs.startswith("eta g = ")
    m = re.fullmatch(r"seed 4 sample \d+: g1 = .+, g2 = .+, s1 = (-?1), s2 = (-?1)", failed["eta.embed"].lhs)
    assert m and m[2] == "-1"
    assert failed["eta.embed"].rhs.startswith("lift(g1, s1) lift(g2, s2) = ")


def test_unreduced_gaussians_fail_clifford_relations(monkeypatch):
    # without the gcd step equal values have unequal (x, y, d), so the
    # exact equalities behind the pin-group laws turn false
    monkeypatch.setattr(gaussian, "gcd", lambda *args: 1)
    rep = verify_clifford_relations(3, samples=25, seed=0)
    assert not rep.ok
    assert "rho.hom" in {c.id for c in rep.failures}


def test_unreduced_gaussians_fail_the_clifford_suite_without_raising(monkeypatch):
    # the samplers' own invariants break first (a reflected point off the
    # unit sphere); the checks they feed record FAIL instead of raising
    monkeypatch.setattr(gaussian, "gcd", lambda *args: 1)
    rep = suite_clifford(seed=0, samples=10)
    assert not rep.ok
    assert {"n3.phi.hom", "n3.phi.spin", "n3.f.factor.anis", "eta.central", "eta.embed"} <= {
        c.id for c in rep.failures
    }


def test_unreduced_clifford_elements_fail_the_clifford_suite_without_raising(monkeypatch):
    # the element's own gcd pass is skipped and the scalar layer is left
    # whole: a*bar(a) = 1 then comes out as d/d with d > 1, so rho refuses
    # every pin element, and elements equal in value compare unequal
    monkeypatch.setattr(clifford, "gcd", lambda *args: 1)
    rep = suite_clifford(seed=0, samples=10)
    assert not rep.ok
    failed = {c.id for c in rep.failures}
    assert {"n3.rho.hom", "n3.rho.det", "n3.phi.stab", "n4.f.hom", "n8.phi.spin"} <= failed


# -- the ledgers --------------------------------------------------------


def _drop_residue_class(monkeypatch):
    # skipping the last residue class of x^d - 1 misses Phi_d factors, so a
    # unit keeps a non-unit core and inverting it raises NotAUnit
    def dropped(p, d):
        r = intpoly.normalize(sum(p[i::d]) for i in range(d - 1 if d > 2 else d))
        phi = intpoly.cyclotomic(d)
        return not r if len(r) < len(phi) else intpoly.monic_div(r, phi) is not None

    monkeypatch.setattr(intpoly, "cyclotomic_divides", dropped)


def test_dropped_residue_class_fails_the_g2_ledger_without_raising(monkeypatch):
    # the checks that read such a unit record FAIL with the error and every
    # other check still runs
    ids = {c.id for c in suite_g2().checks}
    _drop_residue_class(monkeypatch)
    rep = suite_g2()
    assert {c.id for c in rep.checks} == ids
    failed = {c.id: c.lhs for c in rep.failures}
    assert failed["strata.solve"].startswith("NotAUnit: not a unit: core")


def test_dropped_residue_class_fails_the_spin78_ledger_without_raising(monkeypatch):
    # every (L^n - 1) in a row goes through the faulty normalizer, so the
    # spin classes and their inverses are caught too
    ids = {c.id for c in suite_spin78().checks}
    _drop_residue_class(monkeypatch)
    rep = suite_spin78()
    assert {c.id for c in rep.checks} == ids
    failed = {c.id: c.lhs for c in rep.failures}
    assert {"bspin7.inv", "bspin8.assembly"} <= failed.keys()
    assert failed["bspin8.assembly"].startswith("NotAUnit: not a unit: core")


@pytest.mark.parametrize("suite", [suite_g2, suite_spin78])
def test_a_residue_test_that_always_passes_fails_the_ledgers_without_raising(monkeypatch, suite):
    # the division the residue test vouched for leaves a remainder, and
    # lc_normalize names it as NotDivisible instead of carrying None on
    ids = {c.id for c in suite().checks}
    monkeypatch.setattr(intpoly, "cyclotomic_divides", lambda p, d: True)
    rep = suite()
    assert {c.id for c in rep.checks} == ids
    assert rep.failures
    assert all(c.lhs.startswith("NotDivisible: ") for c in rep.failures)


def test_wrong_ledger_values_fail_the_ledgers_without_raising(monkeypatch):
    # {G_2} and {Spin_8} off by a factor L, patched where the evaluator's
    # G2() and Spin(n) read them.  The displayed identities that read the
    # wrong class fail, the one B(G_2 x mu_2) check in the spin ledger among
    # them, and every other check still holds
    monkeypatch.setattr(dsl, "class_g2", lambda: lc_mul(motive.class_g2(), l_power(1)))
    monkeypatch.setattr(
        dsl,
        "class_spin",
        lambda n: lc_mul(motive.class_spin(n), l_power(1)) if n == 8 else motive.class_spin(n),
    )
    assert {c.id for c in suite_g2().failures} == {"g2.class_formula", "bg2.unit"}
    assert {c.id for c in suite_spin78().failures} == {"q8.spin7", "bspin8.assembly", "bspin8.unit"}


def test_wrong_sl3_class_fails_both_routes_to_bspin7(monkeypatch):
    # {SL_3} off by a factor L reaches {B Spin_7} only through the null-cone
    # term, so the chain and the quadric row that recomputes it fail, while
    # the closed form of {B Spin_7} and everything built on it still hold
    monkeypatch.setattr(
        dsl,
        "class_sl",
        lambda n: lc_mul(motive.class_sl(n), l_power(1)) if n == 3 else motive.class_sl(n),
    )
    failed = {c.id for c in suite_spin78().failures}
    assert failed == {"c8.spin7", "bspin7.chain", "q8.spin8"}


# -- the tower ----------------------------------------------------------


def test_a_wider_table_window_fails_the_tower_suite_without_raising(monkeypatch):
    # [k]_u in place of [k - 1]_u in the step of the table C: every row below
    # the top atom is wrong, so the solve and each substitution fail; the top
    # atoms read C(0, k) = 1, which no window touches, so every lead check
    # stays green
    window = motive._window
    monkeypatch.setattr(motive, "_window", lambda p, w: window(p, w + 1))
    motive.clear_tower_cache()
    try:
        rep = suite_tower()
    finally:
        motive.clear_tower_cache()
    failing = {c.id for c in rep.failures}
    assert failing == {"solve.allones"} | {f"subst.{n}" for n in range(3, 9)}


def test_a_wrong_odd_spin_base_fails_the_tower_suite_without_raising(monkeypatch):
    # no excess over the table on the odd r = -1 row, so it starts at the
    # constant atom's base (L+1)^-1 in place of G(1, -1) = (L-1)^-1: bspin(2),
    # bspin(4), ... and the solve read that row; the top atoms do not read
    # it, so every lead check stays green; the memo is emptied first, or it
    # would serve the odd row from before the patch
    motive.clear_tower_cache()
    monkeypatch.setattr(motive, "_odd_row_excess", lambda m: LC_ZERO)
    try:
        rep = suite_tower()
    finally:
        monkeypatch.undo()
        motive.clear_tower_cache()
    failing = {c.id for c in rep.failures}
    assert failing == {"subst.2", "subst.4", "subst.6", "subst.8", "solve.allones"}


def test_a_wrong_block_in_the_recursion_fails_the_top_atom_check(monkeypatch):
    # L * (L^4 - 1) in place of (L^4 - 1) in the recursion's block products
    # only: the closed form is built from divisor counts, not from the
    # blocks, so it does not absorb the fault
    blocks = motive.l_blocks
    monkeypatch.setattr(motive, "l_blocks", lambda exps: lc_mul(blocks(exps), l_power(1) ** exps.get(4, 0)))
    motive.clear_tower_cache()
    try:
        motive.leading_delta_coeff(3)
        for n in range(4, 9):
            with pytest.raises(Inconsistent):
                motive.leading_delta_coeff(n)
    finally:
        motive.clear_tower_cache()


def test_a_block_that_is_not_a_unit_fails_the_top_atom_check(monkeypatch):
    # 2 * (L^4 - 1) in place of (L^4 - 1) in the recursion's block products:
    # its inverse is no unit, so the stray 2 raises or mismatches
    blocks = motive.l_blocks
    monkeypatch.setattr(motive, "l_blocks", lambda exps: lc_mul(blocks(exps), lc_int(2) ** exps.get(4, 0)))
    motive.clear_tower_cache()
    try:
        motive.leading_delta_coeff(3)
        for n in range(4, 9):
            with pytest.raises((NotAUnit, Inconsistent)):
                motive.leading_delta_coeff(n)
    finally:
        motive.clear_tower_cache()


def test_a_dropped_binomial_fails_the_long_core_suites_without_raising(monkeypatch):
    # Phi_d's largest mu = -1 binomial left out of its Moebius walk, once the
    # cyclotomic and cyclotomic_at memos are warm from a first run, so only
    # the walks read afresh see the fault: a long core's quotient by Phi_d
    # then leaves a remainder, which the suites record as a failure.  The
    # tower reads cores of up to 211 coefficients from lead.09 on, the ring
    # suite the binomials L^n - 1 up to n = 64; the spin78 ledger divides no
    # core longer than 9 coefficients, each by one long division, so it
    # stays green
    suites = (suite_tower, suite_spin78, suite_ring)
    for s in suites:
        s()
    walk = intpoly._moebius_binomials

    def dropped(d):
        ks = walk(d)
        largest = max((e for e in ks if e[1] < 0), default=None)
        return tuple(e for e in ks if e != largest)

    monkeypatch.setattr(intpoly, "_moebius_binomials", dropped)
    motive.clear_tower_cache()
    try:
        reports = {s.__name__: s() for s in suites}
    finally:
        motive.clear_tower_cache()
    failing = {name: {c.id for c in rep.failures} for name, rep in reports.items()}
    assert failing == {
        "suite_tower": {f"lead.{n:02d}" for n in range(9, 31)} | {"solve.allones", "subst.8"},
        "suite_spin78": set(),
        "suite_ring": {"phi.product.class"},
    }
    assert all(c.rhs.startswith("error = NotDivisible: ") for c in reports["suite_tower"].failures)


# -- the finite layer ---------------------------------------------------


@pytest.fixture
def orbit_drops_a_point(monkeypatch):
    # the number-level search, so both the counted sizes and the decoded
    # orbits come up one point short
    search = finite._orbit_numbers

    def dropping(model, start):
        found = search(model, start)
        if len(found) > 1:
            found.remove(max(found[1:]))
        return found

    monkeypatch.setattr(finite, "_orbit_numbers", dropping)


@pytest.mark.parametrize(
    "verify, failing",
    [
        (finite.verify_q6_claims, {"pairing.orbit", "pairing.stab", "axes.orbit", "axes.stab"}),
        (finite.verify_c4_structure, {"pairing.orbit", "pairing.stab", "orth.special.orbits"}),
        (finite.verify_strata_partition, {"orbits", "mid.stab", "free.stab", "deep.diag.stab"}),
    ],
    ids=["q6", "c4", "strata"],
)
def test_orbit_short_by_one_point_fails_its_verifier(orbit_drops_a_point, verify, failing):
    rep = verify(5)
    assert not rep.ok
    assert failing <= {c.id for c in rep.failures}


def test_a_wrong_lambda_records_its_first_witness(monkeypatch):
    # a scalar doubled on the points with v1 = 1: the matrix part moves
    # points into and out of that set, so their lam no longer follows the law
    lam = finite._lambda_of
    monkeypatch.setattr(finite, "_lambda_of", lambda pt, q: lam(pt, q) * (2 if pt[0] == 1 else 1) % q)
    failed = {c.id: c for c in finite.verify_c4_structure(5).failures}
    m = re.fullmatch(r"seed 0 sample (\d+): x = (.+)", failed["orth.lambda"].lhs)
    orth = [
        pt
        for pt in itertools.product(range(5), repeat=4)
        if (pt[0] * pt[2] + pt[1] * pt[3]) % 5 == 0 and any(pt[:2]) and any(pt[2:])
    ]
    assert m[2] == repr(orth[int(m[1])])
    assert re.fullmatch(r"lam = \d; lam after generator \d = \d; predicted = \d", failed["orth.lambda"].rhs)


def test_orbit_short_by_one_point_fails_the_other_orbits_at_13(orbit_drops_a_point):
    # at q = 13 some orthogonal points have lam^2 != +-1, and their orbits
    # no longer tile them
    rep = finite.verify_c4_structure(13)
    assert "orth.rest" in {c.id for c in rep.failures}


def test_an_extra_fixer_of_the_pairing_base_fails_at_every_q(monkeypatch):
    # e12 also fixes (1, 0, 1, 0) and nothing else changes: the half-point
    # images stay, so the orbit search and the division do too; only a
    # direct filter sees the ninth fixer, and at q = 13 the group is past
    # the one that stabilizer_order runs
    apply = finite.ModelRank2.apply
    e12 = (((1, 1), (0, 1)), 0, 0, 0)

    def extra_fixer(self, g, pt):
        return pt if (g, pt) == (e12, (1, 0, 1, 0)) else apply(self, g, pt)

    monkeypatch.setattr(finite.ModelRank2, "apply", extra_fixer)
    for q in (5, 13):
        assert {c.id for c in finite.verify_c4_structure(q).failures} == {"pairing.stab"}, q


def test_swapped_half_table_entries_fail_the_finite_suite(monkeypatch):
    build = finite.half_tables

    def swapped(model):
        tables = build(model)
        f = tables.maps[0][0]
        f[1], f[2] = f[2], f[1]
        return tables

    monkeypatch.setattr(finite, "half_tables", swapped)
    rep = suite_finite(seed=0, samples=25, q=5)
    assert not rep.ok
    # every model's first generator is off, so each orbit verifier fails
    assert {c.id.split(".")[0] for c in rep.failures} >= {"q6", "q4", "strata"}


def _spill(apply, q):
    # adds the first coordinate of v into the first coordinate of w
    def spilled(g, pt):
        y = apply(g, pt)
        k = len(y) // 2
        return y[:k] + ((y[k] + pt[0]) % q,) + y[k + 1 :]

    return spilled


def _split_swap(apply, q):
    # swaps the halves of a point only when its first coordinate is set
    def split(g, pt):
        y = apply(g, pt)
        k = len(y) // 2
        return y[k:] + y[:k] if pt[0] else y

    return split


@pytest.mark.parametrize("make", [finite.ModelSL3Swap, finite.ModelRank2, finite.ModelUnitriangular])
@pytest.mark.parametrize("breach", [_spill, _split_swap])
def test_generator_that_is_not_blockwise_raises(make, breach):
    model = make(5)
    model.apply = breach(model.apply, model.q)
    with pytest.raises(Inconsistent):
        finite.orbit_bfs(model, (1,) + (0,) * (model.dim - 1))


def test_a_broken_model_product_records_its_first_witness():
    # a product that forgets the right factor's global sign breaks the
    # action law only on the samples whose h carries the sign
    model = finite.ModelRank2(5)
    product = model.mul

    def broken(g, h):
        b, s, t, z = product(g, h)
        return (b, s, t, g[3])

    model.mul = broken
    rep = finite.verify_model_laws(model, samples=40, seed=2)
    failed = {c.id: c for c in rep.failures}
    assert "compose" in failed
    witness = failed["compose"]
    m = re.fullmatch(r"seed (\d+) sample (\d+): g = (.+), h = (.+), x = (.+)", witness.lhs)
    seed, i = int(m[1]), int(m[2])
    assert seed == 2
    # the seed and index draw the same sample again, and it is the first bad one
    rng = random.Random(seed)
    for j in range(i + 1):
        g, h = model.sample(rng), model.sample(rng)
        x = tuple(finite._draws(rng, model.q, model.dim))
        bad = model.apply(broken(g, h), x) != model.apply(g, model.apply(h, x))
        assert bad == (j == i)
    assert (repr(g), repr(h), repr(x)) == (m[3], m[4], m[5])
    assert witness.rhs == (
        f"(g h) x = {model.apply(broken(g, h), x)}; g (h x) = {model.apply(g, model.apply(h, x))}"
    )
    # a passing report keeps its sides empty
    model.mul = product
    assert all(c.lhs == c.rhs == "" for c in finite.verify_model_laws(model, 40, 2).checks)


# the rank-2 product with its swap flags ORed instead of XORed: a swapped
# element never powers back to the identity
OR_SWAP_SUITE = """
from grstacks import finite
from grstacks.suites import suite_finite

product = finite.ModelRank2.mul


def or_swap(self, g, h):
    b, s, t, z = product(self, g, h)
    return (b, g[1] | h[1], t, z)


finite.ModelRank2.mul = or_swap
print(*(c.id for c in suite_finite(seed=0, samples=25, q=5).failures))
"""


def test_a_swap_flag_that_never_clears_fails_the_finite_suite_without_hanging():
    # element orders are sizes of cyclic closures, bounded by the element
    # set, so the suite ends; a fresh process lets the timeout stop a hang
    src = os.path.dirname(os.path.dirname(finite.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", OR_SWAP_SUITE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert {"laws.rank2_twists.compose", "laws.rank2_twists.inverse"} <= set(proc.stdout.split())


def _doubled_first_coordinate_of_w(monkeypatch, cls):
    # still linear and blockwise, but it moves the pairing and the strata
    apply = cls.apply

    def doubled(self, g, pt):
        y = apply(self, g, pt)
        return y[:3] + (2 * y[3] % self.q,) + y[4:]

    monkeypatch.setattr(cls, "apply", doubled)


def test_a_broken_action_records_its_first_pairing_witness(monkeypatch):
    _doubled_first_coordinate_of_w(monkeypatch, finite.ModelSL3Swap)
    failed = {c.id: c for c in finite.verify_q6_claims(5).failures}
    m = re.fullmatch(r"seed 5 sample (\d+): x = (.+), g = (.+)", failed["pairing.invariant"].lhs)
    model = finite.ModelSL3Swap(5)
    rng = random.Random(5)
    for j in range(int(m[1]) + 1):
        x = tuple(finite._draws(rng, 5, 6))
        g = model.sample(rng)
        y = model.apply(g, x)
        moved = finite._dot(x[:3], x[3:], 5) != finite._dot(y[:3], y[3:], 5)
        assert moved == (j == int(m[1]))
    assert (repr(x), repr(g)) == (m[2], m[3])
    assert failed["pairing.invariant"].rhs.startswith(f"g x = {y}; ")


def test_a_broken_stratum_map_records_its_first_witness(monkeypatch):
    # a classification that singles out v = (1, 1, *) is not invariant, and
    # only a few of the sampled points meet it
    stratum_of = finite.stratum_of

    def broken(pt, q):
        return "S0" if pt[:2] == (1, 1) else stratum_of(pt, q)

    monkeypatch.setattr(finite, "stratum_of", broken)
    failed = {c.id: c for c in finite.verify_strata_partition(13).failures}
    m = re.fullmatch(r"seed 13 sample (\d+): x = (.+)", failed["invariance"].lhs)
    i = int(m[1])
    flat = finite._draws(random.Random(13), 13, 6 * (i + 1))
    assert repr(tuple(flat[-6:])) == m[2]
    model = finite.ModelUnitriangular(13)
    for j in range(i + 1):
        x = tuple(flat[6 * j : 6 * j + 6])
        kept = all(broken(model.apply(g, x), 13) == broken(x, 13) for g in model.generators)
        assert kept == (j != i)
    assert re.fullmatch(
        r"generator \d image = \(.+\); strata = S\d+ -> S\d+", failed["invariance"].rhs
    )


def test_a_broken_stratum_map_records_its_first_witnesses_at_5(monkeypatch):
    # every point is enumerated at q = 5, so the witness index is the point's
    # place in product order, and the strata no longer hold whole orbits
    stratum_of = finite.stratum_of
    monkeypatch.setattr(finite, "stratum_of", lambda pt, q: "S0" if pt[:2] == (1, 1) else stratum_of(pt, q))
    failed = {c.id: c for c in finite.verify_strata_partition(5).failures}
    m = re.fullmatch(r"seed 5 sample (\d+): x = (.+)", failed["invariance"].lhs)
    points = list(itertools.product(range(5), repeat=6))
    x = points[int(m[1])]
    assert m[2] == repr(x) and x[:2] != (1, 1)
    assert re.fullmatch(r"generator \d image = \(.+\); strata = S\d+ -> S0", failed["invariance"].rhs)
    m = re.fullmatch(r"seed 5 sample (\d+): stratum = (S\d+)", failed["orbits"].lhs)
    assert m[2] == list(finite._strata_expectations(5))[int(m[1])]
    assert failed["orbits"].rhs.startswith("orbits = ")


def test_wrong_cyclotomic_products_record_their_first_witnesses(monkeypatch):
    # the suite's own view of intpoly gets a wrong Phi_7 and a wrong x^5 - 1;
    # the localized ring underneath keeps the real ones
    broken = types.SimpleNamespace(**vars(intpoly))
    broken.cyclotomic = lambda d: intpoly.cyclotomic(1) if d == 7 else intpoly.cyclotomic(d)
    broken.x_pow_minus_one = lambda n: (1, 0, 0, 0, 0, 1) if n == 5 else intpoly.x_pow_minus_one(n)
    monkeypatch.setattr(suites, "intpoly", broken)
    failed = {c.id: c for c in suite_ring(seed=0, samples=5).failures}
    assert set(failed) == {"phi.product.poly", "phi.product.class"}
    assert failed["phi.product.poly"].lhs == "seed 0 sample 7: n = 7"
    assert failed["phi.product.poly"].rhs == "product = x^2 - 2*x + 1"
    assert failed["phi.product.class"].lhs == "seed 0 sample 5: n = 5"
    assert failed["phi.product.class"].rhs.startswith("product = ")


def test_a_failed_ring_sample_records_its_first_witness(monkeypatch):
    # an inverse that negates the inverse of a unit carrying Phi_7 breaks
    # a * u / u = a and u * u^-1 = 1, but only on the samples that draw one
    inverse = suites.lc_inv

    def broken(u):
        v = inverse(u)
        return lc_neg(v) if 7 in dict(u.cyc) else v

    monkeypatch.setattr(suites, "lc_inv", broken)
    rep = suite_ring(seed=0, samples=40)
    failed = {c.id: c for c in rep.failures}
    assert set(failed) == {"canonical.unique", "units.roundtrip"}
    witness = failed["canonical.unique"]
    m = re.fullmatch(r"seed 0 sample (\d+): a = (.+), u = (.+)", witness.lhs)
    i = int(m[1])
    a, u = (dsl.eval(dsl.parse(text)).scalar for text in (m[2], m[3]))
    assert 7 in dict(u.cyc) and witness.rhs == f"a * u / u = {lc_neg(a)}"
    # the index and seed draw the same sample again, and it is the first bad one
    rng = random.Random(0)
    for j in range(i + 1):
        drawn = suites._random_class(rng), suites._random_unit(rng)
        suites._random_class(rng)
        assert (7 in dict(drawn[1].cyc)) == (j == i)
    assert drawn == (a, u)
    assert failed["units.roundtrip"].lhs.startswith("seed 0 sample ")
    # a passing report keeps its sides empty
    monkeypatch.setattr(suites, "lc_inv", inverse)
    assert all(c.lhs == c.rhs == "" for c in suite_ring(seed=0, samples=40).checks)
