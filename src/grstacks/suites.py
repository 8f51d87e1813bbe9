"""Named verification suites shared by the command line and the tests.

Each builder returns one CheckReport; sub-reports from the specialized
verifiers are merged under stable id prefixes so the flat, sorted check list
of a suite is deterministic for a fixed seed.
"""

import random

from . import intpoly, ledgers
from .clifford import (
    eta_center_check,
    verify_clifford_relations,
    verify_f_properties,
    verify_phi_pin_embedding,
    verify_phi_w,
)
from .delta import verify_delta_embedding, verify_delta_structure
from .finite import (
    ModelRank2,
    ModelSL3Swap,
    ModelUnitriangular,
    classcount_sanity,
    verify_c4_structure,
    verify_model_laws,
    verify_q6_claims,
    verify_strata_partition,
)
from .lefschetz import (
    LC_ONE,
    LC_ZERO,
    LefschetzClass,
    NotAUnit,
    ZeroInverse,
    _cross_multiply_eq,
    l_pow_minus_one,
    l_power,
    lc_eq,
    lc_eval_at,
    lc_inv,
    lc_mul,
    lc_normalize,
    render_factors,
)
from .motive import (
    bspin,
    class_spin,
    leading_delta_coeff,
    solve_deltas,
    substitute_deltas,
)
from .report import CheckReport


def _random_unit(rng: random.Random) -> LefschetzClass:
    u = l_power(rng.randint(-6, 6))
    if rng.random() < 0.3:
        u = lc_mul(u, lc_normalize((-1,)))
    for _ in range(rng.randint(0, 3)):
        f = l_pow_minus_one(rng.randint(1, 9))
        u = lc_mul(u, f if rng.random() < 0.5 else lc_inv(f))
    if rng.random() < 0.4:
        d = rng.randint(1, 12)
        u = lc_mul(u, lc_normalize(intpoly.ONE, 0, ((d, rng.choice((-2, -1, 1, 2))),)))
    return u


def _random_class(rng: random.Random) -> LefschetzClass:
    coeffs = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
    a = lc_normalize(coeffs)
    if not a.core:
        a = LC_ONE
    return lc_mul(a, _random_unit(rng))


def suite_ring(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    rep = CheckReport("ring", seed)
    rng = random.Random(seed)
    fail, verdict = rep.fail, rep.verdict

    for i in range(samples):
        a = _random_class(rng)
        u = _random_unit(rng)
        b = lc_mul(lc_mul(a, u), lc_inv(u))
        if not (lc_eq(a, b) and _cross_multiply_eq(a, b)):
            fail("canonical.unique", i, {"a": a, "u": u}, {"a * u / u": b})
        c = _random_class(rng)
        if lc_eq(a, c) != _cross_multiply_eq(a, c):
            fail("canonical.oracle", i, {"a": a, "c": c}, {"a == c": lc_eq(a, c)})
        if lc_eq(a, a + LC_ONE):
            fail("canonical.separates", i, {"a": a}, {"a + 1": a + LC_ONE})
    verdict(
        "canonical.unique",
        f"a * u / u is structurally a again on {samples} random (class, unit) pairs",
    )
    verdict(
        "canonical.oracle",
        f"structural equality agrees with the cross-multiplication oracle on {samples} pairs",
    )
    verdict("canonical.separates", "a + 1 never collides with a")

    for n in range(1, 65):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        prod = intpoly.mul(*map(intpoly.cyclotomic, divisors))
        cls = LC_ONE
        for d in divisors:
            cls = lc_mul(cls, lc_normalize(intpoly.ONE, 0, ((d, 1),)))
        want = tuple([-1] + [0] * (n - 1) + [1])
        if prod != want:
            fail("phi.product.poly", n, {"n": n}, {"product": intpoly.to_text(prod, "x")})
        try:
            binomial = lc_normalize(intpoly.x_pow_minus_one(n))
        except ArithmeticError as exc:
            rep.error(("phi.product.class",), n, {"n": n}, exc)
            continue
        if not lc_eq(cls, binomial):
            fail("phi.product.class", n, {"n": n}, {"product": cls, "L^n - 1": binomial})
    verdict("phi.product.poly", "cyclotomic factors multiply out to x^n - 1 for n <= 64")
    verdict("phi.product.class", "the same product holds structurally in the localized ring")

    for i in range(samples):
        u = _random_unit(rng)
        one, back = lc_mul(u, lc_inv(u)), lc_inv(lc_inv(u))
        if not (lc_eq(one, LC_ONE) and lc_eq(back, u)):
            fail("units.roundtrip", i, {"u": u}, {"u * u^-1": one, "(u^-1)^-1": back})
    verdict("units.roundtrip", f"u * u^-1 = 1 and (u^-1)^-1 = u on {samples} units")

    try:
        lc_inv(lc_normalize((2, 1)))
        rep.add("units.reject", False, "inverting L + 2 should fail")
    except NotAUnit:
        try:
            lc_inv(lc_normalize(()))
            rep.add("units.reject", False, "inverting 0 should fail")
        except ZeroInverse:
            rep.add("units.reject", True, "non-units and zero are refused")

    for i in range(min(samples, 50)):
        a, b = _random_class(rng), _random_class(rng)
        at_a, at_b = lc_eval_at(a, 7), lc_eval_at(b, 7)
        at_ab, at_sum = lc_eval_at(lc_mul(a, b), 7), lc_eval_at(a + b, 7)
        if at_ab != at_a * at_b or at_sum != at_a + at_b:
            got = {"(a * b)(7)": at_ab, "(a + b)(7)": at_sum, "a(7)": at_a, "b(7)": at_b}
            fail("eval.hom", i, {"a": a, "b": b}, got)
    verdict("eval.hom", "specialization at 7 is a ring homomorphism")
    return rep


def suite_g2(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    return ledgers.run_ledger("g2", ledgers.G2_LEDGER, seed)


def suite_spin78(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    return ledgers.run_ledger("spin78", ledgers.SPIN78_LEDGER, seed)


def suite_tower(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    rep = CheckReport("tower", seed)
    for n in range(3, 31):
        check = f"lead.{n:02d}"
        try:
            # the top coefficient of bspin(n), checked against its closed form
            lead = leading_delta_coeff(n)
        except ArithmeticError as exc:
            rep.error((check,), n, {"n": n}, exc)
        else:
            stray = [m for m in bspin(n).support() if m > n - 1 or m % 2 != (n - 1) % 2]
            if not lead.is_unit() or stray:
                rep.fail(check, n, {"n": n}, {"top coefficient": render_factors(lead), "stray atoms": stray})
        rep.verdict(check, "top atom coefficient, unit flag, support bound and parity")

    try:
        sol = solve_deltas(8)
    except ArithmeticError as exc:
        sol = {}
        rep.error(("solve.allones",), 0, {"max_n": 8}, exc)
    # the rows n = 3..8 solve for the atoms 2..7; one left out reads as 0
    for m in range(2, 8):
        v = sol.get(m, LC_ZERO)
        if not lc_eq(v, LC_ONE):
            rep.fail("solve.allones", m, {"atom": f"BDelta({m})"}, {"value": render_factors(v)})
    rep.verdict("solve.allones", f"atoms {sorted(sol)} all solve to 1")
    ones = {m: LC_ONE for m in range(1, 9)}
    for n in range(2, 9):
        check = f"subst.{n}"
        try:
            got = substitute_deltas(bspin(n), ones)
            if not lc_eq(got, lc_inv(class_spin(n))):
                rep.fail(check, n, {"n": n}, {"value": render_factors(got)})
        except ArithmeticError as exc:
            rep.error((check,), n, {"n": n}, exc)
        rep.verdict(check, "all-ones substitution gives the inverse group class")
    return rep


def suite_clifford(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    rep = CheckReport("clifford", seed)
    for n in range(2, 9):
        rep.extend(verify_clifford_relations(n, samples, seed), prefix=f"n{n}.")
    for n in range(3, 9):
        rep.extend(verify_phi_pin_embedding(n, samples, seed), prefix=f"n{n}.")
        rep.extend(verify_f_properties(n, samples, seed), prefix=f"n{n}.")
        rep.extend(verify_phi_w(n, samples, seed), prefix=f"n{n}.")
    rep.extend(eta_center_check(samples, seed))
    for n in range(1, 11):
        rep.extend(verify_delta_structure(n), prefix=f"delta.{n}.")
    for n in range(2, 7):
        rep.extend(verify_delta_embedding(n), prefix=f"embed.{n}.")
    return rep


def suite_finite(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    rep = CheckReport(f"finite.q{q}", seed)
    for model in (ModelSL3Swap(q), ModelRank2(q), ModelUnitriangular(q)):
        rep.extend(
            verify_model_laws(model, samples, seed), prefix=f"laws.{model.name}."
        )
    rep.extend(verify_q6_claims(q), prefix="q6.")
    rep.extend(verify_c4_structure(q), prefix="q4.")
    rep.extend(verify_strata_partition(q), prefix="strata.")
    for qq in (3, 5):
        rep.extend(classcount_sanity(qq), prefix=f"count.{qq}.")
    return rep


def suite_all(seed: int = 0, samples: int = 100, q: int = 5) -> CheckReport:
    rep = CheckReport("all", seed)
    for name in ("ring", "g2", "spin78", "tower", "clifford", "finite"):
        rep.extend(SUITES[name](seed, samples, q), prefix=f"{name}.")
    return rep


SUITES = {
    "ring": suite_ring,
    "g2": suite_g2,
    "spin78": suite_spin78,
    "tower": suite_tower,
    "clifford": suite_clifford,
    "finite": suite_finite,
    "all": suite_all,
}
