"""The two display-by-display verification ledgers.

Each check replays one displayed identity from the rank-7 exceptional-group
computation or the 7/8-dimensional spin computations, exactly, and records
both rendered sides.  Failures are data, not exceptions: the sides, and the
values several checks share, are computed only inside the check, so one
that raises an ArithmeticError records FAIL with the error in lhs and the
other checks still run.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from .lefschetz import (
    LC_ONE,
    LefschetzClass,
    l_pow_minus_one,
    l_power,
    lc_add,
    lc_eq,
    lc_int,
    lc_inv,
    lc_mul,
    lc_normalize,
)
from .motive import class_g2, class_sl, class_spin
from .report import CheckReport

Side = Callable[[], LefschetzClass]


def _check(rep: CheckReport, id: str, lhs: Side, rhs: Side, detail: str = "") -> None:
    try:
        left, right = lhs(), rhs()
    except ArithmeticError as exc:
        rep.add(id, False, detail, f"{type(exc).__name__}: {exc}")
        return
    rep.add(id, lc_eq(left, right), detail, str(left), str(right))


L = l_power(1)
L_MINUS_1 = l_pow_minus_one(1)


def verify_g2_ledger() -> CheckReport:
    rep = CheckReport("g2")
    xm1 = l_pow_minus_one  # L^n - 1

    # class formula for the rank-2 exceptional group, both displayed shapes
    _check(
        rep,
        "g2.class_formula",
        lambda: l_power(14)
        * lc_add(LC_ONE, lc_mul(lc_int(-1), l_power(-2)))
        * lc_add(LC_ONE, lc_mul(lc_int(-1), l_power(-6))),
        class_g2,
        "L^14 (1 - L^-2)(1 - L^-6) = L^6 (L^2-1)(L^6-1)",
    )

    # the punctured-null-cone orbit value in the 7-dim representation
    @cache
    def null7() -> LefschetzClass:
        # ({GL_2} = (L^2-1)(L^2-L) = L (L^2-1)(L-1))
        return L_MINUS_1 * l_power(-5) * lc_inv(l_power(1) * xm1(2) * xm1(1))

    _check(
        rep,
        "c7.orbit",
        null7,
        lambda: l_power(-6) * lc_inv(xm1(2)),
        "(L-1) L^-5 {GL_2}^-1 = L^-6 (L^2-1)^-1",
    )

    # the quadric-stabilizer value: two-stratum split of the 6-dim action
    @cache
    def bh() -> LefschetzClass:
        return l_power(-1) * lc_inv(xm1(2))

    @cache
    def bg_val() -> LefschetzClass:
        return lc_mul(
            lc_inv(xm1(6)),
            l_power(-3) + l_power(-3) * lc_inv(xm1(2)) + L_MINUS_1 * bh(),
        )

    _check(
        rep,
        "g.strat",
        bg_val,
        lambda: lc_inv(xm1(6) * xm1(2)),
        "(L^6-1)^-1 (L^-3 + L^-3 (L^2-1)^-1 + (L-1){BH}) = (L^6-1)^-1 (L^2-1)^-1",
    )
    _check(
        rep,
        "g.strat.bracket",
        lambda: xm1(2) + LC_ONE + lc_mul(L_MINUS_1, l_power(2)),
        lambda: l_power(3),
        "L^2 - 1 + 1 + (L-1) L^2 = L^3",
    )

    # the 6-dim null-cone orbit: inverse of SL_2 class times L^-2
    _check(
        rep,
        "d6.orbit",
        lambda: lc_mul(lc_inv(class_sl(2)), l_power(-2)),
        lambda: l_power(-3) * lc_inv(xm1(2)),
        "{SL_2}^-1 L^-2 = L^-3 (L^2-1)^-1",
    )

    # the ten-stratum unipotent computation: nine quotient classes, with
    # the self-referential stratum moved to the left-hand side
    @cache
    def nine() -> LefschetzClass:
        return (
            L_MINUS_1 * L_MINUS_1 * l_power(-1)           # paired outer strata
            + L_MINUS_1 * L_MINUS_1                       # paired mixed strata
            + L_MINUS_1 * L_MINUS_1 * l_power(-2)         # paired inner strata
            + lc_mul(xm1(3), l_power(-3))                 # the axis stratum
            + L_MINUS_1 * L_MINUS_1 * l_power(-3)         # diagonal-free outer
            + L_MINUS_1 * L_MINUS_1 * l_power(-1)         # diagonal-free middle
            + L_MINUS_1 * L_MINUS_1 * L                   # diagonal-free inner
            + lc_mul(L_MINUS_1, l_power(-1))              # middle diagonal
            + lc_mul(L, L_MINUS_1)                        # inner diagonal
        )

    _check(
        rep,
        "strata.sum",
        nine,
        lambda: lc_mul(lc_normalize((0, -1, 0, 0, 0, 0, 1)), l_power(-3)),  # (L^6 - L) L^-3
        "nine-term stratum sum = (L^6 - L) L^-3",
    )
    # the full equation (L^6-1) X = sum + (L-1) X then forces X = L^-3
    _check(
        rep,
        "strata.solve",
        lambda: lc_mul(nine(), lc_inv(lc_normalize((0, -1, 0, 0, 0, 0, 1)))),
        lambda: l_power(-3),
        "(L^6 - L)^-1 * sum = L^-3",
    )

    # the 4-dim stabilizer group: three-stratum split
    _check(
        rep,
        "h.value",
        lambda: lc_mul(lc_inv(xm1(4)), LC_ONE + l_power(-1) + L_MINUS_1),
        bh,
        "(L^4-1)^-1 (1 + L^-1 + (L-1)) = L^-1 (L^2-1)^-1",
    )
    _check(
        rep,
        "c4.split",
        lambda: lc_mul(lc_int(2), l_power(-1)) + lc_mul(lc_normalize((-2, 1)), l_power(-1)),
        lambda: LC_ONE,
        "2 L^-1 + (L-2) L^-1 = 1",
    )

    # final assembly in the 7-dim representation
    @cache
    def final() -> LefschetzClass:
        return l_power(-6) * lc_inv(xm1(6) * xm1(2))

    _check(
        rep,
        "bg2.final",
        lambda: lc_mul(lc_inv(xm1(7)), null7() + lc_mul(L_MINUS_1, bg_val())),
        final,
        "(L^7-1)^-1 (L^-6(L^2-1)^-1 + (L-1){BG}) = L^-6 (L^6-1)^-1 (L^2-1)^-1",
    )
    _check(
        rep,
        "bg2.final.bracket",
        lambda: xm1(6) + lc_mul(L_MINUS_1, l_power(6)),
        lambda: xm1(7),
        "L^6 - 1 + (L-1) L^6 = L^7 - 1",
    )
    _check(
        rep,
        "bg2.unit",
        lambda: lc_mul(final(), class_g2()),
        lambda: LC_ONE,
        "{B G_2} * {G_2} = 1",
    )
    return rep


def verify_spin78_ledger() -> CheckReport:
    rep = CheckReport("spin78")
    xm1 = l_pow_minus_one

    # null-cone orbit of the 8-dim spin representation: unipotent dim 6
    # times the inverse class of SL_3
    @cache
    def c8_7() -> LefschetzClass:
        return lc_mul(l_power(-6), lc_inv(class_sl(3)))

    _check(
        rep,
        "c8.spin7",
        c8_7,
        lambda: l_power(-9) * lc_inv(xm1(3) * xm1(2)),
        "L^-6 {SL_3}^-1 = L^-9 (L^3-1)^-1 (L^2-1)^-1",
    )

    # quadric orbit: stabilizer is the rank-2 exceptional group times mu_2
    @cache
    def q8_7() -> LefschetzClass:
        return l_power(-6) * lc_inv(xm1(6) * xm1(2))

    _check(
        rep,
        "q8.spin7",
        q8_7,
        lambda: lc_inv(class_g2()),
        "{B(G_2 x mu_2)} = {G_2}^-1",
    )

    @cache
    def spin7_value() -> LefschetzClass:
        return l_power(-9) * lc_inv(xm1(2) * xm1(4) * xm1(6))

    _check(
        rep,
        "bspin7.chain",
        lambda: lc_mul(lc_inv(xm1(8)), c8_7() + lc_mul(L_MINUS_1, q8_7())),
        spin7_value,
        "(L^8-1)^-1 (...) = L^-9 (L^2-1)^-1 (L^4-1)^-1 (L^6-1)^-1",
    )
    _check(
        rep,
        "bspin7.bracket",
        lambda: lc_normalize((1, 0, 0, 1)) + lc_mul(L_MINUS_1, l_power(3)),
        lambda: lc_normalize((1, 0, 0, 0, 1)),
        "(L^3 + 1) + (L-1) L^3 = L^4 + 1",
    )
    _check(
        rep,
        "bspin7.inv",
        spin7_value,
        lambda: lc_inv(class_spin(7)),
        "{B Spin_7} = {Spin_7}^-1",
    )
    _check(
        rep,
        "bspin7.unit",
        lambda: lc_mul(spin7_value(), class_spin(7)),
        lambda: LC_ONE,
        "{B Spin_7}{Spin_7} = 1",
    )

    # 8-dim story: null cone via the rank-6 spin group semidirect a
    # 6-dim unipotent, quadric via the 7-dim spin group times mu_2
    @cache
    def c8_8() -> LefschetzClass:
        return lc_mul(l_power(-6), lc_inv(class_spin(6)))

    _check(
        rep,
        "c8.spin8",
        c8_8,
        lambda: l_power(-12) * lc_inv(xm1(3) * xm1(2) * xm1(4)),
        "L^-6 {B Spin_6} = L^-12 (L^3-1)^-1 (L^2-1)^-1 (L^4-1)^-1",
    )
    q8_8 = spin7_value
    _check(
        rep,
        "q8.spin8",
        q8_8,
        lambda: l_power(-9) * lc_inv(xm1(2) * xm1(4) * xm1(6)),
        "{B(Spin_7 x mu_2)} = L^-9 (L^2-1)^-1 (L^4-1)^-1 (L^6-1)^-1",
    )

    @cache
    def bspin8() -> LefschetzClass:
        return lc_mul(lc_inv(xm1(8)), c8_8() + lc_mul(L_MINUS_1, q8_8()))

    _check(
        rep,
        "bspin8.assembly",
        bspin8,
        lambda: lc_inv(class_spin(8)),
        "(L^8-1)^-1 (null + (L-1) quadric) = {Spin_8}^-1",
    )
    _check(
        rep,
        "bspin8.unit",
        lambda: lc_mul(bspin8(), class_spin(8)),
        lambda: LC_ONE,
        "{B Spin_8}{Spin_8} = 1",
    )
    return rep
