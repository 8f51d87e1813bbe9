"""The two display-by-display verification ledgers, as rows of DSL text.

Each row replays one displayed identity from the rank-7 exceptional-group
computation or the 7/8-dimensional spin computations.  A row is

    (check id, lhs text, rhs text, detail)

and both sides are expressions of the `grstacks eval` language, so every
side can be pasted into `grstacks eval` as it stands.  `run_ledger` parses
and evaluates each side with `dsl.parse`/`dsl.eval`, compares the two exact
values and records both rendered sides.  Failures are data, not exceptions:
a side whose arithmetic raises an ArithmeticError records FAIL with the
error in lhs, and the other rows still run.  A ParseError is a bug in a row
and propagates.

Values several rows share are named pieces of text spliced into the rows,
always inside parentheses: BH (the 4-dim stabilizer group), NULL7 (the
punctured null cone of the 7-dim representation), BG (the quadric
stabilizer of the 6-dim action), NINE (the nine-term stratum sum), BG2
({B G_2} as the ledger assembles it), C87 and C88 (the 8-dim null cones
under Spin_7 and Spin_8), BSPIN7 and BSPIN8.
"""

from __future__ import annotations

from . import dsl
from .report import CheckReport

Row = tuple[str, str, str, str]

BH = "L^-1 * (L^2-1)^-1"
NULL7 = "(L-1) * L^-5 * GL(2)^-1"
BG = f"(L^6-1)^-1 * (L^-3 + L^-3 * (L^2-1)^-1 + (L-1) * ({BH}))"
# the ten-stratum unipotent computation: nine quotient classes, with the
# self-referential stratum moved to the left-hand side
NINE = " + ".join(
    (
        "(L-1)^2 * L^-1",  # paired outer strata
        "(L-1)^2",  # paired mixed strata
        "(L-1)^2 * L^-2",  # paired inner strata
        "(L^3-1) * L^-3",  # the axis stratum
        "(L-1)^2 * L^-3",  # diagonal-free outer
        "(L-1)^2 * L^-1",  # diagonal-free middle
        "(L-1)^2 * L",  # diagonal-free inner
        "(L-1) * L^-1",  # middle diagonal
        "L * (L-1)",  # inner diagonal
    )
)
BG2 = "L^-6 * (L^6-1)^-1 * (L^2-1)^-1"
C87 = "L^-6 * SL(3)^-1"
C88 = "L^-6 * Spin(6)^-1"
BSPIN7 = "L^-9 * (L^2-1)^-1 * (L^4-1)^-1 * (L^6-1)^-1"
BSPIN8 = f"(L^8-1)^-1 * (({C88}) + (L-1) * ({BSPIN7}))"

G2_LEDGER: tuple[Row, ...] = (
    # class formula for the rank-2 exceptional group, both displayed shapes
    ("g2.class_formula", "L^14 * (1 - L^-2) * (1 - L^-6)", "G2()",
     "L^14 (1 - L^-2)(1 - L^-6) = L^6 (L^2-1)(L^6-1)"),
    # the punctured-null-cone orbit value in the 7-dim representation
    ("c7.orbit", NULL7, "L^-6 * (L^2-1)^-1", "(L-1) L^-5 {GL_2}^-1 = L^-6 (L^2-1)^-1"),
    # the quadric-stabilizer value: two-stratum split of the 6-dim action
    ("g.strat", BG, "(L^6-1)^-1 * (L^2-1)^-1",
     "(L^6-1)^-1 (L^-3 + L^-3 (L^2-1)^-1 + (L-1){BH}) = (L^6-1)^-1 (L^2-1)^-1"),
    ("g.strat.bracket", "L^2 - 1 + 1 + (L-1) * L^2", "L^3", "L^2 - 1 + 1 + (L-1) L^2 = L^3"),
    # the 6-dim null-cone orbit: inverse of SL_2 class times L^-2
    ("d6.orbit", "SL(2)^-1 * L^-2", "L^-3 * (L^2-1)^-1", "{SL_2}^-1 L^-2 = L^-3 (L^2-1)^-1"),
    ("strata.sum", NINE, "(L^6 - L) * L^-3", "nine-term stratum sum = (L^6 - L) L^-3"),
    # the full equation (L^6-1) X = sum + (L-1) X then forces X = L^-3
    ("strata.solve", f"(L^6 - L)^-1 * ({NINE})", "L^-3", "(L^6 - L)^-1 * sum = L^-3"),
    # the 4-dim stabilizer group: three-stratum split
    ("h.value", "(L^4-1)^-1 * (1 + L^-1 + (L-1))", BH,
     "(L^4-1)^-1 (1 + L^-1 + (L-1)) = L^-1 (L^2-1)^-1"),
    ("c4.split", "2 * L^-1 + (L-2) * L^-1", "1", "2 L^-1 + (L-2) L^-1 = 1"),
    # final assembly in the 7-dim representation
    ("bg2.final", f"(L^7-1)^-1 * (({NULL7}) + (L-1) * ({BG}))", BG2,
     "(L^7-1)^-1 (L^-6(L^2-1)^-1 + (L-1){BG}) = L^-6 (L^6-1)^-1 (L^2-1)^-1"),
    ("bg2.final.bracket", "L^6 - 1 + (L-1) * L^6", "L^7 - 1", "L^6 - 1 + (L-1) L^6 = L^7 - 1"),
    ("bg2.unit", f"({BG2}) * G2()", "1", "{B G_2} * {G_2} = 1"),
)

SPIN78_LEDGER: tuple[Row, ...] = (
    # null-cone orbit of the 8-dim spin representation: unipotent dim 6
    # times the inverse class of SL_3
    ("c8.spin7", C87, "L^-9 * (L^3-1)^-1 * (L^2-1)^-1",
     "L^-6 {SL_3}^-1 = L^-9 (L^3-1)^-1 (L^2-1)^-1"),
    # quadric orbit: stabilizer is the rank-2 exceptional group times mu_2
    ("q8.spin7", BG2, "G2()^-1", "{B(G_2 x mu_2)} = {G_2}^-1"),
    ("bspin7.chain", f"(L^8-1)^-1 * (({C87}) + (L-1) * ({BG2}))", BSPIN7,
     "(L^8-1)^-1 (...) = L^-9 (L^2-1)^-1 (L^4-1)^-1 (L^6-1)^-1"),
    ("bspin7.bracket", "(L^3 + 1) + (L-1) * L^3", "L^4 + 1", "(L^3 + 1) + (L-1) L^3 = L^4 + 1"),
    ("bspin7.inv", BSPIN7, "Spin(7)^-1", "{B Spin_7} = {Spin_7}^-1"),
    ("bspin7.unit", f"({BSPIN7}) * Spin(7)", "1", "{B Spin_7}{Spin_7} = 1"),
    # 8-dim story: null cone via the rank-6 spin group semidirect a
    # 6-dim unipotent, quadric via the 7-dim spin group times mu_2, whose
    # class the 7-dim stratification computes on the left of q8.spin8
    ("c8.spin8", C88, "L^-12 * (L^3-1)^-1 * (L^2-1)^-1 * (L^4-1)^-1",
     "L^-6 {B Spin_6} = L^-12 (L^3-1)^-1 (L^2-1)^-1 (L^4-1)^-1"),
    ("q8.spin8", f"(L^8-1)^-1 * (({C87}) + (L-1) * ({BG2}))", BSPIN7,
     "{B(Spin_7 x mu_2)} = L^-9 (L^2-1)^-1 (L^4-1)^-1 (L^6-1)^-1"),
    ("bspin8.assembly", BSPIN8, "Spin(8)^-1",
     "(L^8-1)^-1 (null + (L-1) quadric) = {Spin_8}^-1"),
    ("bspin8.unit", f"({BSPIN8}) * Spin(8)", "1", "{B Spin_8}{Spin_8} = 1"),
)


def run_ledger(suite: str, rows: tuple[Row, ...], seed: int = 0) -> CheckReport:
    """Evaluate both sides of every row and record whether they agree."""
    rep = CheckReport(suite, seed)
    for id, lhs, rhs, detail in rows:
        sides = dsl.parse(lhs), dsl.parse(rhs)
        try:
            left, right = map(dsl.eval, sides)
        except ArithmeticError as exc:
            rep.add(id, False, detail, f"{type(exc).__name__}: {exc}")
            continue
        rep.add(id, left == right, detail, str(left), str(right))
    return rep
