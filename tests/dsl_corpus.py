"""Round-trip corpus for the expression grammar: 50 expressions that parse,
evaluate, and survive parse -> eval -> render -> parse unchanged.  Also the
inputs the command line must refuse fast, shared with the budget tests."""

CORPUS = [
    "0",
    "1",
    "-1",
    "42",
    "L",
    "-L",
    "--L",
    "L^2",
    "L^-3",
    "L^0",
    "2*L^5 - 7",
    "(L-1)*(L+1)",
    "L^2 - 1",
    "(L^2-1)^-1",
    "1/(L^2-1)",
    "1/L",
    "L/(L+1) + 1/L",
    "(L^4-1)^-1*(1 + L^-1 + (L-1))",
    "2*L^-1 + (L-2)*L^-1",
    "GL(1)",
    "GL(2)",
    "SL(2)",
    "SL(3)",
    "Spin(7)",
    "Spin(8)",
    "G2()",
    "G2() * L^-6 * (L^6-1)^-1 * (L^2-1)^-1",
    "cyclo(1)",
    "cyclo(6)",
    "cyclo(2)^2 * cyclo(3)",
    "cyclo(12)^-1",
    "BDelta(2)",
    "BDelta(7)",
    "3*BDelta(2)",
    "(L-1)*BDelta(4)",
    "BDelta(2) + BDelta(4)",
    "BDelta(3) - BDelta(3)",
    "BSpin(2)",
    "BSpin(3)",
    "BSpin(7)",
    "BSpin(12)",
    "BPin(0)",
    "BPin(2)",
    "BPin(5)",
    "BG(5,4)",
    "BG(4,2)",
    "BG(6,3)",
    "BSpin(3)/(L-1)",
    "  Spin( 7 )  ",
    "-(BSpin(4) + BPin(4))*L^3",
]

# past an index or exponent bound
HUGE_SCALAR_INPUTS = ["GL(20000)", "(L+2)^20000", "cyclo(300000) + 1"]

# every leaf and exponent within its bound, the whole past the work budget
PAST_THE_BUDGET = [
    "((L+2)^2000)^2000",
    "(L+2)^2000*(L+3)^2000*(L+5)^2000",
    "cyclo(7)^2000+1",
    "GL(100)+1",
    # sums whose cofactor Phi_d^m took seconds to build before its charge
    "cyclo(2)^2000*cyclo(2)^2000*cyclo(2)^400 + 1",
    "cyclo(3)^2000*cyclo(3)^200 + 1",
]

# powers of a degree-1 core with a 4000-digit coefficient
WIDE_POWERS = [2, 100]


def wide_power(power: int) -> str:
    return f"({'9' * 4000}*L+1)^{power}"
