"""Oracles that share no code with grstacks.

Everything here is plain integer or Fraction arithmetic written from the
textbook formulas, so a defect in the package's ring, tower or verifiers
cannot make an oracle agree with it by accident.

An expression tree (the input of the eval-roundtrip workload) is JSON-able:

    expr   = [term, ...]                      summed left to right
    term   = [sign, [[op, factor], ...]]      op is "*" or "/", sign is 1 or -1
    factor = [leaf, exponent]
    leaf   = ["L"] | ["int", k] | ["GL", n] | ["SL", n] | ["Spin", n] | ["G2"]
           | ["cyclo", d] | ["Lk1", k] | ["BSpin", n] | ["BDelta", m]

``Lk1`` is the group ``(L^k-1)``.  Atoms evaluate to 1, and BSpin(n) to
1/|Spin_n(F_q)|, which is the all-ones solution of the recursion tower.
"""

from __future__ import annotations

from fractions import Fraction


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    primes = _prime_factors(n)
    for p in primes:
        if n % (p * p) == 0:
            return 0
    return -1 if len(primes) % 2 else 1


def cyclotomic_value(d: int, q: int) -> int:
    """Phi_d(q) = prod over e | d of (q^e - 1)^mu(d/e), as an exact integer."""
    num = den = 1
    for e in range(1, d + 1):
        if d % e:
            continue
        mu = mobius(d // e)
        if mu == 1:
            num *= q**e - 1
        elif mu == -1:
            den *= q**e - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Moebius product for Phi_{d}({q}) is not integral")
    return value


def gl_order(n: int, q: int) -> int:
    out = q ** (n * (n - 1) // 2)
    for j in range(1, n + 1):
        out *= q**j - 1
    return out


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


def g2_order(q: int) -> int:
    return q**6 * (q**2 - 1) * (q**6 - 1)


def spin_order(n: int, q: int) -> int:
    """|Spin_n(F_q)| for the split form; n = 1 gives the trivial group."""
    m = n // 2
    if n % 2 == 0:
        out = q ** (m * m - m) * (q**m - 1)
        for i in range(1, m):
            out *= q ** (2 * i) - 1
        return out
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def leaf_value(leaf: list, q: int) -> Fraction:
    kind = leaf[0]
    if kind == "L":
        return Fraction(q)
    if kind == "int":
        return Fraction(leaf[1])
    if kind == "GL":
        return Fraction(gl_order(leaf[1], q))
    if kind == "SL":
        return Fraction(sl_order(leaf[1], q))
    if kind == "Spin":
        return Fraction(spin_order(leaf[1], q))
    if kind == "G2":
        return Fraction(g2_order(q))
    if kind == "cyclo":
        return Fraction(cyclotomic_value(leaf[1], q))
    if kind == "Lk1":
        return Fraction(q ** leaf[1] - 1)
    if kind == "BSpin":
        return Fraction(1, spin_order(leaf[1], q))
    if kind == "BDelta":
        return Fraction(1)
    raise ValueError(f"unknown leaf {leaf!r}")


def expr_value(expr: list, q: int) -> Fraction:
    """The expression at L = q with every atom set to 1."""
    total = Fraction(0)
    for sign, factors in expr:
        acc = Fraction(sign)
        for op, (leaf, exponent) in factors:
            value = leaf_value(leaf, q) ** exponent
            acc = acc * value if op == "*" else acc / value
        total += acc
    return total


# Check IDs each verifier must report, in order.  A change in this list is a
# change in what the verifier checks, so the benchmark counts it as a failure.
CLIFFORD_RELATIONS_IDS = (
    "rel.square", "rel.polar", "inv.products", "inv.compose", "rho.reflect", "rho.hom", "rho.det",
)
PHI_PIN_IDS = ("phi.cases", "phi.hom", "phi.stab", "phi.even", "phi.spin")
PHI_W_IDS = ("phiw.zero", "phiw.form", "phiw.fix", "phiw.hom")
DELTA_IDS = (
    "order", "inverses", "center", "squares", "commutators", "abelianization", "rho.image",
    "rho.fiber",
)
Q6_IDS = (
    "partition", "pairing.invariant", "pairing.orbit", "pairing.stab", "axes.orbit", "axes.stab",
    "orth.orbit", "orth.stab.divides",
)
C4_IDS = (
    "pairing.count", "pairing.orbit", "pairing.stab", "pairing.stab.shape", "orth.param",
    "orth.lambda", "orth.special.count", "orth.special.orbits", "orth.special.stab", "orth.rest",
)
STRATA_IDS = (
    "flags", "twist.conj", "bases", "partition", "invariance", "base.orbits", "fixed", "mid.stab",
    "free.stab", "deep.diag.stab",
)
LAWS_IDS = ("compose", "inverse")
LAWS_CLOSURE_IDS = ("compose", "inverse", "closure")


def f_properties_ids(n: int) -> tuple[str, ...]:
    iso = ("f.factor.iso",) if n >= 4 else ()
    return ("f.hom", "f.factor.anis") + iso + ("f.stab", "f.frame", "f.conj")
