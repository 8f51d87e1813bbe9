"""Canonical arithmetic in the subring of Q(L) spanned by integer
polynomials times integer powers of L and of cyclotomic polynomials.

An element is stored as  core * L^l_exp * prod_d Phi_d^{m_d}  where

  - core is an integer polynomial with nonzero constant term that no
    cyclotomic polynomial divides,
  - l_exp may be negative, and the multiplicities m_d are nonzero ints.

Because Z[L] is a UFD and the Phi_d are irreducible, this factorization is
unique, so structural equality is ring equality and the unit test is just
"core is +-1".  Zero is the single value with core == (), l_exp == 0 and no
cyclotomic factors.

Multiplication never re-scans cores for cyclotomic factors: a product of
two polynomials not divisible by any Phi_d is again not divisible by any
Phi_d (irreducibility), so only the L-valuation needs re-extraction.  When
one core is +-1, as it is for the unit classes the tower mostly multiplies
by, no polynomial product is formed at all.

Addition pulls out the common factor of the two operands, adds the expanded
cofactors and renormalizes the sum from scratch.  Each cofactor's Phi-part
is multiplied out first, from memoized powers Phi_d^m, and then multiplied
into the shifted core once.

Both build polynomials whose size the operands fix in advance, so each
predicts the degree of the core it would build and refuses one above
MAX_CORE_DEGREE (CoreTooLarge) before any polynomial work, and predicts
the coefficient bits of its core-sized product and refuses one above
MAX_COEFF_BITS (CoeffTooLarge) before multiplying.  A power also checks,
before its first squaring, the degree and the least coefficient bits of the
whole power, so it refuses a power it could not finish at once.

Normalization trial-divides by the complete candidate set of Phi_d.  A
candidate must pass an integer-point prefilter (Phi_d(t) | core(t)) and
then the exact residue test intpoly.cyclotomic_divides before any division
of the full core, so every such division succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import intpoly


class NotAUnit(ArithmeticError):
    pass


class ZeroInverse(ZeroDivisionError):
    pass


# Bound on the degree of the core a product or a sum's cofactor would build.
# Normalizing a sum factors its whole core, and a product's cost grows with
# degree times coefficient size.  Cold `grstacks eval` on a shared 2-vCPU
# host, by core degree: (L+2)^1000*(L+3)^1000 1.4 s, (2*L+3)^2000 1.7 s and
# cyclo(7)^333 + 1 0.2 s at 2000; (L+2)^1250*(L+3)^1250 3.7 s at 2500;
# (L+2)^1500*(L+3)^1500 6.6 s and cyclo(7)^500 + 1 0.9 s at 3000;
# (L+2)^2000*(L+3)^2000 11 s at 4000, GL(100) + 1 6.4 s at 10,000.  The
# largest core the suites build is of degree 200, in the tower suite, and
# the largest in a cold BSpin(60) or BPin(60) is of degree 838.
MAX_CORE_DEGREE = 2000


class CoreTooLarge(ValueError):
    """A product or sum would build a core above MAX_CORE_DEGREE."""


def _check_core_degree(deg: int) -> None:
    if deg > MAX_CORE_DEGREE:
        raise CoreTooLarge(f"core of degree {deg} exceeds {MAX_CORE_DEGREE}")


# Bound on the coefficient bits of a polynomial product, predicted as the two
# factors' largest bit lengths plus the bit length of the shorter length.
# With MAX_CORE_DEGREE it caps the size of the Kronecker product.  The
# product of two degree-1000 cores on a shared 2-vCPU host, by predicted
# bits: 3,834 1.0 s, 6,492 2.2 s, 8,154 3.3 s, 9,814 4.6 s, 13,136 5.4 s;
# cold `grstacks eval` of such a square plus 1 took 4.6 s at 8,154 bits.
# The largest prediction in a cold BSpin(60) or BPin(60) is 128 bits, and
# in `grstacks verify all` 34 bits.
MAX_COEFF_BITS = 8192


class CoeffTooLarge(ValueError):
    """A product would build coefficients above MAX_COEFF_BITS bits."""


def _check_product_bits(p: tuple[int, ...], q: tuple[int, ...]) -> None:
    bits = (
        max(max(p), -min(p)).bit_length()
        + max(max(q), -min(q)).bit_length()
        + min(len(p), len(q)).bit_length()
    )
    if bits > MAX_COEFF_BITS:
        raise CoeffTooLarge(f"product coefficients of {bits} bits exceed {MAX_COEFF_BITS}")


@dataclass(frozen=True, slots=True)
class LefschetzClass:
    core: tuple[int, ...]
    l_exp: int
    cyc: tuple[tuple[int, int], ...]  # sorted (d, multiplicity), m != 0

    def __bool__(self) -> bool:
        return bool(self.core)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LefschetzClass") -> "LefschetzClass":
        return lc_add(self, other)

    def __sub__(self, other: "LefschetzClass") -> "LefschetzClass":
        return lc_add(self, lc_neg(other))

    def __neg__(self) -> "LefschetzClass":
        return lc_neg(self)

    def __mul__(self, other: "LefschetzClass") -> "LefschetzClass":
        return lc_mul(self, other)

    def __pow__(self, k: int) -> "LefschetzClass":
        if k < 0:
            return lc_pow(lc_inv(self), -k)
        return lc_pow(self, k)

    def is_unit(self) -> bool:
        return self.core in ((1,), (-1,))

    def __str__(self) -> str:
        return render_factors(self)


LC_ZERO = LefschetzClass(intpoly.ZERO, 0, ())
LC_ONE = LefschetzClass(intpoly.ONE, 0, ())


def lc_normalize(core, l_exp: int = 0, cyc_exps=None) -> LefschetzClass:
    """Canonical form of core * L^l_exp * prod Phi_d^cyc_exps[d].

    Strips the L-valuation of core into l_exp, then trial-divides by every
    Phi_d whose totient is at most deg(core) -- the complete candidate set,
    see intpoly.phi_bounded.  An integer-point divisibility prefilter skips
    most failing candidates; the exact residue test settles the rest, and
    ends each multiplicity loop, without dividing the full core.
    """
    core = intpoly.normalize(core)
    exps: dict[int, int] = dict(cyc_exps) if cyc_exps else {}
    if not core:
        return LC_ZERO
    v, core = intpoly.content_and_valuation(core)
    l_exp += v
    deg = intpoly.degree(core)
    if deg > 0:
        lead = core[-1]
        t = 2
        while intpoly.eval_at(core, t) == 0:
            t += 1
        point = intpoly.eval_at(core, t)
        for d in intpoly.phi_bounded(deg):
            phi_t = intpoly.cyclotomic_at(d, t)
            if phi_t != 0 and point % phi_t:
                continue
            hit = False
            while intpoly.cyclotomic_divides(core, d):
                core = intpoly.monic_div(core, intpoly.cyclotomic(d))
                exps[d] = exps.get(d, 0) + 1
                hit = True
                if len(core) == 1:
                    break
            if len(core) == 1:
                break
            if hit:
                point = intpoly.eval_at(core, t)
        # exact division by monic factors keeps the leading coefficient
        if core[-1] != lead:
            raise intpoly.NotDivisible(f"leading coefficient moved from {lead} to {core[-1]}")
    cyc = tuple(sorted((d, m) for d, m in exps.items() if m))
    return LefschetzClass(core, l_exp, cyc)


def lc_int(n: int) -> LefschetzClass:
    return lc_normalize((n,))


def l_power(k: int) -> LefschetzClass:
    return LefschetzClass(intpoly.ONE, k, ())


def l_pow_minus_one(n: int) -> LefschetzClass:
    """The class of L^n - 1 = prod_(d | n) Phi_d, built from its known
    factorization rather than by trial division."""
    if n < 1:
        raise ValueError(f"L^n - 1 needs n >= 1, got {n}")
    return LefschetzClass(intpoly.ONE, 0, tuple((d, 1) for d in range(1, n + 1) if n % d == 0))


def lc_neg(a: LefschetzClass) -> LefschetzClass:
    if not a.core:
        return LC_ZERO
    return LefschetzClass(intpoly.neg(a.core), a.l_exp, a.cyc)


def lc_mul(a: LefschetzClass, b: LefschetzClass) -> LefschetzClass:
    if not a.core or not b.core:
        return LC_ZERO
    if b.is_unit():
        a, b = b, a
    if a.is_unit():
        # a unit core is +-1: no polynomial product needed
        core = b.core if a.core[0] == 1 else intpoly.neg(b.core)
    else:
        # cores are Phi-free so their product is; only x | core is impossible
        # too (both constant terms nonzero), hence no re-extraction at all.
        _check_core_degree(len(a.core) + len(b.core) - 2)
        _check_product_bits(a.core, b.core)
        core = intpoly.mul(a.core, b.core)
    exps: dict[int, int] = dict(a.cyc)
    for d, m in b.cyc:
        exps[d] = exps.get(d, 0) + m
    cyc = tuple(sorted((d, m) for d, m in exps.items() if m))
    return LefschetzClass(core, a.l_exp + b.l_exp, cyc)


def _common_cofactors(a: LefschetzClass, b: LefschetzClass):
    """Write a = F * pa, b = F * pb with F the common factor of the two
    canonical forms (componentwise min of exponents) and pa, pb expanded
    integer polynomials.  Returns (pa, pb, l0, common)."""
    am, bm = dict(a.cyc), dict(b.cyc)
    l0 = min(a.l_exp, b.l_exp)
    common: dict[int, int] = {}
    for d in set(am) | set(bm):
        m = min(am.get(d, 0), bm.get(d, 0))
        if m:
            common[d] = m

    def cofactor(x: LefschetzClass, xm: dict[int, int]) -> tuple[int, ...]:
        # exponent difference is >= 0 by construction of the min, but the
        # loop must cover factors present only in the common part.  The
        # small Phi-part is multiplied out first, then into the core once.
        shift = x.l_exp - l0
        deg = len(x.core) - 1 + shift
        extra = []
        for d in set(xm) | set(common):
            m = xm.get(d, 0) - common.get(d, 0)
            if m:
                extra.append((d, m))
                deg += intpoly.totient(d) * m
        _check_core_degree(deg)
        p = intpoly.shift(x.core, shift)
        if not extra:
            return p
        phis = reduce(intpoly.mul, (intpoly.cyclotomic_power(d, m) for d, m in extra))
        _check_product_bits(p, phis)
        return intpoly.mul(p, phis)

    return cofactor(a, am), cofactor(b, bm), l0, common


def lc_add(a: LefschetzClass, b: LefschetzClass) -> LefschetzClass:
    if not a.core:
        return b
    if not b.core:
        return a
    pa, pb, l0, common = _common_cofactors(a, b)
    return lc_normalize(intpoly.add(pa, pb), l0, common)


def _power_bits(c: int, k: int) -> int:
    """The bit length of |c|^k, or a lower bound above MAX_COEFF_BITS."""
    b = abs(c).bit_length()
    # |c|^k has at least k*(b - 1) + 1 bits.  Short of the bound, k is below
    # it too unless |c| = 1, so the power is cheap to compute exactly
    if k * (b - 1) >= MAX_COEFF_BITS:
        return k * (b - 1) + 1
    return (abs(c) ** k).bit_length()


def _check_power(a: LefschetzClass, k: int) -> None:
    """Refuse a^k up front when the products of lc_pow would refuse it.

    The loop's first product is a*a, checked here as lc_mul checks it.  Its
    last product multiplies a^i by a^(k-i): its core has degree k*deg(a),
    and its predicted bits are at least those of the lead and of the
    constant coefficient of a^k, which are the k-th powers of a's.
    """
    core = a.core
    _check_core_degree(2 * (len(core) - 1))
    _check_product_bits(core, core)
    _check_core_degree(k * (len(core) - 1))
    bits = max(_power_bits(core[0], k), _power_bits(core[-1], k))
    if bits > MAX_COEFF_BITS:
        raise CoeffTooLarge(f"power coefficients of at least {bits} bits exceed {MAX_COEFF_BITS}")


def lc_pow(a: LefschetzClass, k: int) -> LefschetzClass:
    if k < 0:
        raise ValueError(f"lc_pow needs k >= 0, got {k}; invert first")
    if k >= 2 and a.core and not a.is_unit():
        _check_power(a, k)
    out = LC_ONE
    base = a
    while k:
        if k & 1:
            out = lc_mul(out, base)
        base_needed = k >> 1
        if base_needed:
            base = lc_mul(base, base)
        k = base_needed
    return out


def lc_inv(a: LefschetzClass) -> LefschetzClass:
    if not a.core:
        raise ZeroInverse("zero has no inverse")
    if a.core == (1,):
        sign = intpoly.ONE
    elif a.core == (-1,):
        sign = (-1,)
    else:
        raise NotAUnit(f"not a unit: core {intpoly.to_text(a.core)}")
    return LefschetzClass(sign, -a.l_exp, tuple((d, -m) for d, m in a.cyc))


def lc_eq(a: LefschetzClass, b: LefschetzClass) -> bool:
    """Structural equality; canonicity makes it ring equality.

    _cross_multiply_eq is the independent oracle the tests and the ring
    suite compare it against.
    """
    return a == b


def _cross_multiply_eq(a: LefschetzClass, b: LefschetzClass) -> bool:
    """Compare by clearing the common factor and expanding both cofactors."""
    if not a.core or not b.core:
        return (not a.core) == (not b.core)
    pa, pb, _, _ = _common_cofactors(a, b)
    return pa == pb


def _check_point(q: int) -> None:
    if q < 2:
        raise ValueError("specialization point must be >= 2")


def lc_eval_digits(a: LefschetzClass, q: int) -> int:
    """Leading-order count of decimal digits in lc_eval_at(a, q).

    The larger of the numerator's and the denominator's degree in L, times
    log10(q): Phi_d(q) is q^totient(d) up to a bounded factor, and the
    core's coefficients are not counted.  It costs no big-integer work.
    """
    _check_point(q)
    top = intpoly.degree(a.core) + max(a.l_exp, 0)
    bottom = max(-a.l_exp, 0)
    for d, m in a.cyc:
        if m > 0:
            top += intpoly.totient(d) * m
        else:
            bottom -= intpoly.totient(d) * m
    return math.ceil(max(top, bottom) * math.log10(q))


def lc_eval_at(a: LefschetzClass, q: int) -> Fraction:
    """Exact specialization at an integer q >= 2 (Phi_d(q) > 0 there)."""
    _check_point(q)
    if not a.core:
        return Fraction(0)
    out = Fraction(intpoly.eval_at(a.core, q))
    out *= Fraction(q) ** a.l_exp
    for d, m in a.cyc:
        out *= Fraction(intpoly.cyclotomic_at(d, q)) ** m
    return out


# -- display ----------------------------------------------------------


def regroup_cyclotomics(cyc) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split Phi-multiplicities into (L^n - 1) blocks plus leftovers.

    Greedy from the largest d: when every divisor of d still carries a
    multiplicity of the same sign, emit an (L^d - 1)^sign block.  Returns
    (blocks, leftover) as lists of (n, exponent) / (d, exponent).
    """
    exps = {d: m for d, m in cyc}
    blocks: list[tuple[int, int]] = []
    leftover: list[tuple[int, int]] = []
    while exps:
        d = max(exps)
        s = 1 if exps[d] > 0 else -1
        divisors = [e for e in range(1, d + 1) if d % e == 0]
        if all(exps.get(e, 0) * s >= 1 for e in divisors):
            count = 0
            while all(exps.get(e, 0) * s >= 1 for e in divisors):
                for e in divisors:
                    exps[e] = exps.get(e, 0) - s
                    if exps[e] == 0:
                        del exps[e]
                count += s
            blocks.append((d, count))
        else:
            leftover.append((d, exps.pop(d)))
    blocks.sort()
    leftover.sort()
    return blocks, leftover


def render_factors(a: LefschetzClass) -> str:
    """Factored display, e.g. ``L^-6 * (L^6-1)^-1 * (L^2-1)^-1``.

    The output reparses in the expression grammar (cyclo(d) covers factors
    that do not regroup into (L^n - 1) blocks).
    """
    if not a.core:
        return "0"
    parts: list[str] = []
    core = a.core
    if core == (-1,):
        parts.append("-1")
    elif core != (1,):
        text = intpoly.to_text(core)
        parts.append(f"({text})" if (len(core) > 1 or core[0] < 0) else text)
    if a.l_exp:
        parts.append("L" if a.l_exp == 1 else f"L^{a.l_exp}")
    blocks, leftover = regroup_cyclotomics(a.cyc)
    for n, k in blocks:
        base = f"(L^{n}-1)" if n > 1 else "(L-1)"
        parts.append(base if k == 1 else f"{base}^{k}")
    for d, m in leftover:
        parts.append(f"cyclo({d})" if m == 1 else f"cyclo({d})^{m}")
    if not parts:
        return "1"
    return " * ".join(parts)
