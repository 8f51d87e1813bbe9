"""Canonical arithmetic in the subring of Q(L) spanned by integer
polynomials times integer powers of L and of cyclotomic polynomials.

An element is stored as  core * L^l_exp * prod_d Phi_d^{m_d}  where

  - core is an integer polynomial with nonzero constant term that no
    cyclotomic polynomial divides,
  - l_exp may be negative, and the multiplicities m_d are nonzero ints.

Because Z[L] is a UFD and the Phi_d are irreducible, this factorization is
unique, so structural equality is ring equality and the unit test is just
"core is +-1".  Zero is the single value with core == (), l_exp == 0 and no
cyclotomic factors.  l_blocks builds prod_n (L^n - 1)^(e_n) straight from
L^n - 1 = prod_(d | n) Phi_d; l_pow_minus_one(n) is its one-block case.

Multiplication never re-scans cores for cyclotomic factors: a product of
two polynomials not divisible by any Phi_d is again not divisible by any
Phi_d (irreducibility), so only the L-valuation needs re-extraction.  When
one core is +-1, as it is for the unit classes the tower mostly multiplies
by, no polynomial product is formed at all.

Addition (lc_sum, and lc_add for two summands) pulls out the common factor
of all the summands, the componentwise min of their exponents, and writes
each cofactor as (L - 1)^a_i * q_i: q_i is one product, intpoly.mul of the
shifted core and the memoized powers Phi_d^m of the rest of its Phi-part
(none when that rest is empty), with no Phi-part multiplied out alone.  The
q_i are added by Horner's rule in L - 1 from the largest a_i down,
acc <- acc * (L - 1) + (the q_i with a_i = a), each step one
shift-and-subtract pass, and the sum is normalized once, from scratch.  The
tower's sums add terms whose (L - 1) powers step by one, so a pass is much
cheaper than the product by (L - 1)^a_i it replaces; a sum whose a_i are
all 0 takes no pass.

Both build polynomials whose size the operands fix in advance.  Inside a
work budget (work_budget, which dsl.eval opens for untrusted input), each
site that builds them predicts its work from the operand sizes alone and
charges it before any polynomial work.  Every non-unit product, lc_mul's
and each cofactor, is charged by one rule: its length times the bit length
of the product of its factors' L1 norms, with Phi_d^m counted as m factors
Phi_d, so a cofactor reads only the memoized Phi_d and pays before any
Phi_d^m is built.  The L1 norm is submultiplicative, so that product
bounds every coefficient of the result, and intpoly.mul's slot bound as
well.  A sum of k nonzero summands is charged (D + 1)(D + k - 1) for the
largest cofactor degree D, (D + 1)^2 for two, before its cofactors; a
cofactor's Phi_1^a is still charged as a factors though the Horner passes
add it, an upper bound on that work, and the sum's own charge covers the
passes too, at most D of them over at most D + 1 coefficients each; a
polynomial given by its coefficients (lc_poly) (D + 1)^2 for its degree
D; and a power, once, the same rule summed over its whole
square-and-multiply loop.  A charge that passes the budget raises
OverBudget.  Outside a budget, the default, nothing is predicted and no
size is bounded.

Normalization strips the L-valuation of a core and hands the rest to
intpoly.cyclotomic_part, the one scan that divides out its Phi_d factors.

A LefschetzClass is a frozen, slotted dataclass built by one hand-written
__init__ that sets each field through its slot's own setter, such as
_set_core = LefschetzClass.core.__set__: the package's one construction
idiom for its hot values (motive.MotiveExpr, the dsl syntax nodes,
gaussian and clifford).  The generated __init__ would set each field
through object.__setattr__, at about 1.5 times the cost.  Like every
frozen dataclass of the package it is stacked under frozen.refuse_writes,
so any attribute write or delete raises FrozenInstanceError.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import intpoly
from .frozen import refuse_writes


class NotAUnit(ArithmeticError):
    pass


class ZeroInverse(ZeroDivisionError):
    pass


class OverBudget(ValueError):
    """A budgeted evaluation would spend more than its work units."""


# [units spent, units allowed] inside work_budget, None (no bound) outside
_budget: ContextVar[list[int] | None] = ContextVar("work_budget", default=None)


class work_budget:  # noqa: N801 - entered as `with work_budget(units):`
    """Charge the products, sums and powers of this block to one budget of
    `units` work units, or to none when `units` is None."""

    __slots__ = ("units", "token")

    def __init__(self, units: int | None):
        self.units = units

    def __enter__(self) -> None:
        self.token = _budget.set(None if self.units is None else [0, self.units])

    def __exit__(self, *exc_info) -> None:
        _budget.reset(self.token)


def _charge(units_of) -> None:
    """Charge units_of() to the budget, calling it only inside one."""
    cell = _budget.get()
    if cell is not None:
        cell[0] += units_of()
        if cell[0] > cell[1]:
            raise OverBudget(f"the evaluation needs more than {cell[1]} work units")


def _l1(p: tuple[int, ...]) -> int:
    return sum(map(abs, p))


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class LefschetzClass:
    core: tuple[int, ...]
    l_exp: int
    cyc: tuple[tuple[int, int], ...]  # sorted (d, multiplicity), m != 0

    def __init__(self, core: tuple[int, ...], l_exp: int, cyc: tuple[tuple[int, int], ...]):
        _set_core(self, core)
        _set_l_exp(self, l_exp)
        _set_cyc(self, cyc)

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


_set_core = LefschetzClass.core.__set__
_set_l_exp = LefschetzClass.l_exp.__set__
_set_cyc = LefschetzClass.cyc.__set__

LC_ZERO = LefschetzClass(intpoly.ZERO, 0, ())
LC_ONE = LefschetzClass(intpoly.ONE, 0, ())


def lc_normalize(core, l_exp: int = 0, cyc_exps=()) -> LefschetzClass:
    """Canonical form of core * L^l_exp * prod Phi_d^cyc_exps[d] (cyc_exps a
    map or (d, m) pairs).

    Strips the L-valuation of core into l_exp; intpoly.cyclotomic_part
    divides every Phi_d out of what is left and adds the multiplicities it
    finds to those of cyc_exps.
    """
    core = intpoly.normalize(core)
    if not core:
        return LC_ZERO
    v, core = intpoly.content_and_valuation(core)
    core, exps = intpoly.cyclotomic_part(core, cyc_exps)
    cyc = tuple(sorted((d, m) for d, m in exps.items() if m))
    return LefschetzClass(core, l_exp + v, cyc)


def lc_int(n: int) -> LefschetzClass:
    return lc_normalize((n,))


def l_power(k: int) -> LefschetzClass:
    return LefschetzClass(intpoly.ONE, k, ())


def l_blocks(exps: dict[int, int]) -> LefschetzClass:
    """The unit prod_n (L^n - 1)^exps[n], with no trial division or product:
    Phi_d's multiplicity is the sum of exps[n] over the blocks n that d divides."""
    cyc: dict[int, int] = {}
    for n, e in exps.items():
        if n < 1:
            raise ValueError(f"L^n - 1 needs n >= 1, got {n}")
        for d in intpoly.divisors(n):
            cyc[d] = cyc.get(d, 0) + e
    return LefschetzClass(intpoly.ONE, 0, tuple(sorted((d, m) for d, m in cyc.items() if m)))


def l_pow_minus_one(n: int) -> LefschetzClass:
    """The class of L^n - 1, the one-block case of l_blocks."""
    return l_blocks({n: 1})


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
        _charge(lambda: (len(a.core) + len(b.core) - 1) * (_l1(a.core) * _l1(b.core)).bit_length())
        core = intpoly.mul(a.core, b.core)
    cyc = _merge_cyc(a.cyc, b.cyc) if a.cyc and b.cyc else a.cyc or b.cyc
    return LefschetzClass(core, a.l_exp + b.l_exp, cyc)


def _merge_cyc(a, b) -> tuple[tuple[int, int], ...]:
    """The sorted (d, multiplicity) tuple of the product of the Phi-parts a
    and b, both sorted: one linear merge, dropping multiplicities that cancel."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        da, db = a[i][0], b[j][0]
        if da < db:
            out.append(a[i])
            i += 1
        elif db < da:
            out.append(b[j])
            j += 1
        else:
            m = a[i][1] + b[j][1]
            if m:
                out.append((da, m))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _common_cofactors(values):
    """Write each of the nonzero canonical forms values[i] as
    F * (L - 1)^a_i * q_i, with F their common factor (componentwise min of
    exponents) and q_i an expanded integer polynomial.  Returns
    ([(a_0, q_0), (a_1, q_1), ...], l0, common)."""
    maps = [dict(x.cyc) for x in values]
    l0 = min(x.l_exp for x in values)
    common: dict[int, int] = {}
    # one walk over the key union: each cofactor's Phi-part is its exponents
    # less the min, >= 0, and covers the factors only in the common part too
    extras: list[list[tuple[int, int]]] = [[] for _ in values]
    for d in dict.fromkeys(d for x in values for d, _ in x.cyc):
        ms = [xm.get(d, 0) for xm in maps]
        low = min(ms)
        if low:
            common[d] = low
        for extra, m in zip(extras, ms):
            if m != low:
                extra.append((d, m - low))

    def units() -> int:
        # (D + 1)^2 for the normalization, D the largest degree of the
        # expanded cofactors, and D + 1 for each addition past the first
        length = max(
            len(x.core) + x.l_exp - l0 + sum(intpoly.totient(d) * m for d, m in extra)
            for x, extra in zip(values, extras)
        )
        return length * (length + len(values) - 2)

    _charge(units)
    cofactors = [_cofactor(x, x.l_exp - l0, extra) for x, extra in zip(values, extras)]
    return cofactors, l0, common


def _cofactor(x: LefschetzClass, shift: int, extra: list[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """(a, q) with (L - 1)^a * q the shifted core times the Phi-part extra:
    a is Phi_1's multiplicity in extra, which lc_sum's Horner passes add,
    and q the shifted core and every other Phi_d^m in one product.  Charged
    for the whole cofactor, Phi_1^a as a factors."""
    p = intpoly.shift(x.core, shift)
    if not extra:
        return 0, p

    def units() -> int:
        length = len(p) + sum(intpoly.totient(d) * m for d, m in extra)
        norm = math.prod((_l1(intpoly.cyclotomic(d)) ** m for d, m in extra), start=_l1(p))
        return length * norm.bit_length()

    _charge(units)
    phis = [intpoly.cyclotomic_power(d, m) for d, m in extra if d != 1]
    return dict(extra).get(1, 0), intpoly.mul(p, *phis) if phis else p


def lc_sum(values) -> LefschetzClass:
    """The sum of any number of classes, over their one common factor: the
    cofactors (L - 1)^a_i * q_i are added by Horner's rule in L - 1 from the
    largest a_i down, one shift-and-subtract pass per step, and the sum is
    normalized once, not once per term."""
    terms = [x for x in values if x.core]
    if len(terms) <= 1:
        return terms[0] if terms else LC_ZERO
    cofactors, l0, common = _common_cofactors(terms)
    by_power: dict[int, list[tuple[int, ...]]] = {}
    for a, q in cofactors:
        by_power.setdefault(a, []).append(q)
    # each addition strip-free, as lc_normalize strips the sum once
    acc: list[int] = []
    for a in range(max(by_power), -1, -1):
        for q in by_power.get(a, ()):
            acc = [*map(add, acc, q), *acc[len(q) :], *q[len(acc) :]]
        if a:
            acc = intpoly._mul_binomial(acc, 1)
    return lc_normalize(acc, l0, common)


def lc_add(a: LefschetzClass, b: LefschetzClass) -> LefschetzClass:
    return lc_sum((a, b))


def lc_poly(coeffs) -> LefschetzClass:
    """The class of the integer polynomial sum_i coeffs[i] * L^i.

    Charged as a sum is, (D + 1)^2 for the degree D of the core left once
    the L-valuation is stripped, and normalized once, so a sum of monomials
    costs one normalization instead of one per term.
    """
    core = intpoly.normalize(coeffs)
    if not core:
        return LC_ZERO
    v, core = intpoly.content_and_valuation(core)
    _charge(lambda: len(core) ** 2)
    return lc_normalize(core, v)


def _power_units(p: tuple[int, ...], k: int) -> int:
    """An upper bound on what lc_mul would charge for lc_pow's loop for p^k:
    lc_mul's rule written in logarithms, as the loop's products do not
    exist yet when it is charged.

    The step that leaves p^(k >> t) squares and, on a set bit, multiplies by
    p, so each product builds some p^m with m <= k >> t, of length
    n = m*deg(p) + 1.  Its factors are powers of p whose L1 norms multiply
    to at most |p|_1^m (|p|_1 the sum of p's absolute coefficients), of at
    most m*log2|p|_1 + 1 bits; the count adds one bit for the float's
    rounding and bitlen(n) + 2 to spare.
    """
    deg, log_norm = len(p) - 1, math.log2(_l1(p))

    def units(m: int) -> int:
        n = m * deg + 1
        return n * (int(m * log_norm) + 4 + n.bit_length())

    return sum((1 + (k >> t & 1)) * units(k >> t) for t in range(k.bit_length() - 1))


def lc_pow(a: LefschetzClass, k: int) -> LefschetzClass:
    """a^k = core^k * L^(k * l_exp) * prod Phi_d^(k * m_d).

    A power of a Phi-free core with a nonzero constant term is again one,
    so the core is raised alone, square-and-multiply from the top bit of k,
    with no normalization.  Inside a work budget the whole loop is charged
    once, before its first product.
    """
    if k < 0:
        raise ValueError(f"lc_pow needs k >= 0, got {k}; invert first")
    if not k:
        return LC_ONE
    if not a.core:
        return LC_ZERO
    if a.is_unit():
        core = a.core if k & 1 else intpoly.ONE
    else:
        _charge(lambda: _power_units(a.core, k))
        core = a.core
        for bit in bin(k)[3:]:
            core = intpoly.mul(core, core)
            if bit == "1":
                core = intpoly.mul(core, a.core)
    return LefschetzClass(core, a.l_exp * k, tuple((d, m * k) for d, m in a.cyc))


def lc_inv(a: LefschetzClass) -> LefschetzClass:
    if not a.core:
        raise ZeroInverse("zero has no inverse")
    if a.core == (1,):
        sign = intpoly.ONE
    elif a.core == (-1,):
        sign = (-1,)
    else:
        # named by its size: the core itself may be too long to print
        bits = max(map(abs, a.core)).bit_length()
        raise NotAUnit(
            f"not a unit: core of degree {len(a.core) - 1} with coefficients of up to {bits} bits"
        )
    return LefschetzClass(sign, -a.l_exp, tuple((d, -m) for d, m in a.cyc))


def lc_eq(a: LefschetzClass, b: LefschetzClass) -> bool:
    """Structural equality; canonicity makes it ring equality.

    _cross_multiply_eq is the independent oracle the tests and the ring
    suite compare it against.
    """
    return a == b


def _cross_multiply_eq(a: LefschetzClass, b: LefschetzClass) -> bool:
    """Compare by clearing the common factor and expanding both cofactors in
    full, Phi_1^a by a product too, with no Horner pass."""
    if not a.core or not b.core:
        return (not a.core) == (not b.core)
    cofactors, _, _ = _common_cofactors((a, b))
    pa, pb = (intpoly.mul(q, intpoly.cyclotomic_power(1, m)) if m else q for m, q in cofactors)
    return pa == pb


def _check_point(q: int) -> None:
    if q < 2:
        raise ValueError("specialization point must be >= 2")


def lc_eval_digits(a: LefschetzClass, q: int) -> int:
    """Estimated count of decimal digits in lc_eval_at(a, q).

    The larger of the numerator's and the denominator's: each is its degree
    in L times log10(q), since Phi_d(q) is q^totient(d) up to a bounded
    factor, and the numerator adds the digits of len(core) * max|c|, which
    bounds |core(q)| / q^deg(core).  It costs no big-integer work.
    """
    _check_point(q)
    if not a.core:
        return 1
    top = intpoly.degree(a.core) + max(a.l_exp, 0)
    bottom = max(-a.l_exp, 0)
    for d, m in a.cyc:
        if m > 0:
            top += intpoly.totient(d) * m
        else:
            bottom -= intpoly.totient(d) * m
    # exact arithmetic on the float logarithms, so no degree overflows a float
    log_q = Fraction(math.log10(q))
    coeff = Fraction(max(map(abs, a.core)).bit_length() * math.log10(2) + math.log10(len(a.core)))
    return math.ceil(max(top * log_q + coeff, bottom * log_q))


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
    multiplicity of d's sign, emit (L^d - 1) to the most they share.  Returns
    (blocks, leftover) as lists of (n, exponent) / (d, exponent).
    """
    exps = {d: m for d, m in cyc}
    blocks: list[tuple[int, int]] = []
    leftover: list[tuple[int, int]] = []
    # keys are only ever removed, so one descending pass meets each survivor
    for d in sorted(exps, reverse=True):
        if d not in exps:
            continue
        s = 1 if exps[d] > 0 else -1
        divisors = intpoly.divisors(d)
        count = min(exps.get(e, 0) * s for e in divisors)
        if count >= 1:
            for e in divisors:
                exps[e] -= s * count
                if exps[e] == 0:
                    del exps[e]
            blocks.append((d, s * count))
        # what a block leaves of d has a divisor at zero, so it stays left over
        if d in exps:
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
