"""Dense univariate polynomials over the integers, plus cyclotomic factors.

A polynomial is a tuple of ints indexed by degree, with no trailing zeros;
the zero polynomial is the empty tuple.  Tuples keep values hashable, which
the memo tables downstream rely on.

mul takes any number of factors and is Kronecker substitution: each factor
is packed into one Python int, one coefficient per byte-aligned slot, with
one slot width per product, wide enough for any coefficient of the whole
product; the packed ints are multiplied (CPython's Karatsuba), and the
slots of the result are read back once.  The width reads one bound for any
number of factors: max|A| times the product of the other factors' L1
norms, A the longest factor.  A coefficient of A B is at most max|A| L1(B),
L1 is submultiplicative and each input coefficient is at most its own L1
norm.
A half-slot offset makes every slot non-negative, so signed coefficients
pack and unpack without borrows, and both directions are linear in the
length.

cyclotomic(d) is the Moebius product  prod_{s | d squarefree}
(x^{d/s} - 1)^{mu(s)}:  multiplying by x^k - 1 is a shift and subtract,
dividing exactly by it is a running sum with stride k.  Its binomials come
from one memoized walk, _moebius_binomials(d), ordered so that every running
product is a polynomial; it alone refuses d < 1, and every Phi_d operation
reads it: cyclotomic walks it forward on polynomials, cyclotomic_at forward
at an integer (one exact division per mu = -1 step), totient sums it, and
cyclotomic_quotient, the one exact division by Phi_d, walks it backwards on
a core longer than SHORT_CORE, dividing by each mu = +1 binomial and
multiplying by each mu = -1 one (a remainder raises NotDivisible): linear
passes in place of a long division whose cost is the core's length times
the terms of Phi_d.  A shorter core takes one long division (monic_div),
which is cheaper there.
cyclotomic_divides decides Phi_d | p without dividing p: Phi_d divides
x^d - 1, so it divides p iff it divides p mod (x^d - 1), whose degree is
below d, and Phi_1 divides p iff p(1) = 0.  phi_bounded(m)
enumerates every d with totient(d) <= m.  The latter is the complete
candidate set for cyclotomic trial division: if Phi_d divides a polynomial
of degree m then totient(d) <= m, and every prime p dividing such a d
satisfies p - 1 <= totient(d) <= m, so a DFS over prime factorizations with
totient budget m finds all of them.  The DFS runs once per power-of-two
budget, and phi_bounded(m) filters the walk for the least one >= m.
phi_bounded_at(m, t) is the matching table of values Phi_d(t), aligned with
phi_bounded(m), so a candidate scan at the point t reads each value from
one tuple instead of making one cyclotomic_at call per candidate.

cyclotomic_part(p) is that scan, the one place that divides the Phi_d out
of a polynomial with a nonzero constant term (lefschetz.lc_normalize makes
every class canonical through it).  It evaluates p at the least t >= 2 with
p(t) != 0, and once at the second point s = t + 1, and walks
phi_bounded(deg p) beside phi_bounded_at(deg p, t); t >= 2, so every value
is at least 1.  The walk passes one lazy filter: Phi_d(t) divides the point
p(t) as it stands after the divisions so far, a prefilter that rejects most
candidates without touching p.  A candidate that passes reads Phi_d(s)
from the memoized cyclotomic_at and divides p as long as four tests pass,
cheapest first: p is not yet a constant, Phi_d(t) divides the point,
Phi_d(s) divides the second point, and the exact residue test
cyclotomic_divides holds (the first round needs only the last two: the
filter has just tested the point, and p is not yet a constant); each pass
divides p once by cyclotomic_quotient, so every division succeeds.  Both
points are divided with it, exactly, since p(t) = Phi_d(t) * quotient(t)
and likewise at s, rather than evaluated again.  Once p is a constant the
scan stops.
Both point tests are necessary conditions, so they reject only what the
residue test would: Phi_d is monic with integer coefficients, so
Phi_d | p in Z[x] gives Phi_d(n) | p(n) for every integer n.  A second
point pays where the first cannot: Phi_d(2) is small for small d (Phi_2(2)
= 3, Phi_1(2) = 1), so the first point lets a third of those candidates
through, and Phi_d(3) rejects most of them.  p(s) = 0 needs no case of its
own: every value divides 0, so the second test then passes every
candidate, which is still sound.  Moving the one point to 3 instead slows
the big cores of a cold tower, whose every candidate would then be tested
against a larger Phi_d(3); the second point reads Phi_d(3) only for the
candidates the first lets through.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from itertools import accumulate, zip_longest
from operator import neg as _negate, sub as _subtract

class NotDivisible(ArithmeticError):
    """An exact division left a remainder."""


ZERO: tuple[int, ...] = ()
ONE: tuple[int, ...] = (1,)


def normalize(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: tuple[int, ...]) -> int:
    # degree of the zero polynomial is -1 by convention
    return len(p) - 1


def add(*ps: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of any number of polynomials."""
    return normalize(map(sum, zip_longest(*ps, fillvalue=0)))


def neg(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in p)


def mul(*ps: tuple[int, ...]) -> tuple[int, ...]:
    """The product of any number of polynomials, by one Kronecker
    substitution (see the module docstring); ONE for none."""
    if len(ps) < 2:
        return ps[0] if ps else ONE
    if not all(ps):
        return ZERO
    n = sum(map(len, ps)) - len(ps) + 1
    # every input and product coefficient is at most this bound in absolute
    # value, and a slot of w bytes holds [-2^(8w-1), 2^(8w-1)) after the offset
    i = max(range(len(ps)), key=lambda j: len(ps[j]))
    others = ps[:i] + ps[i + 1 :]
    bound = max(max(map(abs, ps[i])), 1) * math.prod(max(sum(map(abs, p)), 1) for p in others)
    w = (bound.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    prod = math.prod(_pack(p, w, half) for p in ps) + _halves(n, w)
    data = prod.to_bytes(n * w, "little")
    return tuple(int.from_bytes(data[i : i + w], "little") - half for i in range(0, n * w, w))


def _halves(n: int, w: int) -> int:
    """The int with the half-slot offset 2^(8w-1) in each of n slots of w
    bytes: each slot's top byte is 0x80."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(p: tuple[int, ...], w: int, half: int) -> int:
    """sum p[i] * 2^(8wi), built from the offset (non-negative) slots."""
    data = b"".join((c + half).to_bytes(w, "little") for c in p)
    return int.from_bytes(data, "little") - _halves(len(p), w)


def shift(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply by x^k (k >= 0)."""
    if not p:
        return ZERO
    return (0,) * k + p


def _long_division(p: tuple[int, ...], d: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p (len(p) >= len(d)) by a monic d, as lists.

    The divisor being monic keeps every intermediate coefficient an integer.
    """
    rem = list(p)
    quot = [0] * (len(p) - len(d) + 1)
    terms = [(j, b) for j, b in enumerate(d) if b]
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(d) - 1]
        if c:
            quot[i] = c
            for j, b in terms:
                rem[i + j] -= c * b
    return quot, rem[: len(d) - 1]


def monic_div(p: tuple[int, ...], d: tuple[int, ...]):
    """Exact division by a monic divisor; None if the remainder is nonzero."""
    if not d or d[-1] != 1:
        raise ValueError(f"divisor must be monic, got {d!r}")
    if not p:
        return ZERO
    if len(p) < len(d):
        return None
    quot, rem = _long_division(p, d)
    if any(rem):
        return None
    return normalize(quot)


def cyclotomic_divides(p: tuple[int, ...], d: int) -> bool:
    """Whether Phi_d divides p, by dividing only p mod (x^d - 1).

    Phi_d divides x^d - 1, so it divides p iff it divides the residue; the
    residue takes at most d slice sums and has degree below d.  Phi_1 = x - 1
    divides p iff p(1) = 0.
    """
    if d == 1:
        return not sum(p)
    r = [sum(p[i::d]) for i in range(min(d, len(p)))]
    while r and not r[-1]:
        r.pop()
    phi = cyclotomic(d)
    if len(r) < len(phi):
        return not r
    return not any(_long_division(r, phi)[1])


# A core of at most this many coefficients is divided by Phi_d in one long
# division, a longer one through Phi_d's Moebius binomials, whose 2^omega(d)
# list passes cost more than one long division on short cores.  Timed on the
# divisions that recorded tower-cold and eval-roundtrip normalizations make
# (Python 3.11, 2-vCPU x86 host): long division 2.2 us against 3.2 us on 4-7
# coefficients, where most of the DSL's divisions fall; the two meet at 12-19;
# 62 us against 23 us at 128 and more, where most of the tower's fall.
SHORT_CORE = 16


def cyclotomic_quotient(p: tuple[int, ...], d: int) -> tuple[int, ...]:
    """p / Phi_d, exact; NotDivisible if Phi_d does not divide p.

    A short core (at most SHORT_CORE coefficients) takes one long division.
    A longer one runs the walk that builds Phi_d backwards, dividing by each
    mu = +1 binomial and multiplying by each mu = -1 one: after undoing the
    steps past the j-th, the value is p / Phi_d times the j-th running
    product, a polynomial whenever Phi_d divides p, so every division is
    exact; otherwise some division leaves a remainder.
    """
    if len(p) <= SHORT_CORE:
        q = monic_div(p, cyclotomic(d))
        if q is None:
            raise NotDivisible(f"Phi_{d} leaves a remainder")
        return q
    q = list(p)
    for k, mu in reversed(_moebius_binomials(d)):
        q = _div_binomial(q, k) if mu > 0 else _mul_binomial(q, k)
    return tuple(q)


def eval_at(p: tuple[int, ...], x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def content_and_valuation(p: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Return (v, q) with p = x^v * q and q(0) != 0; p must be nonzero."""
    v = 0
    while p[v] == 0:
        v += 1
    return v, p[v:]


def x_pow_minus_one(n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError(f"x^n - 1 needs n >= 1, got {n}")
    return (-1,) + (0,) * (n - 1) + (1,)


def _mul_binomial(p: list[int], k: int) -> list[int]:
    """p * (x^k - 1): shift by k, subtract p."""
    out = [0] * k + p
    out[: len(p)] = map(_subtract, out[: len(p)], p)
    return out


def _div_binomial(p: list[int], k: int) -> list[int]:
    """p / (x^k - 1), exact, as a running sum with stride k.

    From p_i = q_{i-k} - q_i, each residue class of q mod k is the negated
    prefix sum of p's; the top k coefficients of p are the remainder check.
    """
    m = len(p) - k
    if m <= 0:
        raise NotDivisible(f"x^{k} - 1 does not divide a polynomial of degree {len(p) - 1}")
    q = [0] * m
    for r in range(min(k, m)):
        q[r::k] = accumulate(map(_negate, p[r:m:k]))
    if p[m:] != [0] * max(k - m, 0) + q[max(m - k, 0) :]:
        raise NotDivisible(f"x^{k} - 1 leaves a remainder")
    return q


def _prime_factors(d: int) -> list[int]:
    """The primes dividing d >= 1, ascending, each as often as it divides d."""
    out, r, p = [], d, 2
    while p * p <= r:
        while r % p == 0:
            out.append(p)
            r //= p
        p += 1
    return out + [r] * (r > 1)


@cache
def divisors(d: int) -> tuple[int, ...]:
    """Every divisor of d >= 1, ascending, from its prime factors."""
    out = {1}
    for p in _prime_factors(d):
        out |= {k * p for k in out}
    return tuple(sorted(out))


@cache
def _moebius_binomials(d: int) -> tuple[tuple[int, int], ...]:
    """(d/s, mu(s)) over squarefree s | d, in an order whose running
    product stays a polynomial: the one walk every Phi_d operation reads.

    s runs over the divisors of p_1 ... p_j one prime at a time, and after
    the j-th prime the running product is Phi_{p_1...p_j}(x^(d/(p_1...p_j))).
    Within one prime's batch the mu(s) = +1 factors come first, so each
    mu(s) = -1 factor after them divides exactly.
    """
    if d < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {d}")
    out = [(d, 1)]
    for p in dict.fromkeys(_prime_factors(d)):
        out += sorted(((k // p, -mu) for k, mu in out), key=lambda e: -e[1])
    return tuple(out)


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial, as an integer tuple."""
    p = [1]
    for k, mu in _moebius_binomials(d):
        p = _mul_binomial(p, k) if mu > 0 else _div_binomial(p, k)
    return tuple(p)


def totient(d: int) -> int:
    """deg Phi_d, from the same Moebius binomials that build Phi_d."""
    return sum(mu * k for k, mu in _moebius_binomials(d))


@cache
def cyclotomic_power(d: int, m: int) -> tuple[int, ...]:
    """Phi_d^m for m >= 1, from memoized halves."""
    if m == 1:
        return cyclotomic(d)
    return mul(cyclotomic_power(d, m // 2), cyclotomic_power(d, m - m // 2))


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i in range(2, n + 1) if sieve[i]]


@cache
def _phi_walk(m: int) -> tuple[tuple[int, int], ...]:
    """(d, totient(d)) for every d with totient(d) <= m, ascending in d.

    Complete because every prime factor p of such a d has p - 1 <= m, and
    the DFS below walks all products of such primes whose totient stays
    within budget.
    """
    primes = _primes_upto(m + 1)
    found: list[tuple[int, int]] = []

    def rec(start: int, d: int, tot: int) -> None:
        found.append((d, tot))
        for idx in range(start, len(primes)):
            p = primes[idx]
            t = tot * (p - 1)
            if t > m:
                break  # primes ascend, so every later p - 1 is larger too
            dd, tt = d * p, t
            while tt <= m:
                rec(idx + 1, dd, tt)
                dd *= p
                tt *= p

    rec(0, 1, 1)
    found.sort()
    return tuple(found)


@cache
def phi_bounded(m: int) -> tuple[int, ...]:
    """All d >= 1 with totient(d) <= m, ascending.

    A filter of the walk for the least power of two >= m, so a run of
    growing degrees walks once per power of two, not once per degree.
    """
    if m < 1:
        return ()
    return tuple(d for d, t in _phi_walk(1 << (m - 1).bit_length()) if t <= m)


@cache
def cyclotomic_at(d: int, t: int) -> int:
    """Phi_d(t) for an integer t, by the walk that builds Phi_d, at t:
    each running product is a polynomial, so each division is exact.

    Avoids materializing Phi_d during divisibility prefiltering.
    """
    val = 1
    for k, mu in _moebius_binomials(d):
        if mu > 0:
            val *= t**k - 1
        else:
            val, rem = divmod(val, t**k - 1)
            if rem:
                raise NotDivisible(f"Moebius walk for Phi_{d}({t}) is not exact")
    return val


@cache
def phi_bounded_at(m: int, t: int) -> tuple[int, ...]:
    """Phi_d(t) for every d of phi_bounded(m), in its order (each >= 1 for
    t >= 2).  Values only, not (d, value) pairs: the table lives beside
    phi_bounded(m), and a pair per candidate would cost about 56 bytes more."""
    return tuple(cyclotomic_at(d, t) for d in phi_bounded(m))


def cyclotomic_part(p: tuple[int, ...], exps=()) -> tuple[tuple[int, ...], dict[int, int]]:
    """(q, exps) with p = q * prod_d Phi_d^exps[d] and no Phi_d dividing q,
    for p with a nonzero constant term: the scan of the module docstring,
    its candidates read through one lazy filter on the current point p(t),
    and the residue test run only where Phi_d(t + 1) divides p(t + 1) too.
    Both are necessary conditions (Phi_d is monic, so Phi_d | p gives
    Phi_d(n) | p(n) at every integer n), so neither changes the result.

    The multiplicities found are added to a copy of exps (a map or (d, m)
    pairs); a leading coefficient that moved raises NotDivisible.
    """
    exps, lead, deg = dict(exps), p[-1], len(p) - 1
    t, point = 2, eval_at(p, 2)
    while point == 0:
        t += 1
        point = eval_at(p, t)
    second = eval_at(p, t + 1)
    # lazy, so the filter reads the point as the divisions so far left it
    for d, phi_t in ((d, v) for d, v in zip(phi_bounded(deg), phi_bounded_at(deg, t)) if not point % v):
        # the filter has just tested the point and p is not yet a constant,
        # so the first round needs only the second point and the residue
        # test; p(t) was Phi_d(t) * quotient(t), and p(t + 1) likewise, so
        # each division of a point is exact, and Phi_d not dividing either
        # new point rules Phi_d out
        phi_s = cyclotomic_at(d, t + 1)
        divides = not second % phi_s and cyclotomic_divides(p, d)
        while divides:
            p = cyclotomic_quotient(p, d)
            exps[d] = exps.get(d, 0) + 1
            point //= phi_t
            second //= phi_s
            divides = len(p) > 1 and not point % phi_t and not second % phi_s and cyclotomic_divides(p, d)
        if len(p) == 1:
            break
    # exact division by monic factors keeps the leading coefficient
    if p[-1] != lead:
        raise NotDivisible(f"leading coefficient moved from {lead} to {p[-1]}")
    return p, exps


def digit_limit() -> int:
    """The interpreter's int_max_str_digits, 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def to_text(p: tuple[int, ...], var: str = "L") -> str:
    """Render as a sum of monomials, highest degree first (ValueError past the digit limit)."""
    if not p:
        return "0"
    limit = digit_limit()
    big = max(max(p), -min(p))
    # 10^limit has more than 3 * limit bits, so a shorter coefficient is short
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"a coefficient has more digits than the {limit} the interpreter prints")
    parts: list[str] = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = var if i == 1 else f"{var}^{i}"
        else:
            body = f"{abs(c)}*{var}" if i == 1 else f"{abs(c)}*{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
