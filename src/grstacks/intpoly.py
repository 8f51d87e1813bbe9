"""Dense univariate polynomials over the integers, plus cyclotomic factors.

A polynomial is a tuple of ints indexed by degree, with no trailing zeros;
the zero polynomial is the empty tuple.  Tuples keep values hashable, which
the memo tables downstream rely on.

The only nontrivial exports are cyclotomic(d), computed by the recurrence
Phi_d = (x^d - 1) / prod_{e|d, e<d} Phi_e with exact monic division, and
phi_bounded(m), which enumerates every d with totient(d) <= m.  The latter
is the complete candidate set for cyclotomic trial division: if Phi_d
divides a polynomial of degree m then totient(d) <= m, and every prime
p dividing such a d satisfies p - 1 <= totient(d) <= m, so a DFS over
prime factorizations with totient budget m finds all of them.
"""

from __future__ import annotations

from functools import cache

ZERO: tuple[int, ...] = ()
ONE: tuple[int, ...] = (1,)
X: tuple[int, ...] = (0, 1)


def normalize(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: tuple[int, ...]) -> int:
    # degree of the zero polynomial is -1 by convention
    return len(p) - 1


def add(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if len(p) < len(q):
        p, q = q, p
    cs = list(p)
    for i, c in enumerate(q):
        cs[i] += c
    return normalize(cs)


def neg(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in p)


def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if not p or not q:
        return ZERO
    cs = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                cs[i + j] += a * b
    return tuple(cs)


def shift(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply by x^k (k >= 0)."""
    if not p:
        return ZERO
    return (0,) * k + p


def monic_div(p: tuple[int, ...], d: tuple[int, ...]):
    """Exact division by a monic divisor; None if the remainder is nonzero.

    The divisor being monic keeps every intermediate coefficient an integer.
    """
    assert d and d[-1] == 1
    if not p:
        return ZERO
    if len(p) < len(d):
        return None
    rem = list(p)
    quot = [0] * (len(p) - len(d) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(d) - 1]
        if c:
            quot[i] = c
            for j, b in enumerate(d):
                rem[i + j] -= c * b
    if any(rem[: len(d) - 1]):
        return None
    return normalize(quot)


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
    return (-1,) + (0,) * (n - 1) + (1,)


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial, as an integer tuple."""
    if d == 1:
        return (-1, 1)
    p = x_pow_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            q = monic_div(p, cyclotomic(e))
            assert q is not None
            p = q
    return p


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
def phi_bounded(m: int) -> tuple[int, ...]:
    """All d >= 1 with totient(d) <= m, ascending.

    Complete because every prime factor p of such a d has p - 1 <= m, and
    the DFS below walks all products of such primes whose totient stays
    within budget.
    """
    if m < 1:
        return ()
    primes = _primes_upto(m + 1)
    found: list[int] = []

    def rec(start: int, d: int, tot: int) -> None:
        found.append(d)
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
def cyclotomic_at(d: int, t: int) -> int:
    """Phi_d(t) for an integer t, via the Moebius product over divisors.

    Avoids materializing Phi_d during divisibility prefiltering.
    """
    if d == 1:
        return t - 1
    # factor d, then build prod (t^{d/s} - 1)^{mu(s)} over squarefree s
    fac: list[int] = []
    r, p = d, 2
    while p * p <= r:
        if r % p == 0:
            fac.append(p)
            while r % p == 0:
                r //= p
        p += 1
    if r > 1:
        fac.append(r)
    num, den = 1, 1
    for bits in range(1 << len(fac)):
        s = 1
        for i, q in enumerate(fac):
            if bits >> i & 1:
                s *= q
        term = t ** (d // s) - 1
        if bin(bits).count("1") % 2 == 0:
            num *= term
        else:
            den *= term
    val, rem = divmod(num, den)
    assert rem == 0
    return val


def to_text(p: tuple[int, ...], var: str = "L") -> str:
    """Render as a sum of monomials, highest degree first."""
    if not p:
        return "0"
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
