"""Classifying-stack classes: known class formulas, the generic two-stratum
equation, and the recursion tower that writes the class of B Spin_n as a
linear combination of the finite-group atoms BDelta_m.

A MotiveExpr is a scalar LefschetzClass plus a finite map m -> coefficient
on formal atoms BDelta_m, held as atom terms sorted by m, each m >= 1 with
a nonzero coefficient, so structural equality is ring equality.  Its one
constructor checks the atoms, raising DomainError, before it sets each
field through its slot's setter, the construction idiom of
lefschetz.LefschetzClass.

The whole tower is one recurrence in G(n, r), r >= -1, each step a
two-stratum equation (null cone plus quadric):

  (L^(n-r) - 1) * G(n, r) = L^(r+2-n) * G(n-2, r) + (L-1) * G(n, r+1)

with bspin(m) = G(m-1, -1), bpin(n) = G(n, 0) and bg(n, r) = G(n, r) for
r >= 1.  It bottoms out at G(n, r) = 1 for n <= 0, G(1, -1) = (L-1)^-1
(so bspin(2) = (L-1)^-1), G(1, r) = 1 for r >= 0, and the collapse
G(n, r) = BDelta_n for r >= n - 1.  The rank-1 corner G(1, 1) is the
order-4 cyclic group (the diagonal preimage in rank 1); its classifying
class is recorded as the constant 1, so the atom with index 1 never occurs.

Every recursion step preserves n mod 2, so bspin(n) only supports atoms
with m == n - 1 (mod 2); in particular the n = 3..max solve in
solve_deltas is triangular with a fresh atom BDelta_(n-1) in every row.

The recurrence is linear and its coefficients depend only on k = n - r;
its two inputs sit at k - 2 and k - 1, and the atom boundary is the same
for every m.  So the coefficient of BDelta_m in G(n, r) is A(n - m, n - r)
for one table shared by every m and both parity classes:

  (L^k - 1) * A(j, k) = L^(2-k) * A(j-2, k-2) + (L-1) * A(j, k-1)

with A(0, k) = 1 and A(j > 0, k) = 0 for k <= 1, and A(j < 0, k) = 0.
The scalar bases are constant atoms of that table: G(0, r) = 1 is
BDelta_0, and the rank-1 corner G(1, r >= 0) = 1 sits at m = 1.  So the
scalar part of G(n, r) is A(n - n mod 2, n - r), and every cell the tower
reads has even j.

The table is held without division.  Write

  A(j, k) = P(k) * C(j, k) / (L-1)^(j/2),  P(k) = prod_(i=2..k) (L-1) / (L^i - 1),

so P(k) = A(0, k) is the top atom, the closed form leading_delta_coeff
checks.  Substituting into the recurrence and dividing by (L^k - 1) P(k)
/ (L-1)^(j/2) = (L-1) P(k-1) / (L-1)^(j/2) leaves, with u = L^-1 and
P(k-2) / P(k-1) = (L^(k-1) - 1) / (L-1),

  C(j, k) = C(j, k-1) + [k-1]_u * C(j-2, k-2),  [k-1]_u = 1 + u + ... + u^(k-2),

with C(0, k) = 1 for every k and C(j, k) = 0 for j < 0 and for j > k,
so for every odd j.  So C is an integer polynomial in u with non-negative
coefficients, and each step is one running sum of width k - 1 and one
addition: no product, no inverse and no normalization.  The addition
strips no trailing zeros: both terms are >= 0 with a positive top
coefficient, so their sum is one tuple sum, whichever is longer.
Unrolled, C(2i, k) is the sum, over the i-subsets S of {2..k} with no two
consecutive members, of prod_(s in S) [s-1]_u.  {2..k} has such an
i-subset exactly when 2i <= k, so that is C's support, and a cell off it
is zero with no step run.  Times (-1)^i 2^(k-2i) (1-u)^i, C(2i, k) is
the coefficient of x^(k-2i) in Rogers' continuous q-Hermite polynomial
H_k(x | u), whose combinatorics Ismail, Stanton and Viennot worked out
(Europ. J. Combin. 8, 1987).

A cell is made canonical only where the tower reads it: C(j, k), read
backwards as a polynomial in L over L^(deg C), is normalized once with
(L-1)^(-j/2).  Every cell of the row G(n, r) shares k, so the row is then
scaled by P(k) once.  P(k) and the excess D below are products of the
blocks L^i - 1, each built by lefschetz.l_blocks from its map i -> exponent:
Phi_d's multiplicity is summed over the blocks i that d divides, read from
intpoly.divisors, with no block built, inverted or multiplied.  The closed
form for P(k) counts floor(k/d) instead and never calls divisors, so it
shares no arithmetic with the tower.
Only the r = -1 row of odd n starts elsewhere, at G(1, -1) = (L-1)^-1
against A(0, 2) = (L+1)^-1 (r never decreases along the recurrence).  Both
rows read the same quadric input A(n - 1, n), so the row's excess D over
the table solves the homogeneous recurrence:

  D(1) = (L-1)^-1 - (L+1)^-1 = 2 / (L^2 - 1)
  D(n) = L^(1-n) * D(n-2) / (L^(n+1) - 1)
  D(2m - 1) = 2 * L^(-m(m-1)) / prod_(i<=m) (L^(2i) - 1)

The tower memoizes C and the assembled rows, and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import add, sub

from . import intpoly
from .frozen import refuse_writes
from .lefschetz import (
    LC_ONE,
    LC_ZERO,
    LefschetzClass,
    l_blocks,
    l_pow_minus_one,
    l_power,
    lc_add,
    lc_eq,
    lc_inv,
    lc_mul,
    lc_neg,
    lc_normalize,
    lc_sum,
    render_factors,
)


class DomainError(ValueError):
    pass


class MissingAtom(KeyError):
    pass


class Inconsistent(ArithmeticError):
    pass


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class MotiveExpr:
    scalar: LefschetzClass = LC_ZERO
    atoms: tuple[tuple[int, LefschetzClass], ...] = ()

    def __init__(
        self, scalar: LefschetzClass = LC_ZERO, atoms: tuple[tuple[int, LefschetzClass], ...] = ()
    ):
        # sorted atoms make structural equality ring equality
        last = 0
        for m, c in atoms:
            if m <= last or not c.core:
                raise DomainError("atoms need strictly ascending indices >= 1 and nonzero coefficients")
            last = m
        _set_scalar(self, scalar)
        _set_atoms(self, atoms)

    def atom_map(self) -> dict[int, LefschetzClass]:
        return dict(self.atoms)

    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.atoms)

    def is_scalar(self) -> bool:
        return not self.atoms

    def __add__(self, other: "MotiveExpr") -> "MotiveExpr":
        return m_add(self, other)

    def __sub__(self, other: "MotiveExpr") -> "MotiveExpr":
        return m_add(self, m_scale(other, lc_neg(LC_ONE)))

    def __str__(self) -> str:
        if not self.scalar.core and not self.atoms:
            return "0"
        parts = [render_factors(self.scalar)] if self.scalar.core else []
        for m, c in self.atoms:
            parts.append(f"BDelta({m})" if c == LC_ONE else f"({render_factors(c)})*BDelta({m})")
        return " + ".join(parts)


_set_scalar = MotiveExpr.scalar.__set__
_set_atoms = MotiveExpr.atoms.__set__

M_ZERO = MotiveExpr()
M_ONE = MotiveExpr(LC_ONE)


def m_scalar(c: LefschetzClass) -> MotiveExpr:
    return MotiveExpr(c)


def m_atom(m: int, coeff: LefschetzClass = LC_ONE) -> MotiveExpr:
    if m < 1:
        raise DomainError("atom index must be >= 1")
    if not coeff.core:
        return M_ZERO
    return MotiveExpr(LC_ZERO, ((m, coeff),))


def m_add(a: MotiveExpr, b: MotiveExpr) -> MotiveExpr:
    coeffs = a.atom_map()
    for m, c in b.atoms:
        s = lc_add(coeffs.get(m, LC_ZERO), c)
        if s.core:
            coeffs[m] = s
        else:
            coeffs.pop(m, None)
    return MotiveExpr(lc_add(a.scalar, b.scalar), tuple(sorted(coeffs.items())))


def m_scale(a: MotiveExpr, c: LefschetzClass) -> MotiveExpr:
    if not c.core:
        return M_ZERO
    return MotiveExpr(
        lc_mul(a.scalar, c), tuple((m, lc_mul(k, c)) for m, k in a.atoms)
    )


# -- known class formulas ---------------------------------------------


def class_gl(n: int) -> LefschetzClass:
    """(L^n - 1)(L^n - L) ... (L^n - L^(n-1)) = L^(n(n-1)/2) prod_(i<=n) (L^i - 1),
    in which Phi_d divides floor(n/d) of the blocks."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return LefschetzClass(intpoly.ONE, n * (n - 1) // 2, tuple((d, n // d) for d in range(1, n + 1)))


def class_sl(n: int) -> LefschetzClass:
    if n < 1:
        raise DomainError("n must be >= 1")
    return lc_mul(class_gl(n), lc_inv(l_pow_minus_one(1)))


def class_g2() -> LefschetzClass:
    return lc_mul(l_power(6), l_blocks({2: 1, 6: 1}))


def class_spin(n: int) -> LefschetzClass:
    """L^(m^2-m) (L^m - 1) prod_(i<m) (L^2i - 1) for n = 2m, and
    L^(m^2) prod_(i<=m) (L^2i - 1) for n = 2m + 1, in which Phi_d divides
    the t = m or m - 1 blocks L^2i - 1 with d / gcd(d, 2) dividing i."""
    if n < 2:
        raise DomainError("n must be >= 2")
    m, odd = divmod(n, 2)
    t = m if odd else m - 1
    exps = ((d, t // (d // math.gcd(d, 2)) + (not odd and m % d == 0)) for d in range(1, max(2 * t, m) + 1))
    return LefschetzClass(intpoly.ONE, m * m - (0 if odd else m), tuple((d, e) for d, e in exps if e))


# -- the generic two-stratum equation ---------------------------------


def strat_equation(n: int, null_cone_term: MotiveExpr, quadric_term: MotiveExpr) -> MotiveExpr:
    """(L^n - 1)^-1 * (null_cone_term + (L - 1) * quadric_term)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    inner = m_add(null_cone_term, m_scale(quadric_term, l_pow_minus_one(1)))
    return m_scale(inner, lc_inv(l_pow_minus_one(n)))


# -- the recursion tower ----------------------------------------------


def _window(p: tuple[int, ...], w: int) -> list[int]:
    """p times [w]_u = 1 + u + ... + u^(w-1): a running sum of width w."""
    # lists, not tuples: a tuple built from an iterator grows by resizing, is
    # freed onto CPython's small-tuple free lists, and one per step grows them
    # by about 3 MB over a 25-s perfbench tower-cold run
    run = list(accumulate(p + (0,) * (w - 1), initial=0))
    return list(map(sub, run[1:], [0] * (w - 1) + run[: len(p)]))


@cache
def _table(j: int, k: int) -> tuple[int, ...]:
    """C(j, k) of the module docstring, its coefficients in u = L^-1 from u^0 up."""
    if j == 0:
        return intpoly.ONE
    if j < 0 or j > k or j % 2:
        return intpoly.ZERO
    # C >= 0 with a positive top coefficient, so the sum needs no strip; an
    # odd j would reach a zero window, whose zeros only a strip removes
    a, b = _table(j, k - 1), _window(_table(j - 2, k - 2), k - 1)
    return (*map(add, a, b), *a[len(b) :], *b[len(a) :])


def _cell(j: int, k: int) -> LefschetzClass:
    """C(j, k) / (L-1)^(j/2) in canonical form, C read as a polynomial in L."""
    c = _table(j, k)
    return lc_normalize(c[::-1], 1 - len(c), ((1, -(j // 2)),))


def _top_atom(k: int) -> LefschetzClass:
    """P(k) = A(0, k) = prod_(i=2..k) (L-1) / (L^i - 1), from the blocks."""
    return l_blocks({1: max(k - 1, 0), **dict.fromkeys(range(2, k + 1), -1)})


def _odd_row_excess(m: int) -> LefschetzClass:
    """D(2m - 1) of the module docstring: G(2m - 1, -1) minus its table atom."""
    blocks = l_blocks(dict.fromkeys(range(2, 2 * m + 1, 2), -1))
    return lc_mul(LefschetzClass((2,), -m * (m - 1), ()), blocks)


@cache
def _tower(n: int, r: int) -> MotiveExpr:
    """G(n, r), r >= -1, assembled from the table of the module docstring:
    its cells for this k, each made canonical once, then scaled by P(k)."""
    if n < 0:
        return M_ONE
    k = n - r
    atoms = ((m, _cell(n - m, k)) for m in range(2 + n % 2, n + 1, 2))
    row = MotiveExpr(_cell(n - n % 2, k), tuple((m, c) for m, c in atoms if c.core))
    row = m_scale(row, _top_atom(k))
    if n % 2 and r == -1:
        row = m_add(row, m_scalar(_odd_row_excess((n + 1) // 2)))
    return row


def bspin(n: int) -> MotiveExpr:
    if n < 1:
        raise DomainError("n must be >= 1")
    return _tower(n - 1, -1)


def bpin(n: int) -> MotiveExpr:
    if n < 0:
        raise DomainError("n must be >= 0")
    return _tower(n, 0)


def bg(n: int, r: int) -> MotiveExpr:
    if r > n:
        raise DomainError(f"r = {r} exceeds n = {n}")
    if r < 1 or n < 1:
        raise DomainError("need n >= 1 and r >= 1")
    return _tower(n, r)


def clear_tower_cache() -> None:
    """Empty the assembled cells and the coefficient table, so the next
    tower request recomputes from the base cases."""
    _tower.cache_clear()
    _table.cache_clear()


def _lead_closed_form(n: int) -> LefschetzClass:
    """(L-1)^(n-1) / prod_(i=2..n) (L^i - 1), in which Phi_d divides
    floor(n/d) of the blocks and (L-1)^(n-1) cancels Phi_1."""
    return LefschetzClass(intpoly.ONE, 0, tuple((d, -(n // d)) for d in range(2, n + 1)))


def leading_delta_coeff(n: int) -> LefschetzClass:
    """Coefficient of the top atom BDelta_(n-1) in bspin(n).

    Checked against the closed form (L-1)^(n-1) / prod_(i=2..n) (L^i - 1)
    before returning.  The closed form is built from divisor counts, so it
    shares no arithmetic with the tower.
    """
    if n < 3:
        raise DomainError("n must be >= 3")
    coeff = bspin(n).atom_map().get(n - 1, LC_ZERO)
    if not lc_eq(coeff, _lead_closed_form(n)):
        raise Inconsistent(
            f"top-atom coefficient of bspin({n}) does not match the closed form"
        )
    return coeff


def substitute_deltas(e: MotiveExpr, values: dict[int, LefschetzClass]) -> LefschetzClass:
    missing = [m for m, _ in e.atoms if m not in values]
    if missing:
        raise MissingAtom(f"no value for atom indices {missing}")
    return lc_sum([e.scalar] + [lc_mul(c, values[m]) for m, c in e.atoms])


def solve_deltas(max_n: int, spin_classes=class_spin) -> dict[int, LefschetzClass]:
    """Equate bspin(n) with the inverse of the known spin class for
    n = 3..max_n and solve the triangular system for the atom values.

    Every row carries exactly one new atom, BDelta_(n-1), whose coefficient
    is a unit, so the solve is a single division per row.  After solving,
    every equation for n = 2..max_n is re-verified against the canonical
    spin classes; any failure raises Inconsistent.  The spin_classes hook
    only feeds the solve stage, so injecting a wrong class there is caught
    here (the triangular solve itself absorbs any single wrong row into
    the fresh atom of the rows after it).  Atoms that never occur (index 1,
    and anything outside the parity classes that appear) are simply absent
    from the result.
    """
    if max_n < 3:
        raise DomainError("max_n must be >= 3")
    solved: dict[int, LefschetzClass] = {}
    for n in range(3, max_n + 1):
        e = bspin(n)
        if 1 in e.support():
            raise Inconsistent(f"atom index 1 occurs in bspin({n})")
        target = lc_inv(spin_classes(n))
        terms = [lc_neg(e.scalar), target]
        new_atom = None
        for m, c in e.atoms:
            if m in solved:
                terms.append(lc_neg(lc_mul(c, solved[m])))
            elif new_atom is None:
                new_atom = (m, c)
            else:
                raise Inconsistent(
                    f"equation for n={n} has two unsolved atoms {new_atom[0]}, {m}"
                )
        if new_atom is None:
            if not lc_eq(e.scalar, target):
                raise Inconsistent(f"scalar equation for n={n} fails")
            continue
        m, c = new_atom
        if m != n - 1:
            raise Inconsistent(f"the fresh atom of row n={n} is {m}, not the top one {n - 1}")
        solved[m] = lc_mul(lc_sum(terms), lc_inv(c))
    for n in range(2, max_n + 1):
        lhs = substitute_deltas(bspin(n), solved)
        if not lc_eq(lhs, lc_inv(class_spin(n))):
            raise Inconsistent(f"solved values do not satisfy the n={n} equation")
    return solved
