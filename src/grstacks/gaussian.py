"""Exact scalars a + b*i over the rationals, i*i = -1.

The smallest characteristic-zero field with a square root of -1; every
coefficient in the Clifford layer lives here so that all identity checks
are exact equalities, never tolerances.

A value is three ints (x, y, d) standing for (x + y*i)/d, kept canonical:
d > 0 and gcd(x, y, d) == 1, so zero is (0, 0, 1).  The form is unique, so
equality compares three ints, and a sum or product is one integer cross-sum
or product followed by one gcd; no Fraction is built on the way.  The real
and imaginary parts are read as Fractions through `re` and `im`.

`dot(u, v)` is the one inner-product kernel of the Clifford layer's vectors
and matrices: it sums the products on plain ints and builds one value.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd

Parts = tuple[int, int, int]


class GaussianRational:
    __slots__ = ("x", "y", "d")

    x: int
    y: int
    d: int

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        a, b = _num_den(re)
        c, e = _num_den(im)
        x, y, d = a * e, c * b, b * e
        g = gcd(x, y, d)
        _set_x(self, x // g)
        _set_y(self, y // g)
        _set_d(self, d // g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    @staticmethod
    def coerce(x: "GaussianRational | int | Fraction") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        p = _parts(x)
        if p is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")
        return _make(*p)

    def __add__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        p = _parts(other)
        if p is None:
            return NotImplemented
        # _sum inlined: the matrix and sampling code adds through here
        x2, y2, d2 = p
        d1 = self.d
        if d1 == d2:
            return reduced(self.x + x2, self.y + y2, d1)
        return reduced(self.x * d2 + x2 * d1, self.y * d2 + y2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        p = _parts(other)
        if p is None:
            return NotImplemented
        return _sum((self.x, self.y, self.d), (-p[0], -p[1], p[2]))

    def __rsub__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        p = _parts(other)
        if p is None:
            return NotImplemented
        return _sum(p, (-self.x, -self.y, self.d))

    def __neg__(self) -> "GaussianRational":
        return _make(-self.x, -self.y, self.d)

    def __mul__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        p = _parts(other)
        if p is None:
            return NotImplemented
        x1, y1 = self.x, self.y
        x2, y2, d2 = p
        if y1 or y2:
            return reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self.d * d2)
        return reduced(x1 * x2, 0, self.d * d2)

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        p = _parts(other)
        if p is None:
            return NotImplemented
        return _divide((self.x, self.y, self.d), p)

    def __rtruediv__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        p = _parts(other)
        if p is None:
            return NotImplemented
        return _divide(p, (self.x, self.y, self.d))

    def conjugate(self) -> "GaussianRational":
        return _make(self.x, -self.y, self.d)

    def norm(self) -> Fraction:
        # multiplicative: norm(xy) = norm(x) norm(y)
        return Fraction(self.x * self.x + self.y * self.y, self.d * self.d)

    def __eq__(self, other: object) -> bool:
        p = _parts(other)
        if p is None:
            return NotImplemented
        return self.x == p[0] and self.y == p[1] and self.d == p[2]

    def __hash__(self) -> int:
        # a real value equals the Fraction (or int) x/d, so it hashes as one
        return hash((self.x, self.y, self.d)) if self.y else hash(Fraction(self.x, self.d))

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imag = f"{abs(im)}*i" if abs(im) != 1 else "i"
        if re == 0:
            return imag if im > 0 else f"-{imag}"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_x = GaussianRational.x.__set__
_set_y = GaussianRational.y.__set__
_set_d = GaussianRational.d.__set__


def _make(x: int, y: int, d: int) -> GaussianRational:
    """The value (x + y*i)/d from parts already in canonical form."""
    z = _new(GaussianRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def reduced(x: int, y: int, d: int) -> GaussianRational:
    """The value (x + y*i)/d for any ints x, y and d > 0: divide out gcd(x, y, d)."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    return _make(x, y, d)


def _sum(p: Parts, q: Parts) -> GaussianRational:
    x1, y1, d1 = p
    x2, y2, d2 = q
    if d1 == d2:
        return reduced(x1 + x2, y1 + y2, d1)
    return reduced(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)


def _divide(p: Parts, q: Parts) -> GaussianRational:
    # (a/d1) / (b/d2) = a * conj(b) * d2 / (d1 * |b|^2)
    x1, y1, d1 = p
    x2, y2, d2 = q
    n = x2 * x2 + y2 * y2
    if not n:
        raise ZeroDivisionError("division by zero GaussianRational")
    return reduced((x1 * x2 + y1 * y2) * d2, (y1 * x2 - x1 * y2) * d2, d1 * n)


def dot(u: Iterable[GaussianRational], v: Iterable[GaussianRational]) -> GaussianRational:
    """The sum of a*b over the pairs of entries of `u` and `v`.

    Zero entries are skipped.  A product whose denominator differs from the
    running one is merged by one gcd of the two; the sum is reduced once, at
    the end, so no value is built per product or per partial sum.
    """
    x = y = 0
    d = 1
    for a, b in zip(u, v):
        x1, y1, x2, y2 = a.x, a.y, b.x, b.y
        if not (x1 or y1) or not (x2 or y2):
            continue
        e = a.d * b.d
        if y1 or y2:
            px, py = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
        else:
            px, py = x1 * x2, 0
        if e == d:
            x += px
            y += py
        else:
            g = gcd(d, e)
            fs, fp = e // g, d // g
            x, y, d = x * fs + px * fp, y * fs + py * fp, d * fs
    return reduced(x, y, d)


def _num_den(v: int | Fraction) -> tuple[int, int]:
    if type(v) is int:
        return v, 1
    f = v if isinstance(v, Fraction) else Fraction(v)
    return f.numerator, f.denominator


def _parts(v: object) -> Parts | None:
    """Canonical (x, y, d) of a Gaussian or rational operand, else None."""
    if isinstance(v, GaussianRational):
        return v.x, v.y, v.d
    if isinstance(v, int):
        return v, 0, 1
    if isinstance(v, Fraction):
        return v.numerator, 0, v.denominator
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF = GaussianRational(Fraction(1, 2))
