"""Exact scalars a + b*i over the rationals, i*i = -1.

The smallest characteristic-zero field with a square root of -1; every
coefficient in the Clifford layer lives here so that all identity checks
are exact equalities, never tolerances.
"""

from __future__ import annotations

from fractions import Fraction

_RAT = (int, Fraction)
_F0 = Fraction(0)


class GaussianRational:
    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(
            self, "im", im if type(im) is Fraction else (_F0 if im == 0 else Fraction(im))
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x: "GaussianRational | int | Fraction") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _RAT):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __add__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        o = self.coerce(other)
        if not self.im and not o.im:
            return GaussianRational(self.re + o.re, _F0)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        o = self.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        o = self.coerce(other)
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re, _F0)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        o = self.coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other: "GaussianRational | int | Fraction") -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        # multiplicative: norm(xy) = norm(x) norm(y)
        return self.re * self.re + self.im * self.im

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RAT):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}*i" if abs(self.im) != 1 else "i"
        if self.re == 0:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF = GaussianRational(Fraction(1, 2))
