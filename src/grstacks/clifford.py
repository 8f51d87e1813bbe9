"""Exact Clifford algebra on n anticommuting generators with square -1.

Elements are sparse blade maps with Gaussian-rational coefficients, so every
membership test and homomorphism law below is an exact equality.  An element
stores integer Gaussian numerators per blade over one shared denominator, so
a product or sum is integer arithmetic and one gcd pass over its result (see
CliffordElement).  The module
covers the three standard involutions, the unit groups cut out by them, the
twisted conjugation action on vectors, and the two explicit homomorphisms
that drive the classifying-class recursion: the embedding of the one-lower
pin group into the spin group times a sign, and the unipotent one-parameter
family w -> w*f1 + 1 attached to an isotropic vector f1.

Matrices are tuples of row tuples of GaussianRational; their products, the
quadratic forms and the sphere sampling sum products through `gaussian.dot`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .blades import blade_mul_mask, indices_of, mask_of
from .frozen import refuse_writes
from .gaussian import GR_HALF, GR_I, GR_ONE, GR_ZERO, GaussianRational, dot, reduced
from .report import CheckReport

Scalar = GaussianRational | int | Fraction
Vector = tuple[GaussianRational, ...]
Matrix = tuple[tuple[GaussianRational, ...], ...]


class NotPin(ValueError):
    pass


class DegenerateDirection(ValueError):
    pass


class BadSupport(ValueError):
    pass


class InvariantBroken(ArithmeticError):
    """An exact identity that holds by construction came out false."""


# what a sample raises when the arithmetic under it is broken; the verifiers
# count such a sample as a failure of the check it feeds
_BROKEN_SAMPLE = (InvariantBroken, NotPin)


class CliffordElement:
    """An element sum_s ((x_s + y_s*i) / d) e_s of the Clifford algebra.

    `terms` maps each blade mask s to its integer Gaussian numerator
    (x_s, y_s), and `d > 0` is one denominator for the whole element.  The
    form is canonical: no numerator is (0, 0), gcd(d, every x_s, every y_s)
    is 1, and zero is no terms over d = 1.  It is unique, so equality and
    hashing compare (n, d, terms), except that a scalar-only element of any
    n equals its coefficient and hashes as that coefficient.  Products, sums
    and the involutions run on these ints and reduce each result once, by one
    gcd over all its parts; coefficients go in and come out as GaussianRational.
    """

    __slots__ = ("n", "d", "terms")

    n: int
    d: int
    terms: dict[int, tuple[int, int]]

    def __init__(self, n: int, terms: dict[int, Scalar] | None = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        coeffs = {}
        for mask, c in (terms or {}).items():
            if mask < 0 or mask >= 1 << n:
                raise ValueError(f"blade mask {mask} out of range for n={n}")
            c = GaussianRational.coerce(c)
            if c:
                coeffs[mask] = c
        # at each prime p of the lcm, the coefficient whose denominator holds
        # p's highest power has a part prime to p and is scaled by a factor
        # prime to p, so gcd(d, every part) is 1 without a reduction
        d = lcm(*(c.d for c in coeffs.values()))
        _set_n(self, n)
        _set_d(self, d)
        _set_terms(self, {m: (c.x * (d // c.d), c.y * (d // c.d)) for m, c in coeffs.items()})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CliffordElement is immutable")

    @classmethod
    def scalar(cls, n: int, c: Scalar) -> "CliffordElement":
        return cls(n, {0: c})

    @classmethod
    def vector(cls, n: int, coords: tuple[Scalar, ...] | list[Scalar]) -> "CliffordElement":
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates, got {len(coords)}")
        return cls(n, {1 << j: c for j, c in enumerate(coords)})

    @classmethod
    def blade(cls, n: int, indices: tuple[int, ...], coeff: Scalar = GR_ONE) -> "CliffordElement":
        return cls(n, {mask_of(indices): coeff})

    def coeff(self, mask: int) -> GaussianRational:
        t = self.terms.get(mask)
        return GR_ZERO if t is None else reduced(t[0], t[1], self.d)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = CliffordElement.scalar(self.n, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        # a scalar-only element equals its coefficient, whatever its n
        same_n = self.n == other.n or self.terms.keys() <= {0}
        return same_n and self.d == other.d and self.terms == other.terms

    def __hash__(self) -> int:
        # a scalar-only element equals its coefficient, so it hashes as one
        if self.terms.keys() <= {0}:
            return hash(self.coeff(0))
        return hash((self.n, self.d, frozenset(self.terms.items())))

    def __add__(self, other: "CliffordElement | Scalar") -> "CliffordElement":
        o = self._coerce(other)
        # bring both over lcm(d1, d2)
        d1, d2 = self.d, o.d
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        terms = self.terms
        out = dict(terms) if f1 == 1 else {m: (x * f1, y * f1) for m, (x, y) in terms.items()}
        get = out.get
        for m, (x, y) in o.terms.items():
            cur = get(m)
            out[m] = (x * f2, y * f2) if cur is None else (cur[0] + x * f2, cur[1] + y * f2)
        return _element(self.n, d1 * f1, out)

    __radd__ = __add__

    def __sub__(self, other: "CliffordElement | Scalar") -> "CliffordElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "CliffordElement | Scalar") -> "CliffordElement":
        return self._coerce(other) - self

    def __neg__(self) -> "CliffordElement":
        return _make(self.n, self.d, {m: (-x, -y) for m, (x, y) in self.terms.items()})

    def _coerce(self, other: "CliffordElement | Scalar") -> "CliffordElement":
        if isinstance(other, CliffordElement):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            return other
        return CliffordElement.scalar(self.n, other)

    def __mul__(self, other: "CliffordElement | Scalar") -> "CliffordElement":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            u, v = c.x, c.y
            return _element(
                self.n,
                self.d * c.d,
                {m: (x * u - y * v, x * v + y * u) for m, (x, y) in self.terms.items()},
            )
        o = self._coerce(other)
        out: dict[int, tuple[int, int]] = {}
        get = out.get
        for ma, (xa, ya) in self.terms.items():
            for mb, (xb, yb) in o.terms.items():
                sign, mu = blade_mul_mask(ma, mb)
                if ya or yb:
                    x, y = xa * xb - ya * yb, xa * yb + ya * xb
                else:
                    x, y = xa * xb, 0
                if sign < 0:
                    x, y = -x, -y
                cur = get(mu)
                out[mu] = (x, y) if cur is None else (cur[0] + x, cur[1] + y)
        return _element(self.n, self.d * o.d, out)

    __rmul__ = __mul__  # Gaussian-rational products commute

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def parity(self) -> int | None:
        """0 even, 1 odd, None when mixed or zero."""
        ps = {g & 1 for g in self.grades()}
        return ps.pop() if len(ps) == 1 else None

    def is_vector(self) -> bool:
        return bool(self.terms) and all(m.bit_count() == 1 for m in self.terms)

    def vector_coords(self) -> Vector:
        if any(m.bit_count() != 1 for m in self.terms):
            raise ValueError("element has components outside grade 1")
        return tuple(self.coeff(1 << j) for j in range(self.n))

    def _negate_grades(self, negated: tuple[int, ...]) -> "CliffordElement":
        # each involution's sign on a blade of grade g depends on g mod 4 only
        return _make(
            self.n,
            self.d,
            {
                m: ((-x, -y) if m.bit_count() % 4 in negated else (x, y))
                for m, (x, y) in self.terms.items()
            },
        )

    def eps(self) -> "CliffordElement":
        # grade involution: (-1)^g
        return self._negate_grades((1, 3))

    def transpose(self) -> "CliffordElement":
        # reversal: (-1)^(g(g-1)/2)
        return self._negate_grades((2, 3))

    def bar(self) -> "CliffordElement":
        # eps after transpose: (-1)^(g(g+1)/2)
        return self._negate_grades((1, 2))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            name = "".join(f"e{i}" for i in indices_of(m)) or ""
            cs = str(self.coeff(m))
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(cs if not name else f"{cs}*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<C{self.n}: {self}>"


_new = object.__new__
_set_n = CliffordElement.n.__set__
_set_d = CliffordElement.d.__set__
_set_terms = CliffordElement.terms.__set__


def _make(n: int, d: int, terms: dict[int, tuple[int, int]]) -> CliffordElement:
    """The element with numerators `terms` over d, already in canonical form."""
    a = _new(CliffordElement)
    _set_n(a, n)
    _set_d(a, d)
    _set_terms(a, terms)
    return a


def _element(n: int, d: int, terms: dict[int, tuple[int, int]]) -> CliffordElement:
    """The element with numerators `terms` over any d > 0, reduced: zero
    numerators dropped, then one gcd over d and every remaining part."""
    terms = {m: t for m, t in terms.items() if t[0] or t[1]}
    if d != 1:
        g = gcd(d, *chain.from_iterable(terms.values()))
        if g != 1:
            d //= g
            terms = {m: (x // g, y // g) for m, (x, y) in terms.items()}
    return _make(n, d, terms)


def basis_vector(n: int, i: int) -> CliffordElement:
    return CliffordElement(n, {1 << (i - 1): GR_ONE})


# ---------------------------------------------------------------------------
# exact matrices

def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n)
    )


def _mat_text(a: Matrix) -> str:
    return "[" + "; ".join(" ".join(map(str, row)) for row in a) + "]"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in a)


def mat_det(a: Matrix) -> GaussianRational:
    n = len(a)
    rows = [list(r) for r in a]
    det = GR_ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return GR_ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = GR_ONE / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


# ---------------------------------------------------------------------------
# quadratic spaces

NEG_SUM = "neg_sum"
SPLIT = "split"


@refuse_writes
@dataclass(frozen=True, slots=True)
class QuadSpace:
    n: int
    form: str = NEG_SUM

    def __post_init__(self) -> None:
        if self.form not in (NEG_SUM, SPLIT):
            raise ValueError(f"unknown form {self.form!r}")

    def q(self, v: Vector) -> GaussianRational:
        return self.h(v, v)

    def h(self, v: Vector, w: Vector) -> GaussianRational:
        # closed polarization of each form
        if self.form == NEG_SUM:
            return -dot(v, w)
        # the pair (k, k + 1) carries (v_k w_(k+1) + v_(k+1) w_k) / 2, so
        # pair v with w's coordinates swapped within each pair
        m = self.n & ~1
        tot = GR_HALF * dot(v[:m], [w[k ^ 1] for k in range(m)])
        if self.n & 1:
            tot = tot + v[-1] * w[-1]
        return tot

    def _pair_entry(self, i: int, j: int) -> GaussianRational:
        # h on basis vectors, by index
        if self.form == NEG_SUM:
            return -GR_ONE if i == j else GR_ZERO
        if self.n & 1 and i == self.n - 1 and j == self.n - 1:
            return GR_ONE
        lo, hi = (i, j) if i <= j else (j, i)
        if hi == lo + 1 and lo % 2 == 0:
            return GR_HALF
        return GR_ZERO

    def preserves(self, m: Matrix) -> bool:
        cols = [tuple(m[i][j] for i in range(self.n)) for j in range(self.n)]
        return all(
            self.h(cols[i], cols[j]) == self._pair_entry(i, j)
            for i in range(self.n)
            for j in range(i, self.n)
        )


# ---------------------------------------------------------------------------
# pin and spin membership, twisted conjugation

def _vector_images(a: CliffordElement) -> list[Vector] | None:
    """Coordinates of eps(a) e_i bar(a) for i = 1..n, or None when `a` is not
    in the pin group: mixed parity, a bar(a) != 1, or some image not a vector.

    Membership is defined by the plain conjugation a v bar(a).  An element of
    one parity has eps(a) = +-a, so the plain and the twisted conjugation
    differ only by a sign and send vectors to vectors together: one pass over
    the basis both decides membership and gives the columns of rho.
    """
    if a.parity() is None:
        return None
    ab = a.bar()
    if a * ab != 1:
        return None
    ea = a.eps()
    cols = []
    for i in range(1, a.n + 1):
        w = ea * basis_vector(a.n, i) * ab
        if not w.is_vector():
            return None
        cols.append(w.vector_coords())
    return cols


def is_pin(a: CliffordElement) -> bool:
    return _vector_images(a) is not None


def is_spin(a: CliffordElement) -> bool:
    return a.parity() == 0 and is_pin(a)


def rho(a: CliffordElement) -> Matrix:
    """Matrix of v -> eps(a) v bar(a) on e_1..e_n.  Raises NotPin."""
    cols = _vector_images(a)
    if cols is None:
        raise NotPin(str(a))
    m = tuple(zip(*cols))
    space = QuadSpace(a.n, NEG_SUM)
    if not space.preserves(m):
        raise NotPin(f"image of {a} does not preserve the form")
    return m


# ---------------------------------------------------------------------------
# sampling exact points of the unit sphere

def reflect_point(base: Vector, u: Vector) -> Vector:
    """Reflect `base` in the hyperplane dot-orthogonal to `u`; on the sphere
    sum x^2 = 1 this is the second intersection of the line base + t*u."""
    d = dot(u, u)
    if not d:
        raise DegenerateDirection(f"direction {u} has isotropic dot square")
    t = (2 * dot(u, base)) / d
    return tuple(b - t * x for b, x in zip(base, u))


def _random_direction(n: int, rng: random.Random, support: tuple[int, ...]) -> Vector:
    u = [GR_ZERO] * n
    picked = rng.sample(support, k=min(len(support), rng.randint(1, 3)))
    for i in picked:
        if rng.random() < 0.15:
            u[i - 1] = GaussianRational(rng.randint(-3, 3), rng.choice((-1, 1)))
        else:
            u[i - 1] = GaussianRational(rng.randint(1, 5) * rng.choice((-1, 1)))
    return tuple(u)


_DIRECTION_TRIES = 64  # random directions drawn before giving up


def unit_vector_sample(
    n: int,
    rng: random.Random,
    support: tuple[int, ...] | None = None,
) -> Vector:
    """Exact vector with sum of squared coordinates 1, supported on `support`."""
    if support is None:
        support = tuple(range(1, n + 1))
    if not support:
        raise ValueError("empty support")
    base = tuple(GR_ONE if i == support[0] else GR_ZERO for i in range(1, n + 1))
    last: DegenerateDirection | None = None
    for _ in range(_DIRECTION_TRIES):
        u = _random_direction(n, rng, support)
        try:
            v = reflect_point(base, u)
        except DegenerateDirection as exc:
            last = exc
            continue
        if dot(v, v) != 1:
            raise InvariantBroken(f"reflected point {v} is off the unit sphere")
        return v
    raise DegenerateDirection(f"no usable direction after {_DIRECTION_TRIES} tries") from last


def pin_sample(
    n: int,
    rng: random.Random,
    factors: int | None = None,
    support: tuple[int, ...] | None = None,
) -> CliffordElement:
    """Product of `factors` (default 1..4) exact unit vectors."""
    k = factors if factors is not None else rng.randint(1, 4)
    out = CliffordElement.scalar(n, GR_ONE)
    for _ in range(k):
        out = out * CliffordElement.vector(n, unit_vector_sample(n, rng, support))
    return out


def spin_sample(n: int, rng: random.Random, support: tuple[int, ...] | None = None) -> CliffordElement:
    return pin_sample(n, rng, factors=2 * rng.randint(1, 2), support=support)


def _random_element(n: int, rng: random.Random) -> CliffordElement:
    """General algebra element: a few random blades, not required invertible."""
    terms: dict[int, GaussianRational] = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randrange(1 << n)] = GaussianRational(
            rng.randint(-4, 4), rng.randint(-2, 2)
        )
    return CliffordElement(n, terms)


def verify_clifford_relations(n: int, samples: int = 100, seed: int = 0) -> CheckReport:
    """Generator relations, involution product laws, and the vector action."""
    rep = CheckReport(f"clifford.rel.{n}", seed)
    fail = rep.fail
    rng = random.Random(seed)
    space = QuadSpace(n, NEG_SUM)
    full = tuple(range(1, n + 1))

    for i in range(samples):
        vc = _random_direction(n, rng, full)
        wc = _random_direction(n, rng, full)
        v, w = CliffordElement.vector(n, vc), CliffordElement.vector(n, wc)
        vv, qv = v * v, space.q(vc)
        if vv != qv:
            fail("rel.square", i, {"v": v}, {"v*v": vv, "q(v)": qv})
        polar, h2 = v * w + w * v, 2 * space.h(vc, wc)
        if polar != h2:
            fail("rel.polar", i, {"v": v, "w": w}, {"vw + wv": polar, "2h(v, w)": h2})
    rep.verdict("rel.square", f"v*v = q(v) on {samples} samples")
    rep.verdict("rel.polar", f"vw + wv = 2h(v, w) on {samples} samples")

    # the involution laws hold on the whole algebra, not just the pin group
    for i in range(samples):
        a, b = _random_element(n, rng), _random_element(n, rng)
        ab = a * b
        at, bt = a.transpose(), b.transpose()
        laws = (
            ("eps(ab)", ab.eps(), "eps(a) eps(b)", a.eps() * b.eps()),
            ("transpose(ab)", ab.transpose(), "transpose(b) transpose(a)", bt * at),
            ("bar(ab)", ab.bar(), "bar(b) bar(a)", b.bar() * a.bar()),
        )
        got = {}
        for left, lv, right, rv in laws:
            if lv != rv:
                got |= {left: lv, right: rv}
        if got:
            fail("inv.products", i, {"a": a, "b": b}, got)
        bar, eps_t, t_eps = a.bar(), a.eps().transpose(), at.eps()
        if bar != eps_t or bar != t_eps:
            got = {"bar(a)": bar, "transpose(eps(a))": eps_t, "eps(transpose(a))": t_eps}
            fail("inv.compose", i, {"a": a, "b": b}, got)
    rep.verdict("inv.products", "eps multiplicative, transpose and bar antimultiplicative")
    rep.verdict("inv.compose", "bar = eps after transpose, both orders")

    ident = mat_identity(n)
    try:
        reflect = rho(basis_vector(n, 1)) == ((-GR_ONE,) + ident[0][1:],) + ident[1:]
    except NotPin:
        # e_1 is a unit vector, so its image must be the reflection
        reflect = False
    rep.add("rho.reflect", reflect, "rho(e_1) is the reflection diag(-1, 1, ..., 1)")

    runs = max(10, samples // 4)
    for i in range(runs):
        drawn: dict[str, CliffordElement] = {}
        try:
            a = drawn["a"] = pin_sample(n, rng)
            b = drawn["b"] = pin_sample(n, rng)
            ra = rho(a)
            rab, ra_rb = rho(a * b), mat_mul(ra, rho(b))
            det, want = mat_det(ra), GaussianRational(1 - 2 * (a.parity() or 0))
        except _BROKEN_SAMPLE as exc:
            # a product of unit vectors left the pin group: neither law holds
            rep.error(("rho.hom", "rho.det"), i, drawn, exc)
            continue
        if rab != ra_rb:
            got = {"rho(ab)": _mat_text(rab), "rho(a) rho(b)": _mat_text(ra_rb)}
            fail("rho.hom", i, {"a": a, "b": b}, got)
        if det != want:
            fail("rho.det", i, {"a": a}, {"det rho(a)": det, "expected": want})
    rep.verdict("rho.hom", f"rho(ab) = rho(a) rho(b) on {runs} pin pairs")
    rep.verdict("rho.det", "determinant of rho is +1 on even elements and -1 on odd ones")
    return rep


# ---------------------------------------------------------------------------
# the embedding of Pin_{n-1} into Spin_n x mu_2

def phi_pin(beta: CliffordElement) -> tuple[CliffordElement, int]:
    """Send an element of the one-lower pin group (generated by unit vectors
    orthogonal to e_1) to (beta, 1) when even and (e_1 * beta, -1) when odd."""
    p = beta.parity()
    if p is None:
        raise NotPin("mixed parity")
    if p == 0:
        return beta, 1
    return basis_vector(beta.n, 1) * beta, -1


def verify_phi_pin_embedding(n: int, samples: int = 100, seed: int = 0) -> CheckReport:
    if not 3 <= n <= 8:
        raise ValueError("n must be in 3..8")
    rep = CheckReport(f"clifford.phi_pin.{n}", seed)
    fail = rep.fail
    rng = random.Random(seed)
    sub = tuple(range(2, n + 1))
    e1 = basis_vector(n, 1)

    case_counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    tested = 0

    def check_pair(k1: int | None = None, k2: int | None = None) -> None:
        nonlocal tested
        i = tested
        tested += 1
        drawn: dict[str, CliffordElement] = {}
        try:
            b1 = drawn["b1"] = pin_sample(n, rng, k1, sub)
            b2 = drawn["b2"] = pin_sample(n, rng, k2, sub)
            p1, p2 = b1.parity(), b2.parity()
            if p1 is None or p2 is None:
                raise InvariantBroken("a product of unit vectors has mixed parity")
            case_counts[(p1, p2)] += 1
            g1, x1 = phi_pin(b1)
            g2, x2 = phi_pin(b2)
            gp, xp = phi_pin(b1 * b2)
            g12 = g1 * g2
            # the image stabilizes e_1 up to the recorded sign
            moved = g1.eps() * e1 * g1.bar()
            parity = g1.parity()
        except _BROKEN_SAMPLE as exc:
            rep.error(("phi.hom", "phi.stab", "phi.even"), i, drawn, exc)
            return
        if g12 != gp or x1 * x2 != xp:
            got = {"phi(b1) phi(b2)": f"({g12}, {x1 * x2})", "phi(b1 b2)": f"({gp}, {xp})"}
            fail("phi.hom", i, drawn, got)
        if moved != (e1 if x1 == 1 else -e1):
            got = {"phi(b1)": f"({g1}, {x1})", "eps(g1) e1 bar(g1)": moved}
            fail("phi.stab", i, drawn, got)
        if parity != 0:
            fail("phi.even", i, drawn, {"phi(b1)": f"({g1}, {x1})", "parity of g1": parity})

    for _ in range(samples):
        check_pair()
    # few samples can miss a parity pair; draw one pair of that parity each,
    # with k = 2 - p vector factors, so every case is tested
    for p1, p2 in [k for k, v in case_counts.items() if v == 0]:
        check_pair(2 - p1, 2 - p2)

    for i, ((p1, p2), v) in enumerate(sorted(case_counts.items())):
        if v == 0:
            rep.fail("phi.cases", i, {"parity pair": f"{p1}{p2}"}, {"pairs drawn": v})
    rep.verdict(
        "phi.cases",
        "parity case coverage " + str({f"{k[0]}{k[1]}": v for k, v in sorted(case_counts.items())}),
    )
    rep.verdict("phi.hom", f"{tested - rep.bad['phi.hom']}/{tested} pairs multiplicative")
    rep.verdict("phi.stab", f"{tested - rep.bad['phi.stab']}/{tested} stabilize e1 up to sign")
    rep.verdict("phi.even", "first component always even")

    # spot check full spin membership on a few samples (costlier)
    for i in range(4):
        try:
            beta = pin_sample(n, rng, support=sub)
            g, x = phi_pin(beta)
        except _BROKEN_SAMPLE as exc:
            rep.error(("phi.spin",), i, {}, exc)
            continue
        if not is_spin(g):
            fail("phi.spin", i, {"beta": beta}, {"phi(beta)": f"({g}, {x})"})
    rep.verdict("phi.spin", "sampled images pass the spin membership test")
    return rep


# ---------------------------------------------------------------------------
# the one-parameter family f(w) = w f1 + 1

def f1_vector(n: int) -> Vector:
    coords = [GR_ZERO] * n
    coords[0] = GR_I * GR_HALF
    coords[1] = GR_HALF
    return tuple(coords)


def f2_vector(n: int) -> Vector:
    coords = [GR_ZERO] * n
    coords[0] = GR_I * GR_HALF
    coords[1] = -GR_HALF
    return tuple(coords)


def _check_tail_support(n: int, w: Vector) -> None:
    if len(w) != n:
        raise BadSupport(f"expected {n} coordinates")
    if w[0] or w[1]:
        raise BadSupport("vector must be supported on indices >= 3")


def f_map(n: int, w: Vector) -> CliffordElement:
    if n < 3:
        raise ValueError("need n >= 3")
    _check_tail_support(n, w)
    wv = CliffordElement.vector(n, w)
    f1 = CliffordElement.vector(n, f1_vector(n))
    return wv * f1 + 1


def f_recover(a: CliffordElement) -> Vector:
    """Read w back from f(w): the {1,k} blade carries coefficient -i*w_k/2."""
    n = a.n
    coords = [GR_ZERO] * n
    for k in range(3, n + 1):
        c = a.coeff((1 << (k - 1)) | 1)
        coords[k - 1] = 2 * GR_I * c
    return tuple(coords)


def _random_tail_vector(n: int, rng: random.Random, gaussian: bool = False) -> Vector:
    coords = [GR_ZERO] * n
    for j in range(2, n):
        if rng.random() < 0.6:
            im = rng.randint(-2, 2) if gaussian and rng.random() < 0.3 else 0
            coords[j] = GaussianRational(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))), im)
    return tuple(coords)


def _random_isotropic_tail(n: int, rng: random.Random) -> Vector:
    # reflect the seed e_3 + i*e_4 through random hyperplanes: the dot form
    # is preserved, so the result stays isotropic with tail support
    seed = [GR_ZERO] * n
    seed[2], seed[3] = GR_ONE, GR_I
    v: Vector = tuple(seed)
    c = GaussianRational(rng.randint(1, 4), rng.randint(-2, 2))
    if not c:
        c = GR_ONE
    v = tuple(c * x for x in v)
    for _ in range(rng.randint(0, 2)):
        u = _random_direction(n, rng, tuple(range(3, n + 1)))
        if dot(u, u):
            v = reflect_point(v, u)
    return v


def verify_f_properties(n: int, samples: int = 100, seed: int = 0) -> CheckReport:
    if not 3 <= n <= 8:
        raise ValueError("n must be in 3..8")
    rep = CheckReport(f"clifford.f.{n}", seed)
    fail, bad = rep.fail, rep.bad
    rng = random.Random(seed)
    # sample count of every check after f.hom
    runs = max(10, samples // 4)
    space = QuadSpace(n, NEG_SUM)
    f1 = CliffordElement.vector(n, f1_vector(n))
    tail = tuple(range(3, n + 1))

    def vec(w: Vector) -> CliffordElement:
        return CliffordElement.vector(n, w)

    for i in range(samples):
        w1 = _random_tail_vector(n, rng, gaussian=True)
        w2 = _random_tail_vector(n, rng, gaussian=True)
        ws = tuple(a + b for a, b in zip(w1, w2))
        prod, fs = f_map(n, w1) * f_map(n, w2), f_map(n, ws)
        if prod != fs:
            fail("f.hom", i, {"w1": vec(w1), "w2": vec(w2)}, {"f(w1) f(w2)": prod, "f(w1 + w2)": fs})
    rep.verdict("f.hom", f"{samples - bad['f.hom']}/{samples} pairs satisfy f(w)f(w') = f(w+w')")

    # anisotropic factorization: scale a unit tail vector so the square norm
    # has the explicit square root a
    for i in range(runs):
        try:
            v = unit_vector_sample(n, rng, support=tail)
        except _BROKEN_SAMPLE as exc:
            rep.error(("f.factor.anis",), i, {}, exc)
            continue
        a = GaussianRational(Fraction(rng.randint(1, 6) * rng.choice((-1, 1)), rng.choice((1, 2))))
        w = tuple(a * x for x in v)
        lhs = f_map(n, w)
        nrm = dot(w, w)
        if nrm != a * a:
            # a scaled unit vector must have square norm a^2
            fail("f.factor.anis", i, {"v": vec(v), "a": a}, {"w.w": nrm, "a^2": a * a})
            continue
        wv = vec(w)
        factor1 = wv * (GR_ONE / a)
        factor2 = (nrm * f1 - wv) * (GR_ONE / a)
        if factor1 * factor2 != lhs:
            got = {"factors' product": factor1 * factor2, "f(a v)": lhs}
            fail("f.factor.anis", i, {"v": vec(v), "a": a}, got)
    good = runs - bad["f.factor.anis"]
    rep.verdict("f.factor.anis", f"{good}/{runs} square-norm factorizations")

    if n >= 4:
        e1 = basis_vector(n, 1)
        e2 = basis_vector(n, 2)
        for k in range(runs):
            if k == 0:
                w = [GR_ZERO] * n
                w[2], w[3] = GR_ONE, GR_I
                w = tuple(w)
            else:
                w = _random_isotropic_tail(n, rng)
            wv = vec(w)
            if dot(w, w):
                # reflections keep the seed isotropic
                fail("f.factor.iso", k, {"w": wv}, {"w.w": dot(w, w)})
                continue
            prod, fw = (e1 - GR_HALF * GR_I * wv) * e1 * (e2 - GR_HALF * wv) * e2, f_map(n, w)
            if prod != fw:
                fail("f.factor.iso", k, {"w": wv}, {"(e1 - i w/2) e1 (e2 - w/2) e2": prod, "f(w)": fw})
        rep.verdict("f.factor.iso", f"{runs - bad['f.factor.iso']}/{runs} isotropic factorizations")

    # columns f1, f2, e_3..e_n; P is invertible, so rho(fw) P = P phi_w says
    # that rho(fw) reads as phi_w in this frame
    p_mat = tuple(zip(f1_vector(n), f2_vector(n), *mat_identity(n)[2:]))
    for i in range(runs):
        w = _random_tail_vector(n, rng)
        fw = f_map(n, w)
        moved = fw.eps() * f1 * fw.bar()
        if moved != f1:
            fail("f.stab", i, {"w": vec(w)}, {"eps(f(w)) f1 bar(f(w))": moved, "f1": f1})
        try:
            lhs, rhs = mat_mul(rho(fw), p_mat), mat_mul(p_mat, phi_w_matrix(space, n, w))
        except NotPin as exc:
            # f(w) is a spin element, so rho must accept it
            rep.error(("f.frame",), i, {"w": vec(w)}, exc)
            continue
        if lhs != rhs:
            fail("f.frame", i, {"w": vec(w)}, {"rho(f(w)) P": _mat_text(lhs), "P phi_w": _mat_text(rhs)})
    rep.verdict("f.stab", f"{runs - bad['f.stab']}/{runs} fix the pivot isotropic vector")
    rep.verdict(
        "f.frame",
        f"{runs - bad['f.frame']}/{runs} match the unipotent template in the hyperbolic frame",
    )

    for k in range(runs):
        w = _random_tail_vector(n, rng)
        fw = f_map(n, w)
        if k % 2 == 0 and n >= 4:
            i, j = rng.sample(range(3, n + 1), 2)
            alpha = CliffordElement.blade(n, (i, j))
        else:
            alpha = f_map(n, _random_tail_vector(n, rng))
        out = alpha * fw * alpha.bar()
        back = f_map(n, f_recover(out))
        if out != back:
            got = {"alpha f(w) bar(alpha)": out, "f(w read back)": back}
            fail("f.conj", k, {"w": vec(w), "alpha": alpha}, got)
    rep.verdict("f.conj", f"{runs - bad['f.conj']}/{runs} conjugates stay in the image")
    return rep


# ---------------------------------------------------------------------------
# the center of the rank-8 spin group

def eta_center_check(samples: int = 100, seed: int = 0) -> CheckReport:
    rep = CheckReport("clifford.eta", seed)
    bad = rep.bad
    rng = random.Random(seed)
    n = 8
    eta = CliffordElement.blade(n, tuple(range(1, n + 1)))
    rep.add("eta.square", eta * eta == 1, "top blade squares to 1")
    rep.add("eta.spin", is_spin(eta), "top blade is in the spin group")

    for i in range(samples):
        try:
            g = spin_sample(n, rng)
        except _BROKEN_SAMPLE as exc:
            rep.error(("eta.central",), i, {}, exc)
            continue
        eta_g, g_eta = eta * g, g * eta
        if eta_g != g_eta:
            rep.fail("eta.central", i, {"g": g}, {"eta g": eta_g, "g eta": g_eta})
    rep.verdict("eta.central", f"commutes with {samples - bad['eta.central']}/{samples} sampled even units")

    # multiplicativity of (g, s) -> (eta^[s=-1] g, s) on the e_1-stabilizer copy
    sub = tuple(range(2, n + 1))
    runs = max(10, samples // 4)
    for i in range(runs):
        try:
            g1, g2 = spin_sample(n, rng, sub), spin_sample(n, rng, sub)
        except _BROKEN_SAMPLE as exc:
            rep.error(("eta.embed",), i, {}, exc)
            continue
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        lift1 = g1 if s1 == 1 else eta * g1
        lift2 = g2 if s2 == 1 else eta * g2
        prod = g1 * g2 if s1 * s2 == 1 else eta * (g1 * g2)
        lifted = lift1 * lift2
        if lifted != prod:
            got = {"lift(g1, s1) lift(g2, s2)": lifted, "lift(g1 g2, s1 s2)": prod}
            rep.fail("eta.embed", i, {"g1": g1, "g2": g2, "s1": s1, "s2": s2}, got)
    rep.verdict("eta.embed", f"{runs - bad['eta.embed']}/{runs} sign-twisted products multiplicative")
    return rep


# ---------------------------------------------------------------------------
# the unipotent stabilizer template on the split form

def phi_w_matrix(space: QuadSpace, n: int, w: Vector) -> Matrix:
    if space.n != n:
        raise ValueError("dimension mismatch")
    _check_tail_support(n, w)
    qw = space.q(w)
    ident = mat_identity(n)
    rows = [[GR_ZERO] * n for _ in range(n)]
    rows[0][0] = GR_ONE
    rows[0][1] = -qw
    rows[1][1] = GR_ONE
    for j in range(2, n):
        rows[j][1] = w[j]
        rows[0][j] = -2 * space.h(ident[j], w)
        rows[j][j] = GR_ONE
    return tuple(tuple(r) for r in rows)


def verify_phi_w(n: int, samples: int = 100, seed: int = 0) -> CheckReport:
    if n < 3:
        raise ValueError("need n >= 3")
    rep = CheckReport(f"clifford.phi_w.{n}", seed)
    rng = random.Random(seed)
    space = QuadSpace(n, SPLIT)
    e1 = mat_identity(n)[0]

    zero = tuple([GR_ZERO] * n)
    rep.add("phiw.zero", phi_w_matrix(space, n, zero) == mat_identity(n), "w = 0 gives the identity")

    def vec(w: Vector) -> CliffordElement:
        return CliffordElement.vector(n, w)

    fail, bad = rep.fail, rep.bad
    for i in range(samples):
        w1 = _random_tail_vector(n, rng)
        w2 = _random_tail_vector(n, rng)
        m1 = phi_w_matrix(space, n, w1)
        m2 = phi_w_matrix(space, n, w2)
        if not space.preserves(m1):
            fail("phiw.form", i, {"w1": vec(w1)}, {"phi_w(w1)": _mat_text(m1)})
        fixed = mat_vec(m1, e1)
        if fixed != e1:
            fail("phiw.fix", i, {"w1": vec(w1)}, {"phi_w(w1) e1": vec(fixed)})
        ws = tuple(a + b for a, b in zip(w1, w2))
        prod, m12 = mat_mul(m1, m2), phi_w_matrix(space, n, ws)
        if prod != m12:
            got = {"phi_w(w1) phi_w(w2)": _mat_text(prod), "phi_w(w1 + w2)": _mat_text(m12)}
            fail("phiw.hom", i, {"w1": vec(w1), "w2": vec(w2)}, got)
    rep.verdict("phiw.form", f"{samples - bad['phiw.form']}/{samples} preserve the split form")
    rep.verdict("phiw.fix", f"{samples - bad['phiw.fix']}/{samples} fix the first basis vector")
    rep.verdict("phiw.hom", f"{samples - bad['phiw.hom']}/{samples} compose additively")
    return rep
