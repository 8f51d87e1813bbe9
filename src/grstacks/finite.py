"""Orbit and stabilizer counts for three group actions over small prime fields.

Each point-count identity in the stratification arguments has a finite shadow:
evaluate the classes at L = q and compare against honest orbit enumeration for
the corresponding group acting on pairs of vectors.  Three models are built
here, all acting on V + V with the second factor carrying the inverse
transpose twist:

* the special linear group of rank 3 extended by the factor swap,
* a rank-2 cousin extended by swap, coordinate flip, and global sign,
* the unitriangular subgroup extended by one order-two twist.

Every model has the same shape: ``name``, ``q``, ``dim`` (the length of a
point, a flat int tuple), ``group_order``, ``generators``, ``elements`` (all
of them, or None when the group is too large to list), and the methods
``mul``, ``inv``, ``identity``, ``apply(g, pt)`` and ``sample(rng)``.

Group elements are explicit tuples, never their images on points: the rank-2
action is not faithful (the matrix -1 acts like the global sign), so counting
stabilizers inside the image would silently halve the answers.

Products are fixed-size kernels: ``mat2_mul_q`` and ``mat3_mul_q`` are
written out entry by entry, and the rank-2 ``apply`` writes out B and
B^-T = ((w, -z), (-y, x)) on the two halves.  The determinant-one samplers
``_sample_sl2`` and ``_sample_sl3`` are unrolled the same way.  Every random
draw goes through ``_draws``, a plain loop that makes the draws ``randrange``
would make from the same stream, so the samples do not depend on how they
are drawn.

The rank-3 model has three generators: the transvection e_12, the 3-cycle
permutation matrix and the swap.  The 3-cycle conjugates e_12 to e_23 and
e_31, and their commutators are the other three transvections, so over a
prime field the three generate the whole group.

Orbit searches do not call ``apply`` per step.  Every generator of every
model acts linearly and blockwise: it sends (v, w) to (f v, h w), or to
(f w, h v) when it swaps the halves.  ``half_tables`` reads f and h off
``apply`` on the half-points (v, 0) and (0, w), once per model and only when
an orbit is first searched, and ``_orbit_numbers`` walks point numbers
through those tables.  A check that reads only an orbit's size counts those
numbers; ``orbit_bfs`` decodes them back to tuples for the checks that look
at the points.  ``closure`` is the package's one search over group
elements: the generator closure in ``verify_model_laws``, the commutator
subgroup of ``delta.DeltaGroup`` and the element orders in
``verify_c4_structure`` (cyclic closures, so a broken ``mul`` cannot make
them loop) all run on it; ``stabilizer`` lists the fixers of a point.
When an orbit count does not add up (a size that does not divide
the group order, or an orbit that escapes its stratum), the check reading it
fails; the report does not raise.  A sampled check that fails keeps its
first failing sample in ``lhs``/``rhs``: the seed, the sample index, the
drawn inputs and what was computed from them.
"""

from __future__ import annotations

import random
from collections import deque
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple

from .lefschetz import lc_eval_at
from .motive import Inconsistent, class_gl, class_sl, class_spin
from .report import CheckReport

Pt = tuple[int, ...]


def sqrt_minus_one(q: int) -> int:
    for i in range(2, q):
        if i * i % q == q - 1:
            return i
    raise ValueError(f"-1 is not a square mod {q}")


# ---------------------------------------------------------------------------
# small exact matrices mod q

def mat2_mul_q(a, b, q):
    """The 2 x 2 product a b, each entry reduced mod q."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        ((a00 * b00 + a01 * b10) % q, (a00 * b01 + a01 * b11) % q),
        ((a10 * b00 + a11 * b10) % q, (a10 * b01 + a11 * b11) % q),
    )


def mat3_mul_q(a, b, q):
    """The 3 x 3 product a b, each entry reduced mod q."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (
            (a00 * b00 + a01 * b10 + a02 * b20) % q,
            (a00 * b01 + a01 * b11 + a02 * b21) % q,
            (a00 * b02 + a01 * b12 + a02 * b22) % q,
        ),
        (
            (a10 * b00 + a11 * b10 + a12 * b20) % q,
            (a10 * b01 + a11 * b11 + a12 * b21) % q,
            (a10 * b02 + a11 * b12 + a12 * b22) % q,
        ),
        (
            (a20 * b00 + a21 * b10 + a22 * b20) % q,
            (a20 * b01 + a21 * b11 + a22 * b21) % q,
            (a20 * b02 + a21 * b12 + a22 * b22) % q,
        ),
    )


def mat_transpose(a):
    return tuple(zip(*a))


def det3(a, q):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    ) % q


def mat3_tau_det1(a, q):
    """Inverse transpose mod q of a determinant-one matrix: its cofactor
    matrix.  Raises Inconsistent when the determinant is not 1."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
    r0 = ((b1 * c2 - b2 * c1) % q, (b2 * c0 - b0 * c2) % q, (b0 * c1 - b1 * c0) % q)
    # the determinant, expanded along the first row
    if (a0 * r0[0] + a1 * r0[1] + a2 * r0[2]) % q != 1:
        raise Inconsistent(f"determinant of {a} is not 1 mod {q}")
    return (
        r0,
        ((c1 * a2 - c2 * a1) % q, (c2 * a0 - c0 * a2) % q, (c0 * a1 - c1 * a0) % q),
        ((a1 * b2 - a2 * b1) % q, (a2 * b0 - a0 * b2) % q, (a0 * b1 - a1 * b0) % q),
    )


def mat2_tau_det1(a, q):
    # inverse transpose, valid when det = 1
    (x, y), (z, w) = a
    return ((w % q, -z % q), (-y % q, x % q))


def identity_mat(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def sl2_elements(q: int) -> list:
    return [
        ((a, b), (c, d))
        for a, b, c, d in product(range(q), repeat=4)
        if (a * d - b * c) % q == 1
    ]


def unitriangular(q: int, a: int, b: int, c: int):
    return ((1, a % q, b % q), (0, 1, c % q), (0, 0, 1))


def _draws(rng: random.Random, n: int, k: int) -> list[int]:
    """The k values ``[rng.randrange(n) for _ in range(k)]`` draws, from the
    same stream.

    ``randrange(n)`` draws ``getrandbits(n.bit_length())`` until a value is
    below n.  This loop makes those draws one at a time and stops at the
    k-th accepted value, so it never draws past it.
    """
    if n <= 0:
        raise ValueError("empty range for a draw")
    bits = n.bit_length()
    draw = rng.getrandbits
    out: list[int] = []
    append = out.append
    while k:
        r = draw(bits)
        if r < n:
            append(r)
            k -= 1
    return out


def _sample_sl2(rng: random.Random, q: int):
    """Uniform 2 x 2 matrix of determinant 1: draw until invertible, then
    scale the first row by det^-1."""
    while True:
        a, b, c, d = _draws(rng, q, 4)
        det = (a * d - b * c) % q
        if det:
            break
    di = pow(det, -1, q)
    return ((a * di % q, b * di % q), (c, d))


def _sample_sl3(rng: random.Random, q: int):
    """Uniform 3 x 3 matrix of determinant 1, drawn as ``_sample_sl2`` draws."""
    while True:
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = _draws(rng, q, 9)
        det = (
            a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
        ) % q
        if det:
            break
    di = pow(det, -1, q)
    return ((a0 * di % q, a1 * di % q, a2 * di % q), (b0, b1, b2), (c0, c1, c2))


# ---------------------------------------------------------------------------
# the three models

class _BlockwiseModel:
    """Every generator of every model maps each half of a point to one half."""

    @cached_property
    def half_tables(self) -> HalfTables:
        # built on the first orbit search; the law checks never search orbits
        return half_tables(self)


class _TwistedPairMixin(_BlockwiseModel):
    """Semidirect product by the swap: elements (A, T, xi) with A of
    determinant one and T its inverse transpose, carried along so that no
    inverse is ever computed in the hot path (inverting swaps the roles of A
    and T up to transpose)."""

    dim = 6

    def element(self, a, xi: int = 1):
        """The element with matrix part a, of determinant one, and swap flag xi."""
        return (a, mat3_tau_det1(a, self.q), xi)

    def mul(self, g, h):
        a1, t1, x1 = g
        a2, t2, x2 = h
        q = self.q
        if x1 > 0:
            return (mat3_mul_q(a1, a2, q), mat3_mul_q(t1, t2, q), x1 * x2)
        return (mat3_mul_q(a1, t2, q), mat3_mul_q(t1, a2, q), x1 * x2)

    def inv(self, g):
        a, t, x = g
        if x > 0:
            return (mat_transpose(t), mat_transpose(a), x)
        return (mat_transpose(a), mat_transpose(t), x)

    def identity(self):
        return self.element(identity_mat(3))

    def apply(self, g, pt):
        # unrolled for the 3x3 case: the law checks apply many samples
        a, t, x = g
        q = self.q
        if x < 0:
            w0, w1, w2, v0, v1, v2 = pt
        else:
            v0, v1, v2, w0, w1, w2 = pt
        a0, a1, a2 = a
        t0, t1, t2 = t
        return (
            (a0[0] * v0 + a0[1] * v1 + a0[2] * v2) % q,
            (a1[0] * v0 + a1[1] * v1 + a1[2] * v2) % q,
            (a2[0] * v0 + a2[1] * v1 + a2[2] * v2) % q,
            (t0[0] * w0 + t0[1] * w1 + t0[2] * w2) % q,
            (t1[0] * w0 + t1[1] * w1 + t1[2] * w2) % q,
            (t2[0] * w0 + t2[1] * w1 + t2[2] * w2) % q,
        )


class ModelSL3Swap(_TwistedPairMixin):
    """SL_3 acting on V + V^dual, extended by the swap of the two factors."""

    def __init__(self, q: int):
        self.name = "sl3_swap"
        self.q = q
        self.group_order = 2 * (q**3 - 1) * (q**3 - q) * q * q
        # e_12, the 3-cycle e_1 -> e_2 -> e_3 -> e_1 and the swap; the module
        # docstring says why they generate
        self.generators = [
            self.element(((1, 1, 0), (0, 1, 0), (0, 0, 1))),
            self.element(((0, 0, 1), (1, 0, 0), (0, 1, 0))),
            self.element(identity_mat(3), -1),
        ]
        self.elements = None

    def sample(self, rng: random.Random):
        a = _sample_sl3(rng, self.q)
        return self.element(a, (1, -1)[_draws(rng, 2, 1)[0]])


class ModelRank2(_BlockwiseModel):
    """SL_2 with three order-two twists: factor swap, coordinate flip, global
    sign.  Elements are (B, s, t, z) bit-flag tuples; the action on 4-tuples
    applies sign, flip, swap, then the matrix pair."""

    dim = 4

    def __init__(self, q: int):
        self.name = "rank2_twists"
        self.q = q
        self.group_order = 8 * (q**3 - q)
        e12 = ((1, 1), (0, 1))
        e21 = ((1, 0), (1, 1))
        i2 = identity_mat(2)
        self.generators = [
            (e12, 0, 0, 0),
            (e21, 0, 0, 0),
            (i2, 1, 0, 0),
            (i2, 0, 1, 0),
            (i2, 0, 0, 1),
        ]
        self.elements = [
            (b, s, t, z)
            for b in sl2_elements(q)
            for s in (0, 1)
            for t in (0, 1)
            for z in (0, 1)
        ]
        if len(self.elements) != self.group_order:
            raise Inconsistent(f"{len(self.elements)} elements listed, group order {self.group_order}")

    def _twist(self, b, s: int, t: int):
        q = self.q
        if s:
            b = mat2_tau_det1(b, q)
        if t:
            (x, y), (zz, w) = b
            b = ((x, -y % q), (-zz % q, w))
        return b

    def mul(self, g, h):
        b1, s1, t1, z1 = g
        b2, s2, t2, z2 = h
        return (
            mat2_mul_q(b1, self._twist(b2, s1, t1), self.q),
            s1 ^ s2,
            t1 ^ t2,
            z1 ^ z2,
        )

    def inv(self, g):
        b, s, t, z = g
        return (self._twist(mat_transpose(mat2_tau_det1(b, self.q)), s, t), s, t, z)

    def identity(self):
        return (identity_mat(2), 0, 0, 0)

    def apply(self, g, pt):
        ((x, y), (z, w)), swap, flip, sign = g
        q = self.q
        p0, p1, p2, p3 = pt
        if sign:
            p0, p1, p2, p3 = -p0, -p1, -p2, -p3
        if flip:
            p1, p3 = -p1, -p3
        if swap:
            p0, p1, p2, p3 = p2, p3, p0, p1
        # B on the first half, B^-T = ((w, -z), (-y, x)) on the second
        return (
            (x * p0 + y * p1) % q,
            (z * p0 + w * p1) % q,
            (w * p2 - z * p3) % q,
            (x * p3 - y * p2) % q,
        )

    def no_sign_subgroup(self) -> list:
        return [g for g in self.elements if g[3] == 0]

    def sample(self, rng: random.Random):
        b = _sample_sl2(rng, self.q)
        s, t, z = _draws(rng, 2, 3)
        return (b, s, t, z)


# the order-two twist normalizing the unitriangular group: antidiagonal with
# a middle sign, symmetric, involutive, determinant one
REVERSAL = ((0, 0, 1), (0, -1, 0), (1, 0, 0))


class ModelUnitriangular(_TwistedPairMixin):
    """Upper unitriangular 3x3 matrices extended by the reversal twist."""

    def __init__(self, q: int):
        self.name = "unitri_twist"
        self.q = q
        self.group_order = 2 * q**3
        self.twist = self.element(tuple(tuple(x % q for x in row) for row in REVERSAL), -1)
        self.generators = [
            self.element(unitriangular(q, *abc)) for abc in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ] + [self.twist]
        self.elements = []
        for a, b, c in product(range(q), repeat=3):
            g = self.element(unitriangular(q, a, b, c))
            self.elements += (g, self.mul(g, self.twist))
        if len(self.elements) != self.group_order:
            raise Inconsistent(f"{len(self.elements)} elements listed, group order {self.group_order}")

    def sample(self, rng: random.Random):
        return self.elements[_draws(rng, len(self.elements), 1)[0]]


PairModel = ModelSL3Swap | ModelRank2 | ModelUnitriangular


# ---------------------------------------------------------------------------
# orbits and stabilizers

def closure(start, step, gens) -> set:
    """Everything reachable from start by repeated steps x -> step(g, x);
    it ends whenever step lands in a finite set, even a wrong one."""
    seen = {start}
    frontier = deque(seen)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = step(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class HalfTables(NamedTuple):
    """A model's generators as maps on numbered half-points.

    Half-points are numbered in ``itertools.product`` order, and the point
    (v, w) is the int ``index[v] * N + index[w]`` with ``N = len(halves)``.
    Each entry of ``maps`` is ``(f, h, swap)``: the generator sends (v, w) to
    (f[v], h[w]), or to (f[w], h[v]) when ``swap`` is set.  The entries of f
    already carry the factor N, so an image is one addition.
    """

    halves: list[Pt]
    index: dict[Pt, int]
    maps: list[tuple[list[int], list[int], bool]]


def half_tables(model: PairModel) -> HalfTables:
    """Read each generator's half maps off ``model.apply`` on (v, 0) and (0, w).

    Every model acts linearly, so these images fix the generator on all
    points.  A generator whose half-point images are not each confined to
    one half raises Inconsistent.
    """
    halves = list(product(range(model.q), repeat=model.dim // 2))
    index = {v: i for i, v in enumerate(halves)}
    n = len(halves)
    zero = halves[0]
    k = len(zero)
    maps = []
    for i, g in enumerate(model.generators):
        from_v = [model.apply(g, v + zero) for v in halves]
        from_w = [model.apply(g, zero + w) for w in halves]
        stays = all(y[k:] == zero for y in from_v) and all(y[:k] == zero for y in from_w)
        swaps = all(y[:k] == zero for y in from_v) and all(y[k:] == zero for y in from_w)
        if stays == swaps:
            raise Inconsistent(f"generator {i} of {model.name} does not act blockwise")
        to_first, to_second = (from_w, from_v) if swaps else (from_v, from_w)
        maps.append((
            [index[y[:k]] * n for y in to_first],
            [index[y[k:]] for y in to_second],
            swaps,
        ))
    return HalfTables(halves, index, maps)


def _orbit_numbers(model: PairModel, start: Pt) -> list[int]:
    """The orbit of start as point numbers, start first, searched through
    the half tables."""
    halves, index, maps = model.half_tables
    n = len(halves)
    k = model.dim // 2
    p = index[start[:k]] * n + index[start[k:]]
    seen = bytearray(n * n)
    seen[p] = 1
    found = [p]
    for p in found:  # found grows while it is walked, so it is the BFS queue
        iv, iw = divmod(p, n)
        for f, h, swap in maps:
            y = f[iw] + h[iv] if swap else f[iv] + h[iw]
            if not seen[y]:
                seen[y] = 1
                found.append(y)
    return found


def orbit_bfs(model: PairModel, start: Pt) -> set[Pt]:
    """The orbit of start, decoded from its point numbers to tuples."""
    halves = model.half_tables.halves
    n = len(halves)
    return {halves[p // n] + halves[p % n] for p in _orbit_numbers(model, start)}


def orbit_decompose(model: PairModel, points: Iterable[Pt]) -> list[set[Pt]]:
    left = set(points)
    out = []
    while left:
        start = next(iter(left))
        orb = orbit_bfs(model, start)
        if start not in orb or not orb <= left:
            raise Inconsistent("orbit escapes the given point set")
        left -= orb
        out.append(orb)
    return out


def stabilizer(model: PairModel, point: Pt, elements: Iterable) -> list:
    """The elements that fix point: one apply each, the independent
    cross-check of orbit division."""
    return [g for g in elements if model.apply(g, point) == point]


DIRECT_FILTER_LIMIT = 10_000


def stabilizer_order(
    model: PairModel, point: Pt, orbit_size: int | None = None
) -> int:
    """Order of the stabilizer by orbit division; cross-checked by direct
    filtering whenever the group is small enough to enumerate."""
    if orbit_size is None:
        orbit_size = len(_orbit_numbers(model, point))
    if model.group_order % orbit_size:
        raise Inconsistent(
            f"orbit size {orbit_size} does not divide group order {model.group_order}"
        )
    by_division = model.group_order // orbit_size
    if model.elements is not None and model.group_order <= DIRECT_FILTER_LIMIT:
        direct = len(stabilizer(model, point, model.elements))
        if direct != by_division:
            raise Inconsistent(
                f"direct stabilizer count {direct} disagrees with division {by_division}"
            )
    return by_division


def _or_none(search, *args):
    """search(*args), or None when the orbit data it reads do not add up, so
    that the check reading it fails instead of the whole report raising."""
    try:
        return search(*args)
    except Inconsistent:
        return None


def verify_model_laws(model: PairModel, samples: int = 100, seed: int = 0) -> CheckReport:
    rep = CheckReport(f"finite.laws.{model.name}", seed)
    rng = random.Random(seed)
    q = model.q
    ident = model.identity()

    for i in range(samples):
        g, h = model.sample(rng), model.sample(rng)
        x = tuple(_draws(rng, q, model.dim))
        gh_x, g_hx = model.apply(model.mul(g, h), x), model.apply(g, model.apply(h, x))
        if gh_x != g_hx:
            got = {"(g h) x": gh_x, "g (h x)": g_hx}
            rep.fail("compose", i, {"g": g, "h": h, "x": x}, got)
        g_inv = model.inv(g)
        left, right = model.mul(g, g_inv), model.mul(g_inv, g)
        if left != ident or right != ident:
            got = {"g g^-1": left, "g^-1 g": right}
            rep.fail("inverse", i, {"g": g, "h": h, "x": x}, got)
    bad = rep.bad
    rep.verdict("compose", f"{samples - bad['compose']}/{samples} triples associate with the action")
    rep.verdict("inverse", f"{samples - bad['inverse']}/{samples} sampled inverses check out")

    if model.elements is not None and model.group_order <= DIRECT_FILTER_LIMIT:
        rep.add(
            "closure",
            closure(ident, model.mul, model.generators) == set(model.elements),
            f"generators reach all {model.group_order} elements",
        )
    return rep


# ---------------------------------------------------------------------------
# the rank-3 pairing space

def _dot(v, w, q):
    return sum(a * b for a, b in zip(v, w)) % q


def verify_q6_claims(q: int = 5) -> CheckReport:
    if q not in (5, 13):
        raise ValueError("rank-3 orbit verification is kept to q in {5, 13}")
    rep = CheckReport(f"finite.pairing3.{q}", seed=q)
    model = ModelSL3Swap(q)
    unit_count = q * q * (q**3 - 1)
    axes_count = 2 * (q**3 - 1)
    orth_count = (q**3 - 1) * (q**2 - 1)

    if q == 5:
        by_value: dict[int, int] = {}
        axes = nonzero_orth = 0
        for pt in product(range(q), repeat=model.dim):
            v, w = pt[:3], pt[3:]
            d = _dot(v, w, q)
            by_value[d] = by_value.get(d, 0) + 1
            if (any(v) and not any(w)) or (any(w) and not any(v)):
                axes += 1
            if any(v) and any(w) and d == 0:
                nonzero_orth += 1

        rep.add(
            "pairing.count",
            by_value.get(1, 0) == unit_count,
            f"{by_value.get(1, 0)} points with pairing 1, expected q^2(q^3-1) = {unit_count}",
        )
        for c in range(1, q):
            got = {"points": by_value.get(c, 0), "predicted": unit_count}
            if got["points"] != unit_count:
                rep.fail("pairing.cosets", c, {"pairing value": c}, got)
        rep.verdict("pairing.cosets", "every nonzero pairing value has the same count")
        rep.add(
            "axes.count",
            axes == axes_count,
            f"{axes} axis points, expected 2(q^3-1) = {axes_count}",
        )
        rep.add(
            "orth.count",
            nonzero_orth == orth_count,
            f"{nonzero_orth} orthogonal nonzero pairs, expected (q^3-1)(q^2-1) = {orth_count}",
        )
        total = (q - 1) * unit_count + 1 + axes + nonzero_orth
        rep.add("partition", total == q**6, f"counts add up to q^6 = {q ** 6}")
    else:
        total = (q - 1) * unit_count + 1 + axes_count + orth_count
        rep.add("partition", total == q**6, "closed-form pairing counts add up to q^6")

    # the pairing value is invariant, so a full orbit inside the pairing-1
    # locus plus a size match proves transitivity there
    rng = random.Random(q)
    for i in range(200):
        x = tuple(_draws(rng, q, 6))
        g = model.sample(rng)
        y = model.apply(g, x)
        before, after = _dot(x[:3], x[3:], q), _dot(y[:3], y[3:], q)
        if before != after:
            got = {"g x": y, "pairing of x": before, "pairing of g x": after}
            rep.fail("pairing.invariant", i, {"x": x, "g": g}, got)
    rep.verdict("pairing.invariant", "pairing value preserved on 200 samples")

    # only the sizes are read, so the orbits are counted and never decoded
    base_unit = (1, 0, 0, 1, 0, 0)
    unit_size = len(_orbit_numbers(model, base_unit))
    rep.add(
        "pairing.orbit",
        unit_size == unit_count,
        f"pairing-1 locus is a single orbit of size {unit_size}",
    )
    stab = _or_none(stabilizer_order, model, base_unit, unit_size)
    rep.add(
        "pairing.stab",
        stab == 2 * (q**3 - q),
        f"stabilizer order {stab}, expected 2|SL2| = {2 * (q ** 3 - q)}",
    )

    base_axis = (1, 0, 0, 0, 0, 0)
    axis_size = len(_orbit_numbers(model, base_axis))
    rep.add(
        "axes.orbit",
        axis_size == axes_count,
        f"axes form a single orbit of size {axis_size}",
    )
    axis_stab = q * q * (q**3 - q)
    rep.add(
        "axes.stab",
        _or_none(stabilizer_order, model, base_axis, axis_size) == axis_stab,
        f"stabilizer order {axis_stab} = q^2 |SL2|",
    )

    base_orth = (1, 0, 0, 0, 1, 0)
    orth_size = len(_orbit_numbers(model, base_orth))
    rep.describe(
        "orth.orbit",
        f"orbit of a base orthogonal pair has size {orth_size} of {orth_count}; "
        "transitivity in general needs square roots, so no assertion",
    )
    rep.add(
        "orth.stab.divides",
        model.group_order % orth_size == 0,
        "orbit size divides the group order",
    )
    return rep


# ---------------------------------------------------------------------------
# the rank-2 pairing space and its orthogonal locus

def _lambda_of(pt: Pt, q: int) -> int:
    """Scalar lam with w = lam * (-v2, v1) for an orthogonal pair (v, w)."""
    v1, v2, w1, w2 = pt
    if v1:
        return w2 * pow(v1, -1, q) % q
    return -w1 * pow(v2, -1, q) % q


def verify_c4_structure(q: int = 5) -> CheckReport:
    rep = CheckReport(f"finite.pairing2.{q}")
    model = ModelRank2(q)

    unit_pts = []
    orth_pts = []
    for pt in product(range(q), repeat=model.dim):
        v, w = pt[:2], pt[2:]
        d = (v[0] * w[0] + v[1] * w[1]) % q
        if d == 1:
            unit_pts.append(pt)
        if d == 0 and any(v) and any(w):
            orth_pts.append(pt)

    unit_expect = (q**2 - 1) * q
    rep.add(
        "pairing.count",
        len(unit_pts) == unit_expect,
        f"{len(unit_pts)} pairing-1 points, expected (q^2-1)q = {unit_expect}",
    )
    base_unit = (1, 0, 1, 0)
    orb = orbit_bfs(model, base_unit)
    rep.add("pairing.orbit", orb == set(unit_pts), "pairing-1 locus is a single orbit")
    stab = _or_none(stabilizer_order, model, base_unit, len(orb))
    # stabilizer_order filters directly only up to DIRECT_FILTER_LIMIT, passed at q = 13
    fixers = stabilizer(model, base_unit, model.elements)
    rep.add("pairing.stab", stab == 8 == len(fixers), f"stabilizer order {stab} (direct filter cross-check ran)")
    # more than one group of order 8 exists, so report the computed shape without naming one
    # the order of g is the size of its cyclic closure {1, g, g^2, ...}
    ident = model.identity()
    orders = sorted(len(closure(ident, lambda h, x: model.mul(x, h), [g])) for g in fixers)
    abelian = all(
        model.mul(a, b) == model.mul(b, a) for a in fixers for b in fixers
    )
    rep.describe(
        "pairing.stab.shape",
        f"stabilizer element orders {orders}, {'abelian' if abelian else 'nonabelian'}",
    )

    # parametrization of the orthogonal locus by (v, lam), lam != 0
    orth_expect = (q**2 - 1) * (q - 1)
    param = set()
    for v1 in range(q):
        for v2 in range(q):
            if v1 == 0 and v2 == 0:
                continue
            for lam in range(1, q):
                param.add((v1, v2, -lam * v2 % q, lam * v1 % q))
    rep.add(
        "orth.param",
        param == set(orth_pts) and len(param) == orth_expect,
        f"(v, lam) parametrization is a bijection onto all {orth_expect} points",
    )

    # how each generator moves the scalar lam
    laws = (
        lambda x: x,
        lambda x: x,
        lambda x: -pow(x, -1, q) % q,
        lambda x: -x % q,
        lambda x: x,
    )
    for i, pt in enumerate(orth_pts):
        lam = _lambda_of(pt, q)
        for k, (g, law) in enumerate(zip(model.generators, laws)):
            moved, want = _lambda_of(model.apply(g, pt), q), law(lam) % q
            if moved != want:
                got = {"lam": lam, f"lam after generator {k}": moved, "predicted": want}
                rep.fail("orth.lambda", i, {"x": pt}, got)
    rep.verdict("orth.lambda", "matrix part and sign fix lam; swap sends it to -1/lam; flip negates it")

    i_q = sqrt_minus_one(q)
    special = []
    rest = []
    for pt in orth_pts:
        (special if pow(_lambda_of(pt, q), 2, q) in (1, q - 1) else rest).append(pt)
    # lam^2 = 1 has two roots and so does lam^2 = -1, since q = 1 mod 4
    rep.add(
        "orth.special.count",
        len(special) == (q**2 - 1) * 4,
        f"{len(special)} points with lam^2 = +-1",
    )
    if q == 5:
        rep.add("orth.special.all", not rest, "at q = 5 every lam satisfies lam^2 = +-1")

    orbits = _or_none(orbit_decompose, model, special) or []
    sizes = sorted(len(o) for o in orbits)
    rep.add(
        "orth.special.orbits",
        len(orbits) == 2 and sizes == [2 * (q**2 - 1)] * 2,
        f"two orbits of size 2(q^2-1) = {2 * (q ** 2 - 1)}",
    )
    reps_pts = [(1, 0, 0, 1), (1, 0, 0, i_q)]
    no_sign = model.no_sign_subgroup()
    for i, pt in enumerate(reps_pts):
        if not any(pt in o for o in orbits):
            rep.fail("orth.special.stab", i, {"x": pt}, {"orbit": "none of the special orbits"})
            continue
        count = len(stabilizer(model, pt, no_sign))
        if count != 2 * q:
            rep.fail("orth.special.stab", i, {"x": pt}, {"stabilizer order": count})
    rep.verdict(
        "orth.special.stab",
        f"both base points have stabilizer order 2q = {2 * q} in the no-sign subgroup",
    )

    if rest:
        rest_orbits = _or_none(orbit_decompose, model, rest)
        if rest_orbits is None:
            rep.add("orth.rest", False, f"{len(rest)} points with lam^2 != +-1 are not a union of orbits")
        else:
            rep.describe(
                "orth.rest",
                f"{len(rest)} points with lam^2 != +-1 fall into {len(rest_orbits)} orbits "
                f"of sizes {sorted(len(o) for o in rest_orbits)}; no general claim asserted",
            )
    return rep


# ---------------------------------------------------------------------------
# the unitriangular stratification

def _level_last(v) -> int | None:
    # stratify by last nonzero coordinate: 1 deepest, 3 shallowest
    if v[2]:
        return 1
    if v[1]:
        return 2
    if v[0]:
        return 3
    return None


def _level_first(w) -> int | None:
    if w[0]:
        return 1
    if w[1]:
        return 2
    if w[2]:
        return 3
    return None


_DIAG_COORD = {1: (2, 0), 2: (1, 1), 3: (0, 2)}  # level -> (v index, w index)


def stratum_of(pt: Pt, q: int) -> str:
    """Classify a nonzero pair into one of the ten strata.

    Matched means the distinguished coordinate of w agrees with that of the
    twist image of v, i.e. the pair sits on the graph of the equivariant
    identification of the two flags.  At the middle level the twist carries
    the sign of the reversal matrix, so the match there reads w2 = -v2; with
    a plain coordinate match instead, the matched mid-level points would have
    stabilizer order q rather than 2q and the orbit predictions would fail.
    """
    v, w = pt[:3], pt[3:]
    lv, lw = _level_last(v), _level_first(w)
    if lv is None and lw is None:
        return "zero"
    if lv is None or lw is None:
        return "S4"
    pair = (lv, lw)
    if pair in ((1, 3), (3, 1)):
        return "S1"
    if pair in ((1, 2), (2, 1)):
        return "S2"
    if pair in ((2, 3), (3, 2)):
        return "S3"
    vi, wi = _DIAG_COORD[lv]
    if lv == 2:
        matched = (v[vi] + w[wi]) % q == 0
        return "S9" if matched else "S6"
    matched = v[vi] == w[wi]
    if lv == 3:
        return "S8" if matched else "S5"
    return "S10" if matched else "S7"


def _strata_expectations(q: int) -> dict[str, dict]:
    """Counts, orbit counts, and orbit size multisets for each stratum."""
    return {
        "S1": {"count": 2 * q**2 * (q - 1) ** 2, "orbits": (q - 1) ** 2, "sizes": {2 * q**2: (q - 1) ** 2}},
        "S2": {"count": 2 * q**3 * (q - 1) ** 2, "orbits": q * (q - 1) ** 2, "sizes": {2 * q**2: q * (q - 1) ** 2}},
        "S3": {"count": 2 * q * (q - 1) ** 2, "orbits": (q - 1) ** 2, "sizes": {2 * q: (q - 1) ** 2}},
        "S4": {"count": 2 * (q**3 - 1), "orbits": 3 * (q - 1), "sizes": {2 * q**2: q - 1, 2 * q: q - 1, 2: q - 1}},
        "S5": {"count": (q - 1) * (q - 2), "orbits": (q - 1) * (q - 2) // 2, "sizes": {2: (q - 1) * (q - 2) // 2}},
        "S6": {"count": q**2 * (q - 1) * (q - 2), "orbits": (q - 1) * (q - 2) // 2, "sizes": {2 * q**2: (q - 1) * (q - 2) // 2}},
        "S7": {"count": q**4 * (q - 1) * (q - 2), "orbits": q * (q - 1) * (q - 2) // 2, "sizes": {2 * q**3: q * (q - 1) * (q - 2) // 2}},
        "S8": {"count": q - 1, "orbits": q - 1, "sizes": {1: q - 1}},
        "S9": {"count": q**2 * (q - 1), "orbits": q - 1, "sizes": {q**2: q - 1}},
        "S10": {"count": q**4 * (q - 1), "orbits": q * (q - 1), "sizes": {q**3: q * (q - 1)}},
    }


# canonical base points, one per stratum, with their predicted orbit sizes
def _strata_base_points(q: int) -> dict[str, tuple[Pt, int]]:
    return {
        "S1": ((0, 0, 1, 0, 0, 1), 2 * q**2),
        "S2": ((0, 0, 1, 0, 1, 0), 2 * q**2),
        "S3": ((0, 1, 0, 0, 0, 1), 2 * q),
        "S4": ((0, 0, 1, 0, 0, 0), 2 * q**2),
        "S5": ((1, 0, 0, 0, 0, 2), 2),
        "S6": ((0, 1, 0, 0, 1, 0), 2 * q**2),
        "S7": ((0, 0, 1, 2, 0, 0), 2 * q**3),
        "S8": ((1, 0, 0, 0, 0, 1), 1),
        "S9": ((0, 1, 0, 0, q - 1, 0), q**2),
        "S10": ((0, 0, 1, 1, 0, 0), q**3),
    }


def verify_strata_partition(q: int = 5) -> CheckReport:
    if q not in (5, 13):
        raise ValueError("strata verification is kept to q in {5, 13}")
    rep = CheckReport(f"finite.strata.{q}", seed=q)
    model = ModelUnitriangular(q)
    expect = _strata_expectations(q)

    for i, v in enumerate(product(range(q), repeat=3)):
        la, lb, zero = _level_last(v), _level_first(v), not any(v)
        if (la is None) != zero or (lb is None) != zero:
            rep.fail("flags", i, {"v": v}, {"last level": la, "first level": lb})
    rep.verdict("flags", "both flag stratifications cover the nonzero vectors")

    # the twist conjugates a unitriangular element to its reversed transpose
    sigma = model.twist
    sig_inv = model.inv(sigma)
    for i, (a, b, c) in enumerate(product(range(q), repeat=3)):
        g = model.element(unitriangular(q, a, b, c))
        want = unitriangular(q, c, (a * c - b) % q, a)
        got = model.mul(sigma, model.mul(g, sig_inv))
        if got[0] != want or got[2] != 1:
            conj = {"sigma g sigma^-1": got, "predicted": model.element(want)}
            rep.fail("twist.conj", i, {"a": a, "b": b, "c": c}, conj)
    rep.verdict("twist.conj", "conjugation by the twist reverses the parameters")

    bases = _strata_base_points(q)
    for i, (s, (pt, _)) in enumerate(bases.items()):
        got = stratum_of(pt, q)
        if got != s:
            rep.fail("bases", i, {"stratum": s, "x": pt}, {"classified as": got})
    rep.verdict("bases", "each canonical base point classifies into its stratum")

    def check_invariance(i: int, x: Pt, s: str) -> None:
        for k, g in enumerate(model.generators):
            y = model.apply(g, x)
            if stratum_of(y, q) != s:
                got = {f"generator {k} image": y, "strata": f"{s} -> {stratum_of(y, q)}"}
                rep.fail("invariance", i, {"x": x}, got)

    if q == 5:
        buckets: dict[str, list[Pt]] = {}
        for i, pt in enumerate(product(range(q), repeat=model.dim)):
            s = stratum_of(pt, q)
            buckets.setdefault(s, []).append(pt)
            check_invariance(i, pt, s)

        rep.add("zero", len(buckets.get("zero", [])) == 1, "only the origin is unstratified")
        counts = {s: len(buckets.get(s, [])) for s in expect}
        for i, (s, e) in enumerate(expect.items()):
            if counts[s] != e["count"]:
                rep.fail("counts", i, {"stratum": s}, {"points": counts[s], "predicted": e["count"]})
        rep.verdict("counts", "all ten strata have their predicted point counts " + str(counts))
        rep.add(
            "partition",
            sum(len(b) for b in buckets.values()) == q**6,
            "strata plus origin exhaust the space",
        )
        rep.verdict("invariance", "every stratum is preserved by every generator")

        details = {}
        for i, (s, e) in enumerate(expect.items()):
            orbits = _or_none(orbit_decompose, model, buckets[s]) or []
            sizes: dict[int, int] = {}
            for o in orbits:
                sizes[len(o)] = sizes.get(len(o), 0) + 1
            details[s] = sizes
            if (
                len(orbits) != e["orbits"]
                or sizes != e["sizes"]
                or any(model.group_order % len(o) for o in orbits)
            ):
                got = {"orbits": len(orbits), "sizes": sizes, "predicted": (e["orbits"], e["sizes"])}
                rep.fail("orbits", i, {"stratum": s}, got)
        rep.verdict("orbits", "orbit counts and sizes match in every stratum " + str(details))
    else:
        # the full space has q^6 ~ 4.8M points; check the count ledger
        # arithmetically and the dynamics on base orbits only
        total = sum(e["count"] for e in expect.values())
        rep.add("partition", total + 1 == q**6, "predicted stratum counts sum to q^6 - 1")

        # the 2000 points are consecutive draws, so they are drawn at once
        flat = _draws(random.Random(q), q, 6 * 2000)
        for i in range(2000):
            x = tuple(flat[6 * i : 6 * i + 6])
            check_invariance(i, x, stratum_of(x, q))
        rep.verdict("invariance", "strata preserved on 2000 sampled points")

        for i, (s, (pt, size)) in enumerate(bases.items()):
            orb = orbit_bfs(model, pt)
            if len(orb) != size or any(stratum_of(y, q) != s for y in orb):
                met = sorted({stratum_of(y, q) for y in orb})
                got = {"orbit size": len(orb), "predicted": size, "strata": met}
                rep.fail("base.orbits", i, {"x": pt}, got)
        rep.verdict("base.orbits", "base-point orbit sizes match the predictions")

    fixed_pts = [(lam, 0, 0, 0, 0, lam) for lam in range(1, q)]
    for i, pt in enumerate(fixed_pts):
        stab = len(stabilizer(model, pt, model.elements))
        if stab != model.group_order:
            rep.fail("fixed", i, {"x": pt}, {"stabilizer": stab, "group order": model.group_order})
    rep.verdict("fixed", "matched-scalar axis points are fixed by the whole group")

    # the mid-depth matched stratum: stabilizer order 2q; the group has
    # 2q^3 <= DIRECT_FILTER_LIMIT elements, so stabilizer_order's direct
    # filter cross-checks its division
    stab = _or_none(stabilizer_order, model, bases["S9"][0])
    rep.add("mid.stab", stab == 2 * q, f"stabilizer order {stab} = 2q by direct filter and by division")

    rep.add(
        "free.stab",
        _or_none(stabilizer_order, model, bases["S7"][0]) == 1,
        "deep unmatched pairs have trivial stabilizer",
    )
    rep.add(
        "deep.diag.stab",
        _or_none(stabilizer_order, model, bases["S10"][0]) == 2,
        "deep matched pairs have stabilizer order 2",
    )
    return rep


# ---------------------------------------------------------------------------
# raw group orders against class evaluations

def classcount_sanity(q: int) -> CheckReport:
    if q not in (3, 5):
        raise ValueError("brute-force counting is kept to q in {3, 5}")
    rep = CheckReport(f"finite.classcount.{q}")

    gl2 = sl2 = 0
    for a, b, c, d in product(range(q), repeat=4):
        det = (a * d - b * c) % q
        if det:
            gl2 += 1
        if det == 1:
            sl2 += 1

    # rank 3 via independent pairs: (v, w) independent iff cross(v, w) != 0,
    # and each such pair completes to a determinant-1 matrix in q^2 ways
    vecs = list(product(range(q), repeat=3))
    pairs = 0
    for v in vecs:
        for w in vecs:
            cross = (
                (v[1] * w[2] - v[2] * w[1]) % q,
                (v[2] * w[0] - v[0] * w[2]) % q,
                (v[0] * w[1] - v[1] * w[0]) % q,
            )
            if any(cross):
                pairs += 1
    sl3 = pairs * q * q
    gl3 = pairs * (q**3 - q**2)

    if q == 3:
        naive_sl3 = naive_gl3 = 0
        for flat in product(range(q), repeat=9):
            m = (flat[0:3], flat[3:6], flat[6:9])
            d = det3(m, q)
            if d:
                naive_gl3 += 1
            if d == 1:
                naive_sl3 += 1
        rep.add(
            "rank3.naive",
            naive_sl3 == sl3 and naive_gl3 == gl3,
            f"pair counting agrees with the 3^9 loop: {sl3}, {gl3}",
        )

    rep.add("gl2", lc_eval_at(class_gl(2), q) == gl2, f"|GL2| = {gl2}")
    rep.add("sl2", lc_eval_at(class_sl(2), q) == sl2, f"|SL2| = {sl2}")
    rep.add("sl3", lc_eval_at(class_sl(3), q) == sl3, f"|SL3| = {sl3}")
    rep.add("gl3", lc_eval_at(class_gl(3), q) == gl3, f"|GL3| = {gl3}")
    rep.add(
        "spin3",
        lc_eval_at(class_spin(3), q) == sl2,
        "the rank-3 spin count equals |SL2|",
    )
    rep.add(
        "spin4",
        lc_eval_at(class_spin(4), q) == sl2 * sl2,
        "the rank-4 spin count equals |SL2|^2",
    )
    return rep
