"""The finite groups of signed basis blades inside the Clifford algebra.

Elements are pairs (sign, mask): the blade e_S with a sign attached, for S a
subset of the n generators.  The group of all of these has order 2^(n+1) and
sits inside the pin group; its structure (center, commutators, the diagonal
vector action, the shifted embedding into one-higher even blades) feeds the
atom bookkeeping of the classifying-class recursion and is small enough to
check exhaustively.

Each generator of s contributes to the sign of e_s e_t on its own (see
`blades`), so a group keeps one n-bit row per mask t, bit i set when
e_(i+1) e_t carries -1, read once from the blade kernel, and the sign of
e_s e_t is the parity of s & row[t].  Up to order EXHAUSTIVE_MAX_ORDER
(n <= 9) `verify_delta_structure` reads every unordered pair against the
commutation rule; for larger groups the rule reads every unordered pair on
the first six generators and a seeded sample of the others.  The
commutator subgroup is searched by `finite.closure`, the package's one
search over group elements.
"""

from __future__ import annotations

import csv
import itertools
import random
from collections import Counter

from . import blades
from .blades import blade_mul_mask, indices_of
from .clifford import CliffordElement, InvariantBroken, NotPin, _mat_text, is_spin, rho
from .finite import closure
from .gaussian import GR_ONE
from .report import CheckReport

Element = tuple[int, int]  # (sign in {1,-1}, generator mask)

EXHAUSTIVE_MAX_ORDER = 1024


def blade_label(el: Element) -> str:
    sign, mask = el
    inner = ",".join(str(i) for i in indices_of(mask))
    return ("+" if sign > 0 else "-") + "e{" + inner + "}"


class DeltaGroup:
    """Signed basis blades on n generators under the Clifford product."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.elements: list[Element] = [
            (s, m) for m in range(1 << n) for s in (1, -1)
        ]
        # called through the module, so a patch of blades.blade_sign reaches the rows
        self._rows = [
            sum(1 << i for i in range(n) if blades.blade_sign(1 << i, t) < 0)
            for t in range(1 << n)
        ]

    @property
    def order(self) -> int:
        return 2 << self.n

    def mul(self, a: Element, b: Element) -> Element:
        sa, ma = a
        sb, mb = b
        return (-sa * sb if (ma & self._rows[mb]).bit_count() & 1 else sa * sb, ma ^ mb)

    def inv(self, a: Element) -> Element:
        # a * a = +-1 is central, so a^-1 = (a * a) * a
        return self.mul(self.mul(a, a), a)

    def identity(self) -> Element:
        return (1, 0)

    def generators(self) -> list[Element]:
        return [(1, 1 << j) for j in range(self.n)] + [(-1, 0)]

    def commutes(self, a: Element, b: Element) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def center(self) -> list[Element]:
        gens = self.generators()
        return [a for a in self.elements if all(self.commutes(a, g) for g in gens)]

    def square(self, a: Element) -> Element:
        return self.mul(a, a)

    def commutator(self, a: Element, b: Element) -> Element:
        return self.mul(self.mul(a, b), self.inv(self.mul(b, a)))

    def commutator_subgroup(self) -> set[Element]:
        """Closure of the commutators of pairs of group generators.

        Every commutator here is central, so the generator pairs generate the
        whole commutator subgroup.
        """
        gg = self.generators()
        gens = {self.commutator(a, b) for a in gg for b in gg}
        return closure(self.identity(), lambda g, x: self.mul(x, g), gens)

    def rho_diagonal(self, a: Element) -> tuple[int, ...]:
        """Diagonal of the vector action v -> eps(a) v bar(a); entries are +-1.

        The attached sign cancels because it enters twice, so only the mask
        matters.
        """
        _, m = a
        g = m.bit_count()
        base = -1 if (g + g * (g + 1) // 2) & 1 else 1
        out = []
        for j in range(self.n):
            mj = 1 << j
            s1, m1 = blade_mul_mask(m, mj)
            s2, m2 = blade_mul_mask(m1, m)
            if m2 != mj:
                raise InvariantBroken(f"conjugate of e_{j + 1} by mask {m} is not e_{j + 1}")
            out.append(base * s1 * s2)
        return tuple(out)

    def to_clifford(self, a: Element) -> CliffordElement:
        return CliffordElement(self.n, {a[1]: GR_ONE * a[0]})

    def write_table(self, path: str) -> None:
        """Full multiplication table as CSV, rows and columns labeled."""
        els = self.elements
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["*"] + [blade_label(b) for b in els])
            for a in els:
                w.writerow([blade_label(a)] + [blade_label(self.mul(a, b)) for b in els])


def delta_embed_spin(n: int) -> dict[Element, Element]:
    """Generator i goes to e_i e_(n+1); blades map to even blades one size up."""
    grp = DeltaGroup(n)
    big = DeltaGroup(n + 1)
    top = 1 << n
    out: dict[Element, Element] = {}
    for el in grp.elements:
        s, m = el
        acc: Element = (s, 0)
        for i in indices_of(m):
            acc = big.mul(acc, (1, (1 << (i - 1)) | top))
        out[el] = acc
    return out


def verify_delta_structure(n: int) -> CheckReport:
    rep = CheckReport(f"delta.{n}")
    grp = DeltaGroup(n)
    rep.add("order", len(grp.elements) == grp.order == 2 ** (n + 1), f"order {grp.order}")

    ident = grp.identity()
    for i, a in enumerate(grp.elements):
        inv = grp.inv(a)
        prod = grp.mul(a, inv)
        if prod != ident:
            rep.fail("inverses", i, {"(sign, mask)": a}, {"inv(a)": inv, "a * inv(a)": prod})
    rep.verdict("inverses", "a * inv(a) = 1 for every element")

    if n <= 3:
        for i, (a, b, c) in enumerate(itertools.product(grp.elements, repeat=3)):
            left, right = grp.mul(grp.mul(a, b), c), grp.mul(a, grp.mul(b, c))
            if left != right:
                rep.fail("assoc", i, {"a": a, "b": b, "c": c}, {"(a b) c": left, "a (b c)": right})
        rep.verdict("assoc", "exhaustive associativity")

    center = grp.center()
    if n % 2 == 0:
        expect = {(1, 0), (-1, 0)}
    else:
        top = (1 << n) - 1
        expect = {(1, 0), (-1, 0), (1, top), (-1, top)}
    rep.add(
        "center",
        set(center) == expect,
        f"center order {len(center)} ({'with' if n % 2 else 'without'} the top blade)",
    )

    for i, el in enumerate(grp.elements):
        g = el[1].bit_count()
        want = -1 if (g * (g + 1) // 2) & 1 else 1
        square = grp.square(el)
        if square != (want, 0):
            rep.fail("squares", i, {"(sign, mask)": el}, {"e_S^2": square, "predicted": (want, 0)})
    rep.verdict("squares", "e_S^2 = (-1)^(g(g+1)/2) with g = |S|")

    if n >= 2:
        comm = grp.commutator_subgroup()
        if grp.order <= EXHAUSTIVE_MAX_ORDER:
            pairs = itertools.combinations_with_replacement(range(1 << n), 2)
        else:
            # every pair on the first six generators, where a single flipped
            # sign such as (e1e3, e2e3) lands, and a seeded sample of the rest
            rng = random.Random(n)
            pairs = itertools.chain(
                itertools.combinations_with_replacement(range(1 << 6), 2),
                ((rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4096)),
            )
        # e_s e_t = (-1)^(|s||t| + |s & t|) e_t e_s; attached signs cancel,
        # so a pair of masks stands for all four signed pairs, and the rule is
        # symmetric in s and t, so each unordered pair is read once
        if comm != {(1, 0), (-1, 0)}:
            rep.fail("commutators", 0, {"generator pairs": "all"}, {"commutator subgroup": sorted(comm)})
        for i, (s, t) in enumerate(pairs):
            st = grp.mul((1, s), (1, t))
            rule = grp.mul(((-1) ** (s.bit_count() * t.bit_count() + (s & t).bit_count()), t), (1, s))
            if st != rule:
                rep.fail("commutators", i, {"(s, t)": (s, t)}, {"e_s e_t": st, "by the rule": rule})
        rep.verdict("commutators", "commutator subgroup is {+-1}")
        if grp.order > EXHAUSTIVE_MAX_ORDER:
            els = grp.elements
            for i in range(0, len(els), 9):
                a, b = els[i], els[(i * 7 + 3) % len(els)]
                c = grp.commutator(a, b)
                if c not in comm:
                    rep.fail("commutators.spot", i, {"a": a, "b": b}, {"[a, b]": c})
            rep.verdict("commutators.spot", "sampled commutators land in the subgroup")
        rep.add(
            "abelianization",
            grp.order // len(comm) == 2**n,
            f"abelianization has order {2 ** n}",
        )

    preimages = Counter(grp.rho_diagonal(a) for a in grp.elements)
    if len(preimages) != 2**n:
        rep.fail("rho.image", 0, {"elements": grp.order}, {"distinct diagonals": len(preimages)})
    for i, diag in enumerate(preimages):
        if not set(diag) <= {1, -1}:
            rep.fail("rho.image", i, {"diagonal": diag}, {"entries": sorted(set(diag))})
    rep.verdict("rho.image", f"vector action image is all {2 ** n} diagonal sign matrices")
    for i, a in enumerate(grp.elements[:8]):
        diag = grp.rho_diagonal(a)
        if preimages[diag] != 2:
            rep.fail("rho.fiber", i, {"(sign, mask)": a}, {"diagonal": diag, "preimages": preimages[diag]})
    rep.verdict("rho.fiber", "each diagonal has exactly two preimages (spot checked)")

    if n <= 6:
        # cross-check the sign formula against the rational Clifford action
        sample = grp.elements[:: max(1, len(grp.elements) // 8)]
        for k, el in enumerate(sample):
            try:
                m = rho(grp.to_clifford(el))
            except NotPin as exc:
                # every signed blade is in the pin group
                rep.error(("rho.cross",), k, {"(sign, mask)": el}, exc)
                continue
            diag, want = tuple(1 if m[j][j] == 1 else -1 for j in range(n)), grp.rho_diagonal(el)
            if diag != want or not all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j):
                rep.fail("rho.cross", k, {"(sign, mask)": el}, {"rho": _mat_text(m), "sign formula": want})
        rep.verdict("rho.cross", "sign formula matches the exact Clifford action")

    return rep


def verify_delta_embedding(n: int) -> CheckReport:
    if n > 6:
        raise ValueError("exhaustive embedding check is limited to n <= 6")
    rep = CheckReport(f"delta.embed.{n}")
    grp = DeltaGroup(n)
    big = DeltaGroup(n + 1)
    emb = delta_embed_spin(n)

    for i, (a, b) in enumerate(itertools.product(grp.elements, repeat=2)):
        image, product = emb[grp.mul(a, b)], big.mul(emb[a], emb[b])
        if image != product:
            rep.fail("hom", i, {"a": a, "b": b}, {"emb(a b)": image, "emb(a) emb(b)": product})
    rep.verdict("hom", f"multiplicative on all {len(grp.elements) ** 2} pairs")

    rep.add("injective", len(set(emb.values())) == len(grp.elements), "no collisions")

    even = {el for el in big.elements if el[1].bit_count() % 2 == 0}
    rep.add(
        "image",
        set(emb.values()) == even,
        f"image is exactly the {len(even)} even blades one size up",
    )

    for i, el in enumerate(grp.elements[:: max(1, len(grp.elements) // 6)]):
        if not is_spin(big.to_clifford(emb[el])):
            rep.fail("spin", i, {"(sign, mask)": el}, {"image": emb[el], "is_spin": False})
    rep.verdict("spin", "sampled image elements pass the spin membership test")
    return rep
