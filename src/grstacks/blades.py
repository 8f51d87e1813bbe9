"""Bitmask blades and their product, shared by everything Clifford-flavored.

Generators are indexed 1..n; a blade is the bitmask of its generator set.
The sign convention bakes in the relations: each generator squares to -1 and
distinct generators anticommute.  The product of two blades is the symmetric
difference, with a sign composed of the index crossings needed to interleave
the sorted factors and one -1 per squared generator.

Both kinds of -1 are counted by one prefix-XOR parity.  Generator i of s
crosses every generator of t below i and meets its own square when i is in
t, so it contributes the parity of t's bits at positions <= i.  With Q(t)
the inclusive prefix XOR of t (bit i of Q(t) is that parity), the sign is
(-1)^popcount(s & Q(t)).  So the sign of e_s e_t is the product over i in s
of the signs of e_i e_t; `delta` multiplies from those generator signs.
"""

from __future__ import annotations

from collections.abc import Iterable


def blade_sign(s: int, t: int) -> int:
    # inclusive prefix XOR of t by doubling shifts, wide enough for s's bits
    q = t
    width = (s | t).bit_length()
    k = 1
    while k < width:
        q ^= q << k
        k <<= 1
    return -1 if (s & q).bit_count() & 1 else 1


def blade_mul_mask(s: int, t: int) -> tuple[int, int]:
    return blade_sign(s, t), s ^ t


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        b = 1 << (i - 1)
        if m & b:
            raise ValueError(f"repeated generator index {i}")
        m |= b
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
