"""Bitmask blades and their product, shared by everything Clifford-flavored.

Generators are indexed 1..n; a blade is the bitmask of its generator set.
The sign convention bakes in the relations: each generator squares to -1 and
distinct generators anticommute.  The product of two blades is the symmetric
difference, with a sign composed of the index crossings needed to interleave
the sorted factors and one -1 per squared generator.
"""

from __future__ import annotations

from collections.abc import Iterable


def blade_sign(s: int, t: int) -> int:
    # crossings: pairs (i in s, j in t) with i > j
    inv = 0
    a = s >> 1
    while a:
        inv += (a & t).bit_count()
        a >>= 1
    inv += (s & t).bit_count()
    return -1 if inv & 1 else 1


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
