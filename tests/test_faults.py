"""Fault injection: break one kernel at a time and check that the suites
built on it report FAIL rather than pass or crash."""

import itertools

import pytest

from grstacks import blades, gaussian
from grstacks.clifford import verify_clifford_relations
from grstacks.delta import DeltaGroup, verify_delta_structure

# e_1 e_2: a pair every check from rank 2 up multiplies
FLIPPED_PAIR = (0b01, 0b10)


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_table_is_the_kernel(n):
    table = blades.sign_table(n)
    assert len(table) == 1 << (2 * n)
    for s, t in itertools.product(range(1 << n), repeat=2):
        assert table[s << n | t] == (blades.blade_sign(s, t) < 0), (s, t)
    grp = DeltaGroup(n)
    for a, b in itertools.product(grp.elements, repeat=2):
        sign, mask = blades.blade_mul_mask(a[1], b[1])
        assert grp.mul(a, b) == (a[0] * b[0] * sign, mask)


@pytest.fixture
def flipped_blade_sign(monkeypatch):
    kernel = blades.blade_sign

    def flipped(s, t):
        sign = kernel(s, t)
        return -sign if (s, t) == FLIPPED_PAIR else sign

    monkeypatch.setattr(blades, "blade_sign", flipped)


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_flipped_blade_sign_fails_delta_structure(flipped_blade_sign, n):
    # n <= 9 reads the flipped sign from the table, n = 10 from the kernel
    assert DeltaGroup(n).mul((1, 0b01), (1, 0b10)) == (-1, 0b11)
    rep = verify_delta_structure(n)
    assert not rep.ok


@pytest.mark.parametrize("n", [2, 3, 5])
def test_flipped_blade_sign_fails_clifford_relations(flipped_blade_sign, n):
    rep = verify_clifford_relations(n, samples=25, seed=0)
    assert not rep.ok
    assert "rel.polar" in {c.id for c in rep.failures}


def test_unreduced_gaussians_fail_clifford_relations(monkeypatch):
    # without the gcd step equal values have unequal (x, y, d), so the
    # exact equalities behind the pin-group laws turn false
    monkeypatch.setattr(gaussian, "gcd", lambda *args: 1)
    rep = verify_clifford_relations(3, samples=25, seed=0)
    assert not rep.ok
    assert "rho.hom" in {c.id for c in rep.failures}
