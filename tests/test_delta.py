"""The finite groups of signed blades and their spin embeddings."""

import csv
from collections import deque

import pytest

from grstacks.blades import blade_sign
from grstacks.clifford import is_spin, rho
from grstacks.delta import (
    DeltaGroup,
    blade_label,
    delta_embed_spin,
    verify_delta_embedding,
    verify_delta_structure,
)


def test_order_and_identity():
    for n in range(1, 7):
        grp = DeltaGroup(n)
        assert grp.order == 2 ** (n + 1) == len(grp.elements)
        ident = grp.identity()
        assert all(grp.mul(ident, a) == a for a in grp.elements)


def test_inverses():
    grp = DeltaGroup(4)
    for a in grp.elements:
        assert grp.mul(a, grp.inv(a)) == grp.identity()


def test_rank_one_is_cyclic_of_order_four():
    grp = DeltaGroup(1)
    e = (1, 1)
    powers = [e]
    while True:
        nxt = grp.mul(powers[-1], e)
        if nxt == e:
            break
        powers.append(nxt)
    assert len(powers) == 4
    assert set(powers) == set(grp.elements)
    assert len(grp.center()) == grp.order


def test_center_alternates_with_parity():
    # odd rank keeps the top blade central, even rank only the signs
    assert len(DeltaGroup(2).center()) == 2
    assert len(DeltaGroup(3).center()) == 4
    assert len(DeltaGroup(4).center()) == 2
    assert len(DeltaGroup(5).center()) == 4


def test_commutator_subgroup_is_signs():
    for n in (2, 3, 4):
        grp = DeltaGroup(n)
        comm = grp.commutator_subgroup()
        assert comm == {(1, 0), (-1, 0)}
        assert grp.order // len(comm) == 2**n


def _signed_pair_commutator_closure(grp):
    # closure of the commutators of every pair of signed elements
    gens = {grp.commutator(a, b) for a in grp.elements for b in grp.elements}
    seen = {grp.identity()}
    frontier = deque(seen)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = grp.mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@pytest.mark.parametrize("n", range(1, 9))
def test_commutator_subgroup_matches_every_signed_pair(n):
    grp = DeltaGroup(n)
    assert grp.commutator_subgroup() == _signed_pair_commutator_closure(grp)


@pytest.mark.parametrize("n", range(1, 11))
def test_inverse_is_the_square_sign_rule(n):
    # every n multiplies from the generator rows the kernel fills
    grp = DeltaGroup(n)
    for a in grp.elements:
        m = a[1]
        assert grp.inv(a) == (a[0] * blade_sign(m, m), m)


def test_squares_depend_on_grade_only():
    grp = DeltaGroup(3)
    assert grp.square((1, 0b001)) == (-1, 0)
    assert grp.square((1, 0b011)) == (-1, 0)
    assert grp.square((1, 0b111)) == (1, 0)
    assert grp.square((-1, 0b111)) == (1, 0)


def test_rho_diagonal_matches_clifford_action():
    for n in (2, 3, 4):
        grp = DeltaGroup(n)
        for el in grp.elements:
            m = rho(grp.to_clifford(el))
            assert all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j)
            diag = tuple(1 if m[j][j] == 1 else -1 for j in range(n))
            assert diag == grp.rho_diagonal(el)


def test_rho_diagonal_ignores_the_sign():
    grp = DeltaGroup(3)
    for _, m in grp.elements:
        assert grp.rho_diagonal((1, m)) == grp.rho_diagonal((-1, m))


def test_rho_image_is_every_sign_pattern():
    grp = DeltaGroup(4)
    assert len({grp.rho_diagonal(a) for a in grp.elements}) == 2**4


def test_embedding_is_an_even_injection():
    n = 3
    grp, big = DeltaGroup(n), DeltaGroup(n + 1)
    emb = delta_embed_spin(n)
    for a in grp.elements:
        for b in grp.elements:
            assert emb[grp.mul(a, b)] == big.mul(emb[a], emb[b])
    assert len(set(emb.values())) == grp.order
    assert all(el[1].bit_count() % 2 == 0 for el in emb.values())
    assert is_spin(big.to_clifford(emb[(1, 0b101)]))


def test_write_table(tmp_path):
    grp = DeltaGroup(2)
    path = tmp_path / "table.csv"
    grp.write_table(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == grp.order + 1
    assert rows[0][0] == "*"
    labels = rows[0][1:]
    assert labels == [blade_label(b) for b in grp.elements]
    # spot check one cell against the group law
    a, b = grp.elements[3], grp.elements[5]
    assert rows[4][6] == blade_label(grp.mul(a, b))


def test_structure_suite():
    for n in range(1, 11):
        rep = verify_delta_structure(n)
        assert rep.ok, rep.to_text()


def test_embedding_suite():
    for n in range(2, 7):
        rep = verify_delta_embedding(n)
        assert rep.ok, rep.to_text()
    with pytest.raises(ValueError):
        verify_delta_embedding(7)


def test_rank_floor():
    with pytest.raises(ValueError):
        DeltaGroup(0)
