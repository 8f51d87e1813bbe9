"""Brute-force orbit and stabilizer checks over small prime fields."""

import random

import pytest

from grstacks.finite import (
    ModelRank2,
    ModelSL3Swap,
    ModelUnitriangular,
    NonDivisible,
    classcount_sanity,
    det3,
    identity_mat,
    mat2_tau_det1,
    mat3_inv_transpose,
    mat_mul_q,
    mat_transpose,
    orbit_bfs,
    sl2_elements,
    sqrt_minus_one,
    stabilizer_order,
    unitriangular,
    verify_c4_structure,
    verify_model_laws,
    verify_q6_claims,
    verify_strata_partition,
)
from grstacks.lefschetz import lc_eval_at
from grstacks.motive import class_sl


def _status_map(rep):
    return {c.id: c for c in rep.checks}


# -- modular helpers --------------------------------------------------


def test_sqrt_minus_one():
    for q in (5, 13, 17):
        r = sqrt_minus_one(q)
        assert r * r % q == q - 1
    with pytest.raises(ValueError):
        sqrt_minus_one(7)


def test_mat3_inverse():
    rng = random.Random(0)
    q = 5
    found = 0
    while found < 25:
        m = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        if det3(m, q) == 0:
            continue
        found += 1
        assert mat_mul_q(mat_transpose(m), mat3_inv_transpose(m, q), q) == identity_mat(3)
    with pytest.raises(ZeroDivisionError):
        mat3_inv_transpose(((1, 0, 0), (2, 0, 0), (0, 0, 1)), q)


def test_inverse_transpose_on_det_one():
    q = 7
    m = ((2, 3), (5, 8 % q))
    assert (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q == 1
    tau = mat2_tau_det1(m, q)
    prodT = mat_mul_q(tuple(tuple(r) for r in zip(*m)), tau, q)
    assert prodT == identity_mat(2)


def test_sl2_enumeration_matches_class_formula():
    for q in (2, 3, 5):
        assert len(sl2_elements(q)) == lc_eval_at(class_sl(2), q)


def test_unitriangular_composition():
    q = 5
    a = unitriangular(q, 1, 2, 3)
    b = unitriangular(q, 4, 0, 1)
    c = mat_mul_q(a, b, q)
    assert c[0][0] == c[1][1] == c[2][2] == 1 and c[1][0] == c[2][0] == c[2][1] == 0


# -- group action models ----------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModelSL3Swap(5),
        lambda: ModelRank2(5),
        lambda: ModelUnitriangular(5),
    ],
)
def test_model_laws(make):
    model = make()
    rep = verify_model_laws(model, samples=40, seed=5)
    assert rep.ok, rep.to_text()


def test_sl3_swap_order_doubles_sl3():
    for q in (3, 5):
        model = ModelSL3Swap(q)
        assert model.group_order == 2 * lc_eval_at(class_sl(3), q)


def test_stabilizer_rejects_non_dividing_orbit():
    model = ModelSL3Swap(3)
    with pytest.raises(NonDivisible):
        stabilizer_order(model, (1, 0, 0, 1, 0, 0), orbit_size=7)


def test_orbit_of_fixed_point_is_trivial():
    model = ModelUnitriangular(5)
    # the origin is fixed by the whole group
    zero = tuple(0 for _ in range(6))
    assert orbit_bfs(model, zero) == {zero}


# -- the rank-3 pairing claims ----------------------------------------


def test_q6_claims():
    rep = verify_q6_claims(5)
    assert rep.ok, rep.to_text()
    checks = _status_map(rep)
    assert "3100" in checks["pairing.orbit"].detail
    assert "240" in checks["pairing.stab"].detail
    assert "3000" in checks["axes.stab"].detail


def test_q6_rejects_other_fields():
    with pytest.raises(ValueError):
        verify_q6_claims(7)


# -- the rank-2 structure ---------------------------------------------


def test_c4_structure():
    rep = verify_c4_structure(5)
    assert rep.ok, rep.to_text()
    checks = _status_map(rep)
    assert "order 8" in checks["pairing.stab"].detail or "8" in checks["pairing.stab"].detail
    assert checks["pairing.stab"].status == "pass"


# -- strata of the twisted unipotent action ---------------------------


def test_strata_partition():
    rep = verify_strata_partition(5)
    assert rep.ok, rep.to_text()
    checks = _status_map(rep)
    for id_ in ("partition", "invariance", "orbits", "bases", "twist.conj"):
        assert checks[id_].status == "pass", id_


# -- specializations against brute-force counts -----------------------


@pytest.mark.parametrize("q", [3, 5])
def test_classcount_sanity(q):
    rep = classcount_sanity(q)
    assert rep.ok, rep.to_text()
