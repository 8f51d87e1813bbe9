"""Brute-force orbit and stabilizer checks over small prime fields."""

import random
from itertools import product

import pytest

from grstacks.finite import (
    ModelRank2,
    ModelSL3Swap,
    ModelUnitriangular,
    NonDivisible,
    _closure,
    _strata_base_points,
    classcount_sanity,
    det3,
    identity_mat,
    mat2_tau_det1,
    mat3_inv_transpose,
    mat_mul_q,
    mat_transpose,
    mat_vec_q,
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


def test_matrix_helpers_match_index_sums():
    # the index-sum forms the helpers had, on shapes from 1x1 to 4x3
    rng = random.Random(1)
    q = 7
    for rows, inner, cols in product(range(1, 5), range(1, 4), range(1, 4)):
        a = tuple(tuple(rng.randrange(-20, 20) for _ in range(inner)) for _ in range(rows))
        b = tuple(tuple(rng.randrange(-20, 20) for _ in range(cols)) for _ in range(inner))
        v = tuple(rng.randrange(-20, 20) for _ in range(inner))
        assert mat_mul_q(a, b, q) == tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(inner)) % q for j in range(cols))
            for i in range(rows)
        )
        assert mat_vec_q(a, v, q) == tuple(
            sum(a[i][k] * v[k] for k in range(inner)) % q for i in range(rows)
        )
        assert mat_transpose(a) == tuple(
            tuple(a[i][j] for i in range(rows)) for j in range(inner)
        )


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


# -- orbit search on half tables against the apply-driven search -------


MODELS_AT_5 = [ModelSL3Swap(5), ModelRank2(5), ModelUnitriangular(5)]


def _apply_bfs(model, start):
    # the orbit search as it ran before the half tables: apply on tuples
    return _closure(start, model.apply, model.generators)


@pytest.mark.parametrize("model", MODELS_AT_5, ids=lambda m: m.name)
def test_half_tables_act_like_apply(model):
    halves, index, maps = model.half_tables
    n = len(halves)
    k = model.dim // 2
    assert len(maps) == len(model.generators)
    for pt in product(range(model.q), repeat=model.dim):
        iv, iw = index[pt[:k]], index[pt[k:]]
        for g, (f, h, swap) in zip(model.generators, maps):
            y = f[iw] + h[iv] if swap else f[iv] + h[iw]
            assert halves[y // n] + halves[y % n] == model.apply(g, pt), (g, pt)


def test_half_tables_are_built_once_and_only_for_orbits():
    model = ModelUnitriangular(5)
    verify_model_laws(model, samples=10, seed=0)
    assert "half_tables" not in vars(model)
    orbit_bfs(model, (1, 0, 0, 0, 0, 1))
    tables = model.half_tables
    orbit_bfs(model, (0, 0, 1, 0, 0, 1))
    assert model.half_tables is tables


# the points the q6, c4 and strata verifiers search from
BASES_AT_5 = {
    "sl3_swap": [(1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0)],
    "rank2_twists": [(1, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, sqrt_minus_one(5))],
    "unitri_twist": [pt for pt, _ in _strata_base_points(5).values()],
}


@pytest.mark.parametrize("model", MODELS_AT_5, ids=lambda m: m.name)
def test_orbit_search_matches_apply_search_at_5(model):
    for pt in BASES_AT_5[model.name]:
        assert orbit_bfs(model, pt) == _apply_bfs(model, pt), pt


def test_orbit_search_matches_apply_search_on_strata_bases_at_13():
    model = ModelUnitriangular(13)
    for pt, size in _strata_base_points(13).values():
        orb = orbit_bfs(model, pt)
        assert len(orb) == size
        assert orb == _apply_bfs(model, pt), pt


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
