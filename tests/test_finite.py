"""Brute-force orbit and stabilizer checks over small prime fields."""

import hashlib
import random
from itertools import permutations, product

import pytest

from grstacks.finite import (
    ModelRank2,
    ModelSL3Swap,
    ModelUnitriangular,
    _draws,
    _orbit_numbers,
    _sample_sl2,
    _sample_sl3,
    _strata_base_points,
    classcount_sanity,
    closure,
    det3,
    identity_mat,
    mat2_mul_q,
    mat2_tau_det1,
    mat3_mul_q,
    mat3_tau_det1,
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
from grstacks.motive import Inconsistent, class_sl


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
        d = det3(m, q)
        if d == 0:
            continue
        found += 1
        # scaling the first row by d^-1 leaves a determinant-one matrix
        m = (tuple(x * pow(d, -1, q) % q for x in m[0]),) + m[1:]
        assert mat3_mul_q(mat_transpose(m), mat3_tau_det1(m, q), q) == identity_mat(3)
    for bad in (((1, 0, 0), (2, 0, 0), (0, 0, 1)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(Inconsistent):
            mat3_tau_det1(bad, q)


def test_inverse_transpose_on_det_one():
    q = 7
    m = ((2, 3), (5, 8 % q))
    assert (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q == 1
    tau = mat2_tau_det1(m, q)
    prodT = mat2_mul_q(tuple(tuple(r) for r in zip(*m)), tau, q)
    assert prodT == identity_mat(2)


def test_sl2_enumeration_matches_class_formula():
    for q in (2, 3, 5):
        assert len(sl2_elements(q)) == lc_eval_at(class_sl(2), q)


def test_matrix_helpers_match_index_sums():
    # the fixed-size kernels against the index-sum product, entries in [-20, 20)
    rng = random.Random(1)
    q = 7
    for size, kernel in ((2, mat2_mul_q), (3, mat3_mul_q)):
        for _ in range(50):
            a, b = (
                tuple(tuple(rng.randrange(-20, 20) for _ in range(size)) for _ in range(size))
                for _ in range(2)
            )
            assert kernel(a, b, q) == tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(size)) % q for j in range(size))
                for i in range(size)
            )
    for rows, cols in product(range(1, 5), range(1, 4)):
        a = tuple(tuple(rng.randrange(-20, 20) for _ in range(cols)) for _ in range(rows))
        assert mat_transpose(a) == tuple(
            tuple(a[i][j] for i in range(rows)) for j in range(cols)
        )


def test_unitriangular_composition():
    q = 5
    a = unitriangular(q, 1, 2, 3)
    b = unitriangular(q, 4, 0, 1)
    c = mat3_mul_q(a, b, q)
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


def _rank2_apply_oracle(g, pt, q):
    # sign, flip, swap, then B on the first half and B^-T on the second,
    # each step written with the index-sum product
    b, s, t, z = g
    if z:
        pt = tuple(-c % q for c in pt)
    if t:
        pt = (pt[0], -pt[1] % q, pt[2], -pt[3] % q)
    if s:
        pt = pt[2:] + pt[:2]
    tau = mat2_tau_det1(b, q)
    return tuple(
        sum(m[i][k] * half[k] for k in range(2)) % q
        for m, half in ((b, pt[:2]), (tau, pt[2:]))
        for i in range(2)
    )


def test_rank2_apply_matches_the_composed_action():
    model = ModelRank2(5)
    rng = random.Random(2)
    points = [tuple(rng.randrange(5) for _ in range(4)) for _ in range(8)]
    for g in model.elements:
        for pt in points:
            assert model.apply(g, pt) == _rank2_apply_oracle(g, pt, 5), (g, pt)


@pytest.mark.parametrize("n", [1, 2, 5, 13, 4394])
def test_draws_follow_the_randrange_stream(n):
    for seed in range(4):
        for k in (0, 1, 6, 50, 12_000):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _draws(rng, n, k) == [ref.randrange(n) for _ in range(k)]
            # the stream is left where randrange leaves it
            assert rng.random() == ref.random()


def _det(a):
    # cofactor expansion along the first row
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def _sample_det1_reference(rng, q, n):
    # n^2 randrange draws until the determinant is nonzero, then the first
    # row scaled by the determinant's inverse
    while True:
        a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        d = _det(a) % q
        if d:
            break
    a[0] = [x * pow(d, -1, q) % q for x in a[0]]
    return tuple(map(tuple, a))


@pytest.mark.parametrize("q", [5, 13])
def test_fixed_size_samplers_match_the_generic_reference(q):
    for n, sampler in ((2, _sample_sl2), (3, _sample_sl3)):
        rng, ref = random.Random(q), random.Random(q)
        for _ in range(2000):
            want = _sample_det1_reference(ref, q, n)
            assert _det(want) % q == 1
            assert sampler(rng, q) == want
        # the stream is left where the reference leaves it
        assert rng.random() == ref.random()


# sha256 of the first 2000 samples per model, one repr per line, drawn from
# Random(0); recorded while the samplers called randrange, randint and choice
SAMPLE_STREAM_SHA256 = {
    (5, "sl3_swap"): "1c8b11ddb5ca13386fc573c00f48fbc070bb69451f875c4ce84b1fa38810cc78",
    (5, "rank2_twists"): "da83b3d5dd32b49998883875c94bd1ce3b2d08a3b76b4a9a29ff1d565bab8e99",
    (5, "unitri_twist"): "8853583adefb32e7d6ba04bc1a762da483141277ce6f38ab6496fa2db2b1de61",
    (13, "sl3_swap"): "c56d9d8f51e6f487f19a3f2eae2d5d041620f43bf1399741a6049b00e87a79c6",
    (13, "rank2_twists"): "e17f855c07a51bfddfd61e2f1925b8185661262fa24f57460b3621bdbf37d3e0",
    (13, "unitri_twist"): "630710fc103f4f0f1583d3bfa007367096ff564e529f8b938ad369198134bdf5",
}


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("make", [ModelSL3Swap, ModelRank2, ModelUnitriangular])
def test_sample_streams_are_pinned(make, q):
    model = make(q)
    rng = random.Random(0)
    text = "\n".join(repr(model.sample(rng)) for _ in range(2000))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_STREAM_SHA256[q, model.name]


def test_sl3_swap_order_doubles_sl3():
    for q in (3, 5):
        model = ModelSL3Swap(q)
        assert model.group_order == 2 * lc_eval_at(class_sl(3), q)


def test_sl3_swap_generators_reach_the_whole_group_at_3():
    model = ModelSL3Swap(3)
    assert len(closure(model.identity(), model.mul, model.generators)) == model.group_order


def _power_loop_order(model, g):
    # the least k >= 1 with g^k = 1, by repeated multiplication
    ident = model.identity()
    acc, k = g, 1
    while acc != ident:
        acc, k = model.mul(acc, g), k + 1
    return k


@pytest.mark.parametrize("make", [ModelRank2, ModelUnitriangular])
def test_cyclic_closures_read_element_orders(make):
    # the order of g is the size of its cyclic closure {1, g, g^2, ...},
    # the reading the c4 verifier takes
    model = make(5)
    ident = model.identity()
    for g in model.elements:
        order = len(closure(ident, lambda h, x: model.mul(x, h), [g]))
        assert order == _power_loop_order(model, g), g
        assert model.group_order % order == 0, g


def test_stabilizer_rejects_non_dividing_orbit():
    model = ModelSL3Swap(3)
    with pytest.raises(Inconsistent):
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
    return closure(start, model.apply, model.generators)


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


def _transvection_generators(model):
    # the rank-3 model's earlier generating set: the six transvections
    # e_ij (i != j) and the swap
    gens = []
    for i, j in permutations(range(3), 2):
        m = [[int(r == c) for c in range(3)] for r in range(3)]
        m[i][j] = 1
        gens.append(model.element(tuple(map(tuple, m))))
    return gens + [model.element(identity_mat(3), -1)]


def test_sl3_swap_orbits_match_the_transvection_search_at_5():
    model = ModelSL3Swap(5)
    gens = _transvection_generators(model)
    for pt in BASES_AT_5["sl3_swap"]:
        assert orbit_bfs(model, pt) == closure(pt, model.apply, gens), pt


def test_orbit_numbers_start_at_the_start_and_count_the_orbit():
    model = ModelSL3Swap(5)
    for pt in BASES_AT_5["sl3_swap"]:
        numbers = _orbit_numbers(model, pt)
        orbit = orbit_bfs(model, pt)
        assert len(set(numbers)) == len(numbers) == len(orbit)
        halves = model.half_tables.halves
        assert halves[numbers[0] // len(halves)] + halves[numbers[0] % len(halves)] == pt


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
