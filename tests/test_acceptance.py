"""Acceptance gate: one test per shipped claim, each printing a single
pass/fail line under pytest -v.  Time bounds are asserted where a claim
carries one; all value checks are exact.  Each suite built at seed 0 with
100 samples also has its report JSON pinned by sha256, so a refactor that
changes any check id, detail or rendered side shows up here."""

import hashlib
import random
import time

from dsl_corpus import CORPUS
from grstacks import dsl
from grstacks.lefschetz import LC_ONE, lc_eq, lc_inv, lc_mul, lc_normalize, l_pow_minus_one
from grstacks.motive import (
    bspin,
    class_spin,
    clear_tower_cache,
    solve_deltas,
    substitute_deltas,
)
from grstacks.suites import (
    suite_clifford,
    suite_finite,
    suite_g2,
    suite_ring,
    suite_spin78,
    suite_tower,
)


def _ids(rep):
    return {c.id: c for c in rep.checks}


def _digest(rep):
    return hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest()


def test_criterion_1_g2_ledger_exact_under_one_second():
    t0 = time.perf_counter()
    rep = suite_g2(seed=0, samples=100)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "afb68498140641139a0834098296ace95e6a169470fec67ccce0b59a0e8a4c6a"
    checks = _ids(rep)
    for id_ in ("strata.sum", "h.value", "bg2.final", "bg2.unit"):
        assert checks[id_].status == "pass", id_
    assert dt < 1.0, f"g2 ledger took {dt:.2f}s"


def test_criterion_2_spin_ledger_exact_under_one_second():
    t0 = time.perf_counter()
    rep = suite_spin78(seed=0, samples=100)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "70b9ef80e1261a1c7be9ba538091bb872c3317ae4053fac1326a06f6002e1518"
    checks = _ids(rep)
    for id_ in ("bspin7.inv", "bspin7.unit", "bspin8.assembly", "bspin8.unit"):
        assert checks[id_].status == "pass", id_
    assert dt < 1.0, f"spin ledger took {dt:.2f}s"


def test_criterion_3_tower_leading_coefficients_under_ten_seconds():
    clear_tower_cache()
    t0 = time.perf_counter()
    one = lc_normalize((-1, 1))
    for n in range(3, 31):
        e = bspin(n)
        coeff = e.atom_map().get(n - 1)
        assert coeff is not None, f"no top atom at n={n}"
        closed = LC_ONE
        for _ in range(n - 1):
            closed = lc_mul(closed, one)
        for i in range(2, n + 1):
            closed = lc_mul(closed, lc_inv(l_pow_minus_one(i)))
        assert lc_eq(coeff, closed), f"leading coefficient mismatch at n={n}"
        assert coeff.is_unit(), f"leading coefficient not a unit at n={n}"
        assert max(e.support()) <= n - 1, f"support leak at n={n}"
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"tower scan took {dt:.2f}s"


def test_tower_suite_report_bytes():
    rep = suite_tower(seed=0, samples=100)
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "8b60c4bae13ce1d731483a0b728175eef175156151d1dd417b0533613c644df1"


def test_criterion_4_solver_returns_all_ones_and_inverts_spin_classes():
    sol = solve_deltas(8)
    assert sol, "solver returned nothing"
    assert all(m <= 7 for m in sol)
    assert all(lc_eq(v, LC_ONE) for v in sol.values()), "a solved atom is not 1"
    for n in range(2, 9):
        e = bspin(n)
        got = substitute_deltas(e, {m: LC_ONE for m in e.support()})
        assert lc_eq(got, lc_inv(class_spin(n))), f"substitution fails at n={n}"


def test_criterion_5_clifford_suite_clean_under_thirty_seconds():
    t0 = time.perf_counter()
    rep = suite_clifford(seed=0, samples=100)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "3b4cf565c0b2b3c4e30ae08ac7da530ae92222b19a980313e55a973f2992778b"
    assert not rep.failures
    checks = _ids(rep)
    # every advertised family is present at its full range
    for id_ in (
        "n2.rel.square",
        "n8.rel.square",
        "n8.rho.hom",
        "n3.phi.cases",
        "n8.f.hom",
        "n8.f.factor.anis",
        "n8.f.factor.iso",
        "n8.f.frame",
        "n8.phiw.hom",
        "eta.central",
        "delta.10.order",
        "embed.6.hom",
    ):
        assert checks[id_].status == "pass", id_
    assert dt < 30.0, f"clifford suite took {dt:.2f}s"


def test_criterion_6_finite_models_under_sixty_seconds():
    t0 = time.perf_counter()
    rep = suite_finite(seed=0, samples=100, q=5)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "9e949dac8fd291777576849cf307ddbce2c388172f951809d1cfd39ff29b4acc"
    checks = _ids(rep)
    assert "3100" in checks["q6.pairing.orbit"].detail
    assert checks["q6.pairing.orbit"].status == "pass"
    assert "8" in checks["q4.pairing.stab"].detail
    assert checks["q4.pairing.stab"].status == "pass"
    assert "3000" in checks["q6.axes.stab"].detail
    assert checks["q6.axes.stab"].status == "pass"
    for id_ in ("strata.partition", "strata.orbits", "strata.invariance"):
        assert checks[id_].status == "pass", id_
    for q in (3, 5):
        for grp in ("gl2", "sl2", "sl3", "spin3", "spin4"):
            assert checks[f"count.{q}.{grp}"].status == "pass", (q, grp)
    assert dt < 60.0, f"finite suite took {dt:.2f}s"


def test_finite_suite_at_thirteen_report_bytes_under_thirty_seconds():
    # the q = 13 orbit searches, which the q = 5 suite above does not reach
    t0 = time.perf_counter()
    rep = suite_finite(seed=0, samples=100, q=13)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "7c42ff0ad43d9fd0af3b0d771f041e96cc217db7eb9db27b595608ccc2f974fa"
    assert dt < 30.0, f"finite suite at q=13 took {dt:.2f}s"


def test_criterion_7_ring_suite_under_five_seconds():
    t0 = time.perf_counter()
    rep = suite_ring(seed=0, samples=100)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.to_text()
    assert _digest(rep) == "b757d3754503b6b92ab11631024a68a5b13c10d7cc61f9c914174e7edab1d64d"
    checks = _ids(rep)
    for id_ in (
        "canonical.unique",
        "canonical.oracle",
        "phi.product.poly",
        "phi.product.class",
        "units.roundtrip",
    ):
        assert checks[id_].status == "pass", id_
    assert "100" in checks["canonical.oracle"].detail
    assert dt < 5.0, f"ring suite took {dt:.2f}s"


def test_criterion_8_dsl_corpus_roundtrip_and_fuzz():
    assert len(CORPUS) == 50
    for text in CORPUS:
        value = dsl.eval(dsl.parse(text))
        out = dsl.render(value)
        again = dsl.eval(dsl.parse(out))
        assert again == value, text
        assert dsl.render(again) == out, text
    rng = random.Random(0)
    for _ in range(400):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(4096)))
        try:
            dsl.parse(blob)
        except dsl.ParseError:
            pass
    alphabet = "L()+-*/^0123456789, BSpinGDelta"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(200)))
        try:
            dsl.parse(text)
        except dsl.ParseError:
            pass
