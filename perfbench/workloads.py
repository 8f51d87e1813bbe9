"""The four workloads: seeded input generation, the op each input drives, and
the check of each result against an oracle from ``oracle``.

An op is a JSON-able tuple whose first item names its kind.  Inputs come in
blocks: a block is one balanced, shuffled set of ops, and a run measures
whole blocks, so every run of a workload times the same mix of work whatever
the seed.  The seed fixes the order of each block and the per-op values
(specialization points, expressions, verifier sample seeds).

grstacks is reached only through module attributes (``motive.bspin``, not a
name bound at import), so that the wrappers ``spans.Tracer`` installs in the
package's namespaces see every call the benchmark makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from grstacks import clifford, delta, dsl, finite, intpoly, lefschetz, motive

import oracle

Op = tuple


class CheckFailed(Exception):
    """An op finished but its result disagrees with the oracle."""


# -- tower-cold ---------------------------------------------------------

# Cold bspin(n) cost grows steeply with n (about 0.35 s at n=24 and 1.1 s at
# n=30 on a 2-vCPU x86 host), so this band keeps about 35 ops in a 25-second
# run.  Seven neighbouring costs spread the ops evenly, so the median does not
# jump between two clusters when the host's speed shifts during a run.
TOWER_NS = tuple(range(24, 31))
SPECIALIZATION_POINTS = (2, 3, 5, 7)


def _tower_block(rng: random.Random) -> list[Op]:
    ns = list(TOWER_NS)
    rng.shuffle(ns)
    return [("tower", n, rng.choice(SPECIALIZATION_POINTS)) for n in ns]


def _run_tower(n: int, q: int):
    motive.clear_tower_cache()
    for k in range(3, n + 1):
        motive.leading_delta_coeff(k)
    e = motive.bspin(n)
    return motive.substitute_deltas(e, {m: lefschetz.LC_ONE for m in e.support()})


def _check_tower(value, n: int, q: int) -> None:
    got = lefschetz.lc_eval_at(value, q)
    want = Fraction(1, oracle.spin_order(n, q))
    if got != want:
        raise CheckFailed(f"all-ones bspin({n}) at q={q} is {got}, expected {want}")


# -- eval-roundtrip -----------------------------------------------------

# One expression for each (BSpin index, term count) pair, so every block holds
# the same mix of the expensive BSpin(11), BSpin(12) sums and the cheap ones.
BSPIN_NS = tuple(range(1, 13))
TERM_COUNTS = (2, 3, 4)
EXPRS_PER_BLOCK = len(BSPIN_NS) * len(TERM_COUNTS)
_UNIT_KINDS = ("L", "GL", "SL", "Spin", "G2", "cyclo", "Lk1")


def _unit_leaf(rng: random.Random) -> list:
    kind = rng.choice(_UNIT_KINDS)
    if kind in ("L", "G2"):
        return [kind]
    if kind in ("GL", "SL"):
        return [kind, rng.randint(1, 4)]
    if kind == "Spin":
        return [kind, rng.randint(2, 9)]
    if kind == "cyclo":
        return [kind, rng.randint(1, 24)]
    return [kind, rng.randint(1, 12)]


def _scalar_factor(rng: random.Random) -> list:
    if rng.random() < 0.3:
        return [["int", rng.randint(2, 9)], rng.randint(1, 2)]
    return [_unit_leaf(rng), rng.choice((-2, -1, 1, 1, 2))]


def gen_expr(rng: random.Random, bspin_n: int, terms: int) -> list:
    """A sum of `terms` scalar products: the first times BSpin(bspin_n), most
    of the others times one BDelta(m).

    Only unit leaves are ever divided by or raised to a negative power, and
    no term holds two atom-bearing factors, so every expression evaluates.
    """
    out = []
    for i in range(terms):
        factors = [["*", _scalar_factor(rng)]]
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.35:
                factors.append(["/", [_unit_leaf(rng), rng.randint(1, 2)]])
            else:
                factors.append(["*", _scalar_factor(rng)])
        if i == 0 or rng.random() < 0.7:
            atom = ["BSpin", bspin_n] if i == 0 else ["BDelta", rng.randint(1, 12)]
            factors.insert(rng.randrange(len(factors) + 1), ["*", [atom, 1]])
        out.append([rng.choice((1, -1)), factors])
    return out


def _leaf_text(leaf: list) -> str:
    kind = leaf[0]
    if kind == "L":
        return "L"
    if kind == "int":
        return str(leaf[1])
    if kind == "G2":
        return "G2()"
    if kind == "Lk1":
        return f"(L^{leaf[1]}-1)"
    return f"{kind}({leaf[1]})"


def render_expr(expr: list) -> str:
    out = []
    for i, (sign, factors) in enumerate(expr):
        body = ""
        for j, (op, (leaf, exponent)) in enumerate(factors):
            text = _leaf_text(leaf) + ("" if exponent == 1 else f"^{exponent}")
            body += text if j == 0 else op + text
        if i == 0:
            out.append(body if sign > 0 else "-" + body)
        else:
            out.append(("+ " if sign > 0 else "- ") + body)
    return " ".join(out)


def _eval_op(expr: list, q: int) -> Op:
    return ("eval", render_expr(expr), q, expr)


def _eval_block(rng: random.Random) -> list[Op]:
    ops = [
        _eval_op(gen_expr(rng, n, terms), rng.choice(SPECIALIZATION_POINTS))
        for n in BSPIN_NS
        for terms in TERM_COUNTS
    ]
    rng.shuffle(ops)
    return ops


def _same_value(a, b) -> bool:
    return (
        a.support() == b.support()
        and lefschetz.lc_eq(a.scalar, b.scalar)
        and all(lefschetz.lc_eq(x, y) for (_, x), (_, y) in zip(a.atoms, b.atoms))
    )


def _run_eval(text: str, q: int, expr: list):
    first = dsl.eval(dsl.parse(text))
    second = dsl.eval(dsl.parse(dsl.render(first)))
    return first, _same_value(first, second)


def _check_eval(result, text: str, q: int, expr: list) -> None:
    value, same = result
    if not same:
        raise CheckFailed(f"render/parse round trip changed the value of {text!r}")
    ones = {m: lefschetz.LC_ONE for m in value.support()}
    got = lefschetz.lc_eval_at(motive.substitute_deltas(value, ones), q)
    want = oracle.expr_value(expr, q)
    if got != want:
        raise CheckFailed(f"{text!r} at q={q} with atoms 1 is {got}, expected {want}")


# -- clifford-exact -----------------------------------------------------

CLIFFORD_SAMPLES = 25
# verify_phi_pin_embedding's "phi.cases" check asks that all four parity
# pairs occur among its samples.  Parities are even or odd with equal odds,
# so s samples miss a pair with chance about 4 * (3/4)**s: 0.3% at s = 25,
# which fails a correct program every few runs, and 1e-12 at the verifier's
# own default of 100.
PHI_PIN_SAMPLES = 100
CLIFFORD_NS = tuple(range(3, 9))
CLIFFORD_KINDS = ("relations", "phi_pin", "f", "phi_w")
# The cost of one verifier call varies with its sample seed (a relations op
# at n=6 takes 0.2 s or 0.8 s), so each (kind, n) runs with three seeds.
CLIFFORD_COPIES = 3
DELTA_NS = (7, 8, 9)


def _clifford_block(rng: random.Random) -> list[Op]:
    ops: list[Op] = [
        (kind, n, PHI_PIN_SAMPLES if kind == "phi_pin" else CLIFFORD_SAMPLES, rng.randrange(2**31))
        for kind in CLIFFORD_KINDS
        for n in CLIFFORD_NS
        for _ in range(CLIFFORD_COPIES)
    ]
    ops += [("delta", n) for n in DELTA_NS]
    rng.shuffle(ops)
    return ops


def _check_report(report, want_ids: tuple[str, ...]) -> None:
    ids = tuple(c.id for c in report.checks)
    if ids != want_ids:
        raise CheckFailed(f"{report.suite}: check IDs {ids}, expected {want_ids}")
    if not report.ok:
        failed = [c.id for c in report.checks if c.status == "fail"]
        raise CheckFailed(f"{report.suite}: failed checks {failed}")


# -- finite-q13 ---------------------------------------------------------

FINITE_Q = 13
# verify_q6_claims(13) is about a third of a block's time; c4 and strata,
# which also search orbits, take about 0.5 s each.  The laws ops run at fixed,
# evenly spaced sample counts (about 0.2-1.1 s an op on a 2-vCPU x86 host), so
# the ops around the median cover a broad range of costs.  A median that falls
# between two clusters of equal-cost ops jumps when the host's speed shifts
# during a run; one inside a spread of costs moves in step with it.
_FINITE_COUNTS = {("q6",): 1, ("c4",): 5, ("strata",): 5}
_LAWS_SAMPLES = {
    "ModelUnitriangular": (100, 100, 100),
    "ModelSL3Swap": (1500, 3000, 4500, 6000, 7500),
    "ModelRank2": (3000, 6000, 9000, 12000, 15000),
}


def _finite_block(rng: random.Random) -> list[Op]:
    ops: list[Op] = [op for op, k in _FINITE_COUNTS.items() for _ in range(k)]
    ops += [
        ("laws", model, samples, rng.randrange(2**31))
        for model, counts in _LAWS_SAMPLES.items()
        for samples in counts
    ]
    rng.shuffle(ops)
    return ops


def _run_laws(model: str, samples: int, seed: int):
    return finite.verify_model_laws(getattr(finite, model)(FINITE_Q), samples, seed)


def _laws_ids(model: str, samples: int, seed: int) -> tuple[str, ...]:
    return oracle.LAWS_CLOSURE_IDS if model == "ModelUnitriangular" else oracle.LAWS_IDS


# -- dispatch -----------------------------------------------------------

# kind -> (call returning a CheckReport, the check IDs it must report); both
# take the op's arguments
_VERIFIERS: dict[str, tuple[Callable, Callable]] = {
    "relations": (
        clifford.verify_clifford_relations, lambda n, samples, seed: oracle.CLIFFORD_RELATIONS_IDS
    ),
    "phi_pin": (clifford.verify_phi_pin_embedding, lambda n, samples, seed: oracle.PHI_PIN_IDS),
    "f": (clifford.verify_f_properties, lambda n, samples, seed: oracle.f_properties_ids(n)),
    "phi_w": (clifford.verify_phi_w, lambda n, samples, seed: oracle.PHI_W_IDS),
    "delta": (delta.verify_delta_structure, lambda n: oracle.DELTA_IDS),
    "q6": (lambda: finite.verify_q6_claims(FINITE_Q), lambda: oracle.Q6_IDS),
    "c4": (lambda: finite.verify_c4_structure(FINITE_Q), lambda: oracle.C4_IDS),
    "strata": (lambda: finite.verify_strata_partition(FINITE_Q), lambda: oracle.STRATA_IDS),
    "laws": (_run_laws, _laws_ids),
}


def run_op(op: Op):
    """Drive the program for one op; the benchmark times exactly this call."""
    kind, *args = op
    if kind == "tower":
        return _run_tower(*args)
    if kind == "eval":
        return _run_eval(*args)
    return _VERIFIERS[kind][0](*args)


def check_op(op: Op, result) -> None:
    """Raise CheckFailed unless the result agrees with the op's oracle."""
    kind, *args = op
    if kind == "tower":
        _check_tower(result, *args)
    elif kind == "eval":
        _check_eval(result, *args)
    else:
        _check_report(result, _VERIFIERS[kind][1](*args))


def describe(op: Op) -> str:
    """The op's kind and arguments, without the eval op's expression tree."""
    args = op[1:3] if op[0] == "eval" else op[1:]
    return op[0] + "(" + ", ".join(repr(a) for a in args) + ")"


# -- workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_block: Callable[[random.Random], list[Op]]
    warmup: Op
    pool_blocks: int  # blocks generated up front; a run cycles through them
    # Fixed per workload so that runs and commits report the same percentile:
    # one of 50, 75, 90 that leaves 10+ ops beyond it in a 25-second run on
    # the 2-vCPU host the benchmark was tuned on.
    tail_pct: float


_WARMUP_EXPR = [
    [1, [["*", [["BSpin", 12], 1]], ["*", [["L"], 1]]]],
    [-1, [["*", [["GL", 3], 1]], ["/", [["cyclo", 5], 1]], ["*", [["BSpin", 11], 1]]]],
]

WORKLOADS = {
    w.name: w
    for w in (
        Workload("tower-cold", _tower_block, ("tower", TOWER_NS[-1], 2), 16, 50),
        Workload("eval-roundtrip", _eval_block, _eval_op(_WARMUP_EXPR, 3), 80, 90),
        Workload("clifford-exact", _clifford_block, ("relations", 3, CLIFFORD_SAMPLES, 0), 3, 75),
        Workload("finite-q13", _finite_block, ("c4",), 3, 50),
    )
}


def generate(workload: Workload, seed: int) -> list[list[Op]]:
    """The run's input blocks; the same (workload, seed) gives the same blocks."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make_block(rng) for _ in range(workload.pool_blocks)]


def clear_program_caches() -> None:
    """Empty the package's memo tables, so a set-up can be timed again from cold.

    Uses only public names; a cache that a later version drops is skipped.
    """
    motive.clear_tower_cache()
    for fn in (intpoly.cyclotomic, intpoly.phi_bounded, intpoly.cyclotomic_at):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()
