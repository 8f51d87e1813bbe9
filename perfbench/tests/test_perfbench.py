"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from grstacks import dsl, lefschetz, motive  # noqa: E402


def _inputs(name: str, seed: int) -> bytes:
    return json.dumps(workloads.generate(workloads.WORKLOADS[name], seed)).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_inputs(name):
    assert _inputs(name, 7) != _inputs(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_block_holds_the_same_mix(name):
    def mix(block):
        return sorted(
            op[:3] if op[0] == "laws" else op[:2] if op[0] in ("tower", "delta") else op[:1]
            for op in block
        )

    def eval_mix(block):
        return sorted(
            (len(expr), [f[1][0] for f in expr[0][1] if f[1][0][0] == "BSpin"])
            for _, _, _, expr in block
        )

    blocks = workloads.generate(workloads.WORKLOADS[name], 3)
    key = eval_mix if name == "eval-roundtrip" else mix
    assert all(key(b) == key(blocks[0]) for b in blocks)


def _divisors_and_negative_powers(node):
    """Every (divisor, negatively powered base) subtree of a parsed AST."""
    if isinstance(node, dsl.Div):
        yield node.right
    if isinstance(node, dsl.Pow) and node.exponent < 0:
        yield node.base
    for child in ("child", "left", "right", "base"):
        if hasattr(node, child):
            yield from _divisors_and_negative_powers(getattr(node, child))


def _eval_ops(seed: int, blocks: int) -> list:
    pool = workloads.generate(workloads.WORKLOADS["eval-roundtrip"], seed)
    return [op for block in pool[:blocks] for op in block]


def test_generated_dsl_divides_only_by_units():
    inverted = 0
    for _, text, _, _ in _eval_ops(11, 8):
        ast = dsl.parse(text)
        for sub in _divisors_and_negative_powers(ast):
            value = dsl.eval(sub)
            assert value.is_scalar() and value.scalar.is_unit(), sub
            inverted += 1
    assert inverted > 100


def test_expression_oracle_matches_the_program_on_generated_inputs():
    for op in _eval_ops(5, 1):
        workloads.check_op(op, workloads.run_op(op))


def test_plain_integer_oracles():
    assert [oracle.cyclotomic_value(d, 2) for d in (1, 2, 3, 4, 6, 12)] == [1, 3, 7, 5, 3, 13]
    for q in (2, 3, 5, 7):
        sl2 = q * (q * q - 1)
        assert oracle.spin_order(3, q) == sl2
        assert oracle.spin_order(4, q) == sl2 * sl2
        assert oracle.spin_order(2, q) == q - 1
        assert oracle.sl_order(2, q) == sl2
        assert oracle.leaf_value(["BSpin", 3], q) == Fraction(1, sl2)


def _run_main(capsys, *argv) -> tuple[int, dict, str]:
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_wrong_oracle_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    true_value = oracle.expr_value

    def wrong_at_five(expr, q):
        return true_value(expr, q) + (1 if q == 5 else 0)

    monkeypatch.setattr(oracle, "expr_value", wrong_at_five)
    code, result, out = _run_main(
        capsys, "--workload", "eval-roundtrip", "--seed", "1", "--seconds", "0.1"
    )
    assert code == 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert result["attempted"] >= workloads.EXPRS_PER_BLOCK
    assert "first failure: eval(" in out
    assert result["metrics"]["op_s.p50"]["value"] > 0


def test_correct_run_reports_every_end_to_end_metric(capsys):
    code, result, _ = _run_main(
        capsys, "--workload", "eval-roundtrip", "--seed", "2", "--seconds", "0.1"
    )
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_program_error_is_a_failed_op():
    tally = run.Tally()

    def broken(op):
        raise ZeroDivisionError("injected")

    tally.run(("eval", "1", 2, []), broken)
    tally.run(("eval", "1", 2, [[1, [["*", [["int", 1], 1]]]]]))
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (2, 1, 1)
    assert "ZeroDivisionError: injected" in tally.first_failure


def _bindings():
    snapshot = {}
    for mod in spans._package_modules():
        for key, value in vars(mod).items():
            snapshot[(mod.__name__, key)] = value
    for cls, attr, _ in spans.METHODS:
        snapshot[(cls.__name__, attr)] = cls.__dict__.get(attr)
    return snapshot


def test_tracer_reaches_from_imports_and_restores_everything():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert motive.lc_add is not before[("grstacks.motive", "lc_add")]
        assert lefschetz.lc_add is not before[("grstacks.lefschetz", "lc_add")]
        assert sys.modules["grstacks.delta"].blade_mul_mask is not before[
            ("grstacks.delta", "blade_mul_mask")
        ]
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_traced_op_counts_calls_made_through_bound_names():
    tracer = spans.Tracer()
    op = ("tower", 9, 3)
    result = tracer.run(workloads.run_op, op)
    workloads.check_op(op, result)
    assert tracer.value("lefschetz.lc_add.calls", 1) > 0  # motive's own lc_add binding
    assert tracer.value("motive.memo_misses", 1) > 0
    assert 0 < tracer.value("lefschetz.lc_normalize.div_hits", 1) <= tracer.value(
        "lefschetz.lc_normalize.div_tries", 1
    )
    assert tracer.value("finite.apply.calls", 1) == 0


def test_design_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, spec["unit"], spec["better"]) for name, spec in design["per_layer"].items()
    ]
    for spec in design["per_layer"].values():
        assert set(spec["on"]) | set(spec["bypass"]) <= set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_correction_scales_and_skips_probes():
    speed = hostspeed.Speedometer()
    # probes at [0, 1], [10, 11] and [20, 21] seconds, each twice the nominal time
    speed.began, speed.ended = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    speed.took = [2 * hostspeed.NOMINAL_S] * 3
    assert speed.correct(2.0, 4.0) == pytest.approx(2.0)
    # an interval the second probe interrupted does not count the probe's second
    assert speed.correct(2.0, 12.0) == pytest.approx(5.5)
    speed.took[1] = hostspeed.NOMINAL_S
    assert speed.correct(12.0, 4.0) == pytest.approx(4 * 2 / 3)


def test_run_stops_its_interval_timer(capsys):
    import signal

    before = signal.getsignal(signal.SIGALRM)
    code, result, _ = _run_main(
        capsys, "--workload", "eval-roundtrip", "--seed", "2", "--seconds", "0.3"
    )
    assert code == 0 and result["correct"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
