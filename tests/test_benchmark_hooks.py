"""The benchmark's tracer against the package under test.

`perfbench/spans.py` wraps named functions and methods of every layer, in
every module that binds them.  A rename or a dropped binding that it wraps
breaks the traced benchmark run, and so does a change that takes a traced
kernel off the path of a workload that `perfbench/design.json` maps it to:
the traced run's self-check then finds it reading 0.  These tests show both
in the tier-1 suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# a few cheap ops of each workload's first block, which between them reach
# every kernel the workload is mapped to
SMALL_OPS = {
    "tower-cold": lambda block: [min(block, key=lambda op: op[1])],
    "eval-roundtrip": lambda block: block[:2],
    "clifford-exact": lambda block: [
        *{op[0]: op for op in block if op[0] != "delta" and op[1] == 3}.values(),
        ("delta", 7),
    ],
    "finite-q13": lambda block: [("c4",)],
}


def _bindings(spans):
    snapshot = {}
    for mod in spans._package_modules():
        for key, value in vars(mod).items():
            snapshot[(mod.__name__, key)] = value
    for cls, attr, _ in spans.METHODS:
        snapshot[(cls.__name__, attr)] = cls.__dict__.get(attr)
    return snapshot


def test_benchmark_tracer_wraps_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, attr, _ in spans.FUNCTIONS:
            assert getattr(mod, attr) is not before[(mod.__name__, attr)], attr
        for cls, attr, _ in spans.METHODS:
            assert cls.__dict__.get(attr) is not before[(cls.__name__, attr)], attr
        # a from-import binds its own name, which the tracer reaches too
        key = ("grstacks.delta", "blade_mul_mask")
        assert sys.modules[key[0]].blade_mul_mask is not before[key]
    finally:
        tracer.uninstall()
    assert _bindings(spans) == before


@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_traced_small_ops_pass_the_benchmark_self_check(monkeypatch, name):
    # the benchmark's own set-up, traced op runner and self-check, on a
    # handful of ops instead of a timed run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    tally = run.Tally()
    blocks, _ = run.set_up(workload, 0, tally)
    tracer, overheads = spans.Tracer(), []
    runner = run.traced_pair(tracer, overheads)
    for op in SMALL_OPS[name](blocks[0]):
        tally.run(op, runner)
    assert tally.failed == 0, tally.first_failure
    _, complaints = run.per_layer_metrics(tracer, overheads, name, run.load_design())
    assert complaints == []
