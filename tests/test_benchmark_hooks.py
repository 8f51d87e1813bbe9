"""The benchmark's tracer against the package under test.

`perfbench/spans.py` wraps named functions and methods of every layer, in
every module that binds them.  A rename or a dropped binding that it wraps
breaks the traced benchmark run; this test shows it in the tier-1 suite.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
