"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer`` wraps the public functions and methods of each grstacks layer.
A wrapper times its call and subtracts the time of the wrapped calls nested
inside it, which gives the layer's self time.  Spans are aggregated in
memory by name and read once, when the run ends; nothing is written per call.

A function is wrapped in every module namespace that holds it, because a
``from .lefschetz import lc_add`` in ``motive`` binds its own reference that
a patch of ``lefschetz`` alone would miss.  Reflected dunders (``__rmul__``,
``__radd__``) are wrapped next to the plain ones.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from grstacks import blades, clifford, delta, dsl, finite, gaussian, intpoly, lefschetz, motive

# (namespace, attribute, span name).  Each function is wrapped wherever it is bound.
FUNCTIONS = (
    (intpoly, "mul", "intpoly.mul"),
    (intpoly, "monic_div", "intpoly.monic_div"),
    (intpoly, "cyclotomic", "intpoly.cyclotomic"),
    (lefschetz, "lc_normalize", "lefschetz.lc_normalize"),
    (lefschetz, "lc_mul", "lefschetz.lc_mul"),
    (lefschetz, "lc_add", "lefschetz.lc_add"),
    (lefschetz, "lc_eq", "lefschetz.lc_eq"),
    (lefschetz, "render_factors", "lefschetz.render_factors"),
    (motive, "m_add", "motive.m_add"),
    (motive, "m_scale", "motive.m_scale"),
    (dsl, "parse", "dsl.parse"),
    (dsl, "eval", "dsl.eval"),
    (dsl, "render", "dsl.render"),
    (clifford, "rho", "clifford.rho"),
    (blades, "blade_mul_mask", "blades.blade_mul_mask"),
    (finite, "orbit_bfs", "finite.orbit_bfs"),
    (finite, "stabilizer_order", "finite.stabilizer_order"),
)

# (class, attribute, span name).  The model classes inherit ``apply`` from
# different bases, so each gets its own wrapper.
METHODS = (
    (gaussian.GaussianRational, "__mul__", "gaussian.mul"),
    (gaussian.GaussianRational, "__rmul__", "gaussian.mul"),
    (gaussian.GaussianRational, "__add__", "gaussian.add"),
    (gaussian.GaussianRational, "__radd__", "gaussian.add"),
    (clifford.CliffordElement, "__mul__", "clifford.mul"),
    (clifford.CliffordElement, "__rmul__", "clifford.mul"),
    (delta.DeltaGroup, "mul", "delta.mul"),
    (delta.DeltaGroup, "commutator_subgroup", "delta.commutator_subgroup"),
    (finite.ModelSL3Swap, "apply", "finite.apply"),
    (finite.ModelRank2, "apply", "finite.apply"),
    (finite.ModelUnitriangular, "apply", "finite.apply"),
)


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "grstacks" or name.startswith("grstacks.")
    ]


class MemoCounter:
    """Tower memo hits and misses across traced ops.

    Reads the memo's ``cache_info``.  When a later version of the tower no
    longer has one, ``available`` is false and the counts are not reported.
    """

    def __init__(self):
        self._info = getattr(getattr(motive, "_tower", None), "cache_info", None)
        self.available = self._info is not None
        self.hits = self.misses = 0
        self._base = (0, 0)

    def _read(self) -> tuple[int, int]:
        info = self._info()
        return info.hits, info.misses

    def start(self) -> None:
        if self.available:
            self._base = self._read()

    def flush(self) -> None:
        if self.available:
            hits, misses = self._read()
            self.hits += hits - self._base[0]
            self.misses += misses - self._base[1]
            self._base = (hits, misses)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # one [span name, seconds in child spans] per open span
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self.memo = MemoCounter()
        self._patches = self._plan()

    # -- counters computed from call arguments and results ----------------

    def _after_mul(self, args, result) -> None:
        self.counts["intpoly.mul.coeff_ops"] += len(args[0]) * len(args[1])

    def _after_monic_div(self, args, result) -> None:
        hit = result is not None
        self.counts["intpoly.monic_div.hits"] += hit
        if self.stack and self.stack[-1][0] == "lefschetz.lc_normalize":
            self.counts["lefschetz.lc_normalize.div_tries"] += 1
            self.counts["lefschetz.lc_normalize.div_hits"] += hit

    def _after_clifford_mul(self, args, result) -> None:
        a, b = args
        other = len(b.terms) if isinstance(b, clifford.CliffordElement) else 1
        self.counts["clifford.mul.term_pairs"] += len(a.terms) * other

    def _after_orbit_bfs(self, args, result) -> None:
        self.counts["finite.orbit_bfs.points"] += len(result)

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def _memo_clear(self, fn):
        memo = self.memo

        def clear(*args, **kwargs):
            memo.flush()
            try:
                return fn(*args, **kwargs)
            finally:
                memo.start()

        return clear

    def _plan(self) -> list[tuple]:
        """Every (namespace, attribute, wrapper, original, owned) to patch."""
        after = {
            "intpoly.mul": self._after_mul,
            "intpoly.monic_div": self._after_monic_div,
            "clifford.mul": self._after_clifford_mul,
            "finite.orbit_bfs": self._after_orbit_bfs,
        }
        modules = _package_modules()
        plan = []
        functions = [
            (mod, attr, self._span(name, getattr(mod, attr), after.get(name)))
            for mod, attr, name in FUNCTIONS
        ]
        functions.append((motive, "clear_tower_cache", self._memo_clear(motive.clear_tower_cache)))
        for home, attr, wrapper in functions:
            original = getattr(home, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, key, wrapper, original, True))
        for cls, attr, name in METHODS:
            original = getattr(cls, attr)
            wrapper = self._span(name, original, after.get(name))
            plan.append((cls, attr, wrapper, original, attr in vars(cls)))
        return plan

    def install(self) -> None:
        for target, attr, wrapper, _, _ in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, _, original, owned in reversed(self._patches):
            if owned:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def run(self, fn, *args):
        """Call fn with every wrapper installed; the originals are back on return."""
        self.memo.start()
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()
            self.memo.flush()

    # -- per-layer metrics ----------------------------------------------

    def value(self, metric: str, ops: int) -> float | None:
        """One per-layer metric, per traced op; None when it cannot be read."""
        if metric == "intpoly.monic_div.hit_ratio":
            calls = self.stats["intpoly.monic_div"][0]
            return self.counts["intpoly.monic_div.hits"] / calls if calls else 0.0
        if metric in ("motive.memo_hits", "motive.memo_misses"):
            if not self.memo.available:
                return None
            return (self.memo.hits if metric == "motive.memo_hits" else self.memo.misses) / ops
        span, field = metric.rsplit(".", 1)
        if field in ("calls", "self_s") and span in self.stats:
            calls, self_s = self.stats[span]
            return (calls if field == "calls" else self_s) / ops
        return self.counts.get(metric, 0) / ops
