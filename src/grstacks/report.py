"""Check reports: the shared result type for all verification suites.

A looped check records each failing case with CheckReport.fail (error, for a
case that raised) and adds its verdict once with verdict, which keeps the first
failing case: lhs "seed S sample I: k = v, ..." (the report's seed, the case's
index in its loop, its inputs) and rhs "k = v; ..." (what the check computed
from them).  A check with no failing case keeps both sides empty.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .frozen import refuse_writes

PASS = "pass"
FAIL = "fail"
DESCRIPTIVE = "descriptive"


@refuse_writes
@dataclass(frozen=True, slots=True)
class CheckResult:
    id: str
    status: str
    detail: str = ""
    lhs: str = ""
    rhs: str = ""


@dataclass
class CheckReport:
    suite: str
    seed: int = 0
    checks: list[CheckResult] = field(default_factory=list)
    # per looped check: its first failing case as (lhs, rhs), and the count of failing cases
    first: dict[str, tuple[str, str]] = field(default_factory=dict, repr=False, compare=False)
    bad: Counter[str] = field(default_factory=Counter, repr=False, compare=False)

    def add(self, id: str, ok: bool, detail: str = "", lhs: str = "", rhs: str = "") -> None:
        self.checks.append(CheckResult(id, PASS if ok else FAIL, detail, lhs, rhs))

    def fail(self, check: str, i: int, inputs: dict, got: dict) -> None:
        self.bad[check] += 1
        if check not in self.first:
            drawn = ", ".join(f"{k} = {v}" for k, v in inputs.items())
            computed = "; ".join(f"{k} = {v}" for k, v in got.items())
            self.first[check] = (f"seed {self.seed} sample {i}: {drawn}", computed)

    def error(self, checks: tuple[str, ...], i: int, inputs: dict, exc: Exception) -> None:
        """Record a case that raised as a failure of every check it fed."""
        for check in checks:
            self.fail(check, i, inputs, {"error": f"{type(exc).__name__}: {exc}"})

    def verdict(self, check: str, detail: str) -> None:
        """Add a looped check: PASS unless fail ran for it, with its first failing case."""
        self.add(check, check not in self.first, detail, *self.first.get(check, ()))

    def describe(self, id: str, detail: str, lhs: str = "", rhs: str = "") -> None:
        self.checks.append(CheckResult(id, DESCRIPTIVE, detail, lhs, rhs))

    def extend(self, other: "CheckReport", prefix: str = "") -> None:
        if not prefix:
            self.checks.extend(other.checks)
            return
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.id, c.status, c.detail, c.lhs, c.rhs)
            )

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.id)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [
                {
                    "id": c.id,
                    "status": c.status,
                    "detail": c.detail,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                }
                for c in self.sorted_checks()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed})"]
        for c in self.sorted_checks():
            line = f"  [{c.status.upper():>11}] {c.id}"
            if c.detail:
                line += f" -- {c.detail}"
            lines.append(line)
            if c.status == FAIL and (c.lhs or c.rhs):
                lines.append(f"      lhs: {c.lhs}")
                lines.append(f"      rhs: {c.rhs}")
        n_fail = len(self.failures)
        lines.append(f"  {len(self.checks)} checks, {n_fail} failures")
        return "\n".join(lines)
