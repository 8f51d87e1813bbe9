#!/usr/bin/env python3
"""Seeded end-to-end benchmark of grstacks, with an optional per-layer trace.

    python3 perfbench/run.py --workload tower-cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``; no
install is needed.  One process runs one workload as a closed loop: a single
caller with one op in flight.  Every op is checked against an oracle that
shares no code with the program.  ``--trace 0`` prints the end-to-end
metrics, every time corrected for the host's speed (see ``hostspeed``);
``--trace 1`` runs each op once plain and once with every layer wrapped, and
prints the per-layer metrics listed in ``design.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-ups timed before and after the measured loop, so that their median
# samples the host at both ends of the run rather than only at its start.
SETUP_BEFORE, SETUP_AFTER = 3, 2
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


def say(line: str) -> None:
    print("# " + line, flush=True)


def load_program() -> tuple[float, float]:
    """Import grstacks from the checkout's ``src/``; return when the import
    began and the seconds it took."""
    if not (SRC / "grstacks" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grstacks package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock()
    import grstacks
    import workloads  # noqa: F401 - imports every layer the workloads call

    elapsed = clock() - start
    if Path(grstacks.__file__).resolve().parent != SRC / "grstacks":
        raise SystemExit(f"perfbench: imported grstacks from {grstacks.__file__}, not {SRC}")
    return start, elapsed


def timed(op) -> tuple[object, float]:
    import workloads

    start = clock()
    result = workloads.run_op(op)
    return result, clock() - start


class Tally:
    """Attempts, failures and latencies of the ops run so far."""

    def __init__(self):
        # (start, wall seconds) of the timed ops that passed their check, and
        # of every timed op, passed or not
        self.latencies: list[tuple[float, float]] = []
        self.busy: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def run(self, op, run=timed, timed_op: bool = True) -> None:
        """Run and check one op.  A failure is counted and the run goes on."""
        import workloads

        self.attempted += 1
        start = clock()
        elapsed = None
        try:
            result, elapsed = run(op)
            workloads.check_op(op, result)
        except Exception as exc:  # any failure of the program is a failed op
            self.failed += 1
            if not self.first_failure:
                self.first_failure = f"{workloads.describe(op)}: {type(exc).__name__}: {exc}"
            if timed_op:
                self.busy.append((start, clock() - start if elapsed is None else elapsed))
            return
        if timed_op:
            self.busy.append((start, elapsed))
            self.latencies.append((start, elapsed))


def measure(blocks: list, seconds: float, run_one) -> tuple[float, int]:
    """Run whole blocks, cycling the pool, and stop at the block boundary
    nearest ``seconds``; return (wall seconds, blocks run)."""
    start = clock()
    done = 0
    while True:
        for op in blocks[done % len(blocks)]:
            run_one(op)
        done += 1
        elapsed = clock() - start
        if elapsed >= seconds - elapsed / done / 2:
            return elapsed, done


def set_up(workload, seed: int, tally: Tally) -> tuple[list, tuple[float, float]]:
    """Empty the memo caches, generate the inputs and run the checked warm-up
    op; return the inputs and (start, wall seconds) of the set-up."""
    import workloads

    workloads.clear_program_caches()
    start = clock()
    blocks = workloads.generate(workload, seed)
    tally.run(workload.warmup, timed_op=False)
    return blocks, (start, clock() - start)


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """(nearest-rank value at percentile pct, number of ops beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end_metrics(tally: Tally, speed, tail_pct: float, import_t, setup_ts: list):
    setup_s = statistics.median(speed.correct(*t) for t in setup_ts)
    values = {
        "setup_s": speed.correct(*import_t) + setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tally.latencies:
        latencies = [speed.correct(start, s) for start, s in tally.latencies]
        value, beyond = tail(latencies, tail_pct)
        values["ops_per_s"] = len(latencies) / sum(speed.correct(*t) for t in tally.busy)
        values["op_s.p50"] = statistics.median(latencies)
        values["op_s.tail"] = value
        wall = [s for _, s in tally.latencies]
        say(f"op_s.tail is p{tail_pct:g}: {beyond} of {len(latencies)} passed ops lie beyond it")
        say(
            f"uncorrected wall clock: ops_per_s={len(wall) / sum(s for _, s in tally.busy):.6g}"
            f" op_s.p50={statistics.median(wall):.6g} op_s.tail={tail(wall, tail_pct)[0]:.6g};"
            f" setup_s={import_t[1] + statistics.median(s for _, s in setup_ts):.6g};"
            f" probe median {statistics.median(speed.took) * 1e3:.4g} ms over {len(speed.took)}"
            f" probes, nominal {hostspeed.NOMINAL_S * 1e3:.4g} ms"
        )
    return values


def load_design() -> dict:
    with open(HERE / "design.json") as fh:
        return json.load(fh)


def per_layer_metrics(tracer, overheads: list[float], workload: str, design: dict):
    """Per-layer values per traced op, and the self-check's complaints."""
    ops = max(1, len(overheads))
    values: dict[str, float] = {}
    complaints = []
    for name, spec in design["per_layer"].items():
        if name == "trace.overhead_s":
            value = sum(overheads) / ops
        else:
            value = tracer.value(name, ops)
        if value is None:
            say(f"{name} is absent: the program no longer exposes it")
            continue
        values[name] = value
        if workload in spec["on"] and value == 0:
            complaints.append(f"{name} reads 0 on {workload}, where it should move")
        if workload in spec.get("zero_on", ()) and value != 0:
            complaints.append(f"{name} reads {value:g} on {workload}, where it should be 0")
    return values, complaints


def traced_pair(tracer, overheads: list[float]):
    """An op runner that runs the op plain, checks it, then runs it traced."""
    import workloads

    def run(op):
        result, plain = timed(op)
        workloads.check_op(op, result)
        start = clock()
        result = tracer.run(workloads.run_op, op)
        traced = clock() - start
        overheads.append(traced - plain)
        return result, traced

    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    speed = hostspeed.Speedometer()
    if not args.trace:  # the traced run reports no times that need it
        speed.start()
    try:
        return run_workload(args, parser, speed)
    finally:
        speed.stop()


def run_workload(args, parser, speed) -> int:
    import_t = load_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    say(
        f"workload={workload.name} seed={args.seed} trace={args.trace}"
        f" python={platform.python_version()} host={platform.platform()} nproc={os.cpu_count()}"
    )

    tally = Tally()
    setups = [set_up(workload, args.seed, tally) for _ in range(SETUP_BEFORE)]
    blocks = setups[0][0]
    complaints: list[str] = []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        overheads: list[float] = []
        run = traced_pair(tracer, overheads)
        elapsed, done = measure(blocks, args.seconds, lambda op: tally.run(op, run))
        design = load_design()
        values, complaints = per_layer_metrics(tracer, overheads, workload.name, design)
        units = {name: spec["unit"] for name, spec in design["per_layer"].items()}
    else:
        elapsed, done = measure(blocks, args.seconds, tally.run)
        setups += [set_up(workload, args.seed, tally) for _ in range(SETUP_AFTER)]
        setup_ts = [t for _, t in setups]
        values = end_to_end_metrics(tally, speed, workload.tail_pct, import_t, setup_ts)
        units = END_TO_END_UNITS

    say(
        f"blocks={done} measured_s={elapsed:.3f} attempted={tally.attempted}"
        f" failed={tally.failed} fail_ratio={tally.failed / tally.attempted:.6g}"
    )
    if tally.first_failure:
        say("first failure: " + tally.first_failure)
    for complaint in complaints:
        say("self-check: " + complaint)
    result = {
        "correct": tally.failed == 0 and not complaints,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
