"""Trace-propagation benchmark + re-verified obs overhead gate.

Two jobs, merged into ``BENCH_obs.json`` as a ``"trace"`` section:

1. **Re-verify the <3% disabled-path gate with propagation code in
   place** (``make bench-obs-trace``).  The tracing wire format rides
   the gateway submit path and the worker loop; this bench re-runs the
   paired span-stripped comparison from ``bench_obs_overhead`` (fewer
   rounds — the full-depth gate stays ``make obs-overhead``) so a
   regression introduced by the propagation imports/plumbing fails the
   build at the same budget.

2. **Trace-primitive microbenches.**  Per-op cost of the propagation
   hot path — ``TraceContext.mint`` (the two blake2b ids),
   ``child`` span derivation, ``to_wire``/``from_wire`` codec, and
   ``Histogram.observe`` with and without an exemplar — so the perf
   trajectory records what a traced submit actually adds per request.

Run directly: ``PYTHONPATH=src python benchmarks/bench_obs_trace.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from bench_obs_overhead import (
    ABSOLUTE_FLOOR,
    BENCH_PATH,
    RELATIVE_BUDGET,
    _dataset,
    measure_overhead,
)
from repro.obs.metrics import Histogram
from repro.obs.propagate import TraceContext

GATE_REPEATS = 3       # reduced rounds: re-verify, not re-measure
MICRO_ITERS = 20_000   # per-primitive loop count


def _per_op_seconds(func, iterations: int = MICRO_ITERS) -> float:
    func()  # warm-up outside the clock
    started = time.perf_counter()
    for _ in range(iterations):
        func()
    return (time.perf_counter() - started) / iterations


def measure_trace_primitives() -> dict:
    """Median-free single-pass microbenches; each is thousands of ops so
    scheduler noise averages out within the loop."""
    context = TraceContext.mint(seed=0, service_id="svc-0", sequence=17)
    wire = context.to_wire()
    histogram = Histogram("bench.ack_seconds")
    results = {
        "iterations": MICRO_ITERS,
        "mint_seconds": _per_op_seconds(
            lambda: TraceContext.mint(0, "svc-0", 17)),
        "child_seconds": _per_op_seconds(
            lambda: context.child("worker.update", qualifier="0:1")),
        "to_wire_seconds": _per_op_seconds(context.to_wire),
        "from_wire_seconds": _per_op_seconds(
            lambda: TraceContext.from_wire(wire)),
        "observe_seconds": _per_op_seconds(
            lambda: histogram.observe(0.004)),
        "observe_exemplar_seconds": _per_op_seconds(
            lambda: histogram.observe(0.004, exemplar=context.trace_id)),
    }
    return results


def main() -> int:
    dataset = _dataset()
    overhead = measure_overhead(dataset, repeats=GATE_REPEATS)
    primitives = measure_trace_primitives()

    payload = {}
    if BENCH_PATH.exists():
        payload = json.loads(BENCH_PATH.read_text())
    payload["trace"] = {
        "overhead_reverify": overhead,
        "primitives": primitives,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, default=float))
    print(f"wrote {BENCH_PATH} (trace section)")

    per_submit = (primitives["mint_seconds"] + primitives["to_wire_seconds"]
                  + primitives["observe_exemplar_seconds"])
    print(f"trace primitives: mint {primitives['mint_seconds'] * 1e6:.2f} us"
          f"  child {primitives['child_seconds'] * 1e6:.2f} us"
          f"  wire codec {(primitives['to_wire_seconds'] + primitives['from_wire_seconds']) * 1e6:.2f} us"
          f"  (~{per_submit * 1e6:.2f} us per traced submit)")
    print(f"disabled-path overhead (propagation in place): "
          f"{(overhead['overhead_ratio'] - 1.0) * 100:+.2f}% "
          f"({overhead['delta_seconds'] * 1e3:+.1f} ms median paired diff) "
          f"over {overhead['baseline_seconds']:.3f}s baseline "
          f"[budget {RELATIVE_BUDGET:.0%} or {ABSOLUTE_FLOOR * 1e3:.0f} ms]")
    if not overhead["passed"]:
        print("FAIL: disabled-path instrumentation exceeds the overhead "
              "budget with trace propagation code in place")
        return 1
    print("ok: trace propagation keeps the disabled path inside the budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
