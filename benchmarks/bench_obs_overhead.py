"""Observability overhead gate + the telemetry perf-trajectory point.

Two jobs, one seeded workload:

1. **The <3% gate** (``make obs-overhead``).  The telemetry layer ships
   always-instrumented: every trainer batch/epoch passes through
   ``span()`` and the always-on metrics registry even when tracing is
   disabled (the default).  This bench times the seeded 2-epoch trainer
   run as shipped against the *same* run with the span call sites
   no-op'd out — paired rounds, order alternating, median of per-round
   differences — and fails when the disabled-path instrumentation costs
   more than the budget (3% relative, with a small absolute floor so
   scheduler jitter on a fast run cannot trip the ratio).  The stripped
   arm swaps out every trainer span, the batch-phase spans included, so
   the gate covers each call site the trainer has.

2. **BENCH_obs.json**.  One tracing-*enabled* run of the same workload
   plus a serving micro-benchmark and the trace-primitive microbenches,
   dumped to the repo root as the telemetry perf-trajectory point:
   per-phase span aggregates (``trainer.batch`` and its forward,
   backward, clip and step children), serving update-latency quantiles,
   the per-op cost of the trace propagation hot path
   (``TraceContext.mint``, ``child``, the wire codec, and
   ``Histogram.observe`` with and without an exemplar), and the
   measured overhead of job 1.

Run directly: ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from pathlib import Path

import repro.core.trainer as trainer_mod
from repro.core import MaceConfig, MaceDetector
from repro.data import load_dataset
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.propagate import TraceContext
from repro.obs.tracing import aggregate_spans, disable_tracing, enable_tracing
from repro.runtime import ServingRuntime

REPEATS = 7            # paired rounds (one run per arm each)
MICRO_ITERS = 20_000   # per-primitive loop count
RELATIVE_BUDGET = 0.03  # the acceptance bar: <3% disabled-path overhead
ABSOLUTE_FLOOR = 0.010  # seconds; scheduler jitter can exceed 3% of a fast run
PHASE_COVERAGE = 0.95   # the four batch phases must sum to >=95% of the batch
BATCH_SPAN = "trainer.epoch/trainer.batch"
PHASES = ("forward", "backward", "clip", "step")

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _config() -> MaceConfig:
    return MaceConfig(window=40, num_bases=4, channels=2, epochs=2,
                      train_stride=4, gamma_time=3, gamma_freq=3,
                      kernel_freq=4, kernel_time=3, subspace_stride=8,
                      batch_size=32)


def _dataset():
    return load_dataset("smd", num_services=2, train_length=1024,
                        test_length=384, seed=7)


def _fit_once(dataset) -> float:
    """One seeded 2-epoch unified fit; returns wall seconds.

    The GC is paused for the timed region: the fit allocates heavily and
    a collection landing in one arm but not the other would swamp the
    few-microsecond effect being measured.
    """
    detector = MaceDetector(_config())
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        detector.fit([s.service_id for s in dataset],
                     [s.train for s in dataset])
        return time.perf_counter() - started
    finally:
        gc.enable()


@contextlib.contextmanager
def _spans_stripped():
    """Temporarily no-op the trainer's span call sites.

    The trainer binds ``span`` by name at import, so the un-instrumented
    baseline is recovered by swapping that binding for a null context
    manager — the remaining difference to the shipped code is exactly
    the disabled-path cost the gate is budgeting.
    """
    @contextlib.contextmanager
    def _null_span(name, **attrs):
        yield

    original = trainer_mod.span
    trainer_mod.span = _null_span
    try:
        yield
    finally:
        trainer_mod.span = original


def _median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def measure_overhead(dataset, repeats: int = REPEATS) -> dict:
    """Paired comparison: shipped (obs disabled) vs span-stripped.

    Both arms run adjacently within each round (order alternating, so
    allocator/cache drift cannot systematically favour either) and the
    overhead estimate is the **median of per-round differences** — a
    load spike hitting one round cannot swing the verdict the way it
    swings a best-of-N of absolute times.
    """
    disable_tracing()
    shipped, stripped = [], []
    _fit_once(dataset)  # warm caches (imports, dataset windows) off-clock

    def run_stripped():
        with _spans_stripped():
            stripped.append(_fit_once(dataset))

    def run_shipped():
        shipped.append(_fit_once(dataset))

    for round_index in range(repeats):
        first, second = ((run_stripped, run_shipped) if round_index % 2 == 0
                         else (run_shipped, run_stripped))
        first()
        second()
    diffs = [s - b for s, b in zip(shipped, stripped)]
    delta = _median(diffs)
    baseline = _median(stripped)
    ratio = 1.0 + delta / baseline if baseline > 0 else 1.0
    return {
        "repeats": repeats,
        "shipped_seconds": shipped,
        "stripped_seconds": stripped,
        "baseline_seconds": baseline,
        "delta_seconds": delta,
        "overhead_ratio": ratio,
        "relative_budget": RELATIVE_BUDGET,
        "absolute_floor_seconds": ABSOLUTE_FLOOR,
        "passed": (ratio - 1.0) <= RELATIVE_BUDGET or delta <= ABSOLUTE_FLOOR,
    }


def measure_enabled_run(dataset) -> dict:
    """One tracing-enabled fit: per-phase span aggregates."""
    tracer = enable_tracing()
    try:
        seconds = _fit_once(dataset)
    finally:
        disable_tracing()
    return {"fit_seconds": seconds, "phases": aggregate_spans(tracer.spans)}


def measure_serving(dataset, updates: int = 200) -> dict:
    """Stream one service through ServingRuntime; report latency quantiles."""
    registry = MetricsRegistry()
    detector = MaceDetector(_config())
    detector.fit([s.service_id for s in dataset],
                 [s.train for s in dataset])
    runtime = ServingRuntime(detector, window=_config().window, q=1e-2,
                             registry=registry)
    service = dataset[0]
    runtime.start_service(service.service_id, service.train)
    steps = min(updates, service.test.shape[0])
    started = time.perf_counter()
    for step in range(steps):
        runtime.update(service.service_id, service.test[step])
    elapsed = time.perf_counter() - started
    detail = runtime.health_states(detail=True)[service.service_id]
    return {
        "updates": steps,
        "total_seconds": elapsed,
        "update_seconds": detail["update_seconds"],
    }


def _per_op_seconds(func, iterations: int = MICRO_ITERS) -> float:
    func()  # warm-up outside the clock
    started = time.perf_counter()
    for _ in range(iterations):
        func()
    return (time.perf_counter() - started) / iterations


def measure_trace_primitives() -> dict:
    """Single-pass microbenches; each is thousands of ops so scheduler
    noise averages out within the loop."""
    context = TraceContext.mint(seed=0, service_id="svc-0", sequence=17)
    wire = context.to_wire()
    histogram = Histogram("bench.ack_seconds")
    return {
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


def main() -> int:
    dataset = _dataset()
    overhead = measure_overhead(dataset)
    enabled = measure_enabled_run(dataset)
    serving = measure_serving(dataset)
    primitives = measure_trace_primitives()
    payload = {
        "benchmark": "obs_overhead",
        "workload": {"dataset": "smd", "services": 2, "train_length": 1024,
                     "epochs": 2},
        "overhead": overhead,
        "enabled_run": enabled,
        "serving": serving,
        "trace": {"primitives": primitives},
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, default=float))
    print(f"wrote {BENCH_PATH}")
    phases = enabled["phases"]
    batch = phases[BATCH_SPAN]["seconds"]
    covered = sum(phases[f"{BATCH_SPAN}/trainer.{phase}"]["seconds"]
                  for phase in PHASES)
    print(f"fit phases: {'+'.join(PHASES)} {covered:.3f}s of "
          f"trainer.batch {batch:.3f}s ({covered / batch:.1%})")
    per_submit = (primitives["mint_seconds"] + primitives["to_wire_seconds"]
                  + primitives["observe_exemplar_seconds"])
    print(f"trace primitives: mint {primitives['mint_seconds'] * 1e6:.2f} us"
          f"  child {primitives['child_seconds'] * 1e6:.2f} us"
          f"  wire codec {(primitives['to_wire_seconds'] + primitives['from_wire_seconds']) * 1e6:.2f} us"
          f"  (~{per_submit * 1e6:.2f} us per traced submit)")
    print(f"disabled-path overhead: "
          f"{(overhead['overhead_ratio'] - 1.0) * 100:+.2f}% "
          f"({overhead['delta_seconds'] * 1e3:+.1f} ms median paired diff) "
          f"over {overhead['baseline_seconds']:.3f}s baseline "
          f"[budget {RELATIVE_BUDGET:.0%} or {ABSOLUTE_FLOOR * 1e3:.0f} ms]")
    if not overhead["passed"]:
        print("FAIL: disabled-tracing instrumentation exceeds the "
              "overhead budget")
        return 1
    if covered < PHASE_COVERAGE * batch:
        print(f"FAIL: the batch phases cover under {PHASE_COVERAGE:.0%} "
              "of trainer.batch")
        return 1
    print("ok: instrumentation fits the overhead budget and the batch "
          "phases account for trainer.batch")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
