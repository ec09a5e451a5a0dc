"""SLOs over a faulted serving run: burns, exemplars, and the console.

``serving_gateway.py`` proves the gateway never loses an ack; this
script asks the operator's next question — *is the service good enough,
and if not, which request do I look at?* — and answers it three ways
from the same telemetry:

1. an :class:`~repro.obs.slo.SloEngine` evaluates a latency objective
   over the streaming ack histogram on a tick clock, burning error
   budget through an injected fault window and emitting ``slo_burn`` /
   ``slo_recover`` events on the edges;
2. every update carries a deterministic trace context
   (BLAKE2b of ``(seed, service, sequence)``), the ack histogram records
   the worst trace per bucket as an exemplar, and the report renders the
   p99 offender's whole trace tree inline;
3. ``repro obs top --once`` renders the one-screen ops console —
   health, queue waits, budget remaining, active burns — from the run
   directory's JSONL alone.

The workload is synthetic and fully seeded (the "gateway" here is
simulated inline so the script stays fast and deterministic); run a real
one with ``python -m repro serve --dir ... `` and point the same console
at its directory.

Run:  python examples/slo_console.py
"""

import tempfile
from pathlib import Path

from repro.obs import (
    BurnWindow,
    EventLog,
    MetricsRegistry,
    SloEngine,
    SloObjective,
    TraceContext,
    TraceLog,
    render_report,
    render_top,
)

TICKS = 60
FAULT_WINDOW = range(20, 40)     # the injected latency regression
SEED = 0


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        registry = MetricsRegistry()
        ack = registry.histogram("gateway.ack_seconds")
        tick_box = [0]
        events = EventLog(directory / "events.jsonl",
                          clock=lambda: float(tick_box[0]))
        traces = TraceLog(directory / "spans.jsonl")

        # One objective: 99% of acks under 50 ms, attributed to svc-0,
        # alerting on a tight window pair scaled to this run's clock.
        engine = SloEngine(
            [SloObjective("ack-p99", "latency", "gateway.ack_seconds",
                          target=0.99, threshold=0.05, service="svc-0")],
            registry=registry, events=events,
            windows=(BurnWindow("fast", short_ticks=5, long_ticks=20,
                                burn_threshold=10.0),))
        engine.subscribe(lambda objective, alert: print(
            f"[tick {alert['tick']:>3}] slo_burn {objective.name}: "
            f"burn {alert['burn_short']:.1f}x, "
            f"budget {100 * alert['budget_remaining']:.0f}%"))

        # One traced "submit" per tick; the fault window runs 40x slow.
        for tick in range(1, TICKS + 1):
            tick_box[0] = tick
            seconds = 0.2 if tick in FAULT_WINDOW else 0.005
            context = TraceContext.mint(SEED, "svc-0", tick)
            ack.observe(seconds, exemplar=context.trace_id)
            traces.record("gateway.submit", context, seconds,
                          service="svc-0", sequence=tick, shard="shard-0",
                          degraded=False)
            child = context.child("worker.update", qualifier="0:1")
            traces.record("worker.update", child, 0.6 * seconds,
                          parent_span_id=context.span_id, depth=1,
                          service="svc-0", sequence=tick, shard="shard-0",
                          incarnation=0, replay=False, duplicate=False)
            engine.step(tick)

        registry.counter("gateway.accepted").inc(TICKS)
        registry.gauge("gateway.queue_depth", shard="shard-0").set(2)
        registry.dump(directory / "metrics.jsonl")
        events.close()
        traces.close()

        print()
        print("=" * 66)
        print("repro obs top --once  (the live console's snapshot)")
        print("=" * 66)
        print(render_top(directory))

        print()
        print("=" * 66)
        print("repro obs report  (slo status + exemplar drill-down)")
        print("=" * 66)
        print(render_report(directory))


if __name__ == "__main__":
    main()
