"""The three benchmark workloads: ``train``, ``serve-mace``, ``serve-zscore``.

Each ``run_*`` function builds its inputs from the seed, sets up (several
times; ``setup_s`` is the median), runs its timed phases, checks its
outputs outside the timed region and returns a :class:`Result`.  The
program is only ever driven through its public API; per-layer numbers
come from the wrappers in :mod:`tracer`, installed only when a
:class:`~tracer.SpanRecorder` is passed.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import MaceConfig, MaceDetector
from repro.data import load_dataset
from repro.data.windows import WindowDataset
from repro.obs.metrics import MetricsRegistry
from repro.runtime import GatewayConfig, ServingGateway, ServingRuntime
from repro.runtime.gateway import ZScoreDetector

from tracer import LayerTable, PhaseClock, SpanRecorder

SETUP_REPEATS = 3
WINDOW = 40
QUERY_SLICE = 50
STREAM_OFFSETS = 256
REJECT_REASONS = ("backpressure", "throttled", "shed", "refused",
                  "draining", "gap")


@dataclass
class Result:
    """One run: ISSUE-named end-to-end values, per-layer values, gates."""

    end_to_end: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: Dict[str, bool] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.gates.values())

    def metric(self, name: str, value: float, unit: str, samples: int):
        self.end_to_end[name] = (float(value), unit, int(samples))

    def layer(self, name: str, value: float, unit: str = "s"):
        self.per_layer[name] = (float(value), unit)

    def finish(self) -> "Result":
        """A failed gate fails every operation of the run."""
        if not self.correct:
            self.failed = self.attempted
        return self


def _quantile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _fast_quartile(values: Sequence[float], higher_is_better: bool) -> float:
    """The fast quartile of many short pieces of work: the upper quartile
    of rates, the lower quartile of times.  The host slows this 2-vCPU
    machine for 0.5-2 s at a time; a slow spell only makes a piece
    slower, so this quartile tracks the program rather than how many
    spells fell into the run (see README.md)."""
    return _quantile(values, 0.75 if higher_is_better else 0.25)


def _weights_digest(detector: MaceDetector) -> str:
    digest = hashlib.sha256()
    for parameter in detector.trainer.model.parameters():
        digest.update(parameter.data.tobytes())
    return digest.hexdigest()


def canonical_state(state: dict) -> str:
    """Serving state as canonical JSON.  Floats print shortest-round-trip,
    so two states render equal exactly when every float is bitwise equal
    (NaN payloads aside)."""
    return json.dumps(state, sort_keys=True, allow_nan=True)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSize:
    services: int = 4
    length: int = 2048
    epochs: int = 2
    queries: int = 200          # one-window score calls per cycle


def run_train(seed: int, seconds: float, size: TrainSize,
              recorder: Optional[SpanRecorder]) -> Result:
    """Cycles of a unified MACE fit, batch scoring of every test split and
    one-window queries, for 70% of the run's time budget.  Each timed
    metric is the fast quartile over short pieces of work: fits, single
    split scoring calls, slices of queries."""
    result = Result()
    clock = PhaseClock()
    config = MaceConfig(epochs=size.epochs, seed=seed)
    losses: List[Tuple[float, ...]] = []
    digests: List[str] = []
    nonfinite = 0

    def fit(dataset, phase):
        nonlocal nonfinite
        with clock.timed(phase) as wall:
            detector = MaceDetector(config).fit(
                [s.service_id for s in dataset], [s.train for s in dataset])
        losses.append(tuple(detector.history.epoch_losses))
        digests.append(_weights_digest(detector))
        nonfinite += len(detector.history.nonfinite_batches)
        return detector, wall.seconds

    setup_times = []
    for _ in range(SETUP_REPEATS):
        with clock.timed("setup") as setup:
            dataset = load_dataset("smd", num_services=size.services,
                                   train_length=size.length,
                                   test_length=size.length, seed=seed)
            fit(dataset, "setup_fit")           # untimed warm-up fit
        setup_times.append(setup.seconds)
    services = list(dataset)
    windows = WindowDataset([s.train for s in services],
                            [s.service_id for s in services], config.window,
                            stride=config.train_stride).num_windows

    scores_ok = True
    scored_windows = sum(len(s.test) - config.window + 1 for s in services)
    fit_rates, score_rates, query_ms = [], [], []
    started = time.perf_counter()
    while not fit_rates or time.perf_counter() - started < 0.7 * seconds:
        detector, fit_seconds = fit(dataset, "fit")
        fit_rates.append(windows * config.epochs / fit_seconds)
        for service in services:
            with clock.timed("score") as score:
                values = detector.score(service.service_id, service.test)
            score_rates.append(
                (len(service.test) - config.window + 1) / score.seconds)
            scores_ok &= (len(values) == len(service.test)
                          and bool(np.isfinite(values).all()))
        for index in range(size.queries):
            service = services[index % len(services)]
            start = (index * 7) % (len(service.test) - config.window + 1)
            chunk = service.test[start:start + config.window]
            with clock.timed("query") as query:
                values = detector.score(service.service_id, chunk)
            query_ms.append(query.seconds * 1e3)
            scores_ok &= bool(np.isfinite(values).all())

    fits = len(fit_rates)
    result.attempted = SETUP_REPEATS + fits + len(score_rates) + len(query_ms)
    result.failed = nonfinite
    result.gates["fit_deterministic"] = (len(set(losses)) == 1
                                         and len(set(digests)) == 1)
    result.gates["scores_finite_and_aligned"] = scores_ok
    result.metric("setup_s", statistics.median(setup_times), "s",
                  len(setup_times))
    result.metric("fit_windows_per_s", _fast_quartile(fit_rates, True),
                  "windows/s", fits)
    score_rate = _fast_quartile(score_rates, True)
    result.metric("score_windows_per_s", score_rate, "windows/s",
                  len(score_rates))
    result.metric("score_s", scored_windows / score_rate, "s",
                  len(score_rates))
    slices = [query_ms[start:start + QUERY_SLICE]
              for start in range(0, len(query_ms), QUERY_SLICE)]
    result.metric("query_p50_ms", _fast_quartile(
        [_quantile(piece, 0.5) for piece in slices], False), "ms",
        len(query_ms))
    result.metric("query_p99_ms", _quantile(query_ms, 0.99), "ms",
                  len(query_ms))
    if recorder is not None:
        _train_layers(result, recorder.collect(), clock)
    return result.finish()


_FIT_ROWS = ("data.batch", "frequency.extractor_fit", "nn.forward",
             "nn.backward", "nn.clip", "nn.optim_step")


def _train_layers(result: Result, spans, clock: PhaseClock) -> None:
    """Per fit and per score pass (means over the run's repetitions)."""
    fits = clock.count("fit")
    fit = LayerTable(spans, clock, "fit")
    for row in _FIT_ROWS:
        result.layer(f"{row}_s", fit.seconds[row] / fits)
    result.layer("nn.forward_calls", fit.calls["nn.forward"] / fits, "count")
    result.layer("core.fit_unattributed_s", (
        clock.wall("fit") - sum(fit.seconds[row] for row in _FIT_ROWS)) / fits)
    score = LayerTable(spans, clock, "score")
    passes = clock.count("fit")            # one pass over the splits per fit
    forward = score.seconds["core.score_forward"]
    result.layer("core.score_forward_s", forward / passes)
    result.layer("core.windows_per_forward",
                 score.units["core.score_forward"]
                 / max(score.calls["core.score_forward"], 1), "windows")
    result.layer("core.score_unattributed_s",
                 (clock.wall("score") - forward) / passes)


# ----------------------------------------------------------------------
# serve-mace / serve-zscore
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSize:
    detector: str               # "mace" | "zscore"
    rate: float                 # rated phase, points/s
    rated: int                  # rated-phase points per round
    flood: int                  # flood-phase points per round
    rounds: int = 12            # rated -> flood (-> failover every third)
    services: int = 8
    fit_rows: int = 1024        # MACE fit rows (head of the train split)
    history: int = 512          # calibration rows, after the fit rows
    warmup: int = 4             # closed-loop points per service in set-up
    epochs: int = 1             # MACE fit during set-up

    @property
    def stream_rows(self) -> int:
        return self.warmup + self.rounds * (self.rated + self.flood) \
            // self.services


def _fleet(seed: int, size: ServeSize):
    """Fit rows, calibration history and served stream per service.

    The fleet is the SMD profile's own (its base seed), cut from each
    service's anomaly-free train series.  The seed picks where each
    service's stream starts, up to ``STREAM_OFFSETS`` rows past its
    calibration history.  Calibration, whose cost (SPOT's tail fit) varies
    with the data by +-20%, is then the same work for every seed; and a
    normal stream keeps SPOT refits, which follow threshold excesses,
    from depending on where anomalies fall.
    """
    offsets = np.random.default_rng(seed).integers(
        0, STREAM_OFFSETS, size=size.services)
    history_end = size.fit_rows + size.history
    dataset = load_dataset(
        "smd", num_services=size.services,
        train_length=history_end + STREAM_OFFSETS + size.stream_rows,
        test_length=2 * WINDOW)
    fit = {s.service_id: s.train[:size.fit_rows] for s in dataset}
    histories = {s.service_id: s.train[size.fit_rows:history_end]
                 for s in dataset}
    streams = {s.service_id: s.train[history_end + offset:]
               for s, offset in zip(dataset, offsets)}
    return fit, histories, streams


class _Stream:
    """Hands out the next updates, services round-robin; remembers every
    accepted one for the reference replay."""

    def __init__(self, streams: Dict[str, np.ndarray]):
        self.streams = streams
        self.ids = sorted(streams)
        self.row = 0
        self.accepted: List[tuple] = []   # (service, row, sequence, degraded)
        self.rejected = 0

    def take(self, count: int) -> List[tuple]:
        ids = self.ids
        updates = [(ids[k % len(ids)],
                    self.streams[ids[k % len(ids)]][self.row + k // len(ids)],
                    self.row + k // len(ids) + 1) for k in range(count)]
        self.row += count // len(ids)
        return updates

    async def submit(self, gateway: ServingGateway, update: tuple) -> None:
        verdict = await gateway.submit(*update)
        if verdict.accepted:
            self.accepted.append(update + (verdict.degraded,))
        else:
            self.rejected += 1


def reference_states(detector, histories: Dict[str, np.ndarray],
                     updates: Sequence[tuple], checkpoints: Sequence[int]
                     ) -> List[str]:
    """Canonical states an in-process ServingRuntime reaches after each
    checkpoint's prefix of ``updates`` (the worker builds its runtime the
    same way, starting services in sorted order)."""
    runtime = ServingRuntime(detector, window=WINDOW, q=GatewayConfig().q,
                             registry=MetricsRegistry())
    for service_id in sorted(histories):
        runtime.start_service(service_id, histories[service_id])
    states, done = [], 0
    for checkpoint in checkpoints:
        for service_id, row, sequence, degraded in updates[done:checkpoint]:
            runtime.update(service_id, row, sequence=sequence,
                           force_fallback=degraded)
        done = checkpoint
        states.append(canonical_state(runtime.state_dict()))
    return states


def run_serve(seed: int, size: ServeSize, recorder: Optional[SpanRecorder],
              directory) -> Result:
    """Fleet behind a one-worker gateway: rounds of rated, flood, failover
    (``size`` is derived from the run's time budget)."""
    return asyncio.run(_serve(seed, size, recorder, directory))


async def _set_up(size: ServeSize, seed: int, config: GatewayConfig,
                  directory, clock: PhaseClock):
    fit, histories, streams = _fleet(seed, size)
    with clock.timed("setup_fit"):
        detector = (MaceDetector(MaceConfig(epochs=size.epochs))
                    if size.detector == "mace" else ZScoreDetector())
        detector.fit(sorted(fit), [fit[sid] for sid in sorted(fit)])
    gateway = ServingGateway(directory, detector, histories, config)
    await gateway.start()
    stream = _Stream(streams)
    for update in stream.take(size.warmup * size.services):
        await stream.submit(gateway, update)
    await gateway.collect_states()
    return detector, histories, gateway, stream


async def _serve(seed: int, size: ServeSize,
                 recorder: Optional[SpanRecorder], directory) -> Result:
    result = Result()
    clock = PhaseClock()
    # The shipped defaults except the pool size, the window, and a queue
    # deep enough that the flood never lifts occupancy off the NORMAL rung.
    config = GatewayConfig(workers=1, window=WINDOW,
                           queue_depth=4 * (size.rated + size.flood))
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        with clock.timed("setup") as setup:
            detector, histories, gateway, stream = await _set_up(
                size, seed, config, directory / f"gateway-{repeat}", clock)
        setup_times.append(setup.seconds)
        if repeat < SETUP_REPEATS - 1:
            gateway.close()

    registries = {phase: MetricsRegistry()
                  for phase in ("rated", "flood", "recovery")}
    ack_ms, late_ms, ack_p50s, flood_rates, recoveries = [], [], [], [], []
    checkpoints, after_flood, after_recovery = [], [], []
    shard = gateway.shard_of(stream.ids[0])
    try:
        for round_index in range(size.rounds):
            # Rated: open loop on a uniform schedule; latency from due time.
            gateway.registry = registries["rated"]
            round_acks = []
            with clock.timed("rated"):
                origin = time.perf_counter()
                for index, update in enumerate(stream.take(size.rated)):
                    due = origin + index / size.rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    late_ms.append((time.perf_counter() - due) * 1e3)
                    await stream.submit(gateway, update)
                    round_acks.append((time.perf_counter() - due) * 1e3)
            ack_ms += round_acks
            ack_p50s.append(_quantile(round_acks, 0.5))
            await gateway.collect_states()      # drain the rated backlog

            # Flood: the whole stream at once, until every point is scored.
            gateway.registry = registries["flood"]
            with clock.timed("flood") as flood:
                for update in stream.take(size.flood):
                    await stream.submit(gateway, update)
                states = await gateway.collect_states()
            flood_rates.append(size.flood / flood.seconds)
            checkpoints.append(len(stream.accepted))
            after_flood.append(states[shard])
            if round_index % 3 != 2:
                continue

            # Failover, every third round (the shipped respawn budget is
            # five): kill the worker and wait until the gateway sees it
            # dead (collect_states() straight after the kill raises
            # GatewayError; see README.md), then time recovery through the
            # next state fetch.
            gateway.registry = registries["recovery"]
            with clock.timed("reap"):
                gateway.kill_worker(shard)
                while gateway.status()["shards"][shard]["alive"]:
                    await asyncio.sleep(0.0005)
            with clock.timed("recovery") as recovery:
                states = await gateway.collect_states()
            recoveries.append(recovery.seconds)
            after_recovery.append((round_index, states[shard]))
        accepted = {sid: gateway.accepted_sequence(sid) for sid in stream.ids}
        await gateway.drain()
    finally:
        gateway.close()

    # Gates, outside the timed region.
    submitted = {sid: stream.row for sid in stream.ids}
    reference = reference_states(detector, histories, stream.accepted,
                                 checkpoints)
    result.attempted = len(stream.accepted) + stream.rejected
    result.failed = stream.rejected + sum(abs(submitted[sid] - accepted[sid])
                                          for sid in stream.ids)
    result.gates["applied_exactly_once"] = accepted == submitted
    result.gates["flood_state_bitwise"] = all(
        canonical_state(state) == expected
        for state, expected in zip(after_flood, reference))
    result.gates["recovered_state_bitwise"] = all(
        canonical_state(state) == reference[round_index]
        for round_index, state in after_recovery)

    result.metric("setup_s", statistics.median(setup_times), "s",
                  len(setup_times))
    result.metric("ack_p50_ms", _fast_quartile(ack_p50s, False), "ms",
                  len(ack_ms))
    result.metric("ack_p99_ms", _quantile(ack_ms, 0.99), "ms", len(ack_ms))
    result.metric("flood_pts_per_s", _fast_quartile(flood_rates, True),
                  "pts/s", len(flood_rates))
    result.metric("recovery_s", _fast_quartile(recoveries, False), "s",
                  len(recoveries))
    if recorder is not None:
        _serve_layers(result, recorder.collect(), clock, registries, late_ms)
    return result.finish()


def _serve_layers(result: Result, spans, clock: PhaseClock, registries,
                  late_ms) -> None:
    """Set-up fit per repeat; per round, the ack path over the rated phase
    and the worker over the flood; recovery per failover."""
    setup = LayerTable(spans, clock, "setup_fit")
    repeats = clock.count("setup_fit")
    for row in _FIT_ROWS:
        result.layer(f"{row}_s", setup.seconds[row] / repeats)
    result.layer("nn.forward_calls", setup.calls["nn.forward"] / repeats,
                 "count")
    result.layer("core.fit_unattributed_s", (clock.wall("setup_fit") - sum(
        setup.seconds[row] for row in _FIT_ROWS)) / repeats)

    rounds = clock.count("rated")
    rated = LayerTable(spans, clock, "rated")
    parent = LayerTable(spans, clock, "rated", worker=False)
    submit_rows = ("gateway.admit", "gateway.wal_append", "gateway.wal_commit",
                   "obs.trace_record")
    for row in ("gateway.submit",) + submit_rows[:-1]:
        result.layer(f"{row}_s", rated.seconds[row] / rounds)
    # The unattributed rest of submit includes whatever other tasks ran
    # while submit yielded to the event loop.
    result.layer("gateway.submit_unattributed_s", (parent.seconds[
        "gateway.submit"] - sum(parent.seconds[row] for row in submit_rows))
        / rounds)
    # Trace records of both processes: the parent's inside submit, the
    # worker's before each ack.
    result.layer("obs.trace_record_s", rated.seconds["obs.trace_record"]
                 / rounds)
    result.layer("gateway.appends_per_commit",
                 rated.calls["gateway.wal_append"]
                 / max(rated.calls["gateway.wal_commit"], 1), "ratio")
    result.layer("gateway.loop_late_p99_ms", _quantile(late_ms, 0.99), "ms")

    flood = LayerTable(spans, clock, "flood")
    worker_rows = ("runtime.sanitize", "core.observe", "core.score_current",
                   "eval.spot_step")
    update = flood.seconds["runtime.update"]
    result.layer("runtime.update_s", update / rounds)
    result.layer("runtime.update_calls", flood.calls["runtime.update"] / rounds,
                 "count")
    for row in worker_rows + ("runtime.snapshot",):
        result.layer(f"{row}_s", flood.seconds[row] / rounds)
    result.layer("runtime.update_unattributed_s", (
        update - sum(flood.seconds[row] for row in worker_rows)) / rounds)
    result.layer("core.score_forward_s",
                 flood.seconds["core.score_forward"] / rounds)
    result.layer("core.windows_per_forward",
                 flood.units["core.score_forward"]
                 / max(flood.calls["core.score_forward"], 1), "windows")
    result.layer("gateway.worker_busy_frac", update / clock.wall("flood"),
                 "ratio")
    waits = registries["flood"].collect("gateway.queue_wait_seconds")
    for q in (50, 99):
        value = waits[0].quantile(q / 100) * 1e3 if waits else 0.0
        result.layer(f"gateway.queue_wait_p{q}_ms", value, "ms")
    for reason in REJECT_REASONS:
        total = sum(counter.value for registry in registries.values()
                    for counter in registry.collect("gateway.rejected")
                    if dict(counter.labels).get("reason") == reason)
        result.layer(f"gateway.rejected.{reason}", total, "count")

    failovers = clock.count("recovery")
    result.layer("gateway.reap_s", clock.wall("reap") / failovers)
    recovery = LayerTable(spans, clock, "recovery")
    # In the recovery window the only updates are the respawned worker's
    # WAL replay: no traffic is submitted until collect_states() returns.
    recovery_rows = {
        "gateway.wal_read_s": recovery.seconds["gateway.wal_read"],
        "runtime.calibrate_s": recovery.seconds["runtime.calibrate"],
        "runtime.snapshot_load_s": recovery.seconds["runtime.snapshot_load"],
        "gateway.replay_s": recovery.seconds["runtime.update"],
    }
    for name, value in recovery_rows.items():
        result.layer(name, value / failovers)
    result.layer("gateway.wal_records",
                 recovery.units["gateway.wal_read"] / failovers, "count")
    result.layer("gateway.replayed_records", sum(
        counter.value for counter
        in registries["recovery"].collect("gateway.replayed_records"))
        / failovers, "count")
    result.layer("gateway.recovery_unattributed_s", (
        clock.wall("recovery") - sum(recovery_rows.values())) / failovers)
