"""Out-of-process span recording for the traced benchmark run.

The traced run wraps public functions of the ``repro`` layers from the
outside: each wrapper times one call and appends ``(name, start, end,
units)`` to an in-memory buffer.  ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so spans from the gateway's forked
workers line up with the phase intervals the parent records.

Each process keeps its own buffer.  Workers forked by the gateway inherit
the wrappers; the fork hook empties the inherited buffer, and the worker
writes its spans to ``spans-<pid>.jsonl`` in the run directory whenever
it answers a state request (the benchmark requests state after every
serving phase, so a worker killed afterwards has lost nothing) and when
its entry point returns.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# name, start, end, units; collect() appends whether a worker recorded it.
Span = Tuple[str, float, float, float]


class SpanRecorder:
    """Per-process span buffer plus the wrappers that fill it."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.spans: List[Span] = []
        self.root_pid = os.getpid()
        os.register_at_fork(after_in_child=self.spans.clear)

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.root_pid

    def wrap(self, owner, attr: str, name: str,
             units: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording ``name``.

        ``units(args, result)`` gives the span's unit count (windows in a
        forward, records read); it defaults to 1.
        """
        original = getattr(owner, attr)
        spans = self.spans

        def record(start, args, result):
            spans.append((name, start, time.perf_counter(),
                          1.0 if units is None else float(units(args, result))))

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            record(start, args, result)
            return result

        async def timed_async(*args, **kwargs):
            start = time.perf_counter()
            result = await original(*args, **kwargs)
            record(start, args, result)
            return result

        setattr(owner, attr, timed_async
                if inspect.iscoroutinefunction(original) else timed)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Time every ``next()`` of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        spans = self.spans

        def timed(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    spans.append((name, start, time.perf_counter(), 0.0))
                    return
                spans.append((name, start, time.perf_counter(), 1.0))
                yield item

        setattr(owner, attr, timed)

    def flush_before(self, owner, attr: str) -> None:
        """In a worker, write the buffer out each time ``owner.attr`` runs."""
        original = getattr(owner, attr)

        def flushing(*args, **kwargs):
            if self.in_worker:
                self.flush()
            return original(*args, **kwargs)

        setattr(owner, attr, flushing)

    def flush_after(self, owner, attr: str) -> None:
        """In a worker, write the buffer out when ``owner.attr`` returns."""
        original = getattr(owner, attr)

        def flushing(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                if self.in_worker:
                    self.flush()

        setattr(owner, attr, flushing)

    def flush(self) -> None:
        """Append this process's buffered spans to its own file."""
        if not self.spans:
            return
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(span) + "\n"
                                 for span in self.spans))
        self.spans.clear()

    def collect(self) -> List[tuple]:
        """Every span, this process's buffer and all worker files, each
        tagged with whether a worker recorded it."""
        spans = [span + (False,) for span in self.spans]
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                spans.append(tuple(json.loads(line)) + (True,))
        return spans


def install_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public call of every measured layer (see README.md)."""
    from repro.core import trainer as trainer_module
    from repro.core.model import MaceModel
    from repro.core.pattern_extraction import PatternExtractor
    from repro.core.streaming import StreamingDetector
    from repro.core.trainer import MaceTrainer
    from repro.data.windows import WindowDataset
    from repro.eval.spot import Spot
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.obs.propagate import TraceLog
    from repro.runtime.gateway import gateway as gateway_module
    from repro.runtime.gateway import worker as worker_module
    from repro.runtime.gateway.admission import AdmissionController
    from repro.runtime.gateway.gateway import ServingGateway
    from repro.runtime.gateway.wal import WriteAheadLog
    from repro.runtime.sanitize import Sanitizer
    from repro.runtime.serving import ServingRuntime

    wrap = recorder.wrap
    # Training and batch scoring.
    recorder.wrap_iterator(WindowDataset, "batches", "data.batch")
    wrap(PatternExtractor, "fit", "frequency.extractor_fit")
    wrap(MaceModel, "__call__", "nn.forward")
    wrap(Tensor, "backward", "nn.backward")
    wrap(trainer_module, "clip_grad_norm", "nn.clip")
    wrap(Adam, "step", "nn.optim_step")
    wrap(MaceTrainer, "window_errors", "core.score_forward",
         units=lambda args, result: len(args[2]))
    # Gateway parent: the ack path and recovery.
    wrap(ServingGateway, "submit", "gateway.submit")
    wrap(AdmissionController, "admit", "gateway.admit")
    wrap(WriteAheadLog, "append", "gateway.wal_append")
    wrap(WriteAheadLog, "commit", "gateway.wal_commit")
    wrap(gateway_module, "read_wal", "gateway.wal_read",
         units=lambda args, result: len(result))
    wrap(TraceLog, "record", "obs.trace_record")
    # Shard worker (inherited through fork).
    wrap(ServingRuntime, "update", "runtime.update")
    wrap(ServingRuntime, "start_service", "runtime.calibrate")
    wrap(Sanitizer, "sanitize", "runtime.sanitize")
    wrap(StreamingDetector, "observe", "core.observe")
    wrap(StreamingDetector, "score_current", "core.score_current")
    wrap(Spot, "step", "eval.spot_step")
    wrap(worker_module, "save_streaming_state", "runtime.snapshot")
    wrap(worker_module, "load_streaming_state", "runtime.snapshot_load")
    # The worker answers a "state" op with state_dict() + health_states();
    # only that op calls health_states(), so it marks a safe flush point.
    recorder.flush_before(ServingRuntime, "health_states")
    recorder.flush_after(gateway_module, "run_shard_worker")


class PhaseClock:
    """Named wall-clock intervals the per-layer sums are cut by."""

    def __init__(self):
        self.intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    def timed(self, phase: str):
        clock = self

        class _Interval:
            def __enter__(self):
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc_info):
                self.end = time.perf_counter()
                self.seconds = self.end - self.start
                clock.intervals[phase].append((self.start, self.end))
                return False

        return _Interval()

    def wall(self, phase: str) -> float:
        return sum(end - start for start, end in self.intervals[phase])

    def count(self, phase: str) -> int:
        return len(self.intervals[phase])


class LayerTable:
    """Span sums (seconds, calls, units) per name within one phase,
    optionally only the spans of the parent (``worker=False``) or of the
    workers (``worker=True``)."""

    def __init__(self, spans: Sequence[tuple], clock: PhaseClock, phase: str,
                 worker: Optional[bool] = None):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, float] = defaultdict(float)
        intervals = clock.intervals[phase]
        for name, start, end, units, in_worker in spans:
            if worker is not None and in_worker != worker:
                continue
            if any(low <= start <= high for low, high in intervals):
                self.seconds[name] += end - start
                self.calls[name] += 1
                self.units[name] += units
