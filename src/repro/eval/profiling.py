"""Wall-clock and peak-memory profiling for the efficiency comparison.

Fig. 6(a) of the paper reports training-time and memory overhead per
method.  Here every method runs on the same NumPy substrate and the same
workload, so relative ordering is meaningful; memory is peak *Python*
allocation measured with ``tracemalloc`` (the NumPy buffers dominate and
are tracked by it).

Per-phase attribution of fit time is the trainer's own spans
(:mod:`repro.obs.tracing`); this module measures only the two Fig. 6(a)
totals.

``tracemalloc`` handling is re-entrancy safe: if the interpreter is
already tracing (an enclosing :func:`profile_call`, a pytest plugin),
the profiler snapshots the current allocation, resets the peak counter,
and reports the delta — and it only ever stops the tracer it started
itself, so the outer measurement keeps running.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

__all__ = ["ResourceProfile", "profile_call"]

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class ResourceProfile:
    """Outcome of profiling one call."""

    wall_seconds: float
    peak_memory_mb: float
    result: object = None

    def as_row(self) -> tuple:
        return (self.wall_seconds, self.peak_memory_mb)


def profile_call(fn: Callable, *args, **kwargs) -> ResourceProfile:
    """Run ``fn`` once, measuring wall time and peak traced memory."""
    already_tracing = tracemalloc.is_tracing()
    if already_tracing:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
        baseline = 0
    started = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        elapsed = time.perf_counter() - started
        current, peak = tracemalloc.get_traced_memory()
        if not already_tracing:
            tracemalloc.stop()
    # ``peak`` is since-start for a tracer we own, since-reset otherwise;
    # either way the call's contribution is its growth over the baseline.
    peak_mb = max(max(peak, current) - baseline, 0) / _MB
    return ResourceProfile(elapsed, peak_mb, result)
