"""ServingRuntime unit behaviour: routing, degradation, fallback scoring,
and the serving-state snapshot round trip."""

import json

import numpy as np
import pytest

from repro.core.detector import AnomalyDetector
from repro.runtime import (
    BreakerConfig,
    CheckpointError,
    ServingRuntime,
    SpectralFallbackScorer,
    load_streaming_state,
    save_streaming_state,
)
from repro.runtime.health import HealthState
from repro.runtime.sanitize import MAX_CONSECUTIVE_IMPUTED


class ScriptedDetector(AnomalyDetector):
    """Cheap z-score detector whose scoring path can be forced to fail."""

    name = "scripted"

    def __init__(self):
        self._stats = {}
        self.fail = False
        self.emit_nan = False

    def fit(self, service_ids, train_series):
        for service_id, series in zip(service_ids, train_series):
            series = np.atleast_2d(np.asarray(series, dtype=float))
            self._stats[service_id] = (series.mean(axis=0),
                                       series.std(axis=0) + 1e-9)
        return self

    def score(self, service_id, series):
        if self.fail:
            raise RuntimeError("scripted scoring failure")
        mean, std = self._stats[service_id]
        series = np.atleast_2d(np.asarray(series, dtype=float))
        scores = np.abs((series - mean) / std).max(axis=1)
        if self.emit_nan:
            scores = scores.copy()
            scores[-1] = np.nan
        return scores


def _history(seed=0, length=240, features=2):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.stack([np.sin(2 * np.pi * t / 20) + 0.1 * rng.normal(size=length)
                     for _ in range(features)], axis=1)
    return base


@pytest.fixture
def runtime():
    history = _history()
    detector = ScriptedDetector().fit(["svc"], [history])
    runtime = ServingRuntime(
        detector, window=40, q=1e-2,
        breaker_config=BreakerConfig(failure_threshold=3,
                                     recovery_successes=2,
                                     probe_successes=1, base_backoff=4,
                                     max_backoff=32),
    )
    runtime.start_service("svc", history)
    return runtime


def _detector(runtime):
    return runtime.streaming.detector


class TestHappyPath:
    def test_clean_updates_stay_healthy(self, runtime):
        for row in _history(seed=1)[:50]:
            outcome = runtime.update("svc", row)
            assert outcome.health == "healthy"
            assert not outcome.used_fallback
        assert runtime.health("svc").state is HealthState.HEALTHY

    def test_unknown_service_still_raises(self, runtime):
        with pytest.raises(KeyError):
            runtime.update("nope", np.zeros(2))

    def test_feature_mismatch_still_raises(self, runtime):
        with pytest.raises(ValueError):
            runtime.update("svc", np.zeros(7))

    def test_rejected_update_leaves_state_unchanged(self, runtime):
        runtime.update("svc", _history(seed=1)[0], sequence=1)
        before = _canonical(runtime)
        with pytest.raises(ValueError):
            runtime.update("svc", np.zeros(7), sequence=2)
        assert _canonical(runtime) == before   # breaker tick included


class TestSanitizedInputs:
    def test_nan_observation_reported_not_fatal(self, runtime):
        outcome = runtime.update("svc", np.array([np.nan, 0.0]))
        assert outcome.imputed_features == (0,)
        assert outcome.sanitized
        assert np.isfinite(outcome.score)

    def test_dropped_sample_accepted(self, runtime):
        outcome = runtime.update("svc", None)
        assert outcome.imputed_features == (0, 1)
        assert np.isfinite(outcome.score)

    def test_gross_outlier_clipped(self, runtime):
        outcome = runtime.update("svc", np.array([1e9, 0.0]))
        assert outcome.clipped_features == (0,)

    def test_long_gap_degrades(self, runtime):
        for _ in range(MAX_CONSECUTIVE_IMPUTED - 1):
            outcome = runtime.update("svc", None)
        assert outcome.health == "healthy"
        for _ in range(2):
            outcome = runtime.update("svc", None)
        assert outcome.health == "degraded"

    def test_dirty_calibration_history_accepted(self):
        history = _history()
        history[10:14, 1] = np.nan
        history[50, 0] = np.inf
        detector = ScriptedDetector().fit(
            ["svc"], [np.nan_to_num(history, posinf=0.0, neginf=0.0)]
        )
        runtime = ServingRuntime(detector, window=40, q=1e-2)
        runtime.start_service("svc", history)
        assert np.isfinite(runtime.update("svc", np.zeros(2)).score)


class TestDegradedMode:
    def test_scoring_failures_never_surface(self, runtime):
        _detector(runtime).fail = True
        for row in _history(seed=2)[:20]:
            outcome = runtime.update("svc", row)   # must not raise
            assert np.isfinite(outcome.score)

    def test_breaker_trips_to_quarantine(self, runtime):
        _detector(runtime).fail = True
        outcomes = [runtime.update("svc", row)
                    for row in _history(seed=2)[:10]]
        assert outcomes[-1].health == "quarantined"
        assert outcomes[-1].used_fallback
        assert runtime.health("svc").state is HealthState.QUARANTINED

    def test_nan_scores_trip_breaker_too(self, runtime):
        _detector(runtime).emit_nan = True
        outcomes = [runtime.update("svc", row)
                    for row in _history(seed=3)[:10]]
        assert runtime.health("svc").state is HealthState.QUARANTINED
        assert all(np.isfinite(o.score) for o in outcomes)

    def test_fallback_threshold_reported(self, runtime):
        _detector(runtime).fail = True
        for row in _history(seed=2)[:10]:
            outcome = runtime.update("svc", row)
        fallback = runtime._fallbacks["svc"]
        assert outcome.threshold == fallback.threshold

    def test_probes_readmit_after_recovery(self, runtime):
        detector = _detector(runtime)
        detector.fail = True
        rows = _history(seed=4)
        for row in rows[:12]:
            runtime.update("svc", row)
        assert runtime.health("svc").state is HealthState.QUARANTINED
        detector.fail = False
        last = None
        for row in rows[12:80]:
            last = runtime.update("svc", row)
        assert runtime.health("svc").state is HealthState.HEALTHY
        assert not last.used_fallback

    def test_fleet_isolation(self):
        """One broken service must not affect its neighbour's path."""
        history_a, history_b = _history(seed=5), _history(seed=6)

        class HalfBroken(ScriptedDetector):
            live = False    # healthy during calibration, breaks after

            def score(self, service_id, series):
                if self.live and service_id == "bad":
                    raise RuntimeError("dead service")
                return super().score(service_id, series)

        detector = HalfBroken().fit(["good", "bad"],
                                    [history_a, history_b])
        runtime = ServingRuntime(detector, window=40, q=1e-2)
        runtime.start_service("good", history_a)
        runtime.start_service("bad", history_b)
        detector.live = True
        for row_a, row_b in zip(_history(seed=7)[:40], _history(seed=8)[:40]):
            good = runtime.update("good", row_a)
            bad = runtime.update("bad", row_b)
        assert good.health == "healthy" and not good.used_fallback
        assert bad.health == "quarantined" and bad.used_fallback


class TestSpectralFallback:
    def test_calibration_scores_below_threshold(self):
        history = _history(seed=9)
        scorer = SpectralFallbackScorer(window=40).fit(history)
        window = history[-40:]
        assert scorer.score(window) <= scorer.threshold * 1.01

    def test_spectral_shift_scores_higher(self):
        history = _history(seed=10)
        scorer = SpectralFallbackScorer(window=40).fit(history)
        normal = scorer.score(history[-40:])
        shifted = history[-40:].copy()
        t = np.arange(40)
        shifted[:, 0] = np.sin(2 * np.pi * t / 3)   # very different period
        assert scorer.score(shifted) > normal

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            SpectralFallbackScorer(window=40).score(np.zeros((40, 2)))

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            SpectralFallbackScorer(window=40).fit(np.zeros((60, 2)))


class TestServingTelemetry:
    """Latency histograms + health-transition counters/events."""

    def _fresh_runtime(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        history = _history()
        detector = ScriptedDetector().fit(["svc"], [history])
        runtime = ServingRuntime(
            detector, window=40, q=1e-2, registry=registry,
            breaker_config=BreakerConfig(failure_threshold=3,
                                         recovery_successes=2,
                                         probe_successes=1, base_backoff=4,
                                         max_backoff=32),
        )
        runtime.start_service("svc", history)
        return runtime, registry

    def test_every_update_lands_in_latency_histogram(self):
        runtime, registry = self._fresh_runtime()
        for row in _history(seed=1)[:25]:
            runtime.update("svc", row)
        histogram = registry.get("serving.update_seconds", service="svc")
        assert histogram.count == 25
        assert histogram.total > 0.0
        assert histogram.quantile(0.5) > 0.0

    def test_transition_counters_and_events(self):
        from repro.obs.events import EventLog, install_event_log

        runtime, registry = self._fresh_runtime()
        log = EventLog()
        previous = install_event_log(log)
        try:
            _detector(runtime).fail = True
            for row in _history(seed=2)[:10]:
                runtime.update("svc", row)
        finally:
            install_event_log(previous)
        assert runtime.health("svc").state is HealthState.QUARANTINED
        trips = registry.get("serving.breaker_trips", service="svc")
        assert trips is not None and trips.value >= 1
        transitions = registry.collect("serving.health_transitions")
        assert sum(c.value for c in transitions) == \
            len(runtime.health("svc").transitions)
        kinds = [e["kind"] for e in log.events()]
        assert "health_transition" in kinds
        assert "breaker_trip" in kinds
        trip = log.events("breaker_trip")[0]
        assert trip["service"] == "svc"
        assert trip["failures"] >= 3

    def test_health_states_default_shape_unchanged(self):
        runtime, _ = self._fresh_runtime()
        runtime.update("svc", _history(seed=3)[0])
        states = runtime.health_states()
        assert states == {"svc": HealthState.HEALTHY}

    def test_health_states_detail_view(self):
        runtime, _ = self._fresh_runtime()
        for row in _history(seed=4)[:10]:
            runtime.update("svc", row)
        detail = runtime.health_states(detail=True)["svc"]
        assert detail["state"] is HealthState.HEALTHY
        assert detail["updates"] == 10
        assert detail["update_seconds"]["mean"] > 0.0
        assert detail["update_seconds"]["p99"] >= detail["update_seconds"]["p50"]
        assert detail["update_seconds"]["max"] >= detail["update_seconds"]["p99"]
        assert detail["transitions"] == 0

    def test_health_states_detail_quantiles_never_cross(self):
        # On this stream the separate P² estimators for p50 and p99 cross
        # (tests/obs/test_metrics.py pins that); the detail view reads
        # Histogram.quantile() directly and must still report them in order.
        runtime, registry = self._fresh_runtime()
        histogram = registry.get("serving.update_seconds", service="svc")
        values = [476.7, 346.0, 539.7, 1617.8, 1555.5, 1076.6, 610.6,
                  854.2, 785.7, 767.4]
        for value in values:
            histogram.observe(value)
        seconds = runtime.health_states(detail=True)["svc"]["update_seconds"]
        assert min(values) <= seconds["p50"] <= seconds["p99"]
        assert seconds["p99"] <= seconds["max"] == max(values)

    def test_rejected_update_not_counted(self):
        """A wrong-width update raises before anything is applied, so it
        must not reach the latency histogram or the detail view's count."""
        runtime, registry = self._fresh_runtime()
        runtime.update("svc", _history(seed=6)[0], sequence=1)
        for sequence in (2, 3, 4):
            with pytest.raises(ValueError):
                runtime.update("svc", np.zeros(7), sequence=sequence)
        assert runtime.applied_sequence("svc") == 1
        assert runtime.health_states(detail=True)["svc"]["updates"] == 1
        histogram = registry.get("serving.update_seconds", service="svc")
        assert histogram.count == 1

    def test_failed_update_still_counted(self):
        """The latency histogram records even quarantined/fallback paths."""
        runtime, registry = self._fresh_runtime()
        _detector(runtime).fail = True
        for row in _history(seed=5)[:12]:
            runtime.update("svc", row)
        histogram = registry.get("serving.update_seconds", service="svc")
        assert histogram.count == 12


def _restore(runtime, tmp_path, registry=None):
    """Snapshot ``runtime`` and load it into a fresh, never-started
    runtime sharing its detector and policies."""
    path = save_streaming_state(runtime, tmp_path / "serving.json")
    restored = ServingRuntime(
        runtime.streaming.detector, window=runtime.window,
        q=runtime.streaming.q, breaker_config=runtime.breaker_config,
        registry=registry)
    load_streaming_state(restored, path)
    return restored


def _canonical(runtime):
    return json.dumps(runtime.state_dict(), sort_keys=True)


class TestServingStateRestore:
    """A snapshot carries the whole serving state: sanitizer, breaker and
    fallback scorer included, so a restored runtime is indistinguishable
    from the one that wrote it."""

    def test_dropped_and_nan_rows_score_identically_after_restore(
            self, runtime, tmp_path):
        for row in _history(seed=1)[:30]:
            runtime.update("svc", row)
        restored = _restore(runtime, tmp_path)
        assert _canonical(restored) == _canonical(runtime)
        for row in (None, np.array([np.nan, 0.3])):
            expected = runtime.update("svc", row)
            actual = restored.update("svc", row)
            assert actual.score == expected.score
            assert actual.is_alert == expected.is_alert
            assert _canonical(restored) == _canonical(runtime)

    def test_restore_needs_no_start_service(self, runtime, tmp_path):
        runtime.update("svc", _history(seed=1)[0], sequence=1)
        restored = _restore(runtime, tmp_path)
        assert restored.services() == ("svc",)
        assert restored.applied_sequence("svc") == 1
        assert _canonical(restored) == _canonical(runtime)

    def test_quarantined_service_stays_quarantined(self, runtime, tmp_path):
        _detector(runtime).fail = True
        for row in _history(seed=2)[:6]:
            runtime.update("svc", row)
        health = runtime.health("svc")
        assert health.state is HealthState.QUARANTINED
        restored = _restore(runtime, tmp_path)
        assert restored.health("svc").state is HealthState.QUARANTINED
        assert restored.health("svc").state_dict()["next_probe_tick"] == \
            health.state_dict()["next_probe_tick"] is not None
        # Same probe schedule from here on: failing probes, then recovery.
        for index, row in enumerate(_history(seed=3)[:40]):
            _detector(runtime).fail = index < 20
            expected = runtime.update("svc", row)
            actual = restored.update("svc", row)
            assert (actual.score, actual.health, actual.used_fallback) == \
                (expected.score, expected.health, expected.used_fallback)
        assert _canonical(restored) == _canonical(runtime)

    def test_restore_does_not_report_old_transitions_again(self, runtime,
                                                           tmp_path):
        from repro.obs.events import EventLog, install_event_log
        from repro.obs.metrics import MetricsRegistry

        _detector(runtime).fail = True
        for row in _history(seed=2)[:6]:
            runtime.update("svc", row)
        recorded = len(runtime.health("svc").transitions)
        assert recorded >= 1

        registry = MetricsRegistry()
        log = EventLog()
        previous = install_event_log(log)
        try:
            restored = _restore(runtime, tmp_path, registry=registry)
            calls = []
            restored.subscribe(lambda *args: calls.append(args))
            restored.update("svc", _history(seed=3)[0])    # no transition
            assert restored.health("svc").state is HealthState.QUARANTINED
            assert len(restored.health("svc").transitions) == recorded
            assert log.events() == []
            assert calls == []
            assert registry.collect("serving.health_transitions") == []
            assert registry.collect("serving.breaker_trips") == []

            # The next transition is reported once, numbered after the
            # restored ones.
            _detector(runtime).fail = False
            restored.reset_breaker("svc")
            restored.update("svc", _history(seed=3)[1])
        finally:
            install_event_log(previous)
        events = log.events("health_transition")
        assert [event["transition_count"] for event in events] == \
            [recorded + 1]
        assert len(calls) == 1
        assert sum(counter.value for counter in registry.collect(
            "serving.health_transitions")) == 1

    def test_v2_snapshot_with_retired_fields_loads_and_continues(
            self, tmp_path):
        history = _history(length=24)
        detector = ScriptedDetector().fit(["svc"], [history])
        uninterrupted = ServingRuntime(detector, window=4, q=1e-2)
        uninterrupted.start_service("svc", history)
        rows = [np.array([0.5, -0.25]), None, np.array([np.nan, 1.5]),
                None, np.array([9.0, 0.25]), np.array([0.1, np.inf])]
        for sequence, row in enumerate(rows[:3], start=1):
            uninterrupted.update("svc", row, sequence=sequence)

        path = tmp_path / "serving-v2.json"
        path.write_text(V2_SNAPSHOT)
        restored = ServingRuntime(detector, window=4, q=1e-2)
        load_streaming_state(restored, path)
        assert _canonical(restored) == _canonical(uninterrupted)
        for sequence, row in enumerate(rows[3:], start=4):
            expected = uninterrupted.update("svc", row, sequence=sequence)
            actual = restored.update("svc", row, sequence=sequence)
            assert actual == expected
        assert _canonical(restored) == _canonical(uninterrupted)


# What ``uninterrupted`` above holds after its first three updates, as
# the v2 writer emitted it while the streaming section still carried the
# retired "filled", "on_invalid" and "calibration_level" fields (the
# loader ignores them).
V2_SNAPSHOT = """{
  "format": "repro.serving-state.v2",
  "streaming": {
    "format": "repro.streaming-state.v1",
    "window": 4,
    "q": 0.01,
    "calibration_level": 0.98,
    "on_invalid": "impute",
    "services": {
      "svc": {
        "buffer": [
          [0.8441680013842492, 1.0050428260199438],
          [0.5, -0.25],
          [0.5, -0.25],
          [0.5, 1.5]
        ],
        "filled": 4,
        "spot": {
          "q": 0.01,
          "level": 0.98,
          "refit_every": 16,
          "fit": {
            "initial_threshold": 1.6894918333641782,
            "shape": 0.0,
            "scale": 0.49975666545354264,
            "num_excesses": 1,
            "num_samples": 24
          },
          "excesses": [0.08692667576620972, 0.4355697747753766],
          "num_samples": 27,
          "pending": 1,
          "threshold": 2.4027027444731095
        }
      }
    }
  },
  "applied_sequence": {
    "svc": 3
  },
  "services": {
    "svc": {
      "sanitizer": {
        "median": [0.09752393468984079, 0.18398586554324264],
        "lo": [-12.055015019042552, -10.079001523722773],
        "hi": [12.250062888422233, 10.446973254809258],
        "last": [0.5, 1.5],
        "consecutive_imputed": 1
      },
      "health": {
        "state": "healthy",
        "tick": 3,
        "consecutive_failures": 0,
        "consecutive_successes": 3,
        "total_failures": 0,
        "backoff": 8,
        "next_probe_tick": null,
        "probing": false,
        "transitions": []
      },
      "fallback": {
        "reference": [
          [0.6520788870117357, 0.20878035591758032, 0.13914075707068405],
          [0.6551022076712069, 0.20610385583024904, 0.13879393649854413]
        ],
        "threshold": 0.42545485089549434
      }
    }
  }
}
"""
