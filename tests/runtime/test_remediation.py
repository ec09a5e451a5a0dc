"""Closed-loop remediation: diagnosis, policy, actions, controller.

The drill suite (tests/runtime/test_drill.py) proves the end-to-end
convergence claim; this file pins down each stage's contract in
isolation plus the controller's incident state machine on small scripted
runtimes.
"""

import numpy as np
import pytest

from repro.obs.events import EventLog, install_event_log
from repro.runtime import BreakerConfig, ServingRuntime
from repro.runtime.faults import ActionFault
from repro.runtime.health import HealthState
from repro.runtime.remediation import (
    Action,
    ActionContext,
    ActionOutcome,
    ActionRegistrationError,
    ActionRunner,
    AlertClass,
    DiagnosisConfig,
    EvidenceWindow,
    IncidentState,
    PolicyConfig,
    PolicyEngine,
    RemediationConfig,
    RemediationController,
    TERMINAL_ACTION,
    attribute_drift,
    create_action,
    diagnose,
    register_action,
    registered_actions,
)
from tests.runtime.test_serving import ScriptedDetector

WINDOW = 20


def _history(seed=0, length=200, features=2):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.stack([np.sin(2 * np.pi * t / 16),
                     0.5 * np.cos(2 * np.pi * t / 32)], axis=1)
    return base[:, :features] + 0.1 * rng.normal(size=(length, features))


class _Update:
    """Minimal StreamUpdate stand-in for EvidenceWindow tests."""

    def __init__(self, sanitized=False, is_alert=False,
                 used_fallback=False, score=1.0):
        self.sanitized = sanitized
        self.is_alert = is_alert
        self.used_fallback = used_fallback
        self.score = score


class TestEvidenceWindow:
    def test_fractions(self):
        window = EvidenceWindow(8)
        for _ in range(4):
            window.record(_Update(sanitized=True, is_alert=True))
        for _ in range(4):
            window.record(_Update())
        assert window.repair_fraction == 0.5
        assert window.alert_fraction == 0.5
        assert window.ticks == 8

    def test_score_baseline_ignores_fallback_scores(self):
        window = EvidenceWindow(8)
        window.record(_Update(score=1.0))
        window.record(_Update(score=3.0))
        window.record(_Update(score=100.0, used_fallback=True))
        assert window.score_baseline() == 2.0

    def test_empty_baseline_is_none(self):
        assert EvidenceWindow(8).score_baseline() is None


class TestDiagnosis:
    def _evidence(self, repaired=0, alerts=0, total=40):
        window = EvidenceWindow(total)
        for index in range(total):
            window.record(_Update(sanitized=index < repaired,
                                  is_alert=index < alerts))
        return window

    def test_repair_fraction_reads_as_data_quality(self):
        diagnosis = diagnose(self._evidence(repaired=20), np.zeros(2), 1.0)
        assert diagnosis.alert_class is AlertClass.DATA_QUALITY
        assert "sanitizer repaired" in diagnosis.reason

    def test_spectral_drift_reads_as_model_staleness(self):
        diagnosis = diagnose(self._evidence(), np.array([5.0, 3.0]), 1.0)
        assert diagnosis.alert_class is AlertClass.MODEL_STALENESS
        assert diagnosis.drift_ratio == pytest.approx(4.0)
        # Drift attribution ranks feature 0 first.
        assert diagnosis.top_features[0][0] == 0

    def test_clean_drift_free_alerts_read_as_storm(self):
        diagnosis = diagnose(self._evidence(alerts=20), np.zeros(2), 1.0)
        assert diagnosis.alert_class is AlertClass.ANOMALY_STORM

    def test_no_evidence_reads_unknown(self):
        diagnosis = diagnose(self._evidence(), np.zeros(2), 1.0)
        assert diagnosis.alert_class is AlertClass.UNKNOWN

    def test_payload_is_jsonable(self):
        import json

        payload = diagnose(self._evidence(repaired=40),
                           np.array([1.0, 2.0]), 1.0).to_payload()
        assert json.dumps(payload)
        assert payload["alert_class"] == "data_quality"

    def test_attribute_drift_shares(self):
        top = attribute_drift(np.array([3.0, 1.0, 0.0]), top=2)
        assert [feature for feature, _ in top] == [0, 1]
        assert top[0][1] == pytest.approx(0.75)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiagnosisConfig(window=2)
        with pytest.raises(ValueError):
            DiagnosisConfig(repair_fraction=0.0)
        with pytest.raises(ValueError):
            DiagnosisConfig(drift_threshold=-1.0)


class TestPolicy:
    def _engine(self, **overrides):
        defaults = dict(cooldown_ticks=10, max_concurrent_actions=2,
                        flap_window=50, flap_threshold=4)
        defaults.update(overrides)
        return PolicyEngine(PolicyConfig(**defaults))

    def test_ladders_must_end_terminal(self):
        with pytest.raises(ValueError):
            PolicyConfig(ladders={AlertClass.UNKNOWN: ("reset_breaker",)})

    def test_grants_first_rung(self):
        decision = self._engine().decide("svc", 10, AlertClass.DATA_QUALITY,
                                         0, 0)
        assert decision.allowed
        assert decision.action == "recalibrate_sanitizer"

    def test_cooldown_defers_then_releases(self):
        engine = self._engine()
        engine.acquire("svc", 10)
        engine.release("svc")
        held = engine.decide("svc", 15, AlertClass.DATA_QUALITY, 0, 0)
        assert not held.allowed and "cooldown" in held.reason
        assert engine.decide("svc", 20, AlertClass.DATA_QUALITY, 0, 0).allowed

    def test_terminal_rung_bypasses_cooldown(self):
        engine = self._engine()
        engine.acquire("svc", 10)
        engine.release("svc")
        decision = engine.decide("svc", 11, AlertClass.ANOMALY_STORM, 1, 0)
        assert decision.allowed
        assert decision.action == TERMINAL_ACTION

    def test_blast_radius_caps_concurrency(self):
        engine = self._engine()
        engine.acquire("a", 1)
        engine.acquire("b", 1)
        decision = engine.decide("c", 1, AlertClass.UNKNOWN, 0, 0)
        assert not decision.allowed and "blast radius" in decision.reason
        engine.release("a")
        assert engine.decide("c", 2, AlertClass.UNKNOWN, 0, 0).allowed
        assert engine.violations == 0

    def test_flapping_escalates_to_terminal(self):
        decision = self._engine().decide("svc", 100, AlertClass.DATA_QUALITY,
                                         0, recent_transitions=5)
        assert decision.escalate
        assert decision.action == TERMINAL_ACTION

    def test_exhausted_ladder_denied(self):
        ladder = PolicyConfig().ladder(AlertClass.ANOMALY_STORM)
        decision = self._engine().decide("svc", 1, AlertClass.ANOMALY_STORM,
                                         len(ladder), 0)
        assert not decision.allowed and "exhausted" in decision.reason

    def test_self_audit_counts_violations(self):
        engine = self._engine(max_concurrent_actions=1)
        engine.acquire("a", 1)
        engine.acquire("b", 1)      # beyond the cap: the audit must notice
        assert engine.violations == 1
        assert engine.stats()["violations"] == 1


class TestActionRegistry:
    def test_builtin_actions_registered(self):
        names = registered_actions()
        for name in ("recalibrate_sanitizer", "reset_breaker",
                     "hot_swap_detector", "quarantine_and_page"):
            assert name in names

    def test_missing_timeout_rejected(self):
        with pytest.raises(ActionRegistrationError):
            @register_action
            class NoTimeout(Action):          # noqa: REP111 - negative case
                name = "no-timeout"
                idempotent = True

    def test_bool_timeout_rejected(self):
        with pytest.raises(ActionRegistrationError):
            @register_action
            class BoolTimeout(Action):        # noqa: REP111 - negative case
                name = "bool-timeout"
                timeout_ticks = True
                idempotent = True

    def test_non_idempotent_rejected(self):
        with pytest.raises(ActionRegistrationError):
            @register_action
            class NotIdempotent(Action):      # noqa: REP111 - negative case
                name = "not-idempotent"
                timeout_ticks = 4

    def test_duplicate_name_rejected(self):
        with pytest.raises(ActionRegistrationError):
            @register_action
            class Duplicate(Action):
                name = "reset_breaker"
                timeout_ticks = 4
                idempotent = True

    def test_unknown_action_name(self):
        with pytest.raises(KeyError):
            create_action("definitely-not-registered")


class _SlowAction(Action):
    """Test-only action that stays PENDING for a fixed number of polls."""

    name = "slow-test-action"
    timeout_ticks = 3
    idempotent = True

    def __init__(self, pending_polls=10):
        self.pending_polls = pending_polls
        self.rolled_back = False

    def start(self, ctx):
        return ActionOutcome.PENDING

    def poll(self, ctx):
        self.pending_polls -= 1
        if self.pending_polls <= 0:
            return ActionOutcome.OK
        return ActionOutcome.PENDING

    def rollback(self, ctx):
        self.rolled_back = True


class TestActionRunner:
    def _ctx(self, service="svc", tick=10):
        return ActionContext(runtime=None, service_id=service, tick=tick)

    def test_timeout_fires_after_declared_budget(self):
        runner = ActionRunner()
        outcome, _ = runner.launch(_SlowAction(), self._ctx(tick=10))
        assert outcome is ActionOutcome.PENDING
        assert runner.step("svc", 11) is ActionOutcome.PENDING
        assert runner.step("svc", 13) is ActionOutcome.TIMED_OUT
        assert runner.timed_out == 1
        assert runner.step("svc", 14) is None     # left flight

    def test_pending_action_completes(self):
        runner = ActionRunner()
        action = _SlowAction(pending_polls=2)
        outcome, _ = runner.launch(action, self._ctx(tick=10))
        assert outcome is ActionOutcome.PENDING
        assert runner.step("svc", 11) is ActionOutcome.PENDING
        assert runner.step("svc", 12) is ActionOutcome.OK

    def test_one_action_per_service(self):
        runner = ActionRunner()
        runner.launch(_SlowAction(), self._ctx(tick=10))
        with pytest.raises(RuntimeError):
            runner.launch(_SlowAction(), self._ctx(tick=11))

    def test_action_fail_fault_consumed_once(self):
        runner = ActionRunner({"svc": ActionFault("action_fail")})
        outcome, _ = runner.launch(_SlowAction(pending_polls=1),
                                   self._ctx(tick=10))
        assert outcome is ActionOutcome.FAILED
        # One-shot fault: the retry executes for real.
        outcome, _ = runner.launch(_SlowAction(pending_polls=1),
                                   self._ctx(tick=20))
        assert outcome is ActionOutcome.PENDING

    def test_action_hang_fault_pins_until_timeout(self):
        runner = ActionRunner({"svc": ActionFault("action_hang")})
        action = _SlowAction(pending_polls=1)      # would finish in 1 poll
        outcome, running = runner.launch(action, self._ctx(tick=10))
        assert outcome is ActionOutcome.PENDING and running.hung
        assert runner.step("svc", 12) is ActionOutcome.PENDING
        assert runner.step("svc", 13) is ActionOutcome.TIMED_OUT

    def test_recovery_relapse_not_consumed_by_runner(self):
        runner = ActionRunner({"svc": ActionFault("recovery_relapse")})
        outcome, _ = runner.launch(_SlowAction(pending_polls=1),
                                   self._ctx(tick=10))
        assert outcome is ActionOutcome.PENDING    # fault left for verify


class _Loop:
    """A scripted single-service loop driving the controller."""

    def __init__(self, config=None, action_faults=None, retrain=None):
        self.history = _history()
        self.detector = ScriptedDetector().fit(["svc"], [self.history])
        self.runtime = ServingRuntime(
            self.detector, window=WINDOW, q=1e-2,
            breaker_config=BreakerConfig(failure_threshold=3,
                                         recovery_successes=3,
                                         probe_successes=2, base_backoff=2,
                                         max_backoff=16))
        self.runtime.start_service("svc", self.history)
        self.controller = RemediationController(
            self.runtime, config=config or self._config(),
            action_faults=action_faults, retrain=retrain)
        self.controller.watch("svc", history=self.history)
        self.step_index = 0

    @staticmethod
    def _config(**overrides):
        defaults = dict(
            diagnosis=DiagnosisConfig(window=24),
            policy=PolicyConfig(cooldown_ticks=4, max_concurrent_actions=2,
                                flap_window=100, flap_threshold=30),
            verify_patience=20, verify_dwell=4, degraded_patience=10,
            history_rows=120)
        defaults.update(overrides)
        return RemediationConfig(**defaults)

    def run(self, ticks, fail=False, drop=False):
        rng = np.random.default_rng(99)
        for _ in range(ticks):
            self.detector.fail = fail
            row = (self.history[self.step_index % len(self.history)]
                   + 0.05 * rng.normal(size=2))
            self.step_index += 1
            self.controller.step("svc", None if drop else row)

    @property
    def incidents(self):
        return self.controller.incidents


class TestControllerLoop:
    def test_breaker_trip_opens_resolves_and_verifies(self):
        loop = _Loop()
        loop.run(30)
        loop.run(12, fail=True)      # sustained outage trips the breaker
        loop.run(60)                 # outage over: loop must converge
        assert len(loop.incidents) == 1
        incident = loop.incidents[0]
        assert incident.trigger == "breaker_trip"
        assert incident.state is IncidentState.RESOLVED
        assert incident.actions, "no remediation action ran"
        assert all(outcome == "ok" for _, outcome in incident.actions)
        assert loop.runtime.health("svc").state is HealthState.HEALTHY
        assert loop.controller.policy.violations == 0

    def test_degraded_persistence_opens_data_quality_incident(self):
        loop = _Loop()
        loop.run(30)
        loop.run(25, drop=True)      # every sample dropped in transport
        loop.run(60)
        assert loop.incidents, "sustained degraded input never escalated"
        incident = loop.incidents[0]
        assert incident.trigger == "degraded_persist"
        assert incident.diagnosis.alert_class is AlertClass.DATA_QUALITY
        assert incident.state is IncidentState.RESOLVED

    def test_failed_actions_climb_ladder_to_escalation(self):
        loop = _Loop()
        loop.run(30)
        loop.run(300, fail=True)     # permanent outage: remedies cannot hold
        incident = loop.incidents[0]
        assert incident.state is IncidentState.ESCALATED
        # The ladder was climbed: several distinct remedies were tried and
        # the terminal hand-off ran last.
        names = [name for name, _ in incident.actions]
        assert names[-1] == "quarantine_and_page"
        assert len(set(names)) >= 2
        # Escalated service is parked: the human owns it, no new incidents.
        loop.run(50, fail=True)
        assert len(loop.incidents) == 1
        # Until acknowledged, at which point the loop re-arms.
        loop.controller.acknowledge("svc")
        loop.run(80)
        assert loop.runtime.health("svc").state is HealthState.HEALTHY

    def test_action_fault_rolls_back_then_retries(self):
        log = EventLog()
        previous = install_event_log(log)
        try:
            loop = _Loop(action_faults={"svc": ActionFault("action_fail")})
            loop.run(30)
            loop.run(12, fail=True)
            loop.run(80)
        finally:
            install_event_log(previous)
        incident = loop.incidents[0]
        assert incident.state is IncidentState.RESOLVED
        outcomes = [outcome for _, outcome in incident.actions]
        assert "failed" in outcomes          # the sabotaged first attempt
        assert outcomes[-1] == "ok"
        assert log.events("action_rollback"), "failed action never rolled back"
        assert log.events("remediation_verified")

    def test_report_shape(self):
        loop = _Loop()
        loop.run(30)
        loop.run(12, fail=True)
        loop.run(60)
        report = loop.controller.report()
        assert report["incidents"] == 1
        assert report["by_state"] == {"resolved": 1}
        assert report["policy"]["violations"] == 0
        assert report["parked_services"] == []


class TestSloAttachment:
    """SloEngine burns are a first-class incident source."""

    def _burning_engine(self, objective):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.slo import BurnWindow, SloEngine

        registry = MetricsRegistry()
        histogram = registry.histogram("gateway.ack_seconds")
        engine = SloEngine(
            [objective], registry=registry,
            events=EventLog(clock=lambda: 0.0),
            windows=(BurnWindow("fast", short_ticks=2, long_ticks=4,
                                burn_threshold=10.0),))
        return engine, histogram

    def test_burn_opens_slo_incident_once(self):
        from repro.obs.slo import SloObjective

        loop = _Loop()
        engine, histogram = self._burning_engine(
            SloObjective("ack-p99", "latency", "gateway.ack_seconds",
                         target=0.99, threshold=0.05, service="svc"))
        loop.controller.attach_slo(engine)
        for tick in range(1, 12):
            histogram.observe(0.2)          # every ack blows the budget
            engine.step(tick)
        incidents = loop.incidents
        assert len(incidents) == 1          # active incident absorbs more
        assert incidents[0].trigger == "slo_burn"
        assert incidents[0].service_id == "svc"
        burns = loop.controller.registry.counter("remediation.slo_burns",
                                                 objective="ack-p99")
        assert burns.value >= 1.0

    def test_unattributed_burn_counts_but_opens_nothing(self):
        from repro.obs.slo import SloObjective

        loop = _Loop()
        engine, histogram = self._burning_engine(
            SloObjective("fleet-p99", "latency", "gateway.ack_seconds",
                         target=0.99, threshold=0.05))  # no service
        loop.controller.attach_slo(engine)
        for tick in range(1, 12):
            histogram.observe(0.2)
            engine.step(tick)
        assert loop.incidents == []
        burns = loop.controller.registry.counter("remediation.slo_burns",
                                                 objective="fleet-p99")
        assert burns.value >= 1.0


class TestRemediationConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RemediationConfig(verify_patience=0)
        with pytest.raises(ValueError):
            RemediationConfig(drift_factor=0.0)
        with pytest.raises(ValueError):
            RemediationConfig(history_rows=1)
        with pytest.raises(ValueError):
            RemediationConfig(degraded_patience=0)
