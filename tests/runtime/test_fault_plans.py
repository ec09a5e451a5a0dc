"""Seeded fault plans, pinned to exact literals.

Every chaos suite and drill replays its faults from a seed, so the draw
sequence behind each planner is part of the contract: a refactor that
reorders or adds a draw would silently move faults to different services,
epochs or updates.  These literals pin the plans for seeds 0-2.
"""

import pytest

from repro.runtime import FaultInjector
from repro.runtime.remediation.drill import DrillConfig, run_drill

_IDS = [f"svc-{i}" for i in range(8)]

_WORKER = {
    0: {"svc-1": ("worker_kill", 1, 0), "svc-2": ("worker_kill", 3, 0),
        "svc-6": ("worker_hang", 3, 0)},
    1: {"svc-0": ("nan_grad", 2, 0), "svc-1": ("nan_grad", 2, 0),
        "svc-2": ("nan_grad", 1, 0), "svc-4": ("worker_hang", 2, 0),
        "svc-5": ("nan_grad", 2, 0), "svc-6": ("nan_grad", 0, 0)},
    2: {"svc-0": ("worker_kill", 1, 0), "svc-2": ("worker_hang", 2, 0),
        "svc-4": ("nan_grad", 0, 0), "svc-5": ("worker_kill", 2, 0),
        "svc-6": ("worker_kill", 1, 0), "svc-7": ("nan_grad", 2, 0)},
}

_ACTION = {
    0: {"svc-1": "action_fail", "svc-2": "action_fail",
        "svc-7": "action_hang"},
    1: {"svc-0": "recovery_relapse", "svc-1": "recovery_relapse",
        "svc-3": "recovery_relapse", "svc-5": "action_hang",
        "svc-6": "action_fail"},
    2: {"svc-0": "action_fail", "svc-2": "action_fail",
        "svc-5": "recovery_relapse", "svc-6": "action_fail"},
}

_GATEWAY = {
    0: {"svc-1": ("deliver_duplicate", 1), "svc-2": ("deliver_delayed", 10),
        "svc-6": ("deliver_dropped", 12)},
    1: {"svc-0": ("worker_slow_start", 12), "svc-1": ("worker_slow_start", 12),
        "svc-2": ("worker_slow_start", 6), "svc-4": ("deliver_dropped", 7),
        "svc-5": ("worker_slow_start", 10), "svc-6": ("worker_slow_start", 4)},
    2: {"svc-0": ("deliver_delayed", 4), "svc-2": ("deliver_duplicate", 8),
        "svc-4": ("worker_slow_start", 1), "svc-5": ("deliver_delayed", 8),
        "svc-6": ("deliver_duplicate", 2), "svc-7": ("deliver_dropped", 9)},
}

# (scenario, action fault) per faulted service of the default drill.
_DRILL = {
    0: {"svc-0": ("input_corruption", ""), "svc-1": ("model_outage", "action_fail"),
        "svc-2": ("model_outage", "action_fail"), "svc-3": ("model_outage", ""),
        "svc-5": ("input_corruption", ""), "svc-6": ("model_outage", ""),
        "svc-7": ("input_corruption", "")},
    1: {"svc-0": ("input_corruption", ""), "svc-1": ("input_corruption", ""),
        "svc-3": ("input_corruption", "recovery_relapse"),
        "svc-6": ("model_outage", ""), "svc-7": ("input_corruption", "")},
    2: {"svc-3": ("model_outage", "action_fail"), "svc-4": ("model_nan", ""),
        "svc-5": ("model_outage", "action_fail"),
        "svc-7": ("input_corruption", "")},
}


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestPinnedPlans:
    def test_worker_plan(self, seed):
        injector = FaultInjector(seed=seed)
        plan = injector.plan_worker_faults(_IDS, 0.6, 3)
        assert {k: (f.kind, f.epoch, f.batch)
                for k, f in plan.items()} == _WORKER[seed]
        assert injector.worker_faults_planned == len(_WORKER[seed])

    def test_action_plan(self, seed):
        injector = FaultInjector(seed=seed)
        plan = injector.plan_action_faults(_IDS, 0.6)
        assert {k: f.kind for k, f in plan.items()} == _ACTION[seed]
        assert injector.action_faults_planned == len(_ACTION[seed])

    def test_gateway_plan(self, seed):
        injector = FaultInjector(seed=seed)
        plan = injector.plan_gateway_faults(_IDS, 0.6, 12)
        assert {k: (f.kind, f.at_update)
                for k, f in plan.items()} == _GATEWAY[seed]
        assert injector.gateway_faults_planned == len(_GATEWAY[seed])

    def test_drill_scenarios(self, seed):
        report = run_drill(DrillConfig(seed=seed))
        assert {row.service_id: (row.scenario, row.action_fault)
                for row in report.rows if row.scenario} == _DRILL[seed]
