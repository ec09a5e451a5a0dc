"""Admission control for the serving gateway: the overload ladder.

Aggregate queue occupancy drives a three-rung state machine that answers
pressure with an explicit, retryable verdict rather than unbounded
buffering.  NORMAL accepts everything; DEGRADED keeps accepting but marks
updates for the spectral fallback scorer (shed model cost, not data);
REFUSE rejects all new work while queues drain.  Hysteresis keeps the
ladder from flapping on the boundary.

The ladder is a pure function of the occupancy sequence it is fed, so
tests drive it directly and assert exact verdict sequences.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["AdmissionController", "OverloadState"]

# Occupancy thresholds of the DEGRADED and REFUSE rungs, and how far
# below a rung's threshold occupancy must fall before the ladder leaves it.
DEGRADE_AT = 0.80
REFUSE_AT = 0.95
HYSTERESIS = 0.10


class OverloadState(Enum):
    """Ladder rung, in escalation order."""

    NORMAL = "normal"
    DEGRADED = "degraded"
    REFUSE = "refuse"


_LADDER = tuple(OverloadState)
_THRESHOLDS = (DEGRADE_AT, REFUSE_AT)


class AdmissionController:
    """Occupancy-driven overload ladder with hysteresis.

    ``admit(occupancy)`` (aggregate queue fill fraction in ``[0, 1]``)
    moves the ladder: upward immediately when occupancy crosses a rung's
    threshold, downward one rung at a time and only after occupancy falls
    ``HYSTERESIS`` below it — a queue hovering at the boundary must not
    flap between accepting and refusing.
    """

    def __init__(self):
        self.state = OverloadState.NORMAL
        self.transitions = 0

    def admit(self, occupancy: float) -> OverloadState:
        """Update and return the ladder state for the given occupancy."""
        occupancy = max(0.0, min(float(occupancy), 1.0))
        target = sum(occupancy >= threshold for threshold in _THRESHOLDS)
        current = _LADDER.index(self.state)
        if target < current:
            below = _THRESHOLDS[current - 1] - HYSTERESIS
            target = current - 1 if occupancy < below else current
        if target != current:
            self.state = _LADDER[target]
            self.transitions += 1
        return self.state
