"""Process-supervision policy shared by the fleet orchestrator and the
serving gateway.

Both supervisors start one child process per unit of work, escalate a
stuck child from SIGTERM to SIGKILL, and retry a failed child after a
seeded exponential backoff.  Each of those three policies lives here
once:

* :func:`process_context` — ``fork`` where the platform has it, else
  ``spawn``;
* :data:`KILLED_EXIT_CODE` — the exit status of a child hard-killed by an
  injected fault;
* :func:`terminate` — SIGTERM, a :data:`TERM_GRACE` join, then SIGKILL;
* :class:`Backoff` — ``min(base·2^(n-1), cap) · (1 + jitter·u)`` with
  ``u`` drawn from a PCG64 seeded by ``(seed, salt)``, so retry timing
  is reproducible per supervisor.
"""

from __future__ import annotations

import multiprocessing

import numpy as np

__all__ = ["KILLED_EXIT_CODE", "TERM_GRACE", "Backoff", "process_context",
           "terminate"]

# Exit code a child uses for an injected hard kill (os._exit: no cleanup,
# no result file, no ack).
KILLED_EXIT_CODE = 73

# Seconds a child gets to exit after SIGTERM (and to be reaped after
# SIGKILL) before the supervisor moves on.
TERM_GRACE = 5.0


def process_context() -> multiprocessing.context.BaseContext:
    """The start-method context: ``fork`` if available, else ``spawn``."""
    available = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in available else "spawn")


def terminate(process: multiprocessing.process.BaseProcess) -> None:
    """SIGTERM, wait :data:`TERM_GRACE`, then SIGKILL and wait again."""
    process.terminate()
    process.join(TERM_GRACE)
    if process.is_alive():
        process.kill()
        process.join(TERM_GRACE)


class Backoff:
    """Seeded exponential backoff with multiplicative jitter."""

    def __init__(self, seed: int, salt: int, base: float, cap: float,
                 jitter: float):
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, salt]))

    def __call__(self, failed_attempts: int) -> float:
        """Seconds to wait before the retry after ``failed_attempts``."""
        delay = min(self.base * (2.0 ** (failed_attempts - 1)), self.cap)
        return delay * (1.0 + self.jitter * float(self._rng.random()))
