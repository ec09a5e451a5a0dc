"""Input sanitization in front of the streaming ring buffer.

Telemetry from a heavy-traffic fleet arrives dirty: NaN from division by a
zero counter, Inf from an overflowed gauge, whole rows missing when an
agent drops samples, and transient 1000σ glitches from unit bugs.  A
:class:`Sanitizer` sits between the transport and
``StreamingDetector.observe`` and repairs each observation *before* it can
poison the next ``window`` scoring windows:

* **non-finite / missing values** are imputed from the last clean row;
* **gross outliers** (beyond :data:`CLIP_SIGMAS` robust standard
  deviations of the calibration history) are clipped to the boundary,
  preserving the direction of the excursion without letting one glitch
  saturate the dualistic amplifier;
* after :data:`MAX_CONSECUTIVE_IMPUTED` fully imputed rows in a row the
  stream is reported as gapped — the imputed data is pure fiction by then
  and the serving layer degrades the service rather than keep alerting on
  it;
* every repair is reported in a :class:`SanitizationReport` so the serving
  layer can surface degraded inputs instead of hiding them.

Clipping is deliberately loose: genuine anomalies the detector must see
are a few σ, while transport glitches are orders of magnitude out.  The
output of :meth:`Sanitizer.sanitize` is therefore always finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CLIP_SIGMAS", "MAX_CONSECUTIVE_IMPUTED", "SanitizationReport",
           "Sanitizer"]

# Each feature is clipped to median ± CLIP_SIGMAS * robust_std of the
# calibration history.
CLIP_SIGMAS = 12.0
# Fully imputed rows in a row before SanitizationReport.gap_exceeded.
MAX_CONSECUTIVE_IMPUTED = 10


@dataclass(frozen=True)
class SanitizationReport:
    """What the sanitizer did to one observation."""

    imputed_features: tuple = ()   # indices repaired from the last row
    clipped_features: tuple = ()   # indices clipped into the sane range
    missing_row: bool = False      # the whole observation was absent
    gap_exceeded: bool = False     # too many consecutive fabricated rows

    @property
    def modified(self) -> bool:
        return bool(self.imputed_features or self.clipped_features
                    or self.missing_row)


class Sanitizer:
    """Stateful per-service observation repair.

    Calibrate once on the service's (clean) recent history via
    :meth:`fit`, then run every incoming observation through
    :meth:`sanitize`.  The sanitizer tracks the last clean row so
    last-value imputation works across consecutive bad samples.
    """

    def __init__(self):
        self._median: np.ndarray | None = None
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None
        self._last: np.ndarray | None = None
        self._consecutive_imputed = 0

    @property
    def fitted(self) -> bool:
        return self._median is not None

    def fit(self, history: np.ndarray) -> "Sanitizer":
        """Learn per-feature medians and robust scales from history.

        Non-finite entries in the history are ignored feature-wise (a
        calibration stretch may itself contain a few bad readings).
        """
        history = np.atleast_2d(np.asarray(history, dtype=float))
        if history.shape[0] < 2:
            raise ValueError("need at least 2 history rows to calibrate")
        masked = np.where(np.isfinite(history), history, np.nan)
        if np.isnan(masked).all(axis=0).any():
            raise ValueError(
                "a feature has no finite calibration values at all"
            )
        self._median = np.nanmedian(masked, axis=0)
        # 1.4826 * MAD estimates σ robustly; floor it so a constant (dead)
        # feature still gets a non-degenerate clipping band.
        mad = np.nanmedian(np.abs(masked - self._median), axis=0)
        spread = np.nanstd(masked, axis=0)
        robust_std = np.maximum(1.4826 * mad, np.maximum(spread, 1e-9))
        self._lo = self._median - CLIP_SIGMAS * robust_std
        self._hi = self._median + CLIP_SIGMAS * robust_std
        last = masked[-1].copy()
        fallback = np.isnan(last)
        last[fallback] = self._median[fallback]
        self._last = last
        self._consecutive_imputed = 0
        return self

    def sanitize(self, observation: np.ndarray | None
                 ) -> tuple[np.ndarray, SanitizationReport]:
        """Return a finite, clipped observation plus a repair report.

        ``observation=None`` means the sample was dropped in transport;
        the whole row is imputed.
        """
        if not self.fitted:
            raise RuntimeError("call fit() before sanitize()")
        num_features = self._median.size
        missing_row = observation is None
        if missing_row:
            observation = np.full(num_features, np.nan)
        observation = np.asarray(observation, dtype=float).reshape(-1)
        if observation.size != num_features:
            raise ValueError(
                f"expected {num_features} features, got {observation.size}"
            )

        finite = np.isfinite(observation)
        clean = observation.copy()
        if not finite.all():
            clean[~finite] = self._last[~finite]
        imputed = tuple(np.flatnonzero(~finite).tolist())

        clipped: tuple = ()
        out = (clean < self._lo) | (clean > self._hi)
        if out.any():
            clean = np.clip(clean, self._lo, self._hi)
            clipped = tuple(np.flatnonzero(out).tolist())

        if finite.all() and not missing_row:
            self._consecutive_imputed = 0
        elif not finite.any() or missing_row:
            self._consecutive_imputed += 1
        gap_exceeded = self._consecutive_imputed >= MAX_CONSECUTIVE_IMPUTED
        self._last = clean.copy()
        return clean, SanitizationReport(
            imputed_features=imputed,
            clipped_features=clipped,
            missing_row=missing_row,
            gap_exceeded=gap_exceeded,
        )

    def state_dict(self) -> dict:
        """JSON-serializable fit (median, clip band) and online state
        (last clean row, consecutive-imputation count)."""
        return {
            "median": self._median.tolist(),
            "lo": self._lo.tolist(),
            "hi": self._hi.tolist(),
            "last": self._last.tolist(),
            "consecutive_imputed": self._consecutive_imputed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Sanitizer":
        """Rebuild a :class:`Sanitizer` from :meth:`state_dict` output."""
        sanitizer = cls()
        sanitizer._median = np.asarray(state["median"], dtype=float)
        sanitizer._lo = np.asarray(state["lo"], dtype=float)
        sanitizer._hi = np.asarray(state["hi"], dtype=float)
        sanitizer._last = np.asarray(state["last"], dtype=float)
        sanitizer._consecutive_imputed = int(state["consecutive_imputed"])
        return sanitizer
