"""Evaluation stack: metrics, thresholds, protocols, profiling."""

from repro.eval.metrics import (
    ConfusionCounts,
    DetectionMetrics,
    confusion_counts,
    detection_metrics,
    label_segments,
    point_adjust,
)
from repro.eval.pot import PotFit, fit_pot, pot_threshold
from repro.eval.profiling import ResourceProfile, profile_call
from repro.eval.protocol import (
    ProtocolResult,
    ServiceResult,
    evaluate_scores,
    run_split,
    run_tailored,
    run_transfer,
    run_unified,
)
from repro.eval.spot import Spot
from repro.eval.reporting import format_metrics_table, format_table, paper_vs_measured
from repro.eval.thresholds import (
    ThresholdResult,
    best_f1_threshold,
    candidate_thresholds,
    quantile_threshold,
)

__all__ = [
    "ConfusionCounts", "DetectionMetrics", "confusion_counts",
    "detection_metrics", "label_segments", "point_adjust",
    "PotFit", "fit_pot", "pot_threshold",
    "ResourceProfile", "profile_call", "Spot",
    "ProtocolResult", "ServiceResult", "evaluate_scores", "run_split",
    "run_tailored", "run_transfer", "run_unified",
    "format_metrics_table", "format_table", "paper_vs_measured",
    "ThresholdResult", "best_f1_threshold", "candidate_thresholds",
    "quantile_threshold",
]
