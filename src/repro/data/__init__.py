"""Synthetic multi-service datasets with labelled anomalies."""

from repro.data.anomalies import (
    AnomalyKind,
    AnomalySegment,
    InjectionResult,
    default_mix,
    inject_anomalies,
    kind_ratios,
)
from repro.data.datasets import PROFILES, Dataset, DatasetProfile, load_dataset
from repro.data.generators import Normalizer, ServiceData, generate_service
from repro.data.patterns import (
    ArNoise,
    FeaturePattern,
    NormalPattern,
    SawtoothWave,
    Sinusoid,
    SquareWave,
    Trend,
    perturb_pattern,
    random_pattern,
)
from repro.data.contamination import ContaminatedService, contaminate_training
from repro.data.registry import available_datasets, get_profile, register_profile
from repro.data.splits import (
    GroupSplit,
    tailored_singletons,
    transfer_pair,
    unified_groups,
)
from repro.data.windows import (
    WindowBatch,
    WindowDataset,
    scores_to_timeline,
    sliding_windows,
    window_starts,
)

__all__ = [
    "AnomalyKind", "AnomalySegment", "InjectionResult", "default_mix",
    "inject_anomalies", "kind_ratios",
    "PROFILES", "Dataset", "DatasetProfile", "load_dataset",
    "Normalizer", "ServiceData", "generate_service",
    "ArNoise", "FeaturePattern", "NormalPattern", "SawtoothWave", "Sinusoid",
    "SquareWave", "Trend", "perturb_pattern", "random_pattern",
    "available_datasets", "get_profile", "register_profile",
    "ContaminatedService", "contaminate_training",
    "GroupSplit", "tailored_singletons", "transfer_pair", "unified_groups",
    "WindowBatch", "WindowDataset", "scores_to_timeline", "sliding_windows",
    "window_starts",
]
