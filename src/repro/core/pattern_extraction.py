"""Pattern extraction: per-service subspaces + cached transform modules.

This object is MACE's "memory": the neural weights are shared across every
service, while the context-aware DFT/IDFT pair is looked up per service.
Handling a previously unseen service only requires fitting its subspace
(a cheap counting pass over its training windows) — no retraining — which is
what powers the Table VIII transfer experiment.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.frequency.context_aware import (
    ContextAwareDFT,
    ContextAwareIDFT,
    ServiceSubspace,
    SubspaceBank,
)

__all__ = ["PatternExtractor"]


class PatternExtractor:
    """Fit, store and serve per-service normal-pattern subspaces."""

    def __init__(self, window: int, num_bases: int, stride: int = 1,
                 include_dc: bool = True, context_aware: bool = True):
        self.window = window
        self.num_bases = num_bases
        self.context_aware = context_aware
        self.bank = SubspaceBank(window, num_bases, stride=stride,
                                 include_dc=include_dc)
        self._transforms: Dict[str, Tuple[ContextAwareDFT, ContextAwareIDFT]] = {}

    def fit(self, service_ids: Sequence[str],
            train_series: Sequence[np.ndarray]) -> "PatternExtractor":
        """Fit subspaces for a fleet of services."""
        for service_id, series in zip(service_ids, train_series):
            self.fit_service(service_id, series)
        return self

    def fit_service(self, service_id: str, series: np.ndarray) -> ServiceSubspace:
        """Fit (or refit) one service; invalidates its cached transforms."""
        if series.ndim == 1:
            series = series[:, None]
        if self.context_aware:
            subspace = self.bank.fit_service(service_id, series)
        else:
            # Ablation: vanilla DFT/IDFT over the complete spectrum.
            subspace = ServiceSubspace.full_spectrum(self.window, series.shape[1])
            self.bank.add(service_id, subspace)
        self._transforms.pop(service_id, None)
        return subspace

    def subspace(self, service_id: str) -> ServiceSubspace:
        return self.bank.get(service_id)

    def transforms(self, service_id: str) -> Tuple[ContextAwareDFT, ContextAwareIDFT]:
        """Cached, amplitude-normalised DFT/IDFT modules for a service."""
        if service_id not in self._transforms:
            subspace = self.bank.get(service_id)
            self._transforms[service_id] = (
                ContextAwareDFT(subspace, normalized=True),
                ContextAwareIDFT(subspace, normalized=True),
            )
        return self._transforms[service_id]

    def coefficient_width(self, service_id: str) -> int:
        """Width ``2k`` of the coefficient vector for a service."""
        return 2 * self.bank.get(service_id).k

    def __contains__(self, service_id: str) -> bool:
        return service_id in self.bank

    def service_ids(self):
        return self.bank.service_ids()
