"""Model audit drivers for ``repro analyze``.

For each shipped model (the full MACE detector plus every baseline in
:data:`repro.baselines.ALL_BASELINES`) this module builds the model at its
default configuration, traces one forward/loss computation
(:mod:`repro.analysis.trace`), runs the forward interval pass
(:mod:`repro.analysis.dataflow`) and the gradient-flow audit
(:mod:`repro.analysis.gradflow`), and assembles a machine-readable report.

JumpStarter is the one registered baseline with no autograd graph (it is a
compressed-sensing method, not a neural model); it appears in the report
as explicitly skipped rather than silently missing.

Regression policy: finding *fingerprints* — ``rule|model|module_path|op|
file-basename``, deliberately excluding line numbers and messages — are
compared against a committed baseline file.  Warnings whose fingerprint is
accepted by the baseline pass; **errors always fail**, baseline or not.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.dataflow import Finding, coverage, propagate
from repro.analysis.gradflow import audit_gradient_flow
from repro.analysis.trace import trace

__all__ = [
    "audit_models",
    "available_models",
    "fingerprint",
    "load_baseline",
    "new_findings",
    "warning_fingerprints",
    "write_baseline",
    "BASELINE_VERSION",
]

BASELINE_VERSION = 1

_SYNTH_FEATURES = 3
_SYNTH_BATCH = 2


def _repo_relative(path: str) -> str:
    """Stable repo-relative path (posix separators) for reports."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    absolute = os.path.abspath(path)
    if absolute.startswith(root + os.sep):
        return absolute[len(root) + 1:].replace(os.sep, "/")
    return os.path.basename(path)


def fingerprint(finding: Finding) -> str:
    """Line-number-free identity of a finding, stable across edits."""
    return "|".join((finding.rule, finding.model, finding.module_path,
                     finding.op, os.path.basename(finding.file)))


def _synthetic_windows(window: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.arange(window)[None, :, None]
    phase = rng.uniform(0, 2 * np.pi, size=(_SYNTH_BATCH, 1, _SYNTH_FEATURES))
    wave = np.sin(2 * np.pi * t / max(window // 4, 1) + phase)
    return wave + 0.1 * rng.standard_normal(
        (_SYNTH_BATCH, window, _SYNTH_FEATURES))


def _analyze_graph(fn, inputs, module, envelope: float) -> dict:
    graph = trace(fn, inputs=inputs, module=module)
    values, findings = propagate(graph, envelope=envelope)
    findings.extend(audit_gradient_flow(graph, values, module))
    return {"graph": graph, "findings": findings,
            "uncovered_ops": coverage(graph)}


def _mace_case():
    from repro.core import MaceConfig, MaceModel, PatternExtractor
    from repro.nn.tensor import Tensor

    config = MaceConfig()
    rng = np.random.default_rng(0)
    series = np.sin(np.arange(8 * config.window)[:, None]
                    * (2 * np.pi / config.window)
                    + rng.uniform(0, np.pi, _SYNTH_FEATURES)[None, :])
    series = series + 0.05 * rng.standard_normal(series.shape)
    extractor = PatternExtractor(config.window, config.num_bases)
    extractor.fit_service("svc", series)
    model = MaceModel(config)
    windows = Tensor(_synthetic_windows(config.window))

    def fn():
        output = model.forward(windows, extractor, "svc")
        return model.loss(output)

    return fn, (windows,), model


def _baseline_case(name: str):
    from repro.baselines import ALL_BASELINES, BaselineConfig
    from repro.nn.tensor import Tensor

    detector = ALL_BASELINES[name](BaselineConfig())
    model = detector.build_model(_SYNTH_FEATURES)
    windows = Tensor(_synthetic_windows(detector.config.window))

    def fn():
        return detector.model_loss(model, windows, "svc")

    return fn, (windows,), model


def _model_case(name: str):
    """(fn, inputs, module) for one model."""
    return _mace_case() if name == "MACE" else _baseline_case(name)


def available_models() -> List[str]:
    from repro.baselines import ALL_BASELINES

    return ["MACE"] + list(ALL_BASELINES)


def audit_models(models: Optional[Sequence[str]] = None,
                 envelope: float = 1e3) -> dict:
    """Run the analyzer over the requested models (default: all).

    Returns the full report dict (the ``--json`` payload): per-model node
    counts, findings, uncovered ops, and timing, plus a summary.
    """
    from repro.baselines import ALL_BASELINES

    known = available_models()
    requested = list(models) if models else known
    unknown = [m for m in requested if m not in known]
    if unknown:
        raise ValueError(f"unknown models {unknown}; available: {known}")

    report_models: List[dict] = []
    all_findings: List[Finding] = []
    for name in requested:
        started = time.perf_counter()
        if name == "JumpStarter":
            report_models.append({
                "model": name, "skipped":
                    "compressed-sensing baseline with no autograd graph",
                "nodes": 0, "findings": [], "uncovered_ops": {},
                "seconds": 0.0,
            })
            continue
        result = _analyze_graph(*_model_case(name), envelope)
        for finding in result["findings"]:
            finding.model = name
            finding.file = _repo_relative(finding.file) if finding.file else ""
        findings = sorted(
            result["findings"],
            key=lambda f: (f.rule, f.module_path, f.op, f.file, f.line),
        )
        all_findings.extend(findings)
        report_models.append({
            "model": name,
            "skipped": None,
            "nodes": len(result["graph"].nodes),
            "findings": [f.to_dict() for f in findings],
            "uncovered_ops": result["uncovered_ops"],
            "seconds": round(time.perf_counter() - started, 3),
        })

    active = [f for f in all_findings if not f.suppressed]
    report = {
        "version": BASELINE_VERSION,
        "envelope": envelope,
        "models": report_models,
        "summary": {
            "errors": sum(f.severity == "error" for f in active),
            "warnings": sum(f.severity == "warn" for f in active),
            "suppressed": sum(f.suppressed for f in all_findings),
        },
    }
    report["_findings"] = all_findings  # live objects, stripped before JSON
    return report


# ----------------------------------------------------------------------
# Baseline files (analysis_baseline.json, det_baseline.json)
# ----------------------------------------------------------------------

def load_baseline(path: str, key: str) -> Dict[str, List[str]]:
    """Read the fingerprint list stored under *key* in a baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {data.get('version')}, "
            f"expected {BASELINE_VERSION}")
    return {key: list(data.get(key, []))}


def write_baseline(path: str, key: str, fingerprints: Iterable[str]) -> None:
    """Write *fingerprints* (deduplicated, sorted) under *key*."""
    payload = {"version": BASELINE_VERSION, key: sorted(set(fingerprints))}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def warning_fingerprints(report: dict) -> List[str]:
    """What ``--update-baseline`` accepts: every unsuppressed warning."""
    return [fingerprint(f) for f in report["_findings"]
            if not f.suppressed and f.severity == "warn"]


def new_findings(report: dict,
                 baseline: Optional[Dict[str, List[str]]] = None
                 ) -> List[Finding]:
    """Findings that must fail the build under the given baseline."""
    accepted = set(baseline["accepted_warnings"]) if baseline else set()
    failing = []
    for finding in report["_findings"]:
        if finding.suppressed:
            continue
        if finding.severity == "error":
            failing.append(finding)
        elif fingerprint(finding) not in accepted:
            failing.append(finding)
    return failing
