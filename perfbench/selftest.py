#!/usr/bin/env python3
"""Self-test of the benchmark itself: ``python3 perfbench/selftest.py``.

* A tiny (``--smoke``) run of every workload, untraced and traced, must
  print the contract line with every BENCHMARK.json metric and its unit,
  and a detail line giving each of the workload's own metrics a unit and
  a sample count, plus attempted/failed counts.  Every gate must pass.
* Flipping one float in the in-process reference state must fail the
  serving gate.
* provenance.json must map every per-layer metric to its timed call.
* Without the source tree next to it, the benchmark must exit non-zero
  and print no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
OWN_METRICS = {
    "train": {"setup_s", "peak_rss_mb", "failed_frac", "fit_windows_per_s",
              "score_windows_per_s", "score_s", "query_p50_ms",
              "query_p99_ms"},
    "serve": {"setup_s", "peak_rss_mb", "failed_frac", "ack_p50_ms",
              "ack_p99_ms", "flood_pts_per_s", "recovery_s"},
}


def check_smoke_runs(spec: dict) -> None:
    for workload in ("train", "serve-mace", "serve-zscore"):
        for trace in (0, 1):
            completed = subprocess.run(
                RUN + ["--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert completed.returncode == 0, completed.stderr
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace, lines)
            assert isinstance(result["attempted"], int) \
                and result["attempted"] >= 1
            assert isinstance(result["failed"], int)
            declared = spec["per_layer" if trace else "end_to_end"]
            assert set(result["metrics"]) == {e["name"] for e in declared}
            for entry in declared:
                metric = result["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"], entry
                assert math.isfinite(metric["value"]), entry
            detail = json.loads(next(
                line for line in lines if line.startswith("PERFBENCH "))[10:])
            own = OWN_METRICS["train" if workload == "train" else "serve"]
            assert set(detail["end_to_end"]) == own, detail["end_to_end"]
            for name, metric in detail["end_to_end"].items():
                assert metric["unit"] and metric["samples"] >= 1, name
            assert detail["attempted"] == result["attempted"]
            assert detail["failed"] == result["failed"]
            print(f"ok  smoke {workload} trace={trace}")


def _flip_first_float(node) -> bool:
    """Nudge the first float leaf by one ulp, in place."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float) and math.isfinite(value):
            node[key] = math.nextafter(value, math.inf)
            return True
        if isinstance(value, (dict, list)) and _flip_first_float(value):
            return True
    return False


def check_gate_catches_one_flipped_float() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from repro.runtime.gateway import ZScoreDetector
    from workloads import canonical_state, reference_states

    rng = np.random.default_rng(0)
    histories = {f"svc-{i}": rng.normal(size=(96, 3)) for i in range(2)}
    updates = [(sid, rng.normal(size=3), step + 1, False)
               for step in range(50) for sid in sorted(histories)]
    detector = ZScoreDetector().fit(sorted(histories),
                                    [histories[s] for s in sorted(histories)])
    expected, = reference_states(detector, histories, updates, [len(updates)])
    state = json.loads(expected)
    assert canonical_state(state) == expected
    assert _flip_first_float(state)
    assert canonical_state(state) != expected
    print("ok  gate catches one flipped float")


def check_fails_without_source(scratch: Path) -> None:
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(HERE, scratch / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        completed = subprocess.run(
            [sys.executable, str(scratch / HERE.name / "run.py"),
             "--workload", "train", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(scratch)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
    print("ok  exits non-zero without the source tree")


def check_layer_map_covers_per_layer(spec: dict) -> None:
    layer_map = json.loads((HERE / "provenance.json").read_text())["layer_map"]
    assert set(layer_map) == {e["name"] for e in spec["per_layer"]}
    print("ok  provenance layer map covers every per-layer metric")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_layer_map_covers_per_layer(spec)
    check_smoke_runs(spec)
    check_gate_catches_one_flipped_float()
    check_fails_without_source(ROOT / ".perfbench_runs" / "no-source")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
