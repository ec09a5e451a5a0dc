#!/usr/bin/env python3
"""The repository benchmark: ``train``, ``serve-mace`` and ``serve-zscore``.

One workload, as the benchmark contract runs it::

    python3 perfbench/run.py --workload serve-mace --seed 1 --seconds 20 --trace 0

prints a human-readable report, a ``PERFBENCH {...}`` detail line (every
metric under its own name, with unit and sample count, the gates and the
environment) and, last, the contract's JSON line.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json and installs no wrappers;
``--trace 1`` installs the per-layer wrappers and reports the per-layer
metrics.

Every workload, untraced and traced, with the tracing overhead::

    python3 perfbench/run.py [--seed 1] [--seconds 20]

Run from the root of a checkout; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

# Single-threaded BLAS, set before numpy loads: OpenBLAS's helper threads
# spin on the second core even for this single-threaded work (one process
# used ~170% CPU), competing with the gateway's parent and worker.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETAIL_PREFIX = "PERFBENCH "
# BENCHMARK.json lists the serving workloads only; `train` stays runnable
# here but is not bounded (README.md, "Workloads").
WORKLOADS = ("train", "serve-mace", "serve-zscore")

# Contract metric -> the workload's own metric it reports (README.md).
SLOTS = {
    "train": {"throughput_per_s": "fit_windows_per_s",
              "latency_p50_ms": "query_p50_ms",
              "catchup_s": "score_s"},
    "serve": {"throughput_per_s": "flood_pts_per_s",
              "latency_p50_ms": "ack_p50_ms",
              "catchup_s": "recovery_s"},
}


def _sizes(workload: str, seconds: float, smoke: bool):
    from workloads import ServeSize, TrainSize

    if workload == "train":
        return TrainSize(services=2, length=256, epochs=1, queries=25) \
            if smoke else TrainSize()
    detector, rate, flood_rate = (("mace", 125.0, 400.0)
                                  if workload == "serve-mace"
                                  else ("zscore", 800.0, 2000.0))
    if smoke:
        return ServeSize(detector, rate=200.0, rated=16, flood=16, rounds=3,
                         services=2, fit_rows=128, history=96, warmup=2)
    rounds = ServeSize.rounds
    services = ServeSize.services

    def per_round(points):
        return int(points / rounds) // services * services

    # Over the rounds, the rated phase takes ~40% of the run and yields
    # >= 1000 acks; the flood takes ~25% at today's drain rate.
    return ServeSize(detector, rate=rate,
                     rated=max(per_round(rate * 0.4 * seconds),
                               per_round(1000) + services),
                     flood=per_round(flood_rate * 0.25 * seconds))


def _environment(run_dir: Path) -> dict:
    import numpy

    try:
        filesystem = subprocess.run(
            ["stat", "-f", "-c", "%T", str(run_dir)], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        filesystem = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "gateway_workers": 1,
            "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "run_dir_filesystem": filesystem}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (kB -> MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_one(args, spec: dict) -> int:
    from tracer import SpanRecorder, install_wrappers
    from workloads import run_serve, run_train

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        env = _environment(run_dir)
        recorder = None
        if args.trace:
            recorder = SpanRecorder(run_dir)
            install_wrappers(recorder)
        size = _sizes(args.workload, args.seconds, args.smoke)
        if args.workload == "train":
            result = run_train(args.seed, args.seconds, size, recorder)
        else:
            result = run_serve(args.seed, size, recorder, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.metric("peak_rss_mb", _peak_rss_mb(), "MB", 1)
    result.metric("failed_frac", result.failed / max(result.attempted, 1),
                  "ratio", result.attempted)

    slots = SLOTS["train" if args.workload == "train" else "serve"]
    metrics = {}
    if args.trace:
        for entry in spec["per_layer"]:
            # A layer the workload never calls measures zero.
            value, unit = result.per_layer.get(entry["name"],
                                               (0.0, entry["unit"]))
            if unit != entry["unit"]:
                raise RuntimeError(f"{entry['name']}: unit {unit} "
                                   f"!= {entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": unit}
    else:
        for entry in spec["end_to_end"]:
            value = result.end_to_end[slots.get(entry["name"],
                                                entry["name"])][0]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, samples) in result.end_to_end.items():
        print(f"  {name:<22} {value:>14.6g} {unit:<10} n={samples}")
    print(f"  attempted={result.attempted} failed={result.failed}")
    for name, passed in result.gates.items():
        print(f"  gate {name}: {'ok' if passed else 'FAILED'}")
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "end_to_end": {name: {"value": v, "unit": u, "samples": n}
                             for name, (v, u, n) in result.end_to_end.items()},
              "per_layer": {name: {"value": v, "unit": u}
                            for name, (v, u) in result.per_layer.items()},
              "gates": result.gates, "attempted": result.attempted,
              "failed": result.failed}
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


def _child(args, workload: str, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"perfbench: {workload} trace={trace} exited "
                         f"{completed.returncode}")
    for line in completed.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    raise SystemExit(f"perfbench: {workload} printed no detail line")


def run_all(args) -> int:
    """Each workload untraced then traced, in its own process."""
    layer_map = json.loads((HERE / "provenance.json").read_text())["layer_map"]
    correct = True
    for workload in WORKLOADS:
        plain = _child(args, workload, 0)
        traced = _child(args, workload, 1)
        correct &= all(plain["gates"].values()) and all(
            traced["gates"].values())
        print(f"== {workload}  seed={args.seed}  env: "
              + " ".join(f"{k}={v}" for k, v in plain["env"].items()))
        print(f"   attempted={plain['attempted']} failed={plain['failed']}  "
              "gates: " + " ".join(f"{k}={'ok' if v else 'FAILED'}"
                                   for k, v in plain["gates"].items()))
        print(f"   {'end-to-end':<24} {'untraced':>12} {'traced':>12} "
              f"{'overhead':>9}  unit        n")
        for name, entry in plain["end_to_end"].items():
            with_trace = traced["end_to_end"][name]["value"]
            change = (with_trace - entry["value"]) / entry["value"] \
                if entry["value"] else 0.0
            print(f"   {name:<24} {entry['value']:>12.6g} {with_trace:>12.6g} "
                  f"{change:>+8.1%}  {entry['unit']:<10} {entry['samples']}")
        print(f"   {'per-layer (traced)':<36} {'value':>12}  {'unit':<8} "
              "should move  [timed call]")
        for name, entry in traced["per_layer"].items():
            call, moves, _ = layer_map[name]
            print(f"   {name:<36} {entry['value']:>12.6g}  {entry['unit']:<8} "
                  f"{moves}  [{call}]")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload is None:
        return run_all(args)
    return run_one(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    raise SystemExit(main())
