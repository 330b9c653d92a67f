#!/usr/bin/env python3
"""The repository's benchmark: one command, closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-keys --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload and then replays its timed phase through each layer's public entry
points with spans around every call, and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json`` at the root of the
checkout.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation succeeded and
every answer passed the oracle.  ``perfbench/layers.json`` records what each
metric means, the layer -> metric -> workload map and every program surface
the benchmark drives.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Per-run scratch directories (removed when the run ends) and trace output.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

from common import Result, cpu_times, steal_share  # noqa: E402
from workloads import RESTORE_TRIALS, SETUP_TRIALS, WORKLOADS, generate, warm_fill  # noqa: E402


def _units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-trial", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_trial(workload_name: str, seed: int) -> int:
    """Child-process entry: one in-process set-up, timed from the import."""
    import inproc

    workload = WORKLOADS[workload_name]
    _, _, setup_s, _ = inproc.setup(workload, seed, warm_fill(workload, seed))
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _child_setups(args: argparse.Namespace, trials: int) -> List[float]:
    """Set-up times of ``trials`` fresh processes, one after another."""
    times = []
    for _ in range(trials):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-trial",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up trial failed: {completed.stderr.strip()[-500:]}")
        times.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _report(args: argparse.Namespace, digest: str, result: Result, metrics: Dict[str, float],
            units: Dict[str, str]) -> int:
    if sorted(metrics) != sorted(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}")
    failed = len(result.problems)
    for problem in result.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"workload      {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"inputs        sha256 {digest}")
    for note in result.notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:<24}{metrics[name]:>16.6g} {unit}")
    print(f"ops           attempted {result.attempted}  failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, result.attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_trial:
        return _setup_trial(args.workload, args.seed)
    import served

    # Any checkout's daemons count: they would compete for the same cores.
    leftovers = served.leftover_processes(os.sep + os.path.basename(TMP_ROOT) + os.sep)
    if leftovers:
        print(f"error: processes from an earlier run are still alive: {leftovers}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=TMP_ROOT)
    host_before = cpu_times()
    try:
        inputs = generate(workload, args.seed, args.seconds)
        # Free the generator's garbage now rather than inside the timed phase.
        gc.collect()
        import inproc

        others = [] if args.trace else _child_setups(args, SETUP_TRIALS - 1)
        result = inproc.run(workload, inputs, args.seed, args.seconds, tmp, others,
                            trials=1 if args.trace else RESTORE_TRIALS, restore=not args.trace)
        result.notes.append(
            f"timed phase   {result.records} records in {result.wall:.3f} s of ingest and query"
            f" calls, {result.consumed} ingest calls, {result.query_samples} query samples"
        )
        # A busy host slows every timing of a run together; this shows it.
        result.notes.append(f"host steal    {steal_share(host_before, cpu_times()):.2%} of CPU time during the run")
        for label, times in (("setup", result.setup_times), ("checkpoint", result.checkpoint_times),
                             ("restore", result.restore_times)):
            if times:
                result.notes.append(f"{label} trials  " + ", ".join(f"{t:.4f}" for t in times) + " s")
        if not args.trace:
            return _report(args, inputs.digest, result, result.metrics, _units("end_to_end"))
        import tracing

        os.makedirs(OUT_ROOT, exist_ok=True)
        trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = tracing.run(workload, inputs, result, tmp, trace_path)
        result.notes.append(f"spans         {trace_path}")
        return _report(args, inputs.digest, result, metrics, _units("per_layer"))
    finally:
        served.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
