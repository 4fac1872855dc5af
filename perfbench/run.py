"""Benchmark of the gtcrystal CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every worker is a fresh interpreter that
imports gtcrystal from this checkout's ``src/``; workers run one at a time.
With ``--trace 0`` the run times set-up in ``SETUP_PROBES`` fresh
interpreters and measures for ``--seconds``, checking every op's stdout
digest.  With ``--trace 1`` it first runs the independent output checks
(``worker.py check``), then reports the per-layer metrics of traced passes.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibration
import probe
import tracer
import workloads

# Set-up is timed in this many fresh interpreters, half before and half after
# the measuring worker, so that one busy moment of the machine moves few of them.
SETUP_PROBES = 8
# Every run must end within 180 s; workers get what is left of this budget.
BUDGET_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerFailed(Exception):
    """A worker exited with an error or did not print a result."""


def run_worker(args: list[str], deadline: float) -> str:
    env = dict(os.environ, NO_COLOR="1")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, cwd=probe.ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{args[0]} timed out after {timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{' '.join(args)} exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def probe_setup(count: int, deadline: float) -> list[list[float]]:
    """[set-up seconds, calibration seconds] from ``count`` fresh interpreters."""
    probe_py = os.path.join(HERE, "probe.py")
    return [[float(x) for x in run_worker([probe_py], deadline).split()] for _ in range(count)]


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """SHA-256 over the package sources, naming the measured code where no commit is known."""
    digest = hashlib.sha256()
    package = os.path.join(src, "gtcrystal")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(
    measured: dict, ops: tuple[workloads.Op, ...], tail_passes: int, setup: list[list[float]]
) -> tuple[dict, dict]:
    """The end-to-end metrics, and a note on how each was taken.

    Times are in reference seconds (``calibration.py``); each note starts
    with the same statistic in wall seconds.
    """
    records = measured["ops"]  # [op index, pass index, latency, first output, calibration]
    by_pass: dict[int, list] = {}
    for record in records:
        by_pass.setdefault(record[1], []).append(record)
    elements = sum(op.elements for op in ops)
    tail_records = [r for r in records if r[1] > max(by_pass) - tail_passes]

    def timings(scale) -> dict[str, float]:
        latencies = [scale(r[2], r[4]) for r in records]
        return {
            "setup_s": statistics.median(scale(t, c) for t, c in setup),
            "elements_per_s": statistics.median(
                elements / sum(scale(r[2], r[4]) for r in rows) for rows in by_pass.values()
            ),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail([scale(r[2], r[4]) for r in tail_records])[0],
            "first_output_s": statistics.median(scale(r[3], r[4]) for r in records),
        }

    scaled = timings(calibration.scale)
    wall = timings(lambda seconds, _calibration_s: seconds)
    n = len(records)
    failed = len(measured["witnesses"])
    units = {"setup_s": "s", "elements_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "first_output_s": "s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    metrics["success_rate"] = (1.0 - failed / n, "ratio")
    notes = {name: f"wall {value:.6g};" for name, value in wall.items()}
    notes["setup_s"] += f" median of {len(setup)} fresh interpreters"
    notes["elements_per_s"] += f" median of {len(by_pass)} passes of {elements} elements"
    notes["op_p50_s"] += f" {n} ops"
    tail_pct = tail([r[2] for r in tail_records])[1]
    notes["op_tail_s"] += f" p{tail_pct:.1f} of the {len(tail_records)} ops of the last {tail_passes} passes"
    notes["first_output_s"] += f" median of {n} ops"
    notes["peak_rss_mb"] = "ru_maxrss of the measuring worker"
    notes["success_rate"] = f"error_rate = {failed / n:.6g} ({failed} of {n} ops failed)"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(probe.SRC, "gtcrystal", "cli.py")):
        print(f"refusing to run: no gtcrystal sources under {probe.SRC}", file=sys.stderr)
        return probe.EXIT_REFUSED
    ops = workloads.WORKLOADS[args.workload]
    worker = os.path.join(HERE, "worker.py")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" python={platform.python_version()} cpus={os.cpu_count()}"
        f" commit={git_commit(probe.ROOT)} src_sha256={source_digest(probe.SRC)}"
    )
    try:
        if args.trace:
            checked = json.loads(run_worker([worker, "check", *common], deadline))
            traced = json.loads(run_worker([worker, "trace", *common], deadline))
        else:
            setup = probe_setup(SETUP_PROBES // 2, deadline)
            measured = json.loads(run_worker([worker, "measure", *common], deadline))
            setup += probe_setup(SETUP_PROBES - SETUP_PROBES // 2, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        witnesses = checked["witnesses"] + traced["witnesses"]
        attempted = checked["attempted"] + traced["attempted"]
        units = dict(tracer.PER_LAYER)
        metrics = {name: (value, units[name]) for name, value in traced["metrics"].items()}
        notes = {name: "" for name in metrics}
        notes["trace.overhead_ratio"] = f"traced / untraced wall time, median of {traced['passes']} pass pairs"
    else:
        witnesses = measured["witnesses"]
        attempted = len(measured["ops"])
        metrics, notes = end_to_end(measured, ops, workloads.TAIL_PASSES[args.workload], setup)
    for line in witnesses[:20]:
        print(line)
    if len(witnesses) > 20:
        print(f"... {len(witnesses) - 20} more failures")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6g} {unit:<6} {notes[name]}")
    print(
        json.dumps(
            {
                "correct": not witnesses,
                "attempted": attempted,
                "failed": len(witnesses),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
