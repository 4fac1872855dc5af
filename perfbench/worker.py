"""One benchmark worker: a fresh, single-threaded interpreter running one workload.

    python3 perfbench/worker.py check   --workload W
    python3 perfbench/worker.py measure --workload W --seed S --seconds T
    python3 perfbench/worker.py trace   --workload W --seed S --seconds T

The worker calls ``gtcrystal.cli.main(argv)`` in a closed loop: one caller,
and the next op starts only after the previous one returns.  A pass runs
every op of the workload once, in an order drawn from the seed.  stdout and
stderr go to sinks that hash and count bytes and keep none of them, so the
worker's peak memory is the program's.  The last line of stdout is one JSON
object with the results; ``run.py`` turns it into metrics.

* ``check`` runs one pass with the output kept and checks every op against
  its recorded digest and the independent checks in ``workloads.py``.
* ``measure`` runs whole passes until ``--seconds`` have passed and at
  least ``workloads.TAIL_PASSES`` passes ran, checking each op's digest.
* ``trace`` alternates an untraced and a traced pass until ``--seconds``
  have passed, and reports the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import calibration
import probe
import tracer as tracing
import workloads

TRACE_DIR = os.path.join(probe.ROOT, ".perfbench")
# A calibration round runs after the first op that ends this long after the
# previous round, and at the start and end of each pass.
CALIBRATE_EVERY_S = 0.25


class HashSink:
    """Text stream that hashes and counts what is written and keeps none of it."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.nbytes = 0
        self.first_write: Optional[float] = None

    def write(self, text: str) -> int:
        data = text.encode()
        if data and self.first_write is None:
            self.first_write = time.perf_counter()
        self.hash.update(data)
        self.nbytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass

    def isatty(self) -> bool:
        return False


class KeepSink(HashSink):
    """HashSink that also keeps the text, for the independent output checks."""

    def __init__(self) -> None:
        super().__init__()
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return super().write(text)


@dataclass
class OpResult:
    op_index: int
    pass_index: int
    latency_s: float
    first_output_s: float
    nbytes: int
    digest: str
    calibration_s: float = 0.0
    witness: Optional[str] = None
    text: Optional[str] = field(default=None, repr=False)


def run_op(cli, op: workloads.Op, expected: dict[str, str], keep: bool = False) -> OpResult:
    """One closed-loop call of ``cli.main``, its latency and its checked output."""
    out = KeepSink() if keep else HashSink()
    err = KeepSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = cli.main(list(op.argv))
    except Exception as exc:  # a crashing op is a failed op, reported with its witness
        rc = repr(exc)
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    first = (out.first_write if out.first_write is not None else end) - start
    result = OpResult(-1, -1, end - start, first, out.nbytes, out.hash.hexdigest())
    if rc != 0:
        result.witness = f"exit code: expected 0, actual {rc!r}; stderr {''.join(err.parts)[:200]!r}"
    elif result.digest != expected.get(op.key):
        result.witness = f"stdout sha256: expected {expected.get(op.key)}, actual {result.digest}"
    if keep:
        result.text = "".join(out.parts)
    return result


def witness_line(op: workloads.Op, witness: str) -> str:
    return f"FAIL argv={list(op.argv)!r}: {witness}"


def run_pass(cli, ops, order, expected, pass_index, tracer=None) -> list[OpResult]:
    """Run ``ops`` in ``order``.  Each result carries the mean of the calibration
    rounds run just before and just after it."""
    results: list[OpResult] = []
    pending: list[OpResult] = []
    before = calibration.calibrate()
    since = time.perf_counter()
    for position, index in enumerate(order):
        if tracer is not None:
            tracer.begin_op(position)
        result = run_op(cli, ops[index], expected)
        if tracer is not None:
            tracer.end_op()
        result.op_index, result.pass_index = index, pass_index
        results.append(result)
        pending.append(result)
        if time.perf_counter() - since >= CALIBRATE_EVERY_S or position == len(order) - 1:
            after = calibration.calibrate()
            for done in pending:
                done.calibration_s = (before + after) / 2
            pending.clear()
            before, since = after, time.perf_counter()
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def do_check(cli, ops, expected) -> dict:
    witnesses = []
    for op in ops:
        result = run_op(cli, op, expected, keep=True)
        witness = result.witness or workloads.check_output(op, result.text)
        if witness:
            witnesses.append(witness_line(op, witness))
    return {"attempted": len(ops), "witnesses": witnesses}


def do_measure(cli, ops, expected, seed: int, seconds: float, min_passes: int) -> dict:
    rng = random.Random(seed)
    results: list[OpResult] = []
    start = time.perf_counter()
    pass_index = 0
    while pass_index < min_passes or time.perf_counter() - start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        results.extend(run_pass(cli, ops, order, expected, pass_index))
        pass_index += 1
    return {
        "ops": [[r.op_index, r.pass_index, r.latency_s, r.first_output_s, r.calibration_s] for r in results],
        "witnesses": [witness_line(ops[r.op_index], r.witness) for r in results if r.witness],
        "peak_rss_mb": peak_rss_mb(),
    }


def do_trace(cli, ops, expected, seed: int, seconds: float, workload: str) -> dict:
    rng = random.Random(seed)
    elements = sum(op.elements for op in ops)
    untraced_walls, traced_walls, passes = [], [], []
    results: list[OpResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        plain = run_pass(cli, ops, order, expected, len(passes))
        last = tracing.Tracer()
        last.install()
        try:
            traced = run_pass(cli, ops, order, expected, len(passes), last)
        finally:
            last.uninstall()
        results += plain + traced
        untraced_walls.append(sum(r.latency_s for r in plain))
        traced_walls.append(sum(r.latency_s for r in traced))
        passes.append(tracing.layer_metrics(last, elements, sum(r.nbytes for r in traced)))
    witnesses = [witness_line(ops[r.op_index], r.witness) for r in results if r.witness]
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name not in tracing.EXACT:
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            witnesses.append(f"FAIL {name} differs between traced passes: {values}")
        metrics[name] = values[0]
    metrics[tracing.OVERHEAD] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"trace-{workload}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, **last.dump()}, handle)
    return {"attempted": len(results), "witnesses": witnesses, "metrics": metrics, "passes": len(passes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    cli, _setup_s = probe.import_cli()
    ops = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    if args.mode == "check":
        result = do_check(cli, ops, expected)
    elif args.mode == "measure":
        result = do_measure(cli, ops, expected, args.seed, args.seconds, workloads.TAIL_PASSES[args.workload])
    else:
        result = do_trace(cli, ops, expected, args.seed, args.seconds, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
