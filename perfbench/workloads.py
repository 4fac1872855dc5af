"""Workloads of the gtcrystal CLI benchmark, and the checks on their outputs.

An op is one ``gtcrystal.cli.main(argv)`` call.  Each workload is a fixed,
exhaustive list of ops; the seed only permutes their order within a pass.
Nothing here imports gtcrystal: the element counts and the output checks
are computed independently of the code under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def partitions(max_size: int, max_parts: int) -> list[tuple[int, ...]]:
    """Every partition with at most ``max_parts`` parts and at most ``max_size`` boxes."""

    def gen(remaining: int, bound: int, parts_left: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    return [lam for total in range(max_size + 1) for lam in gen(total, total, max_parts)]


def weyl_product(n: int, lam: tuple[int, ...]) -> int:
    """Number of patterns with top row ``lam``: prod over i < j of (l_i - l_j + j - i) / (j - i)."""
    padded = tuple(lam) + (0,) * (n - len(lam))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    if num % den:
        raise ValueError(f"Weyl product for n={n}, shape={lam} is not an integer")
    return num // den


@dataclass(frozen=True)
class Op:
    """One CLI call, the crystal it touches and the number of elements it produces."""

    argv: tuple[str, ...]
    n: int
    shape: tuple[int, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def elements(self) -> int:
        """Verify: the report's ``elements``; graph: the vertices; enumerate: the lines."""
        return weyl_product(self.n, self.shape)


def _op(command: str, n: int, shape: tuple[int, ...], *extra: str) -> Op:
    return Op((command, "-n", str(n), "-l", ",".join(map(str, shape)), *extra), n, shape)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "verify-sweep": tuple(_op("verify", 3, lam, "--json") for lam in partitions(12, 3)),
    "verify-large": (
        _op("verify", 5, (4, 3, 2, 1), "--json"),
        _op("verify", 6, (3, 2, 1), "--json"),
    ),
    "export": (
        _op("graph", 6, (4, 3, 2, 1), "--model", "ssyt", "--format", "json"),
        _op("enumerate", 6, (5, 3, 2, 1)),
        _op("enumerate", 6, (4, 3, 2, 1), "--model", "ssyt"),
    ),
}


# Each run makes at least this many whole passes, and takes the tail latency
# (the 11th-slowest op) over its last this many passes only.  A fixed sample
# count fixes the tail's percentile, so it falls on the same ops in every
# run: among the largest shapes for "verify-sweep", and on the middle one of
# the three ops of "export", whose latencies differ up to 7x.  "verify-large"
# needs 6 passes for 11 ops.  Runs stay under a minute on a 2-CPU machine.
TAIL_PASSES = {"verify-sweep": 3, "verify-large": 6, "export": 7}


def load_expected() -> dict[str, str]:
    """SHA-256 of each op's stdout, recorded from the seed code; keyed by ``Op.key``."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_output(op: Op, text: str) -> Optional[str]:
    """Independent checks of one op's stdout; returns a witness, or None when it passes."""
    want = op.elements
    try:
        if op.kind == "verify":
            report = json.loads(text)
            if report.get("pass") is not True:
                return f"pass: expected true, actual {report.get('pass')!r}"
            got = sum(shape["elements"] for shape in report["shapes"])
            if got != want:
                return f"elements: expected {want} (Weyl product), actual {got}"
        elif op.kind == "graph":
            graph = json.loads(text)
            keys = [vertex["key"] for vertex in graph["vertices"]]
            if len(keys) != want or len(set(keys)) != want:
                return f"vertices: expected {want} distinct (Weyl product), actual {len(set(keys))} of {len(keys)}"
            known = set(keys)
            for edge in graph["edges"]:
                for end in (edge["from"], edge["to"]):
                    if end not in known:
                        return f"edge endpoint: expected a vertex, actual {end!r} in {edge!r}"
        elif op.kind == "enumerate":
            lines = text.splitlines()
            if len(set(lines)) != len(lines):
                return f"lines: expected distinct, actual {len(lines) - len(set(lines))} repeated"
            if len(lines) != want:
                return f"lines: expected {want} (Weyl product), actual {len(lines)}"
        else:
            return f"unknown op kind {op.kind!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not parse: {exc!r}"
    return None
