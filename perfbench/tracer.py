"""Per-layer tracing of gtcrystal from outside the package.

``Tracer.install`` wraps the public functions and public methods of the
modules ``core``, ``gtpattern``, ``ssyt``, ``bijection``, ``crystal`` and
``cli``, and rebinds every gtcrystal namespace that bound one of them, so
that calls made through ``from .x import f`` names are traced too.
``uninstall`` restores the originals.

Each wrapped call is a span with a name, start, end, parent and op id.  A
span's self time is its duration minus the durations of its direct child
spans.  Calls are aggregated per (name, parent name); whole-crystal calls
(``SPANS``) are also kept one by one.  The two accessors called millions of
times per pass (``COUNT_ONLY``) are only counted, so their time stays in
their caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from collections import Counter
from typing import Any, Callable, Iterator, Optional

MODULES = ("core", "gtpattern", "ssyt", "bijection", "crystal", "cli")

COUNT_ONLY = frozenset({"gtpattern.GTPattern.entry", "ssyt.Tableau.cell"})

SPANS = frozenset(
    {
        "core.partitions_up_to",
        "core.weyl_dimension",
        "gtpattern.enumerate_patterns",
        "ssyt.enumerate_tableaux",
        "crystal.pattern_model",
        "crystal.tableau_model",
        "crystal.build_graph",
        "crystal.build_graph_from_sources",
        "crystal.CrystalGraph.to_dict",
        "crystal.verify_axioms",
        "crystal.verify_isomorphism",
        "crystal.highest_weight_elements",
        "crystal.connectivity",
    }
)

GROUPS = {
    "gtpattern.GTPattern.entry": "entry",
    "gtpattern.sum_a": "sums",
    "gtpattern.sum_b": "sums",
    "gtpattern.diamond_a": "sums",
    "gtpattern.diamond_b": "sums",
    "gtpattern.phi_gtp": "phi_eps",
    "gtpattern.epsilon_gtp": "phi_eps",
    "gtpattern.lower_gtp": "ops",
    "gtpattern.raise_gtp": "ops",
    "gtpattern.validate_pattern": "validate",
    "gtpattern.enumerate_patterns": "enumerate",
    "ssyt.far_east_reading": "reading",
    "ssyt.bracket_word": "bracket",
    "ssyt.match_positions": "bracket",
    "ssyt.Bracketing.uncrossed": "bracket",
    "ssyt.phi_ssyt": "phi_eps",
    "ssyt.epsilon_ssyt": "phi_eps",
    "ssyt.lower_ssyt": "ops",
    "ssyt.raise_ssyt": "ops",
    "ssyt.validate_tableau": "validate",
    "ssyt.enumerate_tableaux": "enumerate",
    "bijection.pattern_to_tableau": "to_tableau",
    "bijection.tableau_to_pattern": "to_pattern",
    "core.skew_cells": "skew_cells",
    "core.as_partition": "as_partition",
    "core.weyl_dimension": "weyl_dimension",
    "crystal.CrystalModel.canonical_key": "key",
    "crystal.verify_axioms": "axioms",
    "crystal.verify_isomorphism": "iso",
    "crystal.build_graph": "graph",
    "crystal.build_graph_from_sources": "graph",
    "crystal.CrystalGraph.to_dict": "graph",
    "crystal.connectivity": "connectivity",
    "crystal.highest_weight_elements": "hw",
    "cli.verify_shape": "verify_shape",
}

# Pattern operator results that are not None are the "operator images" of
# gtpattern.validate.per_op.
IMAGE_COUNTED = frozenset({"gtpattern.lower_gtp", "gtpattern.raise_gtp"})
MODEL_FACTORIES = frozenset({"crystal.pattern_model", "crystal.tableau_model"})
MODEL_OPERATORS = ("phi", "epsilon", "lower", "raise_")


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith("cli.cmd_"):
        return "render"
    return "other"


def public_functions(module: types.ModuleType) -> Iterator[tuple[str, Optional[type], str, Callable]]:
    """(traced name, owning class or None, attribute, function) for each public function
    and public method defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield f"{short}.{attr}", None, attr, value
        elif isinstance(value, type) and not issubclass(value, BaseException):
            for member_name, member in list(vars(value).items()):
                if not member_name.startswith("_") and isinstance(member, types.FunctionType):
                    yield f"{short}.{value.__name__}.{member_name}", value, member_name, member


class Tracer:
    """Spans and counts for one traced pass; create one per pass."""

    def __init__(self) -> None:
        self.originals: dict[str, Callable] = {}
        self.counts: Counter[str] = Counter()
        self.aggregates: dict[tuple[str, Optional[str]], list] = {}
        self.spans: list[tuple] = []
        self.errors: Counter[str] = Counter()
        self.images = 0
        self.model_calls = 0
        self.distinct_model_calls = 0
        self.op_id: Optional[int] = None
        self._distinct: set = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # --- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules (they must be imported)."""
        namespaces = [
            vars(module)
            for name, module in list(sys.modules.items())
            if name == "gtcrystal" or name.startswith("gtcrystal.")
        ]
        for short in MODULES:
            module = sys.modules[f"gtcrystal.{short}"]
            for name, owner, attr, fn in public_functions(module):
                self.originals[name] = fn
                wrapped = self._wrap(name, short, fn)
                if owner is not None:
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
                    continue
                for namespace in namespaces:
                    for bound, value in list(namespace.items()):
                        if value is fn:
                            self._undo.append((namespace, bound, fn))
                            namespace[bound] = wrapped

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, module: str, fn: Callable) -> Callable:
        if name in COUNT_ONLY:
            return self._counter(name, module, fn)
        inner = fn
        if name in IMAGE_COUNTED:
            inner = self._image_counter(fn)
        elif name in MODEL_FACTORIES:
            inner = self._model_counter(fn)
        return self._timed(name, module, inner, fn, name in SPANS)

    def _counter(self, name: str, module: str, fn: Callable) -> Callable:
        counts = self.counts
        errors = self.errors

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise

        return counted

    def _timed(self, name: str, module: str, fn: Callable, original: Callable, store: bool) -> Callable:
        stack = self._stack
        aggregates = self.aggregates
        spans = self.spans
        errors = self.errors
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if store:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent[3] if parent else 0
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s = duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                key = (name, parent[0] if parent else None)
                row = aggregates.get(key)
                if row is None:
                    aggregates[key] = [1, duration, self_s]
                else:
                    row[0] += 1
                    row[1] += duration
                    row[2] += self_s
                if store:
                    spans.append((span_id, name, frame[1], end, parent[3] if parent else 0, tracer.op_id))

        return traced

    def _image_counter(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            image = fn(*args, **kwargs)
            if image is not None:
                self.images += 1
            return image

        return counted

    def _model_counter(self, factory: Callable) -> Callable:
        """Count calls to a model's operators and string lengths, and the distinct
        (function, element, label) triples among them."""

        def operator(kind: str, fn: Callable) -> Callable:
            def counted(element, i):
                self.model_calls += 1
                self._distinct.add((kind, element, i))
                return fn(element, i)

            return counted

        def build(*args, **kwargs):
            model = factory(*args, **kwargs)
            return dataclasses.replace(
                model,
                **{op: operator(f"{model.name}.{op}", getattr(model, op)) for op in MODEL_OPERATORS},
            )

        return build

    # --- ops ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._distinct.clear()

    def end_op(self) -> None:
        self.distinct_model_calls += len(self._distinct)
        self._distinct.clear()

    # --- results ------------------------------------------------------

    def calls(self) -> Counter[str]:
        """Call count of every wrapped function."""
        out: Counter[str] = Counter({name: 0 for name in self.originals})
        out.update(self.counts)
        for (name, _parent), row in self.aggregates.items():
            out[name] += row[0]
        return out

    def self_times(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for (name, _parent), row in self.aggregates.items():
            out[name] += row[2]
        return out

    def dump(self) -> dict[str, Any]:
        """Spans and aggregates as plain data, for writing out when the run ends."""
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "aggregate_fields": ["name", "parent", "calls", "total_s", "self_s"],
            "aggregates": [[name, parent, *row] for (name, parent), row in self.aggregates.items()],
            "counted": dict(self.counts),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit); the order is the order of the printed table.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("gtpattern.entry.calls", "count"),
    ("gtpattern.sums.calls", "count"),
    ("gtpattern.sums.self_s", "s"),
    ("gtpattern.phi_eps.calls", "count"),
    ("gtpattern.phi_eps.self_s", "s"),
    ("gtpattern.ops.calls", "count"),
    ("gtpattern.ops.self_s", "s"),
    ("gtpattern.validate.calls", "count"),
    ("gtpattern.validate.self_s", "s"),
    ("gtpattern.validate.per_op", "ratio"),
    ("gtpattern.enumerate.self_s", "s"),
    ("gtpattern.self_s", "s"),
    ("gtpattern.errors", "count"),
    ("ssyt.reading.calls", "count"),
    ("ssyt.reading.self_s", "s"),
    ("ssyt.reading.per_query", "ratio"),
    ("ssyt.bracket.self_s", "s"),
    ("ssyt.phi_eps.calls", "count"),
    ("ssyt.phi_eps.self_s", "s"),
    ("ssyt.ops.calls", "count"),
    ("ssyt.ops.self_s", "s"),
    ("ssyt.validate.calls", "count"),
    ("ssyt.validate.self_s", "s"),
    ("ssyt.enumerate.self_s", "s"),
    ("ssyt.self_s", "s"),
    ("ssyt.errors", "count"),
    ("bijection.to_tableau.calls", "count"),
    ("bijection.to_tableau.self_s", "s"),
    ("bijection.to_pattern.calls", "count"),
    ("bijection.to_pattern.self_s", "s"),
    ("bijection.self_s", "s"),
    ("bijection.errors", "count"),
    ("core.skew_cells.calls", "count"),
    ("core.skew_cells.self_s", "s"),
    ("core.as_partition.calls", "count"),
    ("core.weyl_dimension.self_s", "s"),
    ("core.self_s", "s"),
    ("core.errors", "count"),
    ("crystal.key.calls", "count"),
    ("crystal.key.self_s", "s"),
    ("crystal.key.per_element", "ratio"),
    ("crystal.op.calls_per_distinct", "ratio"),
    ("crystal.axioms.self_s", "s"),
    ("crystal.iso.self_s", "s"),
    ("crystal.graph.self_s", "s"),
    ("crystal.connectivity.self_s", "s"),
    ("crystal.hw.self_s", "s"),
    ("crystal.self_s", "s"),
    ("crystal.errors", "count"),
    ("cli.verify_shape.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("cli.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)


OVERHEAD = "trace.overhead_ratio"
# Counts, byte counts and ratios of counts repeat exactly across passes and seeds.
EXACT = frozenset(name for name, unit in PER_LAYER if unit != "s" and name != OVERHEAD)


def layer_metrics(tracer: Tracer, elements: int, output_bytes: int) -> dict[str, float]:
    """Every ``PER_LAYER`` metric but ``OVERHEAD``, for one traced pass producing
    ``elements`` elements and ``output_bytes`` bytes of stdout."""
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    per_function_self = tracer.self_times()
    for name, count in tracer.calls().items():
        module = name.split(".", 1)[0]
        group = f"{module}.{group_of(name)}"
        calls[group] += count
        self_s[group] += per_function_self[name]
        self_s[module] += per_function_self[name]
    specials = {
        "gtpattern.validate.per_op": _ratio(calls["gtpattern.validate"], tracer.images),
        "ssyt.reading.per_query": _ratio(calls["ssyt.reading"], calls["ssyt.phi_eps"] + calls["ssyt.ops"]),
        "crystal.key.per_element": _ratio(calls["crystal.key"], elements),
        "crystal.op.calls_per_distinct": _ratio(tracer.model_calls, tracer.distinct_model_calls),
        "cli.output_bytes": output_bytes,
    }
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric == OVERHEAD:
            continue
        if metric in specials:
            out[metric] = specials[metric]
        elif metric.endswith(".errors"):
            out[metric] = tracer.errors[metric.split(".")[0]]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        else:
            out[metric] = self_s[metric[: -len(".self_s")]]
    return out
