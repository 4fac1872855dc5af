"""Model-agnostic crystal contract and verification.

A model bundles the crystal data callables for one element type at a fixed
rank.  Elements are frozen, hashable values and are compared, indexed and
deduplicated by value.  The canonical key (``render_key``: the JSON
serialization with sorted fields) is only the output form, stable across
models, runs and processes.  A violation keeps the elements and values it
found and renders them once, when its report is rendered; the CLI renders
the keys of the elements and graph vertices it prints.

``verify_shape`` is the one verification engine: it runs every check of one
shape, each into a ``Report``, and returns the record ``verify`` prints.
``evaluate`` reads a model once per element and once per (element, label)
and rejects repeated elements.  The checks take evaluations, not models,
and check every rule against their values; the one model read left in a
check is an image outside the target of ``verify_isomorphism``.  Apart from
``evaluate``, only ``highest_weight_elements`` reads a model here; verify
counts components from the evaluation, one lowering walk per model, and
``gtcrystal graph`` walks the lowering operator itself.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import ne, neg, sub
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import bijection
from . import gtpattern as gtp
from . import ssyt
from .core import Partition, Weight, coroot_pairing, weyl_dimension


def render_key(data: dict) -> str:
    """The canonical key of a serialized element: compact JSON with sorted fields."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CrystalModel:
    """Crystal data callables over one element type at rank n."""

    n: int
    name: str
    weight: Callable[[Any], Weight]
    phi: Callable[[Any, int], int]
    epsilon: Callable[[Any, int], int]
    lower: Callable[[Any, int], Optional[Any]]
    raise_: Callable[[Any, int], Optional[Any]]

    @property
    def labels(self) -> range:
        return range(1, self.n)


def pattern_model(n: int) -> CrystalModel:
    """The crystal model on Gelfand-Tsetlin patterns with n rows."""
    return CrystalModel(
        n=n,
        name="gtp",
        weight=gtp.weight_gtp,
        phi=gtp.phi_gtp,
        epsilon=gtp.epsilon_gtp,
        lower=gtp.lower_gtp,
        raise_=gtp.raise_gtp,
    )


def tableau_model(n: int) -> CrystalModel:
    """The crystal model on semistandard tableaux with letters in 1..n."""
    return CrystalModel(
        n=n,
        name="ssyt",
        weight=ssyt.weight_ssyt,
        phi=ssyt.phi_ssyt,
        epsilon=ssyt.epsilon_ssyt,
        lower=ssyt.lower_ssyt,
        raise_=ssyt.raise_ssyt,
    )


def _render(value: Any) -> str:
    """A witness value as report text: an element (anything with ``to_dict``)
    as its key, anything else (``None``, an int, a weight, a fixed string)
    with ``str``."""
    return render_key(value.to_dict()) if hasattr(value, "to_dict") else str(value)


@dataclass
class Violation:
    """One failed check: which rule, the elements involved, the label, and the
    expected and actual values, kept as values and rendered by ``to_dict``."""

    rule: str
    elements: tuple[Any, ...]
    label: Optional[int]
    expected: Any
    actual: Any

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "keys": [render_key(e.to_dict()) for e in self.elements],
            "label": self.label,
            "expected": _render(self.expected),
            "actual": _render(self.actual),
        }


WITNESS_LIMIT = 100


@dataclass
class Report:
    """Verification outcome: ``found`` counts every violation, the first
    ``WITNESS_LIMIT`` of them are kept as witnesses; passes exactly when none
    was found."""

    violations: list[Violation] = field(default_factory=list)
    found: int = 0

    @property
    def passed(self) -> bool:
        return not self.found

    def add(self, *args: Any) -> None:
        self.found += 1
        if len(self.violations) < WITNESS_LIMIT:
            self.violations.append(Violation(*args))

    def to_dict(self) -> dict[str, Any]:
        """The check as ``verify`` reports it: pass, the count of every
        violation found and, when witnesses were kept, their details."""
        record: dict[str, Any] = {"pass": self.passed, "violations": self.found}
        if self.violations:
            record["details"] = [v.to_dict() for v in self.violations]
        return record


class Evaluation(NamedTuple):
    """One model's crystal data over distinct elements, each value evaluated once.

    ``model`` is the model it was read from.  ``weights`` maps each element
    to its weight, and ``rows`` maps each element to a tuple over the labels
    1..n-1 of ``(phi, epsilon, lower, raise)``; both keep the elements in
    input order.  An image inside the set is the member it equals, so the
    rows hold no second copy of an element.
    """

    model: CrystalModel
    weights: dict[Any, Weight]
    rows: dict[Any, tuple[tuple[int, int, Optional[Any], Optional[Any]], ...]]


def evaluate(model: CrystalModel, elements: Sequence[Any]) -> Evaluation:
    """The model's data on each element, in element and then label order:
    every weight first, then phi, epsilon, lower and raise per label.  The
    elements must be distinct; a repeat raises before the model is read."""
    # Maps each element to the one copy every image in the set is interned to.
    members = {b: b for b in elements}
    if len(members) != len(elements):
        raise ValueError("elements are not distinct")
    weights = {b: model.weight(b) for b in members}
    rows = {}
    for b in members:
        row = []
        for i in model.labels:
            phi, eps, down, up = model.phi(b, i), model.epsilon(b, i), model.lower(b, i), model.raise_(b, i)
            row.append((phi, eps, members.get(down, down), members.get(up, up)))
        rows[b] = tuple(row)
    return Evaluation(model, weights, rows)


def verify_axioms(evaluation: Evaluation) -> Report:
    """Check the crystal axioms over the closed element set of ``evaluation``.

    For every element b and label i: lowering and raising are mutually
    inverse partial bijections; across a lowering edge the weight drops by
    the simple root, the raising length grows by 1 and the lowering length
    shrinks by 1; and phi - epsilon equals the coroot pairing of the weight.
    The string lengths are always plain integers here, so the unbounded case
    of the axioms is vacuous.  An operator image that escapes the element
    set is reported as a ``closure`` violation rather than raised, so
    mutated models can be diagnosed in full.  Every rule reads the
    evaluation; the model is not called.
    """
    _model, weights, rows = evaluation
    report = Report()
    for b, row in rows.items():
        wt = weights[b]
        for i, (phi, eps, down, up) in enumerate(row, 1):
            pairing = coroot_pairing(wt, i)
            if phi - eps != pairing:
                report.add("pairing", (b,), i, f"phi - epsilon = {pairing}", f"{phi} - {eps}")
            if (down is None) != (phi == 0):
                report.add("lower-domain", (b,), i, f"image iff phi > 0 (phi = {phi})", down is not None)
            if down is not None:
                if down not in rows:
                    report.add("closure", (b, down), i, "lowering image inside the element set", "escaped")
                else:
                    down_phi, down_eps, _, back = rows[down][i - 1]
                    if back != b:
                        report.add("inverse", (b, down), i, "raising inverts lowering", back)
                    expected_wt = [w - (k == i) + (k == i + 1) for k, w in enumerate(wt, 1)]
                    if list(weights[down]) != expected_wt:
                        report.add("weight-step", (b, down), i, tuple(expected_wt), weights[down])
                    if down_eps != eps + 1:
                        report.add("epsilon-step", (b, down), i, eps + 1, down_eps)
                    if down_phi != phi - 1:
                        report.add("phi-step", (b, down), i, phi - 1, down_phi)
            if (up is None) != (eps == 0):
                report.add("raise-domain", (b,), i, f"image iff epsilon > 0 (epsilon = {eps})", up is not None)
            if up is not None:
                if up not in rows:
                    report.add("closure", (b, up), i, "raising image inside the element set", "escaped")
                elif rows[up][i - 1][2] != b:
                    report.add("inverse", (b, up), i, "lowering inverts raising", rows[up][i - 1][2])
    return report


def verify_isomorphism(side_a: Evaluation, mapping: Callable[[Any], Any], side_b: Evaluation) -> Report:
    """Check that ``mapping`` is an isomorphism of crystals from the elements
    of ``side_a``, in input order, onto those of ``side_b``.

    Verifies injectivity, surjectivity onto side b's elements and images
    inside them, preservation of weight and both string lengths, and that
    the mapping commutes with lowering and raising, with absent images
    matching absent images.  Every rule reads the two evaluations; only an
    image outside side b's elements is evaluated, with side b's model, where
    it is met.
    """
    report = Report()
    seen_images = set()
    for a in side_a.rows:
        b = mapping(a)
        if b in seen_images:
            report.add("injective", (a, b), None, "distinct images", "duplicate image")
        seen_images.add(b)
        side = side_b if b in side_b.rows else evaluate(side_b.model, [b])
        weight_a, weight_b = side_a.weights[a], side.weights[b]
        if weight_a != weight_b:
            report.add("weight", (a, b), None, weight_a, weight_b)
        for i, ((phi_a, eps_a, down, up), (phi_b, eps_b, down_b, up_b)) in enumerate(
            zip(side_a.rows[a], side.rows[b]), 1
        ):
            for rule, expected, actual in (
                ("phi", phi_a, phi_b),
                ("epsilon", eps_a, eps_b),
                ("lower-intertwine", None if down is None else mapping(down), down_b),
                ("raise-intertwine", None if up is None else mapping(up), up_b),
            ):
                if expected != actual:
                    report.add(rule, (a, b), i, expected, actual)
    target = side_b.rows.keys()
    for b in sorted(target - seen_images, key=_render):
        report.add("surjective", (b,), None, "covered by the mapping", "not hit")
    for b in sorted(seen_images - target, key=_render):
        report.add("into-target", (b,), None, "image inside the target set", "outside")
    return report


def highest_weight_elements(model: CrystalModel, elements: Sequence[Any]) -> list[Any]:
    """Elements with every raising length zero, in input order, read from the
    model: this read keeps ``perfbench``'s pin that a verify op queries the
    model more than once per (element, label) until the benchmark counts
    evaluations (ROADMAP item 1)."""
    return [e for e in elements if all(model.epsilon(e, i) == 0 for i in model.labels)]


def connectivity(evaluation: Evaluation) -> int:
    """Number of weakly connected components of the lowering edges inside the
    elements of ``evaluation``, merged with a union-find over the lower
    image in each row; the model is not called.  An image outside the set
    is ignored; the ``closure`` rule of ``verify_axioms`` reports it."""
    parent = {b: b for b in evaluation.rows}

    def find(b: Any) -> Any:
        while parent[b] is not b:
            parent[b] = b = parent[parent[b]]
        return b

    components = len(parent)
    for b, row in evaluation.rows.items():
        top = find(b)  # stays a root: each merge hangs the other root below it
        for _phi, _eps, down, _up in row:
            if down in parent and (root := find(down)) is not top:
                parent[root] = top
                components -= 1
    return components


def _letter_counts(t: ssyt.Tableau) -> list[list[int]]:
    """c[letter][row]: multiplicity of the letter in that tableau row, read
    from the cells alone; letters and rows 0..n, 0 off the tableau."""
    c = [[0] * (t.n + 1) for _ in range(t.n + 1)]
    for r, row in enumerate(t.rows, 1):
        for x in row:
            c[x][r] += 1
    return c


def _identity_checks(
    patterns: Sequence[gtp.GTPattern], image: Callable[[gtp.GTPattern], ssyt.Tableau]
) -> tuple[Report, Report]:
    """(counting, algebraic) reports on the diamond data of each pattern.

    Each of diamond_a, diamond_b, sum_a and sum_b is evaluated once per
    (pattern, level, index), each a literal sum of its own; no literal value
    is derived from another.  The counting identities compare those values
    with letter counts of the pattern's tableau, whose running sums over the
    rows are built once per pattern; the algebraic identities compare the
    literal values with each other and with the weight.  The literal values
    are read by list comprehensions (``map`` over these Python functions is
    slower, as each call then enters the interpreter from C).  Each
    comparison over a level is one ``sum(map(ne, ...))`` over two sequences
    of the same length, so it runs in C; the letter-count rows are sliced to
    the indices the literal values were read at.
    """
    counting = algebraic = 0
    for p in patterns:
        n = p.n
        c = _letter_counts(image(p))
        # head[x][j]: letters x in rows before j; tail[x][j]: letters x in rows j and after.
        head = [list(accumulate(counts, initial=0)) for counts in c]
        tail = [[h[-1] - s for s in h] for h in head]
        for i in range(1, n + 1):
            counts = [bijection.letter_count_in_row(p, i, k) for k in range(1, n + 1)]
            counting += sum(map(ne, counts, c[i][1:]))
        for i in range(1, n):
            # a[j] = a_j and big_a[j], big_b[j] = A_j, B_j from j = 0; b[j - 1] = b_j from j = 1.
            a = [gtp.diamond_a(p, i, j) for j in range(0, i + 1)]
            b = [gtp.diamond_b(p, i, j) for j in range(1, i + 2)]
            big_a = [gtp.sum_a(p, i, j) for j in range(0, i + 2)]
            big_b = [gtp.sum_b(p, i, j) for j in range(0, i + 2)]
            ci, cj = c[i], c[i + 1]  # letters i and i + 1
            counting += sum(map(ne, a, map(sub, ci[: i + 1], cj[1 : i + 2])))
            counting += sum(map(ne, b, map(sub, cj[1 : i + 2], ci[: i + 1])))
            ti, tj, hi, hj = tail[i], tail[i + 1], head[i], head[i + 1]
            counting += sum(map(ne, big_a, map(sub, ti[: i + 2], tj[1 : i + 3])))
            counting += sum(map(ne, big_b, map(sub, hj[1 : i + 3], hi[: i + 2])))
            algebraic += sum(map(ne, b, map(neg, a)))
            algebraic += a[0] > 0 or b[i] > 0
            algebraic += sum(map(ne, map(sub, big_a, big_b), repeat(big_a[0])))
            algebraic += -big_b[i + 1] != big_a[0]
        first, a_form, b_form = gtp.weight_expressions(p)
        algebraic += a_form != b_form
        shifts = set(map(sub, a_form, first))
        algebraic += len(shifts) != 1 or shifts != {sum(first)}
    return Report(found=counting), Report(found=algebraic)


def verify_shape(n: int, lam: Partition) -> dict[str, Any]:
    """Run every check for one shape; returns the machine-readable record.

    Every violation is added to its check's report with the elements and
    values it concerns, except the counting and algebraic identities, which
    are bare counts.
    """
    patterns = list(gtp.enumerate_patterns(n, lam))
    tableaux = list(ssyt.enumerate_tableaux(n, lam))
    pm = pattern_model(n)
    tm = tableau_model(n)

    # Each element is mapped through the bijection once, on first use.
    image = functools.cache(bijection.pattern_to_tableau)
    preimage = functools.cache(bijection.tableau_to_pattern)
    # Each model is evaluated once; the three checks over it and the
    # connectivity count read that evaluation.  It is dropped before the
    # other checks run, so that it does not add to their peak memory.
    on_patterns, on_tableaux = evaluate(pm, patterns), evaluate(tm, tableaux)
    dimension = Report()
    if len(patterns) != (expected := weyl_dimension(n, lam)):
        dimension.add("dimension", (), None, expected, len(patterns))
    checks = {
        "dimension": dimension,
        "axioms-patterns": verify_axioms(on_patterns),
        "axioms-tableaux": verify_axioms(on_tableaux),
        "isomorphism": verify_isomorphism(on_patterns, image, on_tableaux),
    }
    components = connectivity(on_patterns)
    del on_patterns, on_tableaux
    checks["counting-identities"], checks["algebraic-identities"] = _identity_checks(patterns, image)
    # An element that does not come back names its image and what it came back as.
    round_trip = checks["round-trip"] = Report()
    for p in patterns:
        if (back := preimage(image(p))) != p:
            round_trip.add("round-trip", (p, image(p)), None, p, back)
    for t in tableaux:
        if (back := image(preimage(t))) != t:
            round_trip.add("round-trip", (t, preimage(t)), None, t, back)
    sources = highest_weight_elements(pm, patterns)
    connected = checks["connected-unique-source"] = Report()
    if components != 1 or len(sources) != 1:
        actual = f"{components} component(s) with {len(sources)} source(s)"
        # A broken epsilon can make every element a source: name at most WITNESS_LIMIT.
        witness = tuple(sources[:WITNESS_LIMIT])
        connected.add("connected-unique-source", witness, None, "1 component with 1 source", actual)

    return {
        "n": n,
        "lambda": list(lam),
        "elements": len(patterns),
        "checks": {name: report.to_dict() for name, report in checks.items()},
        "pass": all(report.passed for report in checks.values()),
    }
