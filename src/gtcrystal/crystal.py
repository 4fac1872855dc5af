"""Model-agnostic crystal contract and verification.

A model bundles the crystal data callables for one element type at a fixed
rank.  Elements are immutable, hashable values, named tuples with a type tag
(``GTPattern``, ``Tableau``), and are compared and hashed by value, in C.
The canonical key (``render_key``) is only the output form, stable across
models, runs and processes.

Every check is a ``verify_*`` function that takes what it reads and returns
its ``Report``; ``verify_shape``, the one verification engine, calls every
check of one shape.  The checks read evaluations (``evaluate``) by slot, so
they index lists and compare ints, and hash no element.  A value outside
the two element sets is kept only as an ``Outside`` witness, rendered and
compared but never passed to a model, to the bijection or to a letter
count.  Only ``verify_sources``, through ``highest_weight_elements``, reads
a model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import ne, neg, sub
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from . import bijection
from . import gtpattern as gtp
from . import ssyt
from .core import Linear, Partition, Weight, coroot_pairing, weyl_dimension


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
            "keys": [_render(e) for e in self.elements],
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


class Outside(NamedTuple):
    """An operator or bijection image outside an evaluation's elements, kept
    only for its witness: rendered and compared, never evaluated, mapped or
    counted.  A tuple, not an int, so it can never be read as a position,
    whatever value it holds."""

    element: Any


def _element(elements: Sequence[Any], slot: Any) -> Any:
    """The image a slot names: a member by its number, an ``Outside`` image, or None."""
    return elements[slot] if type(slot) is int else slot if slot is None else slot.element


class Evaluation(NamedTuple):
    """One model's crystal data over distinct elements, each value evaluated once.

    ``model`` is the model it was read from.  The elements are numbered
    0..N-1 in input order: ``elements``, ``weights`` and ``rows`` are lists
    by number, and ``index`` maps each element to its number.  The row of an
    element is a tuple over the labels 1..n-1 of ``(phi, epsilon, lower,
    raise)``, where each image is a slot (``slot``): the number of the
    member it equals, ``Outside`` for an image outside the set, or None.  So
    every check compares and indexes ints, and no element is hashed again.
    """

    model: CrystalModel
    elements: list[Any]
    weights: list[Weight]
    rows: list[tuple[tuple[int, int, Any, Any], ...]]
    index: dict[Any, int]

    def slot(self, image: Any) -> Any:
        """The number of an image among the elements, ``Outside(image)`` if it is none of them, None for None."""
        number = self.index.get(image)
        return Outside(image) if number is None and image is not None else number

    def element(self, slot: Any) -> Any:
        """The image a slot names: the inverse of ``slot``."""
        return _element(self.elements, slot)


def evaluate(model: CrystalModel, elements: Sequence[Any]) -> Evaluation:
    """The model's data on each element, in element and then label order:
    every weight first, then phi, epsilon, lower and raise per label.  The
    elements must be distinct; a repeat raises before the model is read.

    Each image is stored as its slot (``Evaluation.slot``), worked out in
    place: one ``index.get``, and ``Outside(image)`` only when that misses
    and the image is not None, so an operator value such as 0 is never read
    as a position."""
    elements = list(elements)
    index = {b: k for k, b in enumerate(elements)}
    if len(index) != len(elements):
        raise RuntimeError("elements are not distinct")
    evaluation = Evaluation(model, elements, [model.weight(b) for b in elements], [], index)
    get, phi, epsilon, lower, raise_ = index.get, model.phi, model.epsilon, model.lower, model.raise_
    for b in elements:
        row = []
        for i in model.labels:
            phi_i, eps_i, down, up = phi(b, i), epsilon(b, i), lower(b, i), raise_(b, i)
            slot_down, slot_up = get(down), get(up)
            if slot_down is None and down is not None:
                slot_down = Outside(down)
            if slot_up is None and up is not None:
                slot_up = Outside(up)
            row.append((phi_i, eps_i, slot_down, slot_up))
        evaluation.rows.append(tuple(row))
    return evaluation


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
    evaluation by number; the model is not called.  A rule that holds
    compares only ints and tuples: its witness is built only when it fails.
    """
    _model, elements, weights, rows, _index = evaluation
    report = Report()
    for b, (element, wt, row) in enumerate(zip(elements, weights, rows)):
        for i, (phi, eps, down, up) in enumerate(row, 1):
            pairing = coroot_pairing(wt, i)
            if phi - eps != pairing:
                report.add("pairing", (element,), i, f"phi - epsilon = {pairing}", f"{phi} - {eps}")
            if (down is None) != (phi == 0):
                report.add("lower-domain", (element,), i, f"image iff phi > 0 (phi = {phi})", down is not None)
            if down is not None:
                if type(down) is not int:
                    report.add(
                        "closure", (element, down.element), i, "lowering image inside the element set", "escaped"
                    )
                else:
                    down_phi, down_eps, _, back = rows[down][i - 1]
                    if back != b:
                        actual = evaluation.element(back)
                        report.add("inverse", (element, elements[down]), i, "raising inverts lowering", actual)
                    # The weight drops by the simple root: one less i, one more i + 1.
                    if weights[down] != (expected := (*wt[: i - 1], wt[i - 1] - 1, wt[i] + 1, *wt[i + 1 :])):
                        report.add("weight-step", (element, elements[down]), i, expected, weights[down])
                    if down_eps != eps + 1:
                        report.add("epsilon-step", (element, elements[down]), i, eps + 1, down_eps)
                    if down_phi != phi - 1:
                        report.add("phi-step", (element, elements[down]), i, phi - 1, down_phi)
            if (up is None) != (eps == 0):
                report.add("raise-domain", (element,), i, f"image iff epsilon > 0 (epsilon = {eps})", up is not None)
            if up is not None:
                if type(up) is not int:
                    report.add(
                        "closure", (element, up.element), i, "raising image inside the element set", "escaped"
                    )
                elif (back := rows[up][i - 1][2]) != b:
                    actual = evaluation.element(back)
                    report.add("inverse", (element, elements[up]), i, "lowering inverts raising", actual)
    return report


def verify_isomorphism(side_a: Evaluation, into: Sequence[Any], side_b: Evaluation) -> Report:
    """Check that a mapping is an isomorphism of crystals from the elements
    of ``side_a``, in input order, onto those of ``side_b``.

    ``into[k]`` is the slot in ``side_b`` (``Evaluation.slot``) of the image
    of element k of ``side_a``.  Verifies injectivity, surjectivity onto
    side b's elements and images inside them, preservation of weight and
    both string lengths, and that the mapping commutes with lowering and
    raising, with absent images matching absent images.  Every rule reads
    the two evaluations by number; neither model is called.  An image
    outside side b's elements is checked only for ``injective`` and
    ``into-target``, and an operator image that escapes side a is compared
    as its own ``Outside`` slot, so it matches no slot of side b.  A rule
    that holds compares only ints and tuples: its witness pair and the
    elements it names are read back from their slots only when it fails.
    """
    report = Report()
    seen = set()

    def pair(a: int, b: Any) -> tuple[Any, Any]:
        """The witness of a rule broken at element a: it and its image."""
        return side_a.elements[a], side_b.element(b)

    for a, (weight_a, row_a, b) in enumerate(zip(side_a.weights, side_a.rows, into)):
        if b in seen:
            report.add("injective", pair(a, b), None, "distinct images", "duplicate image")
        seen.add(b)
        if type(b) is not int:
            continue
        if weight_a != (weight_b := side_b.weights[b]):
            report.add("weight", pair(a, b), None, weight_a, weight_b)
        for i, ((phi_a, eps_a, down, up), (phi_b, eps_b, down_b, up_b)) in enumerate(zip(row_a, side_b.rows[b]), 1):
            if phi_a != phi_b:
                report.add("phi", pair(a, b), i, phi_a, phi_b)
            if eps_a != eps_b:
                report.add("epsilon", pair(a, b), i, eps_a, eps_b)
            if (expected := into[down] if type(down) is int else down) != down_b:
                report.add("lower-intertwine", pair(a, b), i, side_b.element(expected), side_b.element(down_b))
            if (expected := into[up] if type(up) is int else up) != up_b:
                report.add("raise-intertwine", pair(a, b), i, side_b.element(expected), side_b.element(up_b))
    missed = [b for k, b in enumerate(side_b.elements) if k not in seen]
    for b in sorted(missed, key=_render):
        report.add("surjective", (b,), None, "covered by the mapping", "not hit")
    for b in sorted((side_b.element(b) for b in seen if type(b) is not int), key=_render):
        report.add("into-target", (b,), None, "image inside the target set", "outside")
    return report


def highest_weight_elements(model: CrystalModel, elements: Iterable[Any]) -> list[Any]:
    """Elements with every raising length zero, in input order, read from the
    model: this read keeps ``perfbench``'s pin that a verify op queries the
    model more than once per (element, label) until the benchmark counts
    evaluations (ROADMAP item 1)."""
    return [e for e in elements if all(model.epsilon(e, i) == 0 for i in model.labels)]


def connectivity(evaluation: Evaluation) -> int:
    """Number of weakly connected components of the lowering edges inside the
    elements of ``evaluation``, merged with a union-find over the numbered
    lower image in each row; the model is not called.  An image outside the
    set is ignored; the ``closure`` rule of ``verify_axioms`` reports it."""
    parent = list(range(len(evaluation.rows)))

    def find(b: int) -> int:
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        return b

    components = len(parent)
    for b, row in enumerate(evaluation.rows):
        top = find(b)  # stays a root: each merge hangs the other root below it
        for _phi, _eps, down, _up in row:
            if type(down) is int and (root := find(down)) != top:
                parent[root] = top
                components -= 1
    return components


def verify_sources(evaluation: Evaluation) -> Report:
    """Check that the lowering edges join the elements into one component with one source."""
    components = connectivity(evaluation)
    sources = highest_weight_elements(evaluation.model, evaluation.elements)
    report = Report()
    if components != 1 or len(sources) != 1:
        actual = f"{components} component(s) with {len(sources)} source(s)"
        # A broken epsilon can make every element a source: name at most WITNESS_LIMIT.
        report.add("connected-unique-source", tuple(sources[:WITNESS_LIMIT]), None, "1 component with 1 source", actual)
    return report


def verify_dimension(n: int, lam: Partition, patterns: Sequence[gtp.GTPattern]) -> Report:
    """Check that the patterns number the Weyl dimension of ``lam`` at rank n; a miss names both counts."""
    report = Report()
    if len(patterns) != (expected := weyl_dimension(n, lam)):
        report.add("dimension", (), None, expected, len(patterns))
    return report


def verify_round_trip(
    patterns: Sequence[gtp.GTPattern], tableaux: Sequence[ssyt.Tableau], into: Sequence[Any], back: Sequence[Any]
) -> Report:
    """Check that the bijection and its inverse undo each other; a miss names the image and what came back.

    ``into[k]`` is the slot among the tableaux (``Evaluation.slot``) of the
    image of pattern k, and ``back[j]`` that among the patterns of the
    preimage of tableau j, so each round trip compares two slots.  One that
    leaves the two sets is not followed: a pattern whose image is outside
    the tableaux fails ``into-target`` of ``verify_isomorphism``, and a
    tableau whose preimage is outside the patterns fails here when some
    pattern maps to it, and ``surjective`` there when none does.
    """
    report = Report()
    for k, (p, j) in enumerate(zip(patterns, into)):
        if type(j) is int and back[j] != k:
            report.add("round-trip", (p, tableaux[j]), None, p, _element(patterns, back[j]))
    for j, (t, k) in enumerate(zip(tableaux, back)):
        if type(k) is int and into[k] != j:
            report.add("round-trip", (t, patterns[k]), None, t, _element(tableaux, into[k]))
    return report


def _letter_counts(t: ssyt.Tableau) -> list[list[int]]:
    """c[letter][row]: multiplicity of the letter in that tableau row, read
    from the cells alone; letters and rows 0..n, 0 off the tableau."""
    c = [[0] * (t.n + 1) for _ in range(t.n + 1)]
    for r, row in enumerate(t.rows, 1):
        for x in row:
            c[x][r] += 1
    return c


def _letter_count_table(p: gtp.GTPattern) -> list[list[Any]]:
    """``bijection.letter_count_in_row`` of each letter and row 1..n in the layout of ``_letter_counts``."""
    n = p.n
    return [[0] * (n + 1)] + [
        [0] + [bijection.letter_count_in_row(p, i, k) for k in range(1, n + 1)] for i in range(1, n + 1)
    ]


def _row_differences(p: gtp.GTPattern) -> list[list[Any]]:
    """x_(i,k) - x_(i-1,k) for each letter i and row k = 1..n, read off the
    rows at once, in the layout of ``_letter_counts``: on a proved rank, the
    letter-count table of ``_letter_count_table``."""
    n = p.n
    padded = [(0,) * n] + [row + (0,) * (n - len(row)) for row in reversed(p.rows)]
    return [[0] * (n + 1)] + [[0, *map(sub, high, low)] for low, high in zip(padded, padded[1:])]


def _fills_rows(p: gtp.GTPattern, t: ssyt.Tableau) -> bool:
    """Whether row k of t is, left to right, x_(i,k) - x_(i-1,k) letters i
    for i = k..n, the entries x read straight off the pattern's rows.

    Level i's entry in column k ends the run of letter i, so the runs tile
    the row from 0 to x_(n,k), and one pass over the cells compares each
    with the letter of its run; a column of the pattern past t's last row
    must be all 0.  So a match implies
    ``_letter_counts(t) == _row_differences(p)``, with neither table built.
    An unsorted, short or overlong row, a negative layer (a run that would
    end before it starts), or more than n rows is no match.
    """
    n, levels, rows = p.n, p.rows, t.rows
    m = len(rows)
    if m > n or m < n and any([any(level[m:]) for level in levels[: n - m]]):
        return False
    for k, row in enumerate(rows, 1):
        cells = iter(row)
        start = 0
        for i, level in enumerate(levels[n - k :: -1], k):
            end = level[k - 1]
            if end < start:
                return False
            while start < end:
                if next(cells, None) != i:
                    return False
                start += 1
        if start != len(row):
            return False
    return True


def _gaps(p: gtp.GTPattern) -> list[tuple[Any, Any]]:
    """The interleaving gaps (x_(i+1,1) - x_(i,1), x_(i,i) - x_(i+1,i+1)) of
    levels i = 1..n-1, read off the rows: a_0 and b_(i+1) at level i are
    their negatives."""
    rows = p.rows
    return [(up[0] - mid[0], mid[-1] - up[-1]) for up, mid in zip(rows[-2::-1], rows[:0:-1])]


def _walk(p: gtp.GTPattern, c: list[list[Any]], differ: Callable[[Any, Any], bool]) -> tuple[int, int, list]:
    """(counting, algebraic, tops): the identities of one pattern against the letter counts c.

    Each of diamond_a, diamond_b, sum_a and sum_b is evaluated once per
    (level, index), each a literal sum of its own, read by list
    comprehensions (``map`` over Python functions enters the interpreter
    from C on every call), and compared with the letter counts
    c[letter][row] and their running sums over the rows, with each other and
    with the weight.  ``differ`` tells two values apart; each
    comparison over a level is one ``sum(map(differ, ...))`` over two
    sequences of the same length (in C for ``operator.ne``), the letter-count
    rows sliced to the indices the literal values were read at.  ``tops``
    holds (a_0, b_(i+1)) per level i, for the inequalities a_0 <= 0 and
    b_(i+1) <= 0.
    """
    # head[x][j]: letters x in rows before j; tail[x][j]: letters x in rows j and after.
    head = [list(accumulate(counts, initial=0)) for counts in c]
    tail = [[h[-1] - s for s in h] for h in head]
    counting = algebraic = 0
    tops = []
    for i in range(1, p.n):
        # a[j] = a_j and big_a[j], big_b[j] = A_j, B_j from j = 0; b[j - 1] = b_j from j = 1.
        a = [gtp.diamond_a(p, i, j) for j in range(0, i + 1)]
        b = [gtp.diamond_b(p, i, j) for j in range(1, i + 2)]
        big_a = [gtp.sum_a(p, i, j) for j in range(0, i + 2)]
        big_b = [gtp.sum_b(p, i, j) for j in range(0, i + 2)]
        ci, cj = c[i], c[i + 1]  # letters i and i + 1
        counting += sum(map(differ, a, map(sub, ci[: i + 1], cj[1 : i + 2])))
        counting += sum(map(differ, b, map(sub, cj[1 : i + 2], ci[: i + 1])))
        ti, tj, hi, hj = tail[i], tail[i + 1], head[i], head[i + 1]
        counting += sum(map(differ, big_a, map(sub, ti[: i + 2], tj[1 : i + 3])))
        counting += sum(map(differ, big_b, map(sub, hj[1 : i + 3], hi[: i + 2])))
        algebraic += sum(map(differ, b, map(neg, a)))
        algebraic += sum(map(differ, map(sub, big_a, big_b), repeat(big_a[0])))
        algebraic += differ(-big_b[i + 1], big_a[0])
        tops.append((a[0], b[i]))
    first, a_form, b_form = gtp.weight_expressions(p)
    algebraic += len(a_form) != len(b_form) or any(map(differ, a_form, b_form))
    shifts = list(map(sub, a_form, first))
    algebraic += not shifts or any(map(differ, shifts, repeat(sum(first))))
    return counting, algebraic, tops


def _formally_differ(x: Any, y: Any) -> bool:
    """Whether x - y, a linear form or an integer, is not identically zero."""
    d = x - y
    return bool(d.terms) if isinstance(d, Linear) else d != 0


def _holds_formally(n: int) -> bool:
    """Whether the identity walk counts only the levels with a negative
    interleaving gap on every pattern of rank n whose tableau has the letter
    counts of ``letter_count_in_row``, and that table is ``_row_differences``.

    The walk runs once on the pattern whose entry (i, j) is the formal
    variable x_(i,j), against the formal letter counts; every identity must
    hold formally, a_0 and b_(i+1) must be the negated gaps of ``_gaps``,
    and the letter-count table must equal the row differences formally.
    The literal forms and ``_row_differences`` read only their arguments (a
    source rule in the tests), so on any pattern of rank n each value is the
    formal one evaluated there.  A form that branches on an entry's value
    raises ``TypeError`` from a formal entry, and nothing is proved.
    """
    x = gtp.GTPattern(n, tuple(tuple(Linear({(i, j): 1}) for j in range(1, i + 1)) for i in range(n, 0, -1)))
    try:
        table = _letter_count_table(x)
        counting, algebraic, tops = _walk(x, table, _formally_differ)
        signs = [-gap for pair in _gaps(x) for gap in pair]
        return (
            not counting
            and not algebraic
            and not any(map(_formally_differ, chain(*tops), signs))
            and not any(map(_formally_differ, chain(*table), chain(*_row_differences(x))))
        )
    except TypeError:
        return False


# A rank with fewer patterns than this in one call is walked pattern by
# pattern: below it, the one formal walk costs about as much as the walks it
# saves.  The crossover measured on a shared 2-vCPU Xeon (Python 3.11) is
# about 6 patterns at rank 3, 9 at ranks 5 and 6, 13 at rank 12 and 15 to 27
# at rank 20; the formal walk grows about as n^4 and one pattern's walk as n^3.
FORMAL_MIN_PATTERNS = 12


def verify_identities(
    patterns: Sequence[gtp.GTPattern], tableaux: Sequence[ssyt.Tableau], into: Sequence[Any]
) -> tuple[Report, Report]:
    """(counting, algebraic) reports on the diamond data of each pattern, as bare counts.

    ``into[k]`` is the slot among ``tableaux`` (``Evaluation.slot``) of the
    tableau of pattern k, so that tableau is ``tableaux[into[k]]``; a
    pattern whose slot is not a number is skipped, as its image fails
    ``into-target`` of ``verify_isomorphism``.  The counting identities
    compare the literal diamond values and partial sums of each (pattern,
    level, index) with the letter counts of the pattern's tableau; the
    algebraic identities compare the literal values with each other and
    with the weight, and count the levels where a_0 > 0 or b_(i+1) > 0.
    Once the tableau's letter counts c equal those of
    ``bijection.letter_count_in_row``, every one of these is linear in the
    pattern entries.  So each rank with at least ``FORMAL_MIN_PATTERNS``
    patterns is checked once, on formal entries (``_holds_formally``), which
    also proves the letter-count table equal to the row differences
    x_(i,k) - x_(i-1,k).  Where that holds, each tableau row is walked
    once against the runs of letters the row differences give, read off the
    pattern's rows (``_fills_rows``): a match implies ``_letter_counts(t)
    == _row_differences(p)``, with neither table built.  The pattern then reads
    only its two interleaving gaps per level, since a_0 and b_(i+1) are
    proved to be the negated gaps of ``_gaps``.  The literal table and walk
    (``_walk``) run on every pattern of a rank that is not proved, or too
    small to prove, and on each pattern whose tableau rows do not match (an
    unsorted, short or overlong row, a negative layer), so every count is
    the one the walk gives.
    """
    counting = algebraic = 0
    ranks: dict[int, list[tuple[gtp.GTPattern, ssyt.Tableau]]] = {}
    for p, j in zip(patterns, into):
        if type(j) is int:
            ranks.setdefault(p.n, []).append((p, tableaux[j]))
    for n, group in ranks.items():
        proved = len(group) >= FORMAL_MIN_PATTERNS and _holds_formally(n)
        for p, t in group:
            if proved and _fills_rows(p, t):
                # The two end gaps of _gaps, level i + 1 above level i: a level counts where one is negative.
                for up, mid in zip(p.rows, p.rows[1:]):
                    if up[0] < mid[0] or mid[-1] < up[-1]:
                        algebraic += 1
                continue
            c = _letter_counts(t)
            table = _letter_count_table(p)
            counting += sum(sum(map(ne, table[i], c[i])) for i in range(1, n + 1))
            found_counting, found_algebraic, tops = _walk(p, c, ne)
            counting += found_counting
            algebraic += found_algebraic + sum(a0 > 0 or b_top > 0 for a0, b_top in tops)
    return Report(found=counting), Report(found=algebraic)


def verify_shape(n: int, lam: Partition) -> dict[str, Any]:
    """Run every check for one shape; returns the machine-readable record.

    Evaluates each model once and keeps each ``verify_*`` check's ``Report``
    under its name.  Each pattern is mapped to its tableau once, and each
    tableau back once, here and nowhere else; each image is looked up once,
    as its slot among the other side's elements, and every check reads it
    by position.
    """
    patterns = list(gtp.enumerate_patterns(n, lam))
    tableaux = list(ssyt.enumerate_tableaux(n, lam))
    # Each model is evaluated once for the checks that read it, and dropped
    # before the other checks run, so that it does not add to their peak memory.
    on_patterns, on_tableaux = evaluate(pattern_model(n), patterns), evaluate(tableau_model(n), tableaux)
    into = [on_tableaux.slot(bijection.pattern_to_tableau(p)) for p in patterns]
    checks = {
        "dimension": verify_dimension(n, lam, patterns),
        "axioms-patterns": verify_axioms(on_patterns),
        "axioms-tableaux": verify_axioms(on_tableaux),
        "isomorphism": verify_isomorphism(on_patterns, into, on_tableaux),
        "connected-unique-source": verify_sources(on_patterns),
    }
    back = [on_patterns.slot(bijection.tableau_to_pattern(t)) for t in tableaux]
    del on_patterns, on_tableaux
    checks["counting-identities"], checks["algebraic-identities"] = verify_identities(patterns, tableaux, into)
    checks["round-trip"] = verify_round_trip(patterns, tableaux, into, back)
    return {
        "n": n,
        "lambda": list(lam),
        "elements": len(patterns),
        "checks": {name: report.to_dict() for name, report in checks.items()},
        "pass": all(report.passed for report in checks.values()),
    }
