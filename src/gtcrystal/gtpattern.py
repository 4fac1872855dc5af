"""Gelfand-Tsetlin patterns and their closed-form crystal data.

A pattern with n rows is a triangular array of non-negative integers where
row i has i entries and consecutive rows interleave.  The crystal data
(weight, string lengths, raising and lowering operators) are computed from
max-plus expressions in the pattern entries: signed sums around diamonds of
four adjacent entries, partial sums of those, and maxima of the partial sums.
One scan over three adjacent rows gives phi (the maximum of the partial sums
A_j), epsilon = phi - A_0 (as B_j = A_j - A_0) and both tie-broken indices;
``diamond_a``, ``diamond_b``, ``sum_a``, ``sum_b`` and ``weight_expressions``
keep the literal entry-by-entry forms as the reference.  Each literal call
sums its own diamonds, one ``_a`` or ``_b`` call per diamond added in a plain
``for`` loop (a generator under ``sum`` costs a frame resume per term), and
each diamond reads its four entries straight from the row tuples, with the
bound of ``entry`` written out on every term; the literal forms and the
kernel never call each other.  ``validate_pattern`` accepts a plain-typed
pattern in one walk and words any other input's first fault with ordered
scans.

Indexing convention used everywhere in this package: ``entry(i, j)`` is the
j-th entry of the row with i entries, both 1-based, and reads 0 whenever
(i, j) falls outside the triangle.  ``rows`` runs top-down from the n-entry
row, the JSON payload order of ``to_dict``/``from_dict``; ``bijection`` reads
and builds rows in that order too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Any, Iterator, Optional

from .core import (
    MAX_LEVELS,
    LabelError,
    Partition,
    ShapeError,
    Weight,
    as_partition,
    as_rows,
    pad,
    quote,
    require_positive,
)


class NonNegativityError(ValueError):
    """A pattern entry is negative."""


class InterleaveError(ValueError):
    """Two consecutive pattern rows fail to interleave."""

    def __init__(self, i: int, j: int, message: str):
        super().__init__(message)
        self.i = i
        self.j = j


@dataclass(frozen=True)
class GTPattern:
    """Immutable Gelfand-Tsetlin pattern; construct via ``validate_pattern``."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        """Entry j of row i (1-based); 0 outside the triangle 1 <= j <= i <= n."""
        if 1 <= j <= i <= self.n:
            return self.rows[self.n - i][j - 1]
        return 0

    @property
    def shape(self) -> Partition:
        """The fixed top row as a canonical partition, the shape of the tableau."""
        return as_partition(self.rows[0])

    def compact(self) -> str:
        """Single-line form, rows top-down and slash-separated, e.g. ``3,1,0/3,1/2``."""
        return "/".join(",".join(str(x) for x in row) for row in self.rows)

    def pretty(self) -> str:
        """Multi-line centered triangle, rows top-down."""
        width = max(len(str(x)) for row in self.rows for x in row)
        sep = " " * (width + 2)
        lines = []
        for k, row in enumerate(self.rows):
            indent = " " * (k * (width + 1))
            lines.append(indent + sep.join(str(x).rjust(width) for x in row))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GTPattern":
        if not isinstance(data, dict) or set(data) != {"n", "rows"}:
            raise ShapeError("pattern document must have exactly the keys 'n' and 'rows'")
        return validate_pattern(data["n"], data["rows"])


def _interleaving(n: int, rows: Any) -> bool:
    """Whether ``rows`` is a plain-typed pattern with ``n`` rows, in one walk over its entries.

    ``n`` is a positive integer and ``rows`` a list or tuple.  True when row
    k is a list or tuple of n - k plain ``int`` entries (not bools), the top
    row is non-negative and every lower entry lies between the two entries
    above it, which makes it non-negative too.  The type test comes first
    for each entry, so no entry of another type is ever compared.
    """
    if len(rows) != n:
        return False
    above = rows[0]
    if not isinstance(above, (list, tuple)) or len(above) != n:
        return False
    for x in above:
        if type(x) is not int or x < 0:
            return False
    for k in range(1, n):
        row = rows[k]
        if not isinstance(row, (list, tuple)) or len(row) != n - k:
            return False
        for mid, upper, lower in zip(row, above, above[1:]):
            if type(mid) is not int or mid > upper or mid < lower:
                return False
        above = row
    return True


def validate_pattern(n: int, rows: Any) -> GTPattern:
    """Validate a triangular array (rows top-down) and return the pattern.

    A plain-typed interleaving triangle is accepted in one walk
    (``_interleaving``), when ``n`` is a plain positive int and ``rows`` a
    list or tuple.  Any other input goes through the ordered scans, which
    accept what that walk accepts and an ``int`` subclass as n or as an
    entry, and otherwise word the first violation, scanning row pairs
    top-down and positions left to right: a malformed triangle raises
    ShapeError, a negative entry NonNegativityError, and a broken
    interleaving inequality InterleaveError carrying the (i, j) coordinates
    of the offending entry.  Both read the row tuples, where row k is level
    n - k; the pattern is built in the last statement, once every check has
    passed.
    """
    if type(n) is int and n > 0 and isinstance(rows, (list, tuple)) and _interleaving(n, rows):
        rows = tuple([tuple(row) for row in rows])
    else:
        require_positive(n, "row count")
        rows = as_rows(rows)
        if len(rows) != n:
            raise ShapeError(f"expected {n} rows, got {len(rows)}")
        for k, row in enumerate(rows):
            if len(row) != n - k:
                raise ShapeError(f"row with {n - k} slots has {len(row)} entries")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ShapeError(f"entries must be integers, got {quote(x)}")
        for k, row in enumerate(rows):
            for j, x in enumerate(row, start=1):
                if x < 0:
                    raise NonNegativityError(f"entry ({n - k},{j}) = {x} is negative")
        for k in range(1, n):
            i = n - k
            above = rows[k - 1]
            for j, (mid, upper, lower) in enumerate(zip(rows[k], above, above[1:]), start=1):
                if mid > upper:
                    raise InterleaveError(i, j, f"entry ({i},{j}) = {mid} exceeds entry ({i+1},{j}) = {upper}")
                if mid < lower:
                    raise InterleaveError(i, j, f"entry ({i},{j}) = {mid} is below entry ({i+1},{j+1}) = {lower}")
    return GTPattern(n, rows)


def _check_label(pattern: GTPattern, i: int) -> None:
    if not 1 <= i <= pattern.n - 1:
        raise LabelError(f"label {i} out of range 1..{pattern.n - 1}")


def _a(p: GTPattern, i: int, j: int) -> int:
    # entry(i,j) - entry(i-1,j) + entry(i,j+1) - entry(i+1,j+1) for 1 <= i <= n, read off the rows
    # (row k is level i) with entry()'s bound 1 <= column <= level <= n on each term; 0 for j > i.
    rows, n = p.rows, p.n
    k = n - i
    return (
        (rows[k][j - 1] if 1 <= j <= i else 0)
        - (rows[k + 1][j - 1] if 1 <= j <= i - 1 else 0)
        + (rows[k][j] if 1 <= j + 1 <= i else 0)
        - (rows[k - 1][j] if 1 <= j + 1 <= i + 1 <= n else 0)
    )


def _b(p: GTPattern, i: int, j: int) -> int:
    # -entry(i,j) + entry(i-1,j-1) - entry(i,j-1) + entry(i+1,j) for 1 <= i <= n, read the same
    # way; 0 for j > i + 1.
    rows, n = p.rows, p.n
    k = n - i
    return (
        -(rows[k][j - 1] if 1 <= j <= i else 0)
        + (rows[k + 1][j - 2] if 1 <= j - 1 <= i - 1 else 0)
        - (rows[k][j - 2] if 1 <= j - 1 <= i else 0)
        + (rows[k - 1][j - 1] if 1 <= j <= i + 1 <= n else 0)
    )


def diamond_a(pattern: GTPattern, i: int, j: int) -> int:
    """Diamond number a_j at level i: entry(i,j) - entry(i-1,j) + entry(i,j+1) - entry(i+1,j+1).

    Defined for 1 <= i <= n-1 and any j; entries outside the triangle read
    as 0, and the value is 0 for j > i.
    """
    _check_label(pattern, i)
    return _a(pattern, i, j)


def diamond_b(pattern: GTPattern, i: int, j: int) -> int:
    """Diamond number b_j at level i: -entry(i,j) + entry(i-1,j-1) - entry(i,j-1) + entry(i+1,j).

    Defined for 1 <= i <= n-1 and any j; the value is 0 for j > i + 1.
    Satisfies b_j = -a_{j-1} for 1 <= j <= i + 1.
    """
    _check_label(pattern, i)
    return _b(pattern, i, j)


def sum_a(pattern: GTPattern, i: int, j: int) -> int:
    """Partial diamond sum A_j at level i: sum of a_k for k from j to i.

    Domain 0 <= j <= i + 1; the sum at j = i + 1 is empty and equals 0.
    The diamonds are added one ``_a`` call at a time, in index order.
    """
    _check_label(pattern, i)
    if not 0 <= j <= i + 1:
        raise IndexError(f"start index {j} out of range 0..{i + 1}")
    total = 0
    for k in range(j, i + 1):
        total += _a(pattern, i, k)
    return total


def sum_b(pattern: GTPattern, i: int, j: int) -> int:
    """Partial diamond sum B_j at level i: sum of b_k for k from 1 to j.

    Domain 0 <= j <= i + 1; the sum at j = 0 is empty and equals 0.
    The diamonds are added one ``_b`` call at a time, in index order.
    """
    _check_label(pattern, i)
    if not 0 <= j <= i + 1:
        raise IndexError(f"end index {j} out of range 0..{i + 1}")
    total = 0
    for k in range(1, j + 1):
        total += _b(pattern, i, k)
    return total


def weight_gtp(pattern: GTPattern) -> Weight:
    """Weight of a pattern: coordinate j is the sum of row j minus the sum of row j-1.

    Coordinate j counts the letter j in the corresponding tableau, so the
    tuple is the canonical representative of the weight.
    """
    sums = [0] + [sum(row) for row in reversed(pattern.rows)]  # sums[j]: row j, bottom-up
    return tuple(sums[j] - sums[j - 1] for j in range(1, pattern.n + 1))


def weight_expressions(pattern: GTPattern) -> tuple[Weight, Weight, Weight]:
    """The weight computed three ways, as raw gl_n coordinate tuples.

    Returns (row-sum differences, A-form, B-form).  The A-form accumulates
    the full diamond sums A_0 at levels 1..n over fundamental-weight
    coordinates; the B-form does the same with -B_{i+1}.  The weight lattice
    is a quotient by the all-ones vector, so the A- and B-forms agree with
    the first tuple up to adding a constant to every coordinate (the
    constant is the pattern size); the A- and B-forms agree exactly.
    A_0 and B_{i+1} at each level are literal sums, one ``_a`` or ``_b``
    call per diamond; coordinate k of a form sums the levels k..n of them,
    one suffix slice each.
    """
    n = pattern.n
    first = weight_gtp(pattern)
    a0 = []
    b_top = []
    for i in range(1, n + 1):
        total = 0
        for k in range(0, i + 1):
            total += _a(pattern, i, k)
        a0.append(total)
        total = 0
        for k in range(1, i + 2):
            total += _b(pattern, i, k)
        b_top.append(total)
    # omega_i has coordinates 1 in positions 1..i, so coordinate k sums levels i >= k: a0[k - 1:].
    a_form = tuple(sum(a0[k - 1 :]) for k in range(1, n + 1))
    b_form = tuple(-sum(b_top[k - 1 :]) for k in range(1, n + 1))
    return first, a_form, b_form


def _scan(pattern: GTPattern, i: int) -> tuple[int, int, int, int]:
    """(phi, epsilon, lowering index, raising index) at level i.

    One pass over rows i+1, i and i-1 from j = i down to 1 accumulates
    A_j = A_{j+1} + a_j and keeps the maximum of A_1 .. A_i, its largest
    maximizer (the first reached, by ``>``) and its smallest (the last
    reached, by ``>=``).  Since b_j = -a_{j-1}, B_j = A_j - A_0 for every j,
    where A_0 = A_1 + entry(i,1) - entry(i+1,1): B_1 .. B_i peak at the same
    indices as A_1 .. A_i, and epsilon = phi - A_0.  A negative phi or
    epsilon contradicts interleaving and raises RuntimeError.
    """
    k = pattern.n - i
    up, mid = pattern.rows[k - 1], pattern.rows[k]
    low = pattern.rows[k + 1] if i > 1 else ()
    total = mid[i - 1] - up[i]
    best, lowering, raising = total, i, i
    for j in range(i - 1, 0, -1):
        total += mid[j - 1] - low[j - 1] + mid[j] - up[j]
        if total > best:
            best, lowering, raising = total, j, j
        elif total == best:
            raising = j
    if best < 0:
        raise RuntimeError(f"negative lowering string length {best} at level {i} indicates a bug")
    eps = best - total - mid[0] + up[0]
    if eps < 0:
        raise RuntimeError(f"negative raising string length {eps} at level {i} indicates a bug")
    return best, eps, lowering, raising


def phi_gtp(pattern: GTPattern, i: int) -> int:
    """Lowering string length: max of A_1 .. A_i at level i."""
    _check_label(pattern, i)
    return _scan(pattern, i)[0]


def epsilon_gtp(pattern: GTPattern, i: int) -> int:
    """Raising string length: max of B_1 .. B_i at level i, equal to phi - A_0."""
    _check_label(pattern, i)
    return _scan(pattern, i)[1]


def _with_entry_changed(pattern: GTPattern, i: int, j: int, delta: int) -> GTPattern:
    """The pattern with entry (i, j) moved by ``delta``, for 1 <= i <= n-1.

    Only the inequalities that contain entry (i, j) are rechecked: it stays
    non-negative, between entries (i+1, j+1) and (i+1, j) of the row above,
    and between entries (i-1, j) and (i-1, j-1) of the row below where those
    exist.  The unchanged rows are shared with ``pattern``.
    """
    k = pattern.n - i
    up, row = pattern.rows[k - 1], pattern.rows[k]
    value = row[j - 1] + delta
    problem = None
    if value < 0:
        problem = f"entry ({i},{j}) = {value} is negative"
    elif value > up[j - 1]:
        problem = f"entry ({i},{j}) = {value} exceeds entry ({i + 1},{j}) = {up[j - 1]}"
    elif value < up[j]:
        problem = f"entry ({i},{j}) = {value} is below entry ({i + 1},{j + 1}) = {up[j]}"
    elif i > 1:
        low = pattern.rows[k + 1]
        if j > 1 and value > low[j - 2]:
            problem = f"entry ({i},{j}) = {value} exceeds entry ({i - 1},{j - 1}) = {low[j - 2]}"
        elif j < i and value < low[j - 1]:
            problem = f"entry ({i},{j}) = {value} is below entry ({i - 1},{j}) = {low[j - 1]}"
    if problem is not None:
        operator = f"{'f' if delta < 0 else 'e'}_{i} on {pattern.compact()}"
        raise RuntimeError(f"crystal operator {operator} produced an invalid pattern at ({i},{j}): {problem}")
    rows = pattern.rows
    return GTPattern(pattern.n, rows[:k] + (row[: j - 1] + (value,) + row[j:],) + rows[k + 1 :])


def lower_gtp(pattern: GTPattern, i: int) -> Optional[GTPattern]:
    """Lowering operator: decrement entry (i, l) where l is the largest
    index in 1..i at which A_l attains the maximum; None when the string
    length is 0.  The result always interleaves, so a failed local check is
    an internal error."""
    _check_label(pattern, i)
    phi, _, ell, _ = _scan(pattern, i)
    if phi == 0:
        return None
    return _with_entry_changed(pattern, i, ell, -1)


def raise_gtp(pattern: GTPattern, i: int) -> Optional[GTPattern]:
    """Raising operator: increment entry (i, l) where l is the smallest
    index in 1..i at which B_l attains the maximum, which is the smallest
    maximizer of A_1 .. A_i; None when the string length is 0."""
    _check_label(pattern, i)
    _, eps, _, ell = _scan(pattern, i)
    if eps == 0:
        return None
    return _with_entry_changed(pattern, i, ell, +1)


def _rows_below(stack: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """``stack`` extended by each row that interleaves with its last row, in lexicographic order.

    Entry j of the new row ranges over the closed interval [upper[j+1],
    upper[j]] of the last row ``upper``, so no candidate is filtered out;
    ``zip`` wraps each row in the 1-tuple that ``stack.__add__`` appends.
    """
    upper = stack[-1]
    return map(stack.__add__, zip(product(*(range(low, high + 1) for low, high in zip(upper[1:], upper)))))


def enumerate_patterns(n: int, lam: Partition) -> Iterator[GTPattern]:
    """All patterns with n rows and top row ``lam``, each exactly once, lazily.

    Order: lexicographically increasing on the concatenation of rows read
    top-down, left-to-right.  The arguments are checked when the function is
    called, so a bad ``n`` or ``lam``, or ``n`` above ``core.MAX_LEVELS``,
    raises before any pattern is taken.  The returned iterator walks depth
    first, level by level down from the fixed top row (``_rows_below``), so
    it holds one partial pattern per level, never the list of all patterns;
    callers that need a sequence take ``list(...)``.
    """
    require_positive(n, "row count")
    if n > MAX_LEVELS:
        raise ShapeError(f"row count must be at most {MAX_LEVELS}, got {n}")
    stacks: Iterator[tuple[tuple[int, ...], ...]] = iter([(pad(lam, n),)])
    for _ in range(n - 1):
        stacks = chain.from_iterable(map(_rows_below, stacks))
    return map(partial(GTPattern, n), stacks)


def reduced_long_word(n: int) -> tuple[int, ...]:
    """The fixed reduced word (1, 2,1, 3,2,1, ..., n-1,...,1) for n letters."""
    word: list[int] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


def string_datum(pattern: GTPattern) -> dict[tuple[int, int], int]:
    """Closed-form string exponents {(i, j): d[i,j]} for 1 <= i < j <= n, in
    sorted (i, j) order: d[i,j] = sum over m = 1..j-i of (entry(j, m) -
    entry(j-1, m)), the boxes the prefix rows gain between levels j-1 and j,
    truncated at column j - i.

    Every value is non-negative because consecutive rows interleave; a
    negative one raises RuntimeError.
    """
    datum = {}
    for i in range(1, pattern.n + 1):
        for j in range(i + 1, pattern.n + 1):
            value = sum(pattern.entry(j, m) - pattern.entry(j - 1, m) for m in range(1, j - i + 1))
            if value < 0:
                raise RuntimeError(f"negative string exponent d[{i},{j}] = {value} indicates a bug")
            datum[i, j] = value
    return datum


def along_word(datum: dict[tuple[int, int], int], n: int) -> tuple[int, ...]:
    """The string exponents of an n-row pattern aligned with ``reduced_long_word(n)``.

    The word splits into blocks (k, k-1, ..., 1) for k = 1..n-1; the
    position carrying letter l within block k corresponds to the table
    entry (k+1-l, k+1).  Read along the word, the values are the exact
    numbers of times the raising operator with the letter's label applies
    maximally, left to right (confirmed by exhaustive iteration at desk
    scale; see the verification suite).
    """
    return tuple(datum[k + 1 - letter, k + 1] for k in range(1, n) for letter in range(k, 0, -1))
