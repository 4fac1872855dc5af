"""Gelfand-Tsetlin patterns and their closed-form crystal data.

A pattern with n rows is a triangular array of non-negative integers where
row i has i entries and consecutive rows interleave.  The crystal data
(weight, string lengths, raising and lowering operators) are computed from
max-plus expressions in the pattern entries: signed sums around diamonds of
four adjacent entries, partial sums of those, and maxima of the partial sums.
One scan over three adjacent rows gives phi (the maximum of the partial sums
A_j), epsilon = phi - A_0 (as B_j = A_j - A_0) and both tie-broken indices;
``diamond_a``, ``diamond_b``, ``sum_a``, ``sum_b`` and ``weight_expressions``
keep the literal entry-by-entry forms as the reference, written as the
paper writes them: each literal call sums its own diamonds, and each diamond
is its four ``entry`` reads, so the one bound of ``entry`` (0 outside the
triangle) covers every literal read.  The literal forms and the kernel never
call each other.  ``validate_pattern`` accepts a plain-typed
pattern in one walk and words any other input's first fault with ordered
scans.  It and the operators' one entry write (``_with_entry_changed``)
build their pattern with ``tuple.__new__``, in C, skipping the Python-level
``__new__`` that ``NamedTuple`` generates; ``enumerate_patterns`` builds
through the class name, so a patch of ``GTPattern`` sees each pattern it
makes.

Indexing convention used everywhere in this package: ``entry(i, j)`` is the
j-th entry of the row with i entries, both 1-based, and reads 0 whenever
(i, j) falls outside the triangle.  ``rows`` runs top-down from the n-entry
row, the JSON payload order of ``to_dict``/``from_dict``; ``bijection`` reads
and builds rows in that order too.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product
from operator import sub
from typing import Any, Iterator, NamedTuple, Optional

from .core import (
    MAX_LEVELS,
    Partition,
    ShapeError,
    Weight,
    as_partition,
    as_rows,
    pad,
    quote,
    require_enumerable,
    require_label,
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


class GTPattern(NamedTuple):
    """Immutable Gelfand-Tsetlin pattern; construct via ``validate_pattern``.

    A named tuple, not a frozen dataclass: ``crystal.evaluate`` numbers the
    elements and looks up every operator image by value, ``verify`` looks
    up each bijection image the same way, and ``gtcrystal graph`` keys its
    vertices by value.  A tuple hashes, compares and reads its fields in C,
    where the dataclass runs a Python ``__hash__`` or ``__eq__`` that
    re-hashes or re-compares every row.  The trailing tag ``kind`` keeps a
    pattern unequal to the ``Tableau`` with the same n and rows, and to a
    bare tuple of them; ``to_dict`` leaves it out.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    kind: str = "pattern"

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

    ``n`` is a positive integer.  True when ``rows`` is a list or tuple whose
    row k is a list or tuple of n - k plain ``int`` entries (not bools), the
    top row is non-negative and every lower entry lies between the two
    entries above it, which makes it non-negative too.  The type test comes
    first for each entry, so no entry of another type is ever compared.
    """
    if not isinstance(rows, (list, tuple)) or len(rows) != n:
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
    (``_interleaving``) when ``n`` is a plain positive int.  Any other input
    goes through the ordered scans, which accept what that walk accepts and
    an ``int`` subclass as n or as an entry, and otherwise word the first
    violation, scanning row pairs top-down and positions left to right: a
    malformed triangle raises ShapeError, a negative entry
    NonNegativityError, and a broken interleaving inequality InterleaveError
    carrying the (i, j) coordinates of the offending entry.  Both read the
    row tuples, where row k is level n - k; the pattern is built in the last
    statement, once every check has passed.
    """
    if type(n) is int and n > 0 and _interleaving(n, rows):
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
    return tuple.__new__(GTPattern, (n, rows, "pattern"))


def _a(p: GTPattern, i: int, j: int) -> int:
    e = p.entry
    return e(i, j) - e(i - 1, j) + e(i, j + 1) - e(i + 1, j + 1)


def _b(p: GTPattern, i: int, j: int) -> int:
    e = p.entry
    return -e(i, j) + e(i - 1, j - 1) - e(i, j - 1) + e(i + 1, j)


def diamond_a(pattern: GTPattern, i: int, j: int) -> int:
    """Diamond number a_j at level i: entry(i,j) - entry(i-1,j) + entry(i,j+1) - entry(i+1,j+1).

    Defined for 1 <= i <= n-1 and any j; entries outside the triangle read
    as 0, and the value is 0 for j > i.
    """
    require_label(pattern.n, i)
    return _a(pattern, i, j)


def diamond_b(pattern: GTPattern, i: int, j: int) -> int:
    """Diamond number b_j at level i: -entry(i,j) + entry(i-1,j-1) - entry(i,j-1) + entry(i+1,j).

    Defined for 1 <= i <= n-1 and any j; the value is 0 for j > i + 1.
    Satisfies b_j = -a_{j-1} for 1 <= j <= i + 1.
    """
    require_label(pattern.n, i)
    return _b(pattern, i, j)


def sum_a(pattern: GTPattern, i: int, j: int) -> int:
    """Partial diamond sum A_j at level i: sum of a_k for k from j to i.

    Domain 0 <= j <= i + 1; the sum at j = i + 1 is empty and equals 0.
    """
    require_label(pattern.n, i)
    if not 0 <= j <= i + 1:
        raise IndexError(f"start index {j} out of range 0..{i + 1}")
    return sum(_a(pattern, i, k) for k in range(j, i + 1))


def sum_b(pattern: GTPattern, i: int, j: int) -> int:
    """Partial diamond sum B_j at level i: sum of b_k for k from 1 to j.

    Domain 0 <= j <= i + 1; the sum at j = 0 is empty and equals 0.
    """
    require_label(pattern.n, i)
    if not 0 <= j <= i + 1:
        raise IndexError(f"end index {j} out of range 0..{i + 1}")
    return sum(_b(pattern, i, k) for k in range(1, j + 1))


def weight_gtp(pattern: GTPattern) -> Weight:
    """Weight of a pattern: coordinate j is the sum of row j minus the sum of row j-1.

    Coordinate j counts the letter j in the corresponding tableau, so the
    tuple is the canonical representative of the weight.
    """
    sums = [0, *map(sum, reversed(pattern.rows))]  # sums[j]: row j, bottom-up
    return tuple(map(sub, sums[1:], sums))


def weight_expressions(pattern: GTPattern) -> tuple[Weight, Weight, Weight]:
    """The weight computed three ways, as raw gl_n coordinate tuples.

    Returns (row-sum differences, A-form, B-form).  The A-form accumulates
    the full diamond sums A_0 at levels 1..n over fundamental-weight
    coordinates; the B-form does the same with -B_{i+1}.  The weight lattice
    is a quotient by the all-ones vector, so the A- and B-forms agree with
    the first tuple up to adding a constant to every coordinate (the
    constant is the pattern size); the A- and B-forms agree exactly.
    """
    n = pattern.n
    first = weight_gtp(pattern)
    a0 = [sum(_a(pattern, i, k) for k in range(0, i + 1)) for i in range(1, n + 1)]
    b_top = [sum(_b(pattern, i, k) for k in range(1, i + 2)) for i in range(1, n + 1)]
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
    require_label(pattern.n, i)
    return _scan(pattern, i)[0]


def epsilon_gtp(pattern: GTPattern, i: int) -> int:
    """Raising string length: max of B_1 .. B_i at level i, equal to phi - A_0."""
    require_label(pattern.n, i)
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
    rows = pattern.rows[:k] + (row[: j - 1] + (value,) + row[j:],) + pattern.rows[k + 1 :]
    return tuple.__new__(GTPattern, (pattern.n, rows, "pattern"))


def lower_gtp(pattern: GTPattern, i: int) -> Optional[GTPattern]:
    """Lowering operator: decrement entry (i, l) where l is the largest
    index in 1..i at which A_l attains the maximum; None when the string
    length is 0.  The result always interleaves, so a failed local check is
    an internal error."""
    require_label(pattern.n, i)
    phi, _, ell, _ = _scan(pattern, i)
    if phi == 0:
        return None
    return _with_entry_changed(pattern, i, ell, -1)


def raise_gtp(pattern: GTPattern, i: int) -> Optional[GTPattern]:
    """Raising operator: increment entry (i, l) where l is the smallest
    index in 1..i at which B_l attains the maximum, which is the smallest
    maximizer of A_1 .. A_i; None when the string length is 0."""
    require_label(pattern.n, i)
    _, eps, _, ell = _scan(pattern, i)
    if eps == 0:
        return None
    return _with_entry_changed(pattern, i, ell, +1)


def interleaving_rows(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each row that interleaves with the row ``upper`` and has one entry fewer, lazily, in lexicographic order.

    Entry j ranges over the closed interval [upper[j+1], upper[j]], so no
    candidate is filtered out.
    """
    return product(*(range(low, high + 1) for low, high in zip(upper[1:], upper)))


def _rows_below(stack: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """``stack`` extended by each row that interleaves with its last row, in lexicographic order.

    ``zip`` wraps each row in the 1-tuple that ``stack.__add__`` appends.
    """
    return map(stack.__add__, zip(interleaving_rows(stack[-1])))


def top_row(n: int, lam: Partition) -> tuple[int, ...]:
    """The top row of the patterns with n rows and shape ``lam``: ``lam`` padded to n entries.

    Raises ShapeError unless ``n`` is a positive int of at most
    ``core.MAX_LEVELS`` and ``lam`` a partition with parts below
    ``sys.maxsize``, and LengthError if ``lam`` has more than n parts: the
    checks of every walk that starts from this row.
    """
    require_positive(n, "row count")
    if n > MAX_LEVELS:
        raise ShapeError(f"row count must be at most {MAX_LEVELS}, got {n}")
    top = pad(lam, n)
    require_enumerable(top)
    return top


def enumerate_patterns(n: int, lam: Partition) -> Iterator[GTPattern]:
    """All patterns with n rows and top row ``lam``, each exactly once, lazily.

    Order: lexicographically increasing on the concatenation of rows read
    top-down, left-to-right.  The arguments are checked when the function is
    called (``top_row``), so a bad ``n`` or ``lam``, ``n`` above
    ``core.MAX_LEVELS``, or a part of at least ``sys.maxsize``, raises before
    any pattern is taken.  The returned iterator walks depth first, level by
    level down from the fixed top row (``_rows_below``), so it holds one
    partial pattern per level, never the list of all patterns; callers that
    need a sequence take ``list(...)``.
    """
    stacks: Iterator[tuple[tuple[int, ...], ...]] = iter([(top_row(n, lam),)])
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
