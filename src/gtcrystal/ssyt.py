"""Semistandard Young tableaux and their crystal structure.

The crystal data come from the far-eastern reading (columns right to left,
each column top to bottom) followed by pair cancellation between the letters
i and i+1.  The reading walk depends only on the row lengths, so it is made
once per length tuple (``_reading_plan``), and each reading is one pick from
the concatenated rows.  The operators match the letters in a single stack
pass over the reading word.  ``validate_tableau`` accepts a plain-typed
filling in one walk over its cells (``semistandard``) and words the first
fault of any other input.

Cells are addressed by 1-based (row, column) pairs throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, chain, combinations_with_replacement
from operator import itemgetter, le, lt
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .core import MAX_LEVELS, LabelError, Partition, ShapeError, Weight, as_partition, as_rows, quote, require_positive


class TableauError(ValueError):
    """A filling violates the semistandard conditions."""


class RowOrderError(TableauError):
    """A row is not weakly increasing."""


class ColumnOrderError(TableauError):
    """A column is not strictly increasing."""


class AlphabetError(TableauError):
    """A letter lies outside 1..n."""


@dataclass(frozen=True)
class Tableau:
    """Immutable semistandard tableau; construct via ``validate_tableau``."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> Partition:
        return tuple([len(row) for row in self.rows])

    def cell(self, r: int, c: int) -> int:
        return self.rows[r - 1][c - 1]

    def compact(self) -> str:
        """Single-line form, rows slash-separated, e.g. ``1,1,2/2``; ``-`` when empty."""
        if not self.rows:
            return "-"
        return "/".join(",".join(str(x) for x in row) for row in self.rows)

    def pretty(self) -> str:
        """Grid form, one row per line."""
        if not self.rows:
            return "(empty)"
        width = max(len(str(x)) for row in self.rows for x in row)
        return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in self.rows)

    def to_dict(self) -> dict[str, Any]:
        return {"n": self.n, "shape": list(self.shape), "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Tableau":
        if not isinstance(data, dict) or set(data) != {"n", "shape", "rows"}:
            raise ShapeError("tableau document must have exactly the keys 'n', 'shape' and 'rows'")
        return validate_tableau(data["n"], data["shape"], data["rows"])


def semistandard(n: int, rows: Sequence[Sequence[Any]]) -> bool:
    """Whether ``rows`` is a semistandard filling with letters in 1..n, in one walk over its cells.

    ``n`` is a positive integer and ``rows`` a list or tuple of lists or
    tuples.  True when every row is non-empty and no longer than the row
    above it, every letter is a plain ``int`` (not a bool) in 1..n, every
    row weakly increases and every column strictly increases.  The type test
    comes first for each cell, so no letter of another type is ever
    compared.  Only ``validate_tableau`` calls it, as its first step.
    """
    above: Sequence[int] = [0] * len(rows[0]) if rows else []
    for row in rows:
        if not row or len(row) > len(above):
            return False
        left = 1
        for x, y in zip(row, above):
            if type(x) is not int or x < left or x <= y:
                return False
            left = x
        if left > n:
            return False
        above = row
    return True


def _is_shape_of(shape: Any, rows: Any) -> bool:
    """Whether ``shape``, ``rows`` and each row are arrays, and ``shape`` is plain ints: the row lengths, then zeros."""
    if not isinstance(shape, (list, tuple)) or not isinstance(rows, (list, tuple)) or len(shape) < len(rows):
        return False
    for x, row in zip(shape, rows):
        if type(x) is not int or not isinstance(row, (list, tuple)) or x != len(row):
            return False
    for x in shape[len(rows) :]:
        if type(x) is not int or x:
            return False
    return True


def validate_tableau(n: int, shape: Sequence[int], rows: Any) -> Tableau:
    """Validate a filling against a shape and return the tableau.

    A filling is accepted in one walk when ``n`` is a plain positive int,
    ``shape``, ``rows`` and every row are lists or tuples, ``shape`` is the
    row lengths followed by zeros, all plain ints, and ``semistandard``
    holds.  Any other input goes through the checks that word its first
    fault: ShapeError on a malformed shape or filling or a mismatch between
    them, AlphabetError for letters outside 1..n, RowOrderError and
    ColumnOrderError for ordering violations, each reporting the first
    offending cell.  Those checks scan every cell for its type and alphabet
    first, then every row, then every column, so a filling with several
    faults reports the first in that order.
    """
    if type(n) is int and n > 0 and _is_shape_of(shape, rows) and semistandard(n, rows):
        return Tableau(n, tuple([tuple(row) for row in rows]))
    require_positive(n, "alphabet bound")
    if not isinstance(shape, (list, tuple)):
        raise ShapeError(f"shape must be an array, got {quote(shape)}")
    shape = as_partition(shape)
    rows = as_rows(rows)
    if tuple([len(row) for row in rows]) != shape:
        raise ShapeError(f"row lengths {quote(tuple(map(len, rows)))} do not match shape {quote(shape)}")
    for r, row in enumerate(rows, start=1):
        for c, x in enumerate(row, start=1):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ShapeError(f"letters must be integers, got {quote(x)} at ({r},{c})")
            if not 1 <= x <= n:
                raise AlphabetError(f"letter {x} at ({r},{c}) outside 1..{n}")
    for r, row in enumerate(rows, start=1):
        for c in range(1, len(row)):
            if row[c - 1] > row[c]:
                raise RowOrderError(f"row {r} decreases at ({r},{c + 1}): {row[c - 1]} > {row[c]}")
    for r in range(1, len(rows)):
        for c in range(1, len(rows[r]) + 1):
            if rows[r - 1][c - 1] >= rows[r][c - 1]:
                raise ColumnOrderError(
                    f"column {c} does not increase at ({r + 1},{c}): {rows[r - 1][c - 1]} >= {rows[r][c - 1]}"
                )
    return Tableau(n, rows)


class ReadingWord(NamedTuple):
    """Letters in far-eastern order with the originating cell of each letter.

    A named tuple, not a frozen dataclass: every tableau query builds one, and
    the dataclass ``__init__`` sets each field through ``object.__setattr__``.
    ``far_east_reading`` builds it with ``tuple.__new__``, skipping the
    Python-level ``__new__`` that ``NamedTuple`` generates.
    """

    letters: tuple[int, ...]
    origin: tuple[tuple[int, int], ...]


@cache
def _reading_plan(lengths: tuple[int, ...]) -> tuple[itemgetter, tuple[tuple[int, int], ...]]:
    """The far-eastern walk over rows of these lengths: (pick, origin).

    Columns right to left, each top to bottom, up to the first row too short.
    ``pick`` takes the letters in that order from ``[0, 0, *row 1, *row 2,
    ...]``; its two leading picks of the padding keep the result a tuple for
    every shape, since ``itemgetter`` returns a bare item for one index and
    takes no empty index list.  ``origin`` holds the cell of each letter.
    The cache keeps one small entry per length tuple read.
    """
    starts = list(accumulate(lengths, initial=2))
    picks = [0, 0]
    origin: list[tuple[int, int]] = []
    width = lengths[0] if lengths else 0
    for c in range(width, 0, -1):
        for r, length in enumerate(lengths, start=1):
            if length < c:
                break
            picks.append(starts[r - 1] + c - 1)
            origin.append((r, c))
    return itemgetter(*picks), tuple(origin)


def far_east_reading(tableau: Tableau) -> ReadingWord:
    """Read columns right to left, each top to bottom, up to the first row too short (lengths weakly decrease).

    The walk is the same for every tableau with these row lengths, so
    ``_reading_plan`` makes it once per length tuple; a reading concatenates
    the rows and picks its letters in one ``itemgetter`` call.  The key and
    the concatenation are list displays: a tuple grown from an iterator is
    resized, and the freed tuples would pile up on the per-size free lists.
    The word is made by ``tuple.__new__`` in C, with no Python frame.
    """
    rows = tableau.rows
    pick, origin = _reading_plan(tuple([len(row) for row in rows]))
    return tuple.__new__(ReadingWord, (pick([0, 0, *chain.from_iterable(rows)])[2:], origin))


def _check_label(tableau: Tableau, i: int) -> None:
    if not 1 <= i <= tableau.n - 1:
        raise LabelError(f"label {i} out of range 1..{tableau.n - 1}")


def _cancel(word: ReadingWord, i: int) -> tuple[int, int, Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    """(phi, epsilon, lowering cell, raising cell) from one stack pass of the i-cancellation.

    The cells hold the leftmost uncrossed i and the rightmost uncrossed i+1
    (None when there is none).  A letter i+1 stays uncrossed exactly when no
    unmatched i precedes it; the openers left on the stack are the uncrossed i.
    The pass keeps word indices, and only the two chosen ones are mapped to
    their cells through ``word.origin``.
    """
    opened: list[int] = []
    closers = 0
    last = None
    upper = i + 1
    for k, letter in enumerate(word.letters):
        if letter == i:
            opened.append(k)
        elif letter == upper:
            if opened:
                opened.pop()
            else:
                closers += 1
                last = k
    origin = word.origin
    return len(opened), closers, origin[opened[0]] if opened else None, None if last is None else origin[last]


def phi_ssyt(tableau: Tableau, i: int) -> int:
    """Number of uncrossed letters i after the i-cancellation."""
    _check_label(tableau, i)
    return _cancel(far_east_reading(tableau), i)[0]


def epsilon_ssyt(tableau: Tableau, i: int) -> int:
    """Number of uncrossed letters i+1 after the i-cancellation."""
    _check_label(tableau, i)
    return _cancel(far_east_reading(tableau), i)[1]


def _with_cell_changed(tableau: Tableau, r: int, c: int, letter: int) -> Tableau:
    """The tableau with cell (r, c) set to ``letter``.

    Only the conditions that involve the cell are rechecked: the alphabet
    bound, its left and right neighbours in the row, and the cells above and
    below it in the column.  The unchanged rows are shared with ``tableau``.
    """
    rows = tableau.rows
    row = rows[r - 1]
    problem = None
    if not 1 <= letter <= tableau.n:
        problem = f"letter {letter} outside 1..{tableau.n}"
    elif c > 1 and row[c - 2] > letter:
        problem = f"left neighbour {row[c - 2]} > {letter}"
    elif c < len(row) and letter > row[c]:
        problem = f"right neighbour {row[c]} < {letter}"
    elif r > 1 and rows[r - 2][c - 1] >= letter:
        problem = f"cell above holds {rows[r - 2][c - 1]} >= {letter}"
    elif r < len(rows) and len(rows[r]) >= c and letter >= rows[r][c - 1]:
        problem = f"cell below holds {rows[r][c - 1]} <= {letter}"
    if problem is not None:
        operator = (f"f_{row[c - 1]}" if letter > row[c - 1] else f"e_{letter}") + f" on {tableau.compact()}"
        raise RuntimeError(f"crystal operator {operator} produced an invalid tableau at ({r},{c}): {problem}")
    return Tableau(tableau.n, rows[: r - 1] + (row[: c - 1] + (letter,) + row[c:],) + rows[r:])


def lower_ssyt(tableau: Tableau, i: int) -> Optional[Tableau]:
    """Lowering operator: change the leftmost uncrossed i in the reading word
    to i+1; None when no uncrossed i exists."""
    _check_label(tableau, i)
    cell = _cancel(far_east_reading(tableau), i)[2]
    if cell is None:
        return None
    return _with_cell_changed(tableau, *cell, i + 1)


def raise_ssyt(tableau: Tableau, i: int) -> Optional[Tableau]:
    """Raising operator: change the rightmost uncrossed i+1 in the reading
    word to i; None when no uncrossed i+1 exists."""
    _check_label(tableau, i)
    cell = _cancel(far_east_reading(tableau), i)[3]
    if cell is None:
        return None
    return _with_cell_changed(tableau, *cell, i)


def weight_ssyt(tableau: Tableau) -> Weight:
    """Letter multiplicities as an n-tuple."""
    counts = [0] * tableau.n
    for row in tableau.rows:
        for x in row:
            counts[x - 1] += 1
    return tuple(counts)


def _stack_row(rows: list[tuple[int, ...]], filling: tuple[tuple[int, ...], ...]) -> list[tuple[tuple[int, ...], ...]]:
    """``filling`` extended by each of ``rows`` that exceeds its last row strictly in every column, in order."""
    return [filling + (row,) for row in rows if not filling or all(map(lt, filling[-1], row))]


def enumerate_tableaux(n: int, lam: Partition) -> Iterator[Tableau]:
    """All semistandard tableaux of the given shape with letters in 1..n, lazily.

    Order: lexicographically increasing on the concatenation of rows read
    top-down, left-to-right.  The arguments are checked when the function is
    called, so a bad ``n`` or shape, or a shape with more rows than
    ``core.MAX_LEVELS``, raises before any tableau is taken.  The
    returned iterator walks depth first, row by row (``_stack_row``): each
    weakly increasing row of letters r..n that leaves room for the column
    below each cell, n - (λ'_c - r) at most in column c, extends the partial
    fillings whose last row it exceeds strictly in every column.  It holds
    the candidate rows and, per row, the extensions of one partial filling,
    never the list of all tableaux; callers that need a sequence take
    ``list(...)``.
    """
    require_positive(n, "alphabet bound")
    lam = as_partition(lam)
    if len(lam) > n:
        raise ShapeError(f"shape {lam} has more than {n} rows")
    if len(lam) > MAX_LEVELS:
        raise ShapeError(f"shape has {len(lam)} rows, more than {MAX_LEVELS}")
    heights = [sum(part > c for part in lam) for c in range(max(lam, default=0))]  # λ'_c at index c - 1
    fillings: Iterator[tuple[tuple[int, ...], ...]] = iter([()])
    for r, part in enumerate(lam, start=1):
        # Cell (r, c) leaves room for the λ'_c - r larger letters below it in its column.
        top = [n - (height - r) for height in heights[:part]]
        rows = [row for row in combinations_with_replacement(range(r, top[-1] + 1), part) if all(map(le, row, top))]
        fillings = chain.from_iterable(map(partial(_stack_row, rows), fillings))
    return map(partial(Tableau, n), fillings)
