"""The natural bijection between patterns and tableaux.

A pattern maps to the tableau obtained by filling, for each letter i, the
cells row i of the pattern adds over row i-1 with the letter i.  The
inverse records the shape left after deleting letters larger than i, padded
with zeros to i entries.  Each map's one guard is its image's validator,
and an image it refuses is a defect of the program, not bad input: an
invalid triangle raises ``RuntimeError("bijection produced an invalid
tableau: ...")`` with the message ``validate_tableau`` gives for its filling
against its top row, and an invalid tableau raises ``RuntimeError("bijection
produced an invalid pattern: ...")`` with the message ``validate_pattern``
gives for its rows.

``enumerate_pattern_tableaux`` makes the images of all patterns of one shape
without the maps.  It builds through the class name ``Tableau``, as
``enumerate_tableaux`` does, and validates nothing: its reference test
compares it with ``pattern_to_tableau``, which validates every image.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import chain
from operator import add, sub
from typing import Callable, Iterator

from .core import Partition
from .gtpattern import GTPattern, interleaving_rows, top_row, validate_pattern
from .ssyt import Tableau, validate_tableau

# A walk state: the pattern row the walk has reached, with k entries, and the
# n tableau rows, each holding the cells of the letters above k.
_State = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def pattern_to_tableau(pattern: GTPattern) -> Tableau:
    """Fill row by row: letter i gets entry(i, r) - entry(i-1, r) cells in tableau row r.

    Row r reads column r of the pattern bottom-up, from level r (where
    entry(r-1, r) is outside the triangle and reads 0) to level n.  Its
    layers telescope to ``rows[0][r]``, and an empty or negative one fills
    no cells.  The filling is checked against the top row by
    ``validate_tableau``, whose one walk accepts the filling of every
    pattern; its error on any other triangle is raised as RuntimeError.
    """
    n, rows = pattern.n, pattern.rows
    grid: list[list[int]] = []
    for r in range(n):
        row: list[int] = []
        below = 0
        for i in range(r + 1, n + 1):
            here = rows[n - i][r]
            if here > below:
                row += [i] * (here - below)
            below = here
        grid.append(row)
    while grid and not grid[-1]:
        grid.pop()
    try:
        return validate_tableau(n, pattern.rows[0], grid)
    except ValueError as exc:
        raise RuntimeError(f"bijection produced an invalid tableau: {exc}") from exc


def tableau_to_pattern(tableau: Tableau) -> GTPattern:
    """Row i of the pattern is the shape of the letters at most i, padded to i entries.

    Rows weakly increase, so the letters at most i form a prefix, found by bisection.
    The rows are checked by ``validate_pattern``, whose error on any other
    tableau is raised as RuntimeError.
    """
    n = tableau.n
    rows = []
    for i in range(n, 0, -1):
        shape_i = [bisect_right(row, i) for row in tableau.rows]
        shape_i = [count for count in shape_i if count > 0]
        rows.append(tuple(shape_i) + (0,) * (i - len(shape_i)))
    try:
        return validate_pattern(n, rows)
    except ValueError as exc:
        raise RuntimeError(f"bijection produced an invalid pattern: {exc}") from exc


def _letter_below(k: int, state: _State) -> Iterator[_State]:
    """The states after letter k, one for each row below ``state``'s, lazily, in lexicographic order.

    With ``upper`` = μ^(k) and each ``below`` = μ^(k-1), letter k fills
    μ^(k)_r - μ^(k-1)_r cells at the front of tableau row r < k and μ^(k)_k
    cells of row k, which it completes.  Row k and the rows below it are
    the same for every ``below``, so they are joined once.
    """
    upper, rows = state
    stamp = (k,).__mul__
    done = ((k,) * upper[-1] + rows[k - 1],) + rows[k:]

    def fill(below: tuple[int, ...]) -> _State:
        return below, tuple(map(add, map(stamp, map(sub, upper, below)), rows)) + done

    return map(fill, interleaving_rows(upper))


def _last_letters(make: Callable[..., Tableau], parts: int, state: _State) -> Iterator[Tableau]:
    """The tableaux below ``state`` at letter 2: letters 2 and 1 fill the front of rows 1 and 2, lazily, in order.

    Each pattern row (b,) below (first, second) gives row 1 its b letters 1
    and first - b letters 2; row 2 and the rows below it, cut to the
    ``parts`` rows of the shape, are shared by all of them.
    """
    (first, second), rows = state
    row = rows[0]
    done = (((2,) * second + rows[1],) + rows[2:])[: parts - 1]
    return map(lambda b: make(((1,) * b + (2,) * (first - b) + row,) + done), range(second, first + 1))


def enumerate_pattern_tableaux(n: int, lam: Partition) -> Iterator[Tableau]:
    """The tableau of each pattern of ``enumerate_patterns(n, lam)``, in its order, lazily.

    Equal element for element to ``map(pattern_to_tableau,
    enumerate_patterns(n, lam))``, without making a pattern.  The arguments
    are checked by ``top_row`` when the function is called, as
    ``enumerate_patterns`` checks them.  The walk goes depth first down the
    same interleaving rows, letter n first (``_letter_below``), and holds one
    state per letter; letters 2 and 1 make the tableaux (``_last_letters``).
    With n = 1 or the empty shape the one tableau holds letters 1 only.
    """
    top = top_row(n, lam)
    parts = n - top.count(0)
    make = partial(Tableau, n)
    if n == 1 or not parts:
        return map(make, [((1,) * top[0],)[:parts]])
    states: Iterator[_State] = iter([(top, ((),) * n)])
    for k in range(n, 2, -1):
        states = chain.from_iterable(map(partial(_letter_below, k), states))
    return chain.from_iterable(map(partial(_last_letters, make, parts), states))


def letter_count_in_row(pattern: GTPattern, i: int, k: int) -> int:
    """Multiplicity of the letter i in row k of the corresponding tableau:
    entry(i, k) - entry(i-1, k)."""
    if not 1 <= i <= pattern.n:
        raise IndexError(f"letter {i} out of range 1..{pattern.n}")
    if not 1 <= k <= pattern.n:
        raise IndexError(f"row {k} out of range 1..{pattern.n}")
    return pattern.entry(i, k) - pattern.entry(i - 1, k)
