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
"""

from __future__ import annotations

from bisect import bisect_right

from .gtpattern import GTPattern, validate_pattern
from .ssyt import Tableau, validate_tableau


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


def letter_count_in_row(pattern: GTPattern, i: int, k: int) -> int:
    """Multiplicity of the letter i in row k of the corresponding tableau:
    entry(i, k) - entry(i-1, k)."""
    if not 1 <= i <= pattern.n:
        raise IndexError(f"letter {i} out of range 1..{pattern.n}")
    if not 1 <= k <= pattern.n:
        raise IndexError(f"row {k} out of range 1..{pattern.n}")
    return pattern.entry(i, k) - pattern.entry(i - 1, k)
