"""Shared desk-scale sweep domains, reference oracles and model walks for the test suite.

The tableau oracles are two literal routes of the i-cancellation: the word
route crosses positions of the far-eastern reading word, and the column route
brackets cells column by column.  Neither calls the package's operators or
any of its private helpers; the column route builds each image with the full
``validate_tableau``.
"""

from gtcrystal import far_east_reading, partitions_up_to, validate_tableau

MAX_BOXES = 6
MAX_RANK = 4
SPOT_RANK_5_SHAPES = ((1,), (2, 1), (1, 1, 1, 1, 1), (3, 2, 1))


def shape_sweep(max_boxes=MAX_BOXES, max_rank=MAX_RANK):
    """Every (n, shape) pair with n <= max_rank and |shape| <= max_boxes."""
    pairs = []
    for n in range(1, max_rank + 1):
        for lam in partitions_up_to(max_boxes, n):
            pairs.append((n, lam))
    return pairs


def full_sweep():
    """``shape_sweep()`` and the rank-5 spot shapes: the domain of the acceptance sweeps."""
    return shape_sweep() + [(5, lam) for lam in SPOT_RANK_5_SHAPES]


def recursive_crossing(letters, i):
    """Literal fixpoint oracle for the i-cancellation of a word.

    Repeatedly cross out the rightmost i that still has an uncrossed i+1
    somewhere to its right, together with the leftmost such i+1, until no
    uncrossed i precedes an uncrossed i+1.  Returns 1-based positions.
    """
    crossed = set()
    while True:
        found = None
        for pos in range(len(letters), 0, -1):
            if pos in crossed or letters[pos - 1] != i:
                continue
            partner = next(
                (q for q in range(pos + 1, len(letters) + 1) if q not in crossed and letters[q - 1] == i + 1),
                None,
            )
            if partner is not None:
                found = (pos, partner)
                break
        if found is None:
            return frozenset(crossed)
        crossed.update(found)


def match_positions(letters, i):
    """Crossed-out 1-based positions of the i-cancellation of a word.

    Single pass: each letter i opens, each letter i+1 closes the most recent
    unmatched opener; matched pairs are crossed out.  Equals the fixpoint
    ``recursive_crossing``.
    """
    crossed = set()
    stack = []
    for pos, letter in enumerate(letters, start=1):
        if letter == i:
            stack.append(pos)
        elif letter == i + 1 and stack:
            crossed.add(stack.pop())
            crossed.add(pos)
    return frozenset(crossed)


def uncrossed_cells(tableau, i, letter):
    """Cells of the uncrossed ``letter``s of the word route, in reading-word order."""
    word = far_east_reading(tableau)
    crossed = match_positions(word.letters, i)
    cells = enumerate(zip(word.letters, word.origin), start=1)
    return [cell for pos, (x, cell) in cells if x == letter and pos not in crossed]


def tableau_with(tableau, r, c, letter):
    """The tableau with cell (r, c) set to ``letter``, fully revalidated."""
    rows = [list(row) for row in tableau.rows]
    rows[r - 1][c - 1] = letter
    return validate_tableau(tableau.n, tableau.shape, rows)


def bracket_columns(tableau, i):
    """Crossed cells of the column-scan i-cancellation.

    Scan columns left to right; when a column contains the letter i and some
    unbracketed i+1 sits in the same column or further left, cross that i
    together with the rightmost such i+1.  A column holds at most one of
    each letter, so cells are identified by column position.
    """
    shape = tableau.shape
    width = shape[0] if shape else 0
    crossed = set()
    open_upper = []  # unbracketed cells holding i+1, ordered by column
    for c in range(1, width + 1):
        cell_i = None
        cell_i1 = None
        for r in range(1, len(shape) + 1):
            if shape[r - 1] >= c:
                if tableau.cell(r, c) == i:
                    cell_i = (r, c)
                elif tableau.cell(r, c) == i + 1:
                    cell_i1 = (r, c)
        if cell_i1 is not None:
            open_upper.append(cell_i1)
        if cell_i is not None and open_upper:
            crossed.add(cell_i)
            crossed.add(open_upper.pop())
    return frozenset(crossed)


def uncrossed_column_cells(tableau, i, letter):
    """Cells of the uncrossed ``letter``s of the column route, by increasing column."""
    crossed = bracket_columns(tableau, i)
    cells = [
        (r, c)
        for r, row in enumerate(tableau.rows, start=1)
        for c, x in enumerate(row, start=1)
        if x == letter and (r, c) not in crossed
    ]
    return sorted(cells, key=lambda cell: cell[1])


def phi_columns(tableau, i):
    """Lowering string length from the column-scan cancellation."""
    return len(uncrossed_column_cells(tableau, i, i))


def epsilon_columns(tableau, i):
    """Raising string length from the column-scan cancellation."""
    return len(uncrossed_column_cells(tableau, i, i + 1))


def lower_columns(tableau, i):
    """Lowering from the column-scan cancellation: the rightmost (largest
    column) unbracketed i becomes i+1; None when there is none."""
    cells = uncrossed_column_cells(tableau, i, i)
    return tableau_with(tableau, *cells[-1], i + 1) if cells else None


def raise_columns(tableau, i):
    """Raising from the column-scan cancellation: the leftmost (smallest
    column) unbracketed i+1 becomes i; None when there is none."""
    cells = uncrossed_column_cells(tableau, i, i + 1)
    return tableau_with(tableau, *cells[0], i) if cells else None


def letter_count(tableau, letter, row):
    """Multiplicity of a letter in one 1-based row; 0 outside the tableau."""
    if not 1 <= row <= len(tableau.rows):
        return 0
    return sum(1 for x in tableau.rows[row - 1] if x == letter)


def walk_along(element, word, step):
    """(step counts, element reached): apply ``step`` with each letter's label of ``word`` until it returns None.

    phi and epsilon are never read, so a closed form of the string exponents
    is checked against the operators alone.
    """
    out = []
    current = element
    for letter in word:
        steps = 0
        while (moved := step(current, letter)) is not None:
            current = moved
            steps += 1
        out.append(steps)
    return tuple(out), current


def lowering_edges(model, elements):
    """Every lowering edge (b, i, f_i b) with an image, in element and then label order, read from the model."""
    return [(b, i, down) for b in elements for i in model.labels if (down := model.lower(b, i)) is not None]
