"""The reference checks of ``crystal.verify_shape`` under mutants, and their call economy.

Each mutant in ``MUTANTS`` replaces one literal function (through its module
attribute, where ``verify_shape`` reaches it) with a deterministic off-by-one
on a subset of its inputs.  The violation count of every check is pinned
over a fixed shape list of ranks 3 to 5, so a change to how the checks are
computed must reproduce each count exactly, and every mutant must fire at
least one check.  Each mutant in ``GUARDED`` replaces a tableau operator or
the reading it scans with the opposite choice; its first image is not
semistandard, so ``verify_shape`` raises the guard's RuntimeError and
``gtcrystal verify`` exits 3.  A cell write that drops the changes in one
row must split the package's word-scan operators from the column-scan
oracle, which builds its images without that write.
"""

import pytest

from gtcrystal import (
    bijection,
    cli,
    crystal,
    enumerate_patterns,
    enumerate_tableaux,
    gtpattern,
    ssyt,
    validate_tableau,
)
from sweeps import lowering_edges, uncrossed_cells
from test_acceptance import dual_route_mismatches

SHAPES = ((3, (2, 1)), (4, (2, 1)), (4, (3, 2, 1)), (5, (2, 1, 1)))


def _bottom(p):
    return p.entry(1, 1)


def _diamond_a(orig):
    return lambda p, i, j: orig(p, i, j) + ((_bottom(p) + i + j) % 3 == 0)


def _diamond_b(orig):
    return lambda p, i, j: orig(p, i, j) - ((_bottom(p) + j) % 2 == 1 and i == p.n - 1)


def _sum_a(orig):
    return lambda p, i, j: orig(p, i, j) + (j == i and _bottom(p) % 2 == 0)


def _sum_b(orig):
    return lambda p, i, j: orig(p, i, j) + (j == i + 1 and _bottom(p) == 1)


def _weight_expressions(orig):
    def mutant(p):
        first, a_form, b_form = orig(p)
        if _bottom(p) == 0:
            a_form = (a_form[0] + 1,) + a_form[1:]
        return first, a_form, b_form

    return mutant


def _letter_count_in_row(orig):
    return lambda p, i, k: orig(p, i, k) + (i == k and _bottom(p) % 2 == 1)


def _pattern_to_tableau(orig):
    # Raise the last letter of the first row by one where the result stays semistandard.
    def mutant(p):
        t = orig(p)
        if _bottom(p) % 2 == 1 or not t.rows:
            return t
        rows = [list(row) for row in t.rows]
        rows[0][-1] += 1
        try:
            return validate_tableau(t.n, t.shape, rows)
        except ValueError:
            return t

    return mutant


def _lower_ssyt(_orig):
    # Change the rightmost uncrossed i of the reading word instead of the leftmost.
    def mutant(t, i):
        cells = uncrossed_cells(t, i, i)
        return ssyt._with_cell_changed(t, *cells[-1], i + 1) if cells else None

    return mutant


def _raise_ssyt(_orig):
    # Change the leftmost uncrossed i+1 of the reading word instead of the rightmost.
    def mutant(t, i):
        cells = uncrossed_cells(t, i, i + 1)
        return ssyt._with_cell_changed(t, *cells[0], i) if cells else None

    return mutant


def _far_east_reading(orig):
    # Read the columns left to right, each still top to bottom.
    def mutant(t):
        word = orig(t)
        pairs = sorted(zip(word.origin, word.letters), key=lambda pair: (pair[0][1], pair[0][0]))
        return ssyt.ReadingWord(tuple(x for _, x in pairs), tuple(cell for cell, _ in pairs))

    return mutant


MUTANTS = {
    "diamond_a": (gtpattern, _diamond_a),
    "diamond_b": (gtpattern, _diamond_b),
    "sum_a": (gtpattern, _sum_a),
    "sum_b": (gtpattern, _sum_b),
    "weight_expressions": (gtpattern, _weight_expressions),
    "letter_count_in_row": (bijection, _letter_count_in_row),
    "pattern_to_tableau": (bijection, _pattern_to_tableau),
}

# Violations per check over SHAPES (in order), for the checks that fire; every
# other check reports 0 on every shape.
PINNED = {
    "diamond_a": {"counting-identities": (14, 60, 192, 210), "algebraic-identities": (18, 74, 233, 251)},
    "diamond_b": {"counting-identities": (12, 40, 128, 111), "algebraic-identities": (12, 40, 128, 111)},
    "sum_a": {"counting-identities": (8, 33, 96, 84), "algebraic-identities": (8, 33, 96, 84)},
    "sum_b": {"counting-identities": (8, 27, 72, 96), "algebraic-identities": (16, 54, 144, 192)},
    "weight_expressions": {"algebraic-identities": (4, 16, 16, 30)},
    "letter_count_in_row": {"counting-identities": (12, 36, 128, 120)},
    "pattern_to_tableau": {
        "isomorphism": (31, 80, 209, 171),
        "counting-identities": (48, 148, 428, 349),
        "round-trip": (6, 16, 42, 34),
    },
}


def violations_by_check():
    records = [crystal.verify_shape(n, lam) for n, lam in SHAPES]
    names = records[0]["checks"]
    table = {name: tuple(r["checks"][name]["violations"] for r in records) for name in names}
    return {name: counts for name, counts in table.items() if any(counts)}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fires_pinned_checks(monkeypatch, name):
    module, make = MUTANTS[name]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    fired = violations_by_check()
    assert fired, f"mutant {name} fired no check"
    assert fired == PINNED[name]


# Tableau operator mutants: each yields a filling that is not semistandard,
# which the changed-cell guard rejects before any check can count it.  The
# guard's message names the operator, the tableau it was applied to and the cell.
GUARDED = {
    "lower_ssyt": (_lower_ssyt, "f_1 on 1,1/3 produced an invalid tableau at (1,1): right neighbour 1 < 2"),
    "raise_ssyt": (_raise_ssyt, "e_1 on 2,2/3 produced an invalid tableau at (1,2): left neighbour 2 > 1"),
    "far_east_reading": (_far_east_reading, "f_1 on 1,1/3 produced an invalid tableau at (1,1): right neighbour 1 < 2"),
}


@pytest.mark.parametrize("name", list(GUARDED))
def test_tableau_mutant_is_an_internal_error(monkeypatch, capsys, name):
    make, message = GUARDED[name]
    monkeypatch.setattr(ssyt, name, make(getattr(ssyt, name)))
    with pytest.raises(RuntimeError) as caught:
        crystal.verify_shape(3, (2, 1))
    assert str(caught.value) == f"crystal operator {message}"
    assert cli.main(["verify", "-n", "3", "-l", "2,1"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {caught.value}\n")


def _with_cell_changed(orig):
    # Drop every change in row 2: the image is the tableau it was applied to.
    return lambda t, r, c, letter: t if r == 2 else orig(t, r, c, letter)


def test_row_2_cell_write_mutant_splits_the_routes(monkeypatch):
    monkeypatch.setattr(ssyt, "_with_cell_changed", _with_cell_changed(ssyt._with_cell_changed))
    mismatches = dual_route_mismatches()
    # One mismatch per lowering or raising image whose changed cell is in row 2.
    assert {name for _, _, name in mismatches} == {"lower", "raise"}
    assert len(mismatches) == 722


def counted(monkeypatch, module, names):
    calls = {name: 0 for name in names}

    def wrap(name, fn):
        def counting(*args):
            calls[name] += 1
            return fn(*args)

        return counting

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


def test_each_reference_value_is_computed_once(monkeypatch):
    n, lam = 5, (2, 1, 1)
    patterns = list(enumerate_patterns(n, lam))
    tableaux = list(enumerate_tableaux(n, lam))
    images = counted(monkeypatch, bijection, ["pattern_to_tableau", "tableau_to_pattern"])
    literals = counted(monkeypatch, gtpattern, ["diamond_a", "diamond_b", "sum_a", "sum_b"])
    rendering = counted(monkeypatch, crystal, ["render_key"])
    assert crystal.verify_shape(n, lam)["pass"]
    assert images == {"pattern_to_tableau": len(patterns), "tableau_to_pattern": len(tableaux)}
    assert sum(literals.values()) == len(patterns) * sum(4 * i + 6 for i in range(1, n))
    # Keys are rendered only to name a violation, and a passing shape has none.
    assert rendering == {"render_key": 0}


def test_build_graph_renders_no_key(monkeypatch):
    # Lowering every element of both models along every label renders no key.
    n, lam = 5, (2, 1, 1)
    rendering = counted(monkeypatch, crystal, ["render_key"])
    edges = lowering_edges(crystal.pattern_model(n), list(enumerate_patterns(n, lam)))
    edges += lowering_edges(crystal.tableau_model(n), list(enumerate_tableaux(n, lam)))
    assert len(edges) > 0
    assert rendering == {"render_key": 0}
