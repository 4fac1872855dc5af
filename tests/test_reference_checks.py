"""The reference checks of ``crystal.verify_shape`` under mutants, and their call economy.

Each mutant in ``MUTANTS`` replaces one function (through its module
attribute, where ``verify_shape`` reaches it) with a deterministic change on
a subset of its inputs: a literal form or a letter count, the bijection, a
string length of either model, or the dimension oracle.  The violation count
of every check is pinned over a fixed shape list of ranks 3 to 5, so a
change to how the checks are computed must reproduce each count exactly;
every mutant must fire at least one check, and every check is fired by at
least one mutant.  Each mutant in ``GUARDED`` replaces a tableau operator or
the reading it scans with the opposite choice; its first image is not
semistandard, so ``verify_shape`` raises the guard's RuntimeError and
``gtcrystal verify`` exits 3.  A cell write that drops the changes in one
row must split the package's word-scan operators from the column-scan
oracle, which builds its images without that write.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pattern_st
from gtcrystal import (
    GTPattern,
    Tableau,
    bijection,
    cli,
    crystal,
    enumerate_patterns,
    enumerate_tableaux,
    gtpattern,
    ssyt,
    validate_tableau,
)
from gtcrystal.core import Linear
from sweeps import lowering_edges, shape_sweep, uncrossed_cells
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


def _epsilon_gtp(orig):
    return lambda p, i: 0 if _bottom(p) % 2 == 1 else orig(p, i)


def _phi_ssyt(orig):
    return lambda t, i: orig(t, i) + (i == 1 and len(t.rows[-1]) == 1)


def _weyl_dimension(orig):
    return lambda n, lam: orig(n, lam) + (n == 4)


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
    "epsilon_gtp": (gtpattern, _epsilon_gtp),
    "phi_ssyt": (ssyt, _phi_ssyt),
    "weyl_dimension": (crystal, _weyl_dimension),
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
    "epsilon_gtp": {
        "axioms-patterns": (13, 35, 162, 111),
        "isomorphism": (4, 11, 52, 36),
        "connected-unique-source": (1, 1, 1, 1),
    },
    "phi_ssyt": {"axioms-tableaux": (12, 31, 94, 72), "isomorphism": (8, 20, 64, 45)},
    "weyl_dimension": {"dimension": (0, 1, 1, 0)},
}


def violations_by_check():
    records = [crystal.verify_shape(n, lam) for n, lam in SHAPES]
    names = records[0]["checks"]
    table = {name: tuple(r["checks"][name]["violations"] for r in records) for name in names}
    return {name: counts for name, counts in table.items() if any(counts)}


def test_every_check_is_fired_by_a_pinned_mutant():
    checks = crystal.verify_shape(*SHAPES[0])["checks"]
    assert {name for fired in PINNED.values() for name in fired} == set(checks)


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
    # One formal walk proves the identities at rank 5; the 45 patterns read no literal value.
    assert len(patterns) >= crystal.FORMAL_MIN_PATTERNS
    assert sum(literals.values()) == sum(4 * i + 6 for i in range(1, n))
    # Keys are rendered only to name a violation, and a passing shape has none.
    assert rendering == {"render_key": 0}


def formal_walks(monkeypatch):
    """The patterns of formal entries that ``diamond_a``, the first literal value of a walk, reads."""
    seen = []
    diamond_a = gtpattern.diamond_a

    def recording(p, i, j):
        if isinstance(p.rows[0][0], Linear) and not any(q is p for q in seen):
            seen.append(p)
        return diamond_a(p, i, j)

    monkeypatch.setattr(gtpattern, "diamond_a", recording)
    return seen


def test_an_unproved_rank_walks_each_pattern_once(monkeypatch):
    # A rank with fewer patterns than the cutoff is never evaluated formally:
    # each pattern reads every literal value once.
    literals = counted(monkeypatch, gtpattern, ["diamond_a", "diamond_b", "sum_a", "sum_b"])
    formal = formal_walks(monkeypatch)
    patterns = list(enumerate_patterns(5, (1,)))
    assert len(patterns) < crystal.FORMAL_MIN_PATTERNS
    assert crystal.verify_shape(5, (1,))["pass"]
    assert sum(literals.values()) == len(patterns) * sum(4 * i + 6 for i in range(1, 5)) and formal == []
    # A form that branches on an entry's value stops the formal walk at its
    # first literal value, and every pattern of the rank is walked instead.
    a = gtpattern._a
    monkeypatch.setattr(gtpattern, "_a", lambda p, i, j: a(p, i, j) + 1 if p.rows[0][0] == 7 else a(p, i, j))
    for name in literals:
        literals[name] = 0
    patterns = list(enumerate_patterns(5, (2, 1, 1)))
    assert crystal.verify_shape(5, (2, 1, 1))["pass"]
    assert literals["diamond_a"] == 1 + len(patterns) * sum(i + 1 for i in range(1, 5))
    assert sum(literals.values()) == 1 + len(patterns) * sum(4 * i + 6 for i in range(1, 5)) and len(formal) == 1


def test_one_large_pattern_is_walked_not_proved(monkeypatch):
    # verify -n N -l '' has one pattern: a formal walk would cost far more than
    # its one literal walk, which grows only as N^3.
    formal = formal_walks(monkeypatch)
    assert crystal.verify_shape(40, ())["pass"]
    assert formal == []


def test_lowering_edges_render_no_key(monkeypatch):
    # Lowering every element of both models along every label renders no key.
    n, lam = 5, (2, 1, 1)
    rendering = counted(monkeypatch, crystal, ["render_key"])
    edges = lowering_edges(crystal.pattern_model(n), list(enumerate_patterns(n, lam)))
    edges += lowering_edges(crystal.tableau_model(n), list(enumerate_tableaux(n, lam)))
    assert len(edges) > 0
    assert rendering == {"render_key": 0}


def reference_identity_counts(patterns, image):
    """(counting, algebraic) of verify's identity checks, one generator term per index.

    The letter counts c[x][r] of letter x in tableau row r are read from the
    cells, and each running sum over the rows is a slice sum.  The literal
    functions are read through their module attributes, where a test patches
    them.
    """
    counting = algebraic = 0
    for p in patterns:
        n = p.n
        c = [[0] * (n + 1) for _ in range(n + 1)]
        for r, row in enumerate(image(p).rows, 1):
            for x in row:
                c[x][r] += 1
        for i in range(1, n + 1):
            counting += sum(bijection.letter_count_in_row(p, i, k) != c[i][k] for k in range(1, n + 1))
        for i in range(1, n):
            a = [gtpattern.diamond_a(p, i, j) for j in range(0, i + 1)]
            b = [0] + [gtpattern.diamond_b(p, i, j) for j in range(1, i + 2)]
            big_a = [gtpattern.sum_a(p, i, j) for j in range(0, i + 2)]
            big_b = [gtpattern.sum_b(p, i, j) for j in range(0, i + 2)]
            ci, cj = c[i], c[i + 1]
            counting += sum(a[j] != ci[j] - cj[j + 1] for j in range(0, i + 1))
            counting += sum(b[j] != cj[j] - ci[j - 1] for j in range(1, i + 2))
            counting += sum(big_a[j] != sum(ci[j:]) - sum(cj[j + 1 :]) for j in range(0, i + 2))
            counting += sum(big_b[j] != sum(cj[: j + 1]) - sum(ci[:j]) for j in range(0, i + 2))
            algebraic += sum(b[j] != -a[j - 1] for j in range(1, i + 2))
            algebraic += a[0] > 0 or b[i + 1] > 0
            algebraic += sum(big_a[j] - big_b[j] != big_a[0] for j in range(0, i + 2))
            algebraic += -big_b[i + 1] != big_a[0]
        first, a_form, b_form = gtpattern.weight_expressions(p)
        algebraic += a_form != b_form
        shifts = {a_form[k] - first[k] for k in range(n)}
        algebraic += len(shifts) != 1 or shifts != {sum(first)}
    return counting, algebraic


def identity_counts(patterns, image):
    """(counting, algebraic) of ``crystal.verify_identities``, the tableau of
    pattern k being image(p), numbered k among the tableaux."""
    tableaux = list(map(image, patterns))
    return tuple(report.found for report in crystal.verify_identities(patterns, tableaux, range(len(tableaux))))


def _bumped(orig, level, index):
    # One more at (level, index): the label and diamond index, or the letter and tableau row.
    return lambda p, i, j: orig(p, i, j) + (i == level and j == index)


def _bumped_weight(orig, form, coordinate):
    # One more at one coordinate of one of the three weight forms, where the pattern has it.
    def bumped(p):
        forms = [list(values) for values in orig(p)]
        if coordinate < p.n:
            forms[form][coordinate] += 1
        return tuple(tuple(values) for values in forms)

    return bumped


def test_identity_counts_match_an_index_by_index_oracle(monkeypatch):
    # Each identity check compares two sequences with map, which stops at the
    # shorter one, so a slice one element short would drop a comparison and
    # still count 0 on a passing shape.  Each literal value, one (level,
    # index) at a time, is made one too large on the first and last pattern
    # of every shape of the n <= 4 sweep; both counts must equal the oracle's.
    patterns = []
    for n, lam in shape_sweep():
        found = list(enumerate_patterns(n, lam))
        patterns += found[:1] + found[1:][-1:]
    # Ranks 2 to 4 have at least FORMAL_MIN_PATTERNS patterns here, so each
    # call proves them formally; a bump must break a proof and be counted by
    # the walk that follows.
    proofs = []
    holds = crystal._holds_formally

    def recording(n):
        proofs.append((n, holds(n)))
        return proofs[-1][1]

    monkeypatch.setattr(crystal, "_holds_formally", recording)
    image = functools.cache(bijection.pattern_to_tableau)
    assert identity_counts(patterns, image) == (0, 0)
    assert reference_identity_counts(patterns, image) == (0, 0)
    assert sorted(proofs) == [(2, True), (3, True), (4, True)]
    bumps = [
        (module, name, (level, index), _bumped(getattr(module, name), level, index))
        for module, name, levels, indices in (
            (gtpattern, "diamond_a", range(1, 4), lambda i: range(0, i + 1)),
            (gtpattern, "diamond_b", range(1, 4), lambda i: range(1, i + 2)),
            (gtpattern, "sum_a", range(1, 4), lambda i: range(0, i + 2)),
            (gtpattern, "sum_b", range(1, 4), lambda i: range(0, i + 2)),
            (bijection, "letter_count_in_row", range(1, 5), lambda i: range(1, 5)),
        )
        for level in levels
        for index in indices(level)
    ]
    weights = gtpattern.weight_expressions
    bumps += [
        (gtpattern, "weight_expressions", (form, k), _bumped_weight(weights, form, k))
        for form in range(3)
        for k in range(4)
    ]
    assert len(bumps) == 9 + 9 + 12 + 12 + 16 + 12
    for module, name, where, bumped in bumps:
        proofs.clear()
        with monkeypatch.context() as bump:
            bump.setattr(module, name, bumped)
            package = identity_counts(patterns, image)
            assert package == reference_identity_counts(patterns, image), (name, where)
        assert any(package), (name, where)
        assert sorted(n for n, _ in proofs) == [2, 3, 4] and not all(held for _, held in proofs), (name, where)


def test_a_linear_letter_count_mutant_leaves_the_rank_unproved(monkeypatch):
    # A proved rank compares each tableau's letter counts with the row
    # differences x_(i,k) - x_(i-1,k), not with letter_count_in_row, so the
    # formal check must also prove the two tables equal.  Under a linear
    # letter_count_in_row that reads another entry, the rank stays unproved
    # and every pattern takes the literal table and walk: both counts are the
    # index-by-index oracle's.
    patterns = list(enumerate_patterns(4, (3, 2, 1)))
    image = bijection.pattern_to_tableau
    assert len(patterns) >= crystal.FORMAL_MIN_PATTERNS and crystal._holds_formally(4)
    proofs = []
    holds = crystal._holds_formally
    monkeypatch.setattr(crystal, "_holds_formally", lambda n: proofs.append(holds(n)) or proofs[-1])
    with monkeypatch.context() as mutant:
        mutant.setattr(bijection, "letter_count_in_row", lambda p, i, k: p.entry(i, k) - p.entry(i - 1, k - 1))
        counts = identity_counts(patterns, image)
        assert counts == reference_identity_counts(patterns, image) and counts[0] > 0
    assert proofs == [False]
    # Row differences one off at letter 2 in row 2 are refused by that
    # comparison alone, though every identity still holds: no rank is
    # proved, and the walk counts nothing.
    row_differences = crystal._row_differences

    def one_off(p):
        return [[x - (i == k == 2) for k, x in enumerate(row)] for i, row in enumerate(row_differences(p))]

    monkeypatch.setattr(crystal, "_row_differences", one_off)
    assert not any(holds(n) for n in range(2, 6))
    assert identity_counts(patterns, image) == (0, 0)


def test_identity_counts_stay_exact_off_interleaving():
    # Rank-3 triangles with entries 0..2 whose letter counts entry(i, k) -
    # entry(i-1, k) are all non-negative, though their rows need not
    # interleave.  Each one's image is the filling with exactly those counts,
    # so the proved rank reads a_0 > 0 and b_(i+1) > 0 off the gap signs
    # alone; the counts must equal the oracle's.  Only b_(i+1) > 0 occurs:
    # a_0 at level i is minus the count of letter i+1 in row 1.
    def filling(p):
        counts = [[p.entry(i, k) - p.entry(i - 1, k) for i in range(1, 4)] for k in range(1, 4)]
        return Tableau(3, tuple(tuple(i for i, m in enumerate(row, 1) for _ in range(m)) for row in counts))

    triangles = itertools.product(*(itertools.product(range(3), repeat=k) for k in (3, 2, 1)))
    patterns = [
        p
        for p in (GTPattern(3, rows) for rows in triangles)
        if all(p.entry(i, k) >= p.entry(i - 1, k) for i in range(1, 4) for k in range(1, 4))
    ]
    counts = reference_identity_counts(patterns, filling)
    assert len(patterns) >= crystal.FORMAL_MIN_PATTERNS and counts[0] == 0 < counts[1]
    assert identity_counts(patterns, filling) == counts


def fits_rows_exactly(p, t, own):
    """Whether ``crystal._fills_rows`` matches (p, t) exactly when t is p's own
    tableau, and each match has the letter counts of the proved table."""
    match = crystal._fills_rows(p, t)
    return match == (t == own) and (not match or crystal._letter_counts(t) == crystal._row_differences(p))


def swapped(t, r, c, d):
    """t with cells c and d of row r exchanged."""
    row = list(t.rows[r])
    row[c], row[d] = row[d], row[c]
    return Tableau(t.n, t.rows[:r] + (tuple(row),) + t.rows[r + 1 :])


def test_the_row_wise_check_matches_each_pattern_to_its_own_tableau():
    # A proved rank compares each tableau with its pattern row by row, without
    # the letter-count table.  Over every (pattern, tableau) pair of these
    # shapes it must match exactly the pattern's own tableau; and it must
    # refuse each own tableau with two unequal cells of a row swapped, which
    # keeps the letter counts but breaks the row order.  Shape (6) at n = 2
    # has runs of three, so a check that compares only the first and last
    # cell of each run would match 1,2,1,2,1,2.  A negative layer is no match.
    for n, lam in ((2, (6,)), (3, (2, 1)), (3, (3, 1)), (4, (2, 1, 1)), (4, (3, 2, 1))):
        patterns = list(enumerate_patterns(n, lam))
        tableaux = list(enumerate_tableaux(n, lam))
        for p in patterns:
            own = bijection.pattern_to_tableau(p)
            assert crystal._fills_rows(p, own)
            assert all(fits_rows_exactly(p, t, own) for t in tableaux), (n, lam, p)
            for r, row in enumerate(own.rows):
                for c, d in itertools.combinations(range(len(row)), 2):
                    if row[c] != row[d]:
                        assert not crystal._fills_rows(p, swapped(own, r, c, d)), (p, r, c, d)
    # Column 1 of this triangle reads 2, 1, 3 up from level 1: letter 2 has a
    # negative layer.  1,1,3 fills the runs that remain to the row's length,
    # but its letter counts are not the row differences.
    p, t = GTPattern(3, ((3, 0, 0), (1, 0), (2,))), Tableau(3, ((1, 1, 3),))
    assert crystal._letter_counts(t) != crystal._row_differences(p)
    assert not crystal._fills_rows(p, t)


@st.composite
def near_misses(draw):
    """A pattern, its own tableau, and that tableau with one edit: two cells of
    a row swapped, a letter moved to another row, or a cell added or dropped,
    as a filling that need not be semistandard."""
    p = draw(pattern_st(max_n=5, max_part=8))
    own = bijection.pattern_to_tableau(p)
    rows = [list(row) for row in own.rows] + [[]] * (len(own.rows) < p.n)
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    edit = draw(st.sampled_from(["swap", "move", "add", "drop"] if cells else ["add"]))
    if edit == "swap":
        r = draw(st.sampled_from([r for r, row in enumerate(rows) if row]))
        c, d = draw(st.integers(0, len(rows[r]) - 1)), draw(st.integers(0, len(rows[r]) - 1))
        rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
    elif edit == "add":
        r, letter = None, draw(st.integers(1, p.n))
    else:
        r, c = draw(st.sampled_from(cells))
        letter = rows[r].pop(c)
    targets = [k for k in range(len(rows)) if k != r]
    if edit in ("move", "add") and targets:
        target = draw(st.sampled_from(targets))
        rows[target].insert(draw(st.integers(0, len(rows[target]))), letter)
    while rows and not rows[-1]:
        rows.pop()
    return p, own, Tableau(p.n, tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(near_misses())
def test_a_row_wise_match_has_the_proved_letter_counts(case):
    # A near miss of a pattern's own tableau matches exactly when the edit
    # left it unchanged, and every match has the letter counts of
    # _row_differences, the table _holds_formally proves on the rank.
    p, own, t = case
    assert crystal._fills_rows(p, own)
    assert fits_rows_exactly(p, t, own)
