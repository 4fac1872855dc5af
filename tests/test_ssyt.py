import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tableau_st, word_st
from gtcrystal import bijection, crystal, ssyt
from gtcrystal import (
    AlphabetError,
    ColumnOrderError,
    ReadingWord,
    RowOrderError,
    ShapeError,
    Tableau,
    enumerate_tableaux,
    epsilon_ssyt,
    far_east_reading,
    lower_ssyt,
    pattern_to_tableau,
    phi_ssyt,
    raise_ssyt,
    tableau_to_pattern,
    validate_tableau,
    weight_ssyt,
)
from sweeps import (
    bracket_columns,
    epsilon_columns,
    lower_columns,
    match_positions,
    phi_columns,
    raise_columns,
    recursive_crossing,
    shape_sweep,
)


@pytest.fixture
def reference():
    """The running example tableau: rank 4, shape (5,2,2)."""
    return validate_tableau(4, (5, 2, 2), [[1, 2, 2, 2, 3], [3, 3], [4, 4]])


def test_validate_accepts_reference(reference):
    assert reference.shape == (5, 2, 2)
    assert sum(map(len, reference.rows)) == 9


def test_validate_rejects_each_violation():
    with pytest.raises(ColumnOrderError):
        validate_tableau(2, (2, 1), [[1, 1], [1]])
    with pytest.raises(RowOrderError):
        validate_tableau(3, (2,), [[2, 1]])
    with pytest.raises(AlphabetError):
        validate_tableau(2, (1,), [[3]])
    with pytest.raises(ShapeError):
        validate_tableau(2, (2,), [[1, 1], [2]])


@pytest.mark.parametrize(
    ("rows", "error", "message"),
    [
        ([[1, 2], [1, 3], [4]], AlphabetError, "letter 4 at (3,1) outside 1..3"),
        ([[1, 2], [1, 3], [True]], ShapeError, "letters must be integers, got True at (3,1)"),
        ([[1, 2], [1, 3], [3, 2]], RowOrderError, "row 3 decreases at (3,2): 3 > 2"),
    ],
    ids=["alphabet", "type", "row"],
)
def test_validate_words_the_first_fault_in_scan_order(rows, error, message):
    # Each filling also breaks column 1 in row 2, the first fault one pass
    # over the cells meets.  The validator scans every cell for its type and
    # alphabet first, then every row, then every column, so it reports the
    # fault in row 3.
    with pytest.raises(error) as err:
        validate_tableau(3, [len(row) for row in rows], rows)
    assert str(err.value) == message


FILLING = [[1, 2], [2]]


@pytest.mark.parametrize(
    ("n", "shape", "rows", "outcome"),
    [
        (3, (2, 1), FILLING, ((1, 2), (2,))),
        (3, [2, 1], FILLING, ((1, 2), (2,))),
        (3, (2, 1, 0, 0), FILLING, ((1, 2), (2,))),
        (3, [2, 1], ((1, 2), (2,)), ((1, 2), (2,))),
        (3, (2, 1, 1), FILLING, "ShapeError: row lengths (2, 1) do not match shape (2, 1, 1)"),
        (3, (2,), FILLING, "ShapeError: row lengths (2, 1) do not match shape (2,)"),
        (3, (2, True), FILLING, "ShapeError: partition entries must be integers, got True"),
        (3, (2, 1.0), FILLING, "ShapeError: partition entries must be integers, got 1.0"),
        (3, (2, 1, False), FILLING, "ShapeError: partition entries must be integers, got False"),
        (3, "21", FILLING, "ShapeError: shape must be an array, got '21'"),
        (True, (2, 1), FILLING, "ShapeError: alphabet bound must be a positive integer, got True"),
        (3, (), "", "ShapeError: rows must be an array, got ''"),
        (3, (2, 1), [[1, 2], "2"], "ShapeError: row 2 must be an array, got '2'"),
        (1, (1,), [{1: "a"}], "ShapeError: row 1 must be an array, got {1: 'a'}"),
        (3, (2, 0), [[1, 2], []], "ShapeError: row lengths (2, 0) do not match shape (2,)"),
    ],
    ids=[
        "tuple-shape",
        "list-shape",
        "trailing-zeros",
        "tuple-rows",
        "entry-past-last-row",
        "shape-shorter",
        "bool-in-shape",
        "float-in-shape",
        "bool-zero",
        "string-shape",
        "bool-n",
        "string-rows",
        "string-row",
        "dict-row",
        "empty-row",
    ],
)
def test_validate_accepts_in_one_walk_or_words_the_fault(monkeypatch, n, shape, rows, outcome):
    # A plain-typed filling whose shape is its row lengths, then zeros, is
    # returned by the first step, before the checks that word a fault, which
    # open with require_positive; every other input is worded there.  The
    # empty string has the length of an empty filling, and the dict row
    # iterates as the letter 1, so only the type tests of the filling and of
    # each row keep the one walk from accepting them.
    if isinstance(outcome, tuple):

        def wording(*args):
            raise AssertionError(f"reached the wording path with {args}")

        monkeypatch.setattr(ssyt, "require_positive", wording)
        assert validate_tableau(n, shape, rows).rows == outcome
    else:
        with pytest.raises(ValueError) as err:
            validate_tableau(n, shape, rows)
        assert f"{type(err.value).__name__}: {err.value}" == outcome


@st.composite
def ragged_filling_st(draw):
    """A letter bound, a filling and a shape.

    Half the fillings are a semistandard tableau with one letter moved by
    one, at the edge of each rule.  The others are up to four rows of up to
    four letters: ints in -1..n+1, bools, floats and strings, or a sorted
    row of ints in 1..n.  The shape is the row lengths, followed by up to
    two zeros, and in half the cases with one entry off by one or turned
    into the bool or float of its value.
    """
    if draw(st.booleans()):
        tableau = draw(tableau_st())
        n, rows = tableau.n, [list(row) for row in tableau.rows]
        if rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] += draw(st.sampled_from([-1, 1]))
    else:
        n = draw(st.integers(min_value=1, max_value=4))
        letter = st.one_of(
            st.integers(min_value=-1, max_value=n + 1),
            st.booleans(),
            st.sampled_from([1.0, 2.5, "1", "a"]),
        )
        row = st.one_of(
            st.lists(letter, max_size=4),
            st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=4).map(sorted),
        )
        rows = draw(st.lists(row, max_size=4))
    shape = [len(row) for row in rows] + [0] * draw(st.integers(min_value=0, max_value=2))
    if shape and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(shape) - 1))
        shape[k] = draw(st.sampled_from([shape[k] - 1, shape[k] + 1, bool(shape[k]), float(shape[k])]))
    return n, shape, rows


@settings(max_examples=400)
@given(case=ragged_filling_st())
def test_semistandard_is_exactly_what_validate_tableau_accepts(case):
    # The one-walk accept against the ordered scans alone: with the walk
    # patched to refuse, validate_tableau's verdict is the scans', so a walk
    # that accepts too much fails here as well as one that accepts too little.
    n, shape, rows = case
    with patch.object(ssyt, "_semistandard", return_value=False):
        try:
            validate_tableau(n, shape, rows)
        except ValueError:
            accepted = False
        else:
            accepted = True
    assert ssyt._semistandard(n, shape, rows) is accepted


def test_far_east_reading_reference(reference):
    word = far_east_reading(reference)
    assert word.letters == (3, 2, 2, 2, 3, 4, 1, 3, 4)
    assert word.origin[0] == (1, 5)
    assert word.origin[-1] == (3, 1)


def test_far_east_reading_single_column():
    t = validate_tableau(3, (1, 1, 1), [[1], [2], [3]])
    assert far_east_reading(t).letters == (1, 2, 3)


def test_far_east_reading_worked_small():
    t = validate_tableau(3, (3, 1), [[1, 1, 2], [2]])
    assert far_east_reading(t).letters == (2, 1, 1, 2)


def assert_reads_columns_right_to_left(t):
    # Every cell once, columns right to left and each column top to bottom,
    # with each letter read from its own cell.
    word = far_east_reading(t)
    cells = [(r, c) for r, row in enumerate(t.rows, 1) for c in range(1, len(row) + 1)]
    assert word.origin == tuple(sorted(cells, key=lambda cell: (-cell[1], cell[0])))
    assert word.letters == tuple(t.cell(r, c) for r, c in word.origin)


def test_far_east_reading_visits_each_cell_once(reference):
    assert_reads_columns_right_to_left(reference)


@given(t=tableau_st())
def test_far_east_reading_visits_each_cell_once_random(t):
    assert_reads_columns_right_to_left(t)


@pytest.mark.parametrize(
    ("t", "letters", "origin"),
    [
        (validate_tableau(3, (), []), (), ()),
        (validate_tableau(3, (1,), [[2]]), (2,), ((1, 1),)),
        (validate_tableau(3, (3,), [[1, 2, 2]]), (2, 2, 1), ((1, 3), (1, 2), (1, 1))),
        (validate_tableau(3, (1, 1, 1), [[1], [2], [3]]), (1, 2, 3), ((1, 1), (2, 1), (3, 1))),
        # Unvalidated ragged rows: the walk stops at the short first row, so
        # the cell (2,2) is never read.
        (Tableau(3, ((1,), (2, 3))), (1, 2), ((1, 1), (2, 1))),
    ],
    ids=["empty", "one-cell", "one-row", "one-column", "ragged"],
)
def test_far_east_reading_edge_shapes(t, letters, origin):
    word = far_east_reading(t)
    assert (word.letters, word.origin) == (letters, origin)


def test_far_east_reading_same_shape_reads_own_letters():
    # The walk is shared by every tableau of one shape; the letters are not.
    first = validate_tableau(3, (2, 1), [[1, 1], [2]])
    second = validate_tableau(4, (2, 1), [[2, 4], [3]])
    assert [far_east_reading(t).letters for t in (first, second, first)] == [(1, 1, 2), (4, 2, 3), (1, 1, 2)]
    assert far_east_reading(first).origin == far_east_reading(second).origin == ((1, 2), (1, 1), (2, 1))


def test_reading_word_is_an_immutable_value():
    # Two readings are equal exactly when their letters and their origins are.
    t = validate_tableau(3, (2, 1), [[1, 2], [3]])
    word = far_east_reading(t)
    with pytest.raises(AttributeError):
        word.letters = (1, 2, 3)
    same = ReadingWord(word.letters, word.origin)
    assert word == far_east_reading(validate_tableau(3, (2, 1), [[1, 2], [3]])) == same
    assert hash(word) == hash(same)
    assert word != ReadingWord(word.letters[::-1], word.origin)
    assert word != ReadingWord(word.letters, word.origin[::-1])


def test_each_tableau_query_reads_once(monkeypatch):
    # Every phi, epsilon, lowering and raising call on a tableau makes exactly
    # one reading, and two readings of one tableau are two words: a cache of
    # words across calls, inside far_east_reading or around it, shows up here.
    t = validate_tableau(3, (2, 1), [[1, 2], [3]])
    assert far_east_reading(t) == far_east_reading(t) and far_east_reading(t) is not far_east_reading(t)
    calls = {"readings": 0, "queries": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(ssyt, "far_east_reading", counting("readings", ssyt.far_east_reading))
    for name in ("phi_ssyt", "epsilon_ssyt", "lower_ssyt", "raise_ssyt"):
        monkeypatch.setattr(ssyt, name, counting("queries", getattr(ssyt, name)))
    assert crystal.verify_shape(3, (2, 1))["pass"]
    assert calls["queries"] > 0
    assert calls["readings"] == calls["queries"]


def test_far_east_reading_keeps_no_memory():
    # A reading builds only tuples of known length.  A tuple grown from an
    # iterator is resized, and the freed tuples pile up on the interpreter's
    # per-size free lists: over 100 KB across these 5,000 readings.
    t = validate_tableau(3, (5, 4, 3), [[1, 1, 1, 1, 2], [2, 2, 2, 3], [3, 3, 3]])
    far_east_reading(t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5000):
            far_east_reading(t)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


def test_shape_validation_and_bijection_keep_no_memory():
    # The shape, the row tuples and the row-length check are built from lists,
    # whose length is known.  Built from generators, the freed tuples piled up
    # on the per-size free lists: over 100 KB across 5,000 calls of each.  Each
    # call reads a 12-cell tableau with its own row count, so that it fills
    # no free list that another call here reads.
    three = validate_tableau(3, (5, 4, 3), [[1, 1, 1, 1, 2], [2, 2, 2, 3], [3, 3, 3]])
    four = [[1, 1, 1, 2], [2, 2, 3], [3, 3, 4], [4, 4]]
    five = tableau_to_pattern(validate_tableau(5, (3, 3, 2, 2, 2), [[1, 1, 2], [2, 2, 3], [3, 3], [4, 4], [5, 5]]))
    calls = {
        "shape": lambda: three.shape,
        "validate_tableau": lambda: validate_tableau(4, (4, 3, 3, 2), four),
        "pattern_to_tableau": lambda: pattern_to_tableau(five),
    }
    kept = {}
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5000):
                call()
            kept[name] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert all(size < 16 * 1024 for size in kept.values()), kept


def test_bracketing_reference(reference):
    word = far_east_reading(reference)
    assert match_positions(word.letters, 2) == frozenset({3, 4, 5, 8})


def test_bracketing_small_cases():
    assert match_positions((), 1) == frozenset()
    assert match_positions((2, 3, 2, 3), 2) == frozenset({1, 2, 3, 4})


@given(letters=word_st)
def test_single_pass_matches_recursive_oracle(letters):
    for i in (1, 2):
        assert match_positions(letters, i) == recursive_crossing(letters, i)


def test_single_pass_matches_recursive_oracle_exhaustively():
    # every word over {1,2,3} of length at most 8
    words = [()]
    for _ in range(8):
        words = [w + (x,) for w in words for x in (1, 2, 3)] + words
    words = set(words)
    for letters in words:
        for i in (1, 2):
            assert match_positions(letters, i) == recursive_crossing(letters, i)


@settings(max_examples=200)
@given(letters=st.lists(st.integers(min_value=1, max_value=8), max_size=60).map(tuple))
@example(letters=(1, 2, 1))
@example(letters=(1, 1, 2, 2, 1))
@example(letters=(3, 4, 3, 3, 4, 4, 4, 3, 4))
@example(letters=(2, 3, 2, 3, 2, 2, 3, 2))
def test_cancel_matches_recursive_crossing_on_arbitrary_words(letters):
    # Any word, not only a tableau reading: the counts, the leftmost
    # uncrossed i and the rightmost uncrossed i+1, with letter k read from
    # cell (1, k).  The examples empty the unmatched i and open them again.
    word = ReadingWord(letters, tuple((1, k) for k in range(1, len(letters) + 1)))
    for i in range(1, 8):
        crossed = recursive_crossing(letters, i)
        lows = [(1, k) for k, x in enumerate(letters, 1) if x == i and k not in crossed]
        highs = [(1, k) for k, x in enumerate(letters, 1) if x == i + 1 and k not in crossed]
        expected = (len(lows), len(highs), lows[0] if lows else None, highs[-1] if highs else None)
        assert ssyt._cancel(word, i) == expected


def test_crossed_letters_balanced_and_residue_sorted(reference):
    word = far_east_reading(reference)
    for i in range(1, 4):
        crossed = match_positions(word.letters, i)
        crossed_letters = [word.letters[p - 1] for p in sorted(crossed)]
        assert all(x in (i, i + 1) for x in crossed_letters)
        assert crossed_letters.count(i) == crossed_letters.count(i + 1)
        residue = [x for p, x in enumerate(word.letters, 1) if x in (i, i + 1) and p not in crossed]
        assert residue == sorted(residue, reverse=True)  # (i+1)* then i*


def test_string_lengths_reference(reference):
    assert phi_ssyt(reference, 2) == 1
    assert epsilon_ssyt(reference, 2) == 1
    with pytest.raises(IndexError):
        phi_ssyt(reference, 4)


def test_string_lengths_highest_weight():
    hw = validate_tableau(4, (5, 3, 2), [[1, 1, 1, 1, 1], [2, 2, 2], [3, 3]])
    padded = (5, 3, 2, 0)
    for i in range(1, 4):
        assert phi_ssyt(hw, i) == padded[i - 1] - padded[i]
        assert epsilon_ssyt(hw, i) == 0
        assert raise_ssyt(hw, i) is None


def test_lower_reference(reference):
    assert lower_ssyt(reference, 2).rows == ((1, 2, 2, 3, 3), (3, 3), (4, 4))


def test_lower_small_example():
    t = validate_tableau(3, (3, 1), [[1, 1, 2], [2]])
    assert lower_ssyt(t, 2).rows == ((1, 1, 3), (2,))


def test_raise_reference(reference):
    assert raise_ssyt(lower_ssyt(reference, 2), 2) == reference
    t = validate_tableau(3, (3, 1), [[1, 1, 3], [2]])
    assert raise_ssyt(t, 2).rows == ((1, 1, 2), (2,))


def test_lower_absent_when_no_letter():
    t = validate_tableau(3, (2,), [[2, 2]])
    assert lower_ssyt(t, 1) is None


def test_weight_reference(reference):
    assert weight_ssyt(reference) == (1, 3, 3, 2)


def test_weight_small():
    t = validate_tableau(3, (3, 1), [[1, 1, 2], [2]])
    assert weight_ssyt(t) == (2, 2, 0)
    empty = validate_tableau(3, (), [])
    assert weight_ssyt(empty) == (0, 0, 0)


def test_empty_tableau_operators_absent():
    empty = validate_tableau(3, (), [])
    for i in (1, 2):
        assert lower_ssyt(empty, i) is None
        assert raise_ssyt(empty, i) is None
        assert phi_ssyt(empty, i) == 0


def test_column_scan_reference(reference):
    crossed = bracket_columns(reference, 2)
    assert crossed == frozenset({(1, 2), (1, 3), (2, 1), (2, 2)})
    assert phi_columns(reference, 2) == 1
    assert epsilon_columns(reference, 2) == 1
    assert lower_columns(reference, 2) == lower_ssyt(reference, 2)


def test_column_scan_highest_weight_crosses_all_upper_letters():
    hw = validate_tableau(3, (3, 2), [[1, 1, 1], [2, 2]])
    crossed = bracket_columns(hw, 1)
    assert {(r, c) for r, c in crossed if hw.cell(r, c) == 2} == {(2, 1), (2, 2)}


def test_column_scan_single_cell():
    t = validate_tableau(2, (1,), [[1]])
    assert bracket_columns(t, 1) == frozenset()


def test_column_scan_agrees_with_word_scan_cellwise():
    for n, lam in shape_sweep(max_boxes=5, max_rank=3):
        for t in enumerate_tableaux(n, lam):
            word = far_east_reading(t)
            for i in range(1, n):
                by_word = {word.origin[p - 1] for p in match_positions(word.letters, i)}
                assert bracket_columns(t, i) == by_word


@given(t=tableau_st(max_n=8, max_size=20))
def test_column_scan_data_agree_random(t):
    for i in range(1, t.n):
        assert phi_columns(t, i) == phi_ssyt(t, i)
        assert epsilon_columns(t, i) == epsilon_ssyt(t, i)
        assert lower_columns(t, i) == lower_ssyt(t, i)
        assert raise_columns(t, i) == raise_ssyt(t, i)


@given(t=tableau_st(max_n=8, max_size=20))
def test_operator_round_trip_random(t):
    for i in range(1, t.n):
        down = lower_ssyt(t, i)
        if down is not None:
            validate_tableau(down.n, down.shape, down.rows)
            assert raise_ssyt(down, i) == t
        up = raise_ssyt(t, i)
        if up is not None:
            assert lower_ssyt(up, i) == t


def test_enumerate_tableaux_counts_and_order():
    tabs = list(enumerate_tableaux(3, (3, 1)))
    assert len(tabs) == 15
    flat = [sum(t.rows, ()) for t in tabs]
    assert flat == sorted(flat)
    assert len(list(enumerate_tableaux(2, ()))) == 1
    with pytest.raises(ShapeError, match="alphabet bound must be a positive integer"):
        enumerate_tableaux(0, ())
    with pytest.raises(ShapeError, match=r"^shape \(1, 1, 1\) has more than 2 rows$"):
        enumerate_tableaux(2, (1, 1, 1))


def test_enumerate_tableaux_offers_only_rows_that_leave_room_below(monkeypatch):
    # Cell (r, c) is at most n - (λ'_c - r), so on a column as tall as the
    # alphabet each level is offered its one possible row, r, not the
    # n - r + 1 rows r..n.
    offered = {}
    stack_row = ssyt._stack_row

    def counting(rows, filling):
        offered.setdefault(len(filling) + 1, []).append(len(rows))
        return stack_row(rows, filling)

    monkeypatch.setattr(ssyt, "_stack_row", counting)
    first = next(enumerate_tableaux(200, (1,) * 200))
    assert first.rows == tuple((r,) for r in range(1, 201))
    assert offered == {r: [1] for r in range(1, 201)}


def test_serialization_round_trip(reference):
    assert Tableau.from_dict(reference.to_dict()) == reference
    with pytest.raises(ShapeError):
        Tableau.from_dict({"n": 2, "rows": [[1]]})


def test_tableau_fields_cannot_be_assigned(reference):
    with pytest.raises(AttributeError):
        reference.rows = ()
    with pytest.raises(AttributeError):
        reference.n = 1
    assert reference == Tableau.from_dict(reference.to_dict())


def test_operator_images_are_the_validated_and_enumerated_tableaux():
    # An operator image equals, and hashes as, the tableau validate_tableau
    # builds from its rows, on its one walk and on its ordered scans (taken
    # for an int subclass as n), and the tableau the enumerator yields.  All
    # but the last skip the named tuple's __new__, so each must also have its
    # type and its kind.
    class Int(int):
        pass

    n, shape = 4, (3, 1)
    tableaux = list(enumerate_tableaux(n, shape))
    number = {t: k for k, t in enumerate(tableaux)}
    lowered = [u for t in tableaux for i in range(1, n) if (u := lower_ssyt(t, i)) is not None]
    raised = [u for t in tableaux for i in range(1, n) if (u := raise_ssyt(t, i)) is not None]
    assert lowered and raised
    for u in lowered + raised:
        walked = validate_tableau(n, shape, [list(row) for row in u.rows])
        scanned = validate_tableau(Int(n), shape, u.rows)
        enumerated = tableaux[number[u]]
        assert u == walked == scanned == enumerated
        assert hash(u) == hash(walked) == hash(scanned) == hash(enumerated)
        assert all(type(x) is Tableau and x.kind == "tableau" for x in (u, walked, scanned))


def test_verify_rejects_a_bijection_that_returns_its_argument(monkeypatch):
    # At n = 1 the pattern and the tableau of shape (1,) have the same n and
    # rows; only the type tag keeps them apart, so an identity "bijection"
    # must still miss the tableaux and fail the round trip.
    monkeypatch.setattr(bijection, "pattern_to_tableau", lambda p: p)
    record = crystal.verify_shape(1, (1,))
    failed = {name: [d["rule"] for d in c["details"]] for name, c in record["checks"].items() if not c["pass"]}
    assert failed == {"isomorphism": ["surjective", "into-target"], "round-trip": ["round-trip"]}
    assert record["pass"] is False
