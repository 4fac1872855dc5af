import tracemalloc
from itertools import islice, product

import pytest
from hypothesis import given

from conftest import pattern_st
from gtcrystal import (
    GTPattern,
    InterleaveError,
    LengthError,
    NonNegativityError,
    ShapeError,
    TableauError,
    along_word,
    coroot_pairing,
    diamond_a,
    diamond_b,
    enumerate_patterns,
    enumerate_tableaux,
    epsilon_gtp,
    highest_weight_elements,
    lower_gtp,
    partitions_up_to,
    pattern_model,
    phi_gtp,
    raise_gtp,
    reduced_long_word,
    string_datum,
    sum_a,
    sum_b,
    tableau_model,
    validate_pattern,
    validate_tableau,
    weight_gtp,
)
from gtcrystal.core import MAX_LEVELS, as_rows, quote, require_positive
from sweeps import shape_sweep


@pytest.fixture
def worked():
    """The running example pattern: top (3,1,0), middle (3,1), bottom (2)."""
    return validate_pattern(3, [[3, 1, 0], [3, 1], [2]])


def test_validate_accepts_worked_example(worked):
    assert worked.rows == ((3, 1, 0), (3, 1), (2,))
    assert worked.entry(3, 1) == 3
    assert worked.entry(1, 1) == 2
    assert worked.entry(2, 3) == 0  # outside the triangle
    assert worked.entry(0, 1) == 0


def test_validate_rejects_interleave_violation():
    with pytest.raises(InterleaveError) as err:
        validate_pattern(3, [[3, 1, 0], [3, 2], [2]])
    assert (err.value.i, err.value.j) == (2, 2)


def test_validate_rejects_negative_entry():
    with pytest.raises(NonNegativityError):
        validate_pattern(3, [[3, 1, 0], [3, 1], [-1]])


def test_validate_rejects_malformed_triangle():
    with pytest.raises(ShapeError):
        validate_pattern(3, [[3, 1, 0], [3, 1]])
    with pytest.raises(ShapeError):
        validate_pattern(2, [[2, 0], [1, 1]])
    with pytest.raises(ShapeError):
        validate_pattern(2, [[2.5, 0], [1]])


@pytest.mark.parametrize(
    ("rows", "error", "message", "ij"),
    [
        ([[3, -1, 0], [3, 1], [True]], ShapeError, "entries must be integers, got True", None),
        ([[3, 1, 0], [4, 1], [-1]], NonNegativityError, "entry (1,1) = -1 is negative", None),
        ([[3, -1, 0], [3, 1], [-2]], NonNegativityError, "entry (3,2) = -1 is negative", None),
        ([[3, 1, 0], [3, 2], [4]], InterleaveError, "entry (2,2) = 2 exceeds entry (3,2) = 1", (2, 2)),
        ([[3, 1, 0], [4, 2], [2]], InterleaveError, "entry (2,1) = 4 exceeds entry (3,1) = 3", (2, 1)),
        ([[3, 1, 0], [0, 2], [0]], InterleaveError, "entry (2,1) = 0 is below entry (3,2) = 1", (2, 1)),
        ([[1, 3, 0], [2, 0], [0]], InterleaveError, "entry (2,1) = 2 exceeds entry (3,1) = 1", (2, 1)),
    ],
    ids=["type", "negative", "upper-negative", "upper-pair", "left-entry", "below", "exceeds-before-below"],
)
def test_validate_words_the_first_fault_in_scan_order(rows, error, message, ij):
    # The validator checks the form and type of every row first, then every
    # entry's sign, then the interleaving of each row pair top-down, left to
    # right, and at one entry "exceeds" before "is below": each triangle also
    # holds a later fault, which the first one hides.
    with pytest.raises(error) as err:
        validate_pattern(3, rows)
    assert str(err.value) == message
    if ij is not None:
        assert (err.value.i, err.value.j) == ij


def by_ordered_scans(n, rows):
    """What validate_pattern should give: the canonical rows the three ordered
    scans accept, or the first fault they word, as ``fault`` writes it."""
    try:
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
            for j, (mid, upper, lower) in enumerate(zip(rows[k], rows[k - 1], rows[k - 1][1:]), start=1):
                if mid > upper:
                    raise InterleaveError(i, j, f"entry ({i},{j}) = {mid} exceeds entry ({i+1},{j}) = {upper}")
                if mid < lower:
                    raise InterleaveError(i, j, f"entry ({i},{j}) = {mid} is below entry ({i+1},{j+1}) = {lower}")
    except ValueError as exc:
        return fault(exc)
    return rows


def by_validator(n, rows):
    try:
        pattern = validate_pattern(n, rows)
    except ValueError as exc:
        return fault(exc)
    assert all(type(row) is tuple for row in pattern.rows)
    return pattern.rows


def fault(exc):
    """An error as text: its type, message and, for InterleaveError, its coordinates."""
    where = f" at {(exc.i, exc.j)}" if isinstance(exc, InterleaveError) else ""
    return f"{type(exc).__name__}: {exc}{where}"


class Count(int):
    """An int subclass: the ordered scans accept it, the one-walk accept does not."""


def test_the_one_walk_accept_of_validate_pattern_is_exact():
    # Every triangle with n <= 3 and entries in -1..2, as tuples and as lists,
    # and odd-typed inputs: validate_pattern accepts exactly what the ordered
    # scans accept, with the same rows, and words every other input as they do.
    accepted = rejected = 0
    for n in range(1, 4):
        for entries in product(range(-1, 3), repeat=n * (n + 1) // 2):
            it = iter(entries)
            rows = tuple(tuple(next(it) for _ in range(width)) for width in range(n, 0, -1))
            expected = by_ordered_scans(n, rows)
            for form in (rows, [list(row) for row in rows], [rows[0], *map(list, rows[1:])]):
                assert by_validator(n, form) == expected, (n, form)
            rejected += isinstance(expected, str)
            accepted += not isinstance(expected, str)
    # 4 + 64 + 4,096 triangles: 3 + 10 + 35 patterns.
    assert (accepted, rejected) == (48, 4116)
    odd = [
        (2, [[True, 0], [1]]),
        (2, [[1, 0], [False]]),
        (2, [[1.0, 0], [1]]),
        (2, [[1, 0], [0.0]]),
        (2, [[Count(1), 0], [Count(1)]]),
        (2, [[2, Count(0)], [1]]),
        (2, [[2, Count(1)], [Count(2)]]),
        (2, [[2, 0], [1, 0]]),
        (2, [[2], [1]]),
        (2, [[2, 0, 0], [1]]),
        (2, [[2, 0]]),
        (2, [[2, 0], [1], [0]]),
        (2, [[2, 0], []]),
        (1, [()]),
        (2, ["20", [1]]),
        (2, [range(2, -1, -2), [1]]),
        (2, [[2, 0], None]),
        (2, ((2, 0), 1)),
        (2, "2,0/1"),
        (2, None),
        (True, [[1]]),
        (0, []),
        (-1, [[1]]),
        (2.0, [[1, 0], [1]]),
        (Count(2), [[1, 0], [1]]),
        (Count(2), [[1, 0], [2]]),
    ]
    outcomes = [by_validator(n, rows) for n, rows in odd]
    assert outcomes == [by_ordered_scans(n, rows) for n, rows in odd]
    assert [k for k, outcome in enumerate(outcomes) if not isinstance(outcome, str)] == [4, 5, 6, 24]


def test_diamond_a_worked_example(worked):
    assert diamond_a(worked, 1, 1) == 1  # 2 - 0 + 0 - 1
    assert diamond_a(worked, 2, 1) == 1
    assert diamond_a(worked, 2, 2) == 1
    assert diamond_a(worked, 2, 5) == 0  # zero beyond the row


def test_diamond_b_worked_example(worked):
    assert diamond_b(worked, 1, 1) == 1  # -2 + 0 - 0 + 3
    assert diamond_b(worked, 2, 2) == -1
    assert diamond_b(worked, 2, 9) == 0


def test_diamond_label_range(worked):
    with pytest.raises(IndexError):
        diamond_a(worked, 3, 1)
    with pytest.raises(IndexError):
        diamond_b(worked, 0, 1)


def test_sums_worked_example(worked):
    assert sum_a(worked, 1, 1) == 1
    assert sum_a(worked, 2, 1) == 2
    assert sum_a(worked, 2, 2) == 1
    assert sum_b(worked, 1, 1) == 1
    assert sum_b(worked, 2, 1) == 0
    assert sum_b(worked, 2, 2) == -1
    with pytest.raises(IndexError):
        sum_a(worked, 2, 4)
    with pytest.raises(IndexError):
        sum_b(worked, 2, -1)


def test_weight_worked_example(worked):
    assert weight_gtp(worked) == (2, 2, 0)


def test_weight_degenerate():
    single = validate_pattern(1, [[5]])
    assert weight_gtp(single) == (5,)
    hw = validate_pattern(3, [[3, 1, 0], [3, 1], [3]])
    assert weight_gtp(hw) == (3, 1, 0)


def test_string_lengths_worked_example(worked):
    assert phi_gtp(worked, 1) == 1
    assert phi_gtp(worked, 2) == 2
    assert epsilon_gtp(worked, 1) == 1
    assert epsilon_gtp(worked, 2) == 0
    with pytest.raises(IndexError):
        phi_gtp(worked, 3)


def test_string_lengths_highest_weight():
    hw = validate_pattern(4, [[5, 3, 2, 0], [5, 3, 2], [5, 3], [5]])
    padded = (5, 3, 2, 0)
    for i in range(1, 4):
        assert phi_gtp(hw, i) == padded[i - 1] - padded[i]
        assert epsilon_gtp(hw, i) == 0
        assert raise_gtp(hw, i) is None


def test_lower_worked_example(worked):
    assert lower_gtp(worked, 1).rows == ((3, 1, 0), (3, 1), (1,))
    assert lower_gtp(worked, 2).rows == ((3, 1, 0), (2, 1), (2,))


def test_raise_inverts_worked_example(worked):
    assert raise_gtp(lower_gtp(worked, 2), 2) == worked
    assert raise_gtp(validate_pattern(3, [[3, 1, 0], [3, 1], [1]]), 1) == worked


def test_lower_on_empty_crystal():
    zero = validate_pattern(2, [[0, 0], [0]])
    assert lower_gtp(zero, 1) is None
    assert raise_gtp(zero, 1) is None


def test_lowering_tie_break_takes_largest_index():
    # ties among the partial sums: the decremented entry is the rightmost one
    hw = validate_pattern(3, [[3, 1, 0], [3, 1], [3]])
    assert lower_gtp(hw, 2).rows == ((3, 1, 0), (3, 0), (3,))
    tied = validate_pattern(3, [[3, 2, 0], [3, 1], [2]])
    assert sum_a(tied, 2, 1) == sum_a(tied, 2, 2) == 1
    assert lower_gtp(tied, 2).rows == ((3, 2, 0), (3, 0), (2,))


def test_raising_tie_break_takes_smallest_index():
    tied = validate_pattern(3, [[3, 2, 0], [2, 1], [1]])
    assert sum_b(tied, 2, 1) == sum_b(tied, 2, 2) == 1
    assert raise_gtp(tied, 2).rows == ((3, 2, 0), (3, 1), (1,))


def test_highest_weight_pattern_shape():
    # The unique source of each model: the pattern whose row i repeats the
    # first i parts of the shape, and the tableau whose row r holds only r.
    for n, lam, pattern_rows, tableau_rows in (
        (3, (3, 1), ((3, 1, 0), (3, 1), (3,)), ((1, 1, 1), (2,))),
        (2, (2,), ((2, 0), (2,)), ((1, 1),)),
        (1, (4,), ((4,),), ((1, 1, 1, 1),)),
    ):
        patterns = highest_weight_elements(pattern_model(n), list(enumerate_patterns(n, lam)))
        assert [p.rows for p in patterns] == [pattern_rows]
        tableaux = highest_weight_elements(tableau_model(n), list(enumerate_tableaux(n, lam)))
        assert [t.rows for t in tableaux] == [tableau_rows]


def test_enumerate_counts():
    assert len(list(enumerate_patterns(2, (2,)))) == 3
    assert len(list(enumerate_patterns(3, (3, 1)))) == 15
    assert len(list(enumerate_patterns(3, (2, 1)))) == 8
    assert len(list(enumerate_patterns(3, ()))) == 1
    assert len(list(enumerate_patterns(1, (4,)))) == 1


def test_enumerate_order_is_lexicographic_on_concatenation():
    flat = [sum(p.rows, ()) for p in enumerate_patterns(3, (2, 1))]
    assert flat == sorted(flat)
    assert [p.rows for p in enumerate_patterns(2, (2,))] == [
        ((2, 0), (0,)),
        ((2, 0), (1,)),
        ((2, 0), (2,)),
    ]


def test_enumerators_match_brute_force():
    # Oracle: every filling of the free entries or cells, in lexicographic
    # order, kept when the validator accepts it.  It shares no code with the
    # level walks of either enumerator.
    shapes = [(n, lam) for n in range(1, 5) for lam in partitions_up_to(4, n)]
    assert len(shapes) == 37
    for n, lam in shapes:
        top = list(lam) + [0] * (n - len(lam))
        patterns = []
        for flat in product(range(top[0] + 1), repeat=n * (n - 1) // 2):
            entries = iter(flat)
            rows = [top] + [list(islice(entries, m)) for m in range(n - 1, 0, -1)]
            try:
                patterns.append(validate_pattern(n, rows))
            except InterleaveError:
                pass
        assert list(enumerate_patterns(n, lam)) == patterns, (n, lam)
        tableaux = []
        for flat in product(range(1, n + 1), repeat=sum(lam)):
            letters = iter(flat)
            rows = [list(islice(letters, m)) for m in lam]
            try:
                tableaux.append(validate_tableau(n, lam, rows))
            except TableauError:
                pass
        assert list(enumerate_tableaux(n, lam)) == tableaux, (n, lam)


def test_enumerators_check_their_arguments_when_called():
    # The walks are lazy, but a bad argument raises when the enumerator is
    # called, before any element is taken.
    with pytest.raises(LengthError, match="more than n=2"):
        enumerate_patterns(2, (1, 1, 1))
    with pytest.raises(ShapeError, match="alphabet bound"):
        enumerate_tableaux(0, ())
    with pytest.raises(ShapeError, match="more than 2 rows"):
        enumerate_tableaux(2, (1, 1, 1))
    # Each row is one nested stage of the walk, so the row count is capped
    # far below the depth that overflows the C stack (about 50,000 crashed).
    with pytest.raises(ShapeError, match=f"row count must be at most {MAX_LEVELS}, got {MAX_LEVELS + 1}"):
        enumerate_patterns(MAX_LEVELS + 1, ())
    with pytest.raises(ShapeError, match=f"shape has {MAX_LEVELS + 1} rows, more than {MAX_LEVELS}"):
        enumerate_tableaux(MAX_LEVELS + 1, (1,) * (MAX_LEVELS + 1))


def test_the_deepest_walk_makes_its_element():
    # MAX_LEVELS rows nest MAX_LEVELS - 1 stages, and taking the first
    # element recurses through all of them.
    assert [len(row) for row in next(enumerate_patterns(MAX_LEVELS, (1,))).rows] == list(range(MAX_LEVELS, 0, -1))


@pytest.mark.parametrize(
    "enumerator, first_rows",
    [
        (enumerate_patterns, ((5, 4, 3, 2, 1, 0), (4, 3, 2, 1, 0), (3, 2, 1, 0), (2, 1, 0), (1, 0), (0,))),
        (enumerate_tableaux, ((1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3), (4, 4), (5,))),
    ],
    ids=["patterns", "tableaux"],
)
def test_first_element_is_made_without_the_rest(enumerator, first_rows):
    # (5,4,3,2,1) at n = 6 has 32,768 elements; a list of them peaks at
    # several megabytes, while the depth-first walk holds one partial
    # element per level and, for tableaux, the candidate rows.
    tracemalloc.start()
    try:
        first = next(enumerator(6, (5, 4, 3, 2, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.rows == first_rows
    assert peak < 200_000


def test_enumerate_yields_distinct_valid_patterns():
    seen = set()
    for p in enumerate_patterns(4, (2, 2, 1)):
        validate_pattern(p.n, p.rows)
        assert p not in seen
        seen.add(p)


@given(p=pattern_st())
def test_boundary_diamond_signs(p):
    for i in range(1, p.n):
        assert diamond_a(p, i, 0) <= 0
        assert diamond_b(p, i, i + 1) <= 0


@given(p=pattern_st())
def test_pairing_axiom_on_random_patterns(p):
    wt = weight_gtp(p)
    for i in range(1, p.n):
        assert phi_gtp(p, i) - epsilon_gtp(p, i) == coroot_pairing(wt, i)


@given(p=pattern_st())
def test_operator_round_trip_on_random_patterns(p):
    for i in range(1, p.n):
        down = lower_gtp(p, i)
        if down is not None:
            assert raise_gtp(down, i) == p
        up = raise_gtp(p, i)
        if up is not None:
            assert lower_gtp(up, i) == p


def test_string_lengths_count_operator_applications():
    for n, lam in shape_sweep(max_boxes=5, max_rank=3):
        for p in enumerate_patterns(n, lam):
            for i in range(1, n):
                steps = 0
                current = p
                while (nxt := lower_gtp(current, i)) is not None:
                    current = nxt
                    steps += 1
                assert steps == phi_gtp(p, i)
                steps = 0
                current = p
                while (nxt := raise_gtp(current, i)) is not None:
                    current = nxt
                    steps += 1
                assert steps == epsilon_gtp(p, i)


def test_reduced_long_word():
    assert reduced_long_word(1) == ()
    assert reduced_long_word(2) == (1,)
    assert reduced_long_word(3) == (1, 2, 1)
    assert reduced_long_word(4) == (1, 2, 1, 3, 2, 1)


def test_string_datum_worked_example(worked):
    datum = string_datum(worked)
    assert list(datum.items()) == [((1, 2), 1), ((1, 3), 0), ((2, 3), 0)]
    assert along_word(datum, 3) == (1, 0, 0)


def test_string_datum_highest_weight_vanishes():
    datum = string_datum(validate_pattern(4, [[4, 2, 1, 0], [4, 2, 1], [4, 2], [4]]))
    assert all(v == 0 for v in datum.values())


def test_string_datum_two_row_case():
    datum = string_datum(validate_pattern(2, [[2, 0], [0]]))
    assert datum[1, 2] == 2


@given(p=pattern_st())
def test_string_datum_non_negative(p):
    assert all(v >= 0 for v in string_datum(p).values())


def test_string_datum_rejects_non_interleaving_rows():
    broken = GTPattern(2, ((0, 0), (1,)))  # unvalidated; d[1,2] = 0 - 1
    with pytest.raises(RuntimeError, match=r"negative string exponent d\[1,2\] = -1"):
        string_datum(broken)


def test_pattern_serialization_round_trip(worked):
    assert GTPattern.from_dict(worked.to_dict()) == worked
    with pytest.raises(ShapeError):
        GTPattern.from_dict({"n": 3})


def test_pretty_renders_triangle(worked):
    lines = worked.pretty().splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["3", "1", "0"]
    assert lines[2].strip() == "2"


def test_degenerate_rank_one():
    p = validate_pattern(1, [[3]])
    assert list(enumerate_patterns(1, (3,))) == [p]
    with pytest.raises(IndexError):
        phi_gtp(p, 1)
