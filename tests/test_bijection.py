from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pattern_st, tableau_st
from gtcrystal import (
    GTPattern,
    Tableau,
    along_word,
    enumerate_pattern_tableaux,
    enumerate_patterns,
    enumerate_tableaux,
    epsilon_gtp,
    epsilon_ssyt,
    letter_count_in_row,
    lower_gtp,
    lower_ssyt,
    partitions_up_to,
    pattern_to_tableau,
    phi_gtp,
    phi_ssyt,
    raise_gtp,
    raise_ssyt,
    reduced_long_word,
    ssyt,
    string_datum,
    tableau_to_pattern,
    validate_pattern,
    validate_tableau,
    weight_gtp,
    weight_ssyt,
)
from sweeps import full_sweep, shape_sweep, walk_along


@pytest.fixture
def worked():
    return validate_pattern(3, [[3, 1, 0], [3, 1], [2]])


def test_pattern_to_tableau_worked_example(worked):
    assert pattern_to_tableau(worked).rows == ((1, 1, 2), (2,))
    # Unvalidated: row 1 of the pattern is not interleaved, so the fill breaks a column.
    message = "bijection produced an invalid tableau: column 2 does not increase at (2,2): 2 >= 2"
    with pytest.raises(RuntimeError) as err:
        pattern_to_tableau(GTPattern(2, ((2, 2), (1,))))
    assert str(err.value) == message


def filled_by_definition(n, rows):
    # Row r of the tableau holds entry(i, r) - entry(i-1, r) cells of each
    # letter i = r..n, read straight off the triangle, and the tableau ends at
    # its last non-empty row.
    grid = []
    for r in range(1, n + 1):
        row = []
        below = 0  # entry(r-1, r), outside the triangle
        for i in range(r, n + 1):
            here = rows[n - i][r - 1]
            row += [i] * (here - below)
            below = here
        grid.append(row)
    while grid and not grid[-1]:
        grid.pop()
    return grid


def triangles(n, values):
    for entries in product(values, repeat=n * (n + 1) // 2):
        it = iter(entries)
        yield tuple(tuple(next(it) for _ in range(width)) for width in range(n, 0, -1))


def by_definition(n, rows):
    """What pattern_to_tableau should give: validate_tableau's tableau for the
    filling of the definition against the top row, or the RuntimeError message
    that wraps the validator's."""
    try:
        return validate_tableau(n, rows[0], filled_by_definition(n, rows))
    except ValueError as exc:
        return f"bijection produced an invalid tableau: {exc}"


def by_bijection(n, rows):
    try:
        return pattern_to_tableau(GTPattern(n, rows))
    except RuntimeError as err:
        return str(err)


def test_the_bijection_guard_is_exact():
    # Every triangle with n <= 3 and entries in -1..3, and every one with
    # n = 4, entries in 0..2 and a weakly decreasing top row, where the shape
    # passes and the filling decides: pattern_to_tableau raises RuntimeError
    # exactly on the triangles that validate_pattern rejects, and maps every
    # pattern to its tableau.  All 59,049 triangles with n = 4 and entries in
    # 0..2 took 3-4 s on a shared 2-vCPU machine, so only that slice runs.
    slices = [triangles(n, range(-1, 4)) for n in range(1, 4)]
    slices.append(rows for rows in triangles(4, range(3)) if sorted(rows[0], reverse=True) == list(rows[0]))
    rejected = mapped = 0
    for found in slices:
        for rows in found:
            n = len(rows)
            outcome = by_bijection(n, rows)
            assert outcome == by_definition(n, rows)
            try:
                pattern = validate_pattern(n, rows)
            except ValueError:
                assert isinstance(outcome, str)
                rejected += 1
            else:
                assert tableau_to_pattern(outcome) == pattern
                mapped += 1
    # n <= 3: 15,619 rejected and 136 mapped; n = 4: 10,809 and 126.
    assert (rejected, mapped) == (26428, 262)
    # Odd-typed triangles, none of them a pattern.  A bool on top or as n, a
    # zero n and a top row that is not a tuple or list are rejected with the
    # validator's message; a True below the top row counts as 1 in the fill.
    # A float count fails the fill itself.
    odd = [
        (2, ((True, 0), (1,))),
        (2, ((2, False), (1,))),
        (True, ((1,),)),
        (0, ((0,),)),
        (2, (range(1, -1, -1), (1,))),
        (2, ((1, 0), (True,))),
        (3, ((2, 1, 0), (2, 1), (True,))),
    ]
    outcomes = [by_bijection(n, rows) for n, rows in odd]
    assert outcomes == [by_definition(n, rows) for n, rows in odd]
    assert [o if isinstance(o, str) else o.rows for o in outcomes] == [
        "bijection produced an invalid tableau: partition entries must be integers, got True",
        "bijection produced an invalid tableau: partition entries must be integers, got False",
        "bijection produced an invalid tableau: alphabet bound must be a positive integer, got True",
        "bijection produced an invalid tableau: alphabet bound must be a positive integer, got 0",
        "bijection produced an invalid tableau: shape must be an array, got range(1, -1, -1)",
        ((1,),),
        ((1, 2), (2,)),
    ]
    with pytest.raises(TypeError, match="^can't multiply sequence by non-int of type 'float'$"):
        pattern_to_tableau(GTPattern(2, ((2.0, 0), (1,))))


def filled_level_major(n, rows):
    # The same filling made one letter at a time: layer i extends each of
    # tableau rows 1..i by entry(i, r) - entry(i-1, r) cells of i, and a
    # negative count extends a row by nothing.
    grid = [[] for _ in range(n)]
    inner = ()
    for i in range(1, n + 1):
        outer = rows[n - i]
        for r in range(i):
            grid[r].extend([i] * (outer[r] - (inner[r] if r < i - 1 else 0)))
        inner = outer
    while grid and not grid[-1]:
        grid.pop()
    return grid


def by_level_major_fill(n, rows):
    try:
        return validate_tableau(n, rows[0], filled_level_major(n, rows))
    except ValueError as exc:
        return f"bijection produced an invalid tableau: {exc}"


def test_row_by_row_fill_matches_the_level_major_fill_on_patterns():
    patterns = [p for n, lam in full_sweep() for p in enumerate_patterns(n, lam)]
    assert len(patterns) > 1000
    for p in patterns:
        assert pattern_to_tableau(p) == by_level_major_fill(p.n, p.rows)


@st.composite
def negative_triangle_st(draw, max_n=6):
    """A triangle of integers with at least one negative entry, so never a pattern."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[draw(st.integers(min_value=-4, max_value=6)) for _ in range(n - k)] for k in range(n)]
    k = draw(st.integers(min_value=0, max_value=n - 1))
    rows[k][draw(st.integers(min_value=0, max_value=n - k - 1))] = draw(st.integers(min_value=-4, max_value=-1))
    return n, tuple(tuple(row) for row in rows)


@given(triangle=negative_triangle_st())
def test_row_by_row_fill_matches_the_level_major_fill_off_patterns(triangle):
    # The grid handed to validate_tableau is the same, so the RuntimeError
    # text is the one validate_tableau gives for the level-major grid.
    n, rows = triangle
    outcome = by_bijection(n, rows)
    assert isinstance(outcome, str)
    assert outcome == by_level_major_fill(n, rows)


class ReachedTheWordingPath(Exception):
    pass


def test_patterns_never_reach_the_validator(monkeypatch):
    # validate_tableau accepts the filling of every pattern in its one walk,
    # so only a triangle that is not a pattern reaches the checks that word
    # a fault, which open with require_positive.  A guard that sent patterns
    # down that path would keep every output and lose the fast accept.
    def wording(*args):
        raise ReachedTheWordingPath(args)

    monkeypatch.setattr(ssyt, "require_positive", wording)
    mapped = [pattern_to_tableau(p) for n, lam in shape_sweep() for p in enumerate_patterns(n, lam)]
    assert len(mapped) > 1000
    with pytest.raises(ReachedTheWordingPath):
        pattern_to_tableau(GTPattern(2, ((2, 2), (1,))))


def test_the_letter_walk_makes_the_image_of_every_pattern_in_order():
    # Reference: the bijection, which validates every image it makes, so an
    # equal walk makes tableaux although it validates none.
    shapes = [(n, lam) for n in range(1, 5) for lam in partitions_up_to(4, n)]
    assert len(shapes) == 37
    shapes += [(n, lam) for n in range(1, 6) for lam in partitions_up_to(6, n)]
    shapes.append((6, (4, 3, 2, 1)))
    for n, lam in shapes:
        walked = list(enumerate_pattern_tableaux(n, lam))
        assert walked == [pattern_to_tableau(p) for p in enumerate_patterns(n, lam)], (n, lam)
        assert {type(t) for t in walked} == {Tableau}, (n, lam)


def test_pattern_to_tableau_second_vertex():
    p = validate_pattern(3, [[3, 1, 0], [2, 1], [1]])
    assert pattern_to_tableau(p).rows == ((1, 2, 3), (2,))


def test_pattern_to_tableau_highest_weight():
    t = pattern_to_tableau(validate_pattern(4, [[3, 2, 2, 0], [3, 2, 2], [3, 2], [3]]))
    assert t.rows == ((1, 1, 1), (2, 2), (3, 3))


def test_tableau_to_pattern_small_cases():
    t = validate_tableau(3, (3, 1), [[1, 1, 2], [2]])
    assert tableau_to_pattern(t).rows == ((3, 1, 0), (3, 1), (2,))
    t = validate_tableau(3, (3, 1), [[1, 2, 3], [2]])
    assert tableau_to_pattern(t).rows == ((3, 1, 0), (2, 1), (1,))


def test_tableau_to_pattern_reference_tableau():
    # shapes left after deleting 4s, then 3s, then 2s: (5,2), (4), (1)
    t = validate_tableau(4, (5, 2, 2), [[1, 2, 2, 2, 3], [3, 3], [4, 4]])
    assert tableau_to_pattern(t).rows == ((5, 2, 2, 0), (5, 2, 0), (4, 0), (1,))


def test_tableau_to_pattern_rejects_an_invalid_tableau():
    # Unvalidated: column 1 repeats the letter 1, so the letters at most 1
    # have the shape (2, 1), too long for the one-entry bottom row.
    with pytest.raises(RuntimeError) as err:
        tableau_to_pattern(Tableau(3, ((1, 1), (1,))))
    assert str(err.value) == "bijection produced an invalid pattern: row with 1 slots has 2 entries"


def test_round_trip_exhaustive():
    for n, lam in shape_sweep():
        for p in enumerate_patterns(n, lam):
            assert tableau_to_pattern(pattern_to_tableau(p)) == p
        for t in enumerate_tableaux(n, lam):
            assert pattern_to_tableau(tableau_to_pattern(t)) == t


@given(t=tableau_st())
def test_round_trip_random_tableaux(t):
    assert pattern_to_tableau(tableau_to_pattern(t)) == t


def test_letter_count_in_row_worked_example(worked):
    assert letter_count_in_row(worked, 2, 1) == 1
    assert letter_count_in_row(worked, 1, 1) == 2
    assert letter_count_in_row(worked, 1, 3) == 0  # below the letter's row
    with pytest.raises(IndexError):
        letter_count_in_row(worked, 4, 1)
    with pytest.raises(IndexError) as err:
        letter_count_in_row(worked, 1, 4)
    assert str(err.value) == "row 4 out of range 1..3"


def test_weight_preserved_exhaustive():
    for n, lam in shape_sweep():
        for p in enumerate_patterns(n, lam):
            assert weight_gtp(p) == weight_ssyt(pattern_to_tableau(p))


@given(p=pattern_st(max_n=9, max_part=50))
def test_bijection_is_a_crystal_isomorphism_past_desk_scale(p):
    # The paper's theorem on patterns of up to nine rows with entries up to
    # 50: the bijection keeps the weight and, at every label, phi and epsilon,
    # and carries each pattern operator's image (None included) onto the
    # tableau operator's.
    t = pattern_to_tableau(p)
    assert weight_ssyt(t) == weight_gtp(p)
    for i in range(1, p.n):
        assert (phi_ssyt(t, i), epsilon_ssyt(t, i)) == (phi_gtp(p, i), epsilon_gtp(p, i))
        for on_pattern, on_tableau in ((lower_gtp, lower_ssyt), (raise_gtp, raise_ssyt)):
            image = on_pattern(p, i)
            assert on_tableau(t, i) == (None if image is None else pattern_to_tableau(image))


@given(p=pattern_st(max_n=8, max_part=30))
def test_string_exponents_match_the_bracketing_rule_past_desk_scale(p):
    # The string parametrization through the independent route on patterns of
    # up to eight rows with entries up to 30: raising the pattern's tableau
    # maximally along the reduced word with the bracketing rule takes
    # along_word's reading of string_datum steps, and ends at the shape's
    # highest-weight tableau, whose row r holds only r.
    steps, end = walk_along(pattern_to_tableau(p), reduced_long_word(p.n), raise_ssyt)
    assert steps == along_word(string_datum(p), p.n)
    assert end.rows == tuple((r,) * part for r, part in enumerate(p.shape, start=1))
