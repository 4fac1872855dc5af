from itertools import product

import pytest
from hypothesis import given

from conftest import pattern_st, tableau_st
from gtcrystal import (
    GTPattern,
    diamond_a,
    diamond_b,
    enumerate_patterns,
    enumerate_tableaux,
    epsilon_gtp,
    epsilon_ssyt,
    letter_count_in_row,
    lower_gtp,
    lower_ssyt,
    pattern_to_tableau,
    phi_gtp,
    phi_ssyt,
    raise_gtp,
    raise_ssyt,
    sum_a,
    sum_b,
    tableau_to_pattern,
    validate_pattern,
    validate_tableau,
    weight_gtp,
    weight_ssyt,
)
from sweeps import letter_count, shape_sweep


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


def test_the_bijection_guard_is_exact():
    # Every triangle with n <= 3 and entries in -1..3: the validator inside
    # pattern_to_tableau raises RuntimeError exactly on the triangles that
    # validate_pattern rejects, and maps every pattern to its tableau.
    rejected = mapped = 0
    for n in range(1, 4):
        for entries in product(range(-1, 4), repeat=n * (n + 1) // 2):
            it = iter(entries)
            rows = tuple(tuple(next(it) for _ in range(width)) for width in range(n, 0, -1))
            try:
                pattern = validate_pattern(n, rows)
            except ValueError:
                with pytest.raises(RuntimeError, match="^bijection produced an invalid tableau: "):
                    pattern_to_tableau(GTPattern(n, rows))
                rejected += 1
            else:
                assert tableau_to_pattern(pattern_to_tableau(GTPattern(n, rows))) == pattern
                mapped += 1
    assert (rejected, mapped) == (15619, 136)


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


def test_counting_identities_exhaustive():
    for n, lam in shape_sweep(max_boxes=5):
        for p in enumerate_patterns(n, lam):
            t = pattern_to_tableau(p)
            for i in range(1, n + 1):
                for k in range(1, n + 1):
                    assert letter_count_in_row(p, i, k) == letter_count(t, i, k)
            for i in range(1, n):
                for j in range(0, i + 1):
                    assert diamond_a(p, i, j) == letter_count(t, i, j) - letter_count(t, i + 1, j + 1)
                for j in range(1, i + 2):
                    assert diamond_b(p, i, j) == letter_count(t, i + 1, j) - letter_count(t, i, j - 1)
                for ell in range(0, i + 2):
                    tail = sum(letter_count(t, i, r) for r in range(ell, n + 1)) - sum(
                        letter_count(t, i + 1, r) for r in range(ell + 1, n + 1)
                    )
                    assert sum_a(p, i, ell) == tail
                    head = sum(letter_count(t, i + 1, r) for r in range(1, ell + 1)) - sum(
                        letter_count(t, i, r) for r in range(1, ell)
                    )
                    assert sum_b(p, i, ell) == head


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
