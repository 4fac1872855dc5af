from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from gtcrystal import (
    LengthError,
    ShapeError,
    as_partition,
    coroot_pairing,
    enumerate_patterns,
    enumerate_tableaux,
    pad,
    partitions_up_to,
    validate_pattern,
    validate_tableau,
    weyl_dimension,
)
from gtcrystal.core import Linear


def test_as_partition_strips_trailing_zeros():
    assert as_partition([3, 1, 0]) == (3, 1)
    assert as_partition([0, 0]) == ()
    assert as_partition([]) == ()


def test_as_partition_rejects_bad_input():
    with pytest.raises(ShapeError):
        as_partition([1, 2])
    with pytest.raises(ShapeError):
        as_partition([2, -1])
    with pytest.raises(ShapeError):
        as_partition([2.0, 1])


def test_pad():
    assert pad((3, 1), 3) == (3, 1, 0)
    assert pad((), 2) == (0, 0)
    assert pad((5, 2, 2), 4) == (5, 2, 2, 0)


def test_pad_rejects_long_partition():
    with pytest.raises(LengthError):
        pad((3, 2, 1), 2)


def test_weyl_dimension_known_values():
    assert weyl_dimension(3, (1,)) == 3
    assert weyl_dimension(3, (3, 1)) == 15
    assert weyl_dimension(3, (2, 1)) == 8
    assert weyl_dimension(4, ()) == 1
    assert weyl_dimension(1, (7,)) == 1


def pairwise_dimension(n, lam):
    """The Weyl product over every pair 1 <= i < j <= n, written out."""
    parts = pad(lam, n)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def test_weyl_dimension_matches_the_pairwise_product():
    for n in range(1, 41):
        for lam in partitions_up_to(5, n):
            assert weyl_dimension(n, lam) == pairwise_dimension(n, lam), (n, lam)
    for n in (100, 200):
        for lam in ((), (1,), (50, 30, 30, 2, 1), (9,) * 12, tuple(range(40, 0, -1)), (200,) * 99 + (1,)):
            assert weyl_dimension(n, lam) == pairwise_dimension(n, lam), (n, lam)


def test_weyl_dimension_rejects_long_partition():
    with pytest.raises(LengthError):
        weyl_dimension(2, (1, 1, 1))


def test_row_count_and_alphabet_bound_must_be_positive_integers():
    # One message for every entry point that takes a row count or an alphabet bound.
    for call, noun in (
        (lambda n: weyl_dimension(n, ()), "row count"),
        (lambda n: enumerate_patterns(n, ()), "row count"),
        (lambda n: validate_pattern(n, []), "row count"),
        (lambda n: enumerate_tableaux(n, ()), "alphabet bound"),
        (lambda n: validate_tableau(n, (), []), "alphabet bound"),
    ):
        for bad in (0, -1, True, 2.0):
            with pytest.raises(ShapeError) as caught:
                call(bad)
            assert str(caught.value) == f"{noun} must be a positive integer, got {bad!r}"


def test_coroot_pairing_values():
    assert coroot_pairing((2, 2, 0), 1) == 0
    assert coroot_pairing((2, 2, 0), 2) == 2


def test_coroot_pairing_range():
    with pytest.raises(IndexError):
        coroot_pairing((2, 2, 0), 3)
    with pytest.raises(IndexError):
        coroot_pairing((2, 2, 0), 0)


@given(
    coords=st.lists(st.integers(-20, 20), min_size=2, max_size=6),
    shift=st.integers(-10, 10),
)
def test_coroot_pairing_constant_shift_invariance(coords, shift):
    shifted = tuple(x + shift for x in coords)
    for i in range(1, len(coords)):
        assert coroot_pairing(tuple(coords), i) == coroot_pairing(shifted, i)


@given(k=st.integers(0, 9), n=st.integers(1, 5))
def test_coroot_pairing_constant_tuple_is_zero(k, n):
    if n < 2:
        return
    weight = (k,) * n
    assert all(coroot_pairing(weight, i) == 0 for i in range(1, n))


def test_partitions_up_to_counts():
    parts = partitions_up_to(6, 4)
    assert () in parts
    assert len(parts) == len(set(parts))
    by_size = {}
    for p in parts:
        by_size.setdefault(sum(p), []).append(p)
    assert len(by_size[4]) == 5
    assert len(by_size[6]) == 9  # partitions of 6 with at most 4 parts
    assert partitions_up_to(4, 2) == [(), (1,), (2,), (1, 1), (3,), (2, 1), (4,), (3, 1), (2, 2)]
    assert partitions_up_to(-1, 2) == []
    assert partitions_up_to(3, 10**9) == partitions_up_to(3, 3)  # at most max_size levels
    # Brute force: multisets of positive parts, then by size and descending within a size.
    every = [c[::-1] for k in range(9) for c in combinations_with_replacement(range(1, 16), k) if sum(c) <= 15]
    for max_size in range(-1, 16):
        for max_parts in range(9):
            expected = [
                p
                for size in range(max_size + 1)
                for p in sorted((q for q in every if sum(q) == size and len(q) <= max_parts), reverse=True)
            ]
            assert partitions_up_to(max_size, max_parts) == expected


def test_a_formal_entry_has_no_value():
    # verify proves the identity checks on formal entries; a form that could
    # be compared, tested for truth or hashed could branch on an entry's value
    # and make the proof cover only one branch.
    x, y = Linear({"x": 1}), Linear({"y": 1})
    for refused in (lambda: x == y, lambda: x != 0, lambda: bool(x), lambda: x < y, lambda: 0 >= x):
        with pytest.raises(TypeError, match="^a formal entry has no value to compare or test$"):
            refused()
    for unhashable in (lambda: hash(x), lambda: {x}):
        with pytest.raises(TypeError, match="unhashable type"):
            unhashable()
    # Forms add and subtract with each other and with integers, and nothing else.
    assert (x + 2 - y).terms == {"x": 1, (): 2, "y": -1}
    assert (5 - x + x).terms == {(): 5} and (x - x).terms == {} and (-x).terms == {"x": -1}
    for other in (0.5, None, "x"):
        with pytest.raises(TypeError):
            x + other
    with pytest.raises(TypeError):
        x * 2
