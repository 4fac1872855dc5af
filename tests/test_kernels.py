"""The one-pass operator kernels against the literal reference forms.

The oracles here use only ``sum_a``/``sum_b`` on patterns and, on tableaux,
the cells of ``uncrossed_cells``: the positions that ``match_positions``
leaves uncrossed in ``far_east_reading(t)``, mapped through the reading
word's origins.  Both oracles live in ``tests/sweeps.py``.  The expected
images are built with ``validate_pattern``/``validate_tableau``, never with
the kernels.  The guard tests cover each local check that replaced full
revalidation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from gtcrystal import (
    GTPattern,
    Tableau,
    enumerate_patterns,
    enumerate_tableaux,
    epsilon_gtp,
    epsilon_ssyt,
    lower_gtp,
    lower_ssyt,
    pattern_to_tableau,
    phi_gtp,
    phi_ssyt,
    raise_gtp,
    raise_ssyt,
    sum_a,
    sum_b,
    validate_pattern,
    validate_tableau,
)
from gtcrystal.gtpattern import _with_entry_changed
from gtcrystal.ssyt import _with_cell_changed
from conftest import pattern_st
from sweeps import tableau_with, uncrossed_cells
from test_acceptance import full_sweep

SRC = Path(__file__).resolve().parents[1] / "src"


def changed_entry(before, after):
    """The single (i, j, delta) where two patterns differ."""
    diffs = [
        (before.n - k, j + 1, y - x)
        for k, (old, new) in enumerate(zip(before.rows, after.rows))
        for j, (x, y) in enumerate(zip(old, new))
        if x != y
    ]
    assert len(diffs) == 1, diffs
    return diffs[0]


def changed_cell(before, after):
    """The single (r, c, letter) where two tableaux of one shape differ."""
    diffs = [
        (r + 1, c + 1, y)
        for r, (old, new) in enumerate(zip(before.rows, after.rows))
        for c, (x, y) in enumerate(zip(old, new))
        if x != y
    ]
    assert len(diffs) == 1, diffs
    return diffs[0]


def pattern_with(p, i, j, delta):
    rows = [list(row) for row in p.rows]
    rows[p.n - i][j - 1] += delta
    return validate_pattern(p.n, rows)


def assert_pattern_kernels_match_partial_sums(p):
    for i in range(1, p.n):
        a = {j: sum_a(p, i, j) for j in range(1, i + 1)}
        b = {j: sum_b(p, i, j) for j in range(1, i + 1)}
        phi, eps = max(a.values()), max(b.values())
        assert phi_gtp(p, i) == phi
        assert epsilon_gtp(p, i) == eps

        down = lower_gtp(p, i)
        if phi == 0:
            assert down is None
        else:
            largest = max(j for j in a if a[j] == phi)  # lowering: largest maximizer
            assert changed_entry(p, down) == (i, largest, -1)
            assert down == pattern_with(p, i, largest, -1)

        up = raise_gtp(p, i)
        if eps == 0:
            assert up is None
        else:
            smallest = min(j for j in b if b[j] == eps)  # raising: smallest maximizer
            assert changed_entry(p, up) == (i, smallest, +1)
            assert up == pattern_with(p, i, smallest, +1)


def test_pattern_kernels_match_partial_sum_reference():
    for n, lam in full_sweep():
        for p in enumerate_patterns(n, lam):
            assert_pattern_kernels_match_partial_sums(p)


@given(p=pattern_st(max_n=8, max_part=50))
def test_pattern_kernels_match_partial_sums_past_desk_scale(p):
    # Eight rows and entries up to 50 reach far past the desk sweep's shapes.
    assert_pattern_kernels_match_partial_sums(p)


def test_tableau_kernels_match_literal_bracketing():
    for n, lam in full_sweep():
        for t in enumerate_tableaux(n, lam):
            for i in range(1, n):
                lows = uncrossed_cells(t, i, i)
                highs = uncrossed_cells(t, i, i + 1)
                assert phi_ssyt(t, i) == len(lows)
                assert epsilon_ssyt(t, i) == len(highs)

                down = lower_ssyt(t, i)
                if not lows:
                    assert down is None
                else:
                    r, c = lows[0]  # leftmost uncrossed i in the reading word
                    assert changed_cell(t, down) == (r, c, i + 1)
                    assert down == tableau_with(t, r, c, i + 1)

                up = raise_ssyt(t, i)
                if not highs:
                    assert up is None
                else:
                    r, c = highs[-1]  # rightmost uncrossed i+1 in the reading word
                    assert changed_cell(t, up) == (r, c, i)
                    assert up == tableau_with(t, r, c, i)


LOWER_BROKEN = GTPattern(2, ((0, 5), (0,)))  # unvalidated; A_1 at level 1 is -5
RAISE_BROKEN = GTPattern(2, ((5, 0), (6,)))  # unvalidated; B_1 at level 1 is -1
LOWER_MESSAGE = "negative lowering string length -5 at level 1 indicates a bug"
RAISE_MESSAGE = "negative raising string length -1 at level 1 indicates a bug"


def test_negative_string_length_raises():
    # One scan computes both lengths, so every operator checks both.
    for operator in (phi_gtp, epsilon_gtp, lower_gtp, raise_gtp):
        with pytest.raises(RuntimeError, match=f"^{LOWER_MESSAGE}$"):
            operator(LOWER_BROKEN, 1)
        with pytest.raises(RuntimeError, match=f"^{RAISE_MESSAGE}$"):
            operator(RAISE_BROKEN, 1)


def test_negative_string_length_raises_under_optimization():
    script = (
        "from gtcrystal import GTPattern, epsilon_gtp, phi_gtp, lower_gtp, raise_gtp\n"
        "for operator in (phi_gtp, epsilon_gtp, lower_gtp, raise_gtp):\n"
        f"    for p in ({LOWER_BROKEN!r}, {RAISE_BROKEN!r}):\n"
        "        try:\n"
        "            operator(p, 1)\n"
        "        except RuntimeError as exc:\n"
        "            print('raised', exc)\n"
        "        else:\n"
        "            print('returned')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-O", "-c", script]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True, timeout=60)
    expected = [f"raised {message}" for message in (LOWER_MESSAGE, RAISE_MESSAGE) * 4]
    assert out.stdout.splitlines() == expected, out.stdout + out.stderr


@pytest.mark.parametrize(
    "rows, i, j, delta, witness, reason",
    [
        (((1, 0), (0,)), 1, 1, -1, "f_1 on 1,0/0", "is negative"),
        (((1, 0), (1,)), 1, 1, +1, "e_1 on 1,0/1", "exceeds entry (2,1)"),
        (((2, 1), (1,)), 1, 1, -1, "f_1 on 2,1/1", "is below entry (2,2)"),
        (((3, 2, 0), (2, 1), (1,)), 2, 2, +1, "e_2 on 3,2,0/2,1/1", "exceeds entry (1,1)"),
        (((3, 2, 0), (3, 1), (3,)), 2, 1, -1, "f_2 on 3,2,0/3,1/3", "is below entry (1,1)"),
    ],
    ids=["non-negative", "upper-left", "upper-right", "lower-left", "lower-right"],
)
def test_pattern_local_guard(rows, i, j, delta, witness, reason):
    p = validate_pattern(len(rows), rows)
    with pytest.raises(RuntimeError) as err:
        _with_entry_changed(p, i, j, delta)
    assert str(err.value).startswith(f"crystal operator {witness} produced an invalid pattern at ({i},{j}): ")
    assert reason in str(err.value)


@pytest.mark.parametrize(
    "n, rows, cell, letter, witness, reason",
    [
        (2, ((1, 2),), (1, 2), 3, "f_2 on 1,2", "outside 1..2"),
        (3, ((2, 2),), (1, 2), 1, "e_1 on 2,2", "left neighbour"),
        (2, ((1, 1),), (1, 1), 2, "f_1 on 1,1", "right neighbour"),
        (3, ((1, 2), (2,)), (2, 1), 1, "e_1 on 1,2/2", "cell above"),
        (3, ((1,), (2,)), (1, 1), 2, "f_1 on 1/2", "cell below"),
    ],
    ids=["alphabet", "left", "right", "above", "below"],
)
def test_tableau_local_guard(n, rows, cell, letter, witness, reason):
    t = validate_tableau(n, tuple(len(row) for row in rows), rows)
    r, c = cell
    with pytest.raises(RuntimeError) as err:
        _with_cell_changed(t, r, c, letter)
    assert str(err.value).startswith(f"crystal operator {witness} produced an invalid tableau at ({r},{c}): ")
    assert reason in str(err.value)


def test_bijection_rejects_a_negative_layer():
    # Unvalidated; row 1 is not contained in row 2.  The negative layer fills
    # no cells, so tableau row 1 outgrows the top row and the validator rejects it.
    broken = GTPattern(2, ((1, 0), (2,)))
    message = "bijection produced an invalid tableau: row lengths (2,) do not match shape (1,)"
    with pytest.raises(RuntimeError) as err:
        pattern_to_tableau(broken)
    assert str(err.value) == message


def test_local_guards_share_unchanged_rows():
    p = validate_pattern(3, [[3, 1, 0], [3, 1], [2]])
    down = lower_gtp(p, 1)
    assert down.rows[0] is p.rows[0] and down.rows[1] is p.rows[1]
    t = Tableau(3, ((1, 1), (2,)))
    lowered = lower_ssyt(t, 1)
    assert lowered.rows == ((1, 2), (2,)) and lowered.rows[1] is t.rows[1]
