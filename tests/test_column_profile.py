"""The paper's column profile of label i, read from three pattern rows.

For a pattern p with tableau tau = pattern_to_tableau(p) and a label i, let
D(c) be the number of letters i minus the number of letters i+1 in columns
1..c of tau.  Letter k fills columns x_{k-1,r}+1 .. x_{k,r} of tableau row r
(x_{k,r} is ``p.entry(k, r)``), so

    D(c) = sum_r [clamp(c, x_{i-1,r}, x_{i,r}) - x_{i-1,r}]
         - sum_r [clamp(c, x_{i,r}, x_{i+1,r}) - x_{i,r}]

with clamp(c, lo, hi) = min(max(c, lo), hi).  These tests check that profile
formula for every column cut c in 0..lambda_1 against D read from tau's
cells, and step 2 of the per-label proof: D(entry(i, j)) equals the partial
diamond sum A_j = ``sum_a(p, i, j)`` for every j in 1..i.  They cover every
label of every shape of ``shape_sweep()`` and random patterns of up to eight
rows with entries up to 30.  No tableau operator is used: the profile is
read from the bijection's cells alone.

Step 1, the word lemma: phi_ssyt(tau, i) = max D over the cuts c in
0..lambda_1, and epsilon_ssyt(tau, i) = max D - D(lambda_1).  It is checked
on the same inputs against the string lengths of ``ssyt``, which read the
far-eastern word (no lowering or raising operator is used), and it must
fail when that reading order changes.
"""

import pytest
from hypothesis import given

from conftest import pattern_st
from gtcrystal import enumerate_patterns, pattern_to_tableau, ssyt, sum_a
from sweeps import shape_sweep


def clamp(c, lo, hi):
    return min(max(c, lo), hi)


def profile(p, i, c, below=1):
    """D(c) by the clamp formula; ``below`` is how many rows under row i the
    first clamp's lower bound is read (1 in the paper's formula)."""
    x = p.entry
    rows = range(1, p.n + 1)
    letters_i = sum(clamp(c, x(i - below, r), x(i, r)) - x(i - 1, r) for r in rows)
    return letters_i - sum(clamp(c, x(i, r), x(i + 1, r)) - x(i, r) for r in rows)


def cell_profile(tableau, i):
    """[D(0), ..., D(lambda_1)] counted from the tableau's cells."""
    width = len(tableau.rows[0]) if tableau.rows else 0
    step = [0] * (width + 1)
    for row in tableau.rows:
        for c, letter in enumerate(row, 1):
            step[c] += (letter == i) - (letter == i + 1)
    totals = [0]
    for c in range(1, width + 1):
        totals.append(totals[-1] + step[c])
    return totals


def mismatches(p, below=1):
    """The failed checks on one pattern, as (label, what, index)."""
    t = pattern_to_tableau(p)
    failed = []
    for i in range(1, p.n):
        read = cell_profile(t, i)
        failed += [(i, "profile", c) for c, d in enumerate(read) if profile(p, i, c, below) != d]
        failed += [(i, "sum_a", j) for j in range(1, i + 1) if read[p.entry(i, j)] != sum_a(p, i, j)]
    return failed


def test_column_profile_over_the_sweep():
    checked = 0
    for n, lam in shape_sweep():
        for p in enumerate_patterns(n, lam):
            assert mismatches(p) == [], p
            checked += 1
    assert checked > 1000


@given(p=pattern_st(max_n=8, max_part=30))
def test_column_profile_past_desk_scale(p):
    assert mismatches(p) == []


def test_a_moved_clamp_bound_fires():
    # The mutant reads the first clamp's lower bound from row i-2 instead of
    # row i-1; the profile check must catch it.
    fired = sum(
        len(mismatches(p, below=2)) for n, lam in shape_sweep(max_boxes=5) for p in enumerate_patterns(n, lam)
    )
    assert fired == 1293


def lemma_mismatches(p):
    """The labels i at which the word lemma fails on p's tableau."""
    t = pattern_to_tableau(p)
    failed = []
    for i in range(1, p.n):
        d = cell_profile(t, i)
        if (ssyt.phi_ssyt(t, i), ssyt.epsilon_ssyt(t, i)) != (max(d), max(d) - d[-1]):
            failed.append(i)
    return failed


def test_word_lemma_over_the_sweep():
    pairs = 0
    for n, lam in shape_sweep():
        for p in enumerate_patterns(n, lam):
            assert lemma_mismatches(p) == [], p
            pairs += n - 1
    assert pairs == 3571


@given(p=pattern_st(max_n=8, max_part=30))
def test_word_lemma_past_desk_scale(p):
    assert lemma_mismatches(p) == []


def reordered(key):
    """A mutant of ``far_east_reading`` that reads the same cells sorted by ``key(row, column)``."""
    reading = ssyt.far_east_reading

    def mutant(t):
        word = reading(t)
        pairs = sorted(zip(word.origin, word.letters), key=lambda pair: key(*pair[0]))
        return ssyt.ReadingWord(tuple(x for _, x in pairs), tuple(cell for cell, _ in pairs))

    return mutant


@pytest.mark.parametrize(
    "key, fired",
    [(lambda r, c: (c, r), 1128), (lambda r, c: (-c, -r), 464)],
    ids=["columns left to right", "each column bottom up"],
)
def test_a_changed_reading_order_fires(monkeypatch, key, fired):
    # The (tableau, label) pairs of the sweep at which the lemma fails.
    monkeypatch.setattr(ssyt, "far_east_reading", reordered(key))
    assert sum(len(lemma_mismatches(p)) for n, lam in shape_sweep() for p in enumerate_patterns(n, lam)) == fired
