"""The literal diamond forms against an oracle that reads only ``GTPattern.entry``.

``diamond_a``, ``diamond_b``, ``sum_a``, ``sum_b`` and ``weight_expressions``
read the pattern rows directly, with the bound of ``entry`` written out on
each term.  The oracle below writes every term as an ``entry`` call, whose one
bound (0 outside the triangle 1 <= j <= i <= n) covers them all, so a term
read past its bound, or a bound moved by one, splits the two.  The diamond
indices run past both ends of their domain, where every term the forms read
lies outside the triangle.
"""

from hypothesis import given

from conftest import pattern_st
from gtcrystal import diamond_a, diamond_b, enumerate_patterns, sum_a, sum_b, weight_expressions
from test_acceptance import full_sweep


def a_by_entry(p, i, j):
    e = p.entry
    return e(i, j) - e(i - 1, j) + e(i, j + 1) - e(i + 1, j + 1)


def b_by_entry(p, i, j):
    e = p.entry
    return -e(i, j) + e(i - 1, j - 1) - e(i, j - 1) + e(i + 1, j)


def weights_by_entry(p):
    """(row-sum differences, A-form, B-form) of the weight, from entry() reads alone."""
    n = p.n
    sums = [sum(p.entry(i, m) for m in range(1, i + 1)) for i in range(0, n + 1)]
    first = tuple(sums[k] - sums[k - 1] for k in range(1, n + 1))
    a0 = {i: sum(a_by_entry(p, i, j) for j in range(0, i + 1)) for i in range(1, n + 1)}
    b_top = {i: sum(b_by_entry(p, i, j) for j in range(1, i + 2)) for i in range(1, n + 1)}
    a_form = tuple(sum(a0[i] for i in range(k, n + 1)) for k in range(1, n + 1))
    b_form = tuple(-sum(b_top[i] for i in range(k, n + 1)) for k in range(1, n + 1))
    return first, a_form, b_form


def assert_literal_forms_match_entry_reads(p):
    for i in range(1, p.n):
        for j in range(-1, i + 4):
            assert diamond_a(p, i, j) == a_by_entry(p, i, j), (p, i, j)
            assert diamond_b(p, i, j) == b_by_entry(p, i, j), (p, i, j)
        for j in range(0, i + 2):
            assert sum_a(p, i, j) == sum(a_by_entry(p, i, k) for k in range(j, i + 1)), (p, i, j)
            assert sum_b(p, i, j) == sum(b_by_entry(p, i, k) for k in range(1, j + 1)), (p, i, j)
    assert weight_expressions(p) == weights_by_entry(p), p


def test_literal_forms_match_entry_reads_on_the_sweep():
    patterns = [p for n, lam in full_sweep() for p in enumerate_patterns(n, lam)]
    assert len(patterns) > 1000
    for p in patterns:
        assert_literal_forms_match_entry_reads(p)


@given(p=pattern_st(max_n=8, max_part=50))
def test_literal_forms_match_entry_reads_past_desk_scale(p):
    # Eight rows and entries up to 50 reach past the sweep's ranks and sizes.
    assert_literal_forms_match_entry_reads(p)
