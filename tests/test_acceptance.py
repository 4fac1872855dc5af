"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
All checks are exact integer comparisons; the only tolerances are the two
stated wall-time budgets.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import permutations

from gtcrystal import (
    GTPattern,
    along_word,
    connectivity,
    diamond_a,
    diamond_b,
    enumerate_patterns,
    enumerate_tableaux,
    epsilon_gtp,
    epsilon_ssyt,
    evaluate,
    far_east_reading,
    highest_weight_elements,
    letter_count_in_row,
    lower_gtp,
    lower_ssyt,
    pattern_model,
    partitions_up_to,
    pattern_to_tableau,
    phi_gtp,
    phi_ssyt,
    raise_gtp,
    raise_ssyt,
    string_datum,
    sum_a,
    sum_b,
    tableau_model,
    validate_pattern,
    validate_tableau,
    verify_axioms,
    verify_isomorphism,
    weyl_dimension,
)
from gtcrystal.gtpattern import reduced_long_word
from sweeps import (
    epsilon_columns,
    full_sweep,
    letter_count,
    lower_columns,
    lowering_edges,
    match_positions,
    phi_columns,
    raise_columns,
    recursive_crossing,
    shape_sweep,
    walk_along,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_worked_example_pattern_operators():
    with criterion("worked-example pattern operators"):
        p = validate_pattern(3, [[3, 1, 0], [3, 1], [2]])

        def golden_block():
            results = (
                sum_a(p, 1, 1),
                phi_gtp(p, 1),
                lower_gtp(p, 1).rows,
                sum_a(p, 2, 1),
                sum_a(p, 2, 2),
                phi_gtp(p, 2),
                lower_gtp(p, 2).rows,
            )
            return results

        golden_block()  # warm up
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            golden_block()
            timings.append(time.perf_counter() - start)
        elapsed = min(timings)
        a11, phi1, f1, a12, a22, phi2, f2 = golden_block()
        assert a11 == 1
        assert phi1 == 1
        assert f1 == ((3, 1, 0), (3, 1), (1,))
        assert a12 == 2
        assert a22 == 1
        assert phi2 == 2
        assert f2 == ((3, 1, 0), (2, 1), (2,))
        assert elapsed < 0.001, f"operator block took {elapsed * 1000:.3f} ms"


def test_reference_tableau_reading_and_bracketing():
    with criterion("reference tableau reading and bracketing"):
        t = validate_tableau(4, (5, 2, 2), [[1, 2, 2, 2, 3], [3, 3], [4, 4]])
        word = far_east_reading(t)
        assert word.letters == (3, 2, 2, 2, 3, 4, 1, 3, 4)
        assert match_positions(word.letters, 2) == frozenset({3, 4, 5, 8})
        assert phi_ssyt(t, 2) == 1
        assert lower_ssyt(t, 2).rows == ((1, 2, 2, 3, 3), (3, 3), (4, 4))


def test_twin_graphs_for_shape_310():
    with criterion("twin crystal graphs for shape (3,1,0)"):
        pm, tm = pattern_model(3), tableau_model(3)
        patterns = list(enumerate_patterns(3, (3, 1)))
        tableaux = list(enumerate_tableaux(3, (3, 1)))
        pedges = lowering_edges(pm, patterns)
        tedges = lowering_edges(tm, tableaux)
        assert len(patterns) == 15 and len(pedges) == 18
        assert len(tableaux) == 15 and len(tedges) == 18
        mapped_edges = {(pattern_to_tableau(u), i, pattern_to_tableau(v)) for u, i, v in pedges}
        assert mapped_edges == set(tedges) and len(mapped_edges) == 18
        assert [p.rows for p in highest_weight_elements(pm, patterns)] == [((3, 1, 0), (3, 1), (3,))]
        assert [t.rows for t in highest_weight_elements(tm, tableaux)] == [((1, 1, 1), (2,))]
        assert connectivity(evaluate(pm, patterns)) == 1
        assert connectivity(evaluate(tm, tableaux)) == 1


def test_pattern_crystal_axioms_sweep():
    with criterion("pattern crystal axioms over the sweep"):
        start = time.perf_counter()
        for n, lam in full_sweep():
            report = verify_axioms(evaluate(pattern_model(n), list(enumerate_patterns(n, lam))))
            assert report.passed, f"violations at n={n}, shape={lam}: {report.violations[:3]}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"sweep took {elapsed:.1f} s"


def test_bijection_is_isomorphism_sweep():
    with criterion("bijection intertwines the crystals over the sweep"):
        for n, lam in full_sweep():
            side_a = evaluate(pattern_model(n), list(enumerate_patterns(n, lam)))
            side_b = evaluate(tableau_model(n), list(enumerate_tableaux(n, lam)))
            into = [side_b.slot(pattern_to_tableau(p)) for p in side_a.elements]
            report = verify_isomorphism(side_a, into, side_b)
            assert report.passed, f"violations at n={n}, shape={lam}: {report.violations[:3]}"


def test_counting_identities_sweep():
    with criterion("letter-count identities over the sweep"):
        for n, lam in shape_sweep():
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


def test_dimension_cross_check_sweep():
    with criterion("enumeration count equals the dimension formula"):
        assert len(list(enumerate_patterns(3, (3, 1)))) == weyl_dimension(3, (3, 1)) == 15
        assert len(list(enumerate_patterns(3, (2, 1)))) == weyl_dimension(3, (2, 1)) == 8
        for n, lam in full_sweep():
            assert len(list(enumerate_patterns(n, lam))) == weyl_dimension(n, lam)


def dual_route_mismatches():
    """(tableau, label, datum) wherever the package's word-scan operators and
    the column-scan oracle disagree, over every tableau of ``shape_sweep()``."""
    routes = {
        "phi": (phi_ssyt, phi_columns),
        "epsilon": (epsilon_ssyt, epsilon_columns),
        "lower": (lower_ssyt, lower_columns),
        "raise": (raise_ssyt, raise_columns),
    }
    return [
        (t, i, name)
        for n, lam in shape_sweep()
        for t in enumerate_tableaux(n, lam)
        for i in range(1, n)
        for name, (word, column) in routes.items()
        if word(t, i) != column(t, i)
    ]


def test_dual_bracketing_implementations_agree():
    with criterion("word-scan and column-scan crystal data agree"):
        assert dual_route_mismatches() == []
    with criterion("single-pass matching equals the recursive crossing rule"):
        words = [()]
        frontier = [()]
        for _ in range(8):
            frontier = [w + (x,) for w in frontier for x in (1, 2, 3)]
            words.extend(frontier)
        for letters in words:
            for i in (1, 2):
                assert match_positions(letters, i) == recursive_crossing(letters, i)


def test_string_exponent_table_matches_operator_iteration():
    with criterion("closed-form string exponents match operator iteration"):
        word3 = reduced_long_word(3)
        rows = [
            (string_datum(p), walk_along(p, word3, raise_gtp)[0], walk_along(p, word3, lower_gtp)[0])
            for lam in partitions_up_to(6, 3)
            for p in enumerate_patterns(3, lam)
        ]
        assert len(rows) == 259
        # Of the 6 orderings of the table entries along the word, exactly
        # along_word's reproduces the raising exponents, and none the lowering.
        # Given a table that maps each entry to itself, along_word returns its ordering.
        entries = [(1, 2), (1, 3), (2, 3)]
        orderings = list(permutations(entries))
        raising = [o for o in orderings if all(tuple(d[e] for e in o) == up for d, up, _ in rows)]
        lowering = [o for o in orderings if all(tuple(d[e] for e in o) == down for d, _, down in rows)]
        assert raising == [along_word({e: e for e in entries}, 3)] == [((1, 2), (1, 3), (2, 3))]
        assert lowering == []
        word4 = reduced_long_word(4)
        patterns4 = [p for lam in partitions_up_to(5, 4) for p in enumerate_patterns(4, lam)]
        assert len(patterns4) == 441
        for p in patterns4:
            assert along_word(string_datum(p), 4) == walk_along(p, word4, raise_gtp)[0]


def truncated_datum(pattern):
    # Mutant of string_datum: each sum runs to column j - i + 1, one too far.
    n = pattern.n
    return {
        (i, j): sum(pattern.entry(j, m) - pattern.entry(j - 1, m) for m in range(1, j - i + 2))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


def reversed_blocks(datum, n):
    # Mutant of along_word: the letters of each block read as (1, ..., k), not (k, ..., 1).
    return tuple(datum[k + 1 - letter, k + 1] for k in range(1, n) for letter in range(1, k + 1))


def test_string_exponents_match_the_bracketing_rule_through_the_bijection():
    # The independent route: carry each pattern through the bijection and
    # raise its tableau maximally along the reduced word with the bracketing
    # rule.  The step counts are along_word's reading of string_datum, the
    # walk ends at the shape's highest-weight tableau (row r holds only r),
    # and no two patterns of one shape share a datum.
    with criterion("string exponents match the tableau operators through the bijection"):
        walks = []
        for n, max_boxes in ((4, 6), (5, 6), (6, 5)):
            word = reduced_long_word(n)
            for lam in partitions_up_to(max_boxes, n):
                top = validate_tableau(n, lam, [[r] * part for r, part in enumerate(lam, start=1)])
                data = []
                for p in enumerate_patterns(n, lam):
                    steps, end = walk_along(pattern_to_tableau(p), word, raise_ssyt)
                    datum = string_datum(p)
                    assert (along_word(datum, n), end) == (steps, top), p
                    walks.append((p, steps))
                    data.append(tuple(datum.items()))
                assert len(set(data)) == len(data)
        assert len(walks) == 6660
        # Each mutant of the closed form or of its alignment breaks the match.
        assert any(along_word(truncated_datum(p), p.n) != steps for p, steps in walks)
        assert any(reversed_blocks(string_datum(p), p.n) != steps for p, steps in walks)


def flipped_lower(pattern, i):
    # wrong tie-break: smallest maximizer instead of largest
    phi = phi_gtp(pattern, i)
    if phi == 0:
        return None
    ell = min(j for j in range(1, i + 1) if sum_a(pattern, i, j) == phi)
    rows = [list(row) for row in pattern.rows]
    rows[pattern.n - i][ell - 1] -= 1
    return GTPattern(pattern.n, tuple(tuple(row) for row in rows))


def flipped_raise(pattern, i):
    # wrong tie-break: largest maximizer instead of smallest
    eps = epsilon_gtp(pattern, i)
    if eps == 0:
        return None
    ell = max(j for j in range(1, i + 1) if sum_b(pattern, i, j) == eps)
    rows = [list(row) for row in pattern.rows]
    rows[pattern.n - i][ell - 1] += 1
    return GTPattern(pattern.n, tuple(tuple(row) for row in rows))


def test_flipped_tie_breaks_are_detected():
    with criterion("flipped tie-break rules are detected by the axiom checks"):
        for mutated_field, mutated_op in (("lower", flipped_lower), ("raise_", flipped_raise)):
            inverse_witnesses = 0
            detected = 0
            for n, lam in shape_sweep():
                model = replace(pattern_model(n), **{mutated_field: mutated_op})
                report = verify_axioms(evaluate(model, list(enumerate_patterns(n, lam))))
                if not report.passed:
                    detected += 1
                    if any(v.rule == "inverse" for v in report.violations):
                        inverse_witnesses += 1
            assert detected > 0, f"mutating {mutated_field} went unnoticed"
            assert inverse_witnesses > 0, f"no inverse-axiom witness for mutated {mutated_field}"
