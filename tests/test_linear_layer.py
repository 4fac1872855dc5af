"""The linear layer of the pattern crystal, proved once per rank.

Every algebraic identity that ``verify`` evaluates per pattern is linear in
the pattern entries.  Evaluating the unmodified literal forms on a pattern
whose entries are formal variables checks each identity for every pattern
of that rank and every shape at once.  This is sound because a formal entry
refuses to be compared: ``Linear`` raises ``TypeError`` from ``==``, ``!=``
and ``bool`` and has no order, so the forms can branch only on the rank and
the indices, which the proof runs through in full, and code that branches
on an entry's value (``_a`` plus 1 where ``rows[0][0] == 7``) stops the
proof with an error.  The identities are compared through ``(x - y).terms``.
A mutant that is linear in the entries (a sign flip in ``_a``, an
off-by-one range in ``sum_b``) breaks an identity.  a_0 and b_(i+1) are
proved to be the negated interleaving gaps x_(i+1,1) - x_(i,1) and
x_(i,i) - x_(i+1,i+1), so both are non-positive on every pattern.

``verify`` runs the same kind of proof, per rank, with ``core.Linear``.  This
file keeps its own ``Linear`` and its own list of identities, written from
the paper rather than from ``crystal``: an oracle routed through the code it
checks would share that code's defects.
"""

import functools

import pytest

from gtcrystal import GTPattern, bijection, coroot_pairing, crystal, enumerate_patterns, gtpattern
from test_reference_checks import identity_counts, reference_identity_counts


class Linear:
    """A linear form: integer coefficients of the variables and a constant (key ``()``)."""

    def __init__(self, terms):
        self.terms = {var: c for var, c in terms.items() if c}

    @staticmethod
    def of(value):
        return value if isinstance(value, Linear) else Linear({(): value})

    def __add__(self, other):
        terms = dict(self.terms)
        for var, c in Linear.of(other).terms.items():
            terms[var] = terms.get(var, 0) + c
        return Linear(terms)

    __radd__ = __add__

    def __neg__(self):
        return Linear({var: -c for var, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Linear.of(other)

    def __rsub__(self, other):
        return -self + other

    def refuse(self, *other):
        raise TypeError("a formal entry has no value to compare or test")

    __eq__ = __ne__ = __bool__ = refuse
    __hash__ = None


def x(i, j):
    """The variable x_(i,j)."""
    return Linear({(i, j): 1})


def symbolic_pattern(n):
    """The pattern with n rows whose entry (i, j) is the variable x_(i,j)."""
    return GTPattern(n, tuple(tuple(x(i, j) for j in range(1, i + 1)) for i in range(n, 0, -1)))


def linear_violations(n):
    """The failed identities of the literal forms at rank n, as (identity, level, index)."""
    p = symbolic_pattern(n)
    wt = gtpattern.weight_gtp(p)
    failed = []

    def check(left, right, *witness):
        if Linear.of(left - right).terms:
            failed.append(witness)

    for i in range(1, n):
        check(gtpattern.diamond_a(p, i, 0), -(x(i + 1, 1) - x(i, 1)), "a_0 = -gap", i, None)
        check(gtpattern.diamond_b(p, i, i + 1), -(x(i, i) - x(i + 1, i + 1)), "b_(i+1) = -gap", i, None)
        a0 = gtpattern.sum_a(p, i, 0)
        for j in range(1, i + 2):
            check(gtpattern.diamond_b(p, i, j), -gtpattern.diamond_a(p, i, j - 1), "b_j = -a_(j-1)", i, j)
        for j in range(0, i + 2):
            check(gtpattern.sum_a(p, i, j) - gtpattern.sum_b(p, i, j), a0, "A_j - B_j = A_0", i, j)
        check(-gtpattern.sum_b(p, i, i + 1), a0, "-B_(i+1) = A_0", i, None)
        check(a0, coroot_pairing(wt, i), "A_0 = <wt, alpha_i>", i, None)
    first, a_form, b_form = gtpattern.weight_expressions(p)
    size = sum(p.rows[0])
    for k in range(n):
        check(a_form[k], b_form[k], "A-form = B-form", None, k)
        check(a_form[k] - first[k], size, "A-form - first = size", None, k)
    return failed


@pytest.mark.parametrize("n", range(1, 13))
def test_literal_forms_satisfy_the_linear_identities(n):
    assert linear_violations(n) == []


def test_linear_mutants_fire(monkeypatch):
    a = gtpattern._a
    monkeypatch.setattr(gtpattern, "_a", lambda p, i, j: -a(p, i, j))
    assert linear_violations(4)
    monkeypatch.undo()
    b = gtpattern._b
    monkeypatch.setattr(gtpattern, "sum_b", lambda p, i, j: sum(b(p, i, k) for k in range(1, j)))
    assert linear_violations(4)
    monkeypatch.undo()
    # A value-dependent mutant cannot branch on a formal entry, so the proof stops at it.
    monkeypatch.setattr(gtpattern, "_a", lambda p, i, j: a(p, i, j) + 1 if p.rows[0][0] == 7 else a(p, i, j))
    with pytest.raises(TypeError, match="^a formal entry has no value to compare or test$"):
        linear_violations(4)


@pytest.mark.parametrize("name", ["_a", "sum_b"])
def test_verify_counts_the_linear_mutants_as_the_oracle_does(monkeypatch, name):
    # The two linear mutants of test_linear_mutants_fire: verify's own formal
    # check fails under each, so every pattern is walked and both identity
    # counts are the index-by-index oracle's.
    a, b = gtpattern._a, gtpattern._b
    mutants = {
        "_a": lambda p, i, j: -a(p, i, j),
        "sum_b": lambda p, i, j: sum(b(p, i, k) for k in range(1, j)),
    }
    patterns = list(enumerate_patterns(4, (3, 2, 1)))
    image = functools.cache(bijection.pattern_to_tableau)
    assert len(patterns) >= crystal.FORMAL_MIN_PATTERNS
    monkeypatch.setattr(gtpattern, name, mutants[name])
    counts = identity_counts(patterns, image)
    assert counts == reference_identity_counts(patterns, image) and all(counts)
