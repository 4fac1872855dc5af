"""Foundational value types: partitions, weights, dimension oracle, formal linear forms.

Partitions and weights are plain integer tuples.  A partition is stored in
canonical form with no trailing zeros; padding to a declared length is always
an explicit operation.  All arithmetic is exact integer arithmetic.
``Linear`` is a formal linear form, the entry type of the pattern on which
``crystal.verify_identities`` proves the identity checks once per rank.
"""

from __future__ import annotations

import sys
from math import comb
from typing import Any, Iterable

Partition = tuple[int, ...]
Weight = tuple[int, ...]


# The lazy enumerators nest one iterator stage per row they fill, and taking
# an element recurses through every stage in C, where no recursion limit
# applies: some tens of thousands of stages overflow the C stack and crash
# the interpreter.  They refuse more rows than this, far below that depth; a
# pattern with this many rows already has 500,500 entries.
MAX_LEVELS = 1000


class ShapeError(ValueError):
    """A sequence is not a valid partition, or two shapes are incompatible."""


class LengthError(ValueError):
    """A partition has more parts than the declared length allows."""


class LabelError(ValueError, IndexError):
    """An operator label outside 1..n-1: an input error that is also an IndexError."""


def quote(value: Any) -> str:
    """An offending value in an error message: its repr up to 40 characters, else its type and length."""
    text = repr(value)
    size = len(value) if hasattr(value, "__len__") else len(text)  # an int's length counts its digits
    return text if len(text) <= 40 else f"{type(value).__name__} of length {size}"


def require_positive(value: Any, noun: str) -> None:
    """Raise ShapeError naming ``noun`` unless ``value`` is a positive integer."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ShapeError(f"{noun} must be a positive integer, got {quote(value)}")


def require_enumerable(lam: Partition) -> None:
    """Raise ShapeError naming the largest part of the partition ``lam`` unless
    it is below ``sys.maxsize``, the longest ``range`` an enumerator can walk."""
    if lam and lam[0] >= sys.maxsize:
        raise ShapeError(f"part {quote(lam[0])} is too large to enumerate: parts must be below {sys.maxsize}")


def require_label(n: int, i: int) -> None:
    """Raise LabelError unless ``i`` is an operator label 1..n-1 of an element with ``n`` rows or letters."""
    if not 1 <= i <= n - 1:
        bound = f" 1..{n - 1}" if n > 1 else ": an element with n = 1 has no labels"
        raise LabelError(f"label {i} out of range{bound}")


def as_rows(rows: Any) -> tuple[tuple[Any, ...], ...]:
    """``rows`` as a tuple of row tuples; ShapeError unless it is an array of arrays."""
    if not isinstance(rows, (list, tuple)):
        raise ShapeError(f"rows must be an array, got {quote(rows)}")
    for r, row in enumerate(rows, start=1):
        if not isinstance(row, (list, tuple)):
            raise ShapeError(f"row {r} must be an array, got {quote(row)}")
    return tuple([tuple(row) for row in rows])


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a sequence into a partition (trailing zeros stripped).

    Raises ShapeError if the sequence is not weakly decreasing or contains a
    negative or non-integer entry.  Those checks put every zero at the end, so
    one slice strips them.
    """
    seq = tuple(parts)
    for x in seq:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ShapeError(f"partition entries must be integers, got {quote(x)}")
        if x < 0:
            raise ShapeError(f"partition entries must be non-negative, got {x}")
    for k in range(len(seq) - 1):
        if seq[k] < seq[k + 1]:
            raise ShapeError(f"parts must be weakly decreasing, got {seq[k]} < {seq[k+1]} at position {k+1}")
    return seq[: len(seq) - seq.count(0)]


def pad(parts: Partition, n: int) -> tuple[int, ...]:
    """Extend a partition with zeros to length n (trailing zeros do not count as parts)."""
    parts = as_partition(parts)
    if len(parts) > n:
        raise LengthError(f"partition has {len(parts)} parts, more than n={n}")
    return parts + (0,) * (n - len(parts))


def weyl_dimension(n: int, lam: Partition) -> int:
    """Dimension of the irreducible gl_n module with highest weight ``lam``.

    Product over pairs 1 <= i < j <= n of (lam_i - lam_j + j - i) / (j - i),
    an exact integer quotient.  Only the pairs of the l nonzero parts are
    multiplied one by one; for each part, the pairs with the n - l zero parts
    after it telescope to the binomial ratio C(lam_i + n - i, lam_i) /
    C(lam_i + l - i, lam_i), and pairs of two zero parts give 1.  Used only
    as an independent counting oracle for pattern enumeration.
    """
    require_positive(n, "row count")
    parts = as_partition(pad(lam, n))
    num = den = 1
    for i, part in enumerate(parts):
        for j in range(i + 1, len(parts)):
            num *= part - parts[j] + j - i
            den *= j - i
        num *= comb(part + n - 1 - i, part)
        den *= comb(part + len(parts) - 1 - i, part)
    if num % den:
        raise RuntimeError(f"Weyl quotient {num}/{den} is not exact")
    return num // den


class Linear:
    """A formal linear form with integer coefficients, such as a pattern entry x_(i,j).

    ``terms`` maps each variable to its nonzero coefficient, the constant
    under the key ``()``; a form is never changed once made.  Forms add and
    subtract with each other and with integers, and any other operation
    raises ``TypeError``.  A formal entry has no value, so ``==``, ``!=``,
    the orderings and ``bool`` raise ``TypeError`` too, and a form has no
    hash: code that branches on an entry's value stops with an error, and a
    computation that finishes on formal entries did the same sums for every
    value of them.  Two forms are compared through ``(x - y).terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict) -> None:
        self.terms = terms

    def _merged(self, other: Any, sign: int) -> "Linear":
        """self + sign * other, or NotImplemented unless ``other`` is a form or an integer."""
        if isinstance(other, Linear):
            other = other.terms
        elif isinstance(other, int):
            if not other:
                return self
            other = {(): other}
        else:
            return NotImplemented
        terms = dict(self.terms)
        for var, c in other.items():
            if total := terms.get(var, 0) + sign * c:
                terms[var] = total
            else:
                del terms[var]
        return Linear(terms)

    def __add__(self, other: Any) -> "Linear":
        return self._merged(other, 1)

    def __sub__(self, other: Any) -> "Linear":
        return self._merged(other, -1)

    def __rsub__(self, other: Any) -> "Linear":
        return (-self)._merged(other, 1)

    def __neg__(self) -> "Linear":
        return Linear({var: -c for var, c in self.terms.items()})

    __radd__ = __add__

    def _refuse(self, *_other: Any) -> bool:
        raise TypeError("a formal entry has no value to compare or test")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _refuse
    __hash__ = None  # type: ignore[assignment]


def coroot_pairing(weight: Weight, i: int) -> int:
    """Pairing of a weight with the i-th simple coroot: coords[i] - coords[i+1], 1-based."""
    if not 1 <= i <= len(weight) - 1:
        raise IndexError(f"coroot index {i} out of range 1..{len(weight) - 1}")
    return weight[i - 1] - weight[i]


def partitions_up_to(max_size: int, max_parts: int) -> list[Partition]:
    """All partitions with at most ``max_parts`` parts and size at most ``max_size``.

    Includes the empty partition.  Ordered by size, then descending
    lexicographically within each size.  The walk adds one part per level,
    never more than the last part or the size left, for at most
    min(max_parts, max_size) levels, since no part is below 1.
    """
    level: list[Partition] = [()]
    found = [()] if max_size >= 0 else []
    for _ in range(min(max_parts, max_size)):
        level = [p + (k,) for p in level for k in range(1, min(p[-1:] + (max_size - sum(p),)) + 1)]
        found += level
    return sorted(found, key=lambda p: (sum(p), [-x for x in p]))
