"""Brute-force discovery of the string-exponent alignment.

For every pattern at desk scale this script computes, independently of the
closed-form table, the sequence of maximal operator exponents along the
fixed reduced word (1, 2,1, 3,2,1, ...), once with the raising operator and
once with the lowering operator.  It then checks which assignment of table
entries (i, j) to word positions reproduces one of the two sequences on
every pattern, trying all permutations for n = 3 and the block-structured
candidate for n = 4.

Run:  python scripts/discover_word_alignment.py
"""

from itertools import permutations

from gtcrystal import (
    enumerate_patterns,
    epsilon_gtp,
    lower_gtp,
    partitions_up_to,
    phi_gtp,
    raise_gtp,
    reduced_long_word,
    string_datum,
)


def exponents(pattern, word, step, length):
    """Apply the maximal power of ``step`` for each word letter in turn."""
    out = []
    current = pattern
    for letter in word:
        count = length(current, letter)
        for _ in range(count):
            current = step(current, letter)
        out.append(count)
    return tuple(out)


def survey(n, max_size):
    word = reduced_long_word(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    data = []
    for lam in partitions_up_to(max_size, n):
        for p in enumerate_patterns(n, lam):
            table = string_datum(p)
            up = exponents(p, word, raise_gtp, epsilon_gtp)
            down = exponents(p, word, lower_gtp, phi_gtp)
            data.append((table, up, down))
    return word, pairs, data


def main():
    n = 3
    word, pairs, data = survey(n, max_size=6)
    print(f"n={n}: word {word}, {len(data)} patterns surveyed")
    for direction in ("raising", "lowering"):
        pick = (lambda row: row[1]) if direction == "raising" else (lambda row: row[2])
        matches = [
            assignment
            for assignment in permutations(pairs)
            if all(tuple(table[p] for p in assignment) == pick((table, up, down)) for table, up, down in data)
        ]
        for assignment in matches:
            print(f"  {direction}: word position k <- table entry {assignment}")
        if not matches:
            print(f"  {direction}: no consistent assignment")

    # confirm the block-structured candidate at n = 4: the position carrying
    # letter l inside block k corresponds to the entry (k+1-l, k+1)
    n = 4
    word, pairs, data = survey(n, max_size=5)
    candidate = []
    for k in range(1, n):
        for letter in range(k, 0, -1):
            candidate.append((k + 1 - letter, k + 1))
    ok = all(tuple(table[p] for p in candidate) == up for table, up, _down in data)
    print(f"n={n}: block candidate {tuple(candidate)} against raising exponents on {len(data)} patterns: {ok}")


if __name__ == "__main__":
    main()
