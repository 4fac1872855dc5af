from hypothesis import strategies as st

from gtcrystal import GTPattern, Tableau, partitions_up_to


@st.composite
def pattern_st(draw, max_n=5, max_part=12):
    """Random valid pattern, entries beyond desk scale."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = tuple(
        sorted(
            (draw(st.integers(min_value=0, max_value=max_part)) for _ in range(n)),
            reverse=True,
        )
    )
    rows = [top]
    for _ in range(n - 1):
        upper = rows[-1]
        rows.append(
            tuple(
                draw(st.integers(min_value=upper[j + 1], max_value=upper[j]))
                for j in range(len(upper) - 1)
            )
        )
    return GTPattern(n, tuple(rows))


@st.composite
def tableau_st(draw, max_n=4, max_size=6):
    """Random semistandard tableau, cells filled row-major within bounds."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    shape = draw(st.sampled_from(partitions_up_to(max_size, n)))
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0] if shape else 0)]
    grid = [[0] * part for part in shape]
    for r in range(len(shape)):
        for c in range(shape[r]):
            low = r + 1
            if c > 0:
                low = max(low, grid[r][c - 1])
            if r > 0:
                low = max(low, grid[r - 1][c] + 1)
            # leave room for the strictly larger letters below in this column
            high = n - (heights[c] - r - 1)
            grid[r][c] = draw(st.integers(min_value=low, max_value=high))
    return Tableau(n, tuple(tuple(row) for row in grid))


word_st = st.lists(st.integers(min_value=1, max_value=3), max_size=10).map(tuple)
