"""Shared fixture tables and independent brute-force oracles.

The oracles deliberately avoid the library's own code paths: they filter
all n! permutations or all n^(n*n) operations directly from first
principles, so the fast implementations are checked against something
that cannot share their bugs.
"""

from __future__ import annotations

import itertools

from finsemi import CayleyTable

# Canonical test semigroups.  N3/N4 are null (every product is 0), L2 is
# left-zero, S6 and IL2 glue fibers over L2 with interleaved ids: fibers
# {0,2,4}/{1,3,5} for S6 and {0,2}/{1,3} for IL2, every row constant.
N3 = CayleyTable([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
N4 = CayleyTable([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
L2 = CayleyTable([[0, 0], [1, 1]])
S6 = CayleyTable(
    [
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
    ]
)
IL2 = CayleyTable([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]])
Z2 = CayleyTable([[0, 1], [1, 0]])
Z3 = CayleyTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])

FIXTURES = {"N3": N3, "N4": N4, "L2": L2, "S6": S6, "IL2": IL2}


def naive_associativity_witness(rows) -> tuple[int, int, int] | None:
    """First failing triple under a full scan, None when associative."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return (a, b, c)
    return None


def naive_automorphism_images(rows) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every one of the n! permutations."""
    n = len(rows)
    kept = []
    for img in itertools.permutations(range(n)):
        if all(
            img[rows[x][y]] == rows[img[x]][img[y]]
            for x in range(n)
            for y in range(n)
        ):
            kept.append(img)
    return sorted(kept)


def naive_semigroup_rows(n: int) -> set[tuple[tuple[int, ...], ...]]:
    """All associative tables on 0..n-1 by filtering every operation."""
    out = set()
    for vals in itertools.product(range(n), repeat=n * n):
        rows = tuple(vals[i * n : (i + 1) * n] for i in range(n))
        if naive_associativity_witness(rows) is None:
            out.add(rows)
    return out


def naive_cell_candidates(rows, i, j) -> list[int]:
    """Values, ascending, that the unset cell (i, j) of a partial table can take.

    Unset cells hold -1.  Each value in turn goes into (i, j) and all n^3
    triples are scanned; a triple counts only when its four reads are set.
    """
    n = len(rows)
    kept = []
    for v in range(n):
        grid = [list(row) for row in rows]
        grid[i][j] = v
        if all(
            grid[grid[a][b]][c] == grid[a][grid[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if grid[a][b] >= 0
            and grid[b][c] >= 0
            and grid[grid[a][b]][c] >= 0
            and grid[a][grid[b][c]] >= 0
        ):
            kept.append(v)
    return kept


def naive_canonical_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Least row-major relabeling over all n! relabelings.

    Relabeling by img sends the product a*b = c to img[a]*img[b] = img[c].
    """
    n = len(rows)
    best = None
    for img in itertools.permutations(range(n)):
        out = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[img[a]][img[b]] = img[rows[a][b]]
        candidate = tuple(map(tuple, out))
        if best is None or candidate < best:
            best = candidate
    return best


def non_products_first(rows, rng=None) -> CayleyTable:
    """Relabel so the ids outside the product set come first, then the products.

    Both groups keep their id order, or are shuffled by rng when one is given.
    """
    n = len(rows)
    products = sorted({v for row in rows for v in row})
    non_products = [x for x in range(n) if x not in products]
    if rng is not None:
        rng.shuffle(non_products)
        rng.shuffle(products)
    new = {x: i for i, x in enumerate(non_products + products)}
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[new[x]][new[y]] = new[rows[x][y]]
    return CayleyTable(out)
