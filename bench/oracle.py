"""The benchmark's own semigroup arithmetic, independent of finsemi.

Everything the correctness gate compares program output against is
computed here from first principles: the product set, the classes of
elements that multiply identically on both sides, the psi classes, and the
size-preserving automorphisms of the small transversal table found by
trying every size-preserving permutation.  By the decomposition theorem the full
automorphism group then has order prod(|B|!) * |H_base|.
"""

from __future__ import annotations

import itertools
import math

Rows = tuple[tuple[int, ...], ...]


def is_associative(rows: Rows) -> bool:
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def relabel(rows: Rows, images: list[int]) -> Rows:
    """The table with every id x renamed to images[x]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[images[x]][images[y]] = images[rows[x][y]]
    return tuple(map(tuple, out))


def inflate(base: Rows, sizes: tuple[int, ...]) -> Rows:
    """Base ids keep their ids; copies of base id a follow, grouped by a."""
    theta = list(range(len(base)))
    for a, s in enumerate(sizes):
        theta.extend([a] * (s - 1))
    return tuple(tuple(base[ta][tb] for tb in theta) for ta in theta)


def psi_classes(rows: Rows) -> list[list[int]]:
    """Products are singletons; other ids are grouped by (row, column)."""
    n = len(rows)
    products = {v for row in rows for v in row}
    groups: dict[object, list[int]] = {}
    for a in range(n):
        key = ("p", a) if a in products else (rows[a], tuple(rows[i][a] for i in range(n)))
        groups.setdefault(key, []).append(a)
    return sorted(groups.values())


def is_automorphism(rows: Rows, img: tuple[int, ...]) -> bool:
    n = len(rows)
    return all(img[rows[x][y]] == rows[img[x]][img[y]] for x in range(n) for y in range(n))


class Structure:
    """Group orders the theorem predicts for one table."""

    def __init__(self, rows: Rows):
        classes = psi_classes(rows)
        reps = [c[0] for c in classes]
        index = {r: k for k, r in enumerate(reps)}
        t_rows = tuple(tuple(index[rows[a][b]] for b in reps) for a in reps)
        sizes = [len(c) for c in classes]
        self.class_sizes = tuple(sorted(sizes))
        self.g_order = math.prod(math.factorial(s) for s in sizes)
        # H: automorphisms of the transversal table that keep class sizes,
        # tried over every permutation within each group of equal sizes.
        groups: dict[int, list[int]] = {}
        for k, s in enumerate(sizes):
            groups.setdefault(s, []).append(k)
        self.h_order = 0
        for choice in itertools.product(*(itertools.permutations(g) for g in groups.values())):
            img = [0] * len(reps)
            for group, perm in zip(groups.values(), choice):
                for src, dst in zip(group, perm):
                    img[src] = dst
            self.h_order += is_automorphism(t_rows, tuple(img))
        self.aut_order = self.g_order * self.h_order


def canonical_form(rows: Rows) -> Rows:
    """Least relabelling in row-major order, by trying every permutation."""
    n = len(rows)
    return min(relabel(rows, list(p)) for p in itertools.permutations(range(n)))


def format_rows(rows: Rows) -> str:
    """The finsemi table text format, without comments."""
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def parse_rows(text: str) -> Rows:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[0][0])
    rows = tuple(tuple(int(v) for v in ln) for ln in lines[1 : 1 + n])
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"malformed order-{n} table")
    return rows


def semigroups_up_to_iso(n: int) -> list[Rows]:
    """Canonical representatives of every semigroup of order n, sorted.

    Fills cells row by row and drops a partial table as soon as a fully
    determined triple fails, then keeps the tables equal to their own
    canonical form.
    """
    cells = [(i, j) for i in range(n) for j in range(n)]
    grid = [[-1] * n for _ in range(n)]
    found: list[Rows] = []

    def ok() -> bool:
        for a in range(n):
            for b in range(n):
                ab = grid[a][b]
                if ab < 0:
                    continue
                for c in range(n):
                    bc = grid[b][c]
                    if bc < 0:
                        continue
                    p, q = grid[ab][c], grid[a][bc]
                    if p >= 0 and q >= 0 and p != q:
                        return False
        return True

    def fill(k: int) -> None:
        if k == len(cells):
            rows = tuple(map(tuple, grid))
            if canonical_form(rows) == rows:
                found.append(rows)
            return
        i, j = cells[k]
        for v in range(n):
            grid[i][j] = v
            if ok():
                fill(k + 1)
        grid[i][j] = -1

    fill(0)
    return sorted(found)
