"""Exhaustive generation of small multiplication tables.

The generator fills table cells one at a time and abandons a partial table
as soon as some fully determined associativity triple fails, so only
semigroups reach the leaves.  Canonical forms take the minimum over all
relabelings, which is affordable at the orders this tool targets.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import IO, Iterator

from .core import CayleyTable, format_table, relabel_table
from .errors import MalformedInput, OrderTooLarge
from .theorem import TheoremReport, verify_theorem

DEFAULT_MAX_ENUM_ORDER = 4
DEFAULT_MAX_CANON_ORDER = 6
MODES = ("labelled", "up_to_iso")


@dataclass(frozen=True)
class EnumerationTask:
    """What to enumerate: the order and whether to collapse relabelings."""

    order: int
    mode: str = "labelled"

    def __post_init__(self):
        if self.order < 1:
            raise MalformedInput(f"order must be at least 1, got {self.order}")
        if self.mode not in MODES:
            raise MalformedInput(f"unknown mode {self.mode!r}, expected one of {MODES}")


def _triple_ok(g: list[list[int]], a: int, b: int, c: int) -> bool:
    """True unless the triple (a, b, c) is fully determined and fails."""
    x = g[a][b]
    if x < 0:
        return True
    y = g[b][c]
    if y < 0:
        return True
    p = g[x][c]
    if p < 0:
        return True
    q = g[a][y]
    if q < 0:
        return True
    return p == q


def _consistent_after(g: list[list[int]], n: int, i: int, j: int) -> bool:
    """Check every triple whose reads involve cell (i, j).

    A triple (a, b, c) reads (a,b), (b,c), (ab,c) and (a,bc); each family
    below covers one way the fresh cell can appear among those reads.
    """
    for c in range(n):
        if not _triple_ok(g, i, j, c):
            return False
    for a in range(n):
        if not _triple_ok(g, a, i, j):
            return False
    for a in range(n):
        row = g[a]
        for b in range(n):
            if row[b] == i and not _triple_ok(g, a, b, j):
                return False
    for b in range(n):
        row = g[b]
        for c in range(n):
            if row[c] == j and not _triple_ok(g, i, b, c):
                return False
    return True


def enumerate_semigroups(
    task: EnumerationTask,
    *,
    max_order: int = DEFAULT_MAX_ENUM_ORDER,
    cell_order: list[tuple[int, int]] | None = None,
) -> Iterator[CayleyTable]:
    """Yield every associative table of the given order, in a fixed order.

    The default cell order is row-major with values tried ascending, so the
    labelled stream is lexicographic and identical between runs.  cell_order
    exists to cross-check the search with a different fill sequence.
    """
    n = task.order
    if n > max_order:
        raise OrderTooLarge("enumeration order", n, max_order)
    if cell_order is None:
        cells = [(i, j) for i in range(n) for j in range(n)]
    else:
        cells = list(cell_order)
        if sorted(cells) != sorted((i, j) for i in range(n) for j in range(n)):
            raise MalformedInput("cell_order must list every cell exactly once")
    grid = [[-1] * n for _ in range(n)]

    def fill(k: int) -> Iterator[CayleyTable]:
        if k == len(cells):
            yield CayleyTable([row[:] for row in grid])
            return
        i, j = cells[k]
        for v in range(n):
            grid[i][j] = v
            if _consistent_after(grid, n, i, j):
                yield from fill(k + 1)
        grid[i][j] = -1

    for table in fill(0):
        if task.mode == "labelled" or canonicalize(table) == table:
            yield table


def canonicalize(table: CayleyTable, *, max_order: int = DEFAULT_MAX_CANON_ORDER) -> CayleyTable:
    """Least relabeling of the table, comparing row-major encodings."""
    n = table.order
    if n > max_order:
        raise OrderTooLarge("canonicalization order", n, max_order)
    best = None
    for images in itertools.permutations(range(n)):
        candidate = relabel_table(table, images).rows
        if best is None or candidate < best:
            best = candidate
    return CayleyTable(best)


@dataclass(frozen=True)
class CorpusSummary:
    """Totals for one corpus run; the histogram keys on (aut, h, g) orders."""

    tables_seen: int
    theorem_failures: int
    histogram: tuple[tuple[tuple[int, int, int], int], ...]
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "tables_seen": self.tables_seen,
            "theorem_failures": self.theorem_failures,
            "histogram": [
                {"aut_order": a, "h_order": h, "g_order": g, "count": c}
                for (a, h, g), c in self.histogram
            ],
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_text(self) -> str:
        lines = [
            f"tables_seen: {self.tables_seen}",
            f"theorem_failures: {self.theorem_failures}",
        ]
        lines.extend(
            f"histogram {a} {h} {g}: {c}" for (a, h, g), c in self.histogram
        )
        lines.append(f"elapsed_seconds: {self.elapsed_seconds:.3f}")
        return "\n".join(lines) + "\n"


def corpus_verify(
    task: EnumerationTask,
    sink: IO[str],
    *,
    policy: str = "least",
    seed: int | None = None,
    max_order: int = DEFAULT_MAX_ENUM_ORDER,
) -> CorpusSummary:
    """verify_theorem over a whole enumeration, one JSON report per line."""
    start = time.perf_counter()
    seen = 0
    failures = 0
    histogram: dict[tuple[int, int, int], int] = {}
    for table in enumerate_semigroups(task, max_order=max_order):
        report: TheoremReport = verify_theorem(table, policy, seed)
        seen += 1
        if not report.all_flags:
            failures += 1
        key = (report.aut_order, report.h_order, report.g_order)
        histogram[key] = histogram.get(key, 0) + 1
        record = {"table": format_table(table)}
        record.update(report.to_json_dict())
        sink.write(json.dumps(record) + "\n")
    return CorpusSummary(
        tables_seen=seen,
        theorem_failures=failures,
        histogram=tuple(sorted(histogram.items())),
        elapsed_seconds=time.perf_counter() - start,
    )
