"""Exhaustive generation of small multiplication tables.

The generator fills table cells one at a time, one generator frame per
cell, and tries at each cell only the values that fail no fully determined
associativity triple, so only semigroups reach the leaves.  A triple that
reads the cell only as (ab)c or as a(bc) forces its value, and two
different forced values close the branch; the forced value, or every
value when none is forced, is then checked against the triples that read
the cell as ab or as bc.  The set cells are indexed by value, so the
forcing triples are read off two lists.

Canonical forms take the least encoding over the n! relabelings, which is
affordable at the orders this tool targets: a plan cached per order lists
each relabeling's images and, for each row-major position, the flat index
its entry comes from, grouped by the ids sent to 0 and 1.  Only the groups
whose first two entries can be least are read, a candidate is dropped at
the first position where it differs from the least encoding so far, and
a table that no relabeling encodes smaller is returned as it is.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass
from typing import IO, Iterator

from .core import CayleyTable, format_table
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


def _fill(
    grid: list[list[int]], at: list[list[tuple[int, int]]], cells: list[tuple[int, int]]
) -> Iterator[CayleyTable]:
    """Set the cells in turn, yielding the grid as a table at each leaf.

    at[v] lists the set cells that hold v.  A triple (a, b, c) reads (a,b),
    (b,c), (ab,c) and (a,bc) and fails only when all four are set (not -1)
    and (ab)c != a(bc); a cell takes, ascending, each value v for which no
    triple fails once it holds v.  A triple that reads cell (i, j) only as
    (ab,c) or as (a,bc) has ab = i or bc = j, so at[i] and at[j] list every
    one of them, and each forces a value; the forced value, or every value,
    is tried against the triples that read (i, j) as (a,b) or as (b,c).
    Run to the end, the fill leaves the grid and at as they were.
    """
    n = len(grid)
    values = range(n)
    last = len(cells) - 1

    def fill(k: int) -> Iterator[CayleyTable]:
        i, j = cell = cells[k]
        gi = grid[i]
        forced = -1
        for a, b in at[i]:  # (a, b, j) with ab = i: v = a(bj)
            y = grid[b][j]
            if y >= 0:
                q = grid[a][y]
                if q >= 0 and q != forced:
                    if forced >= 0:
                        return
                    forced = q
        for b, c in at[j]:  # (i, b, c) with bc = j: v = (ib)c
            u = gi[b]
            if u >= 0:
                p = grid[u][c]
                if p >= 0 and p != forced:
                    if forced >= 0:
                        return
                    forced = p
        gj = grid[j]
        for v in values if forced < 0 else (forced,):
            gi[j] = v
            gv = grid[v]
            for c in values:  # (i, j, c)
                y = gj[c]
                if y >= 0:
                    p = gv[c]
                    if p >= 0:
                        q = gi[y]
                        if q >= 0 and p != q:
                            break
            else:
                for row in grid:  # (a, i, j)
                    u = row[i]
                    if u >= 0:
                        p = grid[u][j]
                        if p >= 0:
                            q = row[v]
                            if q >= 0 and p != q:
                                break
                else:
                    if k == last:  # every cell is set: a leaf
                        yield CayleyTable._unchecked(tuple(map(tuple, grid)))
                    else:
                        held = at[v]
                        held.append(cell)
                        yield from fill(k + 1)
                        held.pop()
        gi[j] = -1

    return fill(0)


def check_enumeration_order(task: EnumerationTask, max_order: int = DEFAULT_MAX_ENUM_ORDER):
    """Raise OrderTooLarge when the task's order is over a cap.

    Up to isomorphism the canonicalization cap applies too, so a refused run
    stops here, before any fill or report file.
    """
    if task.order > max_order:
        raise OrderTooLarge("enumeration order", task.order, max_order)
    if task.mode == "up_to_iso" and task.order > DEFAULT_MAX_CANON_ORDER:
        raise OrderTooLarge("canonicalization order", task.order, DEFAULT_MAX_CANON_ORDER)


def enumerate_semigroups(
    task: EnumerationTask, *, max_order: int = DEFAULT_MAX_ENUM_ORDER
) -> Iterator[CayleyTable]:
    """Yield every associative table of the given order, in a fixed order.

    The cells are filled row-major with values tried ascending, so the
    labelled stream is lexicographic and identical between runs.
    """
    check_enumeration_order(task, max_order)
    n = task.order
    cells = [(i, j) for i in range(n) for j in range(n)]
    for table in _fill([[-1] * n for _ in range(n)], [[] for _ in range(n)], cells):
        if task.mode == "labelled" or canonicalize(table) == table:
            yield table


@functools.cache
def _relabel_plan(n: int) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The relabelings sigma of 0..n-1, keyed by (sigma^-1(0), sigma^-1(1)).

    Each is sigma's images with an index tuple whose entry k is
    inv[i]*n + inv[j] for the row-major position k = i*n + j, inv being
    sigma's inverse: the relabeled table holds sigma(x) there, x being the
    entry at that flat index.  The cache keeps n! * n^2 indices per order
    used: 25920 at the default cap of 6.
    """
    plan: dict[tuple[int, ...], list] = {}
    for images in itertools.permutations(range(n)):
        inv = [0] * n
        for x, y in enumerate(images):
            inv[y] = x
        src = tuple(inv[i] * n + inv[j] for i in range(n) for j in range(n))
        plan.setdefault(tuple(inv[:2]), []).append((images, src))
    return plan


def canonicalize(table: CayleyTable) -> CayleyTable:
    """Least relabeling of the table, comparing row-major encodings.

    A relabeling sigma with sigma(a) = 0 and sigma(b) = 1 starts its
    encoding with sigma(aa), sigma(ab); each is 0 when the product is a, 1
    when it is b, and at least 2 otherwise.  So the least encoding starts
    with 0 when some a is idempotent (b any other id), else with 1 (b = aa),
    and over those pairs its second entry is 0 when some ab = a, else 1 when
    some ab = b.  Only the pairs (a, b) that reach that start are read, all
    of them when neither product occurs.  No axiom is assumed.  The result
    is the table itself exactly when it is canonical.  Orders over
    DEFAULT_MAX_CANON_ORDER are refused.
    """
    n = table.order
    if n > DEFAULT_MAX_CANON_ORDER:
        raise OrderTooLarge("canonicalization order", n, DEFAULT_MAX_CANON_ORDER)
    rows = table.rows
    idempotents = [a for a in range(n) if rows[a][a] == a]
    if idempotents:
        pairs = (
            [(a, b) for a in idempotents for b, x in enumerate(rows[a]) if x == a != b]
            or [(a, b) for a in idempotents for b, x in enumerate(rows[a]) if x == b != a]
            or [(a, b) for a in idempotents for b in range(n) if b != a]
        )
    else:
        pairs = (
            [(a, row[a]) for a, row in enumerate(rows) if row[row[a]] == a]
            or [(a, row[a]) for a, row in enumerate(rows) if row[row[a]] == row[a]]
            or [(a, row[a]) for a, row in enumerate(rows)]
        )
    flat = [v for row in rows for v in row]
    best = flat[:]  # the identity relabeling
    size = n * n
    plan = _relabel_plan(n)
    # A candidate is read entry by entry and dropped at its first
    # difference from best; only a smaller one overwrites best from there.
    for pair in pairs:
        for images, src in plan[pair]:
            for p in range(size):
                v = images[flat[src[p]]]
                b = best[p]
                if v != b:
                    if v < b:
                        best[p] = v
                        for q in range(p + 1, size):
                            best[q] = images[flat[src[q]]]
                    break
    if best == flat:  # no relabeling reads smaller
        return table
    return CayleyTable._unchecked(tuple(map(tuple, zip(*[iter(best)] * n))))


@dataclass(frozen=True)
class CorpusSummary:
    """Totals for one corpus run; the histogram keys on (aut, h, g) orders.

    elapsed_seconds is for library callers; neither report form prints it,
    so the same run prints the same bytes.
    """

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
        }

    def to_text(self) -> str:
        lines = [
            f"tables_seen: {self.tables_seen}",
            f"theorem_failures: {self.theorem_failures}",
        ]
        lines.extend(
            f"histogram {a} {h} {g}: {c}" for (a, h, g), c in self.histogram
        )
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
