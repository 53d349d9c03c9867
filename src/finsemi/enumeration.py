"""Exhaustive generation of small multiplication tables.

The generator fills table cells one at a time and tries at each cell only
the values that fail no fully determined associativity triple, so only
semigroups reach the leaves.  A triple that reads the cell only as (ab)c
or as a(bc) forces its value, and two different forced values close the
branch; the forced value, or every value when none is forced, is then
checked against the triples that read the cell as ab or as bc.  The set
cells are indexed by value, so the forcing triples are read off two lists.

Canonical forms take the least encoding over the n! relabelings, which is
affordable at the orders this tool targets: a plan cached per order lists
each relabeling's images and, for each row-major position, the flat index
its entry comes from, grouped by the ids sent to 0 and 1.  Only the groups
whose first two entries can be least are read, and a candidate is dropped
at the first position where it differs from the least encoding so far.
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


def _candidates(
    g: list[list[int]], at: list[list[tuple[int, int]]], i: int, j: int
) -> list[int]:
    """The values, ascending, that the unset cell (i, j) can take.

    at[v] lists the set cells that hold v.  A triple (a, b, c) reads (a,b),
    (b,c), (ab,c) and (a,bc) and fails only when all four are set (not -1)
    and (ab)c != a(bc); v is a candidate when no triple fails once (i, j)
    holds v.  A triple that reads (i, j) only as (ab,c) or as (a,bc) has
    ab = i or bc = j, so at[i] and at[j] list every one of them; each
    forces a value, and the forced value, or every value, is then tried
    against the triples that read (i, j) as (a,b) or as (b,c).  The grid
    and at are left as they were.
    """
    n = len(g)
    gi = g[i]
    forced = -1
    for a, b in at[i]:  # (a, b, j) with ab = i: v = a(bj)
        y = g[b][j]
        if y >= 0:
            q = g[a][y]
            if q >= 0 and q != forced:
                if forced >= 0:
                    return []
                forced = q
    for b, c in at[j]:  # (i, b, c) with bc = j: v = (ib)c
        u = gi[b]
        if u >= 0:
            p = g[u][c]
            if p >= 0 and p != forced:
                if forced >= 0:
                    return []
                forced = p
    gj = g[j]
    out = []
    for v in range(n) if forced < 0 else (forced,):
        gi[j] = v
        gv = g[v]
        for c in range(n):  # (i, j, c)
            y = gj[c]
            if y >= 0:
                p = gv[c]
                if p >= 0:
                    q = gi[y]
                    if q >= 0 and p != q:
                        break
        else:
            for row in g:  # (a, i, j)
                u = row[i]
                if u >= 0:
                    p = g[u][j]
                    if p >= 0:
                        q = row[v]
                        if q >= 0 and p != q:
                            break
            else:
                out.append(v)
    gi[j] = -1
    return out


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
    check_enumeration_order(task, max_order)
    n = task.order
    if cell_order is None:
        cells = [(i, j) for i in range(n) for j in range(n)]
    else:
        cells = list(cell_order)
        if sorted(cells) != sorted((i, j) for i in range(n) for j in range(n)):
            raise MalformedInput("cell_order must list every cell exactly once")
    grid = [[-1] * n for _ in range(n)]
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # at[v]: the set cells holding v
    last = len(cells) - 1

    def fill(k: int) -> Iterator[CayleyTable]:
        cell = cells[k]
        i, j = cell
        row = grid[i]
        for v in _candidates(grid, at, i, j):
            row[j] = v
            if k == last:  # every cell is set: a leaf
                yield CayleyTable._unchecked(tuple(map(tuple, grid)))
            else:
                held = at[v]
                held.append(cell)
                yield from fill(k + 1)
                held.pop()
        row[j] = -1

    for table in fill(0):
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


def canonicalize(table: CayleyTable, *, max_order: int = DEFAULT_MAX_CANON_ORDER) -> CayleyTable:
    """Least relabeling of the table, comparing row-major encodings.

    A relabeling sigma with sigma(a) = 0 and sigma(b) = 1 starts its
    encoding with sigma(aa), sigma(ab); each is 0 when the product is a, 1
    when it is b, and at least 2 otherwise.  So the least encoding starts
    with 0 when some a is idempotent (b any other id), else with 1 (b = aa),
    and over those pairs its second entry is 0 when some ab = a, else 1 when
    some ab = b.  Only the pairs (a, b) that reach that start are read, all
    of them when neither product occurs.  No axiom is assumed.
    """
    n = table.order
    if n > max_order:
        raise OrderTooLarge("canonicalization order", n, max_order)
    rows = table.rows
    idempotents = [a for a in range(n) if rows[a][a] == a]
    if idempotents:
        pairs = [(a, b) for a in idempotents for b in range(n) if b != a]
    else:
        pairs = [(a, rows[a][a]) for a in range(n)]
    pairs = (
        [(a, b) for a, b in pairs if rows[a][b] == a]
        or [(a, b) for a, b in pairs if rows[a][b] == b]
        or pairs
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
    return CayleyTable._unchecked(tuple(tuple(best[k : k + n]) for k in range(0, size, n)))


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
