"""Exhaustive generation of small multiplication tables.

The generator fills table cells one at a time, all of them from one
generator frame that keeps each cell's values left and trail mark on a
stack, and tries at each cell only the values that fail no fully set
associativity triple, so only semigroups reach the leaves.  It checks
forward (Haralick and Elliott, 1980; Distler and Kelsey propagate the same
way in constraint-based semigroup enumeration): once a triple's (a,b) and
(b,c) are set and one of its product cells (ab,c), (a,bc) is, the other is
forced to the same value, on a forced grid with one shared trail that each
value undoes.  Two different forced values on one cell close the branch
where the second arises, and a cell with a forced value tries only that
value.  Check plans, built once per fill, list for each cell the rows and
columns set by the time it is, so its checks read only set inner cells,
and the set cells are indexed by value, so the triples that read a cell as
a product are read off two lists.  The leaves and their order are those of
a fill that tries every value.

Canonical forms take the least encoding over all n! relabelings, which is
affordable at the orders this tool targets: a plan cached per order holds
each relabeling as a bytes.translate table of its images and an itemgetter
of the flat index each row-major entry comes from, so each candidate is
built and compared in C as a tuple, and a table that no relabeling encodes
smaller is returned as it is.

An up-to-iso run keeps one orbits memo for all its leaves.  A table the
memo misses builds its orbit once and records every other encoding in it,
the least one included, against one shared least form; a table the memo
holds pops its entry.  The labelled stream is lexicographic, so each
class's only miss is its first leaf, its canonical form, and every later
leaf of the class is a hit.  An orbit is recorded only when it fits under
ORBIT_MEMO_CAP entries (order 5 peaks at 137 109), so the memo's memory is
bounded at any order.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import time
from dataclasses import dataclass
from typing import IO, Callable, Iterator

from .core import CayleyTable, format_table
from .errors import MalformedInput, OrderTooLarge
from .theorem import TheoremReport, verify_theorem

DEFAULT_MAX_ENUM_ORDER = 4
DEFAULT_MAX_CANON_ORDER = 6
ORBIT_MEMO_CAP = 1 << 18  # entries canonicalize's orbits memo may hold
MODES = ("labelled", "up_to_iso")


@dataclass(frozen=True)
class EnumerationTask:
    """What to enumerate: the order and whether to collapse relabelings."""

    order: int
    mode: str = "labelled"

    def __post_init__(self):
        if not isinstance(self.order, int) or isinstance(self.order, bool):
            raise MalformedInput(f"order must be an int, got {self.order!r}")
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
    triple fails once it holds v.  forced[x][y] is the value forced on the
    unset cell (x, y), -1 when none, and n on a cell the fill never sets,
    which nothing forces.  The start grid's triples force first; after that
    each value forces from the triples it completes: those that read it as
    (a,b) or (b,c), which its check plans list, and those that read it as
    (ab,c) or (a,bc), which at[i] and at[j] list.  A triple that reads the
    cell only as a product has forced it by the time it is set, so a value
    passes when the triples that read it as (a,b) or (b,c) hold and no
    forcing conflicts.  Run to the end, the fill leaves the grid and at as
    they were.

    One frame runs the whole fill: tries[k] is the iterator over the values
    cell k has left and marks[k] the trail's length when cell k was
    reached.  Each value first undoes the trail back to its cell's mark.  A
    value that passes descends to the next cell by a break out of the value
    loop, and a cell out of values unsets itself and resumes the cell
    before it.
    """
    n = len(grid)
    values = range(n)
    last = len(cells) - 1
    forced = [[n] * n for _ in values]
    for i, j in cells:
        forced[i][j] = -1
    trail: list = []  # each forced row and column, in turn; a value undoes its own

    # the plan of cell (i, j): the c with (j, c) set and the a with (a, i)
    # set once (i, j) is, the cells before it in the fill being set
    set_by = [[v >= 0 for v in row] for row in grid]
    plans = []
    for i, j in cells:
        set_by[i][j] = True
        plans.append(([c for c in values if set_by[j][c]], [a for a in values if set_by[a][i]]))

    for a, ga in enumerate(grid):
        for b, u in enumerate(ga):
            if u >= 0:
                for c, y in enumerate(grid[b]):
                    if y >= 0:  # (a, b, c): (uc) and (ay) each force the other
                        for x, z, w in ((a, y, grid[u][c]), (u, c, ga[y])):
                            f = forced[x][z]
                            if w >= 0 > grid[x][z] and f != w and f != n:
                                if f >= 0:
                                    return
                                forced[x][z] = w

    i, j = cells[0]
    f = forced[i][j]
    tries = [iter(values if f < 0 else (f,))] + [None] * last
    marks = [0] * (last + 1)
    k = 0
    while True:
        i, j = cell = cells[k]
        cs, as_ = plans[k]
        gi = grid[i]
        gj = grid[j]
        fi = forced[i]
        mark = marks[k]
        for v in tries[k]:
            while len(trail) > mark:
                y = trail.pop()
                trail.pop()[y] = -1
            gi[j] = v
            gv = grid[v]
            fv = forced[v]
            for c in cs:  # (i, j, c): (vc) against i(jc), or the set one forces the other
                y = gj[c]
                p = gv[c]
                q = gi[y]
                if p >= 0:
                    if q >= 0:
                        if p != q:
                            break
                    else:
                        g = fi[y]
                        if g < 0:
                            fi[y] = p
                            trail.append(fi)
                            trail.append(y)
                        elif g != p and g != n:
                            break
                elif q >= 0:
                    g = fv[c]
                    if g < 0:
                        fv[c] = q
                        trail.append(fv)
                        trail.append(c)
                    elif g != q and g != n:
                        break
            else:
                for a in as_:  # (a, i, j): (ai)j against av, or the set one forces the other
                    ga = grid[a]
                    u = ga[i]
                    p = grid[u][j]
                    q = ga[v]
                    if p >= 0:
                        if q >= 0:
                            if p != q:
                                break
                        else:
                            fa = forced[a]
                            g = fa[v]
                            if g < 0:
                                fa[v] = p
                                trail.append(fa)
                                trail.append(v)
                            elif g != p and g != n:
                                break
                    elif q >= 0:
                        fu = forced[u]
                        g = fu[j]
                        if g < 0:
                            fu[j] = q
                            trail.append(fu)
                            trail.append(j)
                        elif g != q and g != n:
                            break
                else:
                    if k == last:  # every cell is set: a leaf
                        yield CayleyTable._unchecked(tuple(map(tuple, grid)))
                    else:
                        for a, b in at[i]:  # (a, b, j) with ab = i: a(bj) = v
                            y = grid[b][j]
                            if y >= 0 and grid[a][y] < 0:
                                fa = forced[a]
                                g = fa[y]
                                if g < 0:
                                    fa[y] = v
                                    trail.append(fa)
                                    trail.append(y)
                                elif g != v and g != n:
                                    break
                        else:
                            for b, c in at[j]:  # (i, b, c) with bc = j: (ib)c = v
                                u = gi[b]
                                if u >= 0 and grid[u][c] < 0:
                                    fu = forced[u]
                                    g = fu[c]
                                    if g < 0:
                                        fu[c] = v
                                        trail.append(fu)
                                        trail.append(c)
                                    elif g != v and g != n:
                                        break
                            else:
                                at[v].append(cell)
                                break  # descend to cell k + 1
        else:  # cell k is out of values: resume cell k - 1, whose next value undoes the trail
            gi[j] = -1
            if not k:
                return
            k -= 1
            i, j = cells[k]
            at[grid[i][j]].pop()
            continue
        k += 1
        i, j = cells[k]
        f = forced[i][j]
        tries[k] = iter(values if f < 0 else (f,))
        marks[k] = len(trail)


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
    orbits: dict[bytes, CayleyTable] = {}
    for table in _fill([[-1] * n for _ in range(n)], [[] for _ in range(n)], cells):
        if task.mode == "labelled" or canonicalize(table, orbits=orbits) is table:
            yield table


@functools.cache
def _relabel_plan(n: int) -> list[tuple[bytes, Callable[[bytes], tuple]]]:
    """The n! relabelings sigma of 0..n-1, the identity first.

    Each is a bytes.translate table that sends x to sigma(x), with a gather
    whose entry k is inv[i]*n + inv[j] for the row-major position
    k = i*n + j, inv being sigma's inverse: the relabeled table holds
    sigma(x) there, x being the entry at that flat index.  The gather is an
    itemgetter, or tuple at order 1, where an itemgetter of one index would
    return an int.  The cache keeps n! tables of 256 bytes and n! gathers
    of n^2 indices per order used, 524 KiB by tracemalloc at the default
    cap of 6.
    """
    plan = []
    for images in itertools.permutations(range(n)):
        inv = [0] * n
        for x, y in enumerate(images):
            inv[y] = x
        src = operator.itemgetter(*(inv[i] * n + inv[j] for i in range(n) for j in range(n)))
        plan.append((bytes(images).ljust(256, b"\0"), src if n > 1 else tuple))
    return plan


def canonicalize(table: CayleyTable, *, orbits: dict | None = None) -> CayleyTable:
    """Least relabeling of the table, comparing row-major encodings.

    Every one of the n! relabelings is built, by one translate and one
    gather of the flat table in C, and the least is kept.  No axiom is
    assumed.  The result is the table itself exactly when it is canonical.
    Orders over DEFAULT_MAX_CANON_ORDER are refused.

    orbits, when given, is a memo shared between calls: it maps the bytes
    encoding of a table not yet asked about to its orbit's least form.  A
    hit is popped and returns that least form, or the table itself when its
    rows are the least form's.  A miss builds the orbit once and records
    every encoding in it but the table's own, the least one included,
    against one shared least form, when they fit under ORBIT_MEMO_CAP
    entries.  Each result is the minimum over a whole orbit, so it does not
    depend on the order of the calls, and a memo whose orbits' members are
    each asked about once ends empty.
    """
    n = table.order
    if n > DEFAULT_MAX_CANON_ORDER:
        raise OrderTooLarge("canonicalization order", n, DEFAULT_MAX_CANON_ORDER)
    rows = table.rows
    encoded = bytes(itertools.chain.from_iterable(rows))
    if orbits is not None:
        least = orbits.pop(encoded, None)
        if least is not None:
            return table if least.rows == rows else least
    orbit = [src(encoded.translate(images)) for images, src in _relabel_plan(n)]
    best = min(orbit)
    if best == orbit[0]:  # no relabeling reads smaller than the identity
        least = table
    else:
        least = CayleyTable._unchecked(tuple(zip(*[iter(best)] * n)))
    if orbits is not None:
        members = dict.fromkeys(map(bytes, orbit), least)
        del members[encoded]
        if len(orbits) + len(members) <= ORBIT_MEMO_CAP:
            orbits.update(members)
    return least


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
