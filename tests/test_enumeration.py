from __future__ import annotations

import io
import json
import random

import pytest

from finsemi import (
    CayleyTable,
    CorpusSummary,
    EnumerationTask,
    MalformedInput,
    OrderTooLarge,
    canonicalize,
    check_associativity,
    corpus_verify,
    enumerate_semigroups,
    parse_table,
    relabel_table,
)
from finsemi import enumeration
from finsemi.enumeration import _fill, check_enumeration_order
from support import (
    N3,
    naive_canonical_rows,
    naive_cell_candidates,
    naive_fill_leaves,
    naive_semigroup_rows,
)


@pytest.fixture(scope="module")
def naive_canonical_by_order(corpus_by_order) -> dict[int, list]:
    """The oracle's canonical form of every labelled table, aligned with corpus_by_order."""
    return {n: [naive_canonical_rows(t.rows) for t in ts] for n, ts in corpus_by_order.items()}


def partial_grids(seed: int, count: int):
    """Seeded consistent partial tables, n = 2..5, with one unset cell each.

    Cells are set in a shuffled order, each to a random value the oracle
    allows, until a random number are set or some cell has no value left;
    the cell returned is the first one in that order still unset.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        cells = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(cells)
        grid = [[-1] * n for _ in range(n)]
        for i, j in cells[: rng.randrange(len(cells))]:
            values = naive_cell_candidates(grid, i, j)
            if not values:
                break
            grid[i][j] = rng.choice(values)
        i, j = next((i, j) for i, j in cells if grid[i][j] < 0)
        yield grid, i, j


def value_index(grid) -> list[list[tuple[int, int]]]:
    """The fill's index: entry v lists the set cells of the grid that hold v."""
    at = [[] for _ in grid]
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if v >= 0:
                at[v].append((i, j))
    return at


def cell_values(grid, at, i, j) -> list[int]:
    """The values the fill takes at the unset cell (i, j): its leaves with that cell alone."""
    return [table.rows[i][j] for table in _fill(grid, at, [(i, j)])]


class TestCandidates:
    def test_matches_naive_oracle_on_random_partial_grids(self):
        seen = {"i == j": 0, "none": 0, "only i": 0, "several": 0}
        for grid, i, j in partial_grids(61, 1000):
            before = [row[:] for row in grid]
            at = value_index(grid)
            got = cell_values(grid, at, i, j)
            assert got == naive_cell_candidates(before, i, j), (before, i, j)
            assert grid == before
            assert at == value_index(before)
            seen["i == j"] += i == j
            seen["none"] += not got
            seen["only i"] += got == [i]
            seen["several"] += len(got) > 1
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize(
        "rows,i,j,expected",
        [
            # (1,1,1): 1*1 = 0, so v = (11)1 = 1(11) = 1*0 = 0 = i
            ([[-1, -1], [0, 0]], 0, 1, [0]),
            # (1,0,1): 1*0 = 1, so v = (10)1 = 1(01) = 1*0 = 1 = i = j
            ([[-1, 0, -1], [1, -1, -1], [-1, -1, -1]], 1, 1, [1]),
            # (2,1,0): 1*0 = 2, so v = 2(10) = (21)0 = 1*0 = 2 = i = j
            ([[-1, -1, -1], [2, -1, -1], [-1, 1, -1]], 2, 2, [2]),
            # nothing is forced and both values survive
            ([[-1, -1], [0, 1]], 0, 1, [0, 1]),
            # (1,1,1) forces 1(11) = 0 and (2,0,0) forces (20)0 = 1
            ([[1, -1, -1], [-1, 2, 0], [0, -1, -1]], 2, 1, []),
            # (0,2,0) and (1,2,0) both force 2, which (0,0,0) rejects: 2*0 != 0*2
            ([[-1, -1, 1], [2, -1, 0], [0, -1, -1]], 0, 0, []),
        ],
    )
    def test_hand_built_cells(self, rows, i, j, expected):
        grid = [row[:] for row in rows]
        assert naive_cell_candidates(rows, i, j) == expected
        at = value_index(grid)
        assert cell_values(grid, at, i, j) == expected
        assert grid == rows
        assert at == value_index(rows)

    def test_two_cells_restore_the_index(self):
        # a non-final cell files its value in at while the next cell runs
        grid, at = [[-1] * 2 for _ in range(2)], [[], []]
        leaves = [table.rows for table in _fill(grid, at, [(0, 0), (0, 1)])]
        assert leaves == [((0, 0), (-1, -1)), ((0, 1), (-1, -1)), ((1, 0), (-1, -1)),
                          ((1, 1), (-1, -1))]
        assert grid == [[-1, -1], [-1, -1]]
        assert at == [[], []]


def multi_cell_grids(seed: int, count: int):
    """Seeded consistent partial tables, n = 2..4, with 2-6 unset cells to fill.

    The set cells are chosen as partial_grids chooses them; of the cells
    left unset, a random 2-6 are listed in a random order, and the rest stay
    unset through the fill.
    """
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 4)
        cells = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(cells)
        grid = [[-1] * n for _ in range(n)]
        for i, j in cells[: rng.randrange(len(cells) - 1)]:
            values = naive_cell_candidates(grid, i, j)
            if not values:
                break
            grid[i][j] = rng.choice(values)
        unset = [(i, j) for i, j in cells if grid[i][j] < 0]
        if len(unset) < 2:
            continue
        count -= 1
        yield grid, rng.sample(unset, rng.randint(2, min(6, len(unset))))


class TestFill:
    def test_matches_naive_leaves_on_random_partial_grids(self):
        # the fill forces cells ahead of the one it sets; a forced value that
        # drops a leaf, or one placed on a cell it never sets, shows here
        seen = {"no leaf": 0, "one leaf": 0, "several": 0, "cells left unset": 0}
        for grid, cells in multi_cell_grids(71, 300):
            before = [row[:] for row in grid]
            at = value_index(grid)
            got = [table.rows for table in _fill(grid, at, cells)]
            assert got == naive_fill_leaves(before, cells), (before, cells)
            assert grid == before
            assert at == value_index(before)
            seen[("no leaf", "one leaf", "several")[min(len(got), 2)]] += 1
            seen["cells left unset"] += sum(v < 0 for row in before for v in row) > len(cells)
        assert min(seen.values()) >= 30, seen


class TestEnumerationTask:
    def test_defaults(self):
        task = EnumerationTask(3)
        assert task.mode == "labelled"

    def test_rejects_bad_mode(self):
        with pytest.raises(MalformedInput):
            EnumerationTask(2, mode="upto")

    def test_rejects_bad_order(self):
        with pytest.raises(MalformedInput):
            EnumerationTask(0)

    @pytest.mark.parametrize("order", [True, False, 2.0, "3", None])
    def test_rejects_an_order_that_is_not_an_int(self, order):
        with pytest.raises(MalformedInput, match="^order must be an int, got "):
            EnumerationTask(order)


class TestEnumerateSemigroups:
    def test_order_one(self):
        tables = list(enumerate_semigroups(EnumerationTask(1)))
        assert tables == [CayleyTable([[0]])]

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 8), (3, 113)])
    def test_matches_naive_oracle(self, n, count, corpus_by_order):
        got = {t.rows for t in corpus_by_order[n]}
        assert got == naive_semigroup_rows(n)
        assert len(corpus_by_order[n]) == count

    def test_order_four_count(self, corpus_by_order):
        assert len(corpus_by_order[4]) == 3492

    def test_all_results_are_associative(self, corpus_by_order):
        for table in corpus_by_order[4][::37]:
            assert check_associativity(table) is None

    def test_no_duplicates(self, corpus_by_order):
        for n in (2, 3, 4):
            tables = corpus_by_order[n]
            assert len({t.rows for t in tables}) == len(tables)

    def test_deterministic(self):
        first = list(enumerate_semigroups(EnumerationTask(3)))
        second = list(enumerate_semigroups(EnumerationTask(3)))
        assert first == second

    @pytest.mark.parametrize("n", [3, 4])
    def test_labelled_stream_is_strictly_increasing(self, n, corpus_by_order):
        # with the set checks above, this fixes the exact order stdout prints
        rows = [t.rows for t in corpus_by_order[n]]
        assert all(a < b for a, b in zip(rows, rows[1:]))

    def test_order_bound(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_semigroups(EnumerationTask(5)))
        with pytest.raises(OrderTooLarge, match="^canonicalization order 7 "):
            check_enumeration_order(EnumerationTask(7, mode="up_to_iso"), 7)
        check_enumeration_order(EnumerationTask(7), 7)
        # explicit override allows more
        gen = enumerate_semigroups(EnumerationTask(5), max_order=5)
        next(gen)
        gen.close()


class TestUpToIso:
    def test_counts(self):
        task = EnumerationTask(3, mode="up_to_iso")
        reps = list(enumerate_semigroups(task))
        assert len(reps) == 24

    def test_reps_are_canonical_forms(self):
        for table in enumerate_semigroups(EnumerationTask(3, mode="up_to_iso")):
            assert canonicalize(table) == table

    def test_classes_cover_the_labelled_corpus(self, corpus_by_order):
        reps = set(enumerate_semigroups(EnumerationTask(3, mode="up_to_iso")))
        assert {canonicalize(t) for t in corpus_by_order[3]} == reps

    def test_order_two(self, corpus_by_order):
        reps = list(enumerate_semigroups(EnumerationTask(2, mode="up_to_iso")))
        assert len(reps) == 5
        assert {canonicalize(t) for t in corpus_by_order[2]} == set(reps)

    def test_order_four_matches_naive_classes(self, naive_canonical_by_order):
        # the representatives stream in increasing order, as the labelled fill does
        reps = list(enumerate_semigroups(EnumerationTask(4, mode="up_to_iso")))
        assert len(reps) == 188  # OEIS A027851
        assert [t.rows for t in reps] == sorted(set(naive_canonical_by_order[4]))

    def test_canonicalizes_each_labelled_leaf_once(self, monkeypatch, corpus_by_order):
        calls = []
        real = enumeration.canonicalize

        def counted(table, **kwargs):
            calls.append(table)
            return real(table, **kwargs)

        monkeypatch.setattr(enumeration, "canonicalize", counted)
        assert len(list(enumerate_semigroups(EnumerationTask(4, mode="up_to_iso")))) == 188
        assert len(calls) == 3492  # OEIS A023814
        assert calls == corpus_by_order[4]

    def test_builds_each_orbit_once_at_its_class_first_leaf(self, monkeypatch):
        # a hit pops its entry, so a call that leaves the memo no smaller missed it
        misses = []
        real = enumeration.canonicalize

        def counted(table, *, orbits):
            before = len(orbits)
            result = real(table, orbits=orbits)
            if len(orbits) >= before:
                misses.append(table)
            return result

        monkeypatch.setattr(enumeration, "canonicalize", counted)
        reps = list(enumerate_semigroups(EnumerationTask(4, mode="up_to_iso")))
        assert len(misses) == 188  # OEIS A027851
        assert misses == reps


def anchor_strata(rows) -> tuple[str, str]:
    """How many idempotents, and whether some ab is a or b, over the pairs below.

    The pairs (a, b) are each idempotent a with any other id b, or, with no
    idempotent, each a with b = aa.  These are the features that set the
    start of a least encoding, sigma(aa) and sigma(ab) for a = sigma^-1(0)
    and b = sigma^-1(1), so the strata spread the inputs over how their
    least forms begin.
    """
    n = len(rows)
    idempotents = [a for a in range(n) if rows[a][a] == a]
    if idempotents:
        pairs = [(a, b) for a in idempotents for b in range(n) if b != a]
    else:
        pairs = [(a, rows[a][a]) for a in range(n)]
    count = ("none", "one", "several")[min(len(idempotents), 2)]
    if any(rows[a][b] == a for a, b in pairs):
        return count, "ab = a"
    if any(rows[a][b] == b for a, b in pairs):
        return count, "only ab = b"
    return count, "neither"


def seeded_magmas(seed: int, count: int):
    """Tables of orders 1..5, entries drawn from a random subset of the ids.

    Few distinct entries make idempotents and ab in {a, b} common, many make
    them rare, so every stratum of anchor_strata is reached.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        values = rng.sample(range(n), rng.randint(1, n))
        yield [[rng.choice(values) for _ in range(n)] for _ in range(n)]


class TestCanonicalize:
    def test_matches_naive_oracle_in_every_anchor_stratum(self):
        # the inputs spread over idempotents and ab in {a, b}, which set how a
        # least encoding begins; each is checked against the oracle's n! relabelings
        seen: dict[str, int] = {}
        for rows in seeded_magmas(67, 900):
            assert canonicalize(CayleyTable(rows)).rows == naive_canonical_rows(rows), rows
            for stratum in anchor_strata(rows):
                seen[stratum] = seen.get(stratum, 0) + 1
        strata = ("none", "one", "several", "ab = a", "only ab = b", "neither")
        assert set(seen) == set(strata)
        assert min(seen.values()) >= 30, seen

    def test_idempotent(self, corpus_by_order):
        for table in corpus_by_order[3][::11]:
            c = canonicalize(table)
            assert canonicalize(c) == c

    def test_constant_on_isomorphism_orbits(self, corpus_by_order):
        rng = random.Random(47)
        for table in rng.sample(corpus_by_order[3], 20):
            sigma = list(range(3))
            rng.shuffle(sigma)
            assert canonicalize(relabel_table(table, sigma)) == canonicalize(table)

    def test_null_three(self):
        assert canonicalize(N3) == N3

    def test_matches_naive_oracle_on_every_semigroup(
        self, corpus_by_order, naive_canonical_by_order
    ):
        for n, tables in corpus_by_order.items():
            for table, expected in zip(tables, naive_canonical_by_order[n]):
                assert canonicalize(table).rows == expected

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_naive_oracle_on_random_tables(self, n):
        # Mostly non-associative; canonicalize never assumes associativity.
        rng = random.Random(59 + n)
        for _ in range(12):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            assert canonicalize(CayleyTable(rows)).rows == naive_canonical_rows(rows)

    def test_returns_the_table_itself_exactly_when_it_is_canonical(
        self, corpus_by_order, naive_canonical_by_order
    ):
        kept = 0
        for n, tables in corpus_by_order.items():
            for table, expected in zip(tables, naive_canonical_by_order[n]):
                canonical = table.rows == expected
                assert (canonicalize(table) is table) == canonical, table.rows
                kept += canonical
        assert kept == 1 + 5 + 24 + 188  # OEIS A027851
        # random tables are rarely canonical, so each is paired with its canonical form
        rng = random.Random(73)
        for n in (1, 5, 6):
            for _ in range(8):
                rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                expected = naive_canonical_rows(rows)
                for table in (CayleyTable(rows), CayleyTable(expected)):
                    canonical = table.rows == expected
                    assert (canonicalize(table) is table) == canonical, table.rows

    def test_order_bound(self):
        big = CayleyTable([[0] * 7 for _ in range(7)])
        with pytest.raises(OrderTooLarge):
            canonicalize(big)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_orbits_memo_agrees_with_the_plain_call_on_every_leaf(self, shuffled, corpus_by_order):
        # each leaf is asked about once, and a hit is popped, so the memo ends empty
        rng = random.Random(89)
        for tables in corpus_by_order.values():
            if shuffled:
                tables = rng.sample(tables, len(tables))
            memo: dict = {}
            for table in tables:
                plain = canonicalize(table)
                memoized = canonicalize(table, orbits=memo)
                assert memoized.rows == plain.rows, table.rows
                assert (memoized is table) == (plain is table), table.rows
            assert memo == {}

    def test_orbits_memo_never_exceeds_its_cap(self, monkeypatch):
        task = EnumerationTask(4, mode="up_to_iso")
        expected = list(enumerate_semigroups(task))
        sizes = []
        real = enumeration.canonicalize

        def measured(table, *, orbits=None):
            result = real(table, orbits=orbits)
            sizes.append(len(orbits))
            return result

        monkeypatch.setattr(enumeration, "ORBIT_MEMO_CAP", 10)
        monkeypatch.setattr(enumeration, "canonicalize", measured)
        assert list(enumerate_semigroups(task)) == expected
        assert 0 < max(sizes) <= 10


class TestCorpusVerify:
    def test_order_one(self):
        sink = io.StringIO()
        summary = corpus_verify(EnumerationTask(1), sink)
        assert summary.tables_seen == 1
        assert summary.theorem_failures == 0

    def test_order_three_no_failures(self):
        sink = io.StringIO()
        summary = corpus_verify(EnumerationTask(3), sink)
        assert summary.tables_seen == 113
        assert summary.theorem_failures == 0
        assert sum(count for _, count in summary.histogram) == 113
        assert summary.elapsed_seconds >= 0

    def test_order_three_histogram(self):
        summary = corpus_verify(EnumerationTask(3), io.StringIO())
        assert dict(
            ((a, h, g), c) for (a, h, g), c in summary.histogram
        ) == {(1, 1, 1): 90, (2, 1, 2): 3, (2, 2, 1): 18, (6, 6, 1): 2}

    def test_jsonl_records(self):
        sink = io.StringIO()
        corpus_verify(EnumerationTask(2), sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 8
        for line in lines:
            record = json.loads(line)
            table = parse_table(record["table"])
            assert table.order == 2
            assert record["identity_holds"] is True
            assert record["aut_order"] >= 1

    def test_summary_serialization(self):
        summary = corpus_verify(EnumerationTask(2), io.StringIO())
        data = summary.to_json_dict()
        assert data["tables_seen"] == 8
        assert data["theorem_failures"] == 0
        text = summary.to_text()
        assert "tables_seen: 8" in text
        assert "theorem_failures: 0" in text

    def test_respects_policy(self):
        least = corpus_verify(EnumerationTask(2), io.StringIO(), policy="least")
        greatest = corpus_verify(
            EnumerationTask(2), io.StringIO(), policy="greatest"
        )
        assert least.theorem_failures == greatest.theorem_failures == 0
        assert least.histogram == greatest.histogram


class TestCorpusSummaryShape:
    def test_is_frozen(self):
        summary = CorpusSummary(1, 0, ((( 1, 1, 1), 1),), 0.0)
        with pytest.raises(AttributeError):
            summary.tables_seen = 2
