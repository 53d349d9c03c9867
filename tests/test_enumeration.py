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
from finsemi.enumeration import _candidates
from support import (
    N3,
    naive_canonical_rows,
    naive_cell_candidates,
    naive_semigroup_rows,
)


@pytest.fixture(scope="module")
def naive_canonical_by_order(corpus_by_order) -> dict[int, list]:
    """The oracle's canonical form of every labelled table, aligned with corpus_by_order."""
    return {n: [naive_canonical_rows(t.rows) for t in ts] for n, ts in corpus_by_order.items()}


def shuffled_cells(n: int, seed: int) -> list[tuple[int, int]]:
    cells = [(i, j) for i in range(n) for j in range(n)]
    random.Random(seed).shuffle(cells)
    return cells


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


class TestCandidates:
    def test_matches_naive_oracle_on_random_partial_grids(self):
        seen = {"i == j": 0, "none": 0, "only i": 0, "several": 0}
        for grid, i, j in partial_grids(61, 1000):
            before = [row[:] for row in grid]
            got = _candidates(grid, len(grid), i, j)
            assert got == naive_cell_candidates(before, i, j), (before, i, j)
            assert grid == before
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
        assert _candidates(grid, len(grid), i, j) == expected
        assert grid == rows


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

    def test_cell_order_does_not_change_the_set(self):
        naive = naive_semigroup_rows(3)
        for seed in (43, 44, 45, 46):
            shuffled = enumerate_semigroups(EnumerationTask(3), cell_order=shuffled_cells(3, seed))
            assert {t.rows for t in shuffled} == naive

    def test_cell_order_does_not_change_the_set_at_order_four(self, corpus_by_order):
        column_major = [(i, j) for j in range(4) for i in range(4)]
        for cells in (shuffled_cells(4, 53), column_major):
            tables = set(enumerate_semigroups(EnumerationTask(4), cell_order=cells))
            assert tables == set(corpus_by_order[4])

    def test_order_bound(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_semigroups(EnumerationTask(5)))
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


class TestCanonicalize:
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

    def test_order_bound(self):
        big = CayleyTable([[0] * 7 for _ in range(7)])
        with pytest.raises(OrderTooLarge):
            canonicalize(big)
        assert canonicalize(big, max_order=7) == big


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
