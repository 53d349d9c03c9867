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
from support import N3, naive_semigroup_rows


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

    def test_cell_order_does_not_change_the_set(self, corpus_by_order):
        rng = random.Random(43)
        cells = [(i, j) for i in range(3) for j in range(3)]
        rng.shuffle(cells)
        shuffled = set(
            enumerate_semigroups(EnumerationTask(3), cell_order=cells)
        )
        assert shuffled == set(corpus_by_order[3])

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
