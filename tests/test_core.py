from __future__ import annotations

import itertools
import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsemi import (
    CayleyTable,
    CongruenceWitness,
    ExtensionScheme,
    FiberSizeSpec,
    MalformedInput,
    NotAssociative,
    Partition,
    Permutation,
    RetractionMap,
    Transversal,
    build_inflation,
    check_associativity,
    compute_h,
    compute_psi,
    format_table,
    is_congruence,
    parse_table,
    product_set,
    relabel_table,
    restrict_to_subsemigroup,
)
import finsemi
from finsemi import core
from support import (
    L2,
    N3,
    S6,
    Z2,
    Z3,
    naive_associativity_witness,
    naive_first_failure,
)


class TestCayleyTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(MalformedInput):
            CayleyTable([[0, 0], [0]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(MalformedInput):
            CayleyTable([[0, 2], [0, 0]])

    def test_rejects_empty(self):
        with pytest.raises(MalformedInput):
            CayleyTable([])

    def test_rejects_non_int(self):
        with pytest.raises(MalformedInput):
            CayleyTable([[0, True], [0, 0]])

    def test_equality_and_hash(self):
        assert CayleyTable([[0, 0], [1, 1]]) == L2
        assert hash(CayleyTable([[0, 0], [1, 1]])) == hash(L2)
        assert CayleyTable([[0, 0], [0, 0]]) != L2

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_unchecked_agrees_with_validated(self, grid):
        checked = CayleyTable(grid)
        unchecked = CayleyTable._unchecked(tuple(map(tuple, grid)))
        assert unchecked == checked and checked == unchecked
        assert hash(unchecked) == hash(checked)
        assert unchecked.rows == checked.rows
        assert type(unchecked.rows) is tuple
        assert all(type(row) is tuple for row in unchecked.rows)
        assert unchecked.order == checked.order == len(grid)
        assert {unchecked, checked} == {checked}


class TestParseTable:
    def test_order_one(self):
        assert parse_table("1\n0").order == 1

    def test_null_fixture_text_with_comments(self):
        text = "# three element null semigroup\n3\n0 0 0\n0 0 0\n0 0 0\n"
        assert parse_table(text) == N3

    def test_z2_is_accepted(self):
        assert parse_table("2\n0 1\n1 0") == Z2

    def test_round_trip_on_fixtures(self):
        for table in (N3, L2, S6, Z3):
            assert parse_table(format_table(table)) == table

    def test_not_associative_raises_with_witness(self):
        text = "2\n0 1\n0 0\n"
        with pytest.raises(NotAssociative) as info:
            parse_table(text)
        rows = ((0, 1), (0, 0))
        assert info.value.witness == naive_associativity_witness(rows)

    def test_lenient_mode_keeps_non_associative_table(self):
        table = parse_table("2\n0 1\n0 0\n", require_associative=False)
        assert table.rows == ((0, 1), (0, 0))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "junk",
            "0",
            "-1",
            "2\n0 1",
            "2\n0 1\n1 x",
            "2\n0 1\n1 0\nextra",
            "2\n0 1 1\n1 0",
            "2\n0 3\n1 0",
            "2\n0 0\n1 +1",
            "2\n0 0\n1 -0",
            "0_2\n0 0\n0 0",
            "+2\n0 0\n0 0",
            "11\n" + "".join(" ".join([str(x)] * 11) + "\n" for x in range(10)) + "1_0 " * 11,
            "2\n0 0\n1 \u0661",
            "\u0662\n0 0\n1 1",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(MalformedInput):
            parse_table(text)

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_format_parse_round_trip(self, rows):
        table = CayleyTable(rows)
        again = parse_table(format_table(table), require_associative=False)
        assert again == table


class TestCheckAssociativity:
    def test_left_zero_ok(self):
        assert check_associativity(L2) is None

    def test_small_failing_table_matches_oracle(self):
        rows = ((0, 1), (0, 0))
        witness = check_associativity(CayleyTable(rows))
        assert witness == naive_associativity_witness(rows) == (1, 0, 1)

    def test_s6_ok(self):
        assert check_associativity(S6) is None
        assert naive_associativity_witness(S6.rows) is None

    def test_agrees_with_oracle_on_random_grids(self):
        rng = random.Random(7)
        failing = 0
        for _ in range(2000):
            n = rng.randint(1, 7)
            rows = tuple(
                tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)
            )
            expected = naive_associativity_witness(rows)
            assert check_associativity(CayleyTable(rows)) == expected
            failing += expected is not None
        assert 1000 < failing < 2000

    def test_every_magma_of_order_at_most_three(self):
        for n in (1, 2, 3):
            for vals in itertools.product(range(n), repeat=n * n):
                rows = tuple(vals[i * n : (i + 1) * n] for i in range(n))
                assert check_associativity(CayleyTable(rows)) == naive_associativity_witness(rows)

    def test_every_semigroup_of_order_four(self, corpus_by_order):
        assert len(corpus_by_order[4]) == 3492
        for table in corpus_by_order[4]:
            assert check_associativity(table) == naive_associativity_witness(table.rows)

    def test_first_failure_over_every_subset_of_the_ids(self, corpus_by_order):
        # ids of one element included, where a scan of whole rows would read one entry
        def subsets(n):
            return [c for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]

        failing = 0
        for n in (1, 2, 3):
            for vals in itertools.product(range(n), repeat=n * n):
                rows = tuple(vals[i * n : (i + 1) * n] for i in range(n))
                for ids in subsets(n):
                    got = core._first_failure(rows, list(ids))
                    assert got == naive_first_failure(rows, ids), (rows, ids)
                    failing += got is not None
        for table in corpus_by_order[4]:
            for ids in subsets(4):
                assert core._first_failure(table.rows, list(ids)) == naive_first_failure(
                    table.rows, ids
                )
        assert failing > 50000

    def test_large_inflations_with_one_cell_changed(self, corpus_by_order, monkeypatch):
        # the witness must still be the least failing triple of the whole table
        rng = random.Random(12)
        bases = corpus_by_order[1] + corpus_by_order[2] + corpus_by_order[3]
        scanned = []  # how many ids each scan runs over
        first_failure = core._first_failure

        def counted(rows, ids):
            scanned.append(len(ids))
            return first_failure(rows, ids)

        monkeypatch.setattr(core, "_first_failure", counted)
        failing = 0
        for _ in range(40):
            base = rng.choice(bases)
            sizes = [1] * base.order
            for _ in range(rng.randint(20, 40) - base.order):
                sizes[rng.randrange(base.order)] += 1
            table, _ = build_inflation(FiberSizeSpec(base, tuple(sizes)), max_order=40)
            n = table.order
            table = relabel_table(table, rng.sample(range(n), n))
            del scanned[:]
            assert check_associativity(table) is None
            assert scanned == [len(compute_psi(table).blocks)] and scanned[0] < n
            rows = [list(row) for row in table.rows]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
            expected = naive_associativity_witness(rows)
            changed = CayleyTable(rows)
            del scanned[:]
            assert check_associativity(changed) == expected
            assert scanned == [len(compute_psi(changed).blocks)]  # one scan, failing or not
            failing += expected is not None
        assert failing > 20

    def test_copies_of_a_non_product_placed_before_the_base(self):
        # ids 0..k-1 copy the base's non-product p and base id x becomes k + x,
        # so the least witness lies past every copy but one
        def copies_first(base, p, k):
            old = [p] * k + list(range(base.order))
            return [[k + base.rows[x][y] for y in old] for x in old]

        failing_base = CayleyTable([[0, 0, 0], [0, 0, 0], [0, 2, 0]])
        for k in (0, 1, 2, 10, 50, 200):
            rows = copies_first(failing_base, 1, k)
            expected = naive_associativity_witness(rows)
            assert check_associativity(CayleyTable(rows)) == expected
            assert expected == ((k + 2, 0, 0) if k else (2, 1, 1))
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randint(1, 4)
            base = CayleyTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
            for p in sorted(set(range(m)) - product_set(base)):
                rows = copies_first(base, p, rng.randint(1, 12))
                assert check_associativity(CayleyTable(rows)) == naive_associativity_witness(rows)


class TestProductSet:
    def test_null(self):
        assert product_set(N3) == {0}

    def test_left_zero(self):
        assert product_set(L2) == {0, 1}

    def test_s6(self):
        assert product_set(S6) == {0, 1}

    def test_nonempty_and_closed(self, corpus_by_order):
        for table in corpus_by_order[3]:
            prods = product_set(table)
            assert prods
            assert all(table.rows[a][b] in prods for a in prods for b in prods)


class TestComputeH:
    def test_null_is_one_block(self):
        assert compute_h(N3).blocks == ((0, 1, 2),)

    def test_left_zero_is_diagonal(self):
        assert compute_h(L2).blocks == ((0,), (1,))

    def test_s6(self):
        assert compute_h(S6).blocks == ((0, 2, 4), (1, 3, 5))

    def test_matches_definition_on_corpus(self, corpus_by_order):
        for table in corpus_by_order[3][::7]:
            n = table.order
            rows = table.rows
            h = compute_h(table)
            for a in range(n):
                for b in range(n):
                    same = all(
                        rows[a][x] == rows[b][x] and rows[x][a] == rows[x][b]
                        for x in range(n)
                    )
                    assert h.related(a, b) == same

    def test_relabeling_invariance(self, corpus_by_order):
        rng = random.Random(11)
        for table in rng.sample(corpus_by_order[3], 25):
            sigma = list(range(table.order))
            rng.shuffle(sigma)
            relabeled = relabel_table(table, sigma)
            expected = Partition(
                table.order,
                [[sigma[x] for x in block] for block in compute_h(table).blocks],
            )
            assert compute_h(relabeled) == expected


class TestStructureOnce:
    def test_h_and_psi_are_built_once_and_shared(self, monkeypatch):
        calls = []
        h_blocks = core._h_blocks

        def counted(rows):
            calls.append(rows)
            return h_blocks(rows)

        monkeypatch.setattr(core, "_h_blocks", counted)
        table = CayleyTable(S6.rows)  # a fresh table, nothing kept on it yet
        assert compute_h(table) is compute_h(table)
        assert compute_psi(table) is compute_psi(table)
        assert calls == [table.rows]


class TestComputePsi:
    def test_null(self):
        assert compute_psi(N3).blocks == ((0,), (1, 2))

    def test_left_zero_is_diagonal(self):
        assert compute_psi(L2).blocks == ((0,), (1,))

    def test_s6(self):
        assert compute_psi(S6).blocks == ((0,), (1,), (2, 4), (3, 5))

    def test_refines_h_and_isolates_products(self, corpus_by_order):
        for n in (1, 2, 3):
            for table in corpus_by_order[n]:
                prods = product_set(table)
                h = compute_h(table)
                psi = compute_psi(table)
                for block in psi.blocks:
                    if any(x in prods for x in block):
                        assert len(block) == 1
                    else:
                        first = h.block_of[block[0]]
                        assert all(h.block_of[x] == first for x in block)
                # non-products h-related to each other must share a psi block
                for a in range(table.order):
                    for b in range(table.order):
                        if a not in prods and b not in prods and h.related(a, b):
                            assert psi.related(a, b)


class TestIsCongruence:
    def test_psi_on_null(self):
        assert is_congruence(compute_psi(N3), N3) is None

    def test_diagonal_is_always_ok(self, corpus_by_order):
        for table in corpus_by_order[3][::9]:
            diagonal = Partition(table.order, [[x] for x in range(table.order)])
            assert is_congruence(diagonal, table) is None

    def test_coarse_partition_on_null(self):
        assert is_congruence(Partition(3, [[0, 1], [2]]), N3) is None

    def test_psi_is_congruence_on_whole_corpus(self, corpus_by_order):
        for n in (1, 2, 3):
            for table in corpus_by_order[n]:
                assert is_congruence(compute_psi(table), table) is None

    def test_witness_on_cyclic_group(self):
        witness = is_congruence(Partition(3, [[0, 1], [2]]), Z3)
        assert witness == CongruenceWitness(0, 1, 1, "left")
        # verify the witness means what it says
        assert Z3.rows[1][0] == 1 and Z3.rows[1][1] == 2

    def test_order_mismatch(self):
        with pytest.raises(MalformedInput):
            is_congruence(Partition(2, [[0], [1]]), N3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation((True, False)),
        lambda: Permutation((0.0, 1.0)),
        lambda: Transversal(3, (0.0, 2)),
        lambda: RetractionMap((0.0, 1), Transversal(2, (0, 1))),
        lambda: ExtensionScheme(2, ((0.0,), (1,))),
        lambda: relabel_table(Z2, (0.0, 1.0)),
        lambda: Partition(2, [[0.0], [1]]),
        lambda: restrict_to_subsemigroup(S6, (0.0, 1)),
    ],
    ids=[
        "permutation-bools",
        "permutation-floats",
        "transversal",
        "retraction",
        "extension-scheme",
        "relabel-table",
        "partition",
        "restrict",
    ],
)
def test_a_float_or_bool_is_not_an_id(build):
    with pytest.raises(MalformedInput):
        build()


class TestFirstNonId:
    @pytest.mark.parametrize("bad", [True, 1.0, -1, 4], ids=["bool", "float", "minus-one", "n"])
    def test_the_index_of_a_non_id_at_each_position(self, bad):
        for i in range(4):
            values = [2, 0, 3, 1]
            values[i] = bad
            assert core._first_non_id(values, 4) == i
            assert core._first_non_id(tuple(values), 4) == i
            assert core._first_non_id(values + [bad], 4) == i  # the first of two

    def test_ids_in_range(self):
        assert core._first_non_id((2, 0, 3, 1), 4) == -1
        assert core._first_non_id([0, 0, 3], 4) == -1

    def test_empty(self):
        assert core._first_non_id((), 0) == -1
        assert core._first_non_id([], 3) == -1


class TestPartition:
    def test_normalization(self):
        assert Partition(3, [[2, 1], [0]]).blocks == ((0,), (1, 2))

    def test_rejects_overlap(self):
        with pytest.raises(MalformedInput):
            Partition(2, [[0, 1], [1]])

    def test_rejects_missing_element(self):
        with pytest.raises(MalformedInput):
            Partition(3, [[0, 1]])

    def test_block_containing(self):
        psi = compute_psi(S6)
        assert psi.block_containing(4) == (2, 4)


class TestRelabelTable:
    def test_identity(self):
        assert relabel_table(S6, list(range(6))) == S6

    def test_relabel_preserves_associativity(self, corpus_by_order):
        rng = random.Random(3)
        for table in rng.sample(corpus_by_order[3], 20):
            sigma = list(range(table.order))
            rng.shuffle(sigma)
            assert check_associativity(relabel_table(table, sigma)) is None

    def test_round_trip(self):
        sigma = [2, 0, 1]
        inv = [1, 2, 0]
        assert relabel_table(relabel_table(Z3, sigma), inv) == Z3

    @pytest.mark.parametrize(
        "images", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3], [False, True, 2]]
    )
    def test_rejects_a_non_bijection(self, images):
        with pytest.raises(MalformedInput, match="not a permutation"):
            relabel_table(Z3, images)

    def test_equals_the_validated_construction(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 7)
            table = CayleyTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            sigma = rng.sample(range(n), n)
            inv = [sigma.index(x) for x in range(n)]
            rows = [[sigma[table.rows[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
            relabeled = relabel_table(table, sigma)
            assert relabeled == CayleyTable(rows)
            assert all(type(row) is tuple for row in relabeled.rows)


def test_every_public_name_is_exported():
    bound = {
        name
        for name, value in vars(finsemi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(finsemi.__all__)
    assert "Partition" in finsemi.__all__
