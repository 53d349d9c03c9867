from __future__ import annotations

import itertools
import json
import math
import random
import time
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsemi import (
    CayleyTable,
    EnumerationTask,
    ExtensionScheme,
    FiberSizeSpec,
    MalformedInput,
    NotAnAutomorphism,
    NotExtendable,
    OrderTooLarge,
    Partition,
    PermGroup,
    Permutation,
    RetractionMap,
    TheoremReport,
    Transversal,
    build_inflation,
    canonicalize,
    check_associativity,
    choose_transversal,
    compose,
    compute_h,
    compute_psi,
    decompose_automorphism,
    embed_h,
    enumerate_automorphisms,
    enumerate_semigroups,
    extend_automorphism,
    extendable_automorphisms,
    extension_scheme,
    identity,
    induced_retraction,
    inverse,
    is_automorphism,
    predicted_class_group_order,
    product_set,
    psi_class_group,
    relabel_table,
    restrict_to_subsemigroup,
    verify_theorem,
)
from finsemi import automorphisms, core, theorem
from finsemi.inflation import POLICIES, InflationWitness
from support import (
    FIXTURES,
    IL2,
    L2,
    N3,
    N4,
    S6,
    Z3,
    cyclic_group,
    free_semilattice,
    left_zero,
    naive_automorphism_images,
    naive_class_action,
    naive_orbit,
    naive_sift,
    non_products_first,
    null_semigroup,
    random_magma_inflation,
    rectangular_band,
    reference_chain,
    strong_generators,
)

TWO_NULL = CayleyTable([[0, 0], [0, 0]])
SMALL_SEMIGROUPS = [t for n in (1, 2, 3) for t in enumerate_semigroups(EnumerationTask(n))]


def s6_frame():
    psi = compute_psi(S6)
    t = choose_transversal(psi, "least")
    return psi, t, extension_scheme(psi, t)


class TestPsiClassGroup:
    def test_left_zero_is_trivial(self):
        assert psi_class_group(compute_psi(L2)).elements == (identity(2),)

    def test_null_three(self):
        g = psi_class_group(compute_psi(N3))
        assert set(g.elements) == {identity(3), Permutation((0, 2, 1))}

    def test_s6_exact_elements(self):
        g = psi_class_group(compute_psi(S6))
        expected = {
            identity(6),
            Permutation((0, 1, 4, 3, 2, 5)),
            Permutation((0, 1, 2, 5, 4, 3)),
            Permutation((0, 1, 4, 5, 2, 3)),
        }
        assert set(g.elements) == expected

    def test_predicted_order(self):
        assert predicted_class_group_order(compute_psi(S6)) == 4
        assert predicted_class_group_order(compute_psi(N4)) == 6
        assert predicted_class_group_order(Partition(1, [[0]])) == 1

    def test_order_matches_prediction_on_corpus(self, corpus_by_order):
        for table in corpus_by_order[3]:
            psi = compute_psi(table)
            assert len(psi_class_group(psi)) == predicted_class_group_order(psi)

    def test_every_member_is_an_automorphism(self, corpus_by_order):
        # class-fixing permutations preserve any product: products are
        # singleton classes and x*y only depends on the classes of x and y
        for table in list(FIXTURES.values()) + corpus_by_order[3][::6]:
            for p in psi_class_group(compute_psi(table)):
                assert is_automorphism(table, p)

    def test_group_order_bound(self):
        wide = Partition(9, [list(range(9))])
        with pytest.raises(OrderTooLarge):
            psi_class_group(wide)


class TestExtensionScheme:
    def test_null_three(self):
        psi = compute_psi(N3)
        t = choose_transversal(psi, "least")
        assert extension_scheme(psi, t).listings == ((0,), (1, 2))

    def test_singleton_blocks(self):
        psi = compute_psi(L2)
        t = choose_transversal(psi, "least")
        assert extension_scheme(psi, t).listings == ((0,), (1,))

    def test_s6(self):
        _, _, scheme = s6_frame()
        assert scheme.listings == ((0,), (1,), (2, 4), (3, 5))

    def test_representative_heads_each_listing(self, corpus_by_order):
        for table in corpus_by_order[3][::8]:
            psi = compute_psi(table)
            for policy in POLICIES:
                t = choose_transversal(psi, policy, seed=2)
                scheme = extension_scheme(psi, t)
                for k, rep in enumerate(t.representatives):
                    listing = scheme.listings[k]
                    assert listing[0] == rep
                    assert sorted(listing) == list(psi.block_containing(rep))
                    assert list(listing[1:]) == sorted(listing[1:])

    @pytest.mark.parametrize("reps", [(0, 1, 2), (0, 1, 2, 3, 4)], ids=["missing", "doubled"])
    def test_rejects_a_transversal_without_one_id_per_class(self, reps):
        psi = compute_psi(S6)
        with pytest.raises(MalformedInput):
            extension_scheme(psi, Transversal(6, reps))


def _with_identity(table):
    """The table with an identity element adjoined as the last id."""
    n = table.order
    return CayleyTable([list(row) + [x] for x, row in enumerate(table.rows)] + [list(range(n + 1))])


def _direct_product(a, b):
    """a x b with (x, y) numbered x * |b| + y."""
    m = b.order
    return CayleyTable(
        [
            [a.rows[x // m][y // m] * m + b.rows[x % m][y % m] for y in range(a.order * m)]
            for x in range(a.order * m)
        ]
    )


def _inflation(data, max_order=7):
    """A Hypothesis-drawn inflation of an order <= 3 base, at most max_order, relabelled."""
    base = data.draw(st.sampled_from(SMALL_SEMIGROUPS))
    sizes = [1] * base.order
    for _ in range(data.draw(st.integers(0, max_order - base.order))):
        sizes[data.draw(st.integers(0, base.order - 1))] += 1
    inflated, _ = build_inflation(FiberSizeSpec(base, tuple(sizes)))
    return relabel_table(inflated, data.draw(st.permutations(range(inflated.order))))


class TestUncheckedConstructors:
    """What the pipeline builds unchecked equals what the validating constructors build."""

    def check(self, table):
        n = table.order
        h_blocks = core._h_blocks(table.rows)
        psi_blocks = core._psi_blocks(h_blocks, core.product_set(table))
        for built, blocks in ((compute_h(table), h_blocks), (compute_psi(table), psi_blocks)):
            checked = Partition(n, blocks)
            assert built == checked
            assert (built.blocks, built.block_of) == (checked.blocks, checked.block_of)
        psi = compute_psi(table)
        for policy in POLICIES:
            t = choose_transversal(psi, policy, seed=7)
            assert t == Transversal(n, t.representatives)
            r = induced_retraction(psi, t)
            assert r == RetractionMap(r.theta, t)
            scheme = extension_scheme(psi, t)
            assert scheme == ExtensionScheme(n, scheme.listings)

    def test_every_semigroup_of_order_at_most_four(self, corpus_by_order):
        for tables in corpus_by_order.values():
            for table in tables:
                self.check(table)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_inflations_relabelled(self, data):
        self.check(_inflation(data))


class TestExtendableAutomorphisms:
    def test_two_null_with_unequal_sizes(self):
        h = extendable_automorphisms(TWO_NULL, (1, 2))
        assert h.elements == (identity(2),)

    def test_il2_equal_pairs(self):
        h = extendable_automorphisms(IL2, (1, 1, 2, 2))
        assert set(h.elements) == {identity(4), Permutation((1, 0, 3, 2))}

    def test_il2_unequal_pairs(self):
        h = extendable_automorphisms(IL2, (1, 1, 2, 1))
        assert h.elements == (identity(4),)

    def test_size_count_mismatch(self):
        with pytest.raises(MalformedInput):
            extendable_automorphisms(IL2, (1, 1, 2))

    def test_subgroup_of_full_aut(self, corpus_by_order):
        rng = random.Random(41)
        for table in rng.sample(corpus_by_order[3], 12):
            aut = set(enumerate_automorphisms(table).elements)
            sizes = tuple(rng.randint(1, 2) for _ in range(3))
            kept = set(extendable_automorphisms(table, sizes).elements)
            assert kept <= aut
            assert all(
                sizes[k] == sizes[p.images[k]] for p in kept for k in range(3)
            )


class TestExtendAutomorphism:
    def test_identity_extends_to_identity(self):
        _, _, scheme = s6_frame()
        assert extend_automorphism(identity(4), scheme) == identity(6)

    def test_s6_pair_swap(self):
        _, _, scheme = s6_frame()
        tau = Permutation((1, 0, 3, 2))
        assert extend_automorphism(tau, scheme).images == (1, 0, 3, 2, 5, 4)

    def test_not_extendable_witness(self):
        table, _ = build_inflation(FiberSizeSpec(IL2, (1, 1, 2, 1)))
        psi = compute_psi(table)
        assert psi.blocks == ((0,), (1,), (2, 4), (3,))
        t = choose_transversal(psi, "least")
        scheme = extension_scheme(psi, t)
        with pytest.raises(NotExtendable) as info:
            extend_automorphism(Permutation((1, 0, 3, 2)), scheme)
        assert info.value.witness == 2

    def test_degree_mismatch(self):
        _, _, scheme = s6_frame()
        with pytest.raises(MalformedInput):
            extend_automorphism(identity(3), scheme)

    def test_multiplicative_on_fixtures_and_corpus(self, corpus_by_order):
        tables = list(FIXTURES.values()) + corpus_by_order[3][::10]
        for table in tables:
            psi = compute_psi(table)
            t = choose_transversal(psi, "least")
            scheme = extension_scheme(psi, t)
            sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
            sizes = tuple(len(psi.block_containing(r)) for r in old_ids)
            h = extendable_automorphisms(sub, sizes)
            for t1 in h:
                for t2 in h:
                    lhs = extend_automorphism(compose(t1, t2), scheme)
                    rhs = compose(
                        extend_automorphism(t1, scheme),
                        extend_automorphism(t2, scheme),
                    )
                    assert lhs == rhs


class TestEmbedH:
    def test_trivial_group(self):
        psi = compute_psi(L2)
        t = choose_transversal(psi, "least")
        scheme = extension_scheme(psi, t)
        out = embed_h(PermGroup(2, [identity(2)]), scheme)
        assert out.elements == (identity(2),)

    def test_s6(self):
        _, t, scheme = s6_frame()
        sub, old_ids = restrict_to_subsemigroup(S6, t.representatives)
        h = extendable_automorphisms(sub, (1, 1, 2, 2))
        out = embed_h(h, scheme)
        assert set(out.elements) == {
            identity(6),
            Permutation((1, 0, 3, 2, 5, 4)),
        }

    def test_preserves_order(self, corpus_by_order):
        for table in corpus_by_order[3][::7]:
            psi = compute_psi(table)
            t = choose_transversal(psi, "least")
            scheme = extension_scheme(psi, t)
            sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
            sizes = tuple(len(psi.block_containing(r)) for r in old_ids)
            h = extendable_automorphisms(sub, sizes)
            assert len(embed_h(h, scheme)) == len(h)


class TestDecomposeAutomorphism:
    def test_identity(self):
        psi, t, scheme = s6_frame()
        tau, pi = decompose_automorphism(S6, identity(6), psi, t, scheme)
        assert tau == identity(4)
        assert pi == identity(6)

    def test_class_fixing_automorphism(self):
        psi, t, scheme = s6_frame()
        phi = Permutation((0, 1, 4, 3, 2, 5))
        tau, pi = decompose_automorphism(S6, phi, psi, t, scheme)
        assert tau == identity(4)
        assert pi == phi

    def test_mixed_automorphism(self):
        psi, t, scheme = s6_frame()
        phi = Permutation((1, 0, 3, 4, 5, 2))
        tau, pi = decompose_automorphism(S6, phi, psi, t, scheme)
        assert tau == Permutation((1, 0, 3, 2))
        assert pi == Permutation((0, 1, 2, 5, 4, 3))
        assert compose(pi, extend_automorphism(tau, scheme)) == phi

    def test_all_eight_s6_automorphisms_round_trip(self):
        psi, t, scheme = s6_frame()
        g = set(psi_class_group(psi).elements)
        for phi in enumerate_automorphisms(S6):
            tau, pi = decompose_automorphism(S6, phi, psi, t, scheme)
            assert pi in g
            assert compose(pi, extend_automorphism(tau, scheme)) == phi

    def test_rejects_non_automorphism(self):
        psi, t, scheme = s6_frame()
        with pytest.raises(NotAnAutomorphism) as info:
            decompose_automorphism(S6, Permutation((0, 1, 3, 2, 4, 5)), psi, t, scheme)
        assert info.value.witness is not None

    def test_rejects_a_partition_the_automorphism_splits(self):
        # phi is an automorphism of the null table, but maps {1, 2} onto {3, 2}
        psi = Partition(4, [[0], [1, 2], [3]])
        t = choose_transversal(psi, "least")
        with pytest.raises(MalformedInput, match="splits a psi class"):
            decompose_automorphism(N4, Permutation((0, 3, 2, 1)), psi, t, extension_scheme(psi, t))

    def test_class_part_always_fixes_classes(self, corpus_by_order):
        for table in corpus_by_order[3][::9]:
            psi = compute_psi(table)
            t = choose_transversal(psi, "least")
            scheme = extension_scheme(psi, t)
            for phi in enumerate_automorphisms(table):
                tau, pi = decompose_automorphism(table, phi, psi, t, scheme)
                for x in range(table.order):
                    assert psi.block_of[pi.images[x]] == psi.block_of[x]


class TestConjugationAction:
    def test_h_bar_normalizes_g_on_fixtures(self):
        for table in FIXTURES.values():
            psi = compute_psi(table)
            t = choose_transversal(psi, "least")
            scheme = extension_scheme(psi, t)
            sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
            sizes = tuple(len(psi.block_containing(r)) for r in old_ids)
            h_bar = embed_h(extendable_automorphisms(sub, sizes), scheme)
            g = set(psi_class_group(psi).elements)
            for tb in h_bar:
                tbi = inverse(tb)
                conj = {compose(compose(tbi, pi), tb) for pi in g}
                assert conj == g

    def test_g_intersect_h_bar_is_identity(self):
        for table in FIXTURES.values():
            psi = compute_psi(table)
            t = choose_transversal(psi, "least")
            scheme = extension_scheme(psi, t)
            sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
            sizes = tuple(len(psi.block_containing(r)) for r in old_ids)
            h_bar = embed_h(extendable_automorphisms(sub, sizes), scheme)
            g = psi_class_group(psi)
            shared = set(g.elements) & set(h_bar.elements)
            assert shared == {identity(table.order)}


class TestClassActionMatchesTheOracle:
    """theorem._class_action against naive_class_action, class by class, on every permutation."""

    def check(self, table, policies):
        """Compare on every permutation of the ids; return how many split a class."""
        psi, n = compute_psi(table), table.order
        splits = 0
        for policy in policies:
            reps = choose_transversal(psi, policy, 5).representatives
            pos = theorem._class_positions(psi, reps)
            for images in itertools.permutations(range(n)):
                got = theorem._class_action(images, pos, reps)
                assert got == naive_class_action(images, psi.block_of, reps), (table, images)
                splits += got is None
        return splits

    def test_every_semigroup_of_order_at_most_four(self, corpus_by_order):
        # order 1 is the single-id case, where itemgetter returns the entry itself
        assert self.check(corpus_by_order[1][0], POLICIES) == 0
        splits = sum(
            self.check(table, POLICIES) for n in (2, 3, 4) for table in corpus_by_order[n]
        )
        assert splits > 5000

    def test_every_magma_of_order_three(self):
        splits = 0
        for vals in itertools.product(range(3), repeat=9):
            splits += self.check(CayleyTable([vals[0:3], vals[3:6], vals[6:9]]), ("least",))
        assert splits > 0  # few magmas of order 3 have a class of two ids


class TestVerifyTheorem:
    @pytest.mark.parametrize(
        "name,aut,h,g",
        [("N3", 2, 1, 2), ("N4", 6, 1, 6), ("L2", 2, 2, 1), ("S6", 8, 2, 4)],
    )
    def test_fixture_orders_and_flags(self, name, aut, h, g):
        report = verify_theorem(FIXTURES[name])
        assert (report.aut_order, report.h_order, report.g_order) == (aut, h, g)
        assert report.all_flags
        assert report.witnesses == ()

    def test_degenerate_group_case(self):
        report = verify_theorem(Z3)
        assert report.g_order == 1
        assert report.h_order == report.aut_order == 2
        assert report.all_flags

    def test_policy_invariance_on_fixtures(self):
        for table in FIXTURES.values():
            reports = [
                verify_theorem(table, policy, seed=9) for policy in POLICIES
            ]
            summary = {
                (r.aut_order, r.h_order, r.g_order, r.psi_class_sizes)
                for r in reports
            }
            assert len(summary) == 1
            assert all(r.all_flags for r in reports)

    def test_policy_invariance_on_every_table_of_order_at_most_four(self, corpus_by_order):
        for tables in corpus_by_order.values():
            for table in tables:
                least, *others = [verify_theorem(table, policy, seed=9) for policy in POLICIES]
                assert least.all_flags and least.witnesses == ()
                for report in others:
                    assert replace(report, transversal_used=least.transversal_used) == least

    def test_order_bound(self):
        big = CayleyTable([[0] * 13 for _ in range(13)])
        with pytest.raises(OrderTooLarge):
            verify_theorem(big)

    def test_search_bound(self, monkeypatch):
        monkeypatch.setattr(theorem, "DEFAULT_MAX_SEARCH", 1)
        with pytest.raises(OrderTooLarge):
            verify_theorem(S6)

    def test_search_budget_counts_the_nodes_of_both_searches(self, monkeypatch):
        psi, t, _ = s6_frame()
        sub, old_ids = restrict_to_subsemigroup(S6, t.representatives)
        sizes = tuple(len(psi.block_containing(x)) for x in old_ids)
        search = theorem._automorphism_chain
        # (2 4) and (3 5) join Aut's search as pairs
        nodes = search(S6, classes=psi.blocks).nodes + search(sub, sizes).nodes
        monkeypatch.setattr(theorem, "DEFAULT_MAX_SEARCH", nodes)
        assert verify_theorem(S6).all_flags
        monkeypatch.setattr(theorem, "DEFAULT_MAX_SEARCH", nodes - 1)
        with pytest.raises(OrderTooLarge) as info:
            verify_theorem(S6)
        assert (info.value.what, info.value.requested, info.value.limit) == (
            "search nodes",
            nodes,
            nodes - 1,
        )

    def test_one_search_when_reduced_two_when_proper(self, monkeypatch):
        searched = []
        search = theorem._automorphism_chain

        def counted(table, *args, **kwargs):
            searched.append(table)
            return search(table, *args, **kwargs)

        monkeypatch.setattr(theorem, "_automorphism_chain", counted)
        assert verify_theorem(Z3).all_flags
        assert searched == [Z3]
        searched.clear()
        assert verify_theorem(S6).all_flags
        assert len(searched) == 2 and searched[0] is S6

    def test_reduced_table_spends_the_budget_once(self, monkeypatch):
        # T = S, so the Aut chain serves as H and the budget pays for one search
        nodes = theorem._automorphism_chain(Z3).nodes
        monkeypatch.setattr(theorem, "DEFAULT_MAX_SEARCH", nodes)
        assert verify_theorem(Z3).all_flags
        monkeypatch.setattr(theorem, "DEFAULT_MAX_SEARCH", nodes - 1)
        with pytest.raises(OrderTooLarge):
            verify_theorem(Z3)

    def test_a_reduced_table_checks_each_aut_generator_once(self, monkeypatch):
        checked, witness = [], theorem.automorphism_witness

        def counted(table, p):
            checked.append(p.images)
            return witness(table, p)

        monkeypatch.setattr(theorem, "automorphism_witness", counted)
        monkeypatch.setattr(theorem, "is_automorphism", lambda table, p: counted(table, p) is None)
        chains = _recorded_chains(monkeypatch)
        l4 = left_zero(4)
        report = verify_theorem(l4)
        assert report.all_flags and report.aut_order == 24
        [aut] = chains
        assert len(aut.generators) > 1 and checked == sorted(aut.generators)

    def test_h_chain_is_the_aut_chain_on_reduced_tables(self, corpus_by_order):
        reduced = [
            t
            for tables in corpus_by_order.values()
            for t in tables
            if len(compute_psi(t).blocks) == t.order
        ]
        assert len(reduced) == 1 + 8 + 110 + 3404
        search = theorem._automorphism_chain
        for table in reduced:
            assert search(table, (1,) * table.order) == search(table)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_h_chain_is_the_aut_chain_on_relabelled_monoid_products(self, data):
        # every element x = x * 1 of a monoid is a product, so a monoid is reduced
        a = _with_identity(data.draw(st.sampled_from(SMALL_SEMIGROUPS)))
        b = _with_identity(
            data.draw(st.sampled_from([t for t in SMALL_SEMIGROUPS if t.order < 8 // a.order]))
        )
        product = _direct_product(a, b)
        table = relabel_table(product, data.draw(st.permutations(range(product.order))))
        assert table.order <= 8 and len(compute_psi(table).blocks) == table.order
        search = theorem._automorphism_chain
        assert search(table, (1,) * table.order) == search(table)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_left_zero_within_default_caps_in_under_a_second(self, n):
        table = CayleyTable([[x] * n for x in range(n)])
        start = time.perf_counter()
        report = verify_theorem(table)
        elapsed = time.perf_counter() - start
        assert report.all_flags
        assert (report.aut_order, report.h_order, report.g_order) == (
            math.factorial(n),
            math.factorial(n),
            1,
        )
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    @pytest.mark.parametrize(
        "table,g_order",
        [
            (CayleyTable([[0] * 10 for _ in range(10)]), math.factorial(9)),
            (CayleyTable([[0] * 12 for _ in range(12)]), math.factorial(11)),
            (build_inflation(FiberSizeSpec(L2, (1, 11)))[0], math.factorial(10)),
        ],
        ids=["N10", "N12", "L2-inflated-1-11"],
    )
    def test_class_group_over_ten_to_the_five_verifies_in_under_a_second(self, table, g_order):
        # G is never listed, so |G| has no cap
        start = time.perf_counter()
        report = verify_theorem(table)
        elapsed = time.perf_counter() - start
        assert report.all_flags
        blocks = compute_psi(table).blocks
        assert report.g_order == math.prod(math.factorial(len(b)) for b in blocks) == g_order
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_s6_report_text(self):
        report = verify_theorem(S6)
        assert report.to_text() == (
            "order: 6\n"
            "psi_class_sizes: 1 1 2 2\n"
            "aut_order: 8\n"
            "h_order: 2\n"
            "g_order: 4\n"
            "identity_holds: true\n"
            "g_is_normal: true\n"
            "intersection_trivial: true\n"
            "factorization_unique: true\n"
            "transversal_used: 0 1 2 3\n"
            "witnesses: 0\n"
        )

    def test_s6_report_json(self):
        report = verify_theorem(S6)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["order"] == 6
        assert data["psi_class_sizes"] == [1, 1, 2, 2]
        assert data["aut_order"] == 8
        assert data["identity_holds"] is True
        assert data["transversal_used"] == [0, 1, 2, 3]
        assert data["witnesses"] == {}

    def test_l2_inflated_to_order_twelve_within_default_caps(self):
        table, _ = build_inflation(FiberSizeSpec(L2, (6, 6)))
        start = time.perf_counter()
        report = verify_theorem(table)
        elapsed = time.perf_counter() - start
        assert (report.aut_order, report.g_order, report.h_order) == (28800, 14400, 2)
        assert report.all_flags
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    def test_semilattice_with_non_products_first_within_default_caps(self):
        # With the eight non-products first, a search in id order has no
        # product to prune on until its ninth id: about 40 s for this table.
        base = CayleyTable([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]])
        inflated, _ = build_inflation(FiberSizeSpec(base, (2, 3, 3, 4)))
        table = non_products_first(inflated.rows)
        assert {v for row in table.rows for v in row} == {8, 9, 10, 11}
        start = time.perf_counter()
        report = verify_theorem(table)
        elapsed = time.perf_counter() - start
        assert report.all_flags
        assert report.aut_order == 48
        assert report.aut_order == report.g_order * report.h_order
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

    def test_matches_naive_oracle_on_inflations(self, inflations_non_products_first):
        l2_44, _ = build_inflation(FiberSizeSpec(L2, (4, 4)))
        for table in inflations_non_products_first + [l2_44]:
            report = verify_theorem(table)
            assert report.all_flags, report.witnesses
            assert report.aut_order == report.g_order * report.h_order
            assert report.aut_order == len(naive_automorphism_images(table.rows))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_inflations_relabelled(self, data):
        table = _inflation(data)
        report = verify_theorem(table)
        assert report.all_flags, report.witnesses
        psi = compute_psi(table)
        naive = naive_automorphism_images(table.rows)
        class_fixing = [p for p in naive if all(psi.related(x, p[x]) for x in range(table.order))]
        assert report.g_order == len(class_fixing) == math.prod(
            math.factorial(len(b)) for b in psi.blocks
        )
        assert report.aut_order == len(naive)

    def test_transversal_recorded_matches_policy(self):
        assert verify_theorem(S6, "greatest").transversal_used == (0, 1, 4, 5)
        assert verify_theorem(S6, "least").transversal_used == (0, 1, 2, 3)

    def test_the_structure_checks_read_the_induced_retraction(self, monkeypatch):
        seen = []
        check = theorem.verify_inflation
        monkeypatch.setattr(
            theorem, "verify_inflation", lambda table, r: seen.append(r) or check(table, r)
        )
        for table in [*FIXTURES.values(), *SMALL_SEMIGROUPS]:
            for policy in POLICIES:
                seen.clear()
                verify_theorem(table, policy, 9)
                psi = compute_psi(table)
                assert seen == [induced_retraction(psi, choose_transversal(psi, policy, 9))]

    def test_class_swap_reads_rows_and_columns(self):
        # the order-3 magmas, and order-4 tables whose entries leave 0 and 1 non-products,
        # some with equal rows but unequal columns
        grids = [(3, v) for v in itertools.product(range(3), repeat=9)]
        grids += [(4, v) for v in itertools.product((2, 3), repeat=16)]
        swaps = 0
        for n, vals in grids:
            rows = tuple(vals[i * n : (i + 1) * n] for i in range(n))
            prods = frozenset(vals)
            for x, y in itertools.combinations(range(n), 2):
                twins = rows[x] == rows[y] and all(row[x] == row[y] for row in rows)
                expected = twins and x not in prods and y not in prods
                assert automorphisms._is_class_swap(rows, prods, x, y) == expected, (rows, x, y)
                swaps += expected
        assert swaps > 500

    def test_unknown_policy_is_refused_before_the_aut_search(self, monkeypatch):
        def refusing(*args, **kwargs):
            raise AssertionError("the Aut search ran")

        monkeypatch.setattr(theorem, "_automorphism_chain", refusing)
        with pytest.raises(MalformedInput, match="unknown policy 'median'"):
            verify_theorem(S6, "median")

    def test_h_is_computed_once_and_psi_derived_from_it(self, monkeypatch):
        calls = []
        compute_h = theorem.compute_h

        def counted(table):
            calls.append(table)
            return compute_h(table)

        monkeypatch.setattr(theorem, "compute_h", counted)
        monkeypatch.setattr(theorem, "compute_psi", None)  # a call would raise
        report = verify_theorem(S6)
        assert calls == [S6]
        assert report.all_flags and report.psi_class_sizes == (1, 1, 2, 2)


S6_CLASS_SWAP = Permutation((0, 1, 4, 3, 2, 5))
# swaps 3 and 4, so it sends the class {2, 4} onto neither class
S6_CLASS_SPLIT = Permutation((0, 1, 2, 4, 3, 5))


def _regrow(chain, generators):
    """The chain on the same base, its orbit lengths regrown from generators."""
    base = chain.base
    level = {g: next(k for k, b in enumerate(base) if g[b] != b) for g in generators}
    # deepest level first, as the search finds them
    chain = chain._replace(generators=tuple(sorted(generators, key=level.__getitem__, reverse=True)))
    return chain._replace(lengths=tuple(len(naive_orbit(chain, k)) for k in range(len(base))))


def _on_s6(edit, *, h=False):
    """Wrap the chain search so that S6's Aut chain, or with h its H chain, goes through edit."""
    search = theorem._automorphism_chain

    def patched(table, extra=None, **kwargs):
        chain = search(table, extra, **kwargs)
        hit = table is not S6 if h else table is S6  # the H search runs on T, not on S6
        return edit(chain) if hit else chain

    return patched


def _refusing(x, y):
    """_is_class_swap with the transposition (x y) refused, so it neither pairs nor counts in G."""
    check = automorphisms._is_class_swap
    return lambda rows, prods, a, b: (a, b) != (x, y) and check(rows, prods, a, b)


def _without_class_swap(chain):
    assert S6_CLASS_SWAP.images in chain.generators
    return _regrow(chain, [g for g in chain.generators if g != S6_CLASS_SWAP.images])


def _first_orbit_cut_to_its_base_point(chain):
    return chain._replace(lengths=(1,) + chain.lengths[1:])


def _replaced(chain, old, new):
    """The chain with new in place of old as a generator; the orbit lengths stay."""
    assert old in chain.generators
    return chain._replace(generators=tuple(new if g == old else g for g in chain.generators))


def _split_in_place_of_class_swap(chain):
    return _replaced(chain, S6_CLASS_SWAP.images, S6_CLASS_SPLIT.images)


# a witness each of the structure checks, patched in to see that it prints
STRUCTURE_WITNESSES = [
    (
        "verify_inflation",
        InflationWitness("product", (2, 4)),
        "inflation",
        "product fails at (2, 4)",
    ),
    (
        "verify_kernel_in_h",
        (2, 3),
        "kernel",
        "theta identifies the h-unrelated pair (2, 3)",
    ),
]


class TestVerifyTheoremFlagsFail:
    """Each flag goes false, with its witness, when one input to it is broken.

    The faults go in at the stabilizer chains that verify_theorem reads, at
    the lifted H generators, and at the check of the class transpositions
    that the Aut search joins as pairs: a chain missing a class
    transposition is first missing its pair, or the search would find it
    as a generator.
    """

    def check(self, expected_flags, expected_keys, table=S6):
        report = verify_theorem(table)
        flags = (
            report.identity_holds,
            report.g_is_normal,
            report.intersection_trivial,
            report.factorization_unique,
        )
        assert flags == expected_flags
        assert tuple(k for k, _ in report.witnesses) == expected_keys
        return dict(report.witnesses)

    def test_s6_chain_holds_the_generators_the_faults_edit(self):
        chain = theorem._automorphism_chain(S6)
        assert S6_CLASS_SWAP.images in chain.generators
        assert chain.base[0] == 0 and chain.lengths[0] == 2
        assert chain.order == 8

    def test_h_reduced_to_identity(self, monkeypatch):
        # every H generator dropped
        monkeypatch.setattr(
            theorem, "_automorphism_chain", _on_s6(lambda c: _regrow(c, []), h=True)
        )
        witnesses = self.check((False, True, True, False), ("factorization", "identity"))
        assert witnesses["identity"] == "aut 8 != g 4 * h 1"

    def test_aut_missing_a_class_fixing_element(self, monkeypatch):
        monkeypatch.setattr(automorphisms, "_is_class_swap", _refusing(2, 4))
        monkeypatch.setattr(theorem, "_automorphism_chain", _on_s6(_without_class_swap))
        witnesses = self.check(
            (False, False, True, False), ("factorization", "g_normal", "identity")
        )
        assert witnesses["g_normal"] == (
            "0 of 2 generators split a class, 1 of 2 class transpositions outside aut"
        )

    def test_json_keys_are_the_fields_in_declared_order(self, monkeypatch):
        names = [f.name for f in fields(TheoremReport)]
        passing = verify_theorem(S6)
        monkeypatch.setattr(
            theorem, "_automorphism_chain", _on_s6(lambda c: _regrow(c, []), h=True)
        )
        failing = verify_theorem(S6)
        assert passing.all_flags and not failing.all_flags and failing.witnesses
        for report in (passing, failing):
            doc = report.to_json_dict()
            assert list(doc) == names
            assert doc["witnesses"] == dict(report.witnesses)

    def test_text_keys_are_the_fields_in_declared_order(self, monkeypatch):
        names = [f.name for f in fields(TheoremReport)]
        passing = verify_theorem(S6)
        monkeypatch.setattr(
            theorem, "_automorphism_chain", _on_s6(lambda c: _regrow(c, []), h=True)
        )
        failing = verify_theorem(S6)
        assert passing.all_flags and not failing.all_flags and failing.witnesses
        for report in (passing, failing):
            lines = report.to_text().splitlines()
            keys = [line.partition(": ")[0] for line in lines]
            assert keys == names + [f"witness {k}" for k, _ in report.witnesses]
            # each value as the JSON document writes it, lists space-separated
            for line, value in zip(lines, report.to_json_dict().values()):
                if isinstance(value, list):
                    value = " ".join(map(str, value))
                elif isinstance(value, dict):
                    value = len(value)
                elif isinstance(value, bool):
                    value = json.dumps(value)
                assert line.partition(": ")[2] == str(value)

    def test_h_bar_meets_g(self, monkeypatch):
        # the class swap added to the lifted H generators
        lifts = theorem._h_bar
        monkeypatch.setattr(
            theorem,
            "_h_bar",
            lambda generators, scheme: sorted(lifts(generators, scheme) + [S6_CLASS_SWAP.images]),
        )
        witnesses = self.check((True, True, False, False), ("factorization", "intersection"))
        assert witnesses["intersection"] == (
            "1 of 2 h-bar generators are not the lift of their class action"
        )

    def test_aut_reduced_to_the_stabilizer_of_zero(self, monkeypatch):
        monkeypatch.setattr(
            theorem, "_automorphism_chain", _on_s6(_first_orbit_cut_to_its_base_point)
        )
        self.check((False, True, True, False), ("factorization", "identity"))

    def test_aut_holding_a_class_splitting_map(self, monkeypatch):
        monkeypatch.setattr(
            theorem,
            "_automorphism_chain",
            _on_s6(lambda c: _regrow(c, list(c.generators) + [S6_CLASS_SPLIT.images])),
        )
        self.check((False, False, True, False), ("factorization", "g_normal", "identity"))

    @pytest.mark.parametrize("name,value,key,text", STRUCTURE_WITNESSES)
    def test_structure_witness_leaves_the_four_flags(self, monkeypatch, name, value, key, text):
        monkeypatch.setattr(theorem, name, lambda *args: value)
        assert self.check((True, True, True, True), (key,)) == {key: text}
        assert verify_theorem(S6).to_text().endswith(f"witnesses: 1\nwitness {key}: {text}\n")

    @pytest.mark.parametrize("name,value,key,text", STRUCTURE_WITNESSES)
    def test_structure_witness_on_a_reduced_table_leaves_the_four_flags(
        self, monkeypatch, name, value, key, text
    ):
        # Z3 is reduced, so its structure checks run on the identity retraction
        seen = []
        monkeypatch.setattr(theorem, name, lambda *args: seen.append(args) or value)
        assert self.check((True, True, True, True), (key,), Z3) == {key: text}
        [r] = [arg for arg in seen[0] if isinstance(arg, RetractionMap)]
        assert r.theta == (0, 1, 2)
        assert verify_theorem(Z3).to_text().endswith(f"witnesses: 1\nwitness {key}: {text}\n")

    def test_reduced_aut_holding_a_non_automorphism(self, monkeypatch):
        # Z3 is reduced, so its Aut chain is H as well; the translation x -> x + 1
        # moves the identity, so it is no automorphism, and with x -> 2x it regrows S3
        search = theorem._automorphism_chain
        monkeypatch.setattr(
            theorem,
            "_automorphism_chain",
            lambda *args, **kwargs: _regrow(search(*args, **kwargs), [(0, 2, 1), (1, 2, 0)]),
        )
        witnesses = self.check((True, True, True, False), ("factorization",), Z3)
        assert witnesses == {"factorization": "h-bar generator (1, 2, 0) not in aut"}
        report = verify_theorem(Z3)
        assert report.aut_order == report.h_order == 6 and report.g_order == 1

    def test_class_splitting_map_in_place_of_a_class_fixing_one(self, monkeypatch):
        monkeypatch.setattr(automorphisms, "_is_class_swap", _refusing(2, 4))
        monkeypatch.setattr(theorem, "_automorphism_chain", _on_s6(_split_in_place_of_class_swap))
        witnesses = self.check((True, False, True, False), ("factorization", "g_normal"))
        assert witnesses["factorization"] == (
            "decompose failed on (0, 1, 2, 4, 3, 5): splits a class"
        )
        assert witnesses["g_normal"] == (
            "1 of 3 generators split a class, 1 of 2 class transpositions outside aut"
        )

    def test_tau_outside_aut_t_held_by_a_faulty_h(self, monkeypatch):
        # H holds the swap of T's two non-product ids, which is no automorphism of T,
        # and an Aut generator has it as its class action; the H-bar check is the first
        # that fails, so the flag and the witness are set before any tau is read
        swap = (0, 1, 3, 2)
        assert not is_automorphism(restrict_to_subsemigroup(S6, (0, 1, 2, 3))[0], Permutation(swap))
        search = theorem._automorphism_chain

        def faulty(table, extra=None, **kwargs):
            chain = search(table, extra, **kwargs)
            if table is not S6:
                return _regrow(chain, [swap])
            return _replaced(chain, (0, 1, 2, 5, 4, 3), (0, 1, 3, 2, 5, 4))

        monkeypatch.setattr(automorphisms, "_is_class_swap", _refusing(3, 5))
        monkeypatch.setattr(theorem, "_automorphism_chain", faulty)
        witnesses = self.check((True, False, True, False), ("factorization", "g_normal"))
        assert witnesses["factorization"] == "h-bar generator (0, 1, 3, 2, 5, 4) not in aut"
        assert witnesses["g_normal"] == (
            "0 of 3 generators split a class, 1 of 2 class transpositions outside aut"
        )

    def test_tau_outside_aut_t_beside_a_sound_h(self, monkeypatch):
        # the generator that swaps 0 and 1 with the two classes becomes one that swaps
        # the classes alone: it permutes them, but its class action (0 1 3 2) moves a
        # non-product onto a product's row, so only the factorization check fails
        monkeypatch.setattr(
            theorem,
            "_automorphism_chain",
            _on_s6(lambda c: _replaced(c, (1, 0, 3, 2, 5, 4), (0, 1, 3, 2, 5, 4))),
        )
        witnesses = self.check((True, True, True, False), ("factorization",))
        assert witnesses["factorization"] == (
            "decompose failed on (0, 1, 3, 2, 5, 4): tau (0, 1, 3, 2) is not in h"
        )


def opposite(table):
    """S^op: the transposed table, x * y read as y * x."""
    return CayleyTable(zip(*table.rows))


class TestClosedFormFamilies:
    """Past the order cap, on families whose |Aut| is known in closed form."""

    @pytest.mark.parametrize(
        "build,size,aut,g",
        [
            (cyclic_group, 64, 32, 1),
            (left_zero, 64, math.factorial(64), 1),
            (null_semigroup, 64, math.factorial(63), math.factorial(63)),
            (lambda k: rectangular_band(k, k), 8, math.factorial(8) ** 2, 1),
            (free_semilattice, 5, math.factorial(5), 1),
        ],
        ids=["Z64", "L64", "N64", "band8x8", "free_semilattice5"],
    )
    def test_every_flag_holds_with_the_known_orders(self, build, size, aut, g):
        table = build(size)
        report = verify_theorem(table, max_order=table.order)
        assert report.all_flags and report.witnesses == ()
        assert (report.aut_order, report.g_order, report.h_order) == (aut, g, aut // g)
        # N64's non-zero ids are one class; the others are reduced
        sizes = (1, table.order - 1) if g > 1 else (1,) * table.order
        assert report.psi_class_sizes == sizes


class TestMagmas:
    """The theorem's checks use no associativity, so every magma passes them."""

    def test_every_magma_of_order_three(self):
        non_associative = 0
        for vals in itertools.product(range(3), repeat=9):
            table = CayleyTable([vals[0:3], vals[3:6], vals[6:9]])
            report = verify_theorem(table)
            assert report.all_flags and report.witnesses == (), table
            non_associative += check_associativity(table) is not None
        assert non_associative == 19570

    def test_seeded_relabelled_inflations_of_random_magmas(self):
        rng = random.Random(20)
        non_associative = proper = 0
        for _ in range(2000):
            table = random_magma_inflation(rng)
            report = verify_theorem(table, rng.choice(POLICIES), seed=rng.randrange(100))
            assert report.all_flags and report.witnesses == (), table
            non_associative += check_associativity(table) is not None
            proper += report.g_order > 1
        assert non_associative > 1000 and proper > 1000


def _twin_sizes(table):
    h = compute_h(table)
    return [len(h.block_containing(x)) for x in range(table.order)]


def _assert_twin_chain_is_the_plain_chain(table):
    """The Aut search coloured by h-class size, as verify_theorem runs it, finds the same group."""
    plain = theorem._automorphism_chain(table)
    twin = theorem._automorphism_chain(table, _twin_sizes(table))
    assert twin.order == plain.order, table
    assert all(naive_sift(plain, g) for g in twin.generators), table
    assert all(naive_sift(twin, g) for g in plain.generators), table


class TestTwinColouredAutSearch:
    """Every automorphism keeps the h classes, so their sizes prune no automorphism."""

    def test_every_semigroup_of_order_at_most_four(self, corpus_by_order):
        for tables in corpus_by_order.values():
            for table in tables:
                _assert_twin_chain_is_the_plain_chain(table)

    def test_every_magma_of_order_three(self):
        for vals in itertools.product(range(3), repeat=9):
            _assert_twin_chain_is_the_plain_chain(CayleyTable([vals[0:3], vals[3:6], vals[6:9]]))

    def test_seeded_relabelled_magma_inflations_up_to_order_twelve(self):
        rng = random.Random(18)
        twins = 0
        for _ in range(500):
            table = random_magma_inflation(rng, 12)
            _assert_twin_chain_is_the_plain_chain(table)
            twins += len(set(_twin_sizes(table))) > 1
        assert twins > 250  # most tables get more than one colour from the sizes


def _assert_chain_follows_the_reference(table):
    """The search handed the psi classes, as verify_theorem and aut run it, finds the chain
    that the plain search handed G's transpositions finds: the same base, orbit lengths and
    generators outside G, with no more nodes; so does H's search on T, which gets no classes.

    The class transpositions pass the O(n) check exactly when they are automorphisms; those
    that pass are the pairs and those that fail are counted in outside.  Returns the nodes
    the pruning saved over the three searches.
    """
    n, rows, prods = table.order, table.rows, product_set(table)
    psi = compute_psi(table)
    seeds, outside, saved = [], 0, 0
    for block in psi.blocks:
        for x, y in zip(block, block[1:]):
            images = list(range(n))
            images[x], images[y] = y, x
            passes = automorphisms._is_class_swap(rows, prods, x, y)
            assert passes == is_automorphism(table, Permutation(images)), (table, x, y)
            if passes:
                seeds.append(tuple(images))
            outside += not passes
    for extra in (None, _twin_sizes(table)):
        chain = automorphisms._automorphism_chain(table, extra, classes=psi.blocks)
        order, cells, _ = automorphisms._plan(rows, prods, extra)
        base, generators, lengths, nodes = reference_chain(rows, order, cells, seeds)
        assert (chain.base, chain.lengths, chain.outside) == (base, lengths, outside), table
        assert list(chain.generators) == [g for g in generators if g not in seeds], table
        assert sorted(strong_generators(chain)[len(chain.generators) :]) == sorted(seeds), table
        assert chain.nodes <= nodes, table
        saved += nodes - chain.nodes
    t = choose_transversal(psi, "least")
    sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
    sizes = tuple(len(psi.block_containing(x)) for x in old_ids)
    chain = automorphisms._automorphism_chain(sub, sizes)
    order, cells, _ = automorphisms._plan(sub.rows, product_set(sub), sizes)
    base, generators, lengths, nodes = reference_chain(sub.rows, order, cells)
    assert (chain.base, chain.generators, chain.lengths) == (base, tuple(generators), lengths)
    assert chain.pairs == () and chain.nodes <= nodes, table
    return saved + nodes - chain.nodes


SEMILATTICE = CayleyTable([[0, 0, 0], [0, 1, 0], [0, 0, 2]])  # 1 * 2 = 0


def _recorded_chains(monkeypatch):
    """The list that every chain verify_theorem builds is appended to, in order."""
    chains, search = [], theorem._automorphism_chain

    def recorded(*args, **kwargs):
        chains.append(search(*args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(theorem, "_automorphism_chain", recorded)
    return chains


class TestSeededAutSearch:
    """G's transpositions are strong generators found without search, so the chain stays
    exact, and a failed search prunes only maps that have no automorphism either."""

    def test_every_semigroup_of_order_at_most_four(self, corpus_by_order):
        saved = 0
        for tables in corpus_by_order.values():
            for table in tables:
                saved += _assert_chain_follows_the_reference(table)
        assert saved > 1000  # the pruning cuts nodes, not just never adds them

    def test_every_magma_of_order_three(self):
        saved = 0
        for vals in itertools.product(range(3), repeat=9):
            table = CayleyTable([vals[0:3], vals[3:6], vals[6:9]])
            saved += _assert_chain_follows_the_reference(table)
        assert saved > 100

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabelled_inflations_up_to_order_twelve(self, data):
        _assert_chain_follows_the_reference(_inflation(data, 12))

    def test_a_class_whose_transpositions_fail_the_check_gives_the_search_nothing(
        self, monkeypatch
    ):
        # no pair and no pruning by class mates: the chain is the one searched without classes
        monkeypatch.setattr(automorphisms, "_is_class_swap", lambda *args: False)
        inflated, _ = build_inflation(FiberSizeSpec(SEMILATTICE, (1, 5, 6)))
        for table in (S6, N4, inflated):
            blocks = compute_psi(table).blocks
            chain = automorphisms._automorphism_chain(table, classes=blocks)
            assert chain._replace(outside=0) == automorphisms._automorphism_chain(table)
            assert chain.outside == sum(len(b) - 1 for b in blocks) > 0

    def test_semilattice_inflated_to_order_100_needs_no_aut_search(self, monkeypatch):
        table, _ = build_inflation(FiberSizeSpec(SEMILATTICE, (1, 49, 50)), max_order=100)
        chains = _recorded_chains(monkeypatch)
        report = verify_theorem(table, max_order=100)
        assert report.all_flags and report.witnesses == ()
        assert report.aut_order == math.factorial(48) * math.factorial(49)
        assert chains[0].order == report.aut_order and chains[0].nodes == 0

    def test_semilattice_inflated_to_order_200_stays_under_4_mb(self):
        # fails a chain that keeps n ids per orbit point at every level: that peaks
        # near 16 MB here, on the orbits of the 99- and 100-id classes
        table, _ = build_inflation(FiberSizeSpec(SEMILATTICE, (1, 99, 100)), max_order=200)
        tracemalloc.start()
        try:
            report = verify_theorem(table, max_order=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_flags and report.aut_order == math.factorial(98) * math.factorial(99)
        assert peak < 4 * 2**20, peak

    def test_semilattice_inflated_to_order_1001_searches_past_the_recursion_limit(
        self, monkeypatch
    ):
        # the search for the map that swaps the two 500-id fibers runs about
        # 1000 positions deep; one that recursed per position raised RecursionError
        table, _ = build_inflation(FiberSizeSpec(SEMILATTICE, (1, 500, 500)), max_order=1001)
        chains = _recorded_chains(monkeypatch)
        report = verify_theorem(table, max_order=1001)
        assert report.all_flags and report.witnesses == ()
        assert report.h_order == 2 and report.aut_order == 2 * math.factorial(499) ** 2
        assert chains[0].nodes == 1_499


UP_TO_ISO = {n: list(enumerate_semigroups(EnumerationTask(n, "up_to_iso"))) for n in (1, 2, 3, 4)}


def _dual_summary(report):
    return (
        report.aut_order,
        report.h_order,
        report.g_order,
        report.psi_class_sizes,
        report.all_flags,
        report.witnesses,
    )


class TestDuality:
    """S^op has the same automorphisms, h, psi and transversals as S."""

    def test_opposite_gets_the_same_orders_sizes_and_flags(self):
        for classes in UP_TO_ISO.values():
            for table in classes:
                report = verify_theorem(table)
                assert report.all_flags
                assert _dual_summary(verify_theorem(opposite(table))) == _dual_summary(report), table

    def test_inflations_of_the_small_classes_up_to_the_order_cap(self):
        rng = random.Random(17)
        bases = [t for n in (1, 2, 3) for t in UP_TO_ISO[n]]
        proper = 0
        for _ in range(1000):
            base = rng.choice(bases)
            sizes = [1] * base.order
            for _ in range(rng.randint(0, 12 - base.order)):
                sizes[rng.randrange(base.order)] += 1
            table, _ = build_inflation(FiberSizeSpec(base, tuple(sizes)))
            table = relabel_table(table, rng.sample(range(table.order), table.order))
            policy, seed = rng.choice(POLICIES), rng.randrange(100)
            report = verify_theorem(table, policy, seed)
            assert report.all_flags
            dual = verify_theorem(opposite(table), policy, seed)
            assert _dual_summary(dual) == _dual_summary(report), table
            proper += report.g_order > 1
        assert proper > 500

    def test_classes_up_to_anti_isomorphism_match_a001423(self):
        classes = [len(tables) for tables in UP_TO_ISO.values()]
        self_dual = [sum(canonicalize(opposite(t)) == t for t in ts) for ts in UP_TO_ISO.values()]
        assert classes == [1, 5, 24, 188]  # OEIS A027851
        assert self_dual == [1, 3, 12, 64]
        assert [(c + d) // 2 for c, d in zip(classes, self_dual)] == [1, 4, 18, 126]  # A001423
