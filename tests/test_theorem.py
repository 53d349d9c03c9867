from __future__ import annotations

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsemi import (
    CayleyTable,
    EnumerationTask,
    FiberSizeSpec,
    MalformedInput,
    NotAnAutomorphism,
    NotExtendable,
    OrderTooLarge,
    Partition,
    PermGroup,
    Permutation,
    build_inflation,
    choose_transversal,
    compose,
    compute_psi,
    decompose_automorphism,
    embed_h,
    enumerate_automorphisms,
    enumerate_semigroups,
    extend_automorphism,
    extendable_automorphisms,
    extension_scheme,
    identity,
    inverse,
    is_automorphism,
    predicted_class_group_order,
    psi_class_group,
    relabel_table,
    restrict_to_subsemigroup,
    verify_theorem,
)
from finsemi import automorphisms, theorem
from finsemi.inflation import POLICIES, InflationWitness
from support import (
    FIXTURES,
    IL2,
    L2,
    N3,
    N4,
    S6,
    Z3,
    naive_automorphism_images,
    non_products_first,
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
            psi_class_group(wide, max_group_order=10**5)


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

    def test_order_bound(self):
        big = CayleyTable([[0] * 13 for _ in range(13)])
        with pytest.raises(OrderTooLarge):
            verify_theorem(big)

    def test_search_bound(self):
        with pytest.raises(OrderTooLarge):
            verify_theorem(S6, max_search=1)

    def test_search_budget_counts_the_nodes_of_both_searches(self):
        psi, t, _ = s6_frame()
        sub, old_ids = restrict_to_subsemigroup(S6, t.representatives)
        sizes = tuple(len(psi.block_containing(x)) for x in old_ids)
        search = theorem._automorphism_chain
        nodes = search(S6).nodes + search(sub, sizes).nodes
        assert verify_theorem(S6, max_search=nodes).all_flags
        with pytest.raises(OrderTooLarge) as info:
            verify_theorem(S6, max_search=nodes - 1)
        assert (info.value.what, info.value.requested, info.value.limit) == (
            "search nodes",
            nodes,
            nodes - 1,
        )

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
        base = data.draw(st.sampled_from(SMALL_SEMIGROUPS))
        sizes = [1] * base.order
        for _ in range(data.draw(st.integers(0, 7 - base.order))):
            sizes[data.draw(st.integers(0, base.order - 1))] += 1
        inflated, _ = build_inflation(FiberSizeSpec(base, tuple(sizes)))
        images = data.draw(st.permutations(range(inflated.order)))
        table = relabel_table(inflated, images)
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
    """The chain on the same base, its orbits and Schreier vectors regrown from generators."""
    base, n = chain.base, len(chain.base)
    level = {g: next(k for k, b in enumerate(base) if g[b] != b) for g in generators}
    # deepest level first, as the search finds them, so those of level >= k are a prefix
    generators = sorted(generators, key=level.__getitem__, reverse=True)
    grown = [
        automorphisms._schreier(n, b, generators[: sum(level[g] >= k for g in generators)])
        for k, b in enumerate(base)
    ]
    return chain._replace(
        generators=tuple(generators),
        vectors=tuple(tuple(vector) for vector, _ in grown),
        orbits=tuple(tuple(orbit) for _, orbit in grown),
    )


def _on_s6(edit, *, h=False):
    """Wrap the chain search so that S6's Aut chain, or with h its H chain, goes through edit."""
    search = theorem._automorphism_chain

    def patched(table, extra=None, **kwargs):
        chain = search(table, extra, **kwargs)
        hit = extra is not None if h else table is S6
        return edit(chain) if hit else chain

    return patched


def _without_class_swap(chain):
    assert S6_CLASS_SWAP.images in chain.generators
    return _regrow(chain, [g for g in chain.generators if g != S6_CLASS_SWAP.images])


def _first_orbit_cut_to_its_base_point(chain):
    vector = list(chain.vectors[0])
    for x in chain.orbits[0][1:]:
        vector[x] = None
    return chain._replace(
        orbits=(chain.orbits[0][:1],) + chain.orbits[1:],
        vectors=(tuple(vector),) + chain.vectors[1:],
    )


def _split_in_place_of_class_swap(chain):
    # orbits and Schreier vectors stay as the search left them
    assert S6_CLASS_SWAP.images in chain.generators
    return chain._replace(
        generators=tuple(
            S6_CLASS_SPLIT.images if g == S6_CLASS_SWAP.images else g for g in chain.generators
        ),
    )


class TestVerifyTheoremFlagsFail:
    """Each flag goes false, with its witness, when one input to it is broken.

    The faults go in at the stabilizer chains that verify_theorem reads and
    at the lifted H generators.
    """

    def check(self, expected_flags, expected_keys):
        report = verify_theorem(S6)
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
        assert chain.base[0] == 0 and chain.orbits[0] == (0, 1)
        assert chain.order == 8

    def test_h_reduced_to_identity(self, monkeypatch):
        # every H generator dropped
        monkeypatch.setattr(
            theorem, "_automorphism_chain", _on_s6(lambda c: _regrow(c, []), h=True)
        )
        witnesses = self.check((False, True, True, False), ("factorization", "identity"))
        assert witnesses["identity"] == "aut 8 != g 4 * h 1"

    def test_aut_missing_a_class_fixing_element(self, monkeypatch):
        monkeypatch.setattr(theorem, "_automorphism_chain", _on_s6(_without_class_swap))
        witnesses = self.check(
            (False, False, True, False), ("factorization", "g_normal", "identity")
        )
        assert witnesses["g_normal"] == (
            "0 of 2 generators split a class, 1 of 2 class transpositions outside aut"
        )

    def test_h_bar_meets_g(self, monkeypatch):
        # the class swap added to the lifted H generators
        embed = theorem.embed_h
        monkeypatch.setattr(
            theorem,
            "embed_h",
            lambda h, scheme: PermGroup(6, list(embed(h, scheme)) + [S6_CLASS_SWAP]),
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

    @pytest.mark.parametrize(
        "name,value,key,text",
        [
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
        ],
    )
    def test_structure_witness_leaves_the_four_flags(self, monkeypatch, name, value, key, text):
        monkeypatch.setattr(theorem, name, lambda *args: value)
        assert self.check((True, True, True, True), (key,)) == {key: text}
        assert verify_theorem(S6).to_text().endswith(f"witnesses: 1\nwitness {key}: {text}\n")

    def test_class_splitting_map_in_place_of_a_class_fixing_one(self, monkeypatch):
        monkeypatch.setattr(theorem, "_automorphism_chain", _on_s6(_split_in_place_of_class_swap))
        witnesses = self.check((True, False, True, False), ("factorization", "g_normal"))
        assert witnesses["factorization"] == (
            "decompose failed on (0, 1, 2, 4, 3, 5): splits a class"
        )
        assert witnesses["g_normal"] == (
            "1 of 3 generators split a class, 1 of 2 class transpositions outside aut"
        )
