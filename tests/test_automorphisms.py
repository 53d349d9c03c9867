from __future__ import annotations

import inspect
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsemi import (
    CayleyTable,
    MalformedInput,
    OrderTooLarge,
    PermGroup,
    Permutation,
    automorphism_witness,
    compose,
    enumerate_automorphisms,
    identity,
    inverse,
    is_automorphism,
    relabel_table,
    extendable_automorphisms,
    subgroup_checks,
)
from finsemi.automorphisms import _automorphism_chain, group_axiom_witness
from support import (
    FIXTURES,
    L2,
    N3,
    N4,
    S6,
    naive_automorphism_images,
)


def random_permutation(draw_rng: random.Random, n: int) -> Permutation:
    images = list(range(n))
    draw_rng.shuffle(images)
    return Permutation(tuple(images))


permutations = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n)).map(lambda xs: Permutation(tuple(xs)))
)


class TestPermutation:
    def test_identity(self):
        assert identity(3).images == (0, 1, 2)

    def test_call(self):
        p = Permutation((1, 2, 0))
        assert p(0) == 1 and p(2) == 0

    def test_rejects_non_bijection(self):
        with pytest.raises(MalformedInput):
            Permutation((0, 0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(MalformedInput):
            Permutation((0, 3, 1))

    def test_rejects_empty(self):
        with pytest.raises(MalformedInput):
            Permutation(())

    def test_ordering_is_by_image_tuple(self):
        elems = [Permutation((1, 0, 2)), identity(3), Permutation((2, 1, 0))]
        assert sorted(elems)[0] == identity(3)

    @given(permutations)
    def test_unchecked_agrees_with_validated(self, p):
        n = p.degree
        q = Permutation._unchecked(p.images)
        assert q == p and hash(q) == hash(p) and not q < p and not p < q
        assert compose(p, inverse(p)) == identity(n)
        assert hash(compose(inverse(p), p)) == hash(identity(n))
        assert {compose(p, inverse(p)), identity(n), q, p} == {identity(n), p}
        if n > 1:
            swap = Permutation((1, 0) + tuple(range(2, n)))
            assert sorted([compose(swap, swap), swap]) == [identity(n), swap]


class TestCompose:
    def test_applies_left_argument_first(self):
        swap01 = Permutation((1, 0, 2))
        swap12 = Permutation((0, 2, 1))
        # 0 -> 1 under swap01, then 1 -> 2 under swap12
        assert compose(swap01, swap12).images == (2, 0, 1)

    def test_identity_laws(self):
        p = Permutation((3, 0, 2, 1))
        assert compose(identity(4), p) == p
        assert compose(p, identity(4)) == p

    def test_inverse_examples(self):
        assert inverse(Permutation((1, 2, 0))).images == (2, 0, 1)
        assert inverse(Permutation((2, 0, 1))).images == (1, 2, 0)

    def test_mul_operator_matches(self):
        p = Permutation((1, 0, 2))
        q = Permutation((0, 2, 1))
        assert p * q == compose(p, q)

    def test_degree_mismatch(self):
        with pytest.raises(MalformedInput):
            compose(identity(2), identity(3))

    @given(permutations, permutations, permutations)
    def test_associative(self, p, q, r):
        if not p.degree == q.degree == r.degree:
            return
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(permutations)
    def test_inverse_law(self, p):
        assert compose(p, inverse(p)) == identity(p.degree)
        assert compose(inverse(p), p) == identity(p.degree)

    @given(permutations)
    def test_pointwise_meaning(self, p):
        q = inverse(p)
        for x in range(p.degree):
            assert q(p(x)) == x
        r = compose(p, q)
        for x in range(p.degree):
            assert r(x) == q(p(x))


class TestIsAutomorphism:
    def test_swapping_merged_elements_of_null(self):
        assert is_automorphism(N3, Permutation((0, 2, 1)))

    def test_moving_the_zero_breaks_it(self):
        p = Permutation((1, 0, 2))
        assert not is_automorphism(N3, p)
        assert automorphism_witness(N3, p) == (0, 0)

    def test_s6_paired_swap(self):
        assert is_automorphism(S6, Permutation((1, 0, 3, 2, 5, 4)))

    def test_degree_mismatch(self):
        with pytest.raises(MalformedInput):
            is_automorphism(N3, identity(2))

    def test_witness_is_least(self, corpus_by_order):
        rng = random.Random(31)
        for table in rng.sample(corpus_by_order[3], 20):
            p = random_permutation(rng, 3)
            w = automorphism_witness(table, p)
            pairs = [
                (x, y)
                for x in range(3)
                for y in range(3)
                if p(table.rows[x][y]) != table.rows[p(x)][p(y)]
            ]
            assert w == (min(pairs) if pairs else None)


class TestEnumerateAutomorphisms:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_matches_naive_oracle_on_fixtures(self, name):
        table = FIXTURES[name]
        group = enumerate_automorphisms(table)
        got = sorted(p.images for p in group.elements)
        assert got == naive_automorphism_images(table.rows)

    def test_expected_orders(self):
        assert len(enumerate_automorphisms(N3).elements) == 2
        assert len(enumerate_automorphisms(N4).elements) == 6
        assert len(enumerate_automorphisms(L2).elements) == 2
        assert len(enumerate_automorphisms(S6).elements) == 8

    def test_matches_naive_oracle_on_corpus(self, corpus_by_order):
        for n in (1, 2, 3):
            for table in corpus_by_order[n]:
                group = enumerate_automorphisms(table)
                got = sorted(p.images for p in group.elements)
                assert got == naive_automorphism_images(table.rows)

    def test_matches_naive_oracle_on_order_four_corpus(self, corpus_by_order):
        for table in corpus_by_order[4]:
            group = enumerate_automorphisms(table)
            got = [p.images for p in group.elements]
            assert got == naive_automorphism_images(table.rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_naive_oracle_on_random_magmas(self, n):
        # Few distinct rows and few distinct values: colour cells hold
        # several ids, most tables are not associative, and some ids are
        # not products.
        rng = random.Random(4100 + n)
        for _ in range(12):
            values = rng.sample(range(n), rng.randint(1, n))
            pool = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, n))]
            table = CayleyTable([rng.choice(pool) for _ in range(n)])
            got = [p.images for p in enumerate_automorphisms(table).elements]
            assert got == naive_automorphism_images(table.rows)

    def test_matches_naive_oracle_on_inflations_with_non_products_first(
        self, inflations_non_products_first
    ):
        for table in inflations_non_products_first:
            got = [p.images for p in enumerate_automorphisms(table).elements]
            assert got == naive_automorphism_images(table.rows)

    def test_every_element_is_an_automorphism(self, corpus_by_order):
        for table in corpus_by_order[3][::5]:
            for p in enumerate_automorphisms(table).elements:
                assert is_automorphism(table, p)

    def test_invariant_under_relabeling(self, corpus_by_order):
        rng = random.Random(37)
        for table in rng.sample(corpus_by_order[3], 15):
            sigma = random_permutation(rng, 3)
            relabeled = relabel_table(table, sigma.images)
            orig = enumerate_automorphisms(table).elements
            conj = {
                compose(compose(inverse(sigma), p), sigma) for p in orig
            }
            assert conj == set(enumerate_automorphisms(relabeled).elements)

    @pytest.mark.parametrize(
        "lister",
        [enumerate_automorphisms, lambda t: extendable_automorphisms(t, [1] * t.order)],
        ids=["enumerate_automorphisms", "extendable_automorphisms"],
    )
    def test_refuses_a_group_over_the_cap_before_listing(self, lister):
        with pytest.raises(OrderTooLarge) as info:
            lister(left_zero(9))
        assert (info.value.what, info.value.requested, info.value.limit) == (
            "automorphism group order",
            362880,
            100000,
        )

    def test_order_bound(self):
        z13 = CayleyTable([[(i + j) % 13 for j in range(13)] for i in range(13)])
        with pytest.raises(OrderTooLarge):
            enumerate_automorphisms(z13)
        group = enumerate_automorphisms(z13, max_order=13)
        # cyclic group of prime order: multiplication by any nonzero residue
        assert len(group.elements) == 12


def left_zero(n: int) -> CayleyTable:
    return CayleyTable([[x] * n for x in range(n)])


class TestAutomorphismChain:
    def test_order_matches_the_listing_on_every_table_of_order_at_most_four(
        self, corpus_by_order
    ):
        for n in (1, 2, 3, 4):
            for table in corpus_by_order[n]:
                chain = _automorphism_chain(table)
                naive = naive_automorphism_images(table.rows)
                assert sorted(p.images for p in chain.elements()) == naive
                assert chain.order == len(naive)
                for g in chain.generators:
                    assert is_automorphism(table, Permutation(g))
                assert all(chain.sift(images) for images in naive)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_matches_naive_oracle_on_random_magmas(self, n):
        rng = random.Random(4300 + n)
        for _ in range(12):
            values = rng.sample(range(n), rng.randint(1, n))
            pool = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, n))]
            table = CayleyTable([rng.choice(pool) for _ in range(n)])
            chain = _automorphism_chain(table)
            assert chain.order == len(naive_automorphism_images(table.rows))
            assert all(is_automorphism(table, Permutation(g)) for g in chain.generators)

    def test_order_matches_naive_oracle_on_inflations_with_non_products_first(
        self, inflations_non_products_first
    ):
        for table in inflations_non_products_first:
            assert _automorphism_chain(table).order == len(naive_automorphism_images(table.rows))

    def test_levels_orbits_and_vectors_agree(self, corpus_by_order):
        for table in corpus_by_order[4][::7]:
            chain = _automorphism_chain(table)
            assert sorted(chain.base) == list(range(table.order))
            for g in chain.generators:
                level = next(k for k, b in enumerate(chain.base) if g[b] != b)
                assert g[chain.base[level]] in chain.orbits[level]
            for b, orbit, vector in zip(chain.base, chain.orbits, chain.vectors):
                assert orbit[0] == b and vector[b] == -1
                assert sorted(orbit) == [x for x, i in enumerate(vector) if i is not None]

    def test_sift_rejects_what_is_not_an_automorphism(self):
        chain = _automorphism_chain(S6)
        assert chain.sift((1, 0, 3, 2, 5, 4))
        assert not chain.sift((0, 1, 3, 2, 4, 5))
        assert not chain.sift((0, 1, 2, 4, 3, 5))

    def test_extra_colour_keeps_the_class_sizes(self, corpus_by_order):
        rng = random.Random(43)
        for table in rng.sample(corpus_by_order[3], 20):
            sizes = tuple(rng.randint(1, 2) for _ in range(3))
            keeping = [
                images
                for images in naive_automorphism_images(table.rows)
                if all(sizes[k] == sizes[images[k]] for k in range(3))
            ]
            chain = _automorphism_chain(table, sizes)
            assert chain.order == len(keeping)
            assert sorted(p.images for p in chain.elements()) == keeping
            assert [p.images for p in extendable_automorphisms(table, sizes)] == keeping

    def test_left_zero_semigroups_have_the_symmetric_group(self):
        for n in range(1, 31):
            chain = _automorphism_chain(left_zero(n), max_order=30)
            assert chain.order == math.factorial(n)
            assert len(chain.generators) == n - 1
            if n <= 8:
                assert len(set(chain.elements())) == chain.order

    def test_every_search_has_a_node_budget(self):
        assert inspect.signature(_automorphism_chain).parameters["max_nodes"].default == 10**8

    def test_node_budget_counts_visited_nodes(self):
        nodes = _automorphism_chain(S6).nodes
        assert _automorphism_chain(S6, max_nodes=nodes).nodes == nodes
        with pytest.raises(OrderTooLarge) as info:
            _automorphism_chain(S6, max_nodes=nodes - 1)
        assert (info.value.what, info.value.limit) == ("search nodes", nodes - 1)

    def test_order_bound(self):
        with pytest.raises(OrderTooLarge):
            _automorphism_chain(left_zero(13))


class TestPermGroup:
    def test_dedups_and_sorts(self):
        g = PermGroup(3, [identity(3), Permutation((0, 2, 1)), identity(3)])
        assert [p.images for p in g.elements] == [(0, 1, 2), (0, 2, 1)]

    def test_dedups_and_sorts_by_images_whatever_the_constructor(self):
        rng = random.Random(8)
        perms = [random_permutation(rng, 5) for _ in range(40)]
        twins = [Permutation._unchecked(p.images) for p in perms]
        g = PermGroup(5, perms + twins[::-1])
        assert [p.images for p in g.elements] == sorted({p.images for p in perms})
        assert list(g.elements) == sorted(set(perms))
        assert all(q in g for q in twins)

    def test_equality_and_hash_follow_the_element_set(self):
        elems = [Permutation((1, 2, 0)), identity(3), Permutation((2, 0, 1))]
        a = PermGroup(3, elems)
        b = PermGroup(3, [Permutation._unchecked(p.images) for p in reversed(elems)] + elems)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((3, tuple(sorted(elems))))
        assert a != PermGroup(3, elems[:2])
        assert a != PermGroup(4, [identity(4)])
        assert a != elems

    def test_rejects_an_element_of_another_degree(self):
        with pytest.raises(MalformedInput):
            PermGroup(3, [identity(3), identity(4)])

    def test_contains(self):
        g = enumerate_automorphisms(S6)
        assert identity(6) in g
        assert Permutation((1, 0, 3, 2, 5, 4)) in g
        assert Permutation((1, 0, 2, 3, 4, 5)) not in g

    def test_contains_only_permutations(self):
        g = PermGroup(3, [identity(3)])
        assert identity(3) in g
        assert (0, 1, 2) not in g
        assert [0, 1, 2] not in g
        assert None not in g

    def test_validation_catches_non_group(self):
        # both transpositions are their own inverses, but their product is missing
        g = PermGroup(3, [identity(3), Permutation((0, 2, 1)), Permutation((1, 0, 2))])
        assert group_axiom_witness(g) == "not closed at (0, 2, 1) * (1, 0, 2)"
        g = PermGroup(3, [identity(3), Permutation((1, 2, 0))])
        assert group_axiom_witness(g) == "missing inverse of (1, 2, 0)"
        assert group_axiom_witness(enumerate_automorphisms(S6)) is None

    def test_validation_requires_identity(self):
        # construction accepts anything permutation-shaped
        g = PermGroup(3, [Permutation((0, 2, 1))])
        assert group_axiom_witness(g) == "missing identity"

    def test_fixture_groups_satisfy_axioms(self):
        for table in FIXTURES.values():
            g = enumerate_automorphisms(table)
            elems = set(g.elements)
            assert identity(table.order) in elems
            for p in elems:
                assert inverse(p) in elems
                for q in elems:
                    assert compose(p, q) in elems


class TestSubgroupChecks:
    def test_trivial_subgroup_is_normal(self):
        g = enumerate_automorphisms(S6)
        triv = PermGroup(6, [identity(6)])
        report = subgroup_checks(triv, g)
        assert report.is_subgroup and report.is_normal
        assert report.witness is None

    def test_whole_group_in_itself(self):
        g = enumerate_automorphisms(S6)
        report = subgroup_checks(g, g)
        assert report.is_subgroup and report.is_normal

    def test_not_a_subset(self):
        g = enumerate_automorphisms(N3)
        other = PermGroup(3, [identity(3), Permutation((1, 2, 0))])
        report = subgroup_checks(other, g)
        assert not report.is_subgroup
        assert report.witness is not None

    def test_not_closed(self):
        # {id, (01), (12)} inside Sym(3): subset but not a subgroup
        parent = enumerate_automorphisms(CayleyTable([[0, 0, 0]] * 3))
        sub = PermGroup(
            3, [identity(3), Permutation((0, 2, 1)), Permutation((1, 0, 2))]
        )
        report = subgroup_checks(sub, parent)
        assert not report.is_subgroup

    def test_non_normal_subgroup(self):
        # a point stabilizer inside the full symmetric group is not normal
        parent = enumerate_automorphisms(CayleyTable([[0, 0, 0, 0]] * 4))
        sub = PermGroup(4, [identity(4), Permutation((0, 2, 1, 3))])
        report = subgroup_checks(sub, parent)
        assert report.is_subgroup
        assert not report.is_normal
        kind, g, h = report.witness
        assert kind == "not-normal"
        conj = compose(compose(inverse(g), h), g)
        assert conj not in sub
