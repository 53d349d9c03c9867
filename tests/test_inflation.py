from __future__ import annotations

import itertools
import random

import pytest

from finsemi import (
    CayleyTable,
    FiberSizeSpec,
    MalformedInput,
    NotAssociative,
    NotClosed,
    OrderTooLarge,
    Permutation,
    automorphism_witness,
    build_inflation,
    canonicalize,
    choose_transversal,
    compute_psi,
    format_fiber_spec,
    induced_retraction,
    parse_fiber_spec,
    product_set,
    restrict_to_subsemigroup,
    retraction_from_theta,
    verify_inflation,
    verify_kernel_in_h,
)
from finsemi.core import compute_h
from finsemi.inflation import POLICIES, RetractionMap, Transversal
from support import (
    IL2,
    L2,
    N3,
    S6,
    Z3,
    naive_automorphism_witness,
    naive_inflation_witness,
    naive_kernel_pair,
    random_magma_inflation,
    with_one_cell_changed,
)


class TestChooseTransversal:
    def test_null_least(self):
        t = choose_transversal(compute_psi(N3), "least")
        assert t.representatives == (0, 1)

    def test_left_zero_is_whole_set(self):
        t = choose_transversal(compute_psi(L2), "least")
        assert t.representatives == (0, 1)

    def test_s6_least(self):
        t = choose_transversal(compute_psi(S6), "least")
        assert t.representatives == (0, 1, 2, 3)

    def test_s6_greatest(self):
        t = choose_transversal(compute_psi(S6), "greatest")
        assert t.representatives == (0, 1, 4, 5)

    def test_seeded_is_deterministic_and_valid(self):
        psi = compute_psi(S6)
        first = choose_transversal(psi, "seeded", seed=42)
        second = choose_transversal(psi, "seeded", seed=42)
        assert first == second
        for block in psi.blocks:
            assert sum(1 for r in first.representatives if r in block) == 1

    def test_seeded_default_seed(self):
        psi = compute_psi(S6)
        assert choose_transversal(psi, "seeded") == choose_transversal(
            psi, "seeded", seed=0
        )

    def test_contains_all_products(self, corpus_by_order):
        for table in corpus_by_order[3]:
            psi = compute_psi(table)
            for policy in POLICIES:
                t = choose_transversal(psi, policy, seed=5)
                assert product_set(table) <= set(t.representatives)

    def test_unknown_policy(self):
        with pytest.raises(MalformedInput):
            choose_transversal(compute_psi(N3), "median")


class TestInducedRetraction:
    def test_null(self):
        t = choose_transversal(compute_psi(N3), "least")
        assert induced_retraction(compute_psi(N3), t).theta == (0, 1, 1)

    def test_left_zero_is_identity(self):
        t = choose_transversal(compute_psi(L2), "least")
        assert induced_retraction(compute_psi(L2), t).theta == (0, 1)

    def test_s6(self):
        psi = compute_psi(S6)
        t = choose_transversal(psi, "least")
        assert induced_retraction(psi, t).theta == (0, 1, 2, 3, 2, 3)

    def test_rejects_transversal_missing_a_block(self):
        psi = compute_psi(S6)
        bad = Transversal(6, (0, 1, 2))
        with pytest.raises(MalformedInput):
            induced_retraction(psi, bad)

    def test_rejects_doubled_block(self):
        psi = compute_psi(S6)
        bad = Transversal(6, (0, 1, 2, 4))
        with pytest.raises(MalformedInput):
            induced_retraction(psi, bad)


class TestRetractionMapValidation:
    def test_theta_must_fix_representatives(self):
        t = Transversal(3, (0, 1))
        with pytest.raises(MalformedInput):
            RetractionMap((0, 0, 0), t)

    def test_theta_values_must_be_representatives(self):
        t = Transversal(3, (0, 1))
        with pytest.raises(MalformedInput):
            RetractionMap((0, 1, 2), t)


class TestVerifyInflation:
    def test_s6_canonical(self):
        psi = compute_psi(S6)
        t = choose_transversal(psi, "least")
        assert verify_inflation(S6, induced_retraction(psi, t)) is None

    def test_null_canonical(self):
        psi = compute_psi(N3)
        t = choose_transversal(psi, "least")
        assert verify_inflation(N3, induced_retraction(psi, t)) is None

    def test_product_axiom_failure(self):
        # collapsing a left-zero semigroup onto one point breaks products:
        # theta(1)theta(1) = 0 while 1*1 = 1, and the least violating pair
        # the scan reports is (1, 0)
        theta = RetractionMap((0, 0), Transversal(2, (0,)))
        witness = verify_inflation(L2, theta)
        assert witness is not None
        assert witness.axiom == "product"
        assert witness.elements == (1, 0)
        a, b = witness.elements
        assert L2.rows[theta.theta[a]][theta.theta[b]] != L2.rows[a][b]
        # (1, 1) violates the same axiom
        assert L2.rows[theta.theta[1]][theta.theta[1]] != L2.rows[1][1]


class TestVerifyKernelInH:
    def test_s6_canonical(self):
        psi = compute_psi(S6)
        t = choose_transversal(psi, "least")
        theta = induced_retraction(psi, t)
        assert verify_kernel_in_h(theta, compute_h(S6)) is None

    def test_identity_retraction(self):
        theta = RetractionMap((0, 1), Transversal(2, (0, 1)))
        assert verify_kernel_in_h(theta, compute_h(L2)) is None

    def test_failure_witness(self):
        theta = RetractionMap((0, 0), Transversal(2, (0,)))
        assert verify_kernel_in_h(theta, compute_h(L2)) == (0, 1)


class TestRowWiseScansMatchTheDoubleLoops:
    """automorphism_witness, verify_inflation and verify_kernel_in_h against the oracles."""

    def check(self, table, images=(), retractions=()):
        """Compare every witness; return how many of them were failures."""
        failures = 0
        for img in images:
            got = automorphism_witness(table, Permutation(img))
            assert got == naive_automorphism_witness(table.rows, img), (table, img)
            failures += got is not None
        h = compute_h(table)
        for r in retractions:
            got = verify_inflation(table, r)
            assert got == naive_inflation_witness(table.rows, r.theta), (table, r)
            pair = verify_kernel_in_h(r, h)
            assert pair == naive_kernel_pair(r.theta, h.block_of), (table, r)
            failures += (got is not None) + (pair is not None)
        return failures

    def test_every_magma_of_order_three(self):
        perms = list(itertools.permutations(range(3)))
        thetas = [t for t in itertools.product(range(3), repeat=3) if all(t[v] == v for v in t)]
        retractions = [retraction_from_theta(t) for t in thetas]
        assert len(retractions) == 10  # the idempotent maps of three points
        failures = 0
        for vals in itertools.product(range(3), repeat=9):
            table = CayleyTable([vals[0:3], vals[3:6], vals[6:9]])
            failures += self.check(table, perms, retractions)
        assert failures > 100000

    def test_every_semigroup_of_order_at_most_four(self, corpus_by_order):
        # with the constant maps, whose image is one id, and order 1, where every
        # row and theta is one entry
        failures = 0
        for n in (1, 2, 3, 4):
            perms = list(itertools.permutations(range(n)))
            thetas = [tuple(range(n))] + [(t,) * n for t in range(n)]
            for table in corpus_by_order[n]:
                psi = compute_psi(table)
                retractions = [retraction_from_theta(t) for t in thetas] + [
                    induced_retraction(psi, choose_transversal(psi, policy, 5))
                    for policy in POLICIES
                ]
                failures += self.check(table, perms, retractions)
        assert failures > 50000

    def test_perturbed_inflations_up_to_order_nine(self):
        rng = random.Random(90)
        failures = 0
        for _ in range(300):
            table = random_magma_inflation(rng, 9)
            changed = with_one_cell_changed(table, rng)
            psi, n = compute_psi(table), table.order
            retractions = [
                induced_retraction(psi, choose_transversal(psi, policy, rng.randrange(100)))
                for policy in POLICIES
            ]
            images = [tuple(rng.sample(range(n), n)) for _ in range(3)]
            images += [tuple(range(n)), tuple(rng.sample(range(n), n))]
            failures += self.check(table, images, retractions)
            failures += self.check(changed, images, retractions)
        assert failures > 1000


class TestRestrictToSubsemigroup:
    def test_s6_least_gives_il2(self):
        sub, old_ids = restrict_to_subsemigroup(S6, (0, 1, 2, 3))
        assert sub == IL2
        assert old_ids == (0, 1, 2, 3)

    def test_s6_greatest_gives_il2_too(self):
        sub, old_ids = restrict_to_subsemigroup(S6, (0, 1, 4, 5))
        assert sub == IL2
        assert old_ids == (0, 1, 4, 5)

    def test_null_restricts_to_smaller_null(self):
        sub, old_ids = restrict_to_subsemigroup(N3, (0, 1))
        assert sub == CayleyTable([[0, 0], [0, 0]])
        assert old_ids == (0, 1)

    def test_left_zero_restricts_to_point(self):
        sub, _ = restrict_to_subsemigroup(L2, (0,))
        assert sub.order == 1

    def test_not_closed(self):
        with pytest.raises(NotClosed) as info:
            restrict_to_subsemigroup(Z3, (1,))
        assert info.value.witness == (1, 1)


class TestBuildInflation:
    def test_left_zero_with_two_fibers_of_three(self):
        spec = FiberSizeSpec(L2, (3, 3))
        table, theta = build_inflation(spec)
        assert table.order == 6
        assert theta.theta == (0, 1, 0, 0, 1, 1)
        assert canonicalize(table) == canonicalize(S6)

    def test_all_singleton_fibers_recover_base(self):
        spec = FiberSizeSpec(Z3, (1, 1, 1))
        table, theta = build_inflation(spec)
        assert table == Z3
        assert theta.theta == (0, 1, 2)

    def test_uneven_fibers(self):
        spec = FiberSizeSpec(L2, (2, 1))
        table, theta = build_inflation(spec)
        assert table.order == 3
        assert theta.theta == (0, 1, 0)

    def test_result_verifies(self, corpus_by_order):
        rng = random.Random(19)
        for base in rng.sample(corpus_by_order[3], 15):
            sizes = tuple(rng.randint(1, 3) for _ in range(base.order))
            table, theta = build_inflation(FiberSizeSpec(base, sizes))
            assert table.order == sum(sizes)
            assert verify_inflation(table, theta) is None
            assert verify_kernel_in_h(theta, compute_h(table)) is None

    def test_restricting_to_base_ids_recovers_base(self):
        spec = FiberSizeSpec(IL2, (1, 1, 2, 1))
        table, theta = build_inflation(spec)
        sub, old_ids = restrict_to_subsemigroup(
            table, theta.transversal.representatives
        )
        assert sub == IL2
        assert old_ids == (0, 1, 2, 3)

    def test_fiber_sizes_must_be_positive(self):
        with pytest.raises(MalformedInput):
            FiberSizeSpec(L2, (1, 0))

    def test_size_count_must_match_base_order(self):
        with pytest.raises(MalformedInput):
            FiberSizeSpec(L2, (1, 1, 1))

    def test_overflow(self):
        with pytest.raises(OrderTooLarge):
            build_inflation(FiberSizeSpec(L2, (7, 7)))
        build_inflation(FiberSizeSpec(L2, (7, 7)), max_order=14)


class TestCanonicalPipeline:
    def test_every_semigroup_is_an_inflation_of_its_transversal(
        self, corpus_by_order
    ):
        for n in (1, 2, 3):
            for table in corpus_by_order[n]:
                psi = compute_psi(table)
                h = compute_h(table)
                for policy in POLICIES:
                    t = choose_transversal(psi, policy, seed=1)
                    theta = induced_retraction(psi, t)
                    assert verify_inflation(table, theta) is None
                    assert verify_kernel_in_h(theta, h) is None

    def test_build_then_analyze_round_trip(self, corpus_by_order):
        # inflating a base and then taking the canonical transversal of the
        # result gives back something isomorphic to the base, provided the
        # fiber partition coincides with the recovered class partition: the
        # base must have no collapsible elements of its own and fibers over
        # product elements must stay trivial
        rng = random.Random(23)
        checked = 0
        for base in rng.sample(corpus_by_order[3], 20):
            if any(len(b) > 1 for b in compute_psi(base).blocks):
                continue
            prods = product_set(base)
            sizes = tuple(
                1 if x in prods else rng.randint(1, 3)
                for x in range(base.order)
            )
            table, theta = build_inflation(FiberSizeSpec(base, sizes))
            psi = compute_psi(table)
            fibers = sorted(
                tuple(x for x, r in enumerate(theta.theta) if r == rep)
                for rep in theta.transversal.representatives
            )
            assert list(psi.blocks) == fibers
            t = choose_transversal(psi, "least")
            sub, _ = restrict_to_subsemigroup(table, t.representatives)
            assert canonicalize(sub) == canonicalize(base)
            checked += 1
        assert checked >= 3

    def test_round_trip_explicit_cases(self):
        two_null = CayleyTable([[0, 0], [0, 0]])
        for base, sizes in ((two_null, (1, 3)), (IL2, (1, 1, 2, 2))):
            table, _ = build_inflation(FiberSizeSpec(base, sizes))
            psi = compute_psi(table)
            t = choose_transversal(psi, "least")
            sub, _ = restrict_to_subsemigroup(table, t.representatives)
            assert canonicalize(sub) == canonicalize(base)

    def test_fibers_and_psi_classes_can_differ(self):
        # base with its own repeated rows: fibers of the construction are not
        # the same partition the analysis recovers
        two_null = CayleyTable([[0, 0], [0, 0]])
        table, theta = build_inflation(FiberSizeSpec(two_null, (2, 1)))
        assert table == N3
        psi = compute_psi(table)
        fiber_blocks = {}
        for x, rep in enumerate(theta.theta):
            fiber_blocks.setdefault(rep, []).append(x)
        assert psi.blocks == ((0,), (1, 2))
        assert sorted(map(tuple, fiber_blocks.values())) == [(0, 2), (1,)]


class TestFiberSpecFormat:
    def test_round_trip(self):
        spec = FiberSizeSpec(IL2, (1, 1, 2, 2))
        assert parse_fiber_spec(format_fiber_spec(spec)) == spec

    def test_parse_example(self):
        text = "2\n0 0\n1 1\nsizes: 3 3\n"
        spec = parse_fiber_spec(text)
        assert spec.base == L2
        assert spec.sizes == (3, 3)
        assert spec.total_order == 6

    def test_missing_sizes_line(self):
        with pytest.raises(MalformedInput):
            parse_fiber_spec("2\n0 0\n1 1\n")

    def test_wrong_size_count(self):
        with pytest.raises(MalformedInput):
            parse_fiber_spec("2\n0 0\n1 1\nsizes: 3\n")

    def test_junk_after_sizes(self):
        with pytest.raises(MalformedInput):
            parse_fiber_spec("2\n0 0\n1 1\nsizes: 3 3\ntrailing\n")

    def test_base_must_be_associative(self):
        with pytest.raises(NotAssociative):
            parse_fiber_spec("2\n0 1\n0 0\nsizes: 1 1\n")
