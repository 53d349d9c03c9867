"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single verdict line (visible with -s; under plain -v the
pytest PASSED/FAILED line per test serves the same purpose).
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from finsemi import (
    CayleyTable,
    EnumerationTask,
    FiberSizeSpec,
    build_inflation,
    choose_transversal,
    compose,
    compute_h,
    compute_psi,
    corpus_verify,
    decompose_automorphism,
    embed_h,
    enumerate_automorphisms,
    extend_automorphism,
    extendable_automorphisms,
    extension_scheme,
    format_table,
    identity,
    inverse,
    is_automorphism,
    psi_class_group,
    restrict_to_subsemigroup,
    subgroup_checks,
    verify_inflation,
    verify_kernel_in_h,
    verify_theorem,
)
from support import FIXTURES, S6, naive_automorphism_images, naive_semigroup_rows


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {label}")
        raise
    print(f"criterion {num} PASS: {label}")


def theorem_frame(table):
    psi = compute_psi(table)
    t = choose_transversal(psi, "least")
    scheme = extension_scheme(psi, t)
    sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
    sizes = tuple(len(psi.block_containing(r)) for r in old_ids)
    return psi, t, scheme, sub, sizes


def larger_g_tables():
    """Inflations whose G is larger than at any order up to 3.

    L2 at sizes (4, 4) has |G| = 36 and |Aut| = 72; the left-zero L3 at
    sizes (3, 3, 3) has |G| = 8 and |H| = 6.
    """
    l3 = CayleyTable([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    specs = (FiberSizeSpec(FIXTURES["L2"], (4, 4)), FiberSizeSpec(l3, (3, 3, 3)))
    return [build_inflation(spec)[0] for spec in specs]


def assert_verified_against(table, g):
    """verify_theorem, which never lists G, agrees with the explicit G."""
    report = verify_theorem(table)
    assert report.all_flags, report.witnesses
    assert report.g_order == len(g)


def test_criterion_1_fixture_verdicts():
    with criterion(1, "fixture verdicts match the naive oracle, each under 1 s"):
        expected = {
            "N3": (2, 1, math.factorial(2)),
            "N4": (6, 1, math.factorial(3)),
            "S6": (8, 2, math.factorial(2) * math.factorial(2)),
            "L2": (2, 2, 1),
        }
        for name, (aut, h, g) in expected.items():
            table = FIXTURES[name]
            start = time.perf_counter()
            report = verify_theorem(table)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
            assert (report.aut_order, report.h_order, report.g_order) == (aut, h, g)
            assert report.all_flags
            # independent re-derivation: filter all n! permutations
            oracle = naive_automorphism_images(table.rows)
            assert report.aut_order == len(oracle)
        # L2 has trivial G and its transversal is the whole table, so the
        # extendable automorphisms are exactly Aut(T)
        l2 = FIXTURES["L2"]
        _, t, _, sub, sizes = theorem_frame(l2)
        assert t.representatives == (0, 1)
        h_group = extendable_automorphisms(sub, sizes)
        assert sorted(p.images for p in h_group) == naive_automorphism_images(sub.rows)


def test_criterion_2_theorem_on_small_corpus(corpus_by_order):
    with criterion(2, "orders 1-3: enumerator matches the brute oracle, 0 failures, under 10 s"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            assert {t.rows for t in corpus_by_order[n]} == naive_semigroup_rows(n)
            for table in corpus_by_order[n]:
                assert verify_theorem(table).all_flags
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_theorem_at_order_four():
    with criterion(3, "all 3492 labelled order-4 tables verify, under 5 min"):
        summary = corpus_verify(EnumerationTask(4), io.StringIO())
        assert summary.tables_seen == 3492
        assert summary.theorem_failures == 0
        assert summary.elapsed_seconds < 300.0, f"took {summary.elapsed_seconds:.1f}s"


def test_criterion_4_extendability_is_complete(corpus_by_order):
    with criterion(4, "orders 1-4: size test on Aut(T) matches actual restrictions exactly"):
        for n in (1, 2, 3, 4):
            for table in corpus_by_order[n]:
                psi = compute_psi(table)
                t = choose_transversal(psi, "least")
                scheme = extension_scheme(psi, t)
                sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
                sizes = tuple(len(psi.block_containing(r)) for r in old_ids)
                aut_s = enumerate_automorphisms(table).elements
                accepted = set(extendable_automorphisms(sub, sizes).elements)
                for tau in enumerate_automorphisms(sub):
                    restricts = [
                        phi
                        for phi in aut_s
                        if all(
                            phi.images[old_ids[k]] == old_ids[tau.images[k]]
                            for k in range(len(old_ids))
                        )
                    ]
                    if tau in accepted:
                        ext = extend_automorphism(tau, scheme)
                        assert is_automorphism(table, ext)
                        assert ext in restricts
                    else:
                        assert restricts == []


def test_criterion_5_decomposition_uniqueness(corpus_by_order):
    with criterion(5, "orders 1-3 and |G| up to 36: every automorphism factors uniquely"):
        tables = [t for n in (1, 2, 3) for t in corpus_by_order[n]] + larger_g_tables()
        for table in tables:
            psi, t, scheme, sub, sizes = theorem_frame(table)
            g = psi_class_group(psi)
            h_bar = embed_h(extendable_automorphisms(sub, sizes), scheme)
            aut = enumerate_automorphisms(table)
            # pair counting: the product map is a bijection onto Aut S
            products = {
                compose(pi, tb) for pi in g for tb in h_bar
            }
            assert len(products) == len(g) * len(h_bar) == len(aut)
            assert products == set(aut.elements)
            g_set = set(g.elements)
            h_bar_set = set(h_bar.elements)
            for phi in aut:
                tau, pi = decompose_automorphism(table, phi, psi, t, scheme)
                tau_bar = extend_automorphism(tau, scheme)
                assert pi in g_set
                assert tau_bar in h_bar_set
                assert compose(pi, tau_bar) == phi
            assert_verified_against(table, g)


def test_criterion_6_normality_and_action(corpus_by_order):
    with criterion(6, "G is normal, H-bar conjugates G into G: fixtures, orders 1-3, |G| 36"):
        tables = list(FIXTURES.values()) + [
            t for n in (1, 2, 3) for t in corpus_by_order[n]
        ] + larger_g_tables()
        for table in tables:
            psi, t, scheme, sub, sizes = theorem_frame(table)
            g = psi_class_group(psi)
            h_bar = embed_h(extendable_automorphisms(sub, sizes), scheme)
            aut = enumerate_automorphisms(table)
            report = subgroup_checks(g, aut)
            assert report.is_subgroup and report.is_normal
            g_set = set(g.elements)
            for tb in h_bar:
                tbi = inverse(tb)
                for pi in g:
                    assert compose(compose(tbi, pi), tb) in g_set
            assert_verified_against(table, g)


def test_criterion_7_inflation_laws(corpus_by_order):
    with criterion(7, "200 random fiber specs all satisfy both inflation laws, under 30 s"):
        rng = random.Random(2024)
        bases = [t for n in (1, 2, 3, 4) for t in corpus_by_order[n]]
        start = time.perf_counter()
        built = 0
        while built < 200:
            base = rng.choice(bases)
            sizes = tuple(rng.randint(1, 3) for _ in range(base.order))
            if sum(sizes) > 10:
                continue
            table, theta = build_inflation(FiberSizeSpec(base, sizes))
            assert verify_inflation(table, theta) is None
            assert verify_kernel_in_h(theta, compute_h(table)) is None
            built += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_8_transversal_invariance(corpus_by_order):
    with criterion(8, "all three policies agree on the four summary numbers"):
        rng = random.Random(77)
        pool = [t for n in (1, 2, 3, 4) for t in corpus_by_order[n]]
        tables = list(FIXTURES.values()) + rng.sample(pool, 50)
        for table in tables:
            outcomes = {
                (r.aut_order, r.h_order, r.g_order, r.psi_class_sizes)
                for r in (
                    verify_theorem(table, policy, seed=13)
                    for policy in ("least", "greatest", "seeded")
                )
            }
            assert len(outcomes) == 1


def test_criterion_9_cli_determinism():
    with criterion(9, "structured verify-theorem output is byte-identical across runs"):
        text = format_table(S6)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "finsemi", "verify-theorem", "--format", "structured"],
                input=text.encode("ascii"),
                capture_output=True,
                check=True,
            )
            for _ in range(3)
        ]
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout
        doc = json.loads(runs[0].stdout)
        assert doc["aut_order"] == 8 and doc["identity_holds"] is True
