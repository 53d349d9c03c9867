"""Tests of the benchmark itself: its oracle, its gate, and tiny runs.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import oracle
import run
import workloads
from support import naive_automorphism_images, naive_semigroup_rows

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iso_classes_match_the_brute_force_oracle(n):
    classes = {oracle.canonical_form(rows) for rows in naive_semigroup_rows(n)}
    assert sorted(classes) == oracle.semigroups_up_to_iso(n)


def test_iso_class_counts_match_a027851():
    assert [len(oracle.semigroups_up_to_iso(n)) for n in (1, 2, 3, 4)] == [1, 5, 24, 188]


def test_predicted_aut_order_matches_brute_force_on_all_order_3_tables():
    for rows in naive_semigroup_rows(3):
        assert oracle.Structure(rows).aut_order == len(naive_automorphism_images(rows))


def test_predicted_orders_match_brute_force_on_inflations_up_to_order_7():
    rng = random.Random(7)
    bases = [b for n in (1, 2, 3) for b in oracle.semigroups_up_to_iso(n)]
    for _ in range(12):
        base = rng.choice(bases)
        sizes = rng.choice(list(workloads.compositions(len(base), rng.randint(len(base) + 1, 7))))
        images = list(range(sum(sizes)))
        rng.shuffle(images)
        rows = oracle.relabel(oracle.inflate(base, sizes), images)
        auts = naive_automorphism_images(rows)
        s = oracle.Structure(rows)
        assert s.aut_order == len(auts)
        classes = oracle.psi_classes(rows)
        fixing = [a for a in auts if all(a[x] in c for c in classes for x in c)]
        assert s.g_order == len(fixing)


def _plan(name, seed=3):
    return workloads.make(name, seed).plan


def test_recipes_fix_the_cost_setting_properties():
    for seed in (1, 2):
        plan = _plan("theorem_inflated", seed)
        got = []
        for t in plan:
            products = {v for row in t.rows for v in row}
            lead = min(products)  # non-product ids before the first product
            assert products == set(range(lead, lead + len(products)))
            s = t.structure
            got.append((len(t.rows), s.class_sizes, s.g_order, s.aut_order, lead))
        want = [tuple(shape) for *shape, k in workloads.THEOREM_RECIPE for _ in range(k)]
        assert sorted(got) == sorted(want)
        assert all(6 <= len(t.rows) <= 10 for t in plan)
        pinned = [t for t in plan if t.structure.g_order >= 144 or t.structure.aut_order == 240]
        assert len(pinned) == 4
        assert all((t.base, t.sizes) in workloads.THEOREM_PINNED.values() for t in pinned)
    assert _plan("theorem_inflated", 1) != _plan("theorem_inflated", 2)
    a, b = _plan("aut_rigid", 1), _plan("aut_rigid", 2)
    assert len(a) == len(b) == 100
    assert a != b  # the seed moves the inputs
    assert all(len(t.rows) in (11, 12) and t.structure.g_order <= 100 for t in a)


def _table(rows):
    return workloads.Table((), (), [], rows, oracle.Structure(rows))


S6 = ((0,) * 6, (1,) * 6) * 3  # left zero L2 with fibers {0,2,4} and {1,3,5}


def test_gate_accepts_right_and_rejects_wrong_aut_listings():
    t = _table(S6)
    perms = sorted(naive_automorphism_images(S6))
    good = f"{len(perms)}\n" + "".join("p: " + " ".join(map(str, p)) + "\n" for p in perms)
    assert workloads.check_aut_text(t, good) == []
    dup = good.replace("p: " + " ".join(map(str, perms[1])), "p: " + " ".join(map(str, perms[0])))
    assert workloads.check_aut_text(t, dup)
    bogus = next(p for p in itertools.permutations(range(6)) if p not in perms)
    wrong = good.replace("p: " + " ".join(map(str, perms[1])), "p: " + " ".join(map(str, bogus)))
    assert workloads.check_aut_text(t, wrong)
    assert workloads.check_aut_text(t, good.replace(f"{len(perms)}\n", "71\n", 1))


def test_gate_rejects_a_wrong_theorem_report():
    import finsemi

    report = finsemi.verify_theorem(finsemi.CayleyTable(S6)).to_text()
    assert workloads.check_theorem_text(_table(S6), report) == []
    assert workloads.check_theorem_text(_table(S6), report.replace("aut_order: 8", "aut_order: 16"))
    assert workloads.check_theorem_text(_table(S6), report.replace("witnesses: 0", "witnesses: 1"))


def test_digest_ignores_only_the_elapsed_time():
    a = workloads.stdout_digest("tables_seen: 3\nelapsed_seconds: 0.125\n")
    assert a == workloads.stdout_digest("tables_seen: 3\nelapsed_seconds: 9.500\n")
    assert a != workloads.stdout_digest("tables_seen: 4\nelapsed_seconds: 0.125\n")
    assert workloads.stdout_digest('{"elapsed_seconds": 1.5, "x": 1}') == workloads.stdout_digest(
        '{"elapsed_seconds": 2.25e-3, "x": 1}')


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few tables; corpus runs at order 3."""
    monkeypatch.setattr(workloads, "THEOREM_RECIPE", (
        (6, (1, 1, 1, 1, 2), 2, 2, 0, 2), (6, (1, 1, 4), 24, 24, 1, 1)))
    monkeypatch.setattr(workloads, "AUT_BULK", ((12, 12, 2),))
    monkeypatch.setattr(workloads, "AUT_TAIL_LEADS", (4,))
    monkeypatch.setattr(workloads, "CORPUS_ORDER", 3)
    monkeypatch.setattr(workloads, "CORPUS_COUNTS", {"labelled": 113, "up-to-iso": 24})


def _run(name, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run_workload(name, seed=5, seconds=0, trace=trace)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run(tiny, name):
    code, lines = _run(name, trace=0)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(tiny, name):
    code, lines = _run(name, trace=1)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["core.parse_calls"] + m["enumeration.leaves"] > 0
    if name.startswith("corpus"):
        assert m["enumeration.leaves"] == 113
        assert m["enumeration.canonicalize_calls"] == (113 if name == "corpus_iso" else 0)


def test_tracer_restores_every_function():
    import finsemi
    from tracing import Tracer

    tracer = Tracer(finsemi)
    tracer.install()
    assert all(getattr(module, name) is wrapper for module, name, _, wrapper in tracer.patches)
    tracer.uninstall()
    assert all(getattr(module, name) is fn for module, name, fn, _ in tracer.patches)


def test_gate_failure_gives_exit_code_1(tiny, monkeypatch):
    monkeypatch.setattr(workloads, "CORPUS_COUNTS", {"labelled": 114, "up-to-iso": 24})
    code, lines = _run("corpus_labelled", trace=0)
    assert code == 1 and json.loads(lines[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_iso", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
