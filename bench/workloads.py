"""The four benchmark workloads: their inputs, and the gate on their outputs.

Inputs are planned from the seed by the benchmark's own code (oracle.py),
then built with finsemi in the timed set-up.  A fixed recipe holds the
properties that set the cost of each table, so the seed moves the bases,
fiber sizes and ids but not the amount of work:

- theorem_inflated fixes how many tables have each shape (order, psi-class
  sizes, |G| and |Aut|) and how many non-product ids precede the products;
- aut_rigid fixes how many non-product ids precede the products, which is
  what sets the cost of the backtracking search over ids in order, and
  takes its slowest tables (the tail) from a constant seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import oracle
from oracle import Rows, Structure


def compositions(parts: int, total: int):
    """Every tuple of `parts` positive ints summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


# (order, psi-class sizes, |G|, |Aut|, lead, tables per pass) for
# theorem_inflated.  Bases have order <= 3 and the inflated orders are
# 6..10; the seed picks the base, which base ids get which fiber and the
# ids, within each shape.  `lead` non-product ids come first, then every
# product, then the rest, each in random order.  With lead 0 the
# automorphism search prunes early and the group checks dominate.  Eight
# tables have lead 6, where the search cannot prune until the seventh id:
# they keep the search in view at a steady cost.  Fully random ids are not
# steady: one |G| = 240 table with six non-products first costs 3-4 s
# instead of 0.6 s.
#
# The shape sets a table's cost, and the shapes fall into bands of cost:
# 41 tables under 3 ms; a block of 24 of one shape near 3.5 ms, which holds
# the median (the 57th of 113); 24 tables of 7-60 ms; the eight lead-6
# tables near 85 ms; a block of 12 of one shape near 160 ms, which holds
# the p90 tail (the 12th slowest); and four tables of 0.2-0.8 s.  So the
# median and the tail each read the middle of a block of equal tables,
# whatever the seed.  16 tables have |G| >= 100.  |G| = 576 and 720 are
# left out: one such table costs 6-14 s and would set the whole run's
# spread alone.
THEOREM_RECIPE = (
    (6, (1, 1, 1, 1, 2), 2, 2, 0, 8), (6, (1, 1, 1, 1, 1, 1), 1, 1, 0, 4),
    (6, (1, 1, 2, 2), 4, 4, 0, 4), (7, (1, 1, 1, 1, 1, 2), 2, 4, 0, 3),
    (6, (1, 1, 1, 3), 6, 6, 0, 6), (7, (1, 1, 1, 2, 2), 4, 4, 0, 6),
    (7, (1, 1, 1, 1, 3), 6, 6, 0, 6), (7, (1, 1, 1, 1, 1, 2), 2, 2, 0, 4),
    (9, (1, 1, 1, 1, 2, 3), 12, 12, 0, 24),
    (6, (1, 1, 4), 24, 24, 0, 4), (7, (1, 1, 1, 4), 24, 24, 0, 3),
    (9, (1, 1, 1, 1, 1, 4), 24, 24, 0, 3), (9, (1, 1, 1, 3, 3), 36, 36, 0, 3),
    (10, (1, 1, 1, 1, 3, 3), 36, 36, 0, 2), (9, (1, 1, 1, 1, 1, 4), 24, 48, 0, 2),
    (10, (1, 1, 1, 1, 3, 3), 36, 72, 0, 2), (8, (1, 1, 2, 4), 48, 48, 0, 2),
    (9, (1, 1, 1, 2, 4), 48, 48, 0, 3),
    (9, (1, 1, 1, 1, 2, 3), 12, 12, 6, 8),
    (9, (1, 1, 1, 1, 5), 120, 120, 0, 12),
    (10, (1, 1, 1, 3, 4), 144, 144, 0, 1), (10, (1, 1, 1, 1, 1, 5), 120, 240, 0, 1),
    (10, (1, 1, 1, 2, 5), 240, 240, 0, 2),
)
# The four largest tables, whose cost moves by up to 1.7x with the base
# and would set the spread of wall_s, keep one base; the seed picks their ids.
THEOREM_PINNED = {
    (10, (1, 1, 1, 3, 4), 144, 144): (((0, 0, 0), (0, 1, 1), (0, 2, 2)), (5, 1, 4)),
    (10, (1, 1, 1, 1, 1, 5), 120, 240): (((0, 0, 0), (0, 1, 2), (2, 2, 2)), (2, 6, 2)),
    (10, (1, 1, 1, 2, 5), 240, 240): (((0, 0, 0), (0, 1, 0), (2, 2, 2)), (1, 3, 6)),
}
THEOREM_ORDERS = range(6, 11)

# aut_rigid: inflations of order-4 bases at orders 11-12 with |G| <= 100.
# The bulk is stratified by (|G|, |Aut|, tables), and puts 0-3 non-product
# ids before all the products.  The tail puts 5 or 6 there, which the
# search cannot prune until the products appear; it comes from a constant
# seed, because its cost varies several-fold between tables and would
# otherwise set the run's spread alone.
AUT_ORDERS = (11, 12)
AUT_SIZES = [sizes for total in AUT_ORDERS for sizes in compositions(4, total)]
AUT_MAX_G = 100
AUT_BULK = (
    (12, 12, 10), (24, 24, 16), (36, 36, 16), (48, 48, 16), (72, 72, 12),
    (96, 96, 12), (24, 48, 3), (48, 96, 3),
)
AUT_TAIL_LEADS = (5,) * 10 + (6,) * 2
AUT_TAIL_SEED = 20050

CORPUS_ORDER = 4
CORPUS_COUNTS = {"labelled": 3492, "up-to-iso": 188}  # OEIS A023814, A027851

ELAPSED = re.compile(r'^elapsed_seconds: .*$|"elapsed_seconds": [-+0-9.eE]+', re.M)


@dataclass
class Op:
    """One CLI call: its arguments, its stdin, and the check on its output.

    check(stdout, stderr) returns one message per wrong table.
    """

    argv: list[str]
    stdin: str
    tables: int
    check: Callable[[str, str], list[str]]


@dataclass
class Workload:
    name: str
    # Per-table latency is the gap between report records when stream is
    # true, and the time of the whole call otherwise.
    stream: bool
    plan: list = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    properties: dict = field(default_factory=dict)

    @property
    def tables(self) -> int:
        return sum(op.tables for op in self.ops) if self.ops else len(self.plan)


def stdout_digest(text: str) -> str:
    """Digest of an output with wall-clock fields masked."""
    return hashlib.sha256(ELAPSED.sub("elapsed_seconds: *", text).encode()).hexdigest()


@dataclass
class Table:
    """A planned input: the base, the fiber sizes, the id map, the oracle."""

    base: Rows
    sizes: tuple[int, ...]
    images: list[int]
    rows: Rows
    structure: Structure


def _plan_table(base: Rows, sizes: tuple[int, ...], images: list[int]) -> Table:
    rows = oracle.relabel(oracle.inflate(base, sizes), images)
    return Table(base, sizes, images, rows, Structure(rows))


def _ids_with_lead(rng: random.Random, rows: Rows, lead: int) -> list[int]:
    """Random ids that put `lead` non-products first, then every product.

    The automorphism search assigns images in id order and prunes a product
    x*y = z only once x, y and z all have images, so the non-product ids
    before the products set its cost.  Returns images[old id] = new id.
    """
    products = sorted({v for row in rows for v in row})
    others = [x for x in range(len(rows)) if x not in products]
    rng.shuffle(products)
    rng.shuffle(others)
    order = others[:lead] + products + others[lead:]  # order[new id] = old id
    images = [0] * len(order)
    for new, old in enumerate(order):
        images[old] = new
    return images


def plan_theorem(seed: int, bases: dict[int, list[Rows]]) -> list[Table]:
    rng = random.Random(seed)
    wanted = {tuple(shape) for *shape, _, _ in THEOREM_RECIPE} - THEOREM_PINNED.keys()
    pools: dict[tuple, list] = {shape: [pin] for shape, pin in THEOREM_PINNED.items()}
    for n in (1, 2, 3):
        for base in bases[n]:
            for total in THEOREM_ORDERS:
                for sizes in compositions(n, total):
                    s = Structure(oracle.inflate(base, sizes))
                    shape = (total, s.class_sizes, s.g_order, s.aut_order)
                    if shape in wanted:
                        pools.setdefault(shape, []).append((base, sizes))
    plan = []
    for *shape, lead, count in THEOREM_RECIPE:
        for base, sizes in rng.choices(pools[tuple(shape)], k=count):
            images = _ids_with_lead(rng, oracle.inflate(base, sizes), lead)
            plan.append(_plan_table(base, sizes, images))
    rng.shuffle(plan)
    return plan


def _aut_table(rng: random.Random, bases: list[Rows], lead: int, orders=None) -> Table:
    """A random inflation whose first `lead` ids are non-products.

    orders, when given, is the required (|G|, |Aut|).
    """
    while True:
        base = rng.choice(bases)
        sizes = rng.choice(AUT_SIZES)
        rows = oracle.inflate(base, sizes)
        g = math.prod(math.factorial(len(c)) for c in oracle.psi_classes(rows))
        if g > AUT_MAX_G or orders is not None and (
            g != orders[0] or Structure(rows).aut_order != orders[1]
        ):
            continue
        if len(rows) - len({v for row in rows for v in row}) >= lead:
            break
    return _plan_table(base, sizes, _ids_with_lead(rng, rows, lead))


def plan_aut(seed: int, bases: list[Rows]) -> list[Table]:
    rng = random.Random(seed)
    plan = []
    for g, aut, count in AUT_BULK:
        for _ in range(count):
            plan.append(_aut_table(rng, bases, len(plan) % 4, (g, aut)))
    tail_rng = random.Random(AUT_TAIL_SEED)
    plan.extend(_aut_table(tail_rng, bases, lead) for lead in AUT_TAIL_LEADS)
    rng.shuffle(plan)
    return plan


def _parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_theorem_text(table: Table, stdout: str) -> list[str]:
    s = table.structure
    expected = {
        "order": str(len(table.rows)),
        "psi_class_sizes": " ".join(map(str, s.class_sizes)),
        "aut_order": str(s.aut_order),
        "h_order": str(s.h_order),
        "g_order": str(s.g_order),
        "identity_holds": "true",
        "g_is_normal": "true",
        "intersection_trivial": "true",
        "factorization_unique": "true",
        "witnesses": "0",
    }
    got = _parse_report(stdout)
    bad = [f"{k}={got.get(k)!r}, expected {v!r}" for k, v in expected.items() if got.get(k) != v]
    return [f"verify-theorem: {', '.join(bad)}"] if bad else []


def check_aut_text(table: Table, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    expected = table.structure.aut_order
    if not lines or lines[0] != str(expected):
        return [f"aut: order line {lines[:1]!r}, expected {expected}"]
    perms = set()
    n = len(table.rows)
    for line in lines[1:]:
        if not line.startswith("p: "):
            return [f"aut: unexpected line {line!r}"]
        img = tuple(int(v) for v in line[3:].split())
        if sorted(img) != list(range(n)) or not oracle.is_automorphism(table.rows, img):
            return [f"aut: {img} is not an automorphism"]
        perms.add(img)
    if len(lines) - 1 != expected or len(perms) != expected:
        return [f"aut: {len(lines) - 1} lines, {len(perms)} distinct, expected {expected}"]
    return []


def check_corpus(mode: str, stdout: str, stderr: str) -> list[str]:
    """Every record right, and the records are exactly all tables or classes."""
    expected = CORPUS_COUNTS[mode]
    problems = []
    seen = set()
    for line in stdout.splitlines():
        record = json.loads(line)
        rows = oracle.parse_rows(record["table"])
        s = Structure(rows)
        key = rows if mode == "labelled" else oracle.canonical_form(rows)
        got = (record["aut_order"], record["h_order"], record["g_order"], record["witnesses"])
        flags = all(record[k] for k in (
            "identity_holds", "g_is_normal", "intersection_trivial", "factorization_unique"))
        if not oracle.is_associative(rows) or key in seen:
            problems.append(f"corpus: duplicate or non-associative table {rows}")
        elif got != (s.aut_order, s.h_order, s.g_order, {}) or not flags:
            problems.append(f"corpus: wrong report {got} for {rows}")
        seen.add(key)
    if len(seen) != expected:
        problems.append(f"corpus: {len(seen)} tables, expected {expected}")
    summary = _parse_report(stderr)
    if summary.get("tables_seen") != str(expected) or summary.get("theorem_failures") != "0":
        problems.append(f"corpus: summary {summary.get('tables_seen')!r} seen, "
                        f"{summary.get('theorem_failures')!r} failures")
    return problems


def build_ops(workload: Workload, finsemi) -> list[Op]:
    """Build the CLI calls of a workload with finsemi; this is the timed set-up."""
    if workload.name.startswith("corpus"):
        mode = "labelled" if workload.name == "corpus_labelled" else "up-to-iso"
        argv = ["corpus", "--order", str(CORPUS_ORDER), "--report", "-"]
        if mode != "labelled":
            argv += ["--mode", mode]
        return [Op(argv, "", CORPUS_COUNTS[mode], lambda out, err, m=mode: check_corpus(m, out, err))]
    command, check = (
        ("verify-theorem", check_theorem_text)
        if workload.name == "theorem_inflated"
        else ("aut", check_aut_text)
    )
    ops = []
    for t in workload.plan:
        spec = finsemi.FiberSizeSpec(finsemi.CayleyTable(t.base), t.sizes)
        table, _ = finsemi.inflation.build_inflation(spec)
        text = finsemi.format_table(finsemi.relabel_table(table, t.images))
        ops.append(Op([command, "-"], text, 1, lambda out, err, t=t, c=check: c(t, out)))
    return ops


def check_inputs(workload: Workload) -> list[str]:
    """The tables finsemi built must be the ones the oracle planned."""
    return [
        f"{workload.name}: finsemi built {op.stdin!r}, planned {oracle.format_rows(t.rows)!r}"
        for t, op in zip(workload.plan, workload.ops)
        if op.stdin != oracle.format_rows(t.rows)
    ]


def make(name: str, seed: int) -> Workload:
    """Plan a workload from its seed with the benchmark's own code (untimed)."""
    if name in ("corpus_labelled", "corpus_iso"):
        w = Workload(name, stream=True)
        w.properties = {"order": CORPUS_ORDER, "tables": CORPUS_COUNTS[
            "labelled" if name == "corpus_labelled" else "up-to-iso"]}
        return w
    if name == "theorem_inflated":
        bases = {n: oracle.semigroups_up_to_iso(n) for n in (1, 2, 3)}
        w = Workload(name, stream=False, plan=plan_theorem(seed, bases))
    elif name == "aut_rigid":
        w = Workload(name, stream=False, plan=plan_aut(seed, oracle.semigroups_up_to_iso(4)))
    else:
        raise KeyError(name)
    g = [t.structure.g_order for t in w.plan]
    w.properties = {
        "tables": len(w.plan),
        "orders": dict(sorted(Counter(len(t.rows) for t in w.plan).items())),
        "g_orders": dict(sorted(Counter(g).items())),
        "aut_orders": dict(sorted(Counter(t.structure.aut_order for t in w.plan).items())),
        "share_g_ge_100": sum(x >= 100 for x in g) / len(g),
    }
    return w


WORKLOADS = ("theorem_inflated", "aut_rigid", "corpus_labelled", "corpus_iso")
