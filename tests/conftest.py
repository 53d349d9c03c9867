from __future__ import annotations

import random

import pytest

from finsemi import EnumerationTask, FiberSizeSpec, build_inflation, enumerate_semigroups
from support import non_products_first


@pytest.fixture(scope="session")
def corpus_by_order() -> dict[int, list]:
    """Every labelled semigroup table of orders 1 through 4, enumerated once."""
    return {n: list(enumerate_semigroups(EnumerationTask(n))) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def inflations_non_products_first(corpus_by_order) -> list:
    """16 seeded inflations of order-2 and -3 bases, order at most 7, non-products first."""
    rng = random.Random(4200)
    bases = corpus_by_order[2] + corpus_by_order[3]
    tables = []
    for _ in range(16):
        base = rng.choice(bases)
        sizes = [1] * base.order
        for _ in range(rng.randint(1, 7 - base.order)):
            sizes[rng.randrange(base.order)] += 1
        inflated, _ = build_inflation(FiberSizeSpec(base, tuple(sizes)))
        tables.append(non_products_first(inflated.rows, rng))
    return tables
