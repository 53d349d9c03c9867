"""Transversals, retractions, and inflation construction/verification.

An inflation presents a semigroup as a base subsemigroup plus fibers glued
over it: a retraction theta picks the base point of every element and the
product of x and y is defined as theta(x)*theta(y).  Given any table, the
psi partition plus a transversal through it yields such a retraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    CayleyTable,
    Partition,
    check_associativity,
    data_lines,
    format_table,
    table_from_lines,
)
from .errors import MalformedInput, NotAssociative, NotClosed, OrderTooLarge

POLICIES = ("least", "greatest", "seeded")
DEFAULT_MAX_INFLATION_ORDER = 12


@dataclass(frozen=True)
class Transversal:
    """One representative id per partition block, kept sorted."""

    order: int
    representatives: tuple[int, ...]

    def __post_init__(self):
        reps = tuple(self.representatives)
        object.__setattr__(self, "representatives", reps)
        if len(set(reps)) != len(reps):
            raise MalformedInput("repeated representative")
        if list(reps) != sorted(reps):
            raise MalformedInput("representatives must be sorted")
        for t in reps:
            if not 0 <= t < self.order:
                raise MalformedInput(f"representative {t} outside 0..{self.order - 1}")


@dataclass(frozen=True)
class RetractionMap:
    """Idempotent map onto a transversal, one value per id."""

    theta: tuple[int, ...]
    transversal: Transversal

    def __post_init__(self):
        theta = tuple(self.theta)
        object.__setattr__(self, "theta", theta)
        if len(theta) != self.transversal.order:
            raise MalformedInput("theta length differs from the ambient order")
        reps = set(self.transversal.representatives)
        for x, v in enumerate(theta):
            if v not in reps:
                raise MalformedInput(f"theta({x}) = {v} is not a representative")
        for t in self.transversal.representatives:
            if theta[t] != t:
                raise MalformedInput(f"theta moves the representative {t}")


class InflationWitness(NamedTuple):
    """Failed inflation axiom plus the elements exhibiting the failure."""

    axiom: str  # "idempotent", "image-closed" or "product"
    elements: tuple[int, ...]


@dataclass(frozen=True)
class FiberSizeSpec:
    """Base table plus the intended fiber size over each base element."""

    base: CayleyTable
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) != self.base.order:
            raise MalformedInput(
                f"{len(sizes)} sizes for an order {self.base.order} base"
            )
        for a, s in enumerate(sizes):
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise MalformedInput(f"fiber size over {a} must be a positive int, got {s!r}")

    @property
    def total_order(self) -> int:
        return sum(self.sizes)


def choose_transversal(psi: Partition, policy: str = "least", seed: int | None = None) -> Transversal:
    """Pick one representative per block: least, greatest, or seeded at random."""
    if policy not in POLICIES:
        raise MalformedInput(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if policy == "least":
        reps = [b[0] for b in psi.blocks]
    elif policy == "greatest":
        reps = [b[-1] for b in psi.blocks]
    else:
        rng = random.Random(0 if seed is None else seed)
        reps = [rng.choice(b) for b in psi.blocks]
    return Transversal(psi.order, tuple(sorted(reps)))


def induced_retraction(psi: Partition, t: Transversal) -> RetractionMap:
    """Send every id to its block's representative."""
    if psi.order != t.order:
        raise MalformedInput("partition and transversal orders differ")
    rep_of_block = [-1] * len(psi.blocks)
    for rep in t.representatives:
        b = psi.block_of[rep]
        if rep_of_block[b] != -1:
            raise MalformedInput(f"two representatives in one block: {rep_of_block[b]}, {rep}")
        rep_of_block[b] = rep
    if -1 in rep_of_block:
        raise MalformedInput("a block has no representative")
    theta = tuple(rep_of_block[psi.block_of[x]] for x in range(psi.order))
    return RetractionMap(theta, t)


def retraction_from_theta(theta: Sequence[int]) -> RetractionMap:
    """Wrap a raw idempotent map; its image becomes the transversal."""
    reps = tuple(sorted(set(theta)))
    return RetractionMap(tuple(theta), Transversal(len(theta), reps))


def verify_inflation(table: CayleyTable, r: RetractionMap) -> InflationWitness | None:
    """Check the three axioms; None when table is an inflation along r.

    In axiom order: theta is idempotent, its image is closed under the
    product, and theta(a)*theta(b) = a*b throughout.  The least witness of
    the first broken axiom is returned.
    """
    if len(r.theta) != table.order:
        raise MalformedInput("retraction and table orders differ")
    theta = r.theta
    rows = table.rows
    n = table.order
    for x in range(n):
        if theta[theta[x]] != theta[x]:
            return InflationWitness("idempotent", (x,))
    image = sorted(set(theta))
    members = set(image)
    for a in image:
        for b in image:
            if rows[a][b] not in members:
                return InflationWitness("image-closed", (a, b))
    for a in range(n):
        ta = theta[a]
        for b in range(n):
            if rows[ta][theta[b]] != rows[a][b]:
                return InflationWitness("product", (a, b))
    return None


def verify_kernel_in_h(r: RetractionMap, h: Partition) -> tuple[int, int] | None:
    """Least pair identified by theta but not h-related, or None."""
    if len(r.theta) != h.order:
        raise MalformedInput("retraction and partition orders differ")
    theta = r.theta
    n = h.order
    for a in range(n):
        for b in range(a + 1, n):
            if theta[a] == theta[b] and h.block_of[a] != h.block_of[b]:
                return (a, b)
    return None


def restrict_to_subsemigroup(
    table: CayleyTable, subset: Sequence[int]
) -> tuple[CayleyTable, tuple[int, ...]]:
    """Table induced on a closed subset, ids renumbered in increasing order.

    Returns the new table and the original id of each new id.  Raises
    NotClosed with the least escaping pair when the subset is not closed.
    """
    old_ids = tuple(sorted(set(subset)))
    if not old_ids:
        raise MalformedInput("empty subset")
    for x in old_ids:
        if not 0 <= x < table.order:
            raise MalformedInput(f"subset element {x} outside 0..{table.order - 1}")
    members = set(old_ids)
    new_of = {old: new for new, old in enumerate(old_ids)}
    rows = table.rows
    for a in old_ids:
        for b in old_ids:
            if rows[a][b] not in members:
                raise NotClosed((a, b))
    sub = CayleyTable._unchecked(
        tuple(tuple([new_of[rows[a][b]] for b in old_ids]) for a in old_ids)
    )
    return sub, old_ids


def build_inflation(
    spec: FiberSizeSpec, *, max_order: int = DEFAULT_MAX_INFLATION_ORDER
) -> tuple[CayleyTable, RetractionMap]:
    """Inflate a base table by the given fiber sizes.

    Base elements keep their ids; fresh fiber ids follow, grouped by base
    element in increasing order.  Every product is computed through the
    base, so row x of the result is row theta(x) of the base stretched to
    the new width.
    """
    total = spec.total_order
    if total > max_order:
        raise OrderTooLarge("inflated order", total, max_order)
    base = spec.base
    theta = list(range(base.order))
    for a in range(base.order):
        theta.extend([a] * (spec.sizes[a] - 1))
    rows = [[base.rows[theta[x]][theta[y]] for y in range(total)] for x in range(total)]
    table = CayleyTable(rows)
    return table, retraction_from_theta(theta)


def parse_fiber_spec(text: str) -> FiberSizeSpec:
    """Parse the base table followed by one `sizes:` line."""
    lines = data_lines(text)
    base, used = table_from_lines(lines)
    bad = check_associativity(base)
    if bad is not None:
        raise NotAssociative(bad)
    rest = lines[used:]
    if len(rest) != 1 or not rest[0].startswith("sizes:"):
        raise MalformedInput("expected exactly one `sizes:` line after the table")
    try:
        sizes = tuple(int(tok) for tok in rest[0][len("sizes:"):].split())
    except ValueError:
        raise MalformedInput(f"non-integer fiber size in {rest[0]!r}") from None
    return FiberSizeSpec(base, sizes)


def format_fiber_spec(spec: FiberSizeSpec) -> str:
    return format_table(spec.base) + "sizes: " + " ".join(map(str, spec.sizes)) + "\n"
