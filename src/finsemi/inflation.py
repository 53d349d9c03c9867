"""Transversals, retractions, and inflation construction/verification.

An inflation presents a semigroup as a base subsemigroup plus fibers glued
over it: a retraction theta picks the base point of every element and the
product of x and y is defined as theta(x)*theta(y).  Given any table, the
psi partition plus a transversal through it yields such a retraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Sequence

from .core import (
    CayleyTable,
    Partition,
    _first_non_id,
    _read_ids,
    data_lines,
    format_table,
    refuse_non_associative,
    table_from_lines,
)
from .errors import MalformedInput, NotClosed, OrderTooLarge

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
        if _first_non_id(reps, self.order) >= 0 or reps != tuple(sorted(set(reps))):
            raise MalformedInput(f"representatives {reps!r} must increase in 0..{self.order - 1}")

    @classmethod
    def _unchecked(cls, order: int, representatives: tuple[int, ...]) -> "Transversal":
        """Wrap sorted distinct ids in 0..order-1, skipping validation."""
        t = object.__new__(cls)
        object.__setattr__(t, "order", order)
        object.__setattr__(t, "representatives", representatives)
        return t


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
        x = _first_non_id(theta, self.transversal.order)
        if x >= 0:
            raise MalformedInput(f"theta({x}) = {theta[x]!r} is not a representative")
        reps = set(self.transversal.representatives)
        for x, v in enumerate(theta):
            if v not in reps:
                raise MalformedInput(f"theta({x}) = {v} is not a representative")
        for t in self.transversal.representatives:
            if theta[t] != t:
                raise MalformedInput(f"theta moves the representative {t}")

    @classmethod
    def _unchecked(cls, theta: tuple[int, ...], transversal: Transversal) -> "RetractionMap":
        """Wrap a theta known to send every id onto a representative it fixes."""
        r = object.__new__(cls)
        object.__setattr__(r, "theta", theta)
        object.__setattr__(r, "transversal", transversal)
        return r


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
    # one id from each block: distinct and in range
    return Transversal._unchecked(psi.order, tuple(sorted(reps)))


def _rep_of_block(psi: Partition, t: Transversal) -> list[int]:
    """The representative of each block of psi; MalformedInput unless t holds one per block."""
    if psi.order != t.order:
        raise MalformedInput("partition and transversal orders differ")
    reps = [-1] * len(psi.blocks)
    for rep in t.representatives:
        b = psi.block_of[rep]
        if reps[b] != -1:
            raise MalformedInput(f"two representatives in one block: {reps[b]}, {rep}")
        reps[b] = rep
    if -1 in reps:
        raise MalformedInput("a block has no representative")
    return reps


def induced_retraction(psi: Partition, t: Transversal) -> RetractionMap:
    """Send every id to its block's representative."""
    reps = _rep_of_block(psi, t)
    # theta lands on the representatives, and each one is in its own block
    return RetractionMap._unchecked(tuple([reps[b] for b in psi.block_of]), t)


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
    theta, rows, n = r.theta, table.rows, table.order
    for x in range(n):
        if theta[theta[x]] != theta[x]:
            return InflationWitness("idempotent", (x,))
    # theta is idempotent, so its image is the ids it fixes
    image = sorted(set(theta))
    for a in image:
        ra = rows[a]
        for b in image:
            if theta[ra[b]] != ra[b]:
                return InflationWitness("image-closed", (a, b))
    # Row theta(a) read at theta against row a, read whole by itemgetter; over one
    # index it returns the entry itself, so then a one-wide slice reads a 1-tuple.
    at_theta = itemgetter(*theta) if n > 1 else itemgetter(slice(0, 1))
    for a, ra in enumerate(rows):
        rt = rows[theta[a]]
        if at_theta(rt) != ra:
            b = next(b for b in range(n) if rt[theta[b]] != ra[b])
            return InflationWitness("product", (a, b))
    return None


def verify_kernel_in_h(r: RetractionMap, h: Partition) -> tuple[int, int] | None:
    """Least pair identified by theta but not h-related, or None."""
    if len(r.theta) != h.order:
        raise MalformedInput("retraction and partition orders differ")
    theta, block_of = r.theta, h.block_of
    if len(set(zip(theta, block_of))) == len(set(theta)):  # no fibre meets two blocks
        return None
    # In a fibre of theta with least id a, a failing pair (c, d) has c or d outside
    # a's h block, so (a, that id) fails and is no larger: the fibre's least failing
    # pair is a and the first id after it in another block.  The least over fibres wins.
    least: dict[int, int] = {}
    pairs: dict[int, tuple[int, int]] = {}
    for b, t in enumerate(theta):
        a = least.setdefault(t, b)
        if t not in pairs and block_of[a] != block_of[b]:
            pairs[t] = (a, b)
    return min(pairs.values())


def restrict_to_subsemigroup(
    table: CayleyTable, subset: Sequence[int]
) -> tuple[CayleyTable, tuple[int, ...]]:
    """Table induced on a closed subset, ids renumbered in increasing order.

    Returns the new table and the original id of each new id.  Raises
    NotClosed with the least escaping pair when the subset is not closed.
    """
    subset = tuple(subset)
    if not subset or _first_non_id(subset, table.order) >= 0:
        raise MalformedInput(f"subset {subset!r} is empty or not within 0..{table.order - 1}")
    old_ids = tuple(sorted(set(subset)))
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
    """Parse the base table followed by one `sizes:` line; the base must be associative."""
    spec = _read_fiber_spec(text)
    refuse_non_associative(spec.base)
    return spec


def _read_fiber_spec(text: str) -> FiberSizeSpec:
    """parse_fiber_spec without the associativity scan of the base."""
    lines = data_lines(text)
    base, used = table_from_lines(lines)
    rest = lines[used:]
    if len(rest) != 1 or not rest[0].startswith("sizes:"):
        raise MalformedInput("expected exactly one `sizes:` line after the table")
    try:
        sizes = _read_ids(rest[0][len("sizes:"):].split())
    except ValueError:
        raise MalformedInput(f"non-integer fiber size in {rest[0]!r}") from None
    return FiberSizeSpec(base, sizes)


def format_fiber_spec(spec: FiberSizeSpec) -> str:
    return format_table(spec.base) + "sizes: " + " ".join(map(str, spec.sizes)) + "\n"
