"""Permutations, automorphism search, and subgroup checks.

Permutations act on the right: x under compose(p, q) is q applied to the
image under p.  Groups are stored as explicit element sets in lexicographic
order of image tuples, which is the canonical order everywhere (files,
reports, comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import CayleyTable
from .errors import MalformedInput, OrderTooLarge

DEFAULT_MAX_ORDER = 12


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of 0..n-1, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise MalformedInput("empty permutation")
        if sorted(images) != list(range(n)):
            raise MalformedInput(f"not a permutation of 0..{n - 1}: {images!r}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if p.degree != q.degree:
        raise MalformedInput(f"degree mismatch: {p.degree} vs {q.degree}")
    qi = q.images
    return Permutation(tuple(qi[v] for v in p.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation(tuple(inv))


class PermGroup:
    """Explicit set of permutations of one degree, canonically sorted."""

    __slots__ = ("degree", "elements", "_members")

    def __init__(self, degree: int, elements: Iterable[Permutation], *, validate: bool = False):
        elems = tuple(sorted(set(elements)))
        for p in elems:
            if p.degree != degree:
                raise MalformedInput(f"degree {p.degree} element in a degree {degree} group")
        self.degree = degree
        self.elements = elems
        self._members = frozenset(elems)
        if validate:
            problem = group_axiom_witness(self)
            if problem is not None:
                raise MalformedInput(f"not a group: {problem}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return p in self._members

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={len(self.elements)})"


def group_axiom_witness(g: PermGroup) -> str | None:
    """None when g contains the identity and is closed under * and inverse."""
    if identity(g.degree) not in g:
        return "missing identity"
    for p in g:
        if inverse(p) not in g:
            return f"missing inverse of {p.images}"
        for q in g:
            if compose(p, q) not in g:
                return f"not closed at {p.images} * {q.images}"
    return None


def automorphism_witness(table: CayleyTable, p: Permutation) -> tuple[int, int] | None:
    """None when p preserves the product, else the least failing pair (x, y)."""
    if p.degree != table.order:
        raise MalformedInput(f"degree {p.degree} permutation on an order {table.order} table")
    rows = table.rows
    img = p.images
    for x in range(table.order):
        rx = rows[x]
        ix = img[x]
        for y in range(table.order):
            if img[rx[y]] != rows[ix][img[y]]:
                return (x, y)
    return None


def is_automorphism(table: CayleyTable, p: Permutation) -> bool:
    return automorphism_witness(table, p) is None


def enumerate_automorphisms(table: CayleyTable, *, max_order: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """All automorphisms, by backtracking over images in id order.

    A product x*y = z is checked as soon as the images of x, y and z are all
    assigned, so each triple prunes at the deepest of its three ids.
    """
    n = table.order
    if n > max_order:
        raise OrderTooLarge("table order", n, max_order)
    rows = table.rows
    # bucket[k] holds the triples whose last-assigned id is k
    bucket: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            z = rows[x][y]
            bucket[max(x, y, z)].append((x, y, z))

    img = [-1] * n
    used = [False] * n
    found: list[Permutation] = []

    def assign(k: int) -> None:
        if k == n:
            found.append(Permutation(tuple(img)))
            return
        for v in range(n):
            if used[v]:
                continue
            img[k] = v
            ok = True
            for x, y, z in bucket[k]:
                if rows[img[x]][img[y]] != img[z]:
                    ok = False
                    break
            if ok:
                used[v] = True
                assign(k + 1)
                used[v] = False
        img[k] = -1

    assign(0)
    return PermGroup(n, found)


@dataclass(frozen=True)
class SubgroupReport:
    """Outcome of subgroup and normality tests, with a witness on failure."""

    is_subgroup: bool
    is_normal: bool
    witness: tuple | None = None


def subgroup_checks(g: PermGroup, parent: PermGroup) -> SubgroupReport:
    """Check g <= parent and whether parent conjugation keeps g inside itself."""
    if g.degree != parent.degree:
        raise MalformedInput(f"degree mismatch: {g.degree} vs {parent.degree}")
    if len(g) == 0 or identity(g.degree) not in g:
        return SubgroupReport(False, False, ("missing-identity",))
    for p in g:
        if p not in parent:
            return SubgroupReport(False, False, ("not-in-parent", p))
        for q in g:
            if compose(p, q) not in g:
                return SubgroupReport(False, False, ("not-closed", p, q))
    for p in parent:
        pinv = inverse(p)
        for x in g:
            if compose(compose(pinv, x), p) not in g:
                return SubgroupReport(True, False, ("not-normal", p, x))
    return SubgroupReport(True, True, None)
