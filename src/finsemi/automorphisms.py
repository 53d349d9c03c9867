"""Permutations, automorphism search, and subgroup checks.

Permutations act on the right: x under compose(p, q) is q applied to the
image under p.  Groups are stored as explicit element sets in lexicographic
order of image tuples, which is the canonical order everywhere (files,
reports, comparisons), and are keyed by those tuples.

The automorphism search colours each id by two invariants every
automorphism of a magma keeps, membership in the product set and x*x == x,
and maps ids only onto ids of their own colour.
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

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images known to be a bijection of 0..n-1, skipping validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

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
    return Permutation._unchecked(tuple([qi[v] for v in p.images]))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation._unchecked(tuple(inv))


class PermGroup:
    """Explicit set of permutations of one degree, sorted by image tuple.

    Duplicates, sorting and membership all go by the image tuples, so no
    Permutation is hashed or compared.
    """

    __slots__ = ("degree", "elements", "_members")

    def __init__(self, degree: int, elements: Iterable[Permutation], *, validate: bool = False):
        by_images = {p.images: p for p in elements}
        for images in by_images:
            if len(images) != degree:
                raise MalformedInput(f"degree {len(images)} element in a degree {degree} group")
        self.degree = degree
        self.elements = tuple(by_images[images] for images in sorted(by_images))
        self._members = frozenset(by_images)
        if validate:
            problem = group_axiom_witness(self)
            if problem is not None:
                raise MalformedInput(f"not a group: {problem}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, Permutation) and p.images in self._members

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


def _colours(table: CayleyTable) -> list[tuple[bool, bool]]:
    """Per id: (is a product, is idempotent); every automorphism keeps both."""
    rows = table.rows
    products = {v for row in rows for v in row}
    return [(x in products, rows[x][x] == x) for x in range(table.order)]


def enumerate_automorphisms(table: CayleyTable, *, max_order: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """All automorphisms, by backtracking over the images of one id at a time.

    Each id tries only the unused ids of its own colour (see _colours).  Ids
    are assigned cell by cell, smallest colour cell first with ties broken
    by least id, and in id order within a cell.  A product x*y = z is
    checked as soon as the images of x, y and z are all assigned, so each
    triple prunes at the deepest search position of its three ids.
    """
    n = table.order
    if n > max_order:
        raise OrderTooLarge("table order", n, max_order)
    rows = table.rows
    by_colour: dict[tuple[bool, bool], list[int]] = {}
    for x, colour in enumerate(_colours(table)):
        by_colour.setdefault(colour, []).append(x)
    # sorted() is stable, so equal-sized cells keep the order of their least ids
    cells = sorted(by_colour.values(), key=len)
    order = [x for cell in cells for x in cell]
    candidates = [cell for cell in cells for _ in cell]
    position = [0] * n
    for k, x in enumerate(order):
        position[x] = k
    # bucket[k] holds the triples whose deepest id sits at search position k
    bucket: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        row, px = rows[x], position[x]
        for y in range(n):
            z = row[y]
            k = max(px, position[y], position[z])
            bucket[k].append((x, y, z))

    img = [-1] * n
    used = [False] * n
    found: list[Permutation] = []

    def assign(k: int) -> None:
        if k == n:
            found.append(Permutation._unchecked(tuple(img)))
            return
        x = order[k]
        for v in candidates[k]:
            if used[v]:
                continue
            img[x] = v
            for a, b, c in bucket[k]:
                if rows[img[a]][img[b]] != img[c]:
                    break
            else:
                used[v] = True
                assign(k + 1)
                used[v] = False
        img[x] = -1

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
