"""Permutations, automorphism search, and subgroup checks.

Permutations act on the right: x under compose(p, q) is q applied to the
image under p.  Groups are stored as explicit element sets in lexicographic
order of image tuples, which is the canonical order everywhere (files,
reports, comparisons), and are keyed by those tuples.

There is one automorphism search, _automorphism_chain.  It colours each id
by two invariants every automorphism of a magma keeps, membership in the
product set and x*x == x, maps ids only onto ids of their own colour, and
finds a stabilizer chain (base, orbits, Schreier vectors, strong
generators).  The chain gives |Aut| as the product of the orbit lengths;
enumerate_automorphisms lists the group by expanding the chain.  Every
search stops after max_nodes nodes, and _Chain.elements, the only listing,
refuses more than DEFAULT_MAX_GROUP_ORDER elements before it builds any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import CayleyTable
from .errors import MalformedInput, OrderTooLarge

DEFAULT_MAX_ORDER = 12
DEFAULT_MAX_GROUP_ORDER = 10**5
DEFAULT_MAX_SEARCH = 10**8


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

    def __init__(self, degree: int, elements: Iterable[Permutation]):
        by_images = {p.images: p for p in elements}
        for images in by_images:
            if len(images) != degree:
                raise MalformedInput(f"degree {len(images)} element in a degree {degree} group")
        self.degree = degree
        self.elements = tuple(by_images[images] for images in sorted(by_images))
        self._members = frozenset(by_images)

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


def _plan(
    table: CayleyTable, colours: list
) -> tuple[list[int], list[list[int]], list[list[tuple[int, int, int]]]]:
    """Search order, candidate cell per position, and triple bucket per position.

    This is the set-up of _automorphism_chain.  Ids are grouped into cells
    of equal colour, smallest cell first with ties broken by least id, and
    in id order within a cell; each position tries only the ids of its own
    cell.  bucket[k] holds the triples
    (x, y, x*y) whose deepest id sits at search position k, so each product
    is checked as soon as the images of its three ids are all assigned.
    """
    n = table.order
    rows = table.rows
    by_colour: dict = {}
    for x, colour in enumerate(colours):
        by_colour.setdefault(colour, []).append(x)
    # sorted() is stable, so equal-sized cells keep the order of their least ids
    cells = sorted(by_colour.values(), key=len)
    order = [x for cell in cells for x in cell]
    candidates = [cell for cell in cells for _ in cell]
    position = [0] * n
    for k, x in enumerate(order):
        position[x] = k
    bucket: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        row, px = rows[x], position[x]
        for y in range(n):
            z = row[y]
            py, pz = position[y], position[z]
            k = px if px > py else py
            bucket[k if k > pz else pz].append((x, y, z))
    return order, candidates, bucket


def _schreier(
    n: int, point: int, generators: Sequence[tuple[int, ...]]
) -> tuple[list[int | None], list[int]]:
    """Schreier vector and orbit of point in 0..n-1 under the generators.

    vector[x] is the index of the generator that first reached x, -1 at
    point itself and None outside the orbit.
    """
    vector: list[int | None] = [None] * n
    vector[point] = -1
    orbit = [point]
    for y in orbit:
        for i, g in enumerate(generators):
            z = g[y]
            if vector[z] is None:
                vector[z] = i
                orbit.append(z)
    return vector, orbit


class _Chain(NamedTuple):
    """A stabilizer chain of Aut: base, orbits, Schreier vectors, strong generators.

    A generator of level k fixes base[0..k-1] and moves base[k].  orbits[k]
    is the orbit of base[k] under the generators of level >= k, which
    generate the pointwise stabilizer of base[0..k-1], and vectors[k] is
    its Schreier vector (see _schreier).  The base holds every id.
    """

    base: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[int | None, ...], ...]
    nodes: int

    @property
    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self.orbits)

    def sift(self, images: tuple[int, ...]) -> bool:
        """True when images is a product of the strong generators.

        At each level the image of the base point is walked back to it along
        the Schreier vector, dividing by one generator (inverted once) per step.
        """
        g = list(images)
        inverses: dict[int, list[int]] = {}
        for b, vector in zip(self.base, self.vectors):
            while g[b] != b:
                i = vector[g[b]]
                if i is None:
                    return False
                if i not in inverses:  # sorting the ids by their image inverts
                    inverses[i] = sorted(range(len(g)), key=self.generators[i].__getitem__)
                g = [inverses[i][v] for v in g]
        # every id is a base point, so g is now the identity
        return True

    def elements(self) -> list[Permutation]:
        """Every element of the group, expanded from the Schreier vectors.

        The coset representative of orbit point z at level k is that of the
        point z was reached from, g.index(z) for the generator g at
        vectors[k][z], followed by g.  The stabilizer of base[0..k-1] is the
        stabilizer of base[0..k] followed by each representative of level k,
        so the group is built from the identity, deepest level first.
        """
        if self.order > DEFAULT_MAX_GROUP_ORDER:
            raise OrderTooLarge("automorphism group order", self.order, DEFAULT_MAX_GROUP_ORDER)
        n = len(self.base)
        group = [tuple(range(n))]
        for orbit, vector in zip(reversed(self.orbits), reversed(self.vectors)):
            reps = {orbit[0]: tuple(range(n))}
            for z in orbit[1:]:
                g = self.generators[vector[z]]
                reps[z] = tuple([g[v] for v in reps[g.index(z)]])
            group = [tuple([t[v] for v in h]) for h in group for t in reps.values()]
        return [Permutation._unchecked(images) for images in group]


def _automorphism_chain(
    table: CayleyTable,
    extra: Sequence | None = None,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_nodes: int = DEFAULT_MAX_SEARCH,
) -> _Chain:
    """Stabilizer chain of Aut(table) by an orbit-pruned backtracking search.

    The base is the search order of _plan; extra, when given, is one more
    colour per id that the automorphisms must keep.  Level k, deepest
    first, fixes base[0..k-1] and, for each id v of base[k]'s cell outside
    the orbit found so far, searches for one automorphism that maps base[k]
    to v and keeps the first it finds as a strong generator: Sims's
    stabilizer chain, built by search and pruned by the orbits of the
    generators already known (compare McKay and Piperno, Practical graph
    isomorphism II, 2014).  The subtrees tried are disjoint, so the search
    never visits more nodes than a backtracking search that lists every
    automorphism.  Each visited node counts against max_nodes.
    """
    n = table.order
    if n > max_order:
        raise OrderTooLarge("table order", n, max_order)
    colours = _colours(table)
    if extra is not None:
        colours = [c + (e,) for c, e in zip(colours, extra)]
    rows = table.rows
    order, candidates, bucket = _plan(table, colours)
    # every id starts fixed; level k frees base[k] before it searches
    img = list(range(n))
    used = [True] * n
    nodes = 0

    def first_leaf(k: int, cands) -> bool:
        """Assign position k from cands and the rest from their cells; True at a leaf."""
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise OrderTooLarge("search nodes", nodes, max_nodes)
        x = order[k]
        for v in cands:
            if used[v]:
                continue
            img[x] = v
            for a, b, c in bucket[k]:
                if rows[img[a]][img[b]] != img[c]:
                    break
            else:
                used[v] = True
                if k + 1 == n or first_leaf(k + 1, candidates[k + 1]):
                    return True
                used[v] = False
        img[x] = -1
        return False

    generators: list[tuple[int, ...]] = []
    orbits: list[tuple[int, ...]] = [()] * n
    vectors: list[tuple[int | None, ...]] = [()] * n
    for k in range(n - 1, -1, -1):
        b = order[k]
        img[b] = -1
        used[b] = False
        vector, orbit = _schreier(n, b, generators)
        for v in candidates[k]:
            if used[v] or vector[v] is not None:
                continue
            if first_leaf(k, (v,)):
                generators.append(tuple(img))
                for x in order[k:]:
                    used[img[x]] = False
                    img[x] = -1
                vector, orbit = _schreier(n, b, generators)
        orbits[k] = tuple(orbit)
        vectors[k] = tuple(vector)
    return _Chain(tuple(order), tuple(generators), tuple(orbits), tuple(vectors), nodes)


def enumerate_automorphisms(table: CayleyTable, *, max_order: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """All automorphisms, expanded from the stabilizer chain (see _Chain.elements).

    OrderTooLarge past DEFAULT_MAX_SEARCH search nodes or DEFAULT_MAX_GROUP_ORDER elements.
    """
    return PermGroup(table.order, _automorphism_chain(table, max_order=max_order).elements())


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
