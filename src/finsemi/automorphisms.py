"""Permutations, automorphism search, and subgroup checks.

Permutations act on the right: x under compose(p, q) is q applied to the
image under p.  Groups are stored as explicit element sets in lexicographic
order of image tuples, which is the canonical order everywhere (files,
reports, comparisons), and are keyed by those tuples.

There is one automorphism search, _automorphism_chain.  It colours each id
by two invariants every automorphism of a magma keeps, membership in the
product set and x*x == x, plus one extra colour when the caller gives it
(verify_theorem's h-class sizes and psi-class sizes), maps ids only onto
ids of their own colour, and finds a stabilizer chain (base, strong
generators, and at each level the length of its base point's orbit),
reading the orbits off one union-find forest that each generator joins.
Automorphisms the caller has checked, such as verify_theorem's class
transpositions, enter as seeds, strong generators known before their
level searches.  The chain gives |Aut| as the product of the orbit
lengths; enumerate_automorphisms lists the group by multiplying coset
representatives regrown one level at a time.  Every search stops after
max_nodes nodes, and _Chain.elements, the only listing, refuses more than
DEFAULT_MAX_GROUP_ORDER elements before it builds any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import CayleyTable, _is_arrangement, product_set
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
        if not _is_arrangement(images, n):
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
    # Row x of the table mapped by p against row p(x) read at the images, both read
    # whole by itemgetter (entry itself, not a 1-tuple, on both sides when n = 1).
    at = itemgetter(*img)
    for x, rx in enumerate(rows):
        target = rows[img[x]]
        if itemgetter(*rx)(img) != at(target):
            return (x, next(y for y, v in enumerate(rx) if img[v] != target[img[y]]))
    return None


def is_automorphism(table: CayleyTable, p: Permutation) -> bool:
    return automorphism_witness(table, p) is None


def _plan(table: CayleyTable, extra: Sequence | None) -> tuple[list[int], list]:
    """Search order and the candidate cell of each position.

    This is the set-up of _automorphism_chain.  Each id is coloured by two
    invariants every automorphism keeps, (is a product, is idempotent),
    and by its entry of extra when given.  Ids are grouped into cells of
    equal colour, smallest cell first with ties broken by least id, and in
    id order within a cell; each position tries only the ids of its own
    cell.
    """
    rows, products = table.rows, product_set(table)
    by_colour: dict = {}
    for x, e in enumerate(extra if extra is not None else [None] * table.order):
        by_colour.setdefault((x in products, rows[x][x] == x, e), []).append(x)
    # sorted() is stable, so equal-sized cells keep the order of their least ids
    order, candidates = [], []
    for cell in sorted(by_colour.values(), key=len):
        order += cell
        candidates += [cell] * len(cell)
    return order, candidates


def _buckets(rows: Sequence[Sequence[int]], order: list[int]) -> list[list[tuple[int, int, int]]]:
    """Per search position, the triples (x, y, x*y) whose deepest id sits there.

    So each product is checked once the images of its three ids are assigned.
    """
    n = len(order)
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
    return bucket


class _Chain(NamedTuple):
    """A stabilizer chain of Aut: base, strong generators, basic orbit lengths.

    A generator of level k fixes base[0..k-1] and moves base[k].  The
    generators of level >= k generate the pointwise stabilizer of
    base[0..k-1], and lengths[k] is the length of the orbit of base[k]
    under them.  The base holds every id.  No orbit point or coset
    representative is kept: elements regrows the representatives one
    level at a time.
    """

    base: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    nodes: int

    @property
    def order(self) -> int:
        return math.prod(self.lengths)

    def elements(self) -> list[Permutation]:
        """Every element of the group, expanded from regrown coset representatives.

        The stabilizer of base[0..k-1] is the stabilizer of base[0..k]
        followed by each coset representative of level k, so the group is
        built from the identity, deepest level first, with the
        representatives of one level alive at a time, grown breadth first
        from the identity under the generators of level >= k.
        """
        if self.order > DEFAULT_MAX_GROUP_ORDER:
            raise OrderTooLarge("automorphism group order", self.order, DEFAULT_MAX_GROUP_ORDER)
        base, ident = self.base, tuple(range(len(self.base)))
        levels = [next(k for k, b in enumerate(base) if g[b] != b) for g in self.generators]
        group = [ident]
        for k in range(len(base) - 1, -1, -1):
            fixing = [g for g, level in zip(self.generators, levels) if level >= k]
            reps, orbit = {base[k]: ident}, [base[k]]
            for y in orbit:
                for g in fixing:
                    if g[y] not in reps:
                        reps[g[y]] = tuple([g[v] for v in reps[y]])
                        orbit.append(g[y])
            group = [tuple([t[v] for v in h]) for h in group for t in reps.values()]
        return [Permutation._unchecked(images) for images in group]


def check_table_order(n: int, max_order: int = DEFAULT_MAX_ORDER):
    """Raise OrderTooLarge when a table of order n is over the search cap."""
    if n > max_order:
        raise OrderTooLarge("table order", n, max_order)


def _automorphism_chain(
    table: CayleyTable,
    extra: Sequence | None = None,
    *,
    seeds: Sequence[tuple[int, ...]] = (),
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
    automorphism.  Each visited node counts against max_nodes, its only cap.

    seeds, automorphisms the caller has checked, join the generators of
    the level of the first base point each moves before that level
    searches, and prune like found ones.  The n^2 triple buckets are built
    when a level first searches, so a chain the seeds complete needs none.
    The orbits are the trees of one union-find forest over the ids, which
    each generator joins as it becomes one: levels run deepest first and
    seeds join at their own level, so base[k]'s tree is its basic orbit.
    """
    n = table.order
    rows = table.rows
    order, candidates = _plan(table, extra)
    seeded: dict[int, list[tuple[int, ...]]] = {}
    for g in seeds:
        seeded.setdefault(next(k for k, b in enumerate(order) if g[b] != b), []).append(g)
    bucket: list = []
    # every id starts fixed; level k frees base[k] before it searches
    img = list(range(n))
    used = [True] * n
    nodes = 0

    def first_leaf(k: int, v: int) -> bool:
        """Map base[k] to v and each later position into its cell; True at a leaf.

        pending holds one candidate iterator per position entered, so the
        depth of the search is not bounded by Python's recursion limit.
        """
        nonlocal nodes
        pending = [iter((v,))]
        nodes += 1  # a node per position entered
        while pending:
            if nodes > max_nodes:
                raise OrderTooLarge("search nodes", nodes, max_nodes)
            j = k + len(pending) - 1
            x = order[j]
            for v in pending[-1]:
                if used[v]:
                    continue
                img[x] = v
                for a, b, c in bucket[j]:
                    if rows[img[a]][img[b]] != img[c]:
                        break
                else:
                    used[v] = True
                    if j + 1 == n:
                        return True
                    nodes += 1
                    pending.append(iter(candidates[j + 1]))
                    break
            else:  # position j is spent: free the choice made at j - 1
                img[x] = -1
                pending.pop()
                if pending:
                    used[img[order[j - 1]]] = False
        return False

    # the union-find forest: size[r] is the size of the tree rooted at r
    parent, size = list(range(n)), [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    def add(g: tuple[int, ...]):
        generators.append(g)
        for x, y in enumerate(g):
            if x != y:  # the seeds are transpositions, so most ids are fixed
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[ry] = rx
                    size[rx] += size[ry]

    generators, lengths = [], []
    for k in range(n - 1, -1, -1):
        b = order[k]
        img[b] = -1
        used[b] = False
        for g in seeded.get(k, ()):
            add(g)
        # base[0..k-1] are fixed, so the ids after b in its cell are all free
        for v in candidates[k][candidates[k].index(b) + 1 :]:
            if find(v) == find(b):
                continue
            if not bucket:
                bucket = _buckets(rows, order)
            if first_leaf(k, v):
                add(tuple(img))
                for x in order[k:]:
                    used[img[x]] = False
                    img[x] = -1
        lengths.append(size[find(b)])
    return _Chain(tuple(order), tuple(generators), tuple(reversed(lengths)), nodes)


def enumerate_automorphisms(table: CayleyTable, *, max_order: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """All automorphisms, expanded from the stabilizer chain (see _Chain.elements).

    OrderTooLarge past max_order ids, DEFAULT_MAX_SEARCH nodes or DEFAULT_MAX_GROUP_ORDER elements.
    """
    check_table_order(table.order, max_order)
    return PermGroup(table.order, _automorphism_chain(table).elements())


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
