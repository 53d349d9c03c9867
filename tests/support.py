"""Shared fixture tables and independent brute-force oracles.

The oracles deliberately avoid the library's own code paths: they filter
all n! permutations or all n^(n*n) operations directly from first
principles, so the fast implementations are checked against something
that cannot share their bugs.
"""

from __future__ import annotations

import itertools

from finsemi import CayleyTable, FiberSizeSpec, build_inflation, relabel_table

# Canonical test semigroups.  N3/N4 are null (every product is 0), L2 is
# left-zero, S6 and IL2 glue fibers over L2 with interleaved ids: fibers
# {0,2,4}/{1,3,5} for S6 and {0,2}/{1,3} for IL2, every row constant.
N3 = CayleyTable([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
N4 = CayleyTable([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
L2 = CayleyTable([[0, 0], [1, 1]])
S6 = CayleyTable(
    [
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
    ]
)
IL2 = CayleyTable([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]])
Z2 = CayleyTable([[0, 1], [1, 0]])
Z3 = CayleyTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])

FIXTURES = {"N3": N3, "N4": N4, "L2": L2, "S6": S6, "IL2": IL2}


# Families whose |Aut| is known in closed form at every order (Clifford and
# Preston, 1961, for the bands and the free semilattice), so they check the
# chain search past the reach of the brute-force oracles below.


def cyclic_group(n: int) -> CayleyTable:
    """Z_n, x * y = x + y mod n; |Aut| = phi(n), every id a product."""
    return CayleyTable([[(x + y) % n for y in range(n)] for x in range(n)])


def left_zero(n: int) -> CayleyTable:
    """L_n, x * y = x; every permutation is an automorphism, |Aut| = n!."""
    return CayleyTable([[x] * n for x in range(n)])


def null_semigroup(n: int) -> CayleyTable:
    """N_n, every product 0; the n - 1 other ids are one psi class, |Aut| = (n - 1)!."""
    return CayleyTable([[0] * n for _ in range(n)])


def rectangular_band(m: int, k: int) -> CayleyTable:
    """The band I x J, |I| = m and |J| = k, with (i, j) * (i', j') = (i, j'); |Aut| = m! * k!.

    The pair (i, j) has id i * k + j.  Automorphisms permute I and J apart:
    swapping the factors reverses the product, even when m = k.
    """
    return CayleyTable([[x - x % k + y % k for y in range(m * k)] for x in range(m * k)])


def free_semilattice(k: int) -> CayleyTable:
    """The free semilattice on k points: the proper subsets of them under intersection.

    A subset's id is its bit mask, so the product is x & y.  Every
    automorphism permutes the k maximal subsets, one per missing point,
    and is fixed by that, so |Aut| = k!.
    """
    m = 2**k - 1
    return CayleyTable([[x & y for y in range(m)] for x in range(m)])


def naive_associativity_witness(rows) -> tuple[int, int, int] | None:
    """First failing triple under a full scan, None when associative."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return (a, b, c)
    return None


def naive_automorphism_witness(rows, img) -> tuple[int, int] | None:
    """Least (x, y) with img[x*y] != img[x]*img[y], pair by pair, None when there is none."""
    n = len(rows)
    for x in range(n):
        for y in range(n):
            if img[rows[x][y]] != rows[img[x]][img[y]]:
                return (x, y)
    return None


def naive_inflation_witness(rows, theta) -> tuple[str, tuple[int, ...]] | None:
    """The first broken inflation axiom and its least witness, scanned entry by entry."""
    n = len(rows)
    for x in range(n):
        if theta[theta[x]] != theta[x]:
            return ("idempotent", (x,))
    image = sorted(set(theta))
    for a in image:
        for b in image:
            if rows[a][b] not in image:
                return ("image-closed", (a, b))
    for a in range(n):
        for b in range(n):
            if rows[theta[a]][theta[b]] != rows[a][b]:
                return ("product", (a, b))
    return None


def naive_class_action(images, block_of, reps) -> tuple[int, ...] | None:
    """Position in reps of the class each class of reps lands in, or None when one splits.

    Class by class: every id of the class of reps[k] must land in one class, the one
    holding reps[tau[k]].
    """
    tau = []
    for rep in reps:
        landing = {block_of[images[x]] for x in range(len(images)) if block_of[x] == block_of[rep]}
        if len(landing) != 1:
            return None
        (target,) = landing
        tau.append(next(k for k, r in enumerate(reps) if block_of[r] == target))
    return tuple(tau)


def naive_first_failure(rows, ids) -> tuple[int, int, int] | None:
    """First (a, b, c) over ids, in lexicographic order of their places in ids, that fails."""
    for a, b, c in itertools.product(ids, repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return (a, b, c)
    return None


def naive_kernel_pair(theta, block_of) -> tuple[int, int] | None:
    """Least pair a < b with theta(a) = theta(b) in different blocks, over every pair."""
    n = len(theta)
    for a in range(n):
        for b in range(a + 1, n):
            if theta[a] == theta[b] and block_of[a] != block_of[b]:
                return (a, b)
    return None


def naive_automorphism_images(rows) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every one of the n! permutations."""
    n = len(rows)
    kept = []
    for img in itertools.permutations(range(n)):
        if all(
            img[rows[x][y]] == rows[img[x]][img[y]]
            for x in range(n)
            for y in range(n)
        ):
            kept.append(img)
    return sorted(kept)


def strong_generators(chain) -> list[tuple[int, ...]]:
    """A chain's generators, then its pairs written out as transpositions."""
    swaps = []
    for x, y in chain.pairs:
        images = list(range(len(chain.base)))
        images[x], images[y] = y, x
        swaps.append(tuple(images))
    return [*chain.generators, *swaps]


def naive_sift(chain, images) -> bool:
    """Whether images lies in the group of a stabilizer chain, read off its base and generators.

    Level by level, the coset representatives of base[k] are regrown breadth
    first from the identity under the strong generators that fix base[:k],
    and images is divided by the one that sends base[k] where images does.
    """
    n, base = len(images), chain.base
    g = list(images)
    for k, b in enumerate(base):
        fixing = [s for s in strong_generators(chain) if all(s[a] == a for a in base[:k])]
        reps = {b: tuple(range(n))}
        reached = [b]
        for y in reached:
            for s in fixing:
                if s[y] not in reps:
                    reps[s[y]] = tuple(s[v] for v in reps[y])
                    reached.append(s[y])
        if g[b] not in reps:
            return False
        inverse = [0] * n
        for x, y in enumerate(reps[g[b]]):
            inverse[y] = x
        g = [inverse[v] for v in g]
    return g == list(range(n))


def naive_orbit(chain, k) -> list[int]:
    """The orbit of base[k] under the chain's strong generators that fix base[:k], breadth first."""
    base = chain.base
    fixing = [s for s in strong_generators(chain) if all(s[a] == a for a in base[:k])]
    orbit = [base[k]]
    for y in orbit:
        for s in fixing:
            if s[y] not in orbit:
                orbit.append(s[y])
    return orbit


def reference_chain(rows, order, cells, seeds=()):
    """(base, generators, orbit lengths, nodes) of the plain orbit-pruned chain search.

    order is the search order and cells[k] the ids that position k may
    take.  Level k, deepest first, adds the seeds whose first moved point
    sits at k, then, for each id v after base[k] in its cell and outside the
    orbit of base[k] under the generators so far, looks for a map that
    fixes base[:k], sends base[k] to v and keeps every product whose three
    ids are placed; the first it finds is a generator.  No failed search
    prunes another.  Nodes count as the library counts them, a node per
    position entered.
    """
    n = len(order)
    position = {x: k for k, x in enumerate(order)}
    nodes = 0

    def consistent(img):
        return all(
            img[rows[a][b]] == rows[img[a]][img[b]] for a in img for b in img if rows[a][b] in img
        )

    def search(img, j, choices):
        nonlocal nodes
        for v in choices:
            if v in img.values():
                continue
            img[order[j]] = v
            if consistent(img):
                if j + 1 == n:
                    return tuple(img[x] for x in range(n))
                nodes += 1
                found = search(img, j + 1, cells[j + 1])
                if found:
                    return found
            del img[order[j]]
        return None

    def orbit(b, generators):
        reached = [b]
        for y in reached:
            for g in generators:
                if g[y] not in reached:
                    reached.append(g[y])
        return reached

    generators, lengths = [], []
    for k in range(n - 1, -1, -1):
        b = order[k]
        generators += [g for g in seeds if min(position[x] for x in range(n) if g[x] != x) == k]
        for v in cells[k][cells[k].index(b) + 1 :]:
            if v not in orbit(b, generators):
                nodes += 1
                found = search({x: x for x in order[:k]}, k, [v])
                if found:
                    generators.append(found)
        lengths.append(len(orbit(b, generators)))
    return tuple(order), generators, tuple(reversed(lengths)), nodes


def naive_semigroup_rows(n: int) -> set[tuple[tuple[int, ...], ...]]:
    """All associative tables on 0..n-1 by filtering every operation."""
    out = set()
    for vals in itertools.product(range(n), repeat=n * n):
        rows = tuple(vals[i * n : (i + 1) * n] for i in range(n))
        if naive_associativity_witness(rows) is None:
            out.add(rows)
    return out


def naive_cell_candidates(rows, i, j) -> list[int]:
    """Values, ascending, that the unset cell (i, j) of a partial table can take.

    Unset cells hold -1; the values are those of the cell's naive_fill_leaves.
    """
    return [leaf[i][j] for leaf in naive_fill_leaves(rows, [(i, j)])]


def naive_fill_leaves(rows, cells) -> list[tuple[tuple[int, ...], ...]]:
    """Every way to set the listed unset cells under which no fully set triple fails.

    Each assignment of 0..n-1 to the cells is tried, in lexicographic order
    of the cells' values in the order listed, and all n^3 triples are
    scanned; a triple counts only when its four reads are set.  Unset cells
    that are not listed stay -1.
    """
    n = len(rows)
    leaves = []
    for vals in itertools.product(range(n), repeat=len(cells)):
        grid = [list(row) for row in rows]
        for (i, j), v in zip(cells, vals):
            grid[i][j] = v
        if all(
            grid[grid[a][b]][c] == grid[a][grid[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if grid[a][b] >= 0
            and grid[b][c] >= 0
            and grid[grid[a][b]][c] >= 0
            and grid[a][grid[b][c]] >= 0
        ):
            leaves.append(tuple(map(tuple, grid)))
    return leaves


def naive_canonical_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Least row-major relabeling over all n! relabelings.

    Relabeling by img sends the product a*b = c to img[a]*img[b] = img[c].
    """
    n = len(rows)
    best = None
    for img in itertools.permutations(range(n)):
        out = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[img[a]][img[b]] = img[rows[a][b]]
        candidate = tuple(map(tuple, out))
        if best is None or candidate < best:
            best = candidate
    return best


def non_products_first(rows, rng=None) -> CayleyTable:
    """Relabel so the ids outside the product set come first, then the products.

    Both groups keep their id order, or are shuffled by rng when one is given.
    """
    n = len(rows)
    products = sorted({v for row in rows for v in row})
    non_products = [x for x in range(n) if x not in products]
    if rng is not None:
        rng.shuffle(non_products)
        rng.shuffle(products)
    new = {x: i for i, x in enumerate(non_products + products)}
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[new[x]][new[y]] = new[rows[x][y]]
    return CayleyTable(out)


def random_magma_inflation(rng, max_order: int = 8) -> CayleyTable:
    """A random magma of order at most 4 inflated to order at most max_order, ids shuffled."""
    m = rng.randint(1, 4)
    base = CayleyTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
    sizes = [1] * m
    for _ in range(rng.randint(0, max_order - m)):
        sizes[rng.randrange(m)] += 1
    inflated, _ = build_inflation(FiberSizeSpec(base, tuple(sizes)))
    images = list(range(inflated.order))
    rng.shuffle(images)
    return relabel_table(inflated, images)


def with_one_cell_changed(table, rng) -> CayleyTable:
    """The table with one seeded cell set to a seeded id, possibly its old value."""
    n = table.order
    rows = [list(row) for row in table.rows]
    rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return CayleyTable(rows)
