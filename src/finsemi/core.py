"""Cayley tables and the equivalences computed from them.

A finite semigroup is given by its multiplication table over element ids
0..n-1.  Two elements are h-related when they multiply identically on both
sides.  The psi partition keeps every product element in its own singleton
class and groups non-products by h; it is the congruence the inflation
machinery retracts along.

Psi also decides associativity, for any magma.  Let T hold one id per psi
class and theta send each id to the one of its class.  Then a*b =
theta(a)*theta(b), as h-related ids have equal rows and columns, and theta
fixes every product, so (ab)c and a(bc) are the same products over theta(a),
theta(b), theta(c) in T: a table is associative exactly when T is, in O(n^2 + |T|^3).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import MalformedInput, NotAssociative


class CayleyTable:
    """Multiplication table of a finite magma, entries in 0..n-1.

    Associativity is not enforced here; parse_table checks it by default
    and check_associativity reports the least failing triple.
    """

    __slots__ = ("order", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        grid = tuple(tuple(r) for r in rows)
        n = len(grid)
        if n == 0:
            raise MalformedInput("table has no rows")
        for i, row in enumerate(grid):
            if len(row) != n:
                raise MalformedInput(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise MalformedInput(f"entry ({i},{j}) = {v!r} is not an id in 0..{n - 1}")
        self.order = n
        self.rows = grid

    @classmethod
    def _unchecked(cls, grid: tuple[tuple[int, ...], ...]) -> "CayleyTable":
        """Wrap a non-empty square tuple of tuples of ids, skipping validation."""
        table = object.__new__(cls)
        table.order = len(grid)
        table.rows = grid
        return table

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CayleyTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"CayleyTable({list(map(list, self.rows))!r})"


class Partition:
    """Partition of 0..n-1 into blocks, normalized for comparison.

    Blocks are sorted internally and ordered by least element, so two
    partitions compare equal exactly when they induce the same equivalence.
    """

    __slots__ = ("order", "blocks", "block_of")

    def __init__(self, order: int, blocks: Iterable[Iterable[int]]):
        norm = sorted(tuple(sorted(b)) for b in blocks)
        seen: list[int] = [-1] * order
        for idx, block in enumerate(norm):
            if not block:
                raise MalformedInput("empty block")
            for x in block:
                if not 0 <= x < order:
                    raise MalformedInput(f"block element {x} outside 0..{order - 1}")
                if seen[x] != -1:
                    raise MalformedInput(f"element {x} appears in two blocks")
                seen[x] = idx
        if -1 in seen:
            raise MalformedInput(f"element {seen.index(-1)} missing from all blocks")
        self.order = order
        self.blocks = tuple(norm)
        self.block_of = tuple(seen)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Group ids by label value (e.g. the fibers of a retraction)."""
        groups: dict[int, list[int]] = {}
        for x, lab in enumerate(labels):
            groups.setdefault(lab, []).append(x)
        return cls(len(labels), groups.values())

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def block_containing(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.block_of[x]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.order == other.order
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.order, self.blocks))

    def __repr__(self) -> str:
        return f"Partition({self.order}, {list(map(list, self.blocks))!r})"


class CongruenceWitness(NamedTuple):
    """Pair (a, b) whose relation is destroyed by multiplying with c."""

    a: int
    b: int
    c: int
    side: str  # "left" for c*a vs c*b, "right" for a*c vs b*c


def data_lines(text: str) -> list[str]:
    """Strip comment (#) and blank lines from a table document."""
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append(stripped)
    return out


def table_from_lines(lines: Sequence[str]) -> tuple[CayleyTable, int]:
    """Read one table from pre-cleaned lines; return it and the lines consumed."""
    if not lines:
        raise MalformedInput("no data lines")
    try:
        n = int(lines[0])
    except ValueError:
        raise MalformedInput(f"expected the order, got {lines[0]!r}") from None
    if n < 1:
        raise MalformedInput(f"order must be at least 1, got {n}")
    if len(lines) < 1 + n:
        raise MalformedInput(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1 : 1 + n]:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise MalformedInput(f"non-integer entry in row {line!r}") from None
        rows.append(row)
    return CayleyTable(rows), 1 + n


def parse_table(text: str, *, require_associative: bool = True) -> CayleyTable:
    """Parse the text format: optional # comments, order line, n rows of n ids."""
    lines = data_lines(text)
    table, used = table_from_lines(lines)
    if used != len(lines):
        raise MalformedInput(f"trailing data after the table: {lines[used]!r}")
    if require_associative:
        witness = check_associativity(table)
        if witness is not None:
            raise NotAssociative(witness)
    return table


def format_table(table: CayleyTable) -> str:
    """Inverse of parse_table; newline-terminated, no comments."""
    lines = [str(table.order)]
    lines.extend(" ".join(map(str, row)) for row in table.rows)
    return "\n".join(lines) + "\n"


def check_associativity(table: CayleyTable) -> tuple[int, int, int] | None:
    """None when associative, else the lexicographically least failing (a, b, c).

    Scans the triples over T, one id per psi class (see the module docstring),
    and all n^3 only when T fails, for the least witness, or when T is every id.
    """
    rows = table.rows
    reps = [b[0] for b in _psi_blocks(_h_blocks(rows), product_set(table))]
    if len(reps) < table.order and _first_failure(rows, reps) is None:
        return None
    return _first_failure(rows, range(table.order))


def _first_failure(rows, ids) -> tuple[int, int, int] | None:
    """The first (a, b, c) over ids, in their order, with (ab)c != a(bc)."""
    for a in ids:
        ra = rows[a]
        for b in ids:
            rab = rows[ra[b]]
            rb = rows[b]
            for c in ids:
                if rab[c] != ra[rb[c]]:
                    return (a, b, c)
    return None


def relabel_table(table: CayleyTable, images: Sequence[int]) -> CayleyTable:
    """Apply the relabeling x -> images[x] to both the ids and the entries."""
    n = table.order
    inv = [0] * n
    for x, y in enumerate(images):
        inv[y] = x
    rows = table.rows
    return CayleyTable(
        [[images[rows[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    )


def product_set(table: CayleyTable) -> frozenset[int]:
    """All values x*y, i.e. the image of the multiplication."""
    out: set[int] = set()
    for row in table.rows:
        out.update(row)
    return frozenset(out)


def _h_blocks(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The h classes, each ascending, in order of least element."""
    groups: dict[tuple, list[int]] = {}
    for a, key in enumerate(zip(rows, zip(*rows))):
        groups.setdefault(key, []).append(a)
    return list(groups.values())


def _psi_blocks(h_blocks: Iterable[Sequence[int]], prods: frozenset[int]) -> list[list[int]]:
    """Each product alone and the non-products of each h block together, each ascending."""
    rests = ([a for a in block if a not in prods] for block in h_blocks)
    return [[a] for a in prods] + [rest for rest in rests if rest]


def compute_h(table: CayleyTable) -> Partition:
    """Group elements multiplying identically on both sides.

    a and b are related when a*x = b*x and x*a = x*b for every x, which is
    row a == row b together with column a == column b.
    """
    return Partition(table.order, _h_blocks(table.rows))


def compute_psi(table: CayleyTable) -> Partition:
    """Products stay singletons; non-products are grouped by the h relation."""
    return Partition(table.order, _psi_blocks(_h_blocks(table.rows), product_set(table)))


def is_congruence(p: Partition, table: CayleyTable) -> CongruenceWitness | None:
    """None when p is compatible with the product, else the least witness.

    Witnesses are scanned in order (a, b, c, side) with left multiplication
    checked before right.
    """
    if p.order != table.order:
        raise MalformedInput("partition and table orders differ")
    n = table.order
    rows = table.rows
    block_of = p.block_of
    for a in range(n):
        for b in range(n):
            if a == b or block_of[a] != block_of[b]:
                continue
            for c in range(n):
                if block_of[rows[c][a]] != block_of[rows[c][b]]:
                    return CongruenceWitness(a, b, c, "left")
                if block_of[rows[a][c]] != block_of[rows[b][c]]:
                    return CongruenceWitness(a, b, c, "right")
    return None
