"""Cayley tables and the equivalences computed from them.

A finite semigroup is given by its multiplication table over element ids
0..n-1.  Two elements are h-related when they multiply identically on both
sides.  The psi partition keeps every product element in its own singleton
class and groups non-products by h; it is the congruence the inflation
machinery retracts along.

Psi also decides associativity, for any magma.  Let m(x) be the least id of
x's psi class and T the set of them.  Then a*b = m(a)*m(b), as psi-related ids
have equal rows and columns, so (ab)c = (m(a)m(b))m(c) and a(bc) likewise: a
failing (a, b, c) makes the triple (m(a), m(b), m(c)) over T fail, and it is
componentwise at most (a, b, c).  So a table is associative exactly when T is,
and an ascending scan of T meets the least failing triple first, in O(n^2 + |T|^3).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import MalformedInput, NotAssociative


def _first_non_id(values: Sequence, n: int) -> int:
    """Index of the first value that is not an id in 0..n-1 (bools are not ids), else -1."""
    # the common case, all plain ints in range, in C; otherwise the loop finds the index
    if set(map(type, values)) == {int} and 0 <= min(values) and max(values) < n:
        return -1
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            return i
    return -1


def _is_arrangement(values: Sequence, n: int) -> bool:
    """Whether values hold every id of 0..n-1 exactly once."""
    return len(values) == n and _first_non_id(values, n) < 0 and len(set(values)) == n


class CayleyTable:
    """Multiplication table of a finite magma, entries in 0..n-1.

    Associativity is not enforced here; parse_table checks it by default
    and check_associativity reports the least failing triple.
    """

    # _structure holds core._structure's result from its first call on the table, else None
    __slots__ = ("order", "rows", "_structure")

    def __init__(self, rows: Iterable[Iterable[int]]):
        grid = tuple(tuple(r) for r in rows)
        n = len(grid)
        if n == 0:
            raise MalformedInput("table has no rows")
        for i, row in enumerate(grid):
            if len(row) != n:
                raise MalformedInput(f"row {i} has {len(row)} entries, expected {n}")
            j = _first_non_id(row, n)
            if j >= 0:
                raise MalformedInput(f"entry ({i},{j}) = {row[j]!r} is not an id in 0..{n - 1}")
        self.order = n
        self.rows = grid
        self._structure = None

    @classmethod
    def _unchecked(cls, grid: tuple[tuple[int, ...], ...]) -> "CayleyTable":
        """Wrap a non-empty square tuple of tuples of ids, skipping validation."""
        table = object.__new__(cls)
        table.order = len(grid)
        table.rows = grid
        table._structure = None
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
        blocks = [tuple(b) for b in blocks]
        if not (all(blocks) and _is_arrangement([x for b in blocks for x in b], order)):
            raise MalformedInput(f"blocks do not split 0..{order - 1} into non-empty sets")
        self._index(order, map(sorted, blocks))

    @classmethod
    def _unchecked(cls, order: int, blocks: Iterable[Sequence[int]]) -> "Partition":
        """Wrap ascending blocks known to partition 0..order-1, skipping validation."""
        p = object.__new__(cls)
        p._index(order, blocks)
        return p

    def _index(self, order: int, blocks: Iterable[Sequence[int]]) -> None:
        """Set the fields from ascending blocks that partition 0..order-1."""
        self.order = order
        self.blocks = tuple(sorted(map(tuple, blocks)))
        block_of = [0] * order
        for idx, block in enumerate(self.blocks):
            for x in block:
                block_of[x] = idx
        self.block_of = tuple(block_of)

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
    return [s for line in text.splitlines() if (s := line.strip()) and s[0] != "#"]


def _read_ids(tokens: Sequence[str]) -> tuple[int, ...]:
    """The ints the tokens spell; ValueError unless each is plain ASCII digits.

    int() alone also reads a sign, underscores and non-ASCII digits.
    """
    digits = "".join(tokens)
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError(digits)
    return tuple(map(int, tokens))


def table_from_lines(lines: Sequence[str]) -> tuple[CayleyTable, int]:
    """Read one table from pre-cleaned lines; return it and the lines consumed."""
    if not lines:
        raise MalformedInput("no data lines")
    try:
        (n,) = _read_ids([lines[0]])
    except ValueError:
        raise MalformedInput(f"expected the order, got {lines[0]!r}") from None
    if n < 1:
        raise MalformedInput(f"order must be at least 1, got {n}")
    if len(lines) < 1 + n:
        raise MalformedInput(f"expected {n} rows, found {len(lines) - 1}")
    body = lines[1 : 1 + n]
    spelled = {str(i): i for i in range(n)}  # each id as str() spells it
    try:  # the common case: every entry is an id spelled so, hence in range
        rows = [tuple(map(spelled.__getitem__, line.split())) for line in body]
    except KeyError:  # a leading zero, an id out of range, or a token that is no id
        rows = []
        for line in body:
            try:
                rows.append(_read_ids(line.split()))
            except ValueError:
                raise MalformedInput(f"non-integer entry in row {line!r}") from None
        return CayleyTable(rows), 1 + n  # checks each row's length and range
    if set(map(len, rows)) != {n}:
        CayleyTable(rows)  # raises the error of the first bad row
    return CayleyTable._unchecked(tuple(rows)), 1 + n


def parse_table(text: str, *, require_associative: bool = True) -> CayleyTable:
    """Parse the text format: optional # comments, order line, n rows of n ids."""
    lines = data_lines(text)
    table, used = table_from_lines(lines)
    if used != len(lines):
        raise MalformedInput(f"trailing data after the table: {lines[used]!r}")
    if require_associative:
        refuse_non_associative(table)
    return table


def format_table(table: CayleyTable) -> str:
    """Inverse of parse_table; newline-terminated, no comments."""
    lines = [str(table.order)]
    lines.extend(" ".join(map(str, row)) for row in table.rows)
    return "\n".join(lines) + "\n"


def check_associativity(table: CayleyTable) -> tuple[int, int, int] | None:
    """None when associative, else the lexicographically least failing (a, b, c).

    Scans the triples over T in ascending order, which meets the least failing
    triple first (module docstring); when T is every id this is the full scan.
    """
    # the psi blocks are ordered by least id
    return _first_failure(table.rows, [b[0] for b in _structure(table)[2].blocks])


def refuse_non_associative(table: CayleyTable) -> None:
    """NotAssociative with the least failing triple unless the table is associative."""
    witness = check_associativity(table)
    if witness is not None:
        raise NotAssociative(witness)


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
    """Apply the relabeling x -> images[x] to both the ids and the entries.

    MalformedInput unless images is a permutation of 0..n-1.
    """
    n = table.order
    if not _is_arrangement(images, n):
        raise MalformedInput(f"not a permutation of 0..{n - 1}: {tuple(images)!r}")
    inv = [0] * n
    for x, y in enumerate(images):
        inv[y] = x
    rows = table.rows
    # a bijection carries a table of ids onto a table of ids
    return CayleyTable._unchecked(
        tuple(tuple([images[rows[inv[i]][inv[j]]] for j in range(n)]) for i in range(n))
    )


def product_set(table: CayleyTable) -> frozenset[int]:
    """All values x*y, i.e. the image of the multiplication.

    Read off _structure once computed, else computed alone (as for the H search's T).
    """
    structure = table._structure
    return structure[0] if structure else frozenset().union(*table.rows)


def _structure(table: CayleyTable) -> tuple[frozenset[int], Partition, Partition]:
    """The product set, h and psi, computed once per table.

    The result is kept on the table, which nothing changes after it is
    built, so every caller shares the two partitions.
    """
    if table._structure is None:
        n, prods, h_blocks = table.order, product_set(table), _h_blocks(table.rows)
        psi = Partition._unchecked(n, _psi_blocks(h_blocks, prods))
        table._structure = (prods, Partition._unchecked(n, h_blocks), psi)
    return table._structure


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
    return _structure(table)[1]


def compute_psi(table: CayleyTable) -> Partition:
    """Products stay singletons; non-products are grouped by the h relation."""
    return _structure(table)[2]


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
