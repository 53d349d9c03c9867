"""Decomposition of the automorphism group of an inflated semigroup.

The pipeline: compute psi, pick a transversal T, restrict the table to T,
and split every automorphism into a part that fixes each psi class setwise
(the class group G) and the canonical extension of an automorphism of T
(the extendable part).  verify_theorem re-derives Aut independently, as a
stabilizer chain found by search, and H the same way on T, and checks
Aut = G x| H-bar on their strong generators alone: G is a predicate
generated by the class transpositions, G <= Aut is read off the table (each
class transposition swaps equal rows and equal columns of two
non-products), normality is "every generator permutes the classes",
each generator's class action tau is in H when it keeps T's product,
pi = phi * inverse(tau_bar) fixes every class by construction, and the
uniqueness of pi * tau_bar follows by counting |Aut| = |G| * |H|.  The
Aut search takes the psi classes: it checks the class transpositions
itself, keeps those that pass as pairs and counts those that fail, and
searches only for the generators outside G, pruning by the class mates
of every map that fails, so its work follows T's table, not the class
sizes.  Nothing is listed, so the work grows with the search, not with
|Aut|, and |G| has no cap.  The table's one structure
pass (core._structure) gives the products, h and psi, all reused; the
size of each id's h class colours the Aut search, as an automorphism maps
h classes onto h classes.  The generators stay image tuples throughout:
H-bar is the sorted set of their lifts, and no group object is built.

Every check rests only on (R) psi-related ids have equal rows and columns,
(P) every product is its own psi class, and automorphisms keeping the
product, never on associativity, so the checks hold for every finite magma;
the README's proof names the step behind each flag and what it uses.

A reduced table, every psi class a singleton, has T = S, G = 1 and
Aut = H-bar = H, and then there is one search: restricting to every id
renumbers nothing and the class sizes are all 1, a colour every id shares,
so H is Aut itself and the Aut chain is a stabilizer chain of it.  With
theta the identity and every listing a singleton, each generator is its
own class action and the lift of it, so the identity (|G| = 1), normality
(no class splits) and the trivial intersection hold by construction, and
no listing, lift or class action is built.  What is left is still checked:
the structure checks run on the identity retraction, and each Aut
generator is checked once as an automorphism, in sorted order, as the
H-bar generator it is; tau = phi, so that one check also puts tau in H.  The
pipeline's own partitions, transversal, retraction, listings and T's table
are valid by construction and skip the public constructors' checks: the
retraction and the listings are read off each id's class position, so the
inflation._rep_of_block scan that induced_retraction and extension_scheme
run on a caller's transversal is not repeated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .automorphisms import (  # noqa: F401  bench/tracing.py looks up the unused names here
    DEFAULT_MAX_GROUP_ORDER,
    DEFAULT_MAX_ORDER,
    DEFAULT_MAX_SEARCH,
    PermGroup,
    Permutation,
    _automorphism_chain,
    automorphism_witness,
    check_table_order,
    compose,
    enumerate_automorphisms,
    inverse,
    is_automorphism,
    subgroup_checks,
)
from .core import CayleyTable, Partition, _is_arrangement, _structure, compute_h
from .core import compute_psi  # noqa: F401  bench/tracing.py looks it up here
from .errors import MalformedInput, NotAnAutomorphism, NotExtendable, OrderTooLarge
from .inflation import (  # noqa: F401  bench/tracing.py looks up the unused names here
    RetractionMap,
    Transversal,
    _rep_of_block,
    choose_transversal,
    induced_retraction,
    restrict_to_subsemigroup,
    verify_inflation,
    verify_kernel_in_h,
)


@dataclass(frozen=True)
class ExtensionScheme:
    """Ordered listing of each psi class, indexed by transversal position.

    Listing k starts with the representative of class k and continues with
    the remaining ids in increasing order, so a transversal automorphism
    extends by mapping listings onto each other positionally.
    """

    order: int
    listings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        listings = tuple(tuple(l) for l in self.listings)
        object.__setattr__(self, "listings", listings)
        if not (all(listings) and _is_arrangement([*itertools.chain(*listings)], self.order)):
            raise MalformedInput(f"listings do not split 0..{self.order - 1} into non-empty sets")
        for listing in listings:
            if list(listing[1:]) != sorted(listing[1:]):
                raise MalformedInput(f"non-representative ids out of order in {listing!r}")

    @classmethod
    def _unchecked(cls, order: int, listings: tuple[tuple[int, ...], ...]) -> "ExtensionScheme":
        """Wrap listings known to satisfy the checks above, skipping them."""
        scheme = object.__new__(cls)
        object.__setattr__(scheme, "order", order)
        object.__setattr__(scheme, "listings", listings)
        return scheme


def predicted_class_group_order(psi: Partition) -> int:
    """Product of the factorials of the psi class sizes."""
    return math.prod(map(math.factorial, map(len, psi.blocks)))


def psi_class_group(psi: Partition) -> PermGroup:
    """All permutations fixing every psi class setwise.

    Built as the direct product of the symmetric groups on the individual
    blocks; singleton blocks contribute nothing, and distinct choices of
    block permutations give distinct products.  A group of more than
    DEFAULT_MAX_GROUP_ORDER elements is refused before any is built.
    """
    n = psi.order
    predicted = predicted_class_group_order(psi)
    if predicted > DEFAULT_MAX_GROUP_ORDER:
        raise OrderTooLarge("class group order", predicted, DEFAULT_MAX_GROUP_ORDER)
    nontrivial = [b for b in psi.blocks if len(b) > 1]
    elements = []
    for choice in itertools.product(*(itertools.permutations(b) for b in nontrivial)):
        images = list(range(n))
        for block, perm in zip(nontrivial, choice):
            for src, dst in zip(block, perm):
                images[src] = dst
        elements.append(Permutation(tuple(images)))
    return PermGroup(n, elements)


def extension_scheme(psi: Partition, t: Transversal) -> ExtensionScheme:
    """Fix the canonical listings used by every extension and decomposition."""
    _rep_of_block(psi, t)  # one representative per class, so the listings partition the ids
    return _scheme(psi, t.representatives)


def _scheme(psi: Partition, reps: Sequence[int]) -> ExtensionScheme:
    """extension_scheme for reps known to hold one id per class of psi."""
    blocks, block_of = psi.blocks, psi.block_of
    listings = []
    for rep in reps:
        block = blocks[block_of[rep]]
        # a block is ascending, so it is its own listing when rep is its least id
        listings.append(block if block[0] == rep else (rep, *[x for x in block if x != rep]))
    return ExtensionScheme._unchecked(psi.order, tuple(listings))


def extendable_automorphisms(
    t_table: CayleyTable, class_sizes: tuple[int, ...] | list[int]
) -> PermGroup:
    """Automorphisms of the transversal table preserving the class sizes.

    class_sizes[k] is the size of the psi class whose representative got the
    dense id k; only these can extend to the full table.  The sizes are an extra
    colour of the search, which has the caps of enumerate_automorphisms.
    """
    check_table_order(t_table.order)
    if len(class_sizes) != t_table.order:
        raise MalformedInput("one class size per transversal id required")
    chain = _automorphism_chain(t_table, class_sizes)
    return PermGroup(t_table.order, chain.elements())


def _lift(tau: Sequence[int], scheme: ExtensionScheme) -> tuple[int, ...]:
    """The images of tau spread over whole classes positionally; NotExtendable on a size change.

    tau permutes the transversal positions, one per listing of the scheme.
    """
    listings = scheme.listings
    images = [-1] * scheme.order
    for k, (src, t) in enumerate(zip(listings, tau)):
        dst = listings[t]
        if len(src) != len(dst):
            raise NotExtendable(k)
        for x, y in zip(src, dst):
            images[x] = y
    # the listings partition 0..n-1 and tau permutes them, so this is a bijection
    return tuple(images)


def extend_automorphism(tau: Permutation, scheme: ExtensionScheme) -> Permutation:
    """Spread a transversal automorphism over whole classes positionally."""
    if tau.degree != len(scheme.listings):
        raise MalformedInput(
            f"degree {tau.degree} permutation for {len(scheme.listings)} classes"
        )
    return Permutation._unchecked(_lift(tau.images, scheme))


def embed_h(h: PermGroup, scheme: ExtensionScheme) -> PermGroup:
    """Extend every member of h; position maps make this one-to-one and multiplicative."""
    if h.degree != len(scheme.listings):
        raise MalformedInput("group degree differs from the number of classes")
    return PermGroup(scheme.order, [extend_automorphism(tau, scheme) for tau in h])


def _class_positions(psi: Partition, reps: tuple[int, ...]) -> list[int]:
    """Per id, the position in reps of its class; reps holds one id per class."""
    slot = {psi.block_of[rep]: k for k, rep in enumerate(reps)}
    return [slot[b] for b in psi.block_of]


def _class_action(
    images: Sequence[int], pos: list[int], reps: tuple[int, ...]
) -> tuple[int, ...] | None:
    """How images permute the psi classes, in transversal positions; None on a split.

    pos is _class_positions(psi, reps), and entry k of the result is the
    position of the class that images map the class of reps[k] onto.
    A bijection that splits no class merges none, so the result permutes.
    """
    tau = tuple([pos[images[rep]] for rep in reps])
    # each id's class sent by tau against the class the id lands in; both sides
    # read n entries, so for n = 1 both are the entry itself
    if itemgetter(*pos)(tau) != itemgetter(*images)(pos):
        return None
    return tau


def _h_bar(generators: Sequence[Sequence[int]], scheme: ExtensionScheme) -> list[tuple[int, ...]]:
    """The lifts of the H generators, sorted and without repeats, as embed_h lists them."""
    return sorted({_lift(g, scheme) for g in generators})


def decompose_automorphism(
    table: CayleyTable,
    phi: Permutation,
    psi: Partition,
    t: Transversal,
    scheme: ExtensionScheme,
) -> tuple[Permutation, Permutation]:
    """Split phi as pi * tau_bar, the class-fixing part applied first.

    tau records how phi permutes the psi classes, read off transversal
    positions; pi = phi * inverse(tau_bar) then fixes every class setwise.
    Returns (tau, pi).  MalformedInput when phi splits a class of psi.
    """
    witness = automorphism_witness(table, phi)
    if witness is not None:
        raise NotAnAutomorphism(witness)
    tau = _class_action(phi.images, _class_positions(psi, t.representatives), t.representatives)
    if tau is None:
        raise MalformedInput(f"{phi.images} splits a psi class")
    tau = Permutation._unchecked(tau)
    pi = compose(phi, inverse(extend_automorphism(tau, scheme)))
    return tau, pi


@dataclass(frozen=True)
class TheoremReport:
    """Everything verify_theorem established about one table."""

    order: int
    psi_class_sizes: tuple[int, ...]
    aut_order: int
    h_order: int
    g_order: int
    identity_holds: bool
    g_is_normal: bool
    intersection_trivial: bool
    factorization_unique: bool
    transversal_used: tuple[int, ...]
    witnesses: tuple[tuple[str, str], ...] = ()

    @property
    def all_flags(self) -> bool:
        return (
            self.identity_holds
            and self.g_is_normal
            and self.intersection_trivial
            and self.factorization_unique
        )

    def to_json_dict(self) -> dict:
        """The fields in declared order, the tuples as lists and the witnesses as a dict."""
        return {
            **vars(self),
            "psi_class_sizes": list(self.psi_class_sizes),
            "transversal_used": list(self.transversal_used),
            "witnesses": dict(self.witnesses),
        }

    def to_text(self) -> str:
        """A `key: value` line per field in declared order, then a line per witness."""
        lines = []
        for key, value in vars(self).items():
            if value is True or value is False:
                value = "true" if value else "false"
            elif type(value) is tuple:  # the witnesses: a count here, a line each below
                value = len(value) if key == "witnesses" else " ".join(map(str, value))
            lines.append(f"{key}: {value}")
        lines.extend(f"witness {k}: {v}" for k, v in self.witnesses)
        return "\n".join(lines) + "\n"


def verify_theorem(
    table: CayleyTable,
    policy: str = "least",
    seed: int | None = None,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> TheoremReport:
    """Run the whole pipeline on one table and check every claim.

    Aut and H come from stabilizer chains found by search (see
    _automorphism_chain), independent of the G and H-bar constructions: Aut
    on the table with each id's h-class size as an extra colour, which
    every automorphism keeps, and H on T with the psi-class sizes as one.
    Every check runs on generators, as image tuples.  G, a predicate (fix
    every psi class), lies in Aut when each transposition of adjacent ids
    in a class passes _is_class_swap, an O(n) check on the table that the
    Aut search runs, given the classes: each one that passes is a pair of
    the chain, a strong generator of n - 2 fixed points that acts on the
    classes as the identity and is read no further, the search then finds
    only the generators outside G, and each one that fails is counted in
    the chain's outside and in the g_normal witness, which counts the
    pairs among the generators.  G is normal when every strong generator
    permutes the classes.  H-bar lies in Aut when each lifted H generator
    is an automorphism, and meets G trivially when each is the lift of its
    own class action.  Each strong generator phi splits as pi * tau_bar, with
    tau its class action, which is in H when it is the identity or keeps
    the product of T's table (it keeps the class sizes, as phi does), and
    pi fixing every class by construction, as tau_bar moves the classes as
    phi does.  Uniqueness then follows from |Aut| = |G| * |H|.  When T is
    every id H is Aut itself and theta the identity (see the module
    docstring): the Aut chain serves as H's, the three flags that read
    class actions and lifts hold by construction, and each Aut generator
    is checked once, as an H-bar generator; otherwise T's table is read
    off the transversal positions, with no closure check, as (P) puts
    every product in T.  The module's DEFAULT_MAX_SEARCH, read at call
    time, bounds the nodes both searches visit together.  The table-order
    cap refuses before any other work, and an unknown policy before any
    search.  All four flags are computed even when an earlier one fails.
    """
    n = table.order
    budget = DEFAULT_MAX_SEARCH
    check_table_order(n, max_order)  # first, so that the cap refuses before any other work
    psi = _structure(table)[2]
    t = choose_transversal(psi, policy, seed)  # refuses a bad policy before any search
    h_rel = compute_h(table)
    # every automorphism maps h classes onto h classes, so it keeps each id's class size;
    # a psi class lies in one h class, so its ids share that colour
    twins = [len(h_rel.blocks[b]) for b in h_rel.block_of]
    # the adjacent transpositions of the classes, which generate G, are checked by the search
    aut = _automorphism_chain(table, twins, classes=psi.blocks, max_nodes=budget)
    predicted_g = predicted_class_group_order(psi)
    reps = t.representatives

    if len(reps) == n:
        # reduced: reps is 0..n-1, theta the identity and H-bar the Aut generators, each
        # its own class action and lift, so no class action is read (see the module docstring)
        r = RetractionMap._unchecked(reps, t)
        h, h_bar, taus, not_lifts = aut, sorted(set(aut.generators)), [], 0
    else:
        pos = _class_positions(psi, reps)
        # t holds one id per class by construction, so the retraction and the
        # listings are read off reps and pos, with no _rep_of_block scan
        r = RetractionMap._unchecked(tuple([reps[k] for k in pos]), t)
        scheme = _scheme(psi, reps)
        # T holds every product by (P), a singleton class, so pos renumbers T in order
        rows = table.rows
        sub = CayleyTable._unchecked(tuple([tuple([pos[rows[a][b]] for b in reps]) for a in reps]))
        class_sizes = tuple(map(len, scheme.listings))
        try:
            h = _automorphism_chain(sub, class_sizes, max_nodes=budget - aut.nodes)
        except OrderTooLarge as exc:  # the budget is shared, so report it whole
            raise OrderTooLarge(exc.what, aut.nodes + exc.requested, budget) from None
        h_bar = _h_bar(h.generators, scheme)
        taus = [_class_action(phi, pos, reps) for phi in aut.generators]
        # Lifting is a homomorphism and the class action undoes it on every
        # generator, so it is one-to-one on H-bar and H-bar meets G in 1 only.
        # A bijection that permutes the classes keeps their sizes, so every
        # class action extends.
        not_lifts = 0
        for tb in h_bar:
            tau = _class_action(tb, pos, reps)
            not_lifts += tau is None or _lift(tau, scheme) != tb

    witnesses: dict[str, str] = {}
    bad_axiom = verify_inflation(table, r)
    if bad_axiom is not None:
        witnesses["inflation"] = f"{bad_axiom.axiom} fails at {bad_axiom.elements}"
    bad_pair = verify_kernel_in_h(r, h_rel)
    if bad_pair is not None:
        witnesses["kernel"] = f"theta identifies the h-unrelated pair {bad_pair}"

    aut_order, h_order = aut.order, h.order
    identity_holds = aut_order == predicted_g * h_order
    if not identity_holds:
        witnesses["identity"] = f"aut {aut_order} != g {predicted_g} * h {h_order}"

    # phi G phi^-1 is the product of the Sym(phi B), so phi normalizes G
    # exactly when it permutes the classes; the adjacent transpositions
    # generate G.  A pair, a class transposition, fixes every class.
    splits = taus.count(None)
    g_is_normal = splits == 0 and aut.outside == 0
    if not g_is_normal:
        witnesses["g_normal"] = (
            f"{splits} of {len(aut.generators) + len(aut.pairs)} generators split a class, "
            f"{aut.outside} of {len(aut.pairs) + aut.outside} class transpositions outside aut"
        )

    intersection_trivial = not_lifts == 0
    if not intersection_trivial:
        witnesses["intersection"] = (
            f"{not_lifts} of {len(h_bar)} h-bar generators are not the lift of their class action"
        )

    # H-bar <= Aut and every strong generator in G * H-bar give Aut = G H-bar;
    # with G and H-bar meeting in 1, |Aut| = |G| * |H| makes each
    # factorization unique.
    factorization_unique = intersection_trivial and identity_holds
    if not identity_holds:
        witnesses["factorization"] = f"aut {aut_order} != g {predicted_g} * h-bar {h_order}"
    elif not intersection_trivial:
        witnesses["factorization"] = "h-bar meets g, so pi * tau_bar is not unique"
    for tb in h_bar:
        if automorphism_witness(table, Permutation._unchecked(tb)) is not None:
            factorization_unique = False
            witnesses.setdefault("factorization", f"h-bar generator {tb} not in aut")
    # tau is in H, the size-preserving automorphisms of T, when it keeps T's product:
    # tau permutes the classes as phi does, so it carries each class onto one of the
    # same size.  The pairs, the class transpositions, act as the identity and are not read.
    # pi = phi * inverse(tau_bar) fixes every class by construction: phi maps the class
    # at position k onto the class at tau[k], and so does tau_bar.  A reduced table has no taus.
    no_move = tuple(range(len(reps)))
    for phi, tau in zip(aut.generators, taus):
        if tau == no_move or (tau is not None and is_automorphism(sub, Permutation(tau))):
            continue
        problem = "splits a class" if tau is None else f"tau {tau} is not in h"
        factorization_unique = False
        witnesses.setdefault("factorization", f"decompose failed on {phi}: {problem}")

    return TheoremReport(
        order=n,
        psi_class_sizes=tuple(sorted(map(len, psi.blocks))),
        aut_order=aut_order,
        h_order=h_order,
        g_order=predicted_g,
        identity_holds=identity_holds,
        g_is_normal=g_is_normal,
        intersection_trivial=intersection_trivial,
        factorization_unique=factorization_unique,
        transversal_used=t.representatives,
        witnesses=tuple(sorted(witnesses.items())),
    )
