"""Decomposition of the automorphism group of an inflated semigroup.

The pipeline: compute psi, pick a transversal T, restrict the table to T,
and split every automorphism into a part that fixes each psi class setwise
(the class group G) and the canonical extension of an automorphism of T
(the extendable part).  verify_theorem re-derives the full automorphism
group independently by backtracking search and checks the decomposition
by how each automorphism acts on the psi classes, without listing G, and
the uniqueness of pi * tau_bar by counting |Aut| = |G| * |H-bar|.  tau_bar
depends only on that class action, so it is lifted once per action, and
each automorphism's round trip runs on image tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .automorphisms import (
    DEFAULT_MAX_ORDER,
    PermGroup,
    Permutation,
    automorphism_witness,
    compose,
    enumerate_automorphisms,
    identity,
    inverse,
    subgroup_checks,  # noqa: F401  unused; bench/tracing.py looks the name up here
)
from .core import CayleyTable, Partition, compute_h, compute_psi
from .errors import MalformedInput, NotAnAutomorphism, NotExtendable, OrderTooLarge
from .inflation import (
    Transversal,
    choose_transversal,
    induced_retraction,
    restrict_to_subsemigroup,
    verify_inflation,
    verify_kernel_in_h,
)

DEFAULT_MAX_GROUP_ORDER = 10**5
DEFAULT_MAX_SEARCH = 10**8


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
        seen = set()
        for listing in listings:
            if not listing:
                raise MalformedInput("empty class listing")
            if list(listing[1:]) != sorted(listing[1:]):
                raise MalformedInput(f"non-representative ids out of order in {listing!r}")
            for x in listing:
                if not 0 <= x < self.order or x in seen:
                    raise MalformedInput(f"bad or repeated id {x} in scheme")
                seen.add(x)
        if len(seen) != self.order:
            raise MalformedInput("scheme does not cover every id")


def predicted_class_group_order(psi: Partition) -> int:
    """Product of the factorials of the psi class sizes."""
    return math.prod(math.factorial(len(b)) for b in psi.blocks)


def psi_class_group(
    psi: Partition,
    degree: int | None = None,
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> PermGroup:
    """All permutations fixing every psi class setwise.

    Built as the direct product of the symmetric groups on the individual
    blocks; singleton blocks contribute nothing.
    """
    n = psi.order
    if degree is not None and degree != n:
        raise MalformedInput(f"degree {degree} differs from partition order {n}")
    predicted = predicted_class_group_order(psi)
    if predicted > max_group_order:
        raise OrderTooLarge("class group order", predicted, max_group_order)
    nontrivial = [b for b in psi.blocks if len(b) > 1]
    elements = []
    for choice in itertools.product(*(itertools.permutations(b) for b in nontrivial)):
        images = list(range(n))
        for block, perm in zip(nontrivial, choice):
            for src, dst in zip(block, perm):
                images[src] = dst
        elements.append(Permutation(tuple(images)))
    group = PermGroup(n, elements)
    if len(group) != predicted:
        raise MalformedInput("class group construction lost elements")
    return group


def extension_scheme(psi: Partition, t: Transversal) -> ExtensionScheme:
    """Fix the canonical listings used by every extension and decomposition."""
    if psi.order != t.order:
        raise MalformedInput("partition and transversal orders differ")
    listings = []
    for rep in t.representatives:
        block = psi.block_containing(rep)
        listings.append((rep,) + tuple(x for x in block if x != rep))
    return ExtensionScheme(psi.order, tuple(listings))


def extendable_automorphisms(
    t_table: CayleyTable,
    class_sizes: tuple[int, ...] | list[int],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> PermGroup:
    """Automorphisms of the transversal table preserving the class sizes.

    class_sizes[k] is the size of the psi class whose representative got
    the dense id k.  Only these can extend to the full table.
    """
    if len(class_sizes) != t_table.order:
        raise MalformedInput("one class size per transversal id required")
    aut = enumerate_automorphisms(t_table, max_order=max_order)
    kept = [
        tau
        for tau in aut
        if all(class_sizes[k] == class_sizes[tau.images[k]] for k in range(t_table.order))
    ]
    return PermGroup(t_table.order, kept)


def extend_automorphism(tau: Permutation, scheme: ExtensionScheme) -> Permutation:
    """Spread a transversal automorphism over whole classes positionally."""
    if tau.degree != len(scheme.listings):
        raise MalformedInput(
            f"degree {tau.degree} permutation for {len(scheme.listings)} classes"
        )
    images = [-1] * scheme.order
    for k, src in enumerate(scheme.listings):
        dst = scheme.listings[tau.images[k]]
        if len(src) != len(dst):
            raise NotExtendable(k)
        for pos, x in enumerate(src):
            images[x] = dst[pos]
    # the listings partition 0..n-1 and tau permutes them, so this is a bijection
    return Permutation._unchecked(tuple(images))


def embed_h(h: PermGroup, scheme: ExtensionScheme) -> PermGroup:
    """Extend every member of h; position maps make this multiplicative."""
    if h.degree != len(scheme.listings):
        raise MalformedInput("group degree differs from the number of classes")
    extended = [extend_automorphism(tau, scheme) for tau in h]
    group = PermGroup(scheme.order, extended)
    if len(group) != len(h):
        raise MalformedInput("extension identified two transversal automorphisms")
    return group


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
    Returns (tau, pi).
    """
    witness = automorphism_witness(table, phi)
    if witness is not None:
        raise NotAnAutomorphism(witness)
    tau, _, pi = _split(phi, psi, t, scheme)
    return tau, pi


def _split(
    phi: Permutation, psi: Partition, t: Transversal, scheme: ExtensionScheme
) -> tuple[Permutation, Permutation, Permutation]:
    """Split phi into (tau, tau_bar, pi) without checking that phi is an automorphism."""
    pos_of_block = {psi.block_of[rep]: k for k, rep in enumerate(t.representatives)}
    tau = Permutation(
        tuple(
            pos_of_block[psi.block_of[phi.images[rep]]]
            for rep in t.representatives
        )
    )
    tau_bar = extend_automorphism(tau, scheme)
    pi = compose(phi, inverse(tau_bar))
    return tau, tau_bar, pi


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
        return {
            "order": self.order,
            "psi_class_sizes": list(self.psi_class_sizes),
            "aut_order": self.aut_order,
            "h_order": self.h_order,
            "g_order": self.g_order,
            "identity_holds": self.identity_holds,
            "g_is_normal": self.g_is_normal,
            "intersection_trivial": self.intersection_trivial,
            "factorization_unique": self.factorization_unique,
            "transversal_used": list(self.transversal_used),
            "witnesses": {k: v for k, v in self.witnesses},
        }

    def to_text(self) -> str:
        lines = [
            f"order: {self.order}",
            "psi_class_sizes: " + " ".join(map(str, self.psi_class_sizes)),
            f"aut_order: {self.aut_order}",
            f"h_order: {self.h_order}",
            f"g_order: {self.g_order}",
            f"identity_holds: {str(self.identity_holds).lower()}",
            f"g_is_normal: {str(self.g_is_normal).lower()}",
            f"intersection_trivial: {str(self.intersection_trivial).lower()}",
            f"factorization_unique: {str(self.factorization_unique).lower()}",
            "transversal_used: " + " ".join(map(str, self.transversal_used)),
            f"witnesses: {len(self.witnesses)}",
        ]
        lines.extend(f"witness {k}: {v}" for k, v in self.witnesses)
        return "\n".join(lines) + "\n"


def _class_action(
    images: tuple[int, ...], block_of: tuple[int, ...], firsts: list[int]
) -> tuple[int, ...] | None:
    """Entry k is the index of the psi block that images map block k onto.

    firsts[k] is the least id of block k.  None when a class is split; a
    bijection that splits none merges none.
    """
    onto = [block_of[v] for v in images]
    action = tuple([onto[x] for x in firsts])
    if [action[b] for b in block_of] != onto:
        return None
    return action


def verify_theorem(
    table: CayleyTable,
    policy: str = "least",
    seed: int | None = None,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_search: int = DEFAULT_MAX_SEARCH,
) -> TheoremReport:
    """Run the whole pipeline on one table and check every claim.

    The automorphism group is enumerated by backtracking, independent of
    the G and H constructions.  G is a predicate, fixing every psi class,
    never a listed set, and uniqueness follows by counting.  Each phi is
    split as pi * tau_bar and checked (pi fixes every class, tau_bar is in
    H-bar, the product gives phi back); tau_bar is lifted once per class
    action and shared by every phi with that action.  A phi that splits a
    class fails the factorization instead of being split.  All four flags
    are computed even when an earlier one fails.
    """
    n = table.order
    if n > max_order:
        raise OrderTooLarge("table order", n, max_order)
    psi = compute_psi(table)
    predicted_g = predicted_class_group_order(psi)
    if predicted_g > max_group_order:
        raise OrderTooLarge("class group order", predicted_g, max_group_order)
    t = choose_transversal(psi, policy, seed)
    estimate = predicted_g * math.factorial(len(t.representatives))
    if estimate > max_search:
        raise OrderTooLarge("search estimate", estimate, max_search)

    witnesses: dict[str, str] = {}
    r = induced_retraction(psi, t)
    bad_axiom = verify_inflation(table, r)
    if bad_axiom is not None:
        witnesses["inflation"] = f"{bad_axiom.axiom} fails at {bad_axiom.elements}"
    bad_pair = verify_kernel_in_h(r, compute_h(table))
    if bad_pair is not None:
        witnesses["kernel"] = f"theta identifies the h-unrelated pair {bad_pair}"

    sub, old_ids = restrict_to_subsemigroup(table, t.representatives)
    class_sizes = tuple(len(psi.block_containing(rep)) for rep in old_ids)
    aut = enumerate_automorphisms(table, max_order=max_order)
    h = extendable_automorphisms(sub, class_sizes, max_order=max_order)
    scheme = extension_scheme(psi, t)
    h_bar = embed_h(h, scheme)
    block_of = psi.block_of
    firsts = [block[0] for block in psi.blocks]
    fixed = tuple(range(len(psi.blocks)))

    identity_holds = len(aut) == predicted_g * len(h)
    if not identity_holds:
        witnesses["identity"] = f"aut {len(aut)} != g {predicted_g} * h {len(h)}"

    # phi G phi^-1 is the product of the Sym(phi B), so phi normalizes G
    # exactly when it permutes the classes; |Aut ∩ G| = |G| gives G <= Aut.
    actions = [_class_action(phi.images, block_of, firsts) for phi in aut]
    splits, in_g = actions.count(None), actions.count(fixed)
    g_is_normal = splits == 0 and in_g == predicted_g
    if not g_is_normal:
        witnesses["g_normal"] = f"{splits} split a class, {in_g} fix all, g {predicted_g}"

    ident = identity(n)
    overlap = [
        tb for tb in h_bar if tb != ident and _class_action(tb.images, block_of, firsts) == fixed
    ]
    intersection_trivial = ident in h_bar and not overlap
    if not intersection_trivial:
        witnesses["intersection"] = f"shared non-identity elements: {len(overlap)}"

    # The round trips make G x H-bar -> Aut onto; equal sizes make it one-to-one.
    factorization_unique = len(aut) == predicted_g * len(h_bar)
    if not factorization_unique:
        witnesses["factorization"] = f"aut {len(aut)} != g {predicted_g} * h-bar {len(h_bar)}"
    # tau, and so tau_bar, depends only on phi's class action: each action is
    # lifted once, to (tau_bar, images of its inverse) or the NotExtendable.
    pos_of_block = {block_of[rep]: k for k, rep in enumerate(t.representatives)}
    rep_blocks = [block_of[rep] for rep in t.representatives]
    blocks_in_order = list(block_of)
    lifts: dict[tuple[int, ...], tuple[Permutation, tuple[int, ...]] | NotExtendable] = {}
    # aut comes from the search, so each phi is an automorphism by construction
    for phi, action in zip(aut, actions):
        if action is None:
            factorization_unique = False
            witnesses.setdefault(
                "factorization", f"decompose failed on {phi.images}: splits a class"
            )
            continue
        if action not in lifts:
            tau = Permutation(tuple(pos_of_block[action[b]] for b in rep_blocks))
            try:
                tau_bar = extend_automorphism(tau, scheme)
                lifts[action] = (tau_bar, inverse(tau_bar).images)
            except NotExtendable as exc:
                lifts[action] = exc
        lift = lifts[action]
        if isinstance(lift, NotExtendable):
            factorization_unique = False
            witnesses.setdefault("factorization", f"decompose failed on {phi.images}: {lift}")
            continue
        tau_bar, tau_bar_inv = lift
        pi = [tau_bar_inv[v] for v in phi.images]  # phi * inverse(tau_bar)
        tbi = tau_bar.images
        if (
            [block_of[v] for v in pi] != blocks_in_order
            or tau_bar not in h_bar
            or tuple([tbi[v] for v in pi]) != phi.images
        ):
            factorization_unique = False
            witnesses.setdefault("factorization", f"round trip failed on {phi.images}")

    return TheoremReport(
        order=n,
        psi_class_sizes=tuple(sorted(len(b) for b in psi.blocks)),
        aut_order=len(aut),
        h_order=len(h),
        g_order=predicted_g,
        identity_holds=identity_holds,
        g_is_normal=g_is_normal,
        intersection_trivial=intersection_trivial,
        factorization_unique=factorization_unique,
        transversal_used=t.representatives,
        witnesses=tuple(sorted(witnesses.items())),
    )
