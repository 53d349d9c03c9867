"""Per-layer self time and counts, from spans around finsemi's public functions.

The wrappers live here, in the benchmark; finsemi is not changed.  A name
is patched in every module that binds it, because theorem.py, cli.py and
enumeration.py import their own references at import time.  A layer's self
time is its span minus the spans of the layers it called.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns

# (module, function, layer).  Functions sharing a layer nest harmlessly:
# the inner span's time is subtracted from the outer one's self time.
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "parse_table", "core.parse"),
    ("cli", "compute_h", "core.partition"),
    ("cli", "compute_psi", "core.partition"),
    ("theorem", "compute_h", "core.partition"),
    ("theorem", "compute_psi", "core.partition"),
    ("core", "compute_h", "core.partition"),
    ("cli", "choose_transversal", "inflation.retraction"),
    ("cli", "induced_retraction", "inflation.retraction"),
    ("cli", "verify_inflation", "inflation.retraction"),
    ("theorem", "choose_transversal", "inflation.retraction"),
    ("theorem", "induced_retraction", "inflation.retraction"),
    ("theorem", "verify_inflation", "inflation.retraction"),
    ("theorem", "verify_kernel_in_h", "inflation.retraction"),
    ("theorem", "restrict_to_subsemigroup", "inflation.retraction"),
    ("inflation", "build_inflation", "inflation.build"),
    ("cli", "build_inflation", "inflation.build"),
    ("cli", "enumerate_automorphisms", "automorphisms.search"),
    ("theorem", "enumerate_automorphisms", "automorphisms.search"),
    ("automorphisms", "group_axiom_witness", "automorphisms.group_axioms"),
    ("theorem", "subgroup_checks", "automorphisms.subgroup_checks"),
    ("theorem", "psi_class_group", "theorem.class_group"),
    ("theorem", "extendable_automorphisms", "theorem.extendable"),
    ("theorem", "extension_scheme", "theorem.lift"),
    ("theorem", "embed_h", "theorem.lift"),
    ("theorem", "extend_automorphism", "theorem.lift"),
    ("theorem", "decompose_automorphism", "theorem.decompose"),
    ("cli", "verify_theorem", "theorem.checks"),
    ("enumeration", "verify_theorem", "theorem.checks"),
    ("enumeration", "canonicalize", "enumeration.canonicalize"),
    ("cli", "corpus_verify", "enumeration.corpus"),
)
# Generators: one span per next(), so canonicalize nests inside the fill.
GENERATOR_SPANS = (
    ("cli", "enumerate_semigroups", "enumeration.fill"),
    ("enumeration", "enumerate_semigroups", "enumeration.fill"),
)
# Counted without a span: a span per call would cost more than compose does.
COUNTED = (
    ("automorphisms", "compose", "compose"),
    ("theorem", "compose", "compose"),
)


class Tracer:
    """Swaps wrapped functions into finsemi's modules and adds up spans."""

    def __init__(self, finsemi):
        self.modules = {name: getattr(finsemi, name) for name in
                        ("cli", "core", "inflation", "automorphisms", "theorem", "enumeration")}
        self.patches = []
        for mod, fn, layer in SPANS:
            self._add(mod, fn, self._span(layer, getattr(self.modules[mod], fn)))
        for mod, fn, layer in GENERATOR_SPANS:
            self._add(mod, fn, self._generator(layer, getattr(self.modules[mod], fn)))
        for mod, fn, key in COUNTED:
            self._add(mod, fn, self._counted(key, getattr(self.modules[mod], fn)))
        self.reset()

    def _add(self, mod, fn, wrapper):
        self.patches.append((self.modules[mod], fn, getattr(self.modules[mod], fn), wrapper))

    def install(self):
        for module, name, _, wrapper in self.patches:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self.patches:
            setattr(module, name, original)

    def reset(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = []

    def _enter(self, layer):
        self.calls[layer] += 1
        self.stack.append([0])
        return perf_counter_ns()

    def _exit(self, layer, t0):
        span = perf_counter_ns() - t0
        children = self.stack.pop()[0]
        self.self_ns[layer] += span - children
        if self.stack:
            self.stack[-1][0] += span

    def _span(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)
            self._observe(layer, args, result)
            return result

        return wrapper

    def _generator(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(layer, t0)
                self.counts["yielded"] += 1
                yield item

        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.counts[key] += 1
            return fn(*args)

        return wrapper

    def _observe(self, layer, args, result):
        if layer == "automorphisms.search":
            self.counts["found"] += len(result)
        elif layer == "theorem.checks":
            self.counts["aut_order_sum"] += result.aut_order
            self.counts["g_order_sum"] += result.g_order
        elif layer == "enumeration.canonicalize":
            self.counts["canon_kept"] += result == args[0]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced since the last reset."""
        s = {k: v / 1e9 for k, v in self.self_ns.items()}
        c, n = self.calls, self.counts
        canon_calls = c["enumeration.canonicalize"]
        return {
            "cli.self_s": s.get("cli", 0.0),
            "core.parse_s": s.get("core.parse", 0.0),
            "core.parse_calls": c["core.parse"],
            "core.partition_s": s.get("core.partition", 0.0),
            "core.partition_calls": c["core.partition"],
            "inflation.retraction_s": s.get("inflation.retraction", 0.0),
            "automorphisms.search_s": s.get("automorphisms.search", 0.0),
            "automorphisms.search_calls": c["automorphisms.search"],
            "automorphisms.found": n["found"],
            "automorphisms.group_axioms_s": s.get("automorphisms.group_axioms", 0.0),
            "automorphisms.group_axioms_calls": c["automorphisms.group_axioms"],
            "automorphisms.subgroup_checks_s": s.get("automorphisms.subgroup_checks", 0.0),
            "automorphisms.compose_calls": n["compose"],
            "theorem.class_group_s": s.get("theorem.class_group", 0.0),
            "theorem.extendable_s": s.get("theorem.extendable", 0.0),
            "theorem.lift_s": s.get("theorem.lift", 0.0),
            "theorem.decompose_s": s.get("theorem.decompose", 0.0),
            "theorem.decompose_calls": c["theorem.decompose"],
            "theorem.checks_self_s": s.get("theorem.checks", 0.0),
            "theorem.aut_order_sum": n["aut_order_sum"],
            "theorem.g_order_sum": n["g_order_sum"],
            "enumeration.fill_s": s.get("enumeration.fill", 0.0),
            # every leaf of the fill is either yielded or dropped by canonicalize
            "enumeration.leaves": n["yielded"] + canon_calls - n["canon_kept"],
            "enumeration.canonicalize_s": s.get("enumeration.canonicalize", 0.0),
            "enumeration.canonicalize_calls": canon_calls,
            "enumeration.canon_keep_ratio": n["canon_kept"] / canon_calls if canon_calls else 0.0,
            "enumeration.corpus_self_s": s.get("enumeration.corpus", 0.0),
        }
