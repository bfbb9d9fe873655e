"""Per-layer tracing from outside the program.

``Tracer.install`` swaps the public functions of each layer module of
``modcheck`` (and a few named methods) for wrappers.  The swap is made in
every ``modcheck.*`` namespace that binds the original object, so call
sites that did ``from .linalg import rref`` are caught as well.

Each wrapper opens a span on entry and closes it on exit.  Closed spans
are folded at once into per-name totals: calls, inclusive time (outermost
activation only, so recursion is not counted twice) and self time (the
span's duration minus the time its child spans cover).  Spans of the
benchmark's own work items are kept whole, with their start and end.  A
few wrappers also read counts off public return values, such as
``FiepReport.pairs_checked``; that bookkeeping runs outside every span
and lands in the unattributed remainder.

Deliberately not wrapped:
- private helpers (leading underscore): their time is charged to the
  public function that calls them;
- generator functions such as ``homs.enumerate_homs``, whose call returns
  before the work is done;
- lattice order queries (``leq``, ``join``, ``meet``, ``index_of``) and
  the ``full_index`` property, which run millions of times in one verify
  run; their time is charged to the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layer -> modules whose public functions belong to it
LAYER_MODULES = {
    "linalg": ("modcheck.linalg",),
    "modules": ("modcheck.modules",),
    "lattice": ("modcheck.lattice",),
    "properties": ("modcheck.properties",),
    "summands": ("modcheck.summands",),
    "theorems": ("modcheck.theorems",),
    "homs": ("modcheck.homs",),
    "endring": ("modcheck.endring",),
    "graphs": ("modcheck.graphs",),
    "exact": (
        "modcheck.exact.counterexample",
        "modcheck.exact.endos",
        "modcheck.exact.pruefer",
        "modcheck.exact.rationals",
        "modcheck.exact.ring",
        "modcheck.exact.zext",
    ),
    "verify": ("modcheck.verify",),
    "corpus": ("modcheck.corpus", "modcheck.io"),
}

# layer -> (module, class, method) triples wrapped on the class itself
LAYER_METHODS = {
    "modules": (
        ("modcheck.modules", "RepModule", "__post_init__"),
        ("modcheck.modules", "Submodule", "__post_init__"),
        ("modcheck.modules", "Submodule", "as_module"),
        ("modcheck.modules", "ModuleHom", "__post_init__"),
    ),
    "lattice": (
        ("modcheck.lattice", "SubmoduleLattice", "sum_is_proper"),
        ("modcheck.lattice", "SubmoduleLattice", "maximal_indices"),
        ("modcheck.lattice", "SubmoduleLattice", "atom_indices"),
    ),
    "summands": (("modcheck.summands", "Decomposition", "__post_init__"),),
}

LAYERS = tuple(LAYER_MODULES)
EXACT_CASES = (
    "exact.verify_direct_case",
    "exact.verify_partial_case",
    "exact.verify_graph_decomposition",
)


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # span name -> _Stat
        self.layer_of: dict = {}  # span name -> layer
        self.layer_depth = dict.fromkeys(LAYERS, 0)
        self.layer_incl = dict.fromkeys(LAYERS, 0.0)
        self.counts = {
            "lattice.members": 0,
            "summands.fiep.pairs": 0,
            "summands.fiep.max_pairs": 0,
            "summands.decompositions": 0,
            "theorems.triples": 0,
            "endring.ring_elements": 0,
            "exact.unresolved": 0,
        }
        self.distinct_modules: set = set()
        self.items: list = []  # (name, start, end) of the benchmark's work items
        self._stack: list = []  # child-time accumulators of the open spans
        self._hooks = {
            "lattice.enumerate_submodules": self._on_lattice,
            "summands.has_fiep": self._on_fiep,
            "theorems.square_lifting_criterion": self._on_theorem,
            "theorems.square_extending_criterion": self._on_theorem,
            "endring.endomorphism_ring": self._on_endring,
            **{name: self._on_case for name in EXACT_CASES},
        }

    # -- counts read off public return values ---------------------------------

    def _on_lattice(self, args, result):
        self.counts["lattice.members"] += len(result.members)
        self.distinct_modules.add(args[0])

    def _on_fiep(self, args, result):
        self.counts["summands.fiep.pairs"] += result.pairs_checked
        self.counts["summands.fiep.max_pairs"] = max(
            self.counts["summands.fiep.max_pairs"], result.pairs_checked
        )
        self.counts["summands.decompositions"] += len({d for _, d, _ in result.witnesses})

    def _on_theorem(self, args, result):
        self.counts["theorems.triples"] += len(result.outcomes)

    def _on_endring(self, args, result):
        self.counts["endring.ring_elements"] += result.size

    def _on_case(self, args, result):
        self.counts["exact.unresolved"] += len(result.unresolved)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        self.layer_of[name] = layer
        stack = self._stack
        layer_depth = self.layer_depth
        layer_incl = self.layer_incl
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            stat.depth += 1
            layer_depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat.depth -= 1
                layer_depth[layer] -= 1
                stat.calls += 1
                stat.self_s += dur - child[0]
                if stat.depth == 0:
                    stat.incl += dur
                if layer_depth[layer] == 0:
                    layer_incl[layer] += dur
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                h0 = clock()
                hook(args, result)
                if stack:  # keep the bookkeeping out of the caller's self time
                    stack[-1][0] += clock() - h0
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function in every modcheck namespace binding it."""
        namespaces = [m for n, m in sys.modules.items() if n.startswith("modcheck") and m]
        for layer, modnames in LAYER_MODULES.items():
            for modname in modnames:
                mod = sys.modules[modname]
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or not _is_traceable(obj, modname):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", layer, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                setattr(ns, key, wrapper)
        for layer, triples in LAYER_METHODS.items():
            for modname, clsname, meth in triples:
                cls = getattr(sys.modules[modname], clsname)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{layer}.{clsname}.{meth}", layer, orig))

    def item(self, name: str, fn):
        """Run one benchmark work item as a recorded top-level span."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.items.append((name, start, time.perf_counter()))

    # -- results ----------------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced region, which lasted ``wall_s``."""
        s = self._stat
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            self_by_layer[self.layer_of[name]] += stat.self_s
        out = {
            "summands.fiep.pairs": self.counts["summands.fiep.pairs"],
            "summands.fiep.max_pairs": self.counts["summands.fiep.max_pairs"],
            "summands.fiep.time_s": s("summands.has_fiep").incl,
            "summands.decompositions": self.counts["summands.decompositions"],
            "summands.summand_indices.calls": s("summands.summand_indices").calls,
            "lattice.enumerate.calls": s("lattice.enumerate_submodules").calls,
            "lattice.enumerate.distinct_modules": len(self.distinct_modules),
            "lattice.members": self.counts["lattice.members"],
            "lattice.enumerate.time_s": s("lattice.enumerate_submodules").incl,
            "lattice.sum_is_proper.calls": s("lattice.SubmoduleLattice.sum_is_proper").calls,
            "linalg.rref.calls": s("linalg.rref").calls,
            "linalg.rref.self_s": s("linalg.rref").self_s,
            "linalg.mat_mul.calls": s("linalg.mat_mul").calls,
            "modules.submodule.constructions": s("modules.Submodule.__post_init__").calls,
            "modules.quotient_module.calls": s("modules.quotient_module").calls,
            "properties.is_lifting.time_s": s("properties.is_lifting").incl,
            "properties.is_extending.time_s": s("properties.is_extending").incl,
            "properties.is_coessential.calls": s("properties.is_coessential").calls,
            "endring.ring_elements": self.counts["endring.ring_elements"],
            "endring.endomorphism_ring.time_s": s("endring.endomorphism_ring").incl,
            "endring.is_local.time_s": s("endring.is_local").incl,
            "homs.hom_space.calls": s("homs.hom_space").calls,
            "homs.hom_space.time_s": s("homs.hom_space").incl,
            "theorems.triples": self.counts["theorems.triples"],
            "theorems.time_s": self.layer_incl["theorems"],
            "graphs.homs_checked": s("graphs.graph_laws").calls,
            "graphs.time_s": self.layer_incl["graphs"],
            "exact.cases": sum(s(n).calls for n in EXACT_CASES),
            "exact.unresolved": self.counts["exact.unresolved"],
            "exact.case.time_s": sum(s(n).incl for n in EXACT_CASES),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(self_by_layer.values())
        return out

    def span_table(self) -> dict:
        """Per-name totals, for the trace file."""
        return {
            name: {
                "layer": self.layer_of[name],
                "calls": st.calls,
                "incl_s": st.incl,
                "self_s": st.self_s,
            }
            for name, st in sorted(self.stats.items())
            if st.calls
        }


def _is_traceable(obj, modname: str) -> bool:
    if getattr(obj, "__module__", None) != modname:
        return False
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    # functools.lru_cache wrappers (properties.lattice_of)
    return callable(obj) and not inspect.isclass(obj) and hasattr(obj, "__wrapped__")
