"""Per-layer spans recorded from outside reslat.

The tracer replaces reslat's public functions with timing wrappers. A
function may be bound under its name in several modules (``from .spectra
import prime_spectrum``), so every binding in every ``reslat.*`` module is
replaced. ``mp.FAMILIES`` holds direct references to the family functions
and is rebuilt with the wrapped ones.

Spans are kept in memory as flat arrays (name, parent, start, end) and
written out once, after the traced pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name); the span name is the layer and the function
TARGETS = (
    ("reslat.cli", "main", "cli.main"),
    ("reslat.latfile", "parse_document", "latfile.parse_document"),
    ("reslat.core", "from_order", "core.from_order"),
    ("reslat.core", "validate_axioms", "core.validate_axioms"),
    ("reslat.filters", "filter_lattice", "filters.filter_lattice"),
    ("reslat.filters", "quotient", "filters.quotient"),
    ("reslat.spectra", "prime_spectrum", "spectra.prime_spectrum"),
    ("reslat.spectra", "hull_kernel_topology", "spectra.hull_kernel_topology"),
    ("reslat.spectra", "prime_linkage", "spectra.prime_linkage"),
    ("reslat.coann", "skeleton", "coann.skeleton"),
    ("reslat.coann", "classify_baer_rickart", "coann.classify_baer_rickart"),
    ("reslat.purity", "omega_lattice", "purity.omega_lattice"),
    ("reslat.purity", "pure_spectrum", "purity.pure_spectrum"),
    ("reslat.purity", "pure_core", "purity.pure_core"),
    ("reslat.mp", "mp_check", "mp.mp_check"),
    ("reslat.enumerator", "bounded_lattices", "enumerator.bounded_lattices"),
    ("reslat.enumerator", "residuated_products", "enumerator.residuated_products"),
    ("reslat.enumerator", "enumerate_residuated", "enumerator.enumerate_residuated"),
)
# the entries of mp.FAMILIES, each traced as "mp.<family>"
FAMILIES = ("spectral", "algebraic", "quotient", "topological", "purity")

SPAN_NAMES = tuple(span for _, _, span in TARGETS) + tuple(f"mp.{f}" for f in FAMILIES)


def _replace_bindings(original, traced) -> int:
    """Point every name bound to ``original`` in a reslat module at ``traced``."""
    count = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "reslat" or modname.startswith("reslat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, traced)
                count += 1
    return count


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._cached = {}  # span name -> function carrying cache_info()
        self._cache_before = {}

    def wrap(self, span: str, fn):
        nid = self.names.index(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target; reslat.cli must already be imported."""
        for modname, attr, span in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            if _replace_bindings(original, self.wrap(span, original)) == 0:
                raise RuntimeError(f"{modname}.{attr}: no binding to trace")
            if hasattr(original, "cache_info"):
                self._cached[span] = original
        mp = sys.modules["reslat.mp"]
        families = []
        for family, fn in mp.FAMILIES:
            if family not in FAMILIES:
                raise RuntimeError(f"mp.FAMILIES has an unknown family {family!r}")
            traced = self.wrap(f"mp.{family}", fn)
            _replace_bindings(fn, traced)
            families.append((family, traced))
        if len(families) != len(FAMILIES):
            raise RuntimeError(f"mp.FAMILIES has {len(families)} families, not {len(FAMILIES)}")
        mp.FAMILIES = tuple(families)
        self._cache_before = {s: fn.cache_info() for s, fn in self._cached.items()}

    def summary(self, wall: float) -> dict:
        """Per span name: calls, total_s, self_s, cache_hits and cache_misses.

        total_s counts only the outermost span of a name, so recursion is
        not counted twice.  self_s is duration minus the child spans'
        durations.  cache_* are null for a function without cache_info().
        """
        k = len(self.names)
        n = len(self.start)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        covered = [0.0] * n
        ancestors = [0] * n  # bitmask of the span names above each span
        name, parent, start, end = self.name, self.parent, self.start, self.end
        product_times = []
        products = self.names.index("enumerator.residuated_products")
        for i in range(n):
            d = end[i] - start[i]
            nm, p = name[i], parent[i]
            if p >= 0:
                covered[p] += d
                ancestors[i] = ancestors[p] | 1 << name[p]
            calls[nm] += 1
            if not ancestors[i] >> nm & 1:
                total[nm] += d
            if nm == products:
                product_times.append(d)
        for i in range(n):
            own[name[i]] += end[i] - start[i] - covered[i]
        layers = {}
        for j, span in enumerate(self.names):
            row = {"calls": calls[j], "total_s": total[j], "self_s": own[j],
                   "cache_hits": None, "cache_misses": None}
            if span in self._cached:
                after, before = self._cached[span].cache_info(), self._cache_before[span]
                row["cache_hits"] = after.hits - before.hits
                row["cache_misses"] = after.misses - before.misses
            layers[span] = row
        covered_s = sum(own)
        return {
            "layers": layers,
            "spans": n,
            "covered_s": covered_s,
            "coverage": covered_s / wall if wall > 0 else 0.0,
            "products_max_share": (
                max(product_times) / sum(product_times) if sum(product_times) > 0 else 0.0
            ),
        }

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
