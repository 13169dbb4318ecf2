"""Per-layer spans around osgkit's public functions, installed from outside.

Each traced function is replaced, in every loaded ``osgkit`` module that
binds it, by a wrapper that records calls, inclusive seconds (outermost
activation only, so recursion is not counted twice) and self seconds (span
minus the spans of traced callees).  ``theorems``, ``properties`` and
``relations`` import these functions by name, which is why every module's
binding is patched and not only the defining one.  Catalog conditions are
wrapped through the ``CONDITIONS`` registry, one span name per condition
id, and ``check_theorem`` gets one span name per grouping.  Hit ratios of
``lru_cache``d functions come from ``cache_info()`` deltas.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

# layer (osgkit module) -> traced public functions
LAYERS = {
    "kernel": ("enumerate_valid_tables", "enumerate_assoc_tables", "canonical_key"),
    "enumeration": (
        "enumerate_partial_orders",
        "enumerate_ordered_semigroups",
        "write_corpus",
        "read_corpus",
    ),
    "structure": ("canonical_form", "is_valid", "from_flat", "parse_structure"),
    "subsets": ("downward_closure", "subset_product", "principal_ideal"),
    "relations": (
        "greens_relations",
        "least_complete_semilattice_congruence",
        "is_congruence",
    ),
    "properties": (
        "regularity",
        "inverses_of",
        "is_inverse_ordered",
        "generator_uniqueness",
        "h_commutes",
        "ordered_idempotents",
    ),
    "theorems": ("check_theorem", "sweep"),
    "cli": ("main",),
}


class _Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "results")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.results = 0  # items returned (list length) or yielded


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []  # child seconds of each open span
        self._caches: dict[str, tuple[object, object]] = {}

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _enter(self, stat: _Stat) -> None:
        stat.depth += 1
        self._stack.append(0.0)

    def _leave(self, stat: _Stat, elapsed: float) -> None:
        stack = self._stack
        stat.self_s += elapsed - stack.pop()
        stat.depth -= 1
        if stat.depth == 0:
            stat.s += elapsed
        if stack:
            stack[-1] += elapsed

    def wrap(self, fn, name: str, split_by_arg: int | None = None, count_results=False):
        """A traced stand-in for ``fn``; ``split_by_arg`` names the span by
        that positional argument, as in ``check_theorem.<grouping>``."""
        clock = time.perf_counter
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            stat = self._stat(name)

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)  # runs none of the body yet
                while True:  # one span per resume
                    enter(stat)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(stat, clock() - t0)
                    stat.results += 1
                    yield item

            return traced_gen

        fixed = None if split_by_arg is not None else self._stat(name)
        stat_of = self._stat

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat = fixed or stat_of(f"{name}.{args[split_by_arg]}")
            stat.calls += 1
            enter(stat)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(stat, clock() - t0)
            if count_results:
                stat.results += len(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every osgkit module's bindings of the traced functions."""
        replacements = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"osgkit.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                name = f"{layer}.{fname}"
                if hasattr(fn, "cache_info"):
                    self._caches[name] = (fn, fn.cache_info())
                replacements[id(fn)] = (fn, self.wrap(
                    fn,
                    name,
                    split_by_arg=1 if fname == "check_theorem" else None,
                    count_results=fname == "enumerate_valid_tables",
                ))
        for modname, module in list(sys.modules.items()):
            if modname != "osgkit" and not modname.startswith("osgkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        theorems = importlib.import_module("osgkit.theorems")
        for tid in theorems.THEOREMS:
            self._stat(f"theorems.check_theorem.{tid}")
        for cid, condition in list(theorems.CONDITIONS.items()):
            theorems.CONDITIONS[cid] = dataclasses.replace(
                condition, fn=self.wrap(condition.fn, f"theorems.condition.{cid}")
            )

    def report(self) -> dict[str, dict[str, float]]:
        out = {
            name: {"calls": st.calls, "s": st.s, "self_s": st.self_s, "results": st.results}
            for name, st in self.stats.items()
        }
        # cache hits and lookups, summed over a pass before taking the ratio
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            hits = after.hits - before.hits
            out[name]["hits"] = hits
            out[name]["lookups"] = hits + after.misses - before.misses
        return out
