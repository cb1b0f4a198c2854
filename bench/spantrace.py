"""In-memory span tracer that wraps polylcm's public functions from outside.

Inside a ``with SpanTracer() as tracer:`` block every public module-level
function of the traced modules (and every public method of ``RootTable``)
is replaced by a wrapper that records one span per call: its name, the
enclosing span, and its start and end on ``time.perf_counter``.  A wrapped
function is rebound at *every* polylcm module attribute that holds it, so
``decomp.build_ledgers`` and ``valengine.build_ledgers`` both record, and
so do ``ensemble.roots_mod_p`` and ``modroots.roots_mod_p``.  Leaving the
block restores every attribute to the original function object.

Spans are kept in flat arrays, so a traced run of a few hundred thousand
calls costs a few megabytes.  A span's self time is its duration minus
the durations of its direct children; the process is single-threaded, so
children never overlap.  A few counters are read at the same boundaries
from call arguments and return values (see ``_HOOKS``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

PACKAGE = "polylcm"
MODULES = ("ntkernel", "polyring", "modroots", "valengine", "decomp", "ensemble", "cli")
METHOD_CLASSES = {"modroots": ("RootTable",)}


def _count_cofactors(tracer, args, kwargs, result):
    # build_ledgers returns (alpha, beta, cofactors): one cofactor per n.
    tracer.add("valengine.build_ledgers.cofactors_gt1", sum(1 for c in result[2] if c > 1))


def _count_cz(tracer, args, kwargs, result):
    # roots_mod_p(f, p, seed): primes at or above the brute-force limit go
    # through Cantor-Zassenhaus splitting.
    p = args[1] if len(args) > 1 else kwargs["p"]
    limit = sys.modules[f"{PACKAGE}.modroots"].BRUTE_FORCE_LIMIT
    tracer.add("modroots.roots_mod_p.cz_calls", int(p >= limit))


def _count_table_lookup(tracer, args, kwargs, result):
    # RootTable.roots(self, a, p): the first lookup of a (table, p) pair is
    # the one that builds the per-prime table.
    table = args[0]
    p = args[2] if len(args) > 2 else kwargs["p"]
    seen = tracer.table_primes.setdefault(table, set())
    if p not in seen:
        seen.add(p)
        tracer.add("modroots.RootTable.first_sightings", 1)


_HOOKS = {
    "valengine.build_ledgers": _count_cofactors,
    "modroots.roots_mod_p": _count_cz,
    "modroots.RootTable.roots": _count_table_lookup,
}


class SpanTracer:
    """Records spans for calls into polylcm while active (a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.table_primes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def __enter__(self) -> SpanTracer:
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- patching ---------------------------------------------------------

    def _install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        methods = []
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if _public_function(attr, obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
            for cls_name in METHOD_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if _public_function(attr, obj):
                        methods.append((cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", obj)))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for cls, attr, wrapper in methods:
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        name_id, parent, stack = self.name_id, self.parent, self._stack
        start, end = self.start, self.end
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            i = len(end)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- reading ----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.end)

    def span_name(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> array:
        """Duration of each span minus the durations of its direct children."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time in seconds."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for ident, st in zip(self.name_id, self.self_times()):
            calls[ident] += 1
            self_s[ident] += st
        return {
            name: {"calls": calls[k], "self_s": self_s[k]} for k, name in enumerate(self.names)
        }


def _public_function(attr: str, obj) -> bool:
    return not attr.startswith("_") and inspect.isfunction(obj)
