"""Span tracing of aritygap's layers from outside the package.

:meth:`Tracer.install` replaces, in each aritygap module, every function that
module imports from another aritygap module by a wrapper that records a
span, so a span marks a call across a layer boundary (for example
``aritygap.suites.spec_ess_gap`` is recorded as ``enumeration.spec_ess_gap``).
It also traces ``FiniteFunction.__init__`` (layer ``core``), the public
functions the CLI reaches through ``aritygap.documents``, the two
subfunction-closure paths, and the lifetime of every ``ProcessPoolExecutor``
(layer ``pool``). The benchmark opens the root span of each op around its
own call of ``aritygap.cli.main``.

A span is (id, name, parent id, op id, start, end). Spans nest strictly (one
thread, one call stack), so a span's self time is its duration minus the
durations of its children; self time, call count, total and longest
duration are accumulated per name for every span. The first ``SPAN_CAP``
spans are also kept in memory and written out by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

SPAN_CAP = 1_000_000
LAYERS = ("core", "minors", "subfunctions", "symmetric", "enumeration",
          "suites", "documents", "cli", "pool")
_MODULES = ("core", "minors", "subfunctions", "symmetric", "enumeration",
            "suites", "documents", "cli")
# Intra-module calls worth a span of their own: the closure computations
# behind the subfunction cache (``subfunctions.closure_ms``).
_OWN_CALLS = (("subfunctions", "_closure_symmetric"), ("subfunctions", "_closure_generic"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.max_s: list[float] = []
        self.calls: list[int] = []
        self.op = -1
        self.count = 0
        self._stack: list[list] = []
        self._rec = {key: array(code) for key, code in (
            ("id", "i"), ("name", "i"), ("parent", "i"), ("op", "i"),
            ("start", "d"), ("end", "d"))}
        self._undo: list[tuple] = []

    def name_id(self, name: str, layer: str) -> int:
        """The id of a span name; one function imported by several modules
        keeps one name, so its figures add up."""
        if name in self._ids:
            return self._ids[name]
        self._ids[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        for acc, zero in ((self.self_s, 0.0), (self.total_s, 0.0),
                          (self.max_s, 0.0), (self.calls, 0)):
            acc.append(zero)
        return len(self.names) - 1

    def begin(self, nid: int):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self.count, nid, parent, perf_counter(), 0.0])
        self.count += 1

    def end(self):
        t1 = perf_counter()
        sid, nid, parent, t0, child = self._stack.pop()
        dur = t1 - t0
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if dur > self.max_s[nid]:
            self.max_s[nid] = dur
        if self._stack:
            self._stack[-1][4] += dur
        if sid < SPAN_CAP:
            rec = self._rec
            rec["id"].append(sid)
            rec["name"].append(nid)
            rec["parent"].append(parent)
            rec["op"].append(self.op)
            rec["start"].append(t0)
            rec["end"].append(t1)

    def wrap(self, fn, name: str, layer: str):
        nid = self.name_id(name, layer)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def _patch(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer boundaries of the imported aritygap package."""
        mods = {name: importlib.import_module(f"aritygap.{name}") for name in _MODULES}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.ismodule(obj) and obj.__name__.startswith("aritygap."):
                    # e.g. the CLI's ``docs.load_function``
                    layer = obj.__name__.split(".")[1]
                    for fattr, fobj in list(vars(obj).items()):
                        if (not fattr.startswith("_") and inspect.isfunction(fobj)
                                and fobj.__module__ == obj.__name__):
                            self._patch(obj, fattr, self.wrap(fobj, f"{layer}.{fattr}", layer))
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if origin.startswith("aritygap.") and origin != mod.__name__:
                    layer = origin.split(".")[1]
                    self._patch(mod, attr, self.wrap(obj, f"{layer}.{attr}", layer))
            pool = vars(mod).get("ProcessPoolExecutor")
            if pool is not None:
                self._patch(mod, "ProcessPoolExecutor", self._traced_pool(pool, name))
        for name, attr in _OWN_CALLS:
            fn = getattr(mods[name], attr, None)
            if fn is not None:
                self._patch(mods[name], attr, self.wrap(fn, f"{name}.{attr}", name))
        cls = mods["core"].FiniteFunction
        self._patch(cls, "__init__", self.wrap(cls.__init__, "core.FiniteFunction", "core"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _traced_pool(self, base, caller: str):
        nid = self.name_id(f"pool.{caller}", "pool")
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.begin(nid)
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end()

        return TracedPool

    def summary(self) -> dict:
        """Per-name and per-layer aggregates, JSON-ready."""
        by_name = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            by_name[name] = {"layer": self.layer_of[nid], "calls": self.calls[nid],
                             "self_s": self.self_s[nid], "total_s": self.total_s[nid],
                             "max_s": self.max_s[nid]}
            layer_self[self.layer_of[nid]] += self.self_s[nid]
        return {"spans": self.count, "kept": min(self.count, SPAN_CAP),
                "names": by_name, "layer_self_s": layer_self}

    def save(self, path: str):
        """Write the kept spans as a compressed numpy archive."""
        import numpy as np

        cols = {key: np.frombuffer(arr, dtype=arr.typecode) for key, arr in self._rec.items()}
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_of), **cols)
