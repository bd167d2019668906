"""Outside-in span tracer for the traced benchmark run.

``Tracer.install()`` replaces every public function of the varword
layer modules at each module-global binding of it across ``varword.*``
(and every public method of the public classes those modules define)
with a wrapper that records a span.  Calls from one layer into another
therefore land as nested spans.  The untraced runs never construct a
Tracer, so they call the program unwrapped.

Only calls made inside a benchmark operation (a ``Tracer.span``) are
recorded, so input construction and output checks between operations
are not charged to any layer.  Spans are (name, start, end, parent) rows
kept in flat arrays in memory and written out once, at the end, with
``Tracer.save``.  A layer's self
time is the duration of its spans minus the part covered by their child
spans.  The tracer is single-threaded: ``uninstall()`` it before running
anything with ``workers > 1``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "words", "trees", "largeness", "colorings", "search", "prehomog",
    "cdrt", "henson", "certificates", "_kernels", "sweeps", "cli",
)

# dunder methods that are a class's public lookup interface
_PUBLIC_DUNDERS = ("__call__", "__contains__")


def _layer_functions(mod, layer):
    """(qualified name, owner, attribute, raw function, kind) for the layer's public API."""
    out = []
    seen = set()
    for name, obj in vars(mod).items():
        if name.startswith("_") or id(obj) in seen:
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            seen.add(id(obj))
            out.append((f"{layer}.{name}", mod, name, obj, "function"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    fn, kind = raw.__func__, type(raw).__name__
                elif inspect.isfunction(raw):
                    fn, kind = raw, "method"
                else:
                    continue  # properties and plain attributes
                out.append((f"{layer}.{name}.{attr}", obj, attr, fn, kind))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls = array("q")
        self.start = array("d")
        self.end = array("d")
        self.sid = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped = 0

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, sid):
        start, end, ids, parent, stack, calls = (
            self.start, self.end, self.sid, self.parent, self._stack, self.calls,
        )
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so lazy iteration is charged to the
            # generator while the caller's own work between items is not
            def gen_wrapper(*args, **kwargs):
                if len(stack) > 1:
                    calls[sid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        if len(stack) == 1:
                            try:
                                item = next(it)
                            except StopIteration as stop:
                                return stop.value
                            yield item
                            continue
                        i = len(start)
                        ids.append(sid)
                        parent.append(stack[-1])
                        end.append(0.0)
                        stack.append(i)
                        start.append(clock())
                        try:
                            item = next(it)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            end[i] = clock()
                            stack.pop()
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if len(stack) == 1:  # outside any operation
                return fn(*args, **kwargs)
            calls[sid] += 1
            i = len(start)
            ids.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str):
        """Context manager for a benchmark-side root span (one operation)."""
        return _Span(self, name)

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public API of every layer, recording how many bindings were replaced."""
        mods = {layer: importlib.import_module(f"varword.{layer}") for layer in LAYERS}
        wrapped = {}  # id(raw function) -> wrapper
        for layer, mod in mods.items():
            for qual, owner, attr, fn, kind in _layer_functions(mod, layer):
                w = self._wrap(fn, self.name_id(qual, layer))
                if kind == "function":
                    wrapped[id(fn)] = w
                    continue
                # classes are shared by every importer, so one rebinding covers all
                new = {"classmethod": classmethod, "staticmethod": staticmethod}.get(kind, lambda f: f)(w)
                self._patch(owner, attr, new)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "varword" or modname.startswith("varword.")) or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)
        self.wrapped = len(self._patches)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self):
        """(name id, parent, duration, self time) per span, as copies."""
        sid = np.array(self.sid, np.int32)
        parent = np.array(self.parent, np.int32)
        dur = np.array(self.end, np.float64) - np.array(self.start, np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return sid, parent, dur, dur - child

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.sid, np.int32),
            start=np.array(self.start, np.float64),
            end=np.array(self.end, np.float64),
            parent=np.array(self.parent, np.int32),
        )


class _Span:
    __slots__ = ("tracer", "sid", "i")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        if name not in tracer.names:
            tracer.name_id(name, "bench")
        self.sid = tracer.names.index(name)

    def __enter__(self):
        t = self.tracer
        t.calls[self.sid] += 1
        self.i = len(t.start)
        t.sid.append(self.sid)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(self.i)
        t.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = time.perf_counter()
        t._stack.pop()
        return False
