"""Timing spans around the library's public functions, installed from outside.

``Tracer.install`` wraps every public function (and every public method of
the classes) that the layer modules define, then puts the wrapper in place
of the original wherever a layer module or the package namespace holds it,
so calls made through ``from .x import y`` names are timed too.  Nothing in
the library is edited on disk.

Each span has a name, start, end, the span that caused it, and the
benchmark operation it belongs to.  Per-name totals (calls, inclusive and
self time) are kept for every span, as the span closes; the raw spans are
kept in memory up to ``MAX_SPANS`` and written out by ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
from time import perf_counter

LAYERS = ("cli", "model", "expmix", "scale", "laws", "control", "mc")
_DUNDER = ("__call__", "__add__", "__sub__")
MAX_SPANS = 100_000
CAPTURED = ("mc.default_horizon",)      # names whose return values are kept
GROUPED = ("mc",)                       # layers whose totals are also kept per operation group


class Tracer:
    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.thread = threading.get_ident()     # spans are recorded on this thread only
        self.op_id = -1
        self.op_group = ""
        self.stack = []             # open frames: [start, child_time, layer, span_index]
        self.stats = {}             # name -> [calls, total, self_time]
        self.group_stats = {}       # (name, group) -> [calls, total, self_time]
        self.outer = {}             # layer -> [calls, total] of its outermost spans
        self.captured = {}          # name -> list of return values
        self.names = []
        self.spans = []             # [name_id, start, end, parent_index, op_id]
        self.dropped = 0
        self._patches = []          # (owner, attribute, original)

    # -- installation -----------------------------------------------------
    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", layer, obj))
        owners = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(owner, attr, wrappers[id(obj)][1])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDER:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, layer, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, layer, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, layer, raw))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap(self, name, layer, fn):
        tracer = self
        capture = name in CAPTURED
        grouped = layer in GROUPED
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        outer = self.outer.setdefault(layer, [0, 0.0])
        stack, spans = self.stack, self.spans
        get_ident, main_thread = threading.get_ident, self.thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or get_ident() != main_thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = -1
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append([nid, 0.0, 0.0, parent[3] if parent else -1, tracer.op_id])
            else:
                tracer.dropped += 1
            frame = [perf_counter(), 0.0, layer, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                self_time = dur - frame[1]
                st[0] += 1
                st[1] += dur
                st[2] += self_time
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[2] != layer:
                    outer[0] += 1
                    outer[1] += dur
                if index >= 0:
                    spans[index][1] = frame[0]
                    spans[index][2] = end
                if grouped:
                    gs = tracer.group_stats.setdefault((name, tracer.op_group), [0, 0.0, 0.0])
                    gs[0] += 1
                    gs[1] += dur
                    gs[2] += self_time
            if capture:
                tracer.captured.setdefault(name, []).append(result)
            return result
        return wrapper

    def begin_op(self, op_id: int, group: str):
        self.op_id, self.op_group = op_id, group

    # -- summaries --------------------------------------------------------
    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name=None, layer=None):
        """Self time of one name, or of every name of a layer."""
        if name is not None:
            return self.stats.get(name, [0, 0.0, 0.0])[2]
        return sum(st[2] for n, st in self.stats.items() if n.startswith(layer + "."))

    def group_mean(self, name, group):
        calls, total, _ = self.group_stats.get((name, group), [0, 0.0, 0.0])
        return total / calls if calls else 0.0

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": self.names,
                       "dropped": self.dropped, "spans": self.spans}, fh)
