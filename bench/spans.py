"""Span tracing of the zonegraph modules, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records a span: name, start, end, parent span and operation
id. The wrapper is bound wherever the original is, so calls through
`from .x import f` names are traced too. Aggregates (calls, inclusive time,
self time) cover every span; the span list itself is kept in memory up to
SPAN_CAP entries and written out once, after the run.

Self time is a span's duration minus the time its child spans cover. Calls
are nested on one thread, so children never overlap and that time is the
sum of their durations.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

PACKAGE = "zonegraph"
LAYERS = ("sim", "embedding", "graph", "controller", "nn", "policy", "metrics", "cli")
ROOT_SPAN = "bench.round"
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, op_boundary: str | None = None, only: frozenset | None = None):
        self.only = only  # trace just these functions; None traces every public one
        self.op_boundary = op_boundary  # a span of this name starts a new operation
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.spans: list[tuple] = []  # (span id, name id, start, end, parent id, op id)
        self.dropped = 0
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self.installed = False

    # -- registry -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _targets(self):
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and (self.only is None or name in self.only)):
                    yield name, obj

    # -- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        starts_op = name == self.op_boundary
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if starts_op:
                self.op_id += 1
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[2]
                parent = -1
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, nid, frame[1], end, parent, self.op_id))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def run(self, name: str, thunk):
        """Call `thunk()` inside a span the benchmark opens itself."""
        w = self._wrappers.get(name)
        if w is None:
            w = self._wrappers[name] = self._wrap(name, lambda f: f())
        return w(thunk)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        if not self._originals:
            for name, fn in self._targets():
                self._originals[name] = fn
                self._wrappers[name] = self._wrap(name, fn)
        by_original = {id(self._originals[n]): self._wrappers[n] for n in self._originals}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                w = by_original.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    setattr(mod, attr, w)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        by_wrapper = {id(self._wrappers[n]): self._originals[n] for n in self._originals}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                o = by_wrapper.get(id(obj))
                if o is not None:
                    setattr(mod, attr, o)
        self.installed = False

    # -- results --------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """name -> {calls, total_s, self_s}."""
        return {name: {"calls": self.calls[i], "total_s": self.total[i],
                       "self_s": self.self_time[i]} for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"record": "meta", "spans": len(self.spans),
                                 "dropped": self.dropped, "span_cap": SPAN_CAP}) + "\n")
            for sid, nid, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": self.names[nid], "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
