"""In-memory spans around calls into the rhkljn modules, recorded from outside.

The tracer replaces module attributes at the name the caller looks up (for
example ``protocol.substream``, not ``rng.substream``) with wrappers that
open a span, call through and close it.  Spans live in a list until the
run ends; each has a name, a start, an end and the index of the span that
was open when it started, so a layer's self time is its duration minus the
time covered by its children.

Only the process that installed the wrappers records.  Worker processes of
a pool inherit the wrappers through ``fork`` and call straight through, so
spans of work done inside workers are not recorded.

A wrapped name that no longer exists, or a counter hook that fails, never
stops the run: the layer is listed in ``missing``/``broken`` with a warning
and every metric that depends on it is left out.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, rep]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self.rep = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, self.rep])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        # a span closed out of order (an exception unwinding several
        # levels) also closes whatever it left open above it
        while self._stack and self._stack.pop() != idx:
            pass

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def count(self, layer: str, hook, *hook_args) -> None:
        """Add the ``{counter: increment}`` dict from ``hook(*hook_args)`` to this rep's counters.

        A failing hook marks ``layer`` broken, so its counters are left out.
        """
        if layer in self.broken:
            return
        try:
            increments = hook(*hook_args)
        except Exception as exc:  # the program changed shape; never stop the run
            self.broken.add(layer)
            print(f"warning: counters of {layer} disabled ({type(exc).__name__}: {exc})", file=sys.stderr)
            return
        for key, value in increments.items():
            self.counts[self.rep][key] += value

    # -- patching ------------------------------------------------------
    def wrap(self, module, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper.

        ``on_call(arguments)`` (a name-to-value dict with defaults applied)
        and ``on_result(result)`` return counter increments; they run
        outside the span.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
            print(f"warning: {module.__name__}.{attr} not found; layer {name} is absent", file=sys.stderr)
            return
        sig = None
        if on_call is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                self.broken.add(name)
                on_call = None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            if on_call is not None:
                tracer.count(name, _bind_then, sig, on_call, args, kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if on_result is not None:
                tracer.count(name, on_result, result)
            return result

        self._patch(module, attr, wrapper)

    def wrap_pool(self, module, attr: str, name: str) -> None:
        """Replace an executor class by a subclass spanning construction to shutdown."""
        base = getattr(module, attr, None)
        if not isinstance(base, type):
            self.missing.add(name)
            print(f"warning: {module.__name__}.{attr} not found; layer {name} is absent", file=sys.stderr)
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._bench_span = tracer.open(name) if tracer._active() else None
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_span is not None:
                        tracer.close(self._bench_span)
                        self._bench_span = None

        self._patch(module, attr, TracedPool)

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------
    def rep_summary(self, rep: int) -> dict[str, dict]:
        """Per span name over the spans of one rep: calls, total and self
        seconds, and how many of its calls sat under each parent span name."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, r in self.spans:
            if r == rep and parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, parent, r) in enumerate(self.spans):
            if r != rep or end is None:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under": defaultdict(int)})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
            agg["under"][self.spans[parent][0] if parent >= 0 else None] += 1
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, rep, start, end, parent."""
        import json

        with open(path, "w") as fh:
            for name, start, end, parent, rep in self.spans:
                fh.write(json.dumps({"name": name, "rep": rep, "start": start, "end": end, "parent": parent}) + "\n")


def _bind_then(sig, hook, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return hook(bound.arguments)
