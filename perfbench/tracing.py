"""In-memory spans and counters around the library's public functions.

`Tracer.install` replaces a function wherever callers look it up: in the
module that defines it and in every `exitsteal` module that imported the
name (for example `experiment` imports `train_substitute`). `uninstall`
puts the originals back. Nothing is wrapped unless a traced run asks for it.

A span is (name, start, end, parent index); a layer's self time is its
spans' durations minus the time covered by their direct children. Peak
allocation is measured by replaying a function's first call under
tracemalloc after the traced pass, so the spans' times carry none of
tracemalloc's cost.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

_MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._training = 0
        self._alloc_calls: dict[str, tuple] = {}

    # -- recording ---------------------------------------------------------

    def _failed(self, layer: str, exc: BaseException) -> None:
        # an exception passing through nested wrappers counts once, at the
        # innermost layer that raised it
        if not getattr(exc, "_perfbench_counted", False):
            self.counts[f"{layer}.failed"] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    def span(self, name, fn, *, layer=None, hook=None, alloc=False, training=False, label=None):
        """Wrap `fn` so each call records a span. `label(args)` may refine
        the span name from the call's arguments; `hook(result, args)` sees
        the result; `alloc` keeps the first call for `measure_allocations`."""
        layer = layer or name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = label(args) if label else name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span_name, time.perf_counter(), None, parent]
            tracer.spans.append(record)
            tracer._stack.append(index)
            tracer._training += training
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._failed(layer, exc)
                raise
            finally:
                tracer._training -= training
                tracer._stack.pop()
                record[2] = time.perf_counter()
            if alloc and span_name not in tracer._alloc_calls:
                tracer._alloc_calls[span_name] = (fn, args, kwargs)
            if hook:
                hook(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        """Wrap `fn` so each call only bumps counters (for ops called
        hundreds of thousands of times, where a span would cost too much)."""
        layer = name.split(".", 1)[0]
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if tracer._training:
                counts["numerics.train_ops"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._failed(layer, exc)
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def measure_allocations(self) -> None:
        """Replay each kept call under tracemalloc; records
        `<span name>.peak_alloc_mb` in `maxima`."""
        for name, (fn, args, kwargs) in self._alloc_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.maxima[f"{name}.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / _MB
            finally:
                tracemalloc.stop()

    # -- patching ------------------------------------------------------------

    def install(self, module, attr: str, make_wrapper) -> None:
        """Replace `module.attr` and every alias of it in loaded exitsteal
        modules with `make_wrapper(original)`."""
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        owners = [module] + [
            mod
            for key, mod in list(sys.modules.items())
            if key.startswith("exitsteal")
            and mod is not module
            and getattr(mod, attr, None) is original
        ]
        for owner in owners:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def install_method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- derived numbers -----------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
