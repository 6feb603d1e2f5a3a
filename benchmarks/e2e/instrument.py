"""Outside-in instrumentation for the end-to-end benchmark.

Every probe and span is installed by replacing a public callable of the
program with a timed wrapper, at the name its caller resolves (a class
attribute for methods, the importing module's global for functions
imported by name).  Nothing under ``src/`` knows it is being measured.

A :class:`Recorder` has two modes:

* untraced — only wrappers that carry a hook (the per-interval probes)
  are installed; span names are ignored and nothing is recorded per call;
* traced — every wrapper also records a span ``[name, start, end,
  parent, interval]`` in memory.  Spans nest by a stack, so each layer's
  self time is its duration minus its direct children's.

Spans are recorded on the main thread only: the process pool's
management thread unpickles results concurrently and must not interleave
with the main thread's stack.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections.abc import Callable, Iterator
from typing import Any, Optional

#: ``hook(args, result, start, end)``, called after each wrapped call (or,
#: for a wrapped generator, after each item it yields).
Hook = Callable[[tuple, Any, float, float], None]


class Recorder:
    """In-memory spans, counters and the wrappers that feed them."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.spans: list[list[Any]] = []
        #: Interval the program is working on; probes advance it at each
        #: interval boundary and every span is stamped with it.
        self.interval = 0
        self.counts: dict[str, float] = {}
        #: Spans closed while not on top of the stack: a wrapper misuse
        #: that makes self times meaningless, so a traced repeat fails on it.
        self.nesting_errors = 0
        self._stack: list[int] = []
        self._gc_span: Optional[int] = None
        self._main = threading.get_ident()

    # ------------------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def begin(self, name: Optional[str]) -> Optional[int]:
        if name is None or not self.tracing or threading.get_ident() != self._main:
            return None
        parent = self._stack[-1] if self._stack else -1
        # Allocating the record may run a garbage collection that records a
        # span of its own (see on_gc), so the index is taken after it.
        span = [name, time.perf_counter(), 0.0, parent, self.interval]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        return index

    def end(self, index: Optional[int]) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:
            self.nesting_errors += 1

    def on_gc(self, phase: str, info: dict[str, int]) -> None:
        """``gc.callbacks`` hook: each full collection becomes a ``python.gc`` span.

        Full collections pause the program for tens of milliseconds every
        few intervals; without a span of their own they would inflate
        whichever layer they interrupt.
        """
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_span = self.begin("python.gc")
        else:
            self.end(self._gc_span)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        span: Optional[str] = None,
        hook: Optional[Hook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording ``span`` / calling ``hook``.

        Plain functions, methods, classmethods, coroutine functions and
        generator functions keep their calling convention.  A span-only
        wrapper is not installed on an untraced recorder, so the untraced
        run pays only for its probes.
        """
        name = span if self.tracing else None
        if name is None and hook is None:
            return
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if inspect.iscoroutinefunction(fn):
            wrapper = self._wrap_coroutine(fn, name, hook)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, name, hook)
        else:
            wrapper = self._wrap_function(fn, name, hook)
        functools.update_wrapper(wrapper, fn)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _wrap_function(
        self, fn: Callable, name: Optional[str], hook: Optional[Hook]
    ) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = self.begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if hook is not None:
                hook(args, result, start, time.perf_counter())
            return result

        return wrapper

    def _wrap_coroutine(
        self, fn: Callable, name: Optional[str], hook: Optional[Hook]
    ) -> Callable:
        # Only coroutines the main task awaits to completion may carry a
        # span: one that stays suspended while the caller moves on would
        # stay open across unrelated spans.
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = self.begin(name)
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                self.end(token)
            if hook is not None:
                hook(args, result, start, time.perf_counter())
            return result

        return wrapper

    def _wrap_generator(
        self, fn: Callable, name: Optional[str], hook: Optional[Hook]
    ) -> Callable:
        # The work of a generator happens in each next(), so each next()
        # is one span.  Closing the wrapper closes the inner generator (its
        # finally blocks release pools and shared memory); that close may
        # run at garbage collection, outside any span, so it records none.
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            try:
                while True:
                    token = self.begin(name)
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(token)
                    if hook is not None:
                        hook(args, item, start, time.perf_counter())
                    yield item
            finally:
                inner.close()

        return wrapper

    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (duration minus children)."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = totals.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += (end - start) - children[index]
        return totals
