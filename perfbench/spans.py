"""In-memory span recorder and the wrappers that feed it.

The traced benchmark run times each simulator layer from the outside:
:class:`Patches` replaces a layer's public entry points with thin
wrappers that open a span on entry and close it on return, and restores
the originals on exit, so untraced runs execute unpatched code.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (``-1`` at the root).  One thread opens and closes spans
in strict nesting order, so a span's children lie inside it and its self
time is its duration minus the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int


class SpanRecorder:
    """Collects spans and call counters for one traced repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        # Open spans: (index reserved in self.spans, name, start).
        self._stack: List[Tuple[int, str, float]] = []

    def open(self, name: str) -> None:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        # Reserve the slot so children record this span as their parent.
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._stack.append((index, name, self.clock()))

    def close(self) -> None:
        end = self.clock()
        index, name, start = self._stack.pop()
        self.spans[index] = Span(name, start, end, self.spans[index].parent)

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``observe(result, *args)`` sees each return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                observe(result, *args)
            return result

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (for cheap counts)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, self seconds)`` over a nested span list."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: Dict[str, Tuple[int, float]] = {}
    for span, covered in zip(spans, child_time):
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + (span.end - span.start - covered))
    return out


class Target(NamedTuple):
    """One entry point to wrap: ``owner.attr`` (a module or a class).

    ``span`` names the span; ``None`` installs a call counter named
    ``count`` instead.  ``observe`` sees every return value.
    """

    owner: object
    attr: str
    span: Optional[str] = None
    count: Optional[str] = None
    observe: Optional[Callable[..., None]] = None


_ABSENT = object()


class Patches:
    """Context manager installing every target's wrapper, then restoring.

    Each target's callable is resolved before any wrapper is installed,
    so a subclass that inherits a method from another target gets its own
    wrapper around the original, not a wrapper around a wrapper.
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        resolved = [
            (target, inspect.getattr_static(target.owner, target.attr))
            for target in self.targets
        ]
        try:
            for target, raw in resolved:
                self._install(target, raw)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def _install(self, target: Target, raw: object) -> None:
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if target.span is not None:
            wrapped = self.recorder.wrap(target.span, fn, target.observe)
        else:
            wrapped = self.recorder.counting(target.count, fn)
        owner_dict = vars(target.owner)
        self._saved.append(
            (target.owner, target.attr, owner_dict.get(target.attr, _ABSENT))
        )
        setattr(
            target.owner,
            target.attr,
            staticmethod(wrapped) if is_static else wrapped,
        )

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
