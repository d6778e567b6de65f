"""Hierarchical span tracing for the compile→schedule→simulate→explore path.

A :class:`Tracer` records *spans* — named, nested wall-clock intervals —
through a context-manager API, plus scalar *counters*.  The four hot
layers (compiler lowering/variants, scheduler bind/place/route/repair,
simulator stepping, the DSE accept/reject loop) are instrumented with
module-level :func:`span` / :func:`add_counter` calls that resolve
against the currently *installed* tracer.

Design constraints:

* **Near-zero overhead when off.**  With no tracer installed,
  :func:`span` is a single module-global load, a ``None`` check, and a
  shared no-op context manager.
* **Thread-safe.**  Span stacks and completed-span buffers are
  thread-local; buffers are registered once per thread under a lock and
  merged at read time.  Counters take a lock (they are orders of
  magnitude rarer than spans).
* **Process-aware.**  Every span records its pid/tid, so traces from
  worker processes can be concatenated and still render correctly in
  the Chrome trace viewer (``chrome://tracing`` / Perfetto).

Readers: :meth:`Tracer.spans` and :meth:`Tracer.counters`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """One completed named interval (times are ``perf_counter`` seconds)."""

    name: str
    start: float
    end: float
    depth: int
    tid: int
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Shared no-op context manager: the no-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager recording one span on exit (exceptions included)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        local = self._tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = perf_counter()
        tracer = self._tracer
        tracer._local.depth = self._depth
        tracer._record(
            Span(
                name=self._name,
                start=self._start,
                end=end,
                depth=self._depth,
                tid=threading.get_ident(),
                pid=os.getpid(),
                attrs=self._attrs,
            )
        )
        return False


class Tracer:
    """Collects spans and counters for one profiled run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[List[Span]] = []
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    def add_counter(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def _record(self, span: Span) -> None:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = []
            with self._lock:
                self._buffers.append(buffer)
        buffer.append(span)

    # -- reading -------------------------------------------------------
    def spans(self) -> List[Span]:
        """Every completed span, merged across threads, in start order."""
        with self._lock:
            merged: List[Span] = [s for buf in self._buffers for s in buf]
        merged.sort(key=lambda s: s.start)
        return merged

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)


# ----------------------------------------------------------------------
# Module-level fast path: `_installed` is the one global `span()` reads.
# ----------------------------------------------------------------------
_installed: Optional[Tracer] = None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide target of :func:`span`."""
    global _installed
    _installed = tracer
    return tracer


def uninstall() -> None:
    global _installed
    _installed = None


def current() -> Optional[Tracer]:
    return _installed


def span(name: str, **attrs: Any):
    """Open a span on the installed tracer; no-op when none is installed."""
    tracer = _installed
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def add_counter(name: str, value: float = 1.0) -> None:
    """Bump a counter on the installed tracer; no-op when none is installed."""
    tracer = _installed
    if tracer is not None:
        tracer.add_counter(name, value)


class tracing:
    """``with tracing() as t:`` — install a tracer for a block, restoring
    whatever was installed before (nesting-safe)."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = current()
        install(self.tracer)
        return self.tracer

    def __exit__(self, *exc: Any) -> bool:
        if self._previous is not None:
            install(self._previous)
        else:
            uninstall()
        return False
