"""Layer spans recorded from outside the program.

The benchmark attributes request time to the ``src/repro`` modules by
replacing selected functions with timing wrappers for the length of a
traced run and putting the originals back afterwards.  Nothing in
``src/`` knows about it.  A wrapper is installed where the *caller*
looks the name up: ``pipeline.py`` calls its own imported
``round_best_of``, so that reference is the one patched.

Spans nest per thread.  A span's self time is its duration minus the
time covered by its direct child spans.  Request roots are opened by
the benchmark (:meth:`Tracer.request`); the share of a root's wall time
covered by no layer span is ``trace.unattributed_frac``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["Target", "Tracer", "snapshot", "assert_untouched"]

_perf = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a module path, or ``module:Class`` for a method or
    property.  ``attr`` is the attribute looked up there.  ``hook``
    runs after the call, outside the span, with ``(tracer, args,
    kwargs, result)`` and records counts.  ``when``, for a property,
    opens the span only when ``when(tracer, instance)`` is true (a lazy
    cache miss).
    """

    owner: str
    attr: str
    span: str
    hook: Optional[Callable[..., None]] = None
    when: Optional[Callable[[Any, Any], bool]] = None


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    return obj


class Tracer:
    """Per-thread span stacks and run-wide totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.requests = 0
        self.request_wall = 0.0
        self.request_covered = 0.0
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (installed wrappers stay)."""
        with self._lock:
            for table in (self.total, self.self_time, self.calls, self.counts, self.maxima):
                table.clear()
            self.requests = 0
            self.request_wall = self.request_covered = 0.0

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def _record(self, name: str, duration: float, child: float, parent) -> None:
        with self._lock:
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
            self.calls[name] = self.calls.get(name, 0) + 1
        if parent is not None:
            parent[1] += duration

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [name, 0.0]
        stack.append(frame)
        t0 = _perf()
        try:
            yield
        finally:
            duration = _perf() - t0
            stack.pop()
            self._record(name, duration, frame[1], stack[-1] if stack else None)

    @contextmanager
    def request(self):
        """Root span of one request: layer spans directly under it count
        as covered wall time."""
        stack = self._stack()
        frame = ["request", 0.0]
        stack.append(frame)
        t0 = _perf()
        try:
            yield
        finally:
            wall = _perf() - t0
            stack.pop()
            with self._lock:
                self.requests += 1
                self.request_wall += wall
                self.request_covered += frame[1]

    # -- installation ----------------------------------------------------
    def _wrap_callable(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(target.span):
                out = fn(*args, **kwargs)
            if target.hook is not None:
                target.hook(tracer, args, kwargs, out)
            return out

        return wrapper

    def _wrap_property(self, prop: property, target: Target) -> property:
        tracer = self
        fget = prop.fget

        def getter(obj):
            if target.when is not None and not target.when(tracer, obj):
                return fget(obj)
            with tracer.span(target.span):
                return fget(obj)

        return property(getter, prop.fset, prop.fdel, prop.__doc__)

    def install(self, targets) -> "Tracer":
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in targets:
            owner = _resolve_owner(target.owner)
            raw = owner.__dict__[target.attr] if isinstance(owner, type) else getattr(owner, target.attr)
            if isinstance(raw, property):
                wrapped: Any = self._wrap_property(raw, target)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap_callable(raw.__func__, target))
            else:
                wrapped = self._wrap_callable(raw, target)
            self._saved.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- export ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "self": self.self_time,
            "calls": self.calls,
            "counts": self.counts,
            "maxima": self.maxima,
            "requests": self.requests,
            "request_wall": self.request_wall,
            "request_covered": self.request_covered,
        }

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)


def _current(target: Target):
    owner = _resolve_owner(target.owner)
    if isinstance(owner, type):
        return owner.__dict__.get(target.attr)
    return getattr(owner, target.attr, None)


def snapshot(targets) -> list:
    """The objects the targets resolve to now (taken before any wrapper
    is installed)."""
    return [_current(t) for t in targets]


def assert_untouched(targets, originals) -> None:
    """Raise unless every target is still the original object.

    The end-to-end runs call this before and after timing, so no span
    cost can leak into their numbers.
    """
    changed = [
        f"{t.owner}.{t.attr}"
        for t, orig in zip(targets, originals)
        if _current(t) is not orig
    ]
    if changed:
        raise RuntimeError(f"tracing wrappers installed during a timed run: {changed}")
