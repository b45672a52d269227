"""In-memory spans around calls into a program's modules, and their sums.

A span is one call of a hooked function: its group (the layer metric it
feeds, such as ``collocation.assemble``), start and end on one clock, the
span that was open when it started, and the counts its measure function
derived from the call.  Spans stay in memory; ``aggregate`` turns them into
per-group calls, self time and counter sums after a sweep.

Hooks are installed from the benchmark's own process by rebinding names, so
the program's files are not edited.  A hooked name that the program no
longer defines is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    group: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict | None = None
    error: str | None = None


class Tracer:
    """Records one Span per call of every function wrapped by ``wrap``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans = []
        self._stack.clear()  # wrappers hold this list

    def wrap(self, group, fn, measure=None):
        """Return ``fn`` wrapped in a span of ``group``.

        ``measure(args, kwargs, result)`` returns a dict of counts for the
        call; it runs after the span has closed, so its cost lands in the
        caller's self time rather than in this group's.
        """
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = Span(group, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.error = type(exc).__name__
                raise
            span.end = clock()
            stack.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced


@dataclass
class GroupTotals:
    calls: int = 0
    self_s: float = 0.0
    errors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add(self, other):
        self.calls += other.calls
        self.self_s += other.self_s
        for key, value in other.errors.items():
            self.errors[key] = self.errors.get(key, 0) + value
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def aggregate(spans):
    """Per-group totals of a list of spans, plus the summed root durations.

    * self time of a span is its duration minus the durations of its direct
      children, so the self times of all spans add up to the durations of
      the root spans;
    * a call is a span whose parent belongs to another group (or that has no
      parent), so recursion within a layer counts once;
    * counts are taken at the innermost span of a group: a span's counts are
      skipped when a descendant of the same group already reported counts,
      so a wrapper around a wrapped evaluation is not counted twice.
    """
    totals = {}
    root_s = 0.0
    covered = [None] * len(spans)  # groups that reported counts below a span
    for index in range(len(spans) - 1, -1, -1):
        span = spans[index]
        group = totals.get(span.group)
        if group is None:
            group = totals[span.group] = GroupTotals()
        duration = span.end - span.start
        group.self_s += duration
        parent = spans[span.parent] if span.parent >= 0 else None
        if parent is None:
            root_s += duration
        else:
            totals.setdefault(parent.group, GroupTotals()).self_s -= duration
        if parent is None or parent.group != span.group:
            group.calls += 1
        if span.error is not None:
            group.errors[span.error] = group.errors.get(span.error, 0) + 1
        below = covered[index]
        counted = span.counts is not None and not (below and span.group in below)
        if counted:
            for key, value in span.counts.items():
                group.counts[key] = group.counts.get(key, 0) + value
        if parent is not None and (counted or below):
            mark = covered[span.parent]
            if mark is None:
                mark = covered[span.parent] = set()
            if below:
                mark |= below
            if counted:
                mark.add(span.group)
    return totals, root_s


@dataclass(frozen=True)
class FunctionHook:
    """Wrap a module-level function at every binding inside ``package``."""

    group: str
    module: str
    name: str
    measure: object = None


@dataclass(frozen=True)
class MethodHook:
    """Wrap methods of the classes defined in ``module``.

    ``cls`` restricts the hook to one class name; None takes every class of
    the module that defines one of ``names`` itself.
    """

    group: str
    module: str
    names: tuple
    cls: str | None = None
    measure: object = None


def package_modules(package):
    """The loaded modules of ``package``, by name.  A submodule imported
    later binds the wrapped object from the module it imports from."""
    importlib.import_module(package)
    return {name: module for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")}


class Hooks:
    """Installs hooks on a tracer and undoes them on ``remove``."""

    def __init__(self, tracer, package):
        self.tracer = tracer
        self.package = package
        self.absent = []  # hooks that matched nothing, as readable names
        self._undo = []

    def install(self, hooks):
        modules = package_modules(self.package)
        for hook in hooks:
            if isinstance(hook, FunctionHook):
                count = self._install_function(hook, modules)
                label = f"{hook.module}.{hook.name}"
            else:
                count = self._install_methods(hook)
                owner = hook.cls or "*"
                label = f"{hook.module}.{owner}.{{{','.join(hook.names)}}}"
            if not count:
                self.absent.append(label)
        return self

    def _install_function(self, hook, modules):
        owner = sys.modules.get(hook.module)
        if owner is None:
            try:
                owner = importlib.import_module(hook.module)
            except ImportError:
                return 0
        original = getattr(owner, hook.name, None)
        if original is None or not callable(original):
            return 0
        wrapped = self.tracer.wrap(hook.group, original, hook.measure)
        targets = [owner] + [m for m in modules.values() if m is not owner]
        count = 0
        for module in targets:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))
                    count += 1
        return count

    def _install_methods(self, hook):
        module = sys.modules.get(hook.module)
        if module is None:
            return 0
        count = 0
        for cls in list(vars(module).values()):
            if not inspect.isclass(cls) or cls.__module__ != hook.module:
                continue
            if hook.cls is not None and cls.__name__ != hook.cls:
                continue
            for name in hook.names:
                original = cls.__dict__.get(name)
                if not inspect.isfunction(original):
                    continue
                setattr(cls, name, self.tracer.wrap(hook.group, original, hook.measure))
                self._undo.append((cls, name, original))
                count += 1
        return count

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
