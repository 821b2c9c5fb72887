"""Outside-in tracing: wraps functions of an unmodified program with spans and counters.

A ``Hook`` names a function by module and attribute path ("swe", "GridStepper.rhs").
``Tracer.install`` replaces it with a wrapper everywhere it is bound by name
in the scanned modules (``from x import f`` copies the binding, so
``swe.husimi_density`` must be patched as well as ``phasespace.husimi_density``).
A hooked name that does not exist is recorded in ``Tracer.absent`` instead of
raising, so the benchmark keeps running after a refactor removes a function.

Spans are ``(name, start, end, parent_index, attrs)`` tuples kept in memory
for the tracer's lifetime; a span's self time is its duration minus its direct
children's durations (calls are nested on one thread, so children never overlap).
"""

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    ``span=False`` only counts calls. ``measure(args, kwargs, result)`` returns
    numeric attributes stored on the span (for example bytes written).
    ``outermost`` records only the outermost call of a recursive function.
    """

    module: str
    attr: str
    name: str
    span: bool = True
    measure: Callable | None = None
    outermost: bool = False


@dataclass
class Stat:
    """Aggregate of all spans with one name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    def add(self, duration: float, self_time: float, attrs: dict | None) -> None:
        self.calls += 1
        self.total += duration
        self.self_time += self_time
        for key, value in (attrs or {}).items():
            self.attrs[key] = self.attrs.get(key, 0) + value


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, hook: Hook) -> Callable:
        name = hook.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook.outermost and self._active.get(name):
                return fn(*args, **kwargs)
            self.counts[name] = self.counts.get(name, 0) + 1
            if not hook.span:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            self._active[name] = self._active.get(name, 0) + 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self._active[name] -= 1
                self.spans[index] = (name, start, end, parent, None)
            if hook.measure is not None:
                self.spans[index] = (name, start, end, parent, hook.measure(args, kwargs, result))
            return result

        return traced

    def install(self, hooks: list[Hook], scan: list) -> None:
        """Patch every hook; ``scan`` lists the modules searched for by-name copies."""
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
            except ImportError:
                self.absent.append(hook.name)
                continue
            *path, leaf = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(hook.name)
                continue
            wrapper = self.wrap(original, hook)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            for module in {id(m): m for m in [owner, *scan]}.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def summary(self, parent: str | None = None) -> dict[str, Stat]:
        """Per-name aggregates; with ``parent``, only spans whose parent has that name."""
        spans = self.spans
        children = [0.0] * len(spans)
        for _, start, end, up, _ in spans:
            if up >= 0:
                children[up] += end - start
        out: dict[str, Stat] = {}
        for i, (name, start, end, up, attrs) in enumerate(spans):
            if parent is not None and (up < 0 or spans[up][0] != parent):
                continue
            out.setdefault(name, Stat()).add(end - start, end - start - children[i], attrs)
        return out
