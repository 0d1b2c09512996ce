"""A call tracer that folds self time online.

The tracer wraps named functions and methods of the system under test
from outside: :meth:`Tracer.patch` replaces an attribute of a module or
class with a timing wrapper and :meth:`Tracer.restore` puts every
original back.  Nothing in the traced program changes, which is what
lets the benchmark check that traced and untraced passes produce
identical outputs.

Per metric the tracer keeps

* ``self_ns`` -- time inside the metric's calls minus the time covered
  by wrapped callees (the usual self time; it sums to the traced wall
  time together with whatever ran outside every span),
* ``total_ns`` and ``calls`` -- inclusive time and call count of the
  outermost call only, so a metric that recurses into itself (a
  controller entry point calling another one, ``Model.accuracy``
  calling ``Model.predict``) is not counted twice,
* ``count`` -- a per-call work figure (rows, requests) from an optional
  ``count`` hook, also outermost only.

Folding happens at span exit, so memory stays constant however many
spans a pass records -- unlike a ring buffer of events, which would drop
most of a long pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

__all__ = ["MetricStats", "Tracer"]


@dataclass
class MetricStats:
    self_ns: int = 0
    total_ns: int = 0
    calls: int = 0
    count: int = 0


#: ``metric`` may be a name or a function of the call's first argument
#: (``self`` for methods) returning one, so one wrapper can file calls
#: under per-engine or per-class metrics.
MetricName = str | Callable[[Any], str]
#: ``count(args, kwargs, result) -> int`` work units of one call.
CountHook = Callable[[tuple, dict, Any], int]
#: ``after(args, kwargs, result)`` runs after the outermost call.
AfterHook = Callable[[tuple, dict, Any], None]


class Tracer:
    """Self-time folding call tracer (see the module docstring)."""

    def __init__(self) -> None:
        self.stats: dict[str, MetricStats] = {}
        self.spans = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        metric: MetricName,
        count: CountHook | None = None,
        after: AfterHook | None = None,
    ) -> Callable:
        """A timing wrapper around ``fn``."""
        stats = self.stats
        stack = self._stack
        depth = self._depth
        fixed = metric if isinstance(metric, str) else None
        if fixed is not None:
            stats.setdefault(fixed, MetricStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fixed if fixed is not None else metric(args[0])
            frame = [0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            started = perf_counter_ns()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf_counter_ns() - started
                stack.pop()
                depth[name] = level
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = MetricStats()
                entry.self_ns += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if level == 0:
                    entry.total_ns += elapsed
                    entry.calls += 1
                    if ok and count is not None:
                        entry.count += count(args, kwargs, result)
                    if ok and after is not None:
                        after(args, kwargs, result)
                self.spans += 1

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        metric: MetricName,
        count: CountHook | None = None,
        after: AfterHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.  For a class,
        only an attribute defined on that class itself is patched (an
        inherited one is wrapped where it is defined)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, metric, count, after))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_s(self, *names: str) -> float:
        return sum(self._get(name).self_ns for name in names) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self._get(name).total_ns for name in names) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self._get(name).calls for name in names)

    def count(self, *names: str) -> int:
        return sum(self._get(name).count for name in names)

    def attributed_s(self) -> float:
        """Self time summed over every metric: the part of the traced
        interval that some span covered."""
        return sum(entry.self_ns for entry in self.stats.values()) / 1e9

    def _get(self, name: str) -> MetricStats:
        return self.stats.get(name) or MetricStats()
