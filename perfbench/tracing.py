"""Per-layer counts and times for a traced benchmark run.

A :class:`Tracer` replaces public functions of the ``ncpd`` modules where
their callers look them up -- a module attribute such as
``ncpd.solver.fb_step`` or a class attribute such as
``GramianOperator.apply`` -- by a wrapper that times each call, and puts
every original back when the ``with`` block ends.  Nothing inside the
package changes; an untraced run calls the originals directly.

Spans are aggregated per name as they close (count, total time, self time)
instead of being stored one by one: a traced round makes 10^5 to 10^6
calls.  A span's self time is its duration minus the time covered by the
traced spans it encloses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps callables with :meth:`wrap`; the ``with`` block's end restores
    them.  Span statistics accumulate across uses."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open_children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None, timed: bool = True) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``on_result(result)`` runs after each call, outside the timed
        interval.  With ``timed=False`` the wrapper only counts calls.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stats = self.stats.setdefault(name, SpanStats())
        children = self._open_children
        clock = time.perf_counter

        if timed:
            def wrapper(*args, **kwargs):
                children.append(0.0)
                began = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - began
                    covered = children.pop()
                    stats.count += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - covered
                    if children:
                        children[-1] += elapsed
                if on_result is not None:
                    on_result(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                stats.count += 1
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
