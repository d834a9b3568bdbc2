"""Spans recorded from outside the program, and the per-layer ledger.

The benchmark never edits the code it measures.  A :class:`Tracer`
replaces a public entry point (an instance method, a class method or a
module-level function) with a wrapper that records one span per call,
and puts the original back on :meth:`Tracer.restore`.

A span is ``[name, start, end, parent]``; names are ``"layer:entry"``,
so several entry points can belong to one layer.  Spans stay in memory;
forked replicas write theirs to a file when they exit (see
:func:`flush_on_exit`).  A layer's self time is its span's duration
minus the part of that interval its child spans cover, so along one path
the self times of every span under a root add up to the root's duration,
and the root's own self time is the path's unattributed residual.
"""

from __future__ import annotations

import json
import os
import time

_MISSING = object()


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` wrapped in a span; ``on_call(*args, **kwargs)`` runs first.

        ``on_call`` gathers counts for the layer.  Its own time is
        recorded as a ``tracer:bookkeeping`` span, so the ledger shows
        what the tracer itself costs instead of hiding it in a parent.
        """
        def wrapped(*args, **kwargs):
            if on_call is not None:
                self.call("tracer:bookkeeping", on_call, *args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` may be an instance (the wrapper shadows the class
        method for that instance only), a class or a module.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, on_call))
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- export --------------------------------------------------------
    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       **extra}, fh)


def flush_on_exit(tracer: Tracer, path: str, extra) -> None:
    """Write ``tracer``'s spans to ``path`` when this process exits.

    Serving replicas leave through ``os._exit``, which skips ``atexit``,
    so the hook wraps ``os._exit`` itself.  Call it only in a forked
    child that the benchmark owns.  ``extra()`` returns more fields for
    the file.
    """
    real_exit = os._exit

    def exit_with_flush(code):
        try:
            tracer.dump(path, **extra())
        finally:
            real_exit(code)

    os._exit = exit_with_flush


# ----------------------------------------------------------------------
# Self time and the ledger
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (_name, start, end, _parent) in enumerate(spans)
    ]


def roots_of(spans) -> list[int]:
    """Index of each span's top-level ancestor (parents precede children)."""
    root: list[int] = []
    for i, (_name, _start, _end, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    return root


def ledger(spans, root_name: str, scale: float = 1000.0,
           factors=None) -> dict:
    """Per-layer self time along one path, per root span.

    Roots are the top-level spans named ``root_name``.  Returns the
    number of roots, their mean duration and each layer's mean self time
    per root (in ms with the default ``scale``); the root's own self
    time is reported as ``unattributed``.  ``layers`` plus
    ``unattributed`` add up to ``total``.  ``factors``, one per root in
    order, scales each root's spans (to a reference machine speed).
    """
    selfs = self_times(spans)
    roots = roots_of(spans)
    picked = [i for i, s in enumerate(spans)
              if s[3] < 0 and s[0] == root_name]
    weight = dict(zip(picked, factors if factors is not None
                      else [1.0] * len(picked)))
    n = len(picked)
    layers: dict[str, float] = {}
    unattributed = 0.0
    total = 0.0
    for i, span in enumerate(spans):
        factor = weight.get(roots[i])
        if factor is None:
            continue
        if i == roots[i]:
            unattributed += selfs[i] * factor
            total += (span[2] - span[1]) * factor
        else:
            layer = layer_of(span[0])
            layers[layer] = layers.get(layer, 0.0) + selfs[i] * factor
    per = scale / n if n else 0.0
    return {
        "ops": n,
        "total": total * per,
        "unattributed": unattributed * per,
        "layers": {k: v * per for k, v in sorted(layers.items())},
    }


def drop_leading(spans, root_name: str, k: int) -> list[list]:
    """The spans from the ``k+1``-th top-level ``root_name`` span on.

    Used to leave warm-up requests out of a replica's ledger; parent
    indexes are shifted to the shorter list.
    """
    seen = 0
    for i, (name, _start, _end, parent) in enumerate(spans):
        if parent < 0 and name == root_name:
            seen += 1
            if seen > k:
                return [[n, s, e, p - i if p >= 0 else -1]
                        for n, s, e, p in spans[i:]]
    return []


def inclusive(spans, name: str) -> tuple[int, float]:
    """Call count and summed duration (seconds) of spans named ``name``."""
    n = 0
    total = 0.0
    for span_name, start, end, _parent in spans:
        if span_name == name:
            n += 1
            total += end - start
    return n, total


def children_named(spans, name: str) -> dict[int, float]:
    """Root index → summed duration of its descendants named ``name``."""
    roots = roots_of(spans)
    out: dict[int, float] = {}
    for i, (span_name, start, end, _parent) in enumerate(spans):
        if span_name == name and roots[i] != i:
            out[roots[i]] = out.get(roots[i], 0.0) + (end - start)
    return out
