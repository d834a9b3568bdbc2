"""The admission policy both serving layers share.

:class:`AdmissionQueue` decides, once for
:class:`~repro.serving.TaggingService` and every
:class:`~repro.serving.ShardedGateway` shard, who is evicted, who CoDel
drops and who goes next.  Under an
:class:`~repro.serving.overload.OverloadConfig`:

- **eviction** (:func:`evict_for`) takes the freshest item of the
  lowest class present, and only when that class ranks strictly below
  the arrival's — nothing evicts within its own class;
- **CoDel** (:meth:`AdmissionQueue.police`) is offered the
  head-of-queue sojourn at each dequeue, and a drop sheds that same
  freshest lowest-class item;
- **dispatch** (:meth:`AdmissionQueue.pop`) is highest class first,
  FIFO within a class, with :meth:`AdmissionQueue.push_front` for
  failover requeues.

Without one the queue is the legacy bounded FIFO: no eviction, no CoDel.
The queue returns victims and keeps no ledger; each layer records its
own sheds.  Items expose ``ticket`` (increasing with arrival),
``priority`` and ``submitted_at`` (the clock time sojourn counts from).
"""

from __future__ import annotations

import collections
import time
from typing import Generic, Sequence, TypeVar

from repro.serving.deadline import Clock
from repro.serving.overload import (
    PRIORITY_RANK, CoDelController, OverloadConfig,
)

T = TypeVar("T")


def _shed_order(item) -> tuple[int, int]:
    """Lowest class, then freshest arrival, sorts last (sheds first)."""
    return PRIORITY_RANK[item.priority], item.ticket


class AdmissionQueue(Generic[T]):
    """A queue of requests bounded at ``capacity`` (``None`` = unbounded)."""

    def __init__(self, capacity: int | None = None,
                 overload: OverloadConfig | None = None,
                 clock: Clock = time.monotonic):
        self.capacity = capacity
        self.prioritized = overload is not None
        self.codel = None if overload is None else CoDelController(
            overload.codel_target_ms, overload.codel_interval_ms, clock=clock)
        self._items: collections.deque[T] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def push(self, item: T) -> None:
        self._items.append(item)

    def push_front(self, item: T) -> None:
        self._items.appendleft(item)

    def remove(self, item: T) -> bool:
        """Take ``item`` out of line; False when it was not queued."""
        for index, queued in enumerate(self._items):
            if queued is item:
                del self._items[index]
                return True
        return False

    def take_all(self) -> list[T]:
        items = list(self._items)
        self._items.clear()
        return items

    def pop(self) -> T:
        """The next item to serve."""
        if not self.prioritized:
            return self._items.popleft()
        best = min(range(len(self._items)),
                   key=lambda i: (PRIORITY_RANK[self._items[i].priority], i))
        item = self._items[best]
        del self._items[best]
        return item

    def shed_candidate(self) -> T | None:
        """Who a shed would take (``None`` for the legacy FIFO)."""
        if not self.prioritized or not self._items:
            return None
        return max(self._items, key=_shed_order)

    def police(self, now: float) -> T | None:
        """Offer the head's sojourn at ``now`` to CoDel; on a drop,
        remove and return the shed candidate."""
        if self.codel is None or not self._items:
            return None
        sojourn_ms = (now - self._items[0].submitted_at) * 1000.0
        if not self.codel.offer(max(0.0, sojourn_ms)):
            return None
        victim = self.shed_candidate()
        self.remove(victim)
        return victim


def evict_for(priority: str,
              queues: Sequence[AdmissionQueue]) -> tuple[int, object] | None:
    """Evict the worst shed candidate over ``queues`` for an arrival of
    ``priority``: ``(index of its queue, victim)``, or ``None`` when
    nothing ranks strictly below the arrival."""
    candidates = [
        (_shed_order(item), index, item)
        for index, item in enumerate(q.shed_candidate() for q in queues)
        if item is not None
    ]
    if not candidates:
        return None
    (rank, _ticket), index, victim = max(candidates, key=lambda c: c[0])
    if rank <= PRIORITY_RANK[priority]:
        return None
    queues[index].remove(victim)
    return index, victim
