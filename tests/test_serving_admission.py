"""The shared admission policy: AdmissionQueue on its own, then the same
overload scenarios run against both layers that use it (TaggingService
and a ShardedGateway shard)."""

import dataclasses

import numpy as np
import pytest

from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.serving import (
    GatewayConfig,
    ManualClock,
    Overloaded,
    OverloadConfig,
    ServiceConfig,
    ShardedGateway,
    TaggingService,
)
from repro.serving.admission import AdmissionQueue, evict_for
from repro.serving.overload import BATCH, INTERACTIVE, STANDARD

TOKENS = ["the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived"]

OVERLOAD = OverloadConfig(codel_target_ms=50.0, codel_interval_ms=100.0,
                          initial_inflight=1, max_inflight=16)


@dataclasses.dataclass(eq=False)
class Item:
    ticket: int
    priority: str = STANDARD
    submitted_at: float = 0.0


def fill(queue, *priorities, at=0.0):
    items = [Item(len(queue) + i, p, at) for i, p in enumerate(priorities)]
    for item in items:
        queue.push(item)
    return items


# ----------------------------------------------------------------------
# AdmissionQueue unit tests
# ----------------------------------------------------------------------
class TestBound:
    def test_full_at_capacity(self):
        queue = AdmissionQueue(2, OVERLOAD)
        fill(queue, BATCH)
        assert not queue.full
        fill(queue, BATCH)
        assert queue.full and len(queue) == 2

    def test_unbounded_never_full(self):
        queue = AdmissionQueue(None, OVERLOAD)
        fill(queue, *[BATCH] * 100)
        assert not queue.full


class TestEvictionVictim:
    def test_freshest_lowest_class_is_evicted(self):
        queue = AdmissionQueue(4, OVERLOAD)
        _b0, s0, b1, i0 = fill(queue, BATCH, STANDARD, BATCH, INTERACTIVE)
        assert evict_for(INTERACTIVE, [queue]) == (0, b1)
        assert len(queue) == 3 and not queue.remove(b1)
        # Standard may displace the remaining batch item, not its own class.
        evict_for(STANDARD, [queue])
        assert queue.take_all() == [s0, i0]

    def test_no_eviction_within_the_arrival_class(self):
        queue = AdmissionQueue(2, OVERLOAD)
        fill(queue, STANDARD, STANDARD)
        assert evict_for(STANDARD, [queue]) is None
        assert len(queue) == 2

    def test_lower_class_never_displaces_higher(self):
        queue = AdmissionQueue(1, OVERLOAD)
        fill(queue, INTERACTIVE)
        assert evict_for(BATCH, [queue]) is None

    def test_worst_candidate_over_several_queues(self):
        first, second = AdmissionQueue(None, OVERLOAD), AdmissionQueue(
            None, OVERLOAD)
        first.push(Item(0, BATCH))
        second.push(Item(1, STANDARD))
        fresher = Item(2, BATCH)
        second.push(fresher)
        first.push(Item(3, STANDARD))
        assert evict_for(INTERACTIVE, [first, second]) == (1, fresher)

    def test_legacy_fifo_never_evicts(self):
        queue = AdmissionQueue(1)
        fill(queue, BATCH)
        assert queue.shed_candidate() is None
        assert evict_for(INTERACTIVE, [queue]) is None


class TestDispatchOrder:
    def test_highest_class_first_fifo_within_class(self):
        queue = AdmissionQueue(None, OVERLOAD)
        b0, s0, i0, s1, i1 = fill(queue, BATCH, STANDARD, INTERACTIVE,
                                  STANDARD, INTERACTIVE)
        assert [queue.pop() for _ in range(5)] == [i0, i1, s0, s1, b0]

    def test_legacy_fifo_ignores_priority(self):
        queue = AdmissionQueue(None)
        items = fill(queue, BATCH, INTERACTIVE, STANDARD)
        assert [queue.pop() for _ in range(3)] == items

    def test_push_front_goes_to_the_head_of_its_class(self):
        queue = AdmissionQueue(None, OVERLOAD)
        s0, s1 = fill(queue, STANDARD, STANDARD)
        requeued = Item(9, STANDARD)
        queue.push_front(requeued)
        assert [queue.pop() for _ in range(3)] == [requeued, s0, s1]

    def test_remove_and_take_all(self):
        queue = AdmissionQueue(None, OVERLOAD)
        a, b, c = fill(queue, STANDARD, BATCH, STANDARD)
        assert queue.remove(b) and not queue.remove(b)
        assert queue.take_all() == [a, c]
        assert len(queue) == 0


class TestCoDelVictim:
    def test_drop_sheds_freshest_lowest_class_not_the_head(self):
        clock = ManualClock()
        queue = AdmissionQueue(None, OVERLOAD, clock)
        head, _s, fresh_batch, _i = fill(queue, INTERACTIVE, STANDARD, BATCH,
                                         INTERACTIVE)
        clock.advance(0.06)
        assert queue.police(clock()) is None  # above target: armed
        clock.advance(0.1)
        assert queue.police(clock()) is fresh_batch  # a full interval above
        assert len(queue) == 3 and queue.remove(head)
        assert queue.police(clock()) is None  # sqrt-law cadence
        assert queue.codel.drops == 1

    def test_fresh_head_resets_the_interval(self):
        clock = ManualClock()
        queue = AdmissionQueue(None, OVERLOAD, clock)
        fill(queue, BATCH, at=clock())
        clock.advance(0.06)
        assert queue.police(clock()) is None  # stale head: armed
        queue.pop()
        fill(queue, BATCH, at=clock())
        clock.advance(0.03)
        assert queue.police(clock()) is None  # fresh head: disarmed
        clock.advance(0.08)
        assert queue.police(clock()) is None  # re-armed, no drop yet
        assert queue.codel.drops == 0

    def test_legacy_queue_never_polices(self):
        clock = ManualClock()
        queue = AdmissionQueue(None, None, clock)
        fill(queue, BATCH)
        clock.advance(10.0)
        assert queue.police(clock()) is None and queue.codel is None


# ----------------------------------------------------------------------
# The same scenarios through both layers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model():
    scheme = TagScheme(("0", "1"))
    return CNNBiGRUCRF(
        Vocabulary(TOKENS), CharVocabulary(TOKENS), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(0), tag_names=scheme.tags,
    ), scheme


class ServiceLayer:
    """``capacity`` queued slots in one TaggingService."""

    full_reason = "queue full"

    def __init__(self, model, capacity):
        backbone, scheme = model
        self.clock = ManualClock()
        self.service = TaggingService(
            backbone, scheme,
            ServiceConfig(max_pending=capacity, overload=OVERLOAD),
            clock=self.clock)
        self.metrics = self.service.metrics

    def submit(self, tokens, priority):
        return self.service.submit(tokens, priority=priority)

    def drain(self):
        """Every result, in the order the layer produced it."""
        return self.service.drain()

    def shed_by_priority(self):
        return self.service.overload_snapshot()["shed_by_priority"]

    def close(self):
        pass


class GatewayLayer:
    """``capacity`` queued slots in a one-replica gateway shard."""

    full_reason = "queues full"

    def __init__(self, model, capacity):
        backbone, scheme = model
        self.clock = ManualClock()

        def factory(replica_id):
            return TaggingService(
                backbone, scheme,
                ServiceConfig(max_pending=256, overload=OVERLOAD),
                clock=self.clock)

        self.gateway = ShardedGateway(
            factory,
            GatewayConfig(replicas=1, max_shard_queue=capacity,
                          overload=OVERLOAD),
            backend="in-process", clock=self.clock,
            service_time_s=lambda tokens, ticket: 0.01,
        )
        self.metrics = self.gateway.metrics
        self.routed = {}

    def submit(self, tokens, priority):
        return self.gateway.submit(tokens, priority=priority)

    def drain(self):
        """Every result, in delivery order (one in flight at a time)."""
        routed = self.gateway.drain(timeout_s=10)
        self.routed.update(routed)
        return {ticket: r.result for ticket, r in routed.items()}

    def shed_by_priority(self):
        return self.gateway.report.shed_by_priority

    def close(self):
        self.gateway.shutdown()


@pytest.fixture(params=["service", "gateway"])
def layer(request, model):
    made = []

    def make(capacity=64):
        cls = ServiceLayer if request.param == "service" else GatewayLayer
        made.append(cls(model, capacity))
        return made[-1]

    yield make
    for built in made:
        built.close()


class TestLayers:
    def test_standing_queue_sheds_freshest_lowest_priority(self, layer):
        layer = layer()
        layer.submit(["the"], STANDARD)
        layer.clock.advance(0.06)
        layer.drain()                      # one stale dequeue arms CoDel
        keep = layer.submit(["visited"], INTERACTIVE)
        layer.clock.advance(0.01)
        victim = layer.submit(["today"], BATCH)
        layer.clock.advance(0.2)
        results = layer.drain()
        shed = results[victim]
        assert isinstance(shed, Overloaded) and "CoDel" in shed.reason
        assert shed.queue_wait_ms == pytest.approx(200.0, abs=5.0)
        assert results[keep].ok
        assert layer.metrics.counter("serving.shed").value == 1
        assert layer.metrics.histogram("serving.queue_wait_ms").count >= 1
        assert layer.shed_by_priority()[BATCH] == 1
        if isinstance(layer, GatewayLayer):
            routed = layer.routed[victim]
            assert routed.replica is None
            assert routed.latency_ms == shed.queue_wait_ms
            report = layer.gateway.report
            assert report.shed_queued == 1
            # The queued shed still counts as completed: zero loss.
            assert report.completed == report.admitted == 3

    def test_interactive_arrival_evicts_queued_batch(self, layer):
        layer = layer(capacity=1)
        victim = layer.submit(["the"], BATCH)
        arrival = layer.submit(["visited"], INTERACTIVE)
        results = layer.drain()
        assert isinstance(results[victim], Overloaded)
        assert "evicted by a interactive arrival" in results[victim].reason
        assert results[arrival].ok
        assert layer.shed_by_priority()[BATCH] == 1
        if isinstance(layer, GatewayLayer):
            assert layer.gateway.report.evictions == 1

    @pytest.mark.parametrize("queued,arrival", [(STANDARD, STANDARD),
                                                (INTERACTIVE, BATCH)],
                             ids=["same", "lower"])
    def test_no_eviction_within_the_same_class(self, layer, queued, arrival):
        layer = layer(capacity=1)
        kept = layer.submit(["the"], queued)
        shed = layer.submit(["visited"], arrival)
        results = layer.drain()
        assert results[kept].ok                   # kept its slot
        assert isinstance(results[shed], Overloaded)
        assert layer.full_reason in results[shed].reason  # not evicted
        if isinstance(layer, GatewayLayer):
            assert layer.gateway.report.evictions == 0

    def test_highest_class_dispatched_first(self, layer):
        layer = layer()
        submitted = {
            layer.submit(["the"], BATCH): BATCH,
            layer.submit(["visited"], STANDARD): STANDARD,
            layer.submit(["today"], INTERACTIVE): INTERACTIVE,
        }
        order = [submitted[ticket] for ticket in layer.drain()]
        assert order == [INTERACTIVE, STANDARD, BATCH]
