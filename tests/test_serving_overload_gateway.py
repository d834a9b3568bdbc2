"""ShardedGateway under overload control: priority dispatch, AIMD,
CoDel queue policing, retry budgets, and per-priority SLO reporting."""

import dataclasses

import numpy as np
import pytest

from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.serving import (
    GatewayConfig,
    ManualClock,
    OverloadConfig,
    ServiceConfig,
    ShardedGateway,
    TaggingService,
)
from repro.serving.loadgen import run_load, synthetic_requests
from repro.serving.overload import BATCH, INTERACTIVE, STANDARD

TOKENS = ["the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived"]


@pytest.fixture(scope="module")
def model():
    scheme = TagScheme(("0", "1"))
    return CNNBiGRUCRF(
        Vocabulary(TOKENS), CharVocabulary(TOKENS), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(0), tag_names=scheme.tags,
    ), scheme


def overload_config(**overrides):
    return dataclasses.replace(
        OverloadConfig(codel_target_ms=50.0, codel_interval_ms=100.0,
                       initial_inflight=8, max_inflight=16,
                       retry_floor=1.0, retry_ratio=0.1, retry_cap=4.0),
        **overrides)


def make_gateway(model, config=None, clock=None, service_time_s=None,
                 overload=None, max_pending=256):
    backbone, scheme = model
    clock = clock or ManualClock()

    def factory(replica_id):
        return TaggingService(
            backbone, scheme,
            ServiceConfig(max_pending=max_pending, overload=overload),
            clock=clock)

    gateway = ShardedGateway(
        factory, config or GatewayConfig(replicas=2, overload=overload),
        backend="in-process", clock=clock, service_time_s=service_time_s,
    )
    return gateway, clock, factory


class TestPriorityDispatch:
    def test_legacy_fifo_without_overload(self, model):
        gateway, clock, _f = make_gateway(
            model, GatewayConfig(replicas=1),
            service_time_s=lambda toks, ticket: 0.01,
        )
        order = []
        with gateway:
            submitted = [gateway.submit(["the"]), gateway.submit(["visited"]),
                         gateway.submit(["today"])]
            for _ in range(40):
                gateway.pump()
                order.extend(gateway.collect())
                if len(order) == 3:
                    break
                clock.advance(0.02)
        assert order == submitted


class TestAIMDLimiter:
    def test_inflight_capped_at_limit(self, model):
        ocfg = overload_config(initial_inflight=2)
        gateway, _clock, _f = make_gateway(
            model, GatewayConfig(replicas=1, overload=ocfg),
            overload=ocfg, service_time_s=lambda toks, ticket: 10.0,
        )
        with gateway:
            for i in range(6):
                gateway.submit([TOKENS[i % len(TOKENS)]])
            gateway.pump()
            shard = gateway._shards[0]
            assert len(shard.inflight) == 2
            assert len(shard.queue) == 4

    def test_legacy_gateway_dispatches_everything(self, model):
        gateway, _clock, _f = make_gateway(
            model, GatewayConfig(replicas=1),
            service_time_s=lambda toks, ticket: 10.0,
        )
        with gateway:
            for i in range(6):
                gateway.submit([TOKENS[i % len(TOKENS)]])
            gateway.pump()
            assert len(gateway._shards[0].inflight) == 6

    def test_congestion_shrinks_the_published_limit(self, model):
        ocfg = overload_config(initial_inflight=8)
        gateway, clock, _f = make_gateway(
            model, GatewayConfig(replicas=1, overload=ocfg), overload=ocfg)
        with gateway:
            shard = gateway._shards[0]
            shard.limiter.on_congestion()
            gateway.pump()
            assert shard.limiter.limit == 5  # 8 * 0.7
            snap = gateway.health()["overload"]
            assert snap["inflight_limits"][0] == 5


class TestCoDelPolicing:
    def test_unloaded_queue_never_policed(self, model):
        ocfg = overload_config()
        gateway, _clock, _f = make_gateway(
            model, GatewayConfig(replicas=2, overload=ocfg), overload=ocfg)
        with gateway:
            results = gateway.tag_many(
                [["the", "Kavox"], ["Zuqev"]], timeout_s=10)
            assert all(r.ok for r in results)
            assert gateway.report.shed == 0
            assert gateway.health()["overload"]["codel_drops"] == 0


class TestRetryBudget:
    def test_budget_gates_hedges(self, model):
        ocfg = overload_config(retry_floor=1.0, retry_ratio=0.1)
        gateway, clock, _f = make_gateway(
            model,
            GatewayConfig(replicas=2, hedge_after_ms=10.0, overload=ocfg),
            overload=ocfg, service_time_s=lambda toks, ticket: 0.5,
        )
        with gateway:
            for tokens in (["the"], ["visited"], ["today"]):
                gateway.submit(tokens)
            gateway.pump()
            clock.advance(0.05)            # everyone past the hedge bar
            gateway.pump()
            report = gateway.report
            # The floor affords exactly one hedge; the rest are denied.
            assert report.hedges == 1
            assert report.hedges_denied >= 2
            budget = gateway.health()["overload"]["retry_budget"]
            assert budget["balance"] == 0.0
            assert budget["granted"] == 1

    def test_successes_replenish_hedge_capacity(self, model):
        ocfg = overload_config(retry_floor=0.0, retry_ratio=0.5)
        gateway, clock, _f = make_gateway(
            model,
            GatewayConfig(replicas=2, hedge_after_ms=50.0, overload=ocfg),
            overload=ocfg, service_time_s=lambda toks, ticket: 0.01,
        )
        with gateway:
            # Cheap successes first: each deposits 0.5 tokens.
            gateway.tag_many([["the"], ["visited"], ["today"]], timeout_s=10)
            slow = gateway.submit(["reports", "arrived"])
            gateway.pump()
            # Pin the request past the hedge bar; budget now affords it.
            request = gateway._requests[slow]
            request.first_sent_at = clock() - 1.0
            gateway.pump()
            assert gateway.report.hedges == 1

    def test_failover_requeue_forces_the_budget(self, model):
        ocfg = overload_config(retry_floor=0.0, retry_ratio=0.1)
        gateway, clock, _f = make_gateway(
            model, GatewayConfig(replicas=2, overload=ocfg),
            overload=ocfg, service_time_s=lambda toks, ticket: 10.0,
        )
        with gateway:
            gateway.submit(["the"])
            gateway.pump()
            stuck = next(s for s in gateway._shards if s.inflight)
            gateway.kill_replica(stuck.id)
            gateway.pump()
            budget = gateway.health()["overload"]["retry_budget"]
            # Zero-loss wins: the reroute went through on an empty bucket.
            assert budget["forced"] == 1
            assert gateway.report.refunds == 1


class TestReporting:
    def test_report_and_health_carry_overload_state(self, model):
        ocfg = overload_config()
        gateway, _clock, _f = make_gateway(
            model, GatewayConfig(replicas=2, overload=ocfg), overload=ocfg)
        with gateway:
            gateway.tag_many([["the"]], priority=INTERACTIVE, timeout_s=10)
            health = gateway.health()
            assert "overload" in health
            assert "retry_budget" in health["overload"]
            ladders = health["overload"]["ladders"]
            assert len(ladders) == 2
            assert all(l["level"] == 0 for l in ladders)
        summary = gateway.report.summary()
        assert summary["shed_by_priority"][INTERACTIVE] == 0
        assert "overload" in summary and summary["overload"]
        assert "overload:" in gateway.report.render()

    def test_legacy_report_has_no_overload_section(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=2))
        with gateway:
            gateway.tag_many([["the"]], timeout_s=10)
            assert "overload" not in gateway.health()
        assert gateway.report.summary()["overload"] == {}
        assert "overload:" not in gateway.report.render()

    def test_unloaded_results_identical_with_and_without_overload(self,
                                                                  model):
        requests = synthetic_requests(16, seed=5, pool=tuple(TOKENS))
        ocfg = overload_config()
        plain, _c, _f = make_gateway(model, GatewayConfig(replicas=2))
        with plain:
            want = plain.tag_many(requests, timeout_s=10)
        guarded, _c, _f = make_gateway(
            model, GatewayConfig(replicas=2, overload=ocfg), overload=ocfg)
        with guarded:
            got = guarded.tag_many(requests, timeout_s=10)
        assert [r.spans for r in got] == [r.spans for r in want]
        assert all(r.ok and not r.degraded for r in got)


class TestLoadgenPriorities:
    def test_per_priority_breakdown_in_slo_report(self, model):
        ocfg = overload_config()
        gateway, _clock, _f = make_gateway(
            model, GatewayConfig(replicas=2, overload=ocfg), overload=ocfg)
        requests = synthetic_requests(30, seed=1, pool=tuple(TOKENS))
        priorities = ([INTERACTIVE] * 10 + [STANDARD] * 10 + [BATCH] * 10)
        with gateway:
            slo = run_load(gateway, requests, model="closed", concurrency=4,
                           seed=1, priorities=priorities)
        assert slo.per_priority is not None
        assert set(slo.per_priority) == {INTERACTIVE, STANDARD, BATCH}
        for stats in slo.per_priority.values():
            assert stats["offered"] == 10
            assert stats["completed"] == 10
            assert stats["shed_rate"] == 0.0
            assert stats["p99_ms"] >= stats["p50_ms"]
        rendered = slo.render()
        for name in (INTERACTIVE, STANDARD, BATCH):
            assert f"[{name}]" in rendered
        assert "per_priority" in slo.summary()

    def test_priorities_length_mismatch_rejected(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=1))
        with gateway:
            with pytest.raises(ValueError, match="must match"):
                run_load(gateway, [["the"]], priorities=[STANDARD, BATCH])

    def test_no_priorities_keeps_report_shape(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=1))
        with gateway:
            slo = run_load(gateway, [["the"], ["visited"]], model="closed",
                           concurrency=2)
        assert slo.per_priority is None
        assert "per_priority" not in slo.summary()
