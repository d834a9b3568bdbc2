"""Span recording, patching and the self-time ledger."""

import itertools
import types

import pytest

import tracing


def span(name, start, end, parent=-1):
    return [name, float(start), float(end), parent]


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            span("root:op", 0, 10),          # 0
            span("service:drain", 1, 9, 0),   # 1
            span("char_cnn:forward", 2, 4, 1),  # 2
            span("encoder:forward", 4, 7, 1),   # 3
            span("viterbi:decode", 7.5, 8.5, 1),  # 4
        ]
        assert tracing.self_times(spans) == [2.0, 2.0, 2.0, 3.0, 1.0]

    def test_overlapping_children_count_their_union(self):
        spans = [span("a:x", 0, 10), span("b:y", 1, 5, 0),
                 span("b:z", 3, 7, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert tracing.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0

    def test_ledger_rows_add_up_to_the_path_time(self):
        spans = [
            span("root:op", 0, 10),
            span("service:drain", 1, 9, 0),
            span("char_cnn:forward", 2, 4, 1),
            span("service:submit", 9, 9.5, 0),
            span("root:op", 20, 24),
            span("char_cnn:forward", 21, 23, 4),
            span("other:top", 30, 40),   # not on the path
        ]
        ledger = tracing.ledger(spans, "root:op", scale=1.0)
        assert ledger["ops"] == 2
        assert ledger["total"] == pytest.approx(7.0)
        assert ledger["layers"] == {
            "char_cnn": pytest.approx(2.0),
            "service": pytest.approx(3.25),
        }
        assert ledger["unattributed"] == pytest.approx(1.75)
        assert (sum(ledger["layers"].values()) + ledger["unattributed"]
                == pytest.approx(ledger["total"]))

    def test_drop_leading_keeps_later_roots_and_reindexes(self):
        spans = [span("r:t", 0, 1), span("l:x", 0.2, 0.4, 0),
                 span("r:t", 2, 3), span("l:x", 2.1, 2.2, 2)]
        kept = tracing.drop_leading(spans, "r:t", 1)
        assert kept == [span("r:t", 2, 3), span("l:x", 2.1, 2.2, 0)]
        assert tracing.drop_leading(spans, "r:t", 2) == []

    def test_inclusive_and_children_named(self):
        spans = [span("r:t", 0, 5), span("s:drain", 1, 3, 0),
                 span("r:t", 6, 9), span("s:drain", 6, 8, 2)]
        assert tracing.inclusive(spans, "s:drain") == (2, 4.0)
        assert tracing.children_named(spans, "s:drain") == {0: 2.0, 2: 2.0}


class TestTracer:
    def _tracer(self):
        ticks = itertools.count()
        return tracing.Tracer(clock=lambda: float(next(ticks)))

    def test_call_records_parentage(self):
        tracer = self._tracer()
        tracer.call("a:outer", lambda: tracer.call("b:inner", lambda: 7))
        assert tracer.spans == [["a:outer", 0.0, 3.0, -1],
                                ["b:inner", 1.0, 2.0, 0]]

    def test_span_closes_when_the_call_raises(self):
        tracer = self._tracer()
        with pytest.raises(KeyError):
            tracer.call("a:x", lambda: {}["missing"])
        assert tracer.spans[0][2] > tracer.spans[0][1]
        tracer.call("a:y", lambda: None)
        assert tracer.spans[1][3] == -1

    def test_patch_and_restore_an_instance_method(self):
        class Thing:
            def work(self, x):
                return x + 1

        thing, other = Thing(), Thing()
        tracer = self._tracer()
        tracer.patch(thing, "work", "thing:work")
        assert thing.work(1) == 2
        assert other.work(1) == 2
        assert [s[0] for s in tracer.spans] == ["thing:work"]
        tracer.restore()
        assert "work" not in vars(thing)
        assert thing.work(2) == 3

    def test_patch_and_restore_a_class_and_a_module(self):
        class Thing:
            def work(self):
                return "class"

        module = types.ModuleType("fake")
        module.helper = lambda: "module"
        original = Thing.__dict__["work"]
        tracer = self._tracer()
        tracer.patch(Thing, "work", "thing:work")
        tracer.patch(module, "helper", "fake:helper")
        assert Thing().work() == "class"
        assert module.helper() == "module"
        assert len(tracer.spans) == 2
        tracer.restore()
        assert Thing.__dict__["work"] is original
        assert module.helper() == "module"
        assert len(tracer.spans) == 2

    def test_on_call_is_recorded_as_tracer_bookkeeping(self):
        tracer = self._tracer()
        seen = []
        wrapped = tracer.wrap("l:x", lambda v: v * 2, on_call=seen.append)
        assert wrapped(4) == 8
        assert seen == [4]
        assert [s[0] for s in tracer.spans] == ["tracer:bookkeeping", "l:x"]
