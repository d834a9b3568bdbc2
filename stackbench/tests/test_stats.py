"""Percentiles, tail selection and result classification."""

import math

import pytest

import stats
from repro.serving import Expired, Overloaded, Rejected, TagResult


class TestPercentile:
    def test_nearest_rank_returns_observed_values(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(samples, 50.0) == 3.0
        assert stats.percentile(samples, 100.0) == 5.0
        assert stats.percentile(samples, 1.0) == 1.0

    def test_p99_of_a_thousand_is_the_tenth_largest(self):
        samples = list(range(1, 1001))
        assert stats.percentile(samples, 99.0) == 990
        assert stats.percentile(samples, 90.0) == 900

    def test_infinite_samples_sort_last(self):
        assert stats.percentile([1.0, math.inf, 2.0], 50.0) == 2.0
        assert stats.percentile([1.0, math.inf, 2.0], 100.0) == math.inf

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 0.0)


class TestTailSelection:
    @pytest.mark.parametrize("n, level", [
        (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_needs_ten_samples_beyond_the_level(self, n, level):
        assert stats.supported_tail(n) == level

    def test_summary_flags_an_unsupported_tail(self):
        summary = stats.summarize(list(range(50)), 90.0)
        assert summary["n"] == 50
        assert summary["tail_supported"] is False
        assert summary["highest_supported"] == 50.0
        assert stats.summarize(list(range(100)), 90.0)["tail_supported"]


TOKENS = ("Kavox", "visited", "the", "river")
SPANS = ((0, 1, "0"),)


class TestClassify:
    def test_matching_full_answer_is_ok(self):
        result = TagResult(TOKENS, SPANS)
        assert stats.classify(result, list(TOKENS), SPANS) == stats.OK

    def test_spans_differing_from_the_oracle_are_a_mismatch(self):
        result = TagResult(TOKENS, ((1, 2, "0"),))
        assert stats.classify(result, TOKENS, SPANS) == stats.MISMATCH
        assert stats.MISMATCH in stats.INCORRECT

    def test_answer_for_other_tokens_is_a_mismatch(self):
        result = TagResult(TOKENS[:3], SPANS)
        assert stats.classify(result, TOKENS, SPANS) == stats.MISMATCH

    def test_degraded_answer_fails_but_is_not_wrong(self):
        result = TagResult(TOKENS, SPANS, degraded=True)
        kind = stats.classify(result, TOKENS, SPANS)
        assert kind == stats.DEGRADED
        assert kind not in stats.INCORRECT

    @pytest.mark.parametrize("result, kind", [
        (Overloaded("queue full"), stats.SHED),
        (Rejected("empty request"), stats.REJECTED),
        (Expired("deadline spent"), stats.EXPIRED),
        (None, stats.TIMEOUT),
    ])
    def test_typed_refusals_fail_without_being_wrong(self, result, kind):
        assert stats.classify(result, TOKENS, SPANS) == kind
        assert kind not in stats.INCORRECT

    def test_untyped_result_is_wrong(self):
        kind = stats.classify(object(), TOKENS, SPANS)
        assert kind == stats.UNKNOWN
        assert kind in stats.INCORRECT


def test_digest_is_stable_and_order_sensitive():
    assert stats.digest([1, 2]) == stats.digest([1, 2])
    assert stats.digest([1, 2]) != stats.digest([2, 1])
