"""Property tests: batched CRF kernels vs the per-sentence recursions."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask
from repro.models.decoding import (
    DEGRADED_BREAKER,
    FULL,
    decode_emissions_within,
)
from repro.perf import recurrent_kernel_enabled


@pytest.fixture
def rng():
    return np.random.default_rng(101)


def random_batch(rng, batch=None, length=None, num_tags=None):
    batch = batch or int(rng.integers(1, 7))
    length = length or int(rng.integers(1, 10))
    num_tags = num_tags or int(rng.integers(2, 7))
    emissions = rng.normal(size=(batch, length, num_tags)) * 2
    tags = rng.integers(0, num_tags, size=(batch, length))
    lengths = rng.integers(1, length + 1, size=batch)
    lengths[0] = length  # at least one full-length row
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(float)
    return emissions, tags, mask, lengths, num_tags


def grad_of(x):
    """Gradient as an array; a never-touched parameter counts as zeros
    (the legacy graph skips transitions entirely for length-1 batches,
    while the fused kernel reports an explicit zero gradient)."""
    if x.grad is None:
        return np.zeros(np.shape(x.data))
    return np.asarray(x.grad.data if hasattr(x.grad, "data") else x.grad)


class TestDecodeParity:
    def test_viterbi_bit_identical(self, rng):
        for _ in range(15):
            emissions, _tags, mask, lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            batched = crf.viterbi_decode_batch(emissions, mask)
            serial = [
                crf.viterbi_decode(emissions[b, : lengths[b]])
                for b in range(emissions.shape[0])
            ]
            assert batched == serial

    def test_viterbi_identical_under_ties(self, rng):
        """Quantised emissions tie scores; argmax tie-breaking must match."""
        crf = LinearChainCRF(4, rng)
        crf.transitions.data[:] = 0.0
        emissions = np.round(rng.normal(size=(5, 7, 4)))
        mask = np.ones((5, 7))
        assert crf.viterbi_decode_batch(emissions, mask) == [
            crf.viterbi_decode(emissions[b]) for b in range(5)
        ]

    def test_constrained_crf_parity(self, rng):
        names = ["O", "B-0", "I-0", "B-1", "I-1"]
        crf = LinearChainCRF(
            5, rng, bio_transition_mask(names), bio_start_mask(names)
        )
        emissions, _tags, mask, lengths, _ = random_batch(
            rng, batch=5, length=8, num_tags=5
        )
        assert crf.viterbi_decode_batch(emissions, mask) == [
            crf.viterbi_decode(emissions[b, : lengths[b]]) for b in range(5)
        ]

    def test_tensor_input_accepted(self, rng):
        crf = LinearChainCRF(3, rng)
        emissions = rng.normal(size=(2, 4, 3))
        mask = np.ones((2, 4))
        assert crf.viterbi_decode_batch(Tensor(emissions), mask) == \
            crf.viterbi_decode_batch(emissions, mask)

    def test_shape_validation(self, rng):
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ValueError):
            crf.viterbi_decode_batch(np.zeros((4, 3)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            crf.viterbi_decode_batch(np.zeros((2, 4, 3)), np.ones((2, 5)))
        with pytest.raises(ValueError):  # empty first row
            crf.viterbi_decode_batch(np.zeros((2, 4, 3)),
                                     np.array([[1, 1, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(ValueError):  # tag-count mismatch
            crf.viterbi_decode_batch(np.zeros((2, 4, 5)), np.ones((2, 4)))


class TestFusedNLL:
    def test_value_matches_autodiff(self, rng):
        for _ in range(10):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            slow = crf.batch_nll_padded(Tensor(emissions), tags, mask)
            fast = crf.batch_nll_fast(Tensor(emissions), tags, mask)
            assert fast.item() == pytest.approx(slow.item(), abs=1e-10)

    def test_gradients_match_autodiff(self, rng):
        for _ in range(8):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            e_slow = Tensor(emissions, requires_grad=True)
            crf.batch_nll_padded(e_slow, tags, mask).backward()
            expected = {
                name: grad_of(p).copy()
                for name, p in (("trans", crf.transitions),
                                ("start", crf.start_scores),
                                ("end", crf.end_scores))
            }
            for p in (crf.transitions, crf.start_scores, crf.end_scores):
                p.grad = None
            e_fast = Tensor(emissions, requires_grad=True)
            crf.batch_nll_fast(e_fast, tags, mask).backward()
            np.testing.assert_allclose(
                grad_of(e_fast), grad_of(e_slow), atol=1e-8
            )
            for name, p in (("trans", crf.transitions),
                            ("start", crf.start_scores),
                            ("end", crf.end_scores)):
                np.testing.assert_allclose(
                    grad_of(p), expected[name], atol=1e-8, err_msg=name
                )

    def test_fused_loss_is_one_tape_node(self, rng):
        emissions, tags, mask, _lengths, num_tags = random_batch(rng)
        crf = LinearChainCRF(num_tags, rng)
        fused = crf.batch_nll_fast(
            Tensor(emissions, requires_grad=True), tags, mask
        )
        # Its parents are exactly the emissions and the three CRF
        # parameter tensors.
        assert len(fused._node.parents) == 4

    def test_second_order_rejected(self, rng):
        crf = LinearChainCRF(3, rng)
        emissions = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        tags = rng.integers(0, 3, size=(2, 4))
        loss = crf.batch_nll_fast(emissions, tags, np.ones((2, 4)))
        with pytest.raises(RuntimeError, match="first-order"):
            loss.backward(create_graph=True)

    def test_validation(self, rng):
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ValueError):  # tag-count mismatch
            crf.batch_nll_fast(
                Tensor(np.zeros((2, 4, 5))),
                np.zeros((2, 4), dtype=int), np.ones((2, 4)),
            )
        with pytest.raises(ValueError):  # tags shape mismatch
            crf.batch_nll_fast(
                Tensor(np.zeros((2, 4, 3))),
                np.zeros((2, 3), dtype=int), np.ones((2, 4)),
            )


def _rows(emissions, lengths):
    return [Tensor(emissions[b, : lengths[b]]) for b in range(len(lengths))]


class _Unexpired:
    expired = False


class TestFastpathSwitches:
    def test_defaults(self, rng):
        """The recurrent kernel is on, and ``batch_nll_padded`` is always
        the composite graph: it supports second-order differentiation."""
        assert recurrent_kernel_enabled()
        emissions, tags, mask, _lengths, num_tags = random_batch(rng)
        crf = LinearChainCRF(num_tags, rng)
        loss = crf.batch_nll_padded(
            Tensor(emissions, requires_grad=True), tags, mask
        )
        loss.backward(create_graph=True)

    @pytest.mark.parametrize("selector", ["none", "deadline", "on_sentence",
                                          "breaker_open"])
    def test_decode_branches_match_per_row_reference(self, rng, selector):
        """The batched branch and every per-sentence branch match the
        per-row decoder they stand for."""
        kwargs, decoder, status = {
            "none": ({}, "viterbi_decode", FULL),
            "deadline": ({"deadline": _Unexpired()}, "viterbi_decode", FULL),
            "on_sentence": ({"on_sentence": lambda i: None},
                            "viterbi_decode", FULL),
            "breaker_open": ({"allow_viterbi": False}, "argmax_decode",
                             DEGRADED_BREAKER),
        }[selector]
        for _ in range(10):
            emissions, _tags, _mask, lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            rows = _rows(emissions, lengths)
            paths, statuses = decode_emissions_within(crf, rows, **kwargs)
            assert paths == [getattr(crf, decoder)(r.data) for r in rows]
            assert statuses == [status] * len(rows)


class TestZeroLengthEmissions:
    """An empty sentence is rejected with the same ``ValueError`` by the
    batched kernel and by both per-sentence decoders."""

    @pytest.mark.parametrize("decoder", ["viterbi_decode", "argmax_decode"])
    def test_per_sentence_decoders_reject(self, rng, decoder):
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ValueError, match="at least one token"):
            getattr(crf, decoder)(np.zeros((0, 3)))

    @pytest.mark.parametrize("selector", ["batched", "deadline"])
    def test_decode_emissions_within_rejects(self, rng, selector):
        crf = LinearChainCRF(3, rng)
        kwargs = {} if selector == "batched" else {"deadline": _Unexpired()}
        with pytest.raises(ValueError, match="at least one token"):
            decode_emissions_within(
                crf, [np.zeros((2, 3)), np.zeros((0, 3))], **kwargs
            )
