"""Tape-free inference parity: every inference entry point against the tape.

Decoding runs its emissions under ``no_grad``, where ``CharCNN`` takes a
deduplicated plain-numpy path.  These tests pin the contract that makes
that safe: the tape-free emissions are ``np.array_equal`` to the tape
path, every decode entry point agrees with per-sentence Viterbi on the
paths, and inference records no tape node while training still gets
char-CNN gradients.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff.tensor import Tensor, no_grad
from repro.data.sentence import Sentence, Span
from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.nn import CharCNN
from repro.obs import profile_tape
from repro.serving import TaggingService

#: Training words; the model's vocabularies are built from these.
KNOWN = ("the", "visited", "today", "reports", "arrived", "Kavox", "Zuqev",
         "Mirelle", "council", "met", "river", "a", "I")
#: Tokens the inputs add: OOV words, words longer than ``max_chars``,
#: 1-char tokens and tokens made (partly) of characters the char
#: vocabulary has never seen.
EXTRA = ("Qorvath", "internationalisation", "counterrevolutionaries", "x",
         "7", "Ωμέγα", "naïve", "Zuqev-Ωx")
WORDS = KNOWN + EXTRA
SCHEME = TagScheme(("PER", "LOC"))
ENCODERS = ("bigru", "bilstm", "transformer")
CONDITIONINGS = ("head", "film", "concat", "film+bias")
GRID = list(itertools.product(ENCODERS, CONDITIONINGS, (True, False),
                              (True, False)))


@functools.lru_cache(maxsize=None)
def _model(encoder: str, conditioning: str, use_char_cnn: bool,
           with_phi: bool):
    config = BackboneConfig(encoder=encoder, conditioning=conditioning,
                            use_char_cnn=use_char_cnn, dropout=0.2)
    model = CNNBiGRUCRF(
        Vocabulary(KNOWN), CharVocabulary(KNOWN), SCHEME.num_tags, config,
        np.random.default_rng(7), tag_names=SCHEME.tags,
    )
    phi = None
    if with_phi:
        # A non-zero φ, so the conditioning site changes the emissions.
        values = np.random.default_rng(8).normal(size=model.context_size)
        phi = Tensor(0.5 * values, requires_grad=True)
    return model, phi


# Ragged batches of up to 10 sentences (the padding positions are
# all-padding char rows), drawn from a small pool so words repeat.
sentences_st = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=14),
    min_size=1, max_size=10,
)


@pytest.mark.parametrize("encoder,conditioning,use_char_cnn,with_phi", GRID)
@settings(max_examples=4, deadline=None)
@given(token_lists=sentences_st)
@example(token_lists=[["Kavox"]])
@example(token_lists=[["x"], ["internationalisation", "x", "x"], ["Ωμέγα"]])
def test_inference_matches_tape(encoder, conditioning, use_char_cnn,
                                with_phi, token_lists):
    model, phi = _model(encoder, conditioning, use_char_cnn, with_phi)
    sentences = [Sentence(tuple(tokens)) for tokens in token_lists]
    model.eval()
    try:
        batch = model.encode(sentences)
        taped = model.emission_scores(batch, phi)
        with no_grad():
            tape_free = model.emission_scores(batch, phi)
            # Independent oracle: per-sentence Viterbi on each row.
            reference = [model.crf.viterbi_decode(e.data)
                         for e in model.emissions(batch, phi)]
    finally:
        model.train()
    assert taped.requires_grad and not tape_free.requires_grad
    assert np.array_equal(taped.data, tape_free.data)

    paths = model.decode(sentences, phi)
    assert paths == reference
    within, _statuses = model.decode_within(sentences, phi)
    assert within == paths
    results = TaggingService(model, SCHEME, phi=phi).tag_many(token_lists)
    assert [r.spans for r in results] == [
        tuple(SCHEME.decode(path)) for path in paths
    ]


char_ids_st = st.integers(1, 12).flatmap(lambda width: st.lists(
    st.one_of(
        st.just([0] * width),  # an all-padding row
        st.lists(st.integers(0, 9), min_size=width, max_size=width),
    ),
    min_size=1, max_size=24,
).map(lambda rows: np.array(rows * 2, dtype=np.intp)))  # rows repeat


@settings(max_examples=60, deadline=None)
@given(widths=st.sampled_from([(2, 3, 4), (1, 5)]),
       per_width=st.integers(1, 6), char_dim=st.integers(1, 6),
       char_ids=char_ids_st)
def test_char_cnn_numpy_path_matches_tape(widths, per_width, char_dim,
                                          char_ids):
    cnn = CharCNN(10, char_dim, per_width * len(widths),
                  np.random.default_rng(3), widths=widths)
    taped = cnn(char_ids)
    assert taped.requires_grad
    with no_grad():
        tape_free = cnn(char_ids)
    assert np.array_equal(taped.data, tape_free.data)
    assert np.array_equal(taped.data, cnn.forward_array(char_ids))


@pytest.mark.parametrize("bad", [-1, 10])
def test_out_of_range_char_ids_raise_on_both_paths(bad):
    cnn = CharCNN(10, 4, 6, np.random.default_rng(3), widths=(2, 3))
    char_ids = np.array([[1, 2, 0], [3, bad, 0]], dtype=np.intp)
    with pytest.raises(IndexError):
        cnn(char_ids)
    with no_grad(), pytest.raises(IndexError):
        cnn(char_ids)


def test_inference_records_no_tape_and_training_still_does():
    model, phi = _model("bigru", "head", True, True)
    assert phi.requires_grad
    token_lists = [["the", "Kavox", "visited", "Qorvath"], ["x"],
                   ["Zuqev", "met", "the", "council", "today"]]
    sentences = [Sentence(tuple(tokens)) for tokens in token_lists]
    service = TaggingService(model, SCHEME, phi=phi)
    with profile_tape() as profile:
        service.tag_many(token_lists)
        model.decode(sentences, phi)
        model.decode_within(sentences, phi)
    assert profile.nodes_created == 0

    tagged = [Sentence(s.tokens, (Span(0, 1, "PER"),)) for s in sentences]
    model.zero_grad()
    model.loss(model.encode(tagged, SCHEME)).backward()
    grads = {name: p.grad for name, p in model.char_cnn.named_parameters()}
    assert grads and all(g is not None for g in grads.values())
    model.zero_grad()
