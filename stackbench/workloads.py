"""The four workloads: set-up, timed loop, traced loop and output checks.

Every workload drives ``repro`` through its public API only.  The model
under test is fixed: the GENIA corpus at scale 0.05 and seed 0, the
default backbone, a 5-way FewNER adapter with no warm-up training.  The
benchmark seed chooses the inputs sent to it.

* ``serve-open`` is an open loop: Poisson arrivals at each rate of a
  fixed ladder, one OntoNotes-spec sentence per request, through a
  process-backend :class:`~repro.serving.ShardedGateway`.
* ``serve-bulk`` is a closed loop with one caller that hands whole
  in-domain GENIA documents to
  :meth:`~repro.serving.TaggingService.tag_many`.
* ``fewner-episodes`` is a closed loop over fixed held-out-type episodes
  (two 1-shot episodes, then one 5-shot) through
  ``FewNER.predict_episode``.
* ``meta-train`` is a closed loop of ``FewNER.fit`` one iteration at a
  time, with the default first-order configuration.

A workload's ``measure`` returns the raw timings and the result of the
output checks; ``trace`` alternates untraced and traced blocks and
returns the per-layer record (see :mod:`tracing`).
"""

from __future__ import annotations

import glob
import json
import math
import os
import time
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import stats
import tracing

MODEL_SEED = 0
MODEL_SCALE = 0.05
N_WAY = 5
HOLDOUT_TYPES = 5
#: Oracle decodes run in chunks of this many sentences.
ORACLE_CHUNK = 64


@dataclass(frozen=True)
class Size:
    """Input sizes; ``tiny`` exists for the smoke tests."""

    #: Distinct sentences serve-open draws its requests from.
    request_pool: int
    #: serve-open arrival-rate ladder (requests/s); the middle is nominal.
    ladder: tuple[float, ...]
    #: Share of a serve-open run spent at the nominal rate.
    nominal_share: float
    #: serve-open warm-up requests after the replicas start.
    warmup_requests: int
    #: serve-bulk documents and their size range (sentences).
    docs: int
    doc_sentences: tuple[int, int]
    #: Fixed FEWNER episodes (two 1-shot, then one 5-shot, repeated).
    episodes: int
    #: Leading training losses covered by the loss digest.
    loss_digest_len: int


SIZES = {
    "full": Size(request_pool=512, ladder=(15.0, 30.0, 60.0, 120.0, 240.0),
                 nominal_share=0.8, warmup_requests=64, docs=48,
                 doc_sentences=(300, 300), episodes=64, loss_digest_len=16),
    "tiny": Size(request_pool=24, ladder=(20.0, 40.0, 60.0),
                 nominal_share=0.6, warmup_requests=8, docs=2,
                 doc_sentences=(70, 90), episodes=4, loss_digest_len=2),
}

#: p99 latency limit of the serve-open SLO.
SLO_P99_MS = 25.0
#: A serve-open rung stops sending once this many requests per replica
#: are outstanding: the backlog is growing, and sending on would only
#: make the gateway shed (the bound is half of ``max_shard_queue``).
BACKLOG_PER_REPLICA = 32
#: Wall time a rung may take to drain before its stragglers time out.
DRAIN_TIMEOUT_S = 20.0


# ----------------------------------------------------------------------
# The model under test
# ----------------------------------------------------------------------
@dataclass
class Model:
    corpus: object
    train: object
    test: object
    adapter: object
    scheme: object

    @property
    def net(self):
        return self.adapter.model


def build_model() -> Model:
    """The GENIA FEWNER model, built the way ``repro train`` builds it."""
    from repro.data.splits import split_by_types
    from repro.data.synthetic import generate_dataset
    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.meta import MethodConfig, build_method

    corpus = generate_dataset("GENIA", scale=MODEL_SCALE, seed=MODEL_SEED)
    n_types = len(corpus.types)
    train, _val, test = split_by_types(
        corpus, (n_types - 2 * HOLDOUT_TYPES, HOLDOUT_TYPES, HOLDOUT_TYPES),
        seed=MODEL_SEED + 1,
    )
    word_vocab = Vocabulary.from_datasets([train], min_count=2)
    char_vocab = CharVocabulary.from_datasets([train])
    adapter = build_method(
        "FewNER", word_vocab, char_vocab, N_WAY,
        MethodConfig(seed=MODEL_SEED, pretrain_iterations=0),
    )
    scheme = TagScheme(tuple(str(way) for way in range(N_WAY)))
    return Model(corpus, train, test, adapter, scheme)


def oracle_spans(model: Model, token_lists) -> dict:
    """Oracle spans per distinct token tuple, from ``CNNBiGRUCRF.decode``."""
    from repro.autodiff import no_grad
    from repro.data.sentence import Sentence

    todo = list(dict.fromkeys(tuple(t) for t in token_lists))
    out = {}
    with no_grad():
        for i in range(0, len(todo), ORACLE_CHUNK):
            chunk = todo[i:i + ORACLE_CHUNK]
            paths = model.net.decode([Sentence(t) for t in chunk])
            for tokens, path in zip(chunk, paths):
                out[tokens] = tuple(
                    (s, e, label) for s, e, label in model.scheme.decode(path)
                )
    return out


def input_properties(model: Model, token_lists) -> dict:
    """Tokens per sentence, OOV share and within-sentence repeat share."""
    vocab = model.net.word_vocab
    tokens = sum(len(t) for t in token_lists)
    oov = sum(1 for toks in token_lists for t in toks if t not in vocab)
    repeats = sum(len(toks) - len(set(toks)) for toks in token_lists)
    return {
        "sentences": len(token_lists),
        "tokens_per_sent": tokens / len(token_lists),
        "oov_share": oov / tokens,
        "repeat_in_sentence_share": repeats / tokens,
    }


def tally(outcomes) -> dict:
    """Counts per outcome, plus attempted / failed / incorrect totals."""
    counts: dict[str, int] = {}
    for kind in outcomes:
        counts[kind] = counts.get(kind, 0) + 1
    attempted = sum(counts.values())
    return {
        "attempted": attempted,
        "failed": attempted - counts.get(stats.OK, 0),
        "incorrect": sum(counts.get(k, 0) for k in stats.INCORRECT),
        "outcomes": dict(sorted(counts.items())),
    }


# ----------------------------------------------------------------------
# Instrumentation of the layers' public entry points
# ----------------------------------------------------------------------
def _count_words(tracer):
    def on_call(char_ids):
        ids = np.asarray(char_ids)
        words = ids[ids.any(axis=1)]
        tracer.count("char_cnn.tokens", len(words))
        if len(words):
            rows = np.ascontiguousarray(words).view(
                np.dtype((np.void, words.dtype.itemsize * words.shape[1])))
            tracer.count("char_cnn.distinct", len(np.unique(rows)))
    return on_call


def _count_batch(tracer):
    def on_call(sentences, *args, **kwargs):
        tracer.count("decode.batches")
        tracer.count("decode.sentences", len(sentences))
    return on_call


def instrument_model(tracer, net) -> None:
    """Spans around every layer entry point of a ``CNNBiGRUCRF``."""
    patch = tracer.patch
    patch(net, "decode", "backbone:decode")
    patch(net, "decode_within", "backbone:decode_within",
          on_call=_count_batch(tracer))
    patch(net, "predict_spans", "backbone:predict_spans")
    patch(net, "emissions", "backbone:emissions")
    patch(net, "features", "backbone:features")
    patch(net, "encoder_features", "backbone:encoder_features")
    patch(net, "loss", "backbone:loss")
    patch(net, "encode", "encode_batch:encode")
    patch(net, "emission_scores", "head:emission_scores")
    patch(net, "token_ce_loss", "inner_loss:token_ce_loss")
    patch(net.word_embedding, "forward", "word_embedding:forward")
    if net.config.use_char_cnn:
        patch(net.char_cnn, "forward", "char_cnn:forward",
              on_call=_count_words(tracer))
    patch(net.encoder, "forward", "encoder:forward")
    patch(net.crf, "viterbi_decode_batch", "viterbi:viterbi_decode_batch")
    patch(net.crf, "viterbi_decode", "viterbi:viterbi_decode")
    patch(net.crf, "batch_nll_padded", "crf_nll:batch_nll_padded")


def instrument_service(tracer, service) -> None:
    """Spans around the service's admission, drain and sanitizer."""
    tracer.patch(service, "submit", "service:submit")
    tracer.patch(service, "drain", "service:drain")
    tracer.patch(service.sanitizer, "sanitize", "sanitize:sanitize")
    instrument_model(tracer, service.model)


def instrument_adapter(tracer, adapter, sampler=None) -> None:
    """Spans around FEWNER's model, autodiff, optimizer and sampler."""
    import repro.meta.fewner as fewner_module
    from repro.autodiff.tensor import Tensor
    from repro.reliability.guard import GuardedStep

    instrument_model(tracer, adapter.model)
    tracer.patch(fewner_module, "grad", "autodiff:grad")
    tracer.patch(Tensor, "backward", "autodiff:backward")
    tracer.patch(adapter.optimizer, "step", "optim:step")
    tracer.patch(GuardedStep, "step", "guard:step")
    if sampler is not None:
        tracer.patch(sampler, "sample_many", "episodes:sample_many")


def tape_nodes_per_sentence(fn, sentences: int) -> float:
    """Autodiff tape nodes ``fn()`` records, per sentence it handles."""
    from repro.obs.tapeprof import profile_tape

    with profile_tape() as profile:
        fn()
    return profile.nodes_created / max(sentences, 1)


def layer_record(spans, counters, root: str, untraced_ms, traced_ms,
                 factors=None, **extra) -> dict:
    """The traced run's record: the ledger of the path from ``root``,
    counters, and the tracing overhead against the untraced ops."""
    return {
        "ledger": tracing.ledger(spans, root, factors=factors),
        "untraced_op_ms_p50": (stats.percentile(untraced_ms, 50.0)
                               if untraced_ms else 0.0),
        "traced_op_ms_p50": (stats.percentile(traced_ms, 50.0)
                             if traced_ms else 0.0),
        "overhead_pct": overhead_pct(untraced_ms, traced_ms),
        "counters": dict(counters),
        "inclusive_ms": {
            name: tracing.inclusive(spans, name)[1] * 1000.0
            for name in ("backbone:predict_spans", "fewner:predict_episode",
                         "inner_loss:token_ce_loss", "autodiff:grad")
        },
        "grad_calls": tracing.inclusive(spans, "autodiff:grad")[0],
        **extra,
    }


def _check(summary: dict) -> dict:
    return {k: summary[k]
            for k in ("attempted", "failed", "incorrect", "outcomes")}


def overhead_pct(untraced_ms, traced_ms) -> float:
    """Median traced op time over median untraced op time, minus one, in %."""
    if not untraced_ms or not traced_ms:
        return 0.0
    base = stats.percentile(untraced_ms, 50.0)
    return (stats.percentile(traced_ms, 50.0) - base) / base * 100.0


# ----------------------------------------------------------------------
# Closed loops
# ----------------------------------------------------------------------
class Record(NamedTuple):
    """One timed operation of a closed loop."""

    index: int
    #: Wall seconds the operation took.
    seconds: float
    #: What the operation returned; for a repeated item only when the
    #: loop keeps every output (see :func:`closed_loop`).
    output: object
    #: CPU seconds of this process during the operation, at the
    #: calibration kernel's reference speed.
    scaled: float
    #: False when a repeated item's output differs from its first one.
    same: bool = True


def closed_loop(op, items, seconds: float, fingerprint=None, on_block=None,
                block_ops=0):
    """Call ``op(item)`` over ``items`` cyclically for ``seconds``.

    Returns one :class:`Record` per operation; at least one operation
    always runs.  Each operation is timed twice: wall time, and the
    process's CPU time, which leaves out time the hypervisor gave this
    virtual CPU to other guests.  The calibration kernel runs between
    operations, and the CPU time is scaled by the kernel's speed just
    before and just after the operation (see :func:`stats.calibrate`).

    With ``fingerprint``, only the first output of each item is kept;
    a repeat is compared with it through ``fingerprint(output)`` and
    dropped, so memory does not grow with the run.  With ``on_block``,
    ``on_block(k)`` runs before operation ``k * block_ops`` and
    ``on_block(-1)`` at the end, outside the timed calls.
    """
    raw = []
    first: dict[int, object] = {}
    clock, cpu_clock = time.perf_counter, time.process_time
    deadline = clock() + seconds
    calibrations = [stats.calibrate()]
    i = 0
    while not raw or clock() < deadline:
        if on_block is not None and i % block_ops == 0:
            on_block(i // block_ops)
        index = i % len(items)
        t0, c0 = clock(), cpu_clock()
        out = op(items[index])
        elapsed, cpu = clock() - t0, cpu_clock() - c0
        calibrations.append(stats.calibrate())
        same = True
        if fingerprint is not None:
            if index in first:
                same = fingerprint(out) == first[index]
                out = None
            else:
                first[index] = fingerprint(out)
        raw.append((index, elapsed, cpu, out, same))
        i += 1
    if on_block is not None:
        on_block(-1)
    return [
        Record(index, dt, out,
               cpu * stats.speed_factor(calibrations[k], calibrations[k + 1]),
               same)
        for k, (index, dt, cpu, out, same) in enumerate(raw)
    ]


def first_outputs(records) -> dict:
    """Item index → the record that kept its output."""
    out = {}
    for record in records:
        out.setdefault(record.index, record)
    return out


def timings(records, tail: float) -> dict:
    """Scaled per-operation latencies, with the raw ones alongside."""
    summary = stats.summarize([r.scaled * 1000.0 for r in records], tail)
    summary["raw"] = stats.summarize([r.seconds * 1000.0 for r in records],
                                     tail)
    return summary


class ClosedLoopWorkload:
    """A workload whose operation runs in process, one at a time.

    Subclasses set ``root`` (the span the traced path starts at) and
    implement ``setup``, ``items``, ``op``, ``summary``, ``install`` and
    ``trace_extra``.
    """

    name = ""
    root = ""
    #: Percentile reported as the tail (at least ten samples beyond it
    #: at the default run length).
    tail = 90.0

    def teardown(self, state) -> None:
        pass

    #: ``fingerprint(output)`` for :func:`closed_loop`, or ``None`` to
    #: keep every output.
    fingerprint = None

    def measure(self, state, seconds: float) -> dict:
        records = closed_loop(lambda item: self.op(state, item),
                              self.items(state), seconds,
                              fingerprint=self.fingerprint)
        return self.summary(state, records)

    def trace(self, state, seconds: float, out_dir: str) -> dict:
        """Alternate untraced and traced blocks of one pass over the items."""
        tracer = tracing.Tracer()
        block_ops = max(1, min(len(self.items(state)), 8))
        flags: list[bool] = []

        def on_block(k):
            tracer.restore()
            if k >= 0 and k % 2 == 1:
                self.install(tracer, state)
            flags.append(k >= 0 and k % 2 == 1)

        records = closed_loop(lambda item: self.op(state, item),
                              self.items(state), seconds,
                              fingerprint=self.fingerprint,
                              on_block=on_block, block_ops=block_ops)
        untraced, traced, factors = [], [], []
        for k, record in enumerate(records):
            if flags[k // block_ops]:
                traced.append(record.scaled * 1000.0)
                factors.append(record.scaled / record.seconds)
            else:
                untraced.append(record.scaled * 1000.0)
        summary = self.summary(state, records)
        return layer_record(tracer.spans, tracer.counters, self.root,
                            untraced, traced, factors=factors,
                            check=_check(summary),
                            properties=summary["properties"],
                            **self.trace_extra(state, summary))


# ----------------------------------------------------------------------
# serve-bulk
# ----------------------------------------------------------------------
class ServeBulk(ClosedLoopWorkload):
    name = "serve-bulk"
    root = "service:tag_many"

    def setup(self, seed, size):
        from repro.data.synthetic import generate_dataset
        from repro.serving import TaggingService

        model = build_model()
        # Same generator and seed as the model's corpus, three times
        # longer: the sentences past the corpus are in-domain but unseen.
        held_out = generate_dataset(
            "GENIA", scale=MODEL_SCALE * 3, seed=MODEL_SEED
        ).sentences[len(model.corpus.sentences):]
        rng = np.random.default_rng((seed, 11))
        lo, hi = size.doc_sentences
        docs = []
        for _ in range(size.docs):
            n = int(rng.integers(lo, hi + 1))
            picks = rng.choice(len(held_out), size=n, replace=False)
            docs.append([list(held_out[int(i)].tokens) for i in picks])
        service = TaggingService(model.net, model.scheme)
        service.tag_many(docs[0])
        return {"model": model, "docs": docs, "service": service}

    def items(self, state):
        return state["docs"]

    def op(self, state, doc):
        return state["service"].tag_many(doc)

    @staticmethod
    def fingerprint(results):
        return tuple((getattr(r, "status", None), getattr(r, "tokens", None),
                      getattr(r, "spans", None), getattr(r, "degraded", None))
                     for r in results)

    def summary(self, state, records) -> dict:
        docs = state["docs"]
        firsts = first_outputs(records)
        answered = [docs[i][j] for i, rec in firsts.items()
                    for j, r in enumerate(rec.output)
                    if getattr(r, "status", None) == "ok"]
        oracle = oracle_spans(state["model"], answered)
        per_doc = {
            i: [stats.classify(result, tokens, oracle.get(tuple(tokens)))
                for tokens, result in zip(docs[i], rec.output)]
            for i, rec in firsts.items()
        }
        # A repeat that answered differently from the first call is wrong
        # sentence for sentence.
        outcomes = [kind for rec in records
                    for kind in (per_doc[rec.index] if rec.same
                                 else [stats.MISMATCH] * len(docs[rec.index]))]
        counts = tally(outcomes)
        busy = sum(rec.scaled for rec in records)
        waits = [r.queue_wait_ms for rec in firsts.values() for r in rec.output
                 if getattr(r, "status", None) == "ok"]
        return {
            "ops": len(records),
            "latency_ms": timings(records, self.tail),
            "throughput_per_s": counts["outcomes"].get(stats.OK, 0) / busy,
            "throughput_unit": "correct sentences/s",
            **counts,
            "properties": input_properties(
                state["model"], [t for doc in docs for t in doc]
            ),
            "queue_wait_ms_p50": stats.percentile(waits or [0.0], 50.0),
            "digests": {"inputs": stats.digest(docs)},
        }

    def install(self, tracer, state):
        service = state["service"]
        tracer.patch(service, "tag_many", self.root)
        instrument_service(tracer, service)

    def trace_extra(self, state, summary) -> dict:
        service = state["service"]
        doc = state["docs"][0]
        answered = min(len(doc), service.config.max_pending)
        return {
            "tape.nodes_per_sent": tape_nodes_per_sentence(
                lambda: service.tag_many(doc), answered),
            "service.shed": (summary["outcomes"].get(stats.SHED, 0)
                             / summary["ops"]),
            "service.queue_wait_ms_p50": summary["queue_wait_ms_p50"],
        }


# ----------------------------------------------------------------------
# fewner-episodes
# ----------------------------------------------------------------------
class FewnerEpisodes(ClosedLoopWorkload):
    name = "fewner-episodes"
    root = "fewner:predict_episode"

    def setup(self, seed, size):
        from repro.data.episodes import EpisodeSampler

        model = build_model()
        samplers = {
            k: EpisodeSampler(model.test, N_WAY, k, query_size=4,
                              seed=seed * 2 + (k == 5))
            for k in (1, 5)
        }
        # 1-shot and 5-shot episodes take clearly different times.  Two
        # 1-shot episodes to every 5-shot one put the median inside the
        # 1-shot times and p90 inside the 5-shot times; an even mix
        # would put the median in the gap between them, where it jumps.
        episodes = [samplers[5 if i % 3 == 2 else 1].sample()
                    for i in range(size.episodes)]
        adapter = model.adapter
        for episode in episodes[:2]:
            adapter.predict_episode(episode)
        return {"model": model, "episodes": episodes}

    def items(self, state):
        return state["episodes"]

    @staticmethod
    def fingerprint(predictions):
        return _spans(predictions)

    def op(self, state, episode):
        return state["model"].adapter.predict_episode(episode)

    def summary(self, state, records) -> dict:
        from repro.eval.metrics import episode_f1

        adapter = state["model"].adapter
        episodes = state["episodes"]
        reference = [adapter.predict_episode(e) for e in episodes]
        firsts = first_outputs(records)
        matches = {i: _spans(rec.output) == _spans(reference[i])
                   for i, rec in firsts.items()}
        outcomes = [stats.OK if rec.same and matches[rec.index]
                    else stats.MISMATCH for rec in records]
        f1 = [
            episode_f1([[sp.as_tuple() for sp in s.spans] for s in e.query],
                       reference[i])
            for i, e in enumerate(episodes)
        ]
        busy = sum(rec.scaled for rec in records)
        return {
            "ops": len(records),
            "latency_ms": timings(records, self.tail),
            "throughput_per_s": len(records) / busy,
            "throughput_unit": "episodes/s",
            **tally(outcomes),
            "properties": {
                "support_sentences_mean": float(np.mean(
                    [len(e.support) for e in episodes])),
                **input_properties(state["model"], [
                    s.tokens for e in episodes
                    for s in list(e.support) + list(e.query)]),
            },
            "digests": {
                "inputs": stats.digest([
                    [e.types, [[s.tokens, [sp.as_tuple() for sp in s.spans]]
                               for s in list(e.support) + list(e.query)]]
                    for e in episodes]),
                "predictions": stats.digest([_spans(r) for r in reference]),
                "mean_episode_f1": float(np.mean(f1)),
            },
        }

    def install(self, tracer, state):
        adapter = state["model"].adapter
        tracer.patch(adapter, "predict_episode", self.root)
        instrument_adapter(tracer, adapter)

    def trace_extra(self, state, summary) -> dict:
        adapter = state["model"].adapter
        episodes = state["episodes"][:2]
        sentences = sum(len(e.support) + len(e.query) for e in episodes)
        return {"tape.nodes_per_sent": tape_nodes_per_sentence(
            lambda: [adapter.predict_episode(e) for e in episodes], sentences)}


def _spans(predictions):
    return tuple(tuple(tuple(span) for span in sent) for sent in predictions)


# ----------------------------------------------------------------------
# meta-train
# ----------------------------------------------------------------------
class MetaTrain(ClosedLoopWorkload):
    name = "meta-train"
    root = "fewner:fit"

    def setup(self, seed, size):
        from repro.data.episodes import EpisodeSampler

        model = build_model()
        sampler = EpisodeSampler(model.train, N_WAY, 1, query_size=4,
                                 seed=seed)
        # The training episodes are drawn as the loop runs; the sampler's
        # seeded state and its sentence pool determine them.
        inputs = stats.digest([sampler.rng_state(),
                               [s.tokens for s in model.train]])
        model.adapter.fit(sampler, 1)
        return {"model": model, "sampler": sampler, "inputs_digest": inputs,
                "digest_len": size.loss_digest_len}

    def items(self, state):
        return [state["sampler"]]

    def op(self, state, sampler):
        return state["model"].adapter.fit(sampler, 1)

    def summary(self, state, records) -> dict:
        losses = [loss for rec in records for loss in rec.output]
        outcomes = [stats.OK if all(math.isfinite(x) for x in rec.output)
                    else stats.NONFINITE for rec in records]
        busy = sum(rec.scaled for rec in records)
        head = losses[:state["digest_len"]]
        return {
            "ops": len(records),
            "latency_ms": timings(records, self.tail),
            "throughput_per_s": len(records) / busy,
            "throughput_unit": "iterations/s",
            **tally(outcomes),
            "properties": {"meta_batch": state["model"].adapter.config.meta_batch},
            "digests": {
                "inputs": state["inputs_digest"],
                "losses": stats.digest([round(x, 12) for x in head]),
                "losses_covered": len(head),
                "first_loss": losses[0] if losses else None,
                "last_loss": losses[-1] if losses else None,
            },
        }

    def install(self, tracer, state):
        adapter = state["model"].adapter
        tracer.patch(adapter, "fit", self.root)
        instrument_adapter(tracer, adapter, state["sampler"])

    def trace_extra(self, state, summary) -> dict:
        adapter = state["model"].adapter
        sampler = state["sampler"]
        # Sample the next iteration's episodes and rewind, to learn how
        # many sentences the profiled iteration handles.
        rng = sampler.rng_state()
        episodes = sampler.sample_many(adapter.config.meta_batch)
        sampler.set_rng_state(rng)
        sentences = sum(len(e.support) + len(e.query) for e in episodes)
        return {"tape.nodes_per_sent": tape_nodes_per_sentence(
            lambda: adapter.fit(sampler, 1), sentences)}


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
def poisson_offsets(rng, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrival offsets in ``[0, seconds)`` with exactly
    ``round(rate * seconds)`` arrivals (a Poisson process conditioned on
    its count), so every seed offers the same load."""
    n = max(1, int(round(rate * seconds)))
    gaps = rng.exponential(1.0, size=n + 1)
    return np.cumsum(gaps)[:-1] / gaps.sum() * seconds


@dataclass
class Request:
    tokens: list
    due: float
    sent: float | None = None
    done: float | None = None
    result: object = None
    replica: int | None = None
    gateway_ms: float | None = None
    #: Delivery order on the client (for pairing with replica spans).
    seq: int = -1
    #: Latency at the reference machine speed (see ``ServeOpen._scale``).
    scaled_ms: float | None = None


def open_loop(gateway, requests: list[Request], backlog_limit: int,
              tracer=None, counters=None) -> bool:
    """Send ``requests`` at their due times and collect every answer.

    Between pumps the client waits like ``repro.serving.run_load``: at
    most ``GatewayConfig.poll_interval_s``, less when the next request is
    due sooner.  Sending stops early (returns ``True``) once more than
    ``backlog_limit`` requests are outstanding; requests never sent stay
    with ``sent = None``.  ``counters`` receives pump statistics.
    """
    clock = time.perf_counter
    poll_s = gateway.config.poll_interval_s
    counters = counters if counters is not None else {}
    counters.setdefault("pumps", 0)
    counters.setdefault("delivering_pumps", 0)
    counters.setdefault("delivered", 0)
    by_ticket: dict[int, Request] = {}
    n = len(requests)
    state = {"next": 0, "done": 0, "aborted": False}
    span = tracer.call if tracer is not None else (
        lambda _name, fn, *args: fn(*args))

    def loop_once():
        now = clock()
        while state["next"] < n and requests[state["next"]].due <= now \
                and not state["aborted"]:
            request = requests[state["next"]]
            ticket = gateway.submit(request.tokens)
            request.sent = clock()
            by_ticket[ticket] = request
            state["next"] += 1
            if state["next"] - state["done"] > backlog_limit:
                state["aborted"] = True
        delivered = gateway.pump()
        counters["pumps"] += 1
        counters["delivering_pumps"] += delivered > 0
        for ticket, routed in gateway.collect().items():
            request = by_ticket.pop(ticket, None)
            if request is None:
                continue
            request.done = clock()
            request.result = routed.result
            request.replica = routed.replica
            request.gateway_ms = routed.latency_ms
            request.seq = counters["delivered"]
            counters["delivered"] += 1
            state["done"] += 1
        if state["next"] < n and not state["aborted"]:
            wait = min(poll_s, max(0.0, requests[state["next"]].due - clock()))
        elif state["done"] < state["next"]:
            wait = poll_s
        else:
            return
        if wait > 0:
            span("wait:sleep", time.sleep, wait)

    drain_deadline = None
    while True:
        span("client:loop", loop_once)
        sending = state["next"] < n and not state["aborted"]
        if not sending and state["done"] >= state["next"]:
            break
        if not sending:
            if drain_deadline is None:
                drain_deadline = clock() + DRAIN_TIMEOUT_S
            elif clock() > drain_deadline:
                break
    return state["aborted"]


class ServeOpen:
    """Open-loop serving through the process-backend gateway."""

    name = "serve-open"
    #: The reported tail.  p99 is printed too, but on a shared 2-core
    #: host its run-to-run spread (20-50%) is wider than any usable bound.
    tail = 90.0

    # -- set-up ----------------------------------------------------------
    def setup(self, seed, size):
        from repro.data.synthetic import generate_dataset

        model = build_model()
        onto = generate_dataset("OntoNotes", scale=0.02, seed=seed)
        rng = np.random.default_rng((seed, 23))
        picks = rng.choice(len(onto.sentences),
                           size=min(size.request_pool, len(onto.sentences)),
                           replace=False)
        pool = [list(onto.sentences[int(i)].tokens) for i in picks]
        # The client keeps a core: it is pinned to the first CPU and each
        # replica to one of the others, so the two never share a core.
        cpus = sorted(os.sched_getaffinity(0))
        state = {"model": model, "pool": pool, "seed": seed, "size": size,
                 "cpus": cpus, "replicas": max(1, len(cpus) - 1)}
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus[:1])
        state["gateway"] = self._start(state, self._factory(state))
        return state

    def _factory(self, state):
        model = state["model"]
        cpus = state["cpus"][1:]

        def factory(replica_id):
            from repro.serving import TaggingService

            if cpus:
                os.sched_setaffinity(0, [cpus[replica_id % len(cpus)]])
            return TaggingService(model.net, model.scheme)

        return factory

    def _start(self, state, factory):
        """Fork the replicas and answer warm-up requests through them."""
        from repro.serving import GatewayConfig, ShardedGateway

        gateway = ShardedGateway(
            factory, GatewayConfig(replicas=state["replicas"]),
            backend="process",
        )
        pool = state["pool"]
        warm = [Request(list(pool[i % len(pool)]), due=0.0)
                for i in range(state["size"].warmup_requests)]
        open_loop(gateway, warm, backlog_limit=len(warm))
        if any(r.result is None for r in warm):
            gateway.shutdown()
            raise RuntimeError("serve-open warm-up requests went unanswered")
        state["warmup"] = warm
        return gateway

    def teardown(self, state) -> None:
        state["gateway"].shutdown()
        os.sched_setaffinity(0, state["cpus"])

    # -- schedule --------------------------------------------------------
    def _rung(self, state, rng, rate, seconds):
        pool = state["pool"]
        start = time.perf_counter() + 0.05
        offsets = poisson_offsets(rng, rate, seconds)
        picks = rng.integers(0, len(pool), size=len(offsets))
        return [Request(list(pool[int(j)]), due=start + float(t))
                for t, j in zip(offsets, picks)]

    def _plan(self, state, seconds):
        """``(rate, seconds)`` per rung: nominal first, then the rest in order."""
        size = state["size"]
        ladder = size.ladder
        nominal = ladder[len(ladder) // 2]
        others = [r for r in ladder if r != nominal]
        rest = seconds * (1.0 - size.nominal_share) / max(len(others), 1)
        return [(nominal, seconds * size.nominal_share)] + [
            (rate, rest) for rate in others]

    # -- measurement -----------------------------------------------------
    def measure(self, state, seconds: float) -> dict:
        rng = np.random.default_rng((state["seed"], 31))
        gateway = state["gateway"]
        limit = BACKLOG_PER_REPLICA * state["replicas"]
        rungs = []
        with stats.SpeedProbes(state["cpus"]) as probes:
            for rate, duration in self._plan(state, seconds):
                requests = self._rung(state, rng, rate, duration)
                counters: dict = {}
                aborted = open_loop(gateway, requests, limit,
                                    counters=counters)
                rungs.append({"rate": rate, "requests": requests,
                              "aborted": aborted, "counters": counters})
        self._scale(state, probes, rungs)
        return self.summary(state, rungs)

    @staticmethod
    def _scale(state, probes, rungs) -> None:
        """Set each answered request's latency at the reference speed.

        A request's time is spent on two CPUs: the client's (submit,
        pump, collect) and its replica's (the decode).  Its latency is
        scaled by the mean of the two CPUs' speed factors while it was
        in flight.
        """
        client, others = state["cpus"][0], state["cpus"][1:] or state["cpus"]
        for rung in rungs:
            for r in rung["requests"]:
                if r.done is None or r.replica is None:
                    continue
                replica_cpu = others[r.replica % len(others)]
                factor = (probes.factor(client, r.due, r.done)
                          + probes.factor(replica_cpu, r.due, r.done)) / 2.0
                r.scaled_ms = (r.done - r.due) * 1000.0 * factor

    def summary(self, state, rungs) -> dict:
        sent = [r for rung in rungs for r in rung["requests"]
                if r.sent is not None]
        oracle = oracle_spans(state["model"], [r.tokens for r in sent])
        kinds = {id(r): stats.classify(r.result, r.tokens,
                                       oracle[tuple(r.tokens)])
                 for r in sent}
        ladder = []
        for rung in rungs:
            reqs = [r for r in rung["requests"] if r.sent is not None]
            lat = [r.scaled_ms if kinds[id(r)] == stats.OK else math.inf
                   for r in reqs]
            raw = [(r.done - r.due) * 1000.0
                   if kinds[id(r)] == stats.OK else math.inf for r in reqs]
            late = [(r.sent - r.due) * 1000.0 for r in reqs]
            ok = sum(1 for r in reqs if kinds[id(r)] == stats.OK)
            end = max((r.done for r in reqs if r.done is not None),
                      default=reqs[0].due if reqs else 0.0)
            span_s = end - reqs[0].due if reqs else 0.0
            # The rung figures and the SLO use the latencies as measured.
            p99 = stats.percentile(raw, 99.0) if raw else math.inf
            ladder.append({
                "rate": rung["rate"],
                "sent": len(reqs),
                "unsent": len(rung["requests"]) - len(reqs),
                "ok": ok,
                "aborted": rung["aborted"],
                "p50_ms": stats.percentile(raw, 50.0) if raw else math.inf,
                "p99_ms": p99,
                "late_ms_p99": stats.percentile(late, 99.0) if late else 0.0,
                "goodput_per_s": ok / span_s if span_s > 0 else 0.0,
                "pumps_per_req": rung["counters"]["pumps"] / max(len(reqs), 1),
                "meets_slo": (not rung["aborted"] and p99 <= SLO_P99_MS),
                "latencies": lat,
                "raw_latencies": raw,
                "lateness": late,
            })
        nominal = ladder[0]
        passing = [r["rate"] for r in ladder if r["meets_slo"]]
        return {
            "ops": nominal["sent"],
            "latency_ms": {
                **stats.summarize(nominal["latencies"], self.tail),
                "raw": stats.summarize(nominal["raw_latencies"], self.tail),
            },
            "throughput_per_s": nominal["goodput_per_s"],
            "throughput_unit": "correct requests/s at the nominal rate",
            **tally(kinds.values()),
            "p99_ms": stats.percentile(nominal["raw_latencies"], 99.0),
            "slo_rps": max(passing) if passing else 0.0,
            "slo_p99_ms": SLO_P99_MS,
            "late_ms_p99": nominal["late_ms_p99"],
            "replicas": state["replicas"],
            "ladder": [{k: v for k, v in rung.items()
                        if k not in ("latencies", "raw_latencies", "lateness")}
                       for rung in sorted(ladder, key=lambda r: r["rate"])],
            "properties": input_properties(state["model"], state["pool"]),
            "digests": {"inputs": stats.digest(
                [[r.tokens for r in rung["requests"]] for rung in rungs])},
        }

    # -- traced run ------------------------------------------------------
    def _traced_factory(self, state, out_dir):
        base = self._factory(state)

        def factory(replica_id):
            service = base(replica_id)
            tracer = tracing.Tracer()
            crcs: list[int] = []
            tracer.patch(service, "tag", "service:tag",
                         on_call=lambda tokens, **_kw: crcs.append(_crc(tokens)))
            instrument_service(tracer, service)
            path = os.path.join(out_dir,
                                f"replica-{replica_id}-{os.getpid()}.json")
            tracing.flush_on_exit(tracer, path, lambda: {
                "replica": replica_id, "crcs": crcs,
                "shed": service.stats["shed"]})
            return service

        return factory

    def trace(self, state, seconds: float, out_dir: str) -> dict:
        """Untraced then traced halves at the nominal rate."""
        rng = np.random.default_rng((state["seed"], 37))
        nominal = state["size"].ladder[len(state["size"].ladder) // 2]
        limit = BACKLOG_PER_REPLICA * state["replicas"]
        plain = self._rung(state, rng, nominal, seconds / 2)
        open_loop(state["gateway"], plain, limit)
        state["gateway"].shutdown()

        for stale in glob.glob(os.path.join(out_dir, "replica-*.json")):
            os.remove(stale)
        state["gateway"] = self._start(
            state, self._traced_factory(state, out_dir))
        warm = state["warmup"]
        client = tracing.Tracer()
        gateway = state["gateway"]
        for attr in ("submit", "pump", "collect"):
            client.patch(gateway, attr, f"gateway:{attr}")
        traced = self._rung(state, rng, nominal, seconds / 2)
        counters: dict = {"delivered": len(warm)}
        open_loop(gateway, traced, limit, tracer=client, counters=counters)
        client.restore()
        gateway.shutdown()

        replica_files = []
        for path in sorted(glob.glob(os.path.join(out_dir, "replica-*.json"))):
            with open(path) as fh:
                replica_files.append(json.load(fh))
        spans = []
        hops = []
        counts: dict[str, float] = {}
        shed = 0
        for data in replica_files:
            offset = len(spans)
            warmed = sum(1 for r in warm if r.replica == data["replica"])
            spans.extend([name, start, end, parent + offset if parent >= 0
                          else -1] for name, start, end, parent
                         in tracing.drop_leading(data["spans"], "service:tag",
                                                 warmed))
            for key, value in data["counters"].items():
                counts[key] = counts.get(key, 0.0) + value
            shed += data["shed"]
            hops.extend(_hops(data, warm + traced))
        sent = [r for r in traced if r.sent is not None]
        gateway_shed = sum(1 for r in sent if r.replica is None
                           and getattr(r.result, "status", None)
                           == "overloaded")
        client_ledger = tracing.ledger(client.spans, "client:loop")
        per_req = client_ledger["ops"] / max(len(sent), 1)
        waits = [r.result.queue_wait_ms for r in sent
                 if getattr(r.result, "status", None) == "ok"]
        answered = [r for r in plain + traced if r.sent is not None]
        oracle = oracle_spans(state["model"], [r.tokens for r in answered])
        check = tally(stats.classify(r.result, r.tokens, oracle[tuple(r.tokens)])
                      for r in answered)
        return layer_record(
            spans, counts, "service:tag",
            _latencies(plain), _latencies(sent),
            **{
                "check": check,
                "client_ledger": client_ledger,
                "replica_files": len(replica_files),
                "gateway.client_busy_ms":
                    client_ledger["layers"].get("gateway", 0.0) * per_req,
                "gateway.hop_ms_p50": (stats.percentile(hops, 50.0)
                                       if hops else 0.0),
                "gateway.hops_paired": len(hops),
                "gateway.pumps_per_req": counters["pumps"] / max(len(sent), 1),
                "gateway.pump_yield": (counters["delivering_pumps"]
                                       / max(counters["pumps"], 1)),
                "gateway.shed": gateway_shed,
                "service.shed": shed,
                "service.queue_wait_ms_p50": stats.percentile(
                    waits or [0.0], 50.0),
                "loadgen.late_ms_p99": stats.percentile(
                    [(r.sent - r.due) * 1000.0 for r in sent] or [0.0], 99.0),
                "tape.nodes_per_sent": self._tape_nodes(state),
                "properties": input_properties(state["model"], state["pool"]),
            })

    def _tape_nodes(self, state) -> float:
        from repro.serving import TaggingService

        service = TaggingService(state["model"].net, state["model"].scheme)
        sample = state["pool"][:32]
        return tape_nodes_per_sentence(
            lambda: [service.tag(t) for t in sample], len(sample))


def _latencies(requests) -> list[float]:
    """Raw latencies (ms, from the due time) of the answered requests."""
    return [(r.done - r.due) * 1000.0 for r in requests if r.done is not None]


def _crc(tokens) -> int:
    return zlib.crc32("\x1f".join(tokens).encode())


def _hops(data, requests) -> list[float]:
    """Gateway latency minus replica drain time, per paired request.

    The replica served its requests in the order the client received
    their answers, so its n-th ``service:tag`` span belongs to the n-th
    request the client got back from that replica; the token checksum
    confirms each pair.
    """
    replica = data["replica"]
    delivered = sorted((r for r in requests
                        if r.replica == replica and r.done is not None),
                       key=lambda r: r.seq)
    spans = data["spans"]
    drains = tracing.children_named(spans, "service:drain")
    roots = [i for i, s in enumerate(spans)
             if s[3] < 0 and s[0] == "service:tag"]
    hops = []
    for request, root, crc in zip(delivered, roots, data["crcs"]):
        if _crc(request.tokens) != crc:
            return []
        if request.due > 0:
            hops.append(request.gateway_ms - drains.get(root, 0.0) * 1000.0)
    return hops


WORKLOADS = {w.name: w for w in (ServeOpen(), ServeBulk(), FewnerEpisodes(),
                                 MetaTrain())}
