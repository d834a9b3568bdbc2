"""Benchmark workloads and the ``repro perf bench`` regression harness.

Each workload times a *baseline* implementation against the *fast*
implementation shipped by :mod:`repro.perf`, on fixed seeded inputs.
Every kernel pair's baseline is the reference its parity tests compare
against:

* ``crf_nll``      — padded-batch CRF NLL forward+backward: autodiff
  graph (``batch_nll_padded``) vs the fused analytic kernel
  (``batch_nll_fast``);
* ``crf_decode``   — Viterbi: per-sentence recursion vs the batched
  kernel;
* ``rnn_forward``  — BiGRU forward: the per-step tape unroll that
  ``recurrent_kernel(False)`` selects vs the fused single-tape-node
  recurrent kernel (:mod:`repro.perf.rnn_kernels`);
* ``rnn_backward`` — the same pair, forward plus backward (the fused
  side backprops through one node with the hand-derived BPTT);
* ``episode_eval`` — end-to-end ``evaluate_method`` under the shipped
  kernels: the serial episode loop vs the episode-parallel executor.
  No other benchmark times the executor (stackbench's fewner-episodes
  runs its episodes serially);
* ``telemetry_overhead`` — the serial ``episode_eval`` loop with
  telemetry off (baseline) vs an active in-memory telemetry session
  (fast); its extra ``overhead_pct`` key is the relative cost of
  *enabled* telemetry.  The disabled-mode cost (one global load +
  ``is None`` check per call site) is bounded by
  :func:`telemetry_overhead_pct`, which backs the < 2 % gate in the
  observability test suite;
* ``store_roundtrip`` — serving a fixed request batch with no
  persistent store (baseline: every request runs encode + Viterbi) vs
  against a pre-warmed :mod:`repro.store` session (fast: decoded paths
  come back as content-addressed hits, and the timing includes the
  session open — lock, recovery scan, mmap).  Its extra ``warm_hits`` /
  ``warm_misses`` keys record the hit traffic of one warm pass.

End-to-end serving, FEWNER episodes and meta-training are timed by the
stack benchmark (``stackbench/``), not here.

Timing goes through :func:`repro.obs.measure`, so medians and IQRs here
and in ``repro.experiments.timing`` follow one convention.  Results are
written as ``BENCH_<rev>.json`` (medians and IQRs over the preset's
repetition count) and compared against a committed baseline file with
:func:`compare`, which flags any workload whose fast-path median
regressed beyond a configurable threshold.  See ``docs/performance.md``
for the file format and CI wiring.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass

import numpy as np

#: Workload names in canonical run order.
WORKLOADS = (
    "crf_nll",
    "crf_decode",
    "rnn_forward",
    "rnn_backward",
    "episode_eval",
    "telemetry_overhead",
    "store_roundtrip",
)

#: Repetition counts per preset: (kernel workloads, end-to-end workloads).
PRESETS = {
    "smoke": (5, 1),
    "default": (20, 3),
}

#: The acceptance-criterion CRF shape: batch, length, tags.
CRF_SHAPE = (16, 24, 9)


def _time_ms(fn, reps: int) -> dict:
    """Median/IQR wall-clock milliseconds of ``fn()`` over ``reps`` runs."""
    from repro.obs import measure

    stat = measure(fn, reps=reps, warmup=True)
    return {
        "median_ms": round(float(stat) * 1000.0, 4),
        "iqr_ms": round(stat.iqr * 1000.0, 4),
        "reps": reps,
    }


def _paired(baseline_fn, fast_fn, reps: int) -> dict:
    baseline = _time_ms(baseline_fn, reps)
    fast = _time_ms(fast_fn, reps)
    speedup = (
        baseline["median_ms"] / fast["median_ms"]
        if fast["median_ms"] > 0 else float("inf")
    )
    return {"baseline": baseline, "fast": fast, "speedup": round(speedup, 3)}


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
def _crf_inputs(seed: int):
    from repro.crf import LinearChainCRF

    batch, length, num_tags = CRF_SHAPE
    rng = np.random.default_rng(seed)
    crf = LinearChainCRF(num_tags, rng)
    emissions = rng.normal(size=(batch, length, num_tags))
    tags = rng.integers(0, num_tags, size=(batch, length))
    lengths = rng.integers(length // 2, length + 1, size=batch)
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(float)
    return crf, emissions, tags, mask


@dataclass
class _EpisodeFixture:
    adapter: object
    episodes: list


def _episode_fixture(seed: int, n_episodes: int) -> _EpisodeFixture:
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.meta.base import MethodConfig
    from repro.meta.evaluate import build_method, fixed_episodes

    dataset = generate_dataset("GENIA", scale=0.02, seed=seed)
    word_vocab = Vocabulary.from_datasets([dataset])
    char_vocab = CharVocabulary.from_datasets([dataset])
    config = MethodConfig(seed=seed, pretrain_iterations=0)
    adapter = build_method("FewNER", word_vocab, char_vocab, 3, config)
    episodes = fixed_episodes(
        dataset, 3, 1, n_episodes, seed=seed + 99, query_size=4
    )
    return _EpisodeFixture(adapter=adapter, episodes=episodes)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _bench_crf_nll(reps: int, workers: int, seed: int) -> dict:
    from repro.autodiff.tensor import Tensor

    crf, emissions, tags, mask = _crf_inputs(seed)

    def baseline():
        e = Tensor(emissions, requires_grad=True)
        crf.batch_nll_padded(e, tags, mask).backward()

    def fast():
        e = Tensor(emissions, requires_grad=True)
        crf.batch_nll_fast(e, tags, mask).backward()

    return _paired(baseline, fast, reps)


def _bench_crf_decode(reps: int, workers: int, seed: int) -> dict:
    crf, emissions, _tags, mask = _crf_inputs(seed)
    lengths = mask.sum(axis=1).astype(int)
    rows = [emissions[b, : lengths[b], :] for b in range(emissions.shape[0])]

    def baseline():
        for row in rows:
            crf.viterbi_decode(row)

    def fast():
        crf.viterbi_decode_batch(emissions, mask)

    return _paired(baseline, fast, reps)


def _rnn_fixture(seed: int):
    from repro.nn import BiGRU

    rng = np.random.default_rng(seed)
    layer = BiGRU(24, 24, rng)
    x = rng.normal(size=(16, 24, 24))
    lengths = rng.integers(12, 25, size=16)
    mask = (np.arange(24)[None, :] < lengths[:, None]).astype(float)
    return layer, x, mask


def _bench_rnn_forward(reps: int, workers: int, seed: int) -> dict:
    from repro.autodiff.tensor import Tensor
    from repro.perf.fastpath import recurrent_kernel

    layer, x, mask = _rnn_fixture(seed)

    def baseline():
        with recurrent_kernel(False):
            layer(Tensor(x, requires_grad=True), mask)

    def fast():
        layer(Tensor(x, requires_grad=True), mask)

    return _paired(baseline, fast, reps)


def _bench_rnn_backward(reps: int, workers: int, seed: int) -> dict:
    from repro.autodiff.tensor import Tensor
    from repro.perf.fastpath import recurrent_kernel

    layer, x, mask = _rnn_fixture(seed)

    def baseline():
        with recurrent_kernel(False):
            layer(Tensor(x, requires_grad=True), mask).sum().backward()

    def fast():
        layer(Tensor(x, requires_grad=True), mask).sum().backward()

    return _paired(baseline, fast, reps)


def _bench_episode_eval(reps: int, workers: int, seed: int) -> dict:
    from repro.meta.evaluate import evaluate_method

    fixture = _episode_fixture(seed, 4)

    def baseline():
        evaluate_method(fixture.adapter, fixture.episodes)

    def fast():
        evaluate_method(fixture.adapter, fixture.episodes, workers=workers)

    return _paired(baseline, fast, reps)


def _bench_telemetry_overhead(reps: int, workers: int, seed: int) -> dict:
    from repro import obs
    from repro.meta.evaluate import evaluate_method

    fixture = _episode_fixture(seed, 4)

    def baseline():
        evaluate_method(fixture.adapter, fixture.episodes)

    def instrumented():
        # Request tracing is armed too, so the enabled-telemetry cost
        # includes the trace-context machinery it ships with.
        from repro.obs.reqtrace import request_tracing

        with obs.telemetry_session(), request_tracing():
            evaluate_method(fixture.adapter, fixture.episodes)

    result = _paired(baseline, instrumented, reps)
    base = result["baseline"]["median_ms"]
    result["overhead_pct"] = (
        round((result["fast"]["median_ms"] - base) / base * 100.0, 3)
        if base > 0 else 0.0
    )
    return result


def _bench_store_roundtrip(reps: int, workers: int, seed: int) -> dict:
    import shutil
    import tempfile

    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
    from repro.serving import TaggingService
    from repro.serving.loadgen import synthetic_requests
    from repro.store import store_session

    pool = ("the", "visited", "today", "reports", "arrived",
            "Kavox", "Zuqev", "Mirelle", "when", "council", "met", "river")
    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(
        Vocabulary(pool), CharVocabulary(pool), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(seed),
        tag_names=scheme.tags,
    )
    requests = synthetic_requests(64, seed=seed, pool=pool)

    def serve_all():
        service = TaggingService(model, scheme)
        for tokens in requests:
            service.tag(list(tokens))

    directory = tempfile.mkdtemp(prefix="bench-store-")
    try:
        with store_session(directory):
            serve_all()  # populate the store outside the timed region

        def warm():
            with store_session(directory) as store:
                serve_all()
                warm.snapshot = store.snapshot()

        result = _paired(serve_all, warm, reps)
        snapshot = warm.snapshot
        result["warm_hits"] = snapshot["hits"]
        result["warm_misses"] = snapshot["misses"]
        return result
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def telemetry_overhead_pct(seed: int = 0, rounds: int = 3,
                           n_episodes: int = 2) -> dict:
    """Disabled-telemetry cost on ``episode_eval`` — the < 2 % gate.

    Un-instrumented code no longer exists, so the disabled cost cannot
    be measured as a wall-time difference; it is instead *bounded* from
    its parts: count how many obs-helper calls one evaluation makes
    (by temporarily wrapping the helpers), microbenchmark the per-call
    cost of the disabled fast path (global load + ``is None`` check),
    and take their product relative to the best evaluation wall time.
    Returns ``{"disabled_s", "helper_calls", "per_call_ns",
    "overhead_pct"}``.
    """
    from repro import obs
    from repro.meta.evaluate import evaluate_method

    fixture = _episode_fixture(seed, n_episodes)

    def run_eval():
        evaluate_method(fixture.adapter, fixture.episodes)

    run_eval()  # warm-up
    best = min(
        _wall_time(run_eval) for _ in range(max(1, rounds))
    )

    helper_names = ("span", "count", "set_gauge", "observe", "emit",
                    "enabled")
    calls = 0
    originals = {name: getattr(obs, name) for name in helper_names}

    def counting(fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(obs, name, counting(fn))
        run_eval()
    finally:
        for name, fn in originals.items():
            setattr(obs, name, fn)

    # Per-call disabled cost: exercise the hottest helper shape (span
    # enter/exit with no session active) in a tight loop.
    loops = 20_000
    span = obs.span
    t0 = time.perf_counter()
    for _ in range(loops):
        with span("x"):  # call + no-op enter/exit, all charged to it
            pass
        span("x")
    per_call_s = (time.perf_counter() - t0) / (2 * loops)

    overhead = 100.0 * calls * per_call_s / best if best > 0 else 0.0
    return {
        "disabled_s": round(best, 6),
        "helper_calls": calls,
        "per_call_ns": round(per_call_s * 1e9, 1),
        "overhead_pct": round(overhead, 3),
    }


def request_tracing_overhead_pct(seed: int = 0, rounds: int = 3,
                                 n_requests: int = 24) -> dict:
    """Disabled request-tracing cost on the serving path — same gate.

    Same bounding construction as :func:`telemetry_overhead_pct`, for
    the :mod:`repro.obs.reqtrace` hop sites on the serving hot path:
    count how many hop calls one fully *traced* serve pass makes (by
    wrapping ``reqtrace.hop``), microbenchmark the disabled fast path
    (``hop(None, ...)`` returns on its first check — the worst case for
    a site whose guard was compiled in but whose trace is ``None``),
    and take their product relative to the untraced serve wall time.
    Returns ``{"disabled_s", "hop_calls", "per_call_ns",
    "overhead_pct"}``.
    """
    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
    from repro.obs import reqtrace
    from repro.serving import TaggingService
    from repro.serving.loadgen import synthetic_requests

    pool = ("the", "visited", "today", "reports", "arrived",
            "Kavox", "Zuqev", "Mirelle")
    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(
        Vocabulary(pool), CharVocabulary(pool), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(seed),
        tag_names=scheme.tags,
    )
    service = TaggingService(model, scheme)
    requests = synthetic_requests(n_requests, seed=seed, pool=pool)

    def serve_all(traced: bool = False) -> None:
        for i, tokens in enumerate(requests):
            service.tag(list(tokens),
                        trace=f"{i:016x}" if traced else None)

    serve_all()  # warm-up
    best = min(
        _wall_time(serve_all) for _ in range(max(1, rounds))
    )

    original = reqtrace.hop
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    try:
        reqtrace.hop = counting
        serve_all(traced=True)
    finally:
        reqtrace.hop = original

    loops = 20_000
    hop = reqtrace.hop
    t0 = time.perf_counter()
    for _ in range(loops):
        hop(None, "decode")
    per_call_s = (time.perf_counter() - t0) / loops

    overhead = 100.0 * calls * per_call_s / best if best > 0 else 0.0
    return {
        "disabled_s": round(best, 6),
        "hop_calls": calls,
        "per_call_ns": round(per_call_s * 1e9, 1),
        "overhead_pct": round(overhead, 3),
    }


def _wall_time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


_RUNNERS = {
    "crf_nll": _bench_crf_nll,
    "crf_decode": _bench_crf_decode,
    "rnn_forward": _bench_rnn_forward,
    "rnn_backward": _bench_rnn_backward,
    "episode_eval": _bench_episode_eval,
    "telemetry_overhead": _bench_telemetry_overhead,
    "store_roundtrip": _bench_store_roundtrip,
}

#: Workloads timed with the end-to-end repetition count.
_HEAVY = frozenset({"episode_eval", "telemetry_overhead",
                    "store_roundtrip"})


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def run_bench(preset: str = "default",
              workloads: tuple[str, ...] | None = None,
              workers: int = 4, seed: int = 0) -> dict:
    """Run the requested workloads; returns the result document."""
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
        )
    selected = tuple(workloads) if workloads else WORKLOADS
    unknown = [w for w in selected if w not in _RUNNERS]
    if unknown:
        raise ValueError(
            f"unknown workloads {unknown}; available: {list(WORKLOADS)}"
        )
    kernel_reps, heavy_reps = PRESETS[preset]
    results = {}
    for name in selected:
        reps = heavy_reps if name in _HEAVY else kernel_reps
        results[name] = _RUNNERS[name](reps, workers, seed)
    return {
        "schema": 1,
        "revision": git_revision(),
        "preset": preset,
        "workers": workers,
        "seed": seed,
        "crf_shape": list(CRF_SHAPE),
        "workloads": results,
    }


def write_result(document: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(current: dict, baseline: dict,
            threshold: float = 0.3) -> list[str]:
    """Regression messages: fast-path medians that slowed past threshold.

    A workload regresses when its current fast median exceeds the
    baseline document's fast median by more than ``threshold`` (a
    fraction, e.g. ``0.3`` = 30 %).  Workloads missing from either
    document are skipped — adding a workload never fails the check.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    messages = []
    base_workloads = baseline.get("workloads", {})
    for name, result in current.get("workloads", {}).items():
        if name not in base_workloads:
            continue
        now = result["fast"]["median_ms"]
        before = base_workloads[name]["fast"]["median_ms"]
        limit = before * (1.0 + threshold)
        if now > limit:
            messages.append(
                f"{name}: fast median {now:.3f} ms exceeds baseline "
                f"{before:.3f} ms by more than {threshold:.0%}"
            )
    return messages


def render(document: dict) -> str:
    """A fixed-width table of medians and speedups."""
    lines = [
        f"revision {document.get('revision', '?')}  "
        f"preset {document.get('preset', '?')}  "
        f"workers {document.get('workers', '?')}",
        f"{'workload':>14s}  {'baseline ms':>12s}  {'fast ms':>10s}  "
        f"{'speedup':>8s}",
    ]
    for name in WORKLOADS:
        result = document.get("workloads", {}).get(name)
        if result is None:
            continue
        line = (
            f"{name:>14s}  {result['baseline']['median_ms']:>12.3f}  "
            f"{result['fast']['median_ms']:>10.3f}  "
            f"{result['speedup']:>7.2f}x"
        )
        if "overhead_pct" in result:
            line += f"  (telemetry overhead {result['overhead_pct']:+.2f}%)"
        if "warm_hits" in result:
            line += (f"  ({result['warm_hits']} warm hits, "
                     f"{result['warm_misses']} misses)")
        lines.append(line)
    return "\n".join(lines)
