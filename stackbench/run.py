#!/usr/bin/env python3
"""Whole-stack benchmark for ``repro``: serving, bulk tagging, FEWNER
episodes and meta-training, with a per-layer ledger.

Run from the repository root::

    python3 stackbench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), measures it untraced for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` wraps each layer's public entry
points from the benchmark's own files and prints the per-layer metrics.
``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object; a fuller record of each run is
written under ``.stackbench/`` at the repository root.  The exit code is
1 when an output check fails and 2 when the program cannot be found.
See ``stackbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".stackbench"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

WORKLOADS = ("serve-open", "serve-bulk", "fewner-episodes", "meta-train")

#: End-to-end metrics: name → unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: What the generic end-to-end names mean on each workload.
ALIASES = {
    "serve-open": {"p50_ms": "serve_p50_ms", "tail_ms": "serve_p90_ms",
                   "throughput_per_s": "serve_goodput_rps"},
    "serve-bulk": {"p50_ms": "bulk_doc_p50_ms", "tail_ms": "bulk_doc_p90_ms",
                   "throughput_per_s": "bulk_sentences_per_s"},
    "fewner-episodes": {"p50_ms": "episode_p50_ms",
                        "tail_ms": "episode_p90_ms",
                        "throughput_per_s": "episodes_per_s"},
    "meta-train": {"p50_ms": "train_iter_p50_ms",
                   "tail_ms": "train_iter_p90_ms",
                   "throughput_per_s": "train_iters_per_s"},
}

#: Per-layer metrics of the traced run: name → unit.  Every traced run
#: reports all of them; a layer the workload does not reach reads 0.
PER_LAYER = {
    "ledger.op_ms": "ms",
    "ledger.unattributed_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.bookkeeping_ms": "ms",
    "gateway.client_busy_ms": "ms",
    "gateway.hop_ms_p50": "ms",
    "gateway.pumps_per_req": "count",
    "gateway.pump_yield": "ratio",
    "gateway.shed": "count",
    "loadgen.late_ms_p99": "ms",
    "sanitize.self_us": "us",
    "service.self_ms": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.batch_size_mean": "count",
    "service.shed": "count",
    "encode_batch.self_ms": "ms",
    "word_embedding.self_ms": "ms",
    "char_cnn.self_ms": "ms",
    "char_cnn.distinct_word_share": "ratio",
    "encoder.self_ms": "ms",
    "head.self_ms": "ms",
    "viterbi.self_ms": "ms",
    "backbone.unattributed_ms": "ms",
    "inner_loss.self_ms": "ms",
    "crf.nll_ms": "ms",
    "autodiff.backward_ms": "ms",
    "optim.step_ms": "ms",
    "guard.self_ms": "ms",
    "episodes.sample_ms": "ms",
    "tape.nodes_per_sent": "count",
    "fewner.adapt_ms": "ms",
    "fewner.inner_step_ms": "ms",
    "fewner.query_decode_ms": "ms",
    "prop.tokens_per_sent": "count",
    "prop.oov_share": "ratio",
}

#: Ledger layer → per-layer metric holding its self time (ms per op).
LAYER_METRICS = {
    "service": "service.self_ms",
    "encode_batch": "encode_batch.self_ms",
    "word_embedding": "word_embedding.self_ms",
    "char_cnn": "char_cnn.self_ms",
    "encoder": "encoder.self_ms",
    "head": "head.self_ms",
    "viterbi": "viterbi.self_ms",
    "backbone": "backbone.unattributed_ms",
    "inner_loss": "inner_loss.self_ms",
    "crf_nll": "crf.nll_ms",
    "autodiff": "autodiff.backward_ms",
    "optim": "optim.step_ms",
    "guard": "guard.self_ms",
    "episodes": "episodes.sample_ms",
    "tracer": "trace.bookkeeping_ms",
}


def layer_metrics(record: dict) -> dict:
    """Named per-layer metrics from a workload's traced record."""
    ledger = record["ledger"]
    layers = ledger["layers"]
    ops = max(ledger["ops"], 1)
    inclusive = record["inclusive_ms"]
    counters = record["counters"]
    out = {name: 0.0 for name in PER_LAYER}
    for layer, metric in LAYER_METRICS.items():
        out[metric] = layers.get(layer, 0.0)
    out["sanitize.self_us"] = layers.get("sanitize", 0.0) * 1000.0
    out["ledger.op_ms"] = ledger["total"]
    out["ledger.unattributed_ms"] = ledger["unattributed"]
    out["trace.untraced_op_ms"] = record["untraced_op_ms_p50"]
    out["trace.overhead_pct"] = record["overhead_pct"]
    if counters.get("char_cnn.tokens"):
        out["char_cnn.distinct_word_share"] = (
            counters.get("char_cnn.distinct", 0.0) / counters["char_cnn.tokens"])
    if counters.get("decode.batches"):
        out["service.batch_size_mean"] = (
            counters["decode.sentences"] / counters["decode.batches"])
    if inclusive["fewner:predict_episode"]:
        out["fewner.adapt_ms"] = (inclusive["fewner:predict_episode"]
                                  - inclusive["backbone:predict_spans"]) / ops
        out["fewner.query_decode_ms"] = (
            inclusive["backbone:predict_spans"] / ops)
    if record["grad_calls"]:
        out["fewner.inner_step_ms"] = (
            inclusive["inner_loss:token_ce_loss"]
            + inclusive["autodiff:grad"]) / record["grad_calls"]
    for name in PER_LAYER:
        if name in record:
            out[name] = float(record[name])
    props = record.get("properties", {})
    out["prop.tokens_per_sent"] = props.get("tokens_per_sent", 0.0)
    out["prop.oov_share"] = props.get("oov_share", 0.0)
    return out


def ledger_lines(title: str, ledger: dict) -> list[str]:
    """The ledger as text; the rows add up to the traced op time."""
    rows = sorted(ledger["layers"].items(), key=lambda kv: -kv[1])
    total = ledger["total"]
    lines = [f"  ledger {title}: {ledger['ops']} ops, "
             f"{total:.4f} ms traced per op"]
    for layer, value in rows + [("unattributed", ledger["unattributed"])]:
        share = value / total * 100.0 if total else 0.0
        lines.append(f"    {layer:<16} {value:10.4f} ms  {share:5.1f}%")
    summed = sum(ledger["layers"].values()) + ledger["unattributed"]
    lines.append(f"    {'sum':<16} {summed:10.4f} ms  (traced {total:.4f})")
    return lines


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float, size) -> dict:
    import stats

    setup_times = []
    raw_setup_times = []
    state = None
    for i in range(SETUPS):
        before = stats.calibrate()
        t0, c0 = time.perf_counter(), time.process_time()
        state = workload.setup(seed, size)
        raw_setup_times.append(time.perf_counter() - t0)
        setup_times.append((time.process_time() - c0)
                           * stats.speed_factor(before, stats.calibrate()))
        if i < SETUPS - 1:
            workload.teardown(state)
            state = None
            gc.collect()
    try:
        summary = workload.measure(state, seconds)
    finally:
        workload.teardown(state)
    latency = summary["latency_ms"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "p50_ms": latency["p50"],
        "tail_ms": latency["tail"],
        "throughput_per_s": summary["throughput_per_s"],
        "peak_rss_mb": stats.peak_rss_mb(),
    }
    summary["setup_times_s"] = setup_times
    summary["raw_setup_times_s"] = raw_setup_times
    return {"metrics": metrics, "summary": summary}


def run_traced(workload, seed: int, seconds: float, size) -> dict:
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    state = workload.setup(seed, size)
    setup_s = time.perf_counter() - t0
    try:
        record = workload.trace(state, seconds, str(spans_dir))
    finally:
        workload.teardown(state)
    record["setup_s"] = setup_s
    return {"metrics": layer_metrics(record), "summary": record}


def report(name: str, trace: bool, result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    summary = result["summary"]
    check = summary["check"] if trace else summary
    lines = [f"workload {name} ({'traced' if trace else 'untraced'})"]
    if trace:
        for metric, unit in PER_LAYER.items():
            lines.append(f"  {metric} = {result['metrics'][metric]:.6g} {unit}")
        lines += ledger_lines("replica request" if name == "serve-open"
                              else "operation", summary["ledger"])
        if "client_ledger" in summary:
            lines += ledger_lines("client loop", summary["client_ledger"])
    else:
        aliases = ALIASES[name]
        for metric, unit in END_TO_END.items():
            alias = aliases.get(metric)
            label = f"{alias} ({metric})" if alias else metric
            lines.append(f"  {label} = {result['metrics'][metric]:.6g} {unit}")
        latency = summary["latency_ms"]
        lines.append(f"  samples = {latency['n']} (tail p{latency['tail_level']:g}"
                     f"{'' if latency['tail_supported'] else ', UNSUPPORTED'})")
        lines.append(f"  as measured (wall clock, unscaled): p50 "
                     f"{latency['raw']['p50']:.6g} ms, "
                     f"p{latency['tail_level']:g} {latency['raw']['tail']:.6g} ms")
        if name == "serve-open":
            lines.append(f"  serve_p99_ms = {summary['p99_ms']:.6g} ms "
                         f"(not gated: too noisy on a shared host)")
            lines.append(f"  serve_slo_rps = {summary['slo_rps']:g} 1/s "
                         f"(p99 <= {summary['slo_p99_ms']:g} ms, no backlog)")
            lines.append(f"  loadgen.late_ms_p99 = "
                         f"{summary['late_ms_p99']:.6g} ms")
            for rung in summary["ladder"]:
                lines.append(
                    f"    rung {rung['rate']:g}/s: sent {rung['sent']}, "
                    f"ok {rung['ok']}, p50 {rung['p50_ms']:.3f} ms, "
                    f"p99 {rung['p99_ms']:.3f} ms, "
                    f"{'meets' if rung['meets_slo'] else 'misses'} SLO"
                    f"{', aborted on backlog' if rung['aborted'] else ''}")
        props = summary.get("properties", {})
        for key, value in props.items():
            lines.append(f"  property {key} = {value:.6g}")
        for key, value in summary.get("digests", {}).items():
            lines.append(f"  digest {key} = {value}")
    attempted = max(check["attempted"], 1)
    lines.append(f"  failed_pct = {check['failed'] / attempted * 100.0:.4g} % "
                 f"({check['failed']} of {check['attempted']}: "
                 f"{check['outcomes']})")
    if check["incorrect"]:
        lines.append(f"  OUTPUT CHECK FAILED: {check['incorrect']} wrong answers")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool,
            size_name: str) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    size = workloads.SIZES[size_name]
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds, size)
    check = result["summary"]["check"] if trace else result["summary"]
    result["line"] = {
        "correct": check["incorrect"] == 0,
        "attempted": max(int(check["attempted"]), 1),
        "failed": int(check["failed"]),
        "metrics": {
            metric: _metric(float(value),
                            (PER_LAYER if trace else END_TO_END)[metric])
            for metric, value in result["metrics"].items()
        },
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "size": size_name, **result}, fh,
                  indent=1, default=str)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes (tiny is for smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not under {SRC}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace),
                         args.size)
        print("\n".join(report(name, bool(args.trace), result)), flush=True)
        lines[name] = result["line"]
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, v in lines.items()
                        for metric, value in v["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
