"""Sample statistics, result classification and digests for the benchmark.

Every percentile here is computed from the raw per-operation samples the
benchmark keeps in memory, never from histogram bucket bounds, and is
reported together with its sample count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time

import numpy as np

#: Percentiles a tail can be reported at, lowest first.
TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9)
#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, level: float) -> float:
    """The ``level``-th percentile of ``samples`` (nearest rank).

    Nearest rank returns an observed value, so a tail percentile never
    blends a sample with the one below it.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < level <= 100.0:
        raise ValueError(f"level must be in (0, 100], got {level}")
    ordered = sorted(samples)
    rank = math.ceil(level / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def supported_tail(n: int) -> float | None:
    """Highest level in :data:`TAIL_LEVELS` with ``MIN_BEYOND`` samples past it."""
    best = None
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= MIN_BEYOND - 1e-9:
            best = level
    return best


def summarize(samples, tail: float) -> dict:
    """Median and the fixed ``tail`` percentile, with the sample count.

    ``tail_supported`` says whether the sample holds at least
    :data:`MIN_BEYOND` values beyond the tail level.
    """
    n = len(samples)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_level": tail,
        "tail": percentile(samples, tail),
        "tail_supported": n * (1.0 - tail / 100.0) >= MIN_BEYOND - 1e-9,
        "highest_supported": supported_tail(n),
    }


# ----------------------------------------------------------------------
# Result classification
# ----------------------------------------------------------------------
#: Outcome of one served request; everything but ``OK`` counts as failed.
OK = "ok"
MISMATCH = "mismatch"
DEGRADED = "degraded"
SHED = "overloaded"
REJECTED = "rejected"
EXPIRED = "expired"
TIMEOUT = "timeout"
NONFINITE = "nonfinite"
UNKNOWN = "unknown"

#: Outcomes that mean the program answered wrongly, not just refused.
INCORRECT = frozenset({MISMATCH, NONFINITE, UNKNOWN})


def classify(result, tokens, expected_spans) -> str:
    """Classify one serving answer for ``tokens`` against its oracle spans.

    ``result`` is whatever the serving API returned (``None`` when no
    answer arrived in time).  Typed refusals are failures; a
    :class:`~repro.serving.TagResult` for other tokens, or whose spans
    differ from the oracle's, is a wrong answer.
    """
    if result is None:
        return TIMEOUT
    status = getattr(result, "status", None)
    if status == "ok":
        if (tuple(result.tokens) != tuple(tokens)
                or tuple(result.spans) != tuple(expected_spans or ())):
            return MISMATCH
        return DEGRADED if result.degraded else OK
    if status == "overloaded":
        return SHED
    if status == "invalid":
        return REJECTED
    if status == "expired":
        return EXPIRED
    return UNKNOWN


# ----------------------------------------------------------------------
# Digests and process facts
# ----------------------------------------------------------------------
def digest(value) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: Seconds the calibration kernel takes at the reference speed.
REFERENCE_CALIBRATION_S = 0.0005

_KERNEL_RNG = np.random.default_rng(20231017)
_KERNEL_MATRIX = _KERNEL_RNG.normal(size=(64, 64)) / 8.0
_KERNEL_VECTOR = _KERNEL_RNG.normal(size=64)


def calibrate() -> float:
    """CPU seconds one run of a fixed kernel takes on this core right now.

    The kernel mixes small numpy operations with interpreter work, like
    the program does, and uses no code of the program, so its time
    tracks only how fast the machine is running.  On shared hosts that
    speed changes by half or more for seconds at a time.
    """
    start = time.process_time()
    x = _KERNEL_VECTOR
    for _ in range(80):
        x = np.tanh(_KERNEL_MATRIX @ x)
        table = {}
        for k in range(20):
            table[k] = k * 2
    return time.process_time() - start


def speed_factor(before: float, after: float) -> float:
    """Factor that puts a time measured between two calibrations at the
    reference speed."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def _probe(cpu: int, interval_s: float, conn) -> None:
    """Child process: time the kernel on ``cpu`` until told to stop."""
    os.sched_setaffinity(0, [cpu])
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    samples = []
    conn.send("ready")
    while not conn.poll(interval_s):
        samples.append((time.perf_counter(), calibrate()))
    conn.send(samples)
    conn.close()


class SpeedProbes:
    """The calibration kernel timed every few ms on each of ``cpus``.

    Each probe is a child process pinned to its CPU at idle priority,
    so it runs only when nothing else wants that CPU and never delays
    the program.  A probe that was just preempted finds its caches cold
    and reads slow, never fast, so :meth:`factor` takes the fastest
    reading near the time asked about.
    """

    def __init__(self, cpus, interval_s: float = 0.01, window_s: float = 0.1):
        self.cpus = list(cpus)
        self.interval_s = interval_s
        self.window_s = window_s
        self.samples: dict[int, tuple] = {}
        self._running = []

    def __enter__(self) -> "SpeedProbes":
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        try:
            for cpu in self.cpus:
                parent, child = context.Pipe()
                proc = context.Process(target=_probe,
                                       args=(cpu, self.interval_s, child),
                                       daemon=True)
                proc.start()
                child.close()
                self._running.append((cpu, proc, parent))
            for _cpu, _proc, conn in self._running:
                if not conn.poll(60.0) or conn.recv() != "ready":
                    raise RuntimeError("speed probe did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        for cpu, proc, conn in self._running:
            try:
                conn.send("stop")
                if conn.poll(10.0):
                    readings = conn.recv()
                    times = np.array([t for t, _c in readings])
                    costs = np.array([c for _t, c in readings])
                    self.samples[cpu] = (times, costs)
            except (OSError, EOFError):
                pass
            proc.join(10.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._running = []

    def factor(self, cpu: int, start: float, end: float) -> float:
        """Reference-speed factor for work on ``cpu`` during [start, end]."""
        times, costs = self.samples.get(cpu, ((), ()))
        if not len(times):  # the CPU was never idle: leave the time as is
            return 1.0
        lo = np.searchsorted(times, start - self.window_s)
        hi = np.searchsorted(times, end + self.window_s)
        if hi <= lo:
            lo, hi = max(0, min(lo, len(times) - 1)), min(len(times), lo + 1)
        return REFERENCE_CALIBRATION_S / float(costs[lo:hi].min())


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
