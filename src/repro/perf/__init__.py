"""Performance layer: vectorised kernels, parallel evaluation, benchmarks.

Three coordinated pieces:

* :mod:`repro.perf.kernels` + :mod:`repro.perf.rnn_kernels` — batched
  CRF Viterbi decode (bit-identical to the per-sentence recursion), a
  fused first-order CRF NLL (:meth:`~repro.crf.LinearChainCRF.batch_nll_fast`)
  and fused single-tape-node GRU/LSTM scans with hand-derived BPTT
  backwards (bit-identical in outputs *and* gradients).  The recurrent
  kernel is the one switchable fast path
  (:func:`~repro.perf.fastpath.recurrent_kernel`, on by default, off for
  second-order work); batched decode and the frozen-encoder adaptation
  cache select themselves from their inputs;
* :mod:`repro.perf.executor` — a fork-based, deterministic, *supervised*
  worker pool (per-task deadlines, crash/hang detection, bounded
  retries, poison-episode quarantine, :class:`ExecutionReport`
  accounting) used to fan adaptation episodes across cores in
  :func:`repro.meta.evaluate.evaluate_method` and the table runners;
* :mod:`repro.perf.bench` — the ``repro perf bench`` workload timer and
  ``BENCH_<rev>.json`` regression harness (imported lazily: it pulls in
  the model stack).

See ``docs/performance.md`` for the design and guarantees.
"""

from repro.perf.executor import (
    EpisodeExecutor,
    ExecutionReport,
    ExecutorError,
    TaskRecord,
)
from repro.perf.fastpath import recurrent_kernel, recurrent_kernel_enabled

__all__ = [
    "EpisodeExecutor",
    "ExecutionReport",
    "ExecutorError",
    "TaskRecord",
    "recurrent_kernel",
    "recurrent_kernel_enabled",
]
