"""The one fast-path switch: the fused recurrent kernel.

**Recurrent kernel** (default *on*): GRU/LSTM layers unroll the whole
sequence inside one fused numpy scan registered as a *single* tape node
with a hand-derived BPTT backward (``repro.perf.rnn_kernels``), instead
of emitting ~24 tape ops per timestep.  The fused scan performs the same
float operations in the same order as the tape, so outputs *and*
parameter gradients are bit-identical — but the analytic backward is
first-order only; second-order differentiation through it is rejected
at backprop time.  Second-order MAML turns it off around its inner loop,
which differentiates through gradients that cross the encoder.

Every other fast path selects itself from what it can observe:
:func:`repro.models.decoding.decode_emissions_within` decodes a batch in
one vectorised kernel unless a deadline, a per-sentence hook or an open
breaker asks for per-sentence decisions, and FEWNER's inner loop reuses
the frozen encoder pass whenever it is first-order and dropout-free.

The switch is thread-local, scoped with a context manager so callers can
never leak a mode change past their own frame; a forked worker process
inherits the state its parent had at fork time.
"""

from __future__ import annotations

import contextlib
import threading

_state = threading.local()


def recurrent_kernel_enabled() -> bool:
    """Whether the fused single-node recurrent (GRU/LSTM) kernel is active."""
    return getattr(_state, "recurrent_kernel", True)


@contextlib.contextmanager
def recurrent_kernel(enabled: bool = True):
    """Enable (or disable) the fused recurrent kernel inside the block.

    First-order only: differentiating *through* a gradient that crossed
    the fused scan (``create_graph=True`` and the RNN on the path to a
    requested input) raises ``RuntimeError``; disable the kernel around
    such work instead.  ``recurrent_kernel(False)`` is also the reference
    side of the parity tests and of the ``repro perf bench`` baselines.
    """
    prev = recurrent_kernel_enabled()
    _state.recurrent_kernel = bool(enabled)
    try:
        yield
    finally:
        _state.recurrent_kernel = prev
