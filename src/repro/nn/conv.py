"""1-D convolution and the character-level CNN encoder.

The character CNN is the component the paper's Table 5 ablation singles
out as most important: removing it costs ~15-19 F1 points because entity
words are prone to out-of-training-vocabulary tokens whose type is still
recognisable from character morphology.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autodiff.tensor import (
    Tensor,
    concatenate,
    getitem,
    is_grad_enabled,
    matmul,
    max_,
    pad,
    relu,
    reshape,
)
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter


class Conv1d(Module):
    """1-D convolution over ``(batch, length, channels)`` inputs.

    Implemented as window-gather + matmul so every step is a
    differentiable primitive of the autodiff engine (no ad hoc backward).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, padding: str = "same"):
        super().__init__()
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(
            init.xavier_uniform(rng, (kernel_size * in_channels, out_channels))
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def _padding(self, length: int) -> tuple[tuple[int, int], int]:
        """``((left, right), length_out)`` for an input of ``length``."""
        k = self.kernel_size
        if self.padding == "same":
            left = (k - 1) // 2
            return (left, k - 1 - left), length
        length_out = length - k + 1
        if length_out < 1:
            raise ValueError(
                f"input length {length} shorter than kernel {k} with "
                "valid padding"
            )
        return (0, 0), length_out

    def forward(self, x: Tensor) -> Tensor:
        batch, length, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        k = self.kernel_size
        (left, right), length_out = self._padding(length)
        if self.padding == "same":
            x = pad(x, ((0, 0), (left, right), (0, 0)))
        # Gather sliding windows: (batch, length_out, k, channels).  The
        # batch index array keeps the gathered copy C-contiguous for every
        # shape (a ``slice(None)`` there leaves it strided when channels
        # is 1), so the matmul below always takes the same BLAS kernel as
        # :meth:`forward_array`.
        idx = np.arange(length_out)[:, None] + np.arange(k)[None, :]
        windows = getitem(x, (np.arange(batch)[:, None, None], idx))
        flat = reshape(windows, (batch, length_out, k * self.in_channels))
        return matmul(flat, self.weight) + self.bias

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward` over a plain ``(batch, length, C)`` array.

        Performs the same float operations as the tape path — including
        one stacked ``(batch, length_out, k·C) @ (k·C, F)`` matmul — so
        its output is bit-identical to ``forward(Tensor(x)).data``.
        """
        batch, length, _channels = x.shape
        k = self.kernel_size
        pad_width, length_out = self._padding(length)
        x = np.pad(x, ((0, 0), pad_width, (0, 0)))
        # (batch, length_out, C, k) windows -> (batch, length_out, k·C).
        # The copy matters: matmul on the overlapping strided view skips
        # the BLAS kernel the tape path uses and can differ in the last bit.
        windows = sliding_window_view(x, k, axis=1).swapaxes(2, 3)
        flat = np.ascontiguousarray(windows).reshape(
            batch, length_out, k * self.in_channels)
        return flat @ self.weight.data + self.bias.data

    def __repr__(self) -> str:
        return (
            f"Conv1d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, padding={self.padding})"
        )


class CharCNN(Module):
    """Character-level word encoder: multi-width CNN + max-over-time pool.

    Mirrors the paper's configuration: filter widths ``[2, 3, 4]`` with the
    filter budget split evenly (total 150 in the paper; configurable here).
    """

    def __init__(self, num_chars: int, char_dim: int, filters_total: int,
                 rng: np.random.Generator, widths: tuple[int, ...] = (2, 3, 4),
                 padding_idx: int = 0):
        super().__init__()
        from repro.nn.layers import Embedding  # local import avoids a cycle

        if filters_total % len(widths) != 0:
            raise ValueError(
                f"filters_total={filters_total} not divisible by "
                f"{len(widths)} widths"
            )
        per_width = filters_total // len(widths)
        self.widths = tuple(widths)
        self.output_dim = filters_total
        self.char_embedding = Embedding(num_chars, char_dim, rng,
                                        padding_idx=padding_idx)
        self.convs = ModuleList(
            [Conv1d(char_dim, per_width, w, rng, padding="same") for w in widths]
        )

    def forward(self, char_ids) -> Tensor:
        """Encode ``(num_words, max_chars)`` id matrix to ``(num_words, F)``.

        When no tape node would be recorded — grad is disabled or no
        parameter requires grad — this runs :meth:`forward_array`, a
        plain-numpy pass bit-identical to the tape path.
        """
        params = [self.char_embedding.weight]
        for conv in self.convs:
            params += [conv.weight, conv.bias]
        if not is_grad_enabled() or not any(p.requires_grad for p in params):
            return Tensor(self.forward_array(char_ids))
        char_ids = np.asarray(char_ids, dtype=np.intp)
        emb = self.char_embedding(char_ids)  # (W, C, d)
        pooled = []
        for conv in self.convs:
            feat = relu(conv(emb))  # (W, C, per_width)
            pooled.append(max_(feat, axis=1))  # (W, per_width)
        return concatenate(pooled, axis=-1)

    def forward_array(self, char_ids) -> np.ndarray:
        """Tape-free forward over the distinct word rows of ``char_ids``.

        Each distinct row (all padding rows are one row; so is every
        repeat of a word) is encoded once and scattered back.  Rows are
        independent through every op, so the result equals the tape
        path's ``.data`` exactly.
        """
        char_ids = self.char_embedding.check_ids(char_ids)
        rows = np.ascontiguousarray(char_ids)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, first, inverse = np.unique(
            keys.ravel(), return_index=True, return_inverse=True)
        emb = self.char_embedding.weight.data[rows[first]]  # (n, C, d)
        pooled = []
        for conv in self.convs:
            feat = conv.forward_array(emb)  # (n, C, per_width)
            pooled.append((feat * (feat > 0)).max(axis=1))  # ReLU as the tape
        return np.concatenate(pooled, axis=-1)[inverse]
