"""Test-only reference kernels: the im2col convolution and the argmax
max pools that ``repro.nn.functional`` used before its chunk-gather and
strided-maximum kernels (DESIGN.md §5i).

They are kept verbatim so the conformance tests and ``benchmarks/
bench_kernels.py`` can assert, on ``uint32`` views, that the shipped kernels
return bitwise the same arrays, and measure how much faster they are.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Fixed GEMM height of the reference (same as the shipped kernel).
_GEMM_CHUNK_ROWS = 256


def _chunked_matmul(cols: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """``cols (M, K) @ wmat (K, O)`` via fixed-shape GEMM calls.

    Both operands must be C-contiguous.  Each output row depends only on
    the corresponding input row, bitwise, regardless of ``M``.
    """
    rows, k = cols.shape
    out = np.empty((rows, wmat.shape[1]), dtype=cols.dtype)
    pad_buf: np.ndarray | None = None
    for start in range(0, rows, _GEMM_CHUNK_ROWS):
        stop = min(start + _GEMM_CHUNK_ROWS, rows)
        if stop - start == _GEMM_CHUNK_ROWS:
            out[start:stop] = cols[start:stop] @ wmat
        else:
            if pad_buf is None:
                pad_buf = np.zeros((_GEMM_CHUNK_ROWS, k), dtype=cols.dtype)
            pad_buf[: stop - start] = cols[start:stop]
            out[start:stop] = (pad_buf @ wmat)[: stop - start]
    return out


def conv2d_im2col(x: np.ndarray, w: np.ndarray, stride: tuple[int, int], pad: tuple[int, int]) -> np.ndarray:
    """Cross-correlate ``x`` (N,C,H,W) with ``w`` (O,C,kh,kw)."""
    sh, sw = stride
    ph, pw = pad
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    kh, kw = w.shape[2], w.shape[3]
    # (N, C, Ho', Wo', kh, kw) view — zero-copy.
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if sh != 1 or sw != 1:
        win = win[:, :, ::sh, ::sw]
    n, c, ho, wo = win.shape[:4]
    o = w.shape[0]
    # im2col + fixed-shape chunked GEMM: every BLAS call sees one layout
    # and one shape, making each output pixel a pure function of its own
    # im2col row (see module docstring).  Both operands are made
    # C-contiguous so slicing by the caller can't change the layout.
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    wmat = np.ascontiguousarray(w.transpose(1, 2, 3, 0)).reshape(c * kh * kw, o)
    out = _chunked_matmul(cols, wmat)
    return np.ascontiguousarray(out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2))


def max_pool2d_argmax(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping max pool as the autograd forward computed it: the
    window value at ``argmax`` (the first maximum in row-major window order)."""
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    win = x.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]


def max_pool1d_argmax(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping 1-D max pool as the autograd forward computed it."""
    n, c, length = x.shape
    win = x.reshape(n, c, length // k, k)
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]


def max_pool2d_reshape(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping max pool as the fused step computed it: reshape,
    transpose, reshape and reduce each window of ``k * k``."""
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    win = x.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
    return win.max(axis=-1)
