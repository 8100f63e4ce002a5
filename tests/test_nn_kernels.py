"""Conformance of the conv and max-pool kernels against the im2col and
argmax references in ``conv_oracle`` (DESIGN.md §5i): every output must be
bitwise equal, compared on unsigned-integer views so ``-0.0``/``0.0`` and
NaN payloads count as different."""

import tracemalloc

import numpy as np
import pytest
from conv_oracle import conv2d_im2col, max_pool1d_argmax, max_pool2d_argmax
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nn as nn
import repro.nn.functional as F
import repro.nn.fused as fused
from repro.nn import Tensor
from repro.nn.fused import try_compile
from repro.nn.functional import _conv2d_raw, _max_pool1d_raw, _max_pool2d_raw


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def assert_bitwise_equal(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(_bits(got), _bits(expected))


def _relud(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """ReLU'd activations as the kernels see them: ``x * (x > 0)`` leaves
    ``-0.0`` wherever the pre-activation was negative."""
    x = rng.normal(size=shape).astype(dtype)
    return x * (x > 0)


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    h_lo, w_lo = max(1, k - 2 * ph), max(1, k - 2 * pw)
    return dict(
        n=draw(st.integers(1, 8)),
        c=draw(st.integers(1, 32)),
        o=draw(st.integers(1, 16)),
        h=draw(st.integers(h_lo, h_lo + 20)),
        w=draw(st.integers(w_lo, w_lo + 20)),
        k=k,
        stride=(draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))),
        pad=(ph, pw),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        seed=draw(st.integers(0, 2**16)),
    )


# M = N·Ho·Wo: below one chunk, exactly one, and a ragged multi-chunk tail.
@example(dict(n=1, c=3, o=4, h=7, w=9, k=3, stride=(1, 1), pad=(1, 1), dtype=np.float32, seed=0))
@example(dict(n=1, c=5, o=6, h=16, w=16, k=3, stride=(1, 1), pad=(1, 1), dtype=np.float32, seed=1))
@example(dict(n=3, c=12, o=12, h=19, w=23, k=3, stride=(1, 1), pad=(1, 1), dtype=np.float32, seed=2))
@example(dict(n=2, c=8, o=8, h=13, w=11, k=1, stride=(2, 2), pad=(0, 0), dtype=np.float32, seed=3))
@given(conv_cases())
@settings(max_examples=120, deadline=None)
def test_conv2d_raw_matches_im2col_oracle(case):
    rng = np.random.default_rng(case["seed"])
    k = case["k"]
    x = _relud(rng, (case["n"], case["c"], case["h"], case["w"]), case["dtype"])
    w = rng.normal(size=(case["o"], case["c"], k, k)).astype(case["dtype"])
    expected = conv2d_im2col(x, w, case["stride"], case["pad"])
    assert_bitwise_equal(_conv2d_raw(x, w, case["stride"], case["pad"]), expected)


def test_conv2d_raw_mixed_precision_matches_oracle():
    rng = np.random.default_rng(5)
    x = _relud(rng, (2, 4, 9, 9))
    w = rng.normal(size=(3, 4, 3, 3))  # float64 weights, float32 input
    assert_bitwise_equal(_conv2d_raw(x, w, (1, 1), (1, 1)), conv2d_im2col(x, w, (1, 1), (1, 1)))


def test_conv2d_raw_rectangular_kernel_and_conv1d_shape():
    """Conv1d runs as a 1×k conv with H=1 through the same kernel."""
    rng = np.random.default_rng(6)
    x = _relud(rng, (3, 5, 1, 37))
    w = rng.normal(size=(4, 5, 1, 5)).astype(np.float32)
    for stride, pad in [((1, 1), (0, 2)), ((1, 2), (0, 1))]:
        assert_bitwise_equal(_conv2d_raw(x, w, stride, pad), conv2d_im2col(x, w, stride, pad))


def test_conv_input_grad_and_modules_match_oracle(monkeypatch):
    """The autograd forward, the transposed-conv input gradient and the fused
    Conv2d/Conv1d steps all run on the new kernel: swapping the oracle in
    must not change a bit."""
    rng = np.random.default_rng(8)
    conv = nn.Conv2d(6, 5, 3, stride=2, padding=1, rng=rng)
    conv1 = nn.Conv1d(5, 4, 3, padding=1, rng=rng)
    x = _relud(rng, (2, 6, 11, 10))

    def run():
        t = Tensor(x, requires_grad=True)
        y = conv(t)
        y.sum().backward()
        z = try_compile(nn.Sequential(conv1))(y.data.reshape(2, 5, -1))
        return y.data, t.grad, z

    got = run()
    monkeypatch.setattr(F, "_conv2d_raw", conv2d_im2col)
    monkeypatch.setattr(fused, "_conv2d_raw", conv2d_im2col)
    for param in conv.parameters():
        param.zero_grad()
    expected = run()
    for g, e in zip(got, expected):
        assert_bitwise_equal(np.ascontiguousarray(g), np.ascontiguousarray(e))


def test_conv2d_raw_keeps_no_full_cols_matrix():
    """Peak extra memory is the padded input plus one chunk, not M×K."""
    rng = np.random.default_rng(9)
    x = _relud(rng, (1, 24, 64, 64))
    w = rng.normal(size=(8, 24, 3, 3)).astype(np.float32)
    cols_bytes = 64 * 64 * 24 * 9 * 4
    tracemalloc.start()
    _conv2d_raw(x, w, (1, 1), (1, 1))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < cols_bytes / 2, f"peak {peak} B vs full cols {cols_bytes} B"


# ----------------------------------------------------------------- max pool
def _tied_windows(rng: np.random.Generator, shape) -> np.ndarray:
    """Mostly -1s and 0s times a ReLU-style mask: windows full of ties,
    ``-0.0`` where a -1 is masked and ``+0.0`` from the zeros, in every
    order, with an occasional positive maximum."""
    x = rng.choice(np.array([-1.0, 0.0, 1.0], dtype=np.float32), size=shape, p=[0.45, 0.45, 0.1])
    return x * (rng.random(shape) > 0.3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_max_pool2d_raw_matches_argmax_including_zero_sign(k):
    rng = np.random.default_rng(k)
    x = _tied_windows(rng, (3, 5, 4 * k, 3 * k))
    expected = max_pool2d_argmax(x, k)
    zeros = expected == 0
    assert (zeros & np.signbit(expected)).any() and (zeros & ~np.signbit(expected)).any()
    assert_bitwise_equal(_max_pool2d_raw(x, k), expected)


def test_max_pools_every_window_order_of_signed_zeros():
    """All 16 sign patterns of a 4-element window of zeros (2×2 in 2-D, 4 in
    1-D): the result keeps the sign of the first zero in window order, like
    argmax, in the autograd and the fused path alike."""
    patterns = np.array([[(p >> b) & 1 for b in range(4)] for p in range(16)], dtype=bool)
    zeros = np.where(patterns, -0.0, 0.0).astype(np.float32)
    x2, x1 = zeros.reshape(16, 1, 2, 2), zeros.reshape(1, 16, 4)
    expected2, expected1 = max_pool2d_argmax(x2, 2), max_pool1d_argmax(x1, 4)
    np.testing.assert_array_equal(np.signbit(expected2[:, 0, 0, 0]), patterns[:, 0])
    np.testing.assert_array_equal(np.signbit(expected1[0, :, 0]), patterns[:, 0])
    assert_bitwise_equal(_max_pool2d_raw(x2, 2), expected2)
    assert_bitwise_equal(F.max_pool2d(Tensor(x2), 2).data, expected2)
    assert_bitwise_equal(try_compile(nn.Sequential(nn.MaxPool2d(2)))(x2), expected2)
    assert_bitwise_equal(_max_pool1d_raw(x1, 4), expected1)
    assert_bitwise_equal(F.max_pool1d(Tensor(x1), 4).data, expected1)
    assert_bitwise_equal(try_compile(nn.Sequential(nn.MaxPool1d(4)))(x1), expected1)


def test_max_pools_autograd_and_fused_share_the_kernel():
    rng = np.random.default_rng(11)
    x = _tied_windows(rng, (2, 3, 8, 6))
    expected = max_pool2d_argmax(x, 2)
    assert_bitwise_equal(F.max_pool2d(Tensor(x), 2).data, expected)
    assert_bitwise_equal(try_compile(nn.Sequential(nn.MaxPool2d(2)))(x), expected)
    x1 = x.reshape(2, 3, 48)
    expected1 = max_pool1d_argmax(x1, 3)
    assert_bitwise_equal(F.max_pool1d(Tensor(x1), 3).data, expected1)
    assert_bitwise_equal(try_compile(nn.Sequential(nn.MaxPool1d(3)))(x1), expected1)


def test_max_pools_backward_route_to_first_max():
    x = np.array([[[[1.0, 3.0], [3.0, 0.0]]]], dtype=np.float32)
    t = Tensor(x, requires_grad=True)
    F.max_pool2d(t, 2).sum().backward()
    np.testing.assert_array_equal(t.grad, [[[[0.0, 1.0], [0.0, 0.0]]]])
    t1 = Tensor(x.reshape(1, 1, 4), requires_grad=True)
    F.max_pool1d(t1, 4).sum().backward()
    np.testing.assert_array_equal(t1.grad, [[[0.0, 1.0, 0.0, 0.0]]])
