import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from frenet import arch, spectral, tensor
from frenet.afpm import make_patch_grid, patch_scale, patch_weighted_sum
from frenet.arch import NetworkConfig, build_frenet, tiny_config
from frenet.spectral import ComplexTensor, fft2d, ifft2d
from frenet.tensor import (
    ConfigurationError,
    ConvSpec,
    EvaluationError,
    Tensor,
    abs_,
    add,
    concat_channels,
    conv2d,
    depth_to_space,
    gelu,
    gelu_mul,
    global_avg_pool,
    layer_norm_channels,
    linear,
    matmul,
    mean_all,
    mul,
    no_grad,
    observe,
    on_leaf,
    reshape,
    roll2d,
    scale,
    section,
    simple_gate,
    slice_channels,
    sub,
    sum_in_order,
    transpose2d,
)
from frenet.train import loss_total


def conv2d_loop_oracle(x, weight, bias, stride=1, groups=1):
    """Direct six-nested-loop cross-correlation in float64, zero padding (k-1)//2."""
    c_out, ci_g, kh, kw = weight.shape
    c_in, h, w = x.shape
    pad_h, pad_w = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((c_in, h + 2 * pad_h, w + 2 * pad_w))
    xp[:, pad_h : pad_h + h, pad_w : pad_w + w] = x
    h_out = (h + 2 * pad_h - kh) // stride + 1
    w_out = (w + 2 * pad_w - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    co_g = c_out // groups
    for o in range(c_out):
        g = o // co_g
        for i in range(ci_g):
            ic = g * ci_g + i
            for oh in range(h_out):
                for ow in range(w_out):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            acc += weight[o, i, u, v] * xp[ic, oh * stride + u, ow * stride + v]
                    out[o, oh, ow] += acc
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d_dx_loop_oracle(weight, g, h, w, stride=1):
    """Input gradient of a groups-1 conv in float64, one input element at a time.

    dx[i, y, x] sums weight[o, i, u, v] * g[o, oy, ox] over every output (oy, ox)
    whose tap (u, v) reads the input at (y, x) through zero padding (k-1)//2.
    """
    c_out, c_in, kh, kw = weight.shape
    pad_h, pad_w = (kh - 1) // 2, (kw - 1) // 2
    h_out, w_out = g.shape[1:]
    dx = np.zeros((c_in, h, w))
    for i in range(c_in):
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for u in range(kh):
                    for v in range(kw):
                        oy, off_y = divmod(y + pad_h - u, stride)
                        ox, off_x = divmod(x + pad_w - v, stride)
                        if off_y or off_x or not (0 <= oy < h_out and 0 <= ox < w_out):
                            continue
                        for o in range(c_out):
                            acc += float(weight[o, i, u, v]) * float(g[o, oy, ox])
                dx[i, y, x] = acc
    return dx


class TestConv2d:
    def test_one_by_one_sums_channels(self):
        spec = ConvSpec(2, 1, 1, 1)
        x = Tensor(np.stack([np.full((3, 3), 2.0), np.full((3, 3), 3.0)]))
        weight = Tensor(np.ones((1, 2, 1, 1)))
        bias = Tensor(np.zeros(1))
        out = conv2d(x, spec, weight, bias)
        assert np.allclose(out.data, 5.0)

    def test_depthwise_delta_kernel_is_identity(self):
        spec = ConvSpec(3, 3, 3, 3, groups=3)
        delta = np.zeros((3, 1, 3, 3), dtype=np.float32)
        delta[:, 0, 1, 1] = 1.0
        x = Tensor(np.random.default_rng(0).standard_normal((3, 5, 7)).astype(np.float32))
        out = conv2d(x, spec, Tensor(delta))
        assert np.array_equal(out.data, x.data)

    def test_full_conv_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6, 6)).astype(np.float32)
        weight = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(3).astype(np.float32)
        out = conv2d(x_t := Tensor(x), ConvSpec(4, 3, 3, 3), Tensor(weight), Tensor(bias))
        want = conv2d_loop_oracle(x, weight, bias)
        assert np.abs(out.data - want).max() < 1e-5

    @pytest.mark.parametrize("stride,groups,kh", [(2, 1, 2)])
    def test_strided_grouped_vs_oracle(self, stride, groups, kh):
        rng = np.random.default_rng(stride * 10 + groups)
        c_in, c_out = 4, 4
        x = rng.standard_normal((c_in, 8, 8)).astype(np.float32)
        weight = rng.standard_normal((c_out, c_in // groups, kh, kh)).astype(np.float32)
        spec = ConvSpec(c_in, c_out, kh, kh, stride=stride, groups=groups)
        out = conv2d(Tensor(x), spec, Tensor(weight))
        want = conv2d_loop_oracle(x, weight, None, stride=stride, groups=groups)
        assert np.abs(out.data - want).max() < 1e-5

    def test_linear_in_input_and_weight(self):
        rng = np.random.default_rng(2)
        spec = ConvSpec(2, 3, 3, 3)
        x1, x2 = (rng.standard_normal((2, 6, 6)).astype(np.float32) for _ in range(2))
        w1, w2 = (rng.standard_normal((3, 2, 3, 3)).astype(np.float32) for _ in range(2))
        mixed = conv2d(Tensor(2.0 * x1 + 3.0 * x2), spec, Tensor(w1)).data
        split = 2.0 * conv2d(Tensor(x1), spec, Tensor(w1)).data + 3.0 * conv2d(Tensor(x2), spec, Tensor(w1)).data
        assert np.abs(mixed - split).max() < 1e-5
        mixed_w = conv2d(Tensor(x1), spec, Tensor(w1 + w2)).data
        split_w = conv2d(Tensor(x1), spec, Tensor(w1)).data + conv2d(Tensor(x1), spec, Tensor(w2)).data
        assert np.abs(mixed_w - split_w).max() < 1e-5

    def test_shape_mismatch_raises(self):
        spec = ConvSpec(4, 3, 3, 3)
        x = Tensor(np.zeros((2, 4, 4)))
        weight = Tensor(np.zeros((3, 4, 3, 3)))
        with pytest.raises(ConfigurationError, match="channels"):
            conv2d(x, spec, weight)
        with pytest.raises(ConfigurationError, match="weight shape"):
            conv2d(Tensor(np.zeros((4, 4, 4))), spec, Tensor(np.zeros((3, 4, 1, 1))))
        with pytest.raises(ConfigurationError, match="stride"):
            conv2d(Tensor(np.zeros((4, 5, 5))), ConvSpec(4, 4, 2, 2, stride=2), Tensor(np.zeros((4, 4, 2, 2))))

    def test_groups_divisibility_checked(self):
        with pytest.raises(ConfigurationError, match="groups"):
            ConvSpec(3, 4, 1, 1, groups=2)


def conv_with_grads(x, spec, weight, bias, need_x, need_w, g):
    """conv2d's output and the gradients of <output, g> for input, weight and bias."""
    xt = Tensor(x, requires_grad=need_x)
    wt = Tensor(weight, requires_grad=need_w)
    bt = None if bias is None else Tensor(bias, requires_grad=True)
    out = conv2d(xt, spec, wt, bt)
    out._backward(g)
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


def conv_einsum(xd, spec, wd):
    """Any groups, kernel and stride: one einsum over sliding windows of the zero-padded input.

    A kernel with conv2d's calling convention (see ``tensor._conv_kernel``): its
    ``grads`` takes the input again for the weight gradient. Written
    independently of both of conv2d's kernels: the oracle they are held to.
    """
    kh, kw, s, grp = spec.kernel_h, spec.kernel_w, spec.stride, spec.groups
    pad_h, pad_w = (kh - 1) // 2, (kw - 1) // 2
    n, c_in, h, w = xd.shape
    ci_g = spec.in_channels // grp
    co_g = spec.out_channels // grp

    padded_shape, x_dtype = (n, c_in, h + 2 * pad_h, w + 2 * pad_w), xd.dtype

    def window_view(xd):
        xp = np.pad(xd, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
        windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
        return windows.reshape(n, grp, ci_g, windows.shape[2], windows.shape[3], kh, kw)

    xv = window_view(xd)
    h_out, w_out = xv.shape[3], xv.shape[4]
    wv = wd.reshape(grp, co_g, ci_g, kh, kw)
    out = np.einsum("ngihwuv,goiuv->ngohw", xv, wv, dtype=np.float64, optimize=True)

    def grads(g, xd, need_x):
        gv = g.reshape(n, grp, co_g, h_out, w_out)
        dw = dx = None
        if xd is not None:
            dw = np.einsum("ngihwuv,ngohw->ngoiuv", window_view(xd), gv, dtype=np.float64, optimize=True)
        if need_x:
            dxp = np.zeros(padded_shape, x_dtype)
            for u in range(kh):
                for v in range(kw):
                    patch = np.einsum("goi,ngohw->ngihw", wv[:, :, :, u, v], gv, optimize=True)
                    dxp[:, :, u : u + s * h_out : s, v : v + s * w_out : s] += patch.reshape(
                        n, c_in, h_out, w_out
                    )
            dx = dxp[:, :, pad_h : pad_h + h, pad_w : pad_w + w]
        return dw, dx

    return out.reshape(n, spec.out_channels, h_out, w_out), grads


def einsum_conv_with_grads(*args):
    """The same with every shape sent through the einsum oracle instead of conv2d's kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_conv_kernel", lambda spec: conv_einsum)
        return conv_with_grads(*args)


# Largest difference, in units of the last place of sum |x*w| (or sum |x*g|), between
# the depthwise kernel and einsum in float64: without an FMA the nine products round
# once more. Measured at most 4 on random shapes up to 130x130; float32 is exact.
DEPTHWISE_F64_ULPS = 8

# The same for the dense kernel's 2x2/stride-2 and 3x3 kinds, in the units of the
# compared dtype: on out, dx and dw in float64, and on dx in float32. Its GEMMs sum in
# another order than einsum, which itself changes its float32 loop order with the
# shape. Measured at most 5 on 1,200 random shapes up to 128 channels and 64x64
# outputs (float32 dx: at most 4 on 800), and on five float64 shapes up to 130x130.
DENSE_ULPS = 8

# Kernel size and stride of each kind of conv.
KINDS = {"1x1": (1, 1), "down": (2, 2), "3x3": (3, 1), "depthwise": (3, 1)}

# The dense convs of the tiny and the paper preset as (kind, in, out, output side):
# intro, final and each Down at base 32 and 64, and two of the paper's 1x1 convs.
PRESET_DENSE = [("3x3", 4, 4, 32), ("down", 4, 8, 16), ("down", 8, 16, 8),
                ("3x3", 4, 32, 32), ("3x3", 32, 4, 32), ("down", 32, 64, 16), ("down", 64, 128, 8),
                ("down", 128, 256, 4), ("1x1", 32, 64, 32), ("1x1", 64, 32, 16)]


def check_direct_kernel(kind, channels, h, w, has_bias, dtype, need, seed, batch=None, c_out=None,
                        exact=False):
    """Compare a kind's kernel with the oracle on an h x w output (from a 2h x 2w input for down).

    float32 results are equal bit for bit, except dx of the down and 3x3 kinds,
    which is held to DENSE_ULPS unless ``exact``.
    """
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    if c_out is None:
        c_out = channels if kind == "depthwise" else int(rng.integers(1, 65))
    if kind == "3x3" and channels == c_out == 1:
        kind = "depthwise"  # a one-channel 3x3 is also a depthwise spec, and conv2d runs it as one
    k, stride = KINDS[kind]
    groups = channels if kind == "depthwise" else 1
    spec = ConvSpec(channels, c_out, k, k, stride=stride, groups=groups, has_bias=has_bias)
    assert tensor._conv_kernel(spec) is (tensor._conv_depthwise3 if kind == "depthwise" else tensor._conv_dense)
    x = rng.standard_normal(lead + (channels, h * spec.stride, w * spec.stride)).astype(dtype)
    weight = rng.standard_normal(spec.weight_shape).astype(dtype)
    bias = rng.standard_normal(c_out).astype(dtype) if has_bias else None
    g = rng.standard_normal(lead + (c_out, h, w)).astype(dtype)
    need_x, need_w = need in ("x", "both"), need in ("w", "both")
    got = conv_with_grads(x, spec, weight, bias, need_x, need_w, g)
    want = einsum_conv_with_grads(x, spec, weight, bias, need_x, need_w, g)
    abs_bias = None if bias is None else np.abs(bias)
    scale = einsum_conv_with_grads(np.abs(x), spec, np.abs(weight), abs_bias, need_x, need_w, np.abs(g))
    f64 = dtype == np.float64
    for name, a, b, size in zip(("out", "dx", "dw", "dbias"), got, want, scale):
        assert (a is None) == (b is None), name
        if a is None:
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if kind == "depthwise" and f64 and name in ("out", "dw"):
            assert np.all(np.abs(a - b) <= DEPTHWISE_F64_ULPS * np.spacing(size)), name
        elif kind in ("down", "3x3") and name != "dbias" and (f64 or (name == "dx" and not exact)):
            assert np.all(np.abs(a - b) <= DENSE_ULPS * np.spacing(size)), name
        else:
            assert np.array_equal(a, b), name


class TestDirectConvKernels:
    """The dense and depthwise-3x3 kernels against the einsum oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("need", ["x", "w"])
    @pytest.mark.parametrize("has_bias", [True, False])
    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (5, 7)])
    @pytest.mark.parametrize("channels", [1, 3, 64])
    @pytest.mark.parametrize("kind", ["1x1", "depthwise", "down", "3x3"])
    def test_matches_einsum_kernel(self, kind, channels, h, w, has_bias, need, dtype):
        check_direct_kernel(kind, channels, h, w, has_bias, dtype, need, seed=channels * 100 + h * 10 + w)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(list(KINDS)),
        st.integers(1, 64),
        st.integers(1, 12),
        st.integers(1, 12),
        st.booleans(),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(["x", "w", "both"]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_shapes_match_einsum_kernel(self, kind, channels, h, w, has_bias, dtype, need, seed):
        check_direct_kernel(kind, channels, h, w, has_bias, dtype, need, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("kind,c_in,c_out,side", PRESET_DENSE)
    def test_preset_convs_match_einsum_kernel_bit_for_bit(self, kind, c_in, c_out, side, batch, dtype):
        seed = batch * 1000 + c_in * 10 + side
        check_direct_kernel(kind, c_in, side, side, True, dtype, "both", seed, batch=batch, c_out=c_out,
                            exact=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows_per_block", [1, 4, 7])
    @pytest.mark.parametrize("batch,channels,h,w", [(3, 5, 4, 6), (2, 7, 1, 9), (4, 3, 6, 1), (2, 3, 1, 1),
                                                    (5, 4, 3, 3)])
    def test_depthwise_blocks_match_einsum_kernel(self, monkeypatch, batch, channels, h, w, rows_per_block,
                                                  dtype):
        # A block budget of a few padded rows plus the forward's two scratch rows, so that
        # batch * channels rows cross several blocks, the last of them often partial.
        padded, span = (h + 2) * (w + 2) + 2, h * (w + 2)
        monkeypatch.setattr(tensor, "_DW_BLOCK", rows_per_block * (padded + 2 * span))
        seed = batch * 1000 + channels * 100 + h * 10 + w
        check_direct_kernel("depthwise", channels, h, w, True, dtype, "both", seed, batch=batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", ["1 row", "3 rows", "2 samples"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind,c_in,c_out,h,w", [("3x3", 5, 6, 7, 9), ("3x3", 3, 2, 4, 1),
                                                     ("down", 6, 4, 5, 7), ("down", 2, 3, 3, 2)])
    def test_dense_blocks_match_einsum_kernel(self, monkeypatch, kind, c_in, c_out, h, w, batch, block,
                                              dtype):
        # A block budget of a few output rows of one sample's tap stack, so that a sample's
        # rows cross several blocks, the last of them often partial; or of two whole
        # samples, so that a batch of 3 splits into groups of 2 and 1.
        seed = batch * 1000 + c_in * 100 + h * 10 + w
        count, unit = block.split()
        rows = int(count) * (h if unit == "samples" else 1)
        k = KINDS[kind][0]
        one_block = conv_with_grads(*self._dense_case(kind, c_in, c_out, h, w, batch, dtype, seed))
        monkeypatch.setattr(tensor, "_DENSE_BLOCK", rows * c_in * k * k * w)
        check_direct_kernel(kind, c_in, h, w, True, dtype, "both", seed, batch=batch, c_out=c_out)
        if dtype == np.float32:  # blocking changes no float32 bit
            blocked = conv_with_grads(*self._dense_case(kind, c_in, c_out, h, w, batch, dtype, seed))
            assert all(np.array_equal(a, b) for a, b in zip(blocked, one_block))

    @staticmethod
    def _dense_case(kind, c_in, c_out, h, w, batch, dtype, seed):
        """conv_with_grads arguments of a dense conv with an h x w output, both gradients taken."""
        k, stride = KINDS[kind]
        rng = np.random.default_rng(seed)
        spec = ConvSpec(c_in, c_out, k, k, stride=stride)
        x = rng.standard_normal((batch, c_in, h * stride, w * stride)).astype(dtype)
        weight = rng.standard_normal(spec.weight_shape).astype(dtype)
        bias = rng.standard_normal(c_out).astype(dtype)
        g = rng.standard_normal((batch, c_out, h, w)).astype(dtype)
        return x, spec, weight, bias, True, True, g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,c_in,c_out,h,w", [("3x3", 3, 4, 5, 6), ("3x3", 6, 1, 1, 4),
                                                     ("3x3", 2, 7, 6, 1), ("down", 4, 5, 3, 4),
                                                     ("down", 1, 6, 2, 1)])
    def test_dense_dx_matches_loop_oracle(self, kind, c_in, c_out, h, w, dtype):
        # The einsum oracle changes its own float32 loop order with the shape; this one
        # sums each input element in float64, independently of every GEMM.
        x, spec, weight, bias, _, _, g = self._dense_case(kind, c_in, c_out, h, w, 2, dtype, c_in * 10 + h)
        dx = conv_with_grads(x, spec, weight, bias, True, False, g)[1]
        assert dx.dtype == dtype
        for xs, dxs, gs in zip(x, dx, g):
            want = conv2d_dx_loop_oracle(weight, gs, *xs.shape[1:], stride=spec.stride)
            size = conv2d_dx_loop_oracle(np.abs(weight), np.abs(gs), *xs.shape[1:], stride=spec.stride)
            assert np.all(np.abs(dxs - want) <= DENSE_ULPS * np.spacing(size.astype(dtype)))

    def test_grouped_specs_other_than_depthwise_3x3_raise(self):
        for spec in (ConvSpec(4, 8, 3, 3), ConvSpec(4, 8, 2, 2, stride=2), ConvSpec(4, 8, 5, 5)):
            assert tensor._conv_kernel(spec) is tensor._conv_dense
        for spec in (ConvSpec(4, 4, 3, 3, groups=2), ConvSpec(4, 4, 2, 2, stride=2, groups=4),
                     ConvSpec(4, 4, 1, 1, groups=2), ConvSpec(4, 8, 3, 3, groups=4),
                     ConvSpec(4, 4, 5, 5, groups=4), ConvSpec(4, 4, 3, 3, stride=2, groups=4)):
            x = Tensor(np.zeros((4, 8, 8), np.float32))
            with pytest.raises(ConfigurationError, match="grouped"):
                conv2d(x, spec, Tensor(np.zeros(spec.weight_shape, np.float32)))


class TestDenseConvMemory:
    @pytest.mark.parametrize("batch", [1, 8])
    def test_final_conv_peak_stays_below_one_sample_stack(self, batch):
        # The paper preset's `final` conv at 128x128 RAW: 32 -> 4 channels, 3x3, 64x64.
        # Its float64 tap stack (9 MiB a sample) was once built for the whole batch, in
        # the forward and again for dw. Built block by block, a whole forward and
        # backward stays below one sample's stack, at batch 8 as at batch 1.
        spec = ConvSpec(32, 4, 3, 3)
        rng = np.random.default_rng(batch)
        x, g = (rng.standard_normal((batch, c, 64, 64)).astype(np.float32) for c in (32, 4))
        weight = rng.standard_normal(spec.weight_shape).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        one_sample_stack = 32 * 9 * 64 * 64 * 8
        tracemalloc.start()
        try:
            got = conv_with_grads(x, spec, weight, bias, True, True, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(a is not None for a in got)
        assert peak < one_sample_stack


def _op_output(arr):
    """``arr`` as the output of an op, with a graph record like any activation."""
    return scale(Tensor(arr, requires_grad=True), 1.0)


def _case_conv(kind):
    def build(rng):
        k, stride = KINDS[kind]
        c = 6
        groups = c if kind == "depthwise" else 1
        spec = ConvSpec(c, c, k, k, stride=stride, groups=groups)
        x, weight, bias = (_op_output(rng.standard_normal(shape).astype(np.float32))
                           for shape in ((2, c, 8, 8), spec.weight_shape, (c,)))
        return [conv2d(x, spec, weight, bias)], (x, weight, bias), {0, 1}, False
    return build


def _case(fn, shapes, keeps, own=False):
    def build(rng):
        operands = [_op_output(rng.standard_normal(shape).astype(np.float32)) for shape in shapes]
        out = fn(*operands)
        return [out.re, out.im] if isinstance(out, ComplexTensor) else [out], operands, keeps, own
    return build


_GRID = make_patch_grid(8, 8, 4)
_IMAGE = (2, 4, 8, 8)
# Each op with the operands whose arrays its backward keeps alive (by index), and
# whether it may also keep arrays of its own that share memory with no operand.
BACKWARD_KEEPS = {
    "add": _case(add, [_IMAGE, (4, 1, 1)], set()),
    "sub": _case(sub, [_IMAGE, _IMAGE], set()),
    "mul": _case(mul, [_IMAGE, _IMAGE], {0, 1}),
    "scale": _case(lambda a: scale(a, 3.0), [_IMAGE], set()),
    "abs_": _case(abs_, [_IMAGE], {0}),
    "mean_all": _case(mean_all, [_IMAGE], set()),
    "sum_in_order": _case(sum_in_order, [(2, 3)], set()),
    "matmul": _case(matmul, [(2, 3, 4), (4, 5)], {0, 1}),
    "linear": _case(linear, [(2, 3, 4), (5, 4), (5,)], {0, 1}),
    "transpose2d": _case(transpose2d, [(3, 4)], set()),
    "reshape": _case(lambda a: reshape(a, (2, 4, 64)), [_IMAGE], set()),
    "concat_channels": _case(lambda a, b: concat_channels((a, b)), [_IMAGE, _IMAGE], set(), own=True),
    "slice_channels": _case(lambda a: slice_channels(a, 1, 3), [_IMAGE], set()),
    "roll2d": _case(lambda a: roll2d(a, 2, -3), [_IMAGE], set()),
    "conv2d-1x1": _case_conv("1x1"),
    "conv2d-down": _case_conv("down"),
    "conv2d-3x3": _case_conv("3x3"),
    "conv2d-depthwise": _case_conv("depthwise"),
    "layer_norm_channels": _case(layer_norm_channels, [_IMAGE, (4,), (4,)], {1}, own=True),
    "gelu": _case(gelu, [_IMAGE], {0}),
    "gelu_mul": _case(gelu_mul, [_IMAGE, _IMAGE], {0, 1}),
    "simple_gate": _case(simple_gate, [_IMAGE], {0}),
    "global_avg_pool": _case(global_avg_pool, [_IMAGE], set()),
    "depth_to_space": _case(depth_to_space, [_IMAGE], set()),
    "fft2d": _case(fft2d, [_IMAGE], set()),
    "ifft2d": _case(lambda re, im: ifft2d(ComplexTensor(re, im)), [_IMAGE, _IMAGE], set()),
    "patch_weighted_sum": _case(lambda x, k: patch_weighted_sum(x, k, _GRID), [_IMAGE, (16, 4)], {0, 1}),
    "patch_scale": _case(lambda x, f: patch_scale(x, f, _GRID), [_IMAGE, (2, 16, 4)], {0, 1}),
}


def _captured(fn):
    """Every object a backward closure keeps, through nested closures, lists and tuples."""
    found, seen = [], set()
    todo = [c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if callable(value) and getattr(value, "__closure__", None):
            todo.extend(c.cell_contents for c in value.__closure__)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        else:
            found.append(value)
    return found


class TestBackwardCaptures:
    """What each op's backward keeps alive: arrays of the operands it reads, never an op's output."""

    @pytest.mark.parametrize("op", list(BACKWARD_KEEPS))
    def test_backward_keeps_only_the_operands_it_reads(self, op):
        outs, operands, keeps, own = BACKWARD_KEEPS[op](np.random.default_rng(5))
        for out in outs:
            kept = _captured(out._backward)
            assert [v for v in kept if isinstance(v, Tensor) and v._backward is not None] == []
            arrays = [v for v in kept if isinstance(v, np.ndarray)]
            assert not any(np.shares_memory(a, o.data) for a in arrays for o in outs)
            sharing = [{i for i, t in enumerate(operands) if np.shares_memory(a, t.data)} for a in arrays]
            assert set().union(*sharing) == keeps
            assert own or all(sharing)


# Each op that gives its output a recompute function, built from leaves made by ``leaf(shape)``.
# "add" sums two rebuildable outputs; "patch_scale-of-gated" rebuilds through a rebuilt input.
RECOMPUTES = {
    "mul": lambda leaf: mul(leaf(_IMAGE), leaf(_IMAGE)),
    "simple_gate": lambda leaf: simple_gate(leaf((2, 8, 8, 8))),
    "gelu_mul": lambda leaf: gelu_mul(leaf(_IMAGE), leaf(_IMAGE)),
    "layer_norm_channels": lambda leaf: layer_norm_channels(leaf(_IMAGE), leaf((4,)), leaf((4,))),
    "patch_scale": lambda leaf: patch_scale(leaf(_IMAGE), leaf((2, 16, 4)), _GRID),
    "add": lambda leaf: add(mul(leaf(_IMAGE), leaf((4, 1, 1))), simple_gate(leaf((2, 8, 8, 8)))),
    "patch_scale-of-gated": lambda leaf: patch_scale(simple_gate(leaf((2, 8, 8, 8))), leaf((2, 16, 4)),
                                                     _GRID),
    "conv2d-1x1": lambda leaf: conv2d(leaf(_IMAGE), ConvSpec(4, 6, 1, 1), leaf((6, 4, 1, 1)), leaf((6,))),
    "conv2d-1x1-unbatched": lambda leaf: conv2d(leaf(_IMAGE[1:]), ConvSpec(4, 6, 1, 1), leaf((6, 4, 1, 1))),
    "conv2d-1x1-of-gated": lambda leaf: conv2d(simple_gate(leaf((2, 8, 8, 8))), ConvSpec(4, 6, 1, 1),
                                               leaf((6, 4, 1, 1)), leaf((6,))),
    "linear": lambda leaf: linear(leaf((2, 3, 4)), leaf((5, 4)), leaf((5,))),
    "linear-1x1-weight": lambda leaf: linear(leaf((16, 4)), leaf((6, 4, 1, 1)), leaf((6,))),
    "linear-of-gated": lambda leaf: linear(simple_gate(leaf((2, 8, 8, 8))), leaf((5, 8)), leaf((5,))),
}

# Convs whose output the tape keeps when a backward reads it: only a 1x1 at stride 1 rebuilds.
NOT_REBUILT = {
    "conv2d-3x3": lambda leaf: conv2d(leaf(_IMAGE), ConvSpec(4, 6, 3, 3), leaf((6, 4, 3, 3)), leaf((6,))),
    "conv2d-2x2-stride-2": lambda leaf: conv2d(leaf(_IMAGE), ConvSpec(4, 8, 2, 2, stride=2), leaf((8, 4, 2, 2))),
    "conv2d-depthwise": lambda leaf: conv2d(leaf(_IMAGE), ConvSpec(4, 4, 3, 3, groups=4), leaf((4, 1, 3, 3))),
}

# Each op that keeps an input for its backward, applied to a rebuildable input ``x``.
CONSUMERS = {
    "conv2d-1x1": lambda x, leaf: conv2d(x, ConvSpec(4, 6, 1, 1), leaf((6, 4, 1, 1)), leaf((6,))),
    "conv2d-depthwise": lambda x, leaf: conv2d(x, ConvSpec(4, 4, 3, 3, groups=4), leaf((4, 1, 3, 3))),
    "mul": lambda x, leaf: mul(leaf((4, 1, 1)), x),
    "patch_weighted_sum": lambda x, leaf: patch_weighted_sum(x, leaf((16, 4)), _GRID),
    "patch_scale": lambda x, leaf: patch_scale(x, leaf((2, 16, 4)), _GRID),
    "gelu_mul": lambda x, leaf: gelu_mul(x, leaf(_IMAGE)),
    "simple_gate": lambda x, leaf: simple_gate(x),
    "abs_": lambda x, leaf: abs_(x),
    "gelu": lambda x, leaf: gelu(x),
    "linear": lambda x, leaf: linear(x, leaf((5, 8)), leaf((5,))),
    "matmul": lambda x, leaf: matmul(x, leaf((8, 3))),
}


def _leaves(seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return lambda shape: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


class TestRecompute:
    """Outputs the tape rebuilds instead of keeping."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", list(RECOMPUTES))
    def test_rebuilds_its_output_bit_for_bit(self, op, dtype):
        out = RECOMPUTES[op](_leaves(21, dtype))
        again = out._recompute()
        assert again.dtype == out.data.dtype and np.array_equal(again, out.data)
        assert not np.shares_memory(again, out.data)

    @pytest.mark.parametrize("op", list(NOT_REBUILT))
    def test_none_for_a_conv_other_than_1x1(self, op):
        out = NOT_REBUILT[op](_leaves(26))
        assert out._backward is not None and out._recompute is None

    @pytest.mark.parametrize("op", list(RECOMPUTES))
    def test_none_without_a_record(self, op):
        with no_grad():
            assert RECOMPUTES[op](_leaves(22))._recompute is None
        plain = _leaves(22)
        assert RECOMPUTES[op](lambda shape: Tensor(plain(shape).data))._recompute is None

    @pytest.mark.parametrize("consumer", list(CONSUMERS))
    def test_a_backward_keeps_the_recompute_function_with_the_same_gradients(self, consumer):
        results = []
        for rebuild in (True, False):
            leaf, made = _leaves(23), []
            source = leaf((2, 8, 8, 8))
            x = simple_gate(source)
            if not rebuild:
                x._recompute = None  # the consumer keeps the array itself
            out = CONSUMERS[consumer](x, lambda shape: made.append(leaf(shape)) or made[-1])
            kept = [v for v in _captured(out._backward) if isinstance(v, np.ndarray)]
            assert any(np.shares_memory(a, x.data) for a in kept) is not rebuild
            g = np.random.default_rng(25).standard_normal(out.shape).astype(np.float32)
            sum_in_order(mul(out, Tensor(g))).backward()
            results.append([out.data, source.grad] + [t.grad for t in made])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_each_backward_rebuilds_a_shared_value_once(self):
        # conv_out's input: the sum of two branches that both read the gated map
        leaf = _leaves(24)
        gated = simple_gate(leaf((2, 8, 8, 8)))
        calls, inner = [], gated._recompute
        gated._recompute = lambda: calls.append(1) or inner()
        fused = add(patch_scale(gated, leaf((2, 16, 4)), _GRID), mul(leaf((4, 1, 1)), gated))
        sum_in_order(conv2d(fused, ConvSpec(4, 4, 1, 1), leaf((4, 4, 1, 1)))).backward()
        assert len(calls) == 3  # once each in the backward of conv2d, mul and patch_scale


class TestNoGrad:
    def _graph(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 5, 5)).astype(np.float32), requires_grad=True)
        w1 = Tensor(rng.standard_normal((4, 1, 3, 3)).astype(np.float32), requires_grad=True)
        w2 = Tensor(rng.standard_normal((6, 4, 1, 1)).astype(np.float32), requires_grad=True)
        h = gelu(conv2d(x, ConvSpec(4, 4, 3, 3, groups=4), w1))
        return mean_all(add(conv2d(h, ConvSpec(4, 6, 1, 1), w2), Tensor(np.float32(1.0))))

    def test_same_output_and_no_tape(self):
        recorded = self._graph()
        with no_grad():
            bare = self._graph()
        assert np.array_equal(bare.data, recorded.data)
        assert recorded._parents and recorded._backward is not None
        assert bare._parents == () and bare._backward is None and not bare.requires_grad

    def test_nesting_and_exceptions_restore_recording(self):
        with no_grad():
            with no_grad():
                pass
            assert self._graph()._backward is None
        assert self._graph()._backward is not None
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                1 / 0
        assert self._graph()._backward is not None


class TestOnLeaf:
    def _leaves(self):
        rng = np.random.default_rng(14)
        return [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                for shape in ((4, 5, 5), (4, 1, 3, 3), (6, 4, 1, 1), (6,), (3,))]

    def _loss(self, x, w1, w2, b2, unused):
        # x feeds three consumers and w2 two; ``unused`` takes a gradient but the loss never reads it
        h = gelu(conv2d(x, ConvSpec(4, 4, 3, 3, groups=4), w1))
        return mean_all(mul(conv2d(add(h, x), ConvSpec(4, 6, 1, 1), w2, b2), conv2d(x, ConvSpec(4, 6, 1, 1), w2)))

    def test_each_leaf_handed_over_once_with_its_final_grad(self):
        plain = self._leaves()
        self._loss(*plain).backward()
        hooked, handed = self._leaves(), []
        with on_leaf(lambda leaf: handed.append((leaf, leaf.grad.copy()))):
            self._loss(*hooked).backward()
        assert sorted(hooked.index(leaf) for leaf, _ in handed) == [0, 1, 2, 3]
        for leaf, grad in handed:
            assert np.array_equal(grad, plain[hooked.index(leaf)].grad)
        assert plain[4].grad is None and hooked[4].grad is None

    def test_nesting_and_exceptions_restore_the_hook(self):
        handed = []
        with on_leaf(handed.append):
            with on_leaf(lambda leaf: None):
                self._loss(*self._leaves()).backward()
            assert handed == []
            self._loss(*self._leaves()).backward()
            assert len(handed) == 4
        self._loss(*self._leaves()).backward()
        with pytest.raises(ZeroDivisionError):
            with on_leaf(handed.append):
                1 / 0
        self._loss(*self._leaves()).backward()
        assert len(handed) == 4


class TestGeluMul:
    @pytest.mark.parametrize("shape", [(4, 8, 8), (8, 4, 8, 8)])
    def test_bits_of_mul_of_gelu(self, shape):
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal(shape).astype(np.float32) for _ in range(2)]
        g = rng.standard_normal(shape).astype(np.float32)
        results = []
        for fn in (gelu_mul, lambda a, b: mul(gelu(a), b)):
            a, b = (Tensor(arr, requires_grad=True) for arr in arrays)
            out = fn(a, b)
            sum_in_order(mul(out, Tensor(g))).backward()
            results.append((out.data, a.grad, b.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestObserve:
    def _record(self, seen):
        return lambda op, label, out, parents, spec: seen.append((op, label, out, parents, spec))

    def _conv(self):
        x = Tensor(np.ones((3, 4, 4), dtype=np.float32))
        return conv2d(x, ConvSpec(3, 2, 1, 1, has_bias=False), Tensor(np.ones((2, 3, 1, 1), dtype=np.float32)))

    def test_nothing_observed_outside(self):
        seen = []
        with observe(self._record(seen)):
            pass
        self._conv()
        assert seen == []

    def test_sees_name_output_parents_and_spec(self):
        seen = []
        with observe(self._record(seen)):
            out = gelu(self._conv())
        (op, label, conv_out, parents, spec), (gelu_op, _, gelu_out, gelu_parents, gelu_spec) = seen
        assert (op, label, spec) == ("conv2d", None, ConvSpec(3, 2, 1, 1, has_bias=False))
        assert parents[0].shape == (3, 4, 4) and gelu_parents == (conv_out,)
        assert (gelu_op, gelu_spec) == ("gelu", None) and gelu_out is out

    def test_ops_inside_section_carry_its_label(self):
        seen = []
        with observe(self._record(seen)):
            with section("x"):
                self._conv()
                with section("y"):
                    self._conv()
                self._conv()
            self._conv()
        assert [label for _, label, *_ in seen] == ["x", "y", "x", None]

    def test_nesting_and_exceptions_restore_observer_and_section(self):
        outer, inner = [], []
        with observe(self._record(outer)), section("a"):
            with observe(self._record(inner)), section("b"):
                self._conv()
            self._conv()
            with pytest.raises(ZeroDivisionError):
                with observe(self._record(inner)), section("c"):
                    1 / 0
            self._conv()
        self._conv()
        assert [label for _, label, *_ in inner] == ["b"]
        assert [label for _, label, *_ in outer] == ["a", "a"]


class TestStatePerThread:
    """Recording, observer and section label are per context, so per thread."""

    def _conv(self):
        x = Tensor(np.ones((3, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((2, 3, 1, 1), dtype=np.float32), requires_grad=True)
        return conv2d(x, ConvSpec(3, 2, 1, 1, has_bias=False), w)

    def test_no_label_observer_or_recording_crosses_threads(self):
        seen = []
        inside, probed = threading.Event(), threading.Event()

        def record(op, label, out, parents, spec):
            seen.append((label, threading.current_thread().name, out._backward is not None))

        def observed():
            with observe(record), section("a"), no_grad():
                self._conv()
                inside.set()
                probed.wait(10)
                self._conv()
            with observe(record):
                self._conv()  # all three restored on exit

        def bare():
            inside.wait(10)
            self._conv()  # inside neither: the other thread's observer must not see it
            with observe(record):
                self._conv()
            probed.set()

        threads = [threading.Thread(target=observed, name="A"), threading.Thread(target=bare, name="B")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        with observe(record):
            self._conv()
        assert seen == [("a", "A", False), (None, "B", True), ("a", "A", False), (None, "A", True),
                        (None, "MainThread", True)]


class TestBackwardFreesTheTape:
    def _net_and_batch(self, x_requires_grad=False):
        net = build_frenet(tiny_config(base_size=16), seed=3)
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(0, 1, (2, 4, 16, 16)).astype(np.float32), requires_grad=x_requires_grad)
        target = Tensor(rng.uniform(0, 1, (2, 4, 16, 16)).astype(np.float32))
        return net, x, target

    def test_leaves_keep_grad_and_interior_nodes_are_released(self):
        net, x, target = self._net_and_batch(x_requires_grad=True)
        seen = []
        with observe(lambda op, label, out, parents, spec: seen.append(out)):
            loss = loss_total(net.forward(x), target, 0.01)
        interior = [n for n in seen if n._backward is not None]
        assert len(interior) > 100
        loss.backward()
        assert all(p.grad is not None for p in net.parameters().values())
        assert x.grad is not None and x.grad.shape == x.shape
        assert [n for n in interior if n._node.grad is not None or n._parents != ()] == []

    def test_outputs_no_backward_reads_die_with_the_forward_without_gc(self, monkeypatch):
        # Dead after the forward: the spectral ops' outputs, which no backward reads,
        # and seven arrays per block that the tape rebuilds: the norm output (conv_in's
        # input), conv_in's output (the FACM depthwise's input), the gated map
        # (simple_gate's), the fused branches (conv_out's input), the two FFN expands
        # (the branch depthwises' inputs) and the FFN gate product (proj's input);
        # and the last Up's output, the final conv's input. Every other conv input
        # stays alive.
        net, x, _ = self._net_and_batch()
        dead_after, rebuilt, alive_after = [], [], []

        def owner_ref(arr):  # a weak reference to the array that owns the buffer of a view
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return weakref.ref(arr)

        def tracked(module, name, into):
            fn = getattr(module, name)

            def call(*args):
                out = fn(*args)
                into.extend(owner_ref(t.data) for t in ((out.re, out.im) if name == "fft2d" else (out,)))
                return out
            monkeypatch.setattr(module, name, call)

        for module, name in ((arch, "fft2d"), (spectral, "roll2d"), (spectral, "concat_channels"),
                             (spectral, "slice_channels"), (arch, "ifft2d")):
            tracked(module, name, dead_after)
        tracked(arch, "simple_gate", rebuilt)
        rebuilt_inputs = ("facm.conv_in.weight", "facm.dw.weight", "facm.conv_out.weight",
                          "ffn.branch1.dw.weight", "ffn.branch2.dw.weight", "ffn.proj.weight",
                          "final.weight")

        def record(op, label, out, parents, spec):
            if op == "conv2d":
                into = rebuilt if parents[1].name.endswith(rebuilt_inputs) else alive_after
                into.append(owner_ref(parents[0].data))

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with observe(record):
                out = net.forward(x)
            assert out.requires_grad and len(dead_after) > 40 and len(alive_after) > 10
            assert len(rebuilt) == 7 * len(list(net.blocks())) + 1
            assert [r for r in dead_after + rebuilt if r() is not None] == []
            assert [r for r in alive_after if r() is None] == []
        finally:
            if was_enabled:
                gc.enable()

    def test_node_outputs_die_with_the_sweep_without_gc(self):
        net, x, target = self._net_and_batch()
        refs, first, linears = [], [], []

        def record(op, label, out, parents, spec):
            refs.append(weakref.ref(out.data))
            if op == "matmul":
                linears.append(refs[-1])
            if not first and out._backward is not None:
                first.append(out)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with observe(record):
                loss = loss_total(net.forward(x), target, 0.01)
            # Only what a backward closure reads outlives the forward: 49 of the
            # 215 outputs (69 while the tape kept the 20 linear outputs that a
            # backward reads; it rebuilds them now).
            alive = [r for r in refs if r() is not None]
            assert len(refs) == 215 and len(alive) == 49
            assert len(linears) == 25 and [r for r in linears if r() is not None] == []
            # The forward's first node is swept last: when its closure runs,
            # every node made after it must already be gone.
            node = first.pop()
            inner, first_id = node._backward, id(node.data)
            alive_then = []

            def counting(g):
                alive_then.extend(id(r()) for r in refs if r() is not None)
                inner(g)

            node._backward = counting
            del node
            loss.backward()
            assert id(loss.data) in alive_then and set(alive_then) <= {first_id, id(loss.data)}
            assert [r() for r in alive if r() is not None and r() is not loss.data] == []
        finally:
            if was_enabled:
                gc.enable()

    def test_frenet_tape_bytes_are_pinned(self):
        # Bytes of the arrays the graph of one `frenet` forward keeps alive, found through
        # every backward closure and what it captures, parameter buffers left out. The
        # figure was 7,242,032 while the tape kept the four elementwise-rebuildable arrays
        # per block, 5,472,560 while it kept the outputs of the 1x1 convs, and 3,639,600
        # while it kept the outputs of the linear maps (AFPM's generators and projection).
        net = build_frenet(NetworkConfig(name="frenet", base_size=16), seed=0)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 4, 16, 16)).astype(np.float32))
        out = net.forward(x)

        def owner(arr):  # the array that owns the buffer of a view
            while True:
                base = arr.base
                if base is not None and not isinstance(base, np.ndarray):
                    base = getattr(base, "base", None)  # a stride-trick view's holder
                if not isinstance(base, np.ndarray):
                    return arr
                arr = base

        params = {id(owner(p.data)) for p in net.parameters().values()}
        buffers, seen, todo = {}, set(), [out._node]
        while todo:
            node = todo.pop()
            if id(node) in seen or node._backward is None:  # a leaf keeps no closure
                continue
            seen.add(id(node))
            for arr in (v for v in _captured(node._backward) if isinstance(v, np.ndarray)):
                buffers[id(owner(arr))] = owner(arr).nbytes
            todo.extend(node._parents)
        assert sum(size for key, size in buffers.items() if key not in params) == 3_111_696

    def test_second_backward_through_a_freed_graph_raises(self):
        net, x, target = self._net_and_batch()
        loss = loss_total(net.forward(x), target, 0.01)
        loss.backward()
        with pytest.raises(EvaluationError, match="freed"):
            loss.backward()

    def test_new_loss_on_a_freed_intermediate_raises(self):
        net, x, target = self._net_and_batch()
        pred = net.forward(x)
        loss_total(pred, target, 0.01).backward()
        assert pred.requires_grad and pred._parents == ()
        with pytest.raises(EvaluationError, match="freed"):
            loss_total(pred, target, 0.0).backward()


def _old_sweep(root):
    """The op records in the order ``backward()`` swept them when its walk pushed
    every node's parents in their own order, leaves among them."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents if id(parent) not in seen)
    return [node for node in reversed(order) if node._backward is not None]


class TestSweepOrder:
    @pytest.mark.parametrize("cfg, batch", [(tiny_config(), 4), (NetworkConfig(name="frenet", base_size=16), 1)],
                             ids=["tiny", "frenet"])
    def test_op_records_are_swept_in_the_old_order(self, cfg, batch):
        # Leaves now go right after a consumer; the op records, and so every
        # gradient's arithmetic, keep the order of the old walk.
        net = build_frenet(cfg, seed=5)
        rng = np.random.default_rng(6)
        x, target = (Tensor(rng.uniform(0, 1, (batch, 4, cfg.base_size, cfg.base_size)).astype(np.float32))
                     for _ in range(2))
        loss = loss_total(net.forward(x), target, 0.01)
        want, swept = _old_sweep(loss._node), []
        for node in want:
            node._backward = lambda g, node=node, inner=node._backward: swept.append(node) or inner(g)
        loss.backward()
        assert len(want) > 100 and [id(n) for n in swept] == [id(n) for n in want]


class TestLinear:
    @pytest.mark.parametrize("x_shape, w_shape", [((6, 5), (3, 5)), ((8, 6, 5), (3, 5)),
                                                  ((2, 16, 4), (4, 4, 1, 1))])
    def test_bits_of_the_chain_it_replaces(self, x_shape, w_shape):
        rng = np.random.default_rng(12)
        arrays = [rng.standard_normal(shape).astype(np.float32) for shape in (x_shape, w_shape, w_shape[:1])]
        g = rng.standard_normal(x_shape[:-1] + w_shape[:1]).astype(np.float32)
        m, k = w_shape[:2]

        def chain(x, w, b):
            return add(matmul(x, transpose2d(reshape(w, (m, k)))), reshape(b, (1, m)))

        results = []
        for fn in (linear, chain):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            ops = []
            with observe(lambda op, label, out, parents, spec: ops.append(op)):
                out = fn(*leaves)
            sum_in_order(mul(out, Tensor(g))).backward()
            results.append((out.data, ops, *(t.grad for t in leaves)))
        (out, ops, *grads), (want, _, *want_grads) = results
        assert ops == ["matmul"]
        assert np.array_equal(out, want)
        for got, expected in zip(grads, want_grads):
            assert got.shape == expected.shape and np.array_equal(got, expected)

    @pytest.mark.parametrize("shapes", [[(5,), (3, 5), (3,)], [(2, 5), (3, 4), (3,)],
                                        [(2, 5), (3, 5, 2), (3,)], [(2, 5), (3, 5), (5,)]])
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ConfigurationError, match="linear expects"):
            linear(*(Tensor(np.zeros(shape, np.float32)) for shape in shapes))


class TestLayerNorm:
    def test_two_point_normalization(self):
        x = np.zeros((2, 3, 3), dtype=np.float32)
        x[0], x[1] = 1.0, 3.0
        out = layer_norm_channels(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data[0], -1.0, atol=1e-5)
        assert np.allclose(out.data[1], 1.0, atol=1e-5)

    def test_constant_input_collapses_to_zero(self):
        x = Tensor(np.full((5, 4, 4), 2.5, dtype=np.float32))
        out = layer_norm_channels(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.abs(out.data).max() < 1e-2

    def test_per_position_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4, 4)).astype(np.float32)
        out = layer_norm_channels(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)), eps=1e-10)
        mean = out.data.mean(axis=0)
        var = out.data.var(axis=0)
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3

    def test_wrong_affine_length(self):
        with pytest.raises(ConfigurationError, match="length"):
            layer_norm_channels(Tensor(np.zeros((3, 2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(3)))


class TestSimpleGate:
    def test_ones(self):
        out = simple_gate(Tensor(np.ones((4, 2, 2))))
        assert out.shape == (2, 2, 2)
        assert np.array_equal(out.data, np.ones((2, 2, 2), dtype=np.float32))

    def test_two_times_three(self):
        x = np.concatenate([np.full((1, 2, 2), 2.0), np.full((1, 2, 2), 3.0)])
        assert np.allclose(simple_gate(Tensor(x)).data, 6.0)

    def test_zero_half_annihilates(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.standard_normal((3, 2, 2)), np.zeros((3, 2, 2))])
        assert np.array_equal(simple_gate(Tensor(x)).data, np.zeros((3, 2, 2), dtype=np.float32))

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            simple_gate(Tensor(np.zeros((3, 2, 2))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gate_against_ones_is_identity(self, seed):
        x = np.random.default_rng(seed).standard_normal((2, 3, 3)).astype(np.float32)
        out = simple_gate(Tensor(np.concatenate([x, np.ones_like(x)])))
        assert np.array_equal(out.data, x)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.zeros(3))).data.max() == 0.0

    def test_large_positive_asymptote(self):
        out = gelu(Tensor(np.array([10.0], dtype=np.float32)))
        assert abs(out.data[0] - 10.0) < 1e-6

    def test_unit_value_against_erf_oracle(self):
        import mpmath

        want = float(mpmath.mpf(1) * 0.5 * (1 + mpmath.erf(1 / mpmath.sqrt(2))))
        out = gelu(Tensor(np.array([1.0], dtype=np.float64)))
        assert abs(float(out.data[0]) - want) < 1e-7
        assert abs(want - 0.8413447) < 1e-6


class TestGlobalAvgPool:
    def test_constant_channel(self):
        out = global_avg_pool(Tensor(np.full((3, 4, 4), 7.5)))
        assert out.shape == (3, 1, 1)
        assert np.allclose(out.data, 7.5)

    def test_small_grid(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        assert global_avg_pool(Tensor(x)).data.reshape(()) == 1.5

    def test_matches_sum_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5, 5)).astype(np.float32)
        want = np.array([plane.sum() / 25.0 for plane in x])
        out = global_avg_pool(Tensor(x)).data.reshape(3)
        assert np.abs(out - want).max() < 1e-6


class TestDepthToSpace:
    def test_labeled_block_fills_quadrants_row_major(self):
        x = np.arange(4, dtype=np.float32).reshape(4, 1, 1)
        out = depth_to_space(Tensor(x), 2)
        assert np.array_equal(out.data, np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=np.float32))

    def test_round_trip_shapes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 3, 5)).astype(np.float32)
        out = depth_to_space(Tensor(x), 2)
        assert out.shape == (2, 6, 10)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            depth_to_space(Tensor(np.zeros((6, 2, 2))), 2)


def test_tensor_invariants_on_ops():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((4, 8, 8)).astype(np.float32))
    spec = ConvSpec(4, 8, 3, 3)
    w = Tensor(rng.standard_normal((8, 4, 3, 3)).astype(np.float32) * 0.1)
    out = conv2d(x, spec, w)
    assert out.data.size == np.prod(out.shape)
    assert np.isfinite(out.data).all()
    assert out.dtype == np.float32
