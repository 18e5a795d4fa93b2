import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenet import tensor
from frenet.tensor import (
    ConfigurationError,
    ConvSpec,
    Tensor,
    add,
    conv2d,
    depth_to_space,
    gelu,
    global_avg_pool,
    layer_norm_channels,
    mean_all,
    no_grad,
    observe,
    section,
    simple_gate,
)


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

    @pytest.mark.parametrize("stride,groups,kh", [(2, 1, 2), (1, 2, 3), (2, 4, 2)])
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


def einsum_conv_with_grads(*args):
    """The same with every shape sent through the einsum kernel, the oracle of the direct ones."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_conv_kernel", lambda spec: tensor._conv_einsum)
        return conv_with_grads(*args)


# Largest difference, in units of the last place of sum |x*w| (or sum |x*g|), between
# the depthwise kernel and einsum in float64: without an FMA the nine products round
# once more. Measured at most 4 on random shapes up to 130x130; float32 is exact.
DEPTHWISE_F64_ULPS = 8


def check_direct_kernel(kind, channels, h, w, has_bias, dtype, need, seed, batch=None):
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    if kind == "1x1":
        c_out = int(rng.integers(1, 65))
        spec = ConvSpec(channels, c_out, 1, 1, has_bias=has_bias)
        assert tensor._conv_kernel(spec) is tensor._conv_1x1
    else:
        c_out = channels
        spec = ConvSpec(channels, channels, 3, 3, groups=channels, has_bias=has_bias)
        assert tensor._conv_kernel(spec) is tensor._conv_depthwise3
    x = rng.standard_normal(lead + (channels, h, w)).astype(dtype)
    weight = rng.standard_normal(spec.weight_shape).astype(dtype)
    bias = rng.standard_normal(c_out).astype(dtype) if has_bias else None
    g = rng.standard_normal(lead + (c_out, h, w)).astype(dtype)
    need_x, need_w = need in ("x", "both"), need in ("w", "both")
    got = conv_with_grads(x, spec, weight, bias, need_x, need_w, g)
    want = einsum_conv_with_grads(x, spec, weight, bias, need_x, need_w, g)
    abs_bias = None if bias is None else np.abs(bias)
    scale = einsum_conv_with_grads(np.abs(x), spec, np.abs(weight), abs_bias, need_x, need_w, np.abs(g))
    for name, a, b, size in zip(("out", "dx", "dw", "dbias"), got, want, scale):
        assert (a is None) == (b is None), name
        if a is None:
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if kind == "depthwise" and dtype == np.float64 and name in ("out", "dw"):
            assert np.all(np.abs(a - b) <= DEPTHWISE_F64_ULPS * np.spacing(size)), name
        else:
            assert np.array_equal(a, b), name


class TestDirectConvKernels:
    """The 1x1 GEMM and depthwise-3x3 kernels against the einsum kernel."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("need", ["x", "w"])
    @pytest.mark.parametrize("has_bias", [True, False])
    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (5, 7)])
    @pytest.mark.parametrize("channels", [1, 3, 64])
    @pytest.mark.parametrize("kind", ["1x1", "depthwise"])
    def test_matches_einsum_kernel(self, kind, channels, h, w, has_bias, need, dtype):
        check_direct_kernel(kind, channels, h, w, has_bias, dtype, need, seed=channels * 100 + h * 10 + w)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["1x1", "depthwise"]),
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

    def test_other_shapes_keep_the_einsum_kernel(self):
        for spec in (ConvSpec(4, 8, 3, 3), ConvSpec(4, 8, 2, 2, stride=2), ConvSpec(4, 4, 1, 1, groups=2),
                     ConvSpec(4, 8, 3, 3, groups=4), ConvSpec(4, 4, 5, 5, groups=4)):
            assert tensor._conv_kernel(spec) is tensor._conv_einsum


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
        assert (gelu_op, gelu_spec) == (None, None) and gelu_out is out

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
