"""Dense float tensors with reverse-mode differentiation.

Values are immutable from the caller's perspective: every operation returns a
fresh Tensor and records a backward closure when any input participates in
gradient tracking. The tape is the implicit graph of those closures; it lives
only for one forward/backward pass and is never shared between threads.
Inside ``no_grad()`` nothing is recorded, so a forward keeps no graph alive.
Inside ``observe(fn)`` each new node is also passed to ``fn``, to be counted.

Image ops read the last three axes as CxHxW and treat any leading axes as a
batch. Each sample is computed exactly as it would be alone, and a gradient
that reaches an unbatched tensor (a parameter) is the per-sample gradients
added up in index order, so a batch trains bit for bit like its items would
one after another.

The production dtype is float32. Operations follow the dtype of their inputs,
which lets the gradient checker rerun the same graph in float64 where central
finite differences are meaningful.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf


class ConfigurationError(ValueError):
    """Raised when shapes, sizes, or config fields violate an operation's contract."""


class EvaluationError(RuntimeError):
    """Raised when a numeric evaluation produces unusable results (NaN/Inf)."""


class Tensor:
    """Dense rank-N array of 32-bit floats (64-bit inside the gradient checker).

    ``data`` is row-major with length equal to the product of ``shape``.
    ``grad`` is filled by ``backward()`` for tensors that require gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Accumulates ``grad`` on every tensor in the tape that requires
        gradients. Uses an iterative topological order so deep networks do not
        hit the recursion limit.
        """
        if self.data.ndim != 0:
            raise EvaluationError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class Parameter(Tensor):
    """A learnable Tensor with a unique dotted-path name."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={tuple(self.shape)})"


def parameters_of(obj) -> Iterator[Parameter]:
    """Every Parameter reachable from ``obj`` through attributes, lists and tuples.

    Attributes are visited in assignment order, so a module yields its
    parameters in the order its constructor built them; that order is the
    checkpoint record order.
    """
    if isinstance(obj, Parameter):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from parameters_of(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from parameters_of(value)


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-D convolution layer."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    groups: int = 1
    has_bias: bool = True

    def __post_init__(self):
        for field in ("in_channels", "out_channels", "kernel_h", "kernel_w", "stride", "groups"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"ConvSpec.{field} must be positive, got {getattr(self, field)}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConfigurationError(
                f"channels must divide by groups: in={self.in_channels} out={self.out_channels} "
                f"groups={self.groups}"
            )

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, self.kernel_h, self.kernel_w)


_recording = True
_observer: Callable | None = None
_section: str | None = None


@contextmanager
def _setting(name: str, value):
    """Set the module global ``name`` inside the block; restore it on exit, also on a raise."""
    previous = globals()[name]
    globals()[name] = value
    try:
        yield
    finally:
        globals()[name] = previous


def no_grad():
    """Record no tape inside the block: results keep no parents and no backward closure.

    The arithmetic is unchanged, so outputs equal those with recording on.
    """
    return _setting("_recording", False)


def observe(fn: Callable):
    """Call ``fn(op, section, out, parents, spec)`` for every node made inside the block.

    ``op`` names the nodes of conv2d, matmul, ifft2d and fft2d (its real part
    only, so once per transform), else None; ``spec`` is a conv2d's ConvSpec.
    ``section`` is the innermost label: a section (``enc1``) or a block path (``enc1.blk0``).
    """
    return _setting("_observer", fn)


def section(name: str):
    """Label the nodes made inside the block ``name`` for the observer; an inner
    label such as the block path ``enc1.blk0`` replaces an outer ``enc1`` until it exits."""
    return _setting("_section", name)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None],
          op: str | None = None, spec: ConvSpec | None = None) -> Tensor:
    """Wrap an op result; the backward closure is kept only when needed."""
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    if _observer is not None:
        _observer(op, _section, out, parents, spec)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _sum_batch(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum the axes of ``g`` before its last ``ndim`` one sample after another, in index order.

    That is the order in which separate per-sample graphs would add their
    gradients; ``np.sum`` would pair the terms of a short contiguous axis instead.
    """
    if g.ndim == ndim:
        return g
    rows = g.reshape((-1,) + g.shape[g.ndim - ndim :])
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return np.asarray(total)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from.

    Size-1 axes of ``shape`` are summed within each sample first; leading axes
    that ``shape`` lacks are batch axes, summed last by ``_sum_batch``.
    """
    lead = g.ndim - len(shape)
    axes = tuple(lead + i for i, dim in enumerate(shape) if dim == 1 and g.shape[lead + i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return _sum_batch(g, len(shape))


# ---------------------------------------------------------------------------
# elementwise / reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape))

    return _node(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def bw(g):
        _accumulate(a, g * s)

    return _node(out, (a,), bw)


def abs_(a: Tensor) -> Tensor:
    """Elementwise |x|; the subgradient at exact zero is taken as 0."""
    out = np.abs(a.data)

    def bw(g):
        _accumulate(a, g * np.sign(a.data))

    return _node(out, (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    """Mean of each sample's last three axes (of every axis when there are at most three)."""
    lead = a.shape[:-3]
    axes = tuple(range(len(lead), a.data.ndim))
    out = a.data.mean(axis=axes, dtype=np.float64).astype(a.dtype)
    n = math.prod(a.shape[len(lead) :])
    keep = lead + (1,) * len(axes)

    def bw(g):
        _accumulate(a, np.broadcast_to((g / n).reshape(keep), a.shape).astype(a.dtype))

    return _node(out, (a,), bw)


def sum_in_order(a: Tensor) -> Tensor:
    """Sum of all elements, added one after another in index order.

    A batch's per-sample losses summed this way equal the same losses joined
    by a chain of ``add``.
    """
    out = _sum_batch(a.data.reshape(-1), 0)

    def bw(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes are a batch."""
    out = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(out, (a, b), bw, "matmul")


def transpose2d(a: Tensor) -> Tensor:
    out = a.data.T.copy()

    def bw(g):
        _accumulate(a, g.T)

    return _node(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(out, (a,), bw)


def concat_channels(parts: Iterable[Tensor]) -> Tensor:
    parts = tuple(parts)
    out = np.concatenate([p.data for p in parts], axis=-3)
    offsets = np.cumsum([0] + [p.shape[-3] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[..., lo:hi, :, :])

    return _node(out, parts, bw)


def slice_channels(a: Tensor, start: int, stop: int) -> Tensor:
    out = a.data[..., start:stop, :, :]

    def bw(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[..., start:stop, :, :] = g
        _accumulate(a, full)

    return _node(out, (a,), bw)


def roll2d(a: Tensor, shift_h: int, shift_w: int) -> Tensor:
    """Circular shift along the last two axes."""
    out = np.roll(a.data, (shift_h, shift_w), axis=(-2, -1))

    def bw(g):
        _accumulate(a, np.roll(g, (-shift_h, -shift_w), axis=(-2, -1)))

    return _node(out, (a,), bw)


# ---------------------------------------------------------------------------
# neural primitives


def conv2d(x: Tensor, spec: ConvSpec, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Grouped 2-D cross-correlation of a CxHxW input or a batch of them.

    Odd kernels get zero padding (k-1)/2 so spatial size maps H -> H/stride;
    even kernels are unpadded (the 2x2/stride-2 downsampling case).

    One of three kernels computes it, chosen by ``spec``:

    - 1x1, stride 1, groups 1: one GEMM over C x (H*W) per sample;
    - depthwise 3x3, stride 1: nine shifted multiply-adds over blocks of
      zero-padded channel rows;
    - every other shape: one einsum over sliding windows.

    All three accumulate the output and the weight gradient in float64 and
    cast back to the input dtype; the input gradient accumulates in the input
    dtype. On float32 inputs the two direct kernels reproduce the einsum
    kernel bit for bit; on float64 the depthwise one differs by a few ulps.
    The backward of the two direct kernels keeps only the input and the
    weight alive; the einsum kernel's keeps a zero-padded copy of the input.
    """
    if x.data.ndim < 3:
        raise ConfigurationError(f"conv2d expects CxHxW input or a batch of them, got shape {x.shape}")
    lead = x.shape[:-3]
    c_in, h, w = x.shape[-3:]
    if c_in != spec.in_channels:
        raise ConfigurationError(f"input has {c_in} channels, spec expects {spec.in_channels}")
    if tuple(weight.shape) != spec.weight_shape:
        raise ConfigurationError(
            f"weight shape {tuple(weight.shape)} does not match spec {spec.weight_shape}"
        )
    if bias is not None and tuple(bias.shape) != (spec.out_channels,):
        raise ConfigurationError(f"bias shape {tuple(bias.shape)} != ({spec.out_channels},)")
    if h % spec.stride or w % spec.stride:
        raise ConfigurationError(f"spatial dims {h}x{w} not divisible by stride {spec.stride}")

    out, grads = _conv_kernel(spec)(x.data.reshape(-1, c_in, h, w), spec, weight.data)
    out = out.astype(np.result_type(x.data, weight.data), copy=False)
    if bias is not None:
        out += bias.data[:, None, None]
    out = out.reshape(lead + out.shape[1:])

    parents = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        g = g.reshape((-1,) + g.shape[-3:])
        dw, dx = grads(g, weight.requires_grad, x.requires_grad)
        if dw is not None:
            dw = dw.reshape((-1,) + weight.shape).astype(g.dtype)
            _accumulate(weight, _sum_batch(dw, weight.data.ndim))
        if dx is not None:
            _accumulate(x, dx.reshape(x.shape))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _sum_batch(g.sum(axis=(-2, -1)), 1))

    return _node(out, parents, bw, "conv2d", spec)


def _conv_kernel(spec: ConvSpec):
    """The kernel for ``spec``: (NxCxHxW input, spec, weight) arrays -> (output, grads).

    The output is a new array, summed in float64 and returned in float64 or
    already cast to the result dtype. ``grads(g, need_w, need_x)`` returns
    ``(dw, dx)``: dw float64 with one weight-sized block per sample, dx with
    the input's shape and dtype, None where not needed.
    """
    if spec.stride == 1 and spec.kernel_h == spec.kernel_w == 1 and spec.groups == 1:
        return _conv_1x1
    if (spec.stride == 1 and spec.kernel_h == spec.kernel_w == 3
            and spec.groups == spec.in_channels == spec.out_channels):
        return _conv_depthwise3
    return _conv_einsum


def _conv_einsum(xd: np.ndarray, spec: ConvSpec, wd: np.ndarray):
    """Any shape: one einsum over sliding windows of the zero-padded input."""
    kh, kw, s, grp = spec.kernel_h, spec.kernel_w, spec.stride, spec.groups
    pad_h, pad_w = (kh - 1) // 2, (kw - 1) // 2
    n, c_in, h, w = xd.shape
    ci_g = spec.in_channels // grp
    co_g = spec.out_channels // grp

    xp = np.pad(xd, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    h_out, w_out = windows.shape[2], windows.shape[3]
    xv = windows.reshape(n, grp, ci_g, h_out, w_out, kh, kw)
    wv = wd.reshape(grp, co_g, ci_g, kh, kw)
    out = np.einsum("ngihwuv,goiuv->ngohw", xv, wv, dtype=np.float64, optimize=True)

    def grads(g, need_w, need_x):
        gv = g.reshape(n, grp, co_g, h_out, w_out)
        dw = dx = None
        if need_w:
            dw = np.einsum("ngihwuv,ngohw->ngoiuv", xv, gv, dtype=np.float64, optimize=True)
        if need_x:
            dxp = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    patch = np.einsum("goi,ngohw->ngihw", wv[:, :, :, u, v], gv, optimize=True)
                    dxp[:, :, u : u + s * h_out : s, v : v + s * w_out : s] += patch.reshape(
                        n, c_in, h_out, w_out
                    )
            dx = dxp[:, :, pad_h : pad_h + h, pad_w : pad_w + w]
        return dw, dx

    return out.reshape(n, spec.out_channels, h_out, w_out), grads


def _conv_1x1(xd: np.ndarray, spec: ConvSpec, wd: np.ndarray):
    """1x1, stride 1, groups 1: one GEMM over C x (H*W) per sample."""
    n, c_in, h, w = xd.shape
    x2 = xd.reshape(n, c_in, h * w)
    w2 = wd.reshape(spec.out_channels, c_in)
    out = np.matmul(w2, x2, dtype=np.float64)

    def grads(g, need_w, need_x):
        g2 = g.reshape(n, spec.out_channels, h * w)
        dw = np.matmul(g2, x2.transpose(0, 2, 1), dtype=np.float64) if need_w else None
        dx = (w2.T @ g2).reshape(xd.shape).astype(xd.dtype, copy=False) if need_x else None
        return dw, dx

    return out.reshape(n, spec.out_channels, h, w), grads


# Elements in the buffers of one block of depthwise rows, all of them together:
# about 2^14 per buffer, so a block stays in L2 while its nine taps run.
_DW_BLOCK = 1 << 16


def _conv_depthwise3(xd: np.ndarray, spec: ConvSpec, wd: np.ndarray):
    """Depthwise 3x3, stride 1: nine shifted multiply-adds per (sample, channel) row.

    Rows are zero-padded block by block as ``_padded_blocks`` lays them out,
    so that tap (u, v) of output (y, x) sits at y*(W+2)+x plus the offset
    u*(W+2)+v. The output adds the nine float64 products from zero in tap
    order and is written straight in the result dtype. dx is the same
    correlation of the padded gradient, in its dtype, with tap (u, v) at offset
    (2-u)*(W+2)+(2-v). dw is one float64 dot product of length H*W per row
    and tap.

    The backward keeps only the input and the weight alive, and pads them
    again block by block when it runs.
    """
    n, c, h, w = xd.shape
    rows = xd.reshape(n * c, h, w)
    w9 = np.tile(wd.reshape(c, 9), (n, 1))
    offsets = [u * (w + 2) + v for u in range(3) for v in range(3)]
    out = np.empty((n, c, h, w), np.result_type(xd, wd))
    _correlate3(rows, w9.astype(np.float64), offsets, out.reshape(rows.shape))

    def grads(g, need_w, need_x):
        dw = dx = None
        g_rows = g.reshape(rows.shape)
        if need_w:
            dw = np.empty((n * c, 9))
            for block, xp, shifted, g64 in _padded_blocks(rows, np.float64, (h * w, h * w)):
                g64.reshape(-1, h, w)[...] = g_rows[block]
                for k, start in enumerate(offsets):
                    tap = xp[:, start : start + h * (w + 2)].reshape(-1, h, w + 2)[:, :, :w]
                    shifted.reshape(-1, h, w)[...] = tap
                    dw[block, k] = np.matmul(shifted[:, None, :], g64[:, :, None])[:, 0, 0]
            dw = dw.reshape(n, c, 9)
        if need_x:
            dx = np.empty(xd.shape, xd.dtype)
            _correlate3(g_rows, w9, [offsets[-1] - start for start in offsets], dx.reshape(rows.shape))
        return dw, dx

    return out, grads


def _padded_blocks(src: np.ndarray, dtype, scratch_cols: Sequence[int]):
    """Yield ``(block, padded, *scratch)`` over successive blocks of the R x H x W rows of ``src``.

    Row i of ``padded`` is ``src[block][i]`` in ``dtype``, zero-padded by one
    to (H+2) x (W+2) and flattened, then two more zeros, so that every tap's
    slice of H*(W+2) values stays inside the row. ``scratch`` holds one
    uninitialised array per entry of ``scratch_cols``, that many columns wide.
    All are reused from block to block, and together hold about ``_DW_BLOCK``
    elements.
    """
    rows, h, w = src.shape
    size = (h + 2) * (w + 2) + 2
    step = max(1, min(rows, _DW_BLOCK // (size + sum(scratch_cols))))
    padded = np.zeros((step, size), dtype)
    inner = padded[:, : size - 2].reshape(step, h + 2, w + 2)[:, 1 : h + 1, 1 : w + 1]
    scratch = [np.empty((step, cols), dtype) for cols in scratch_cols]
    for start in range(0, rows, step):
        r = min(step, rows - start)
        inner[:r] = src[start : start + r]
        yield (slice(start, start + r), padded[:r], *(s[:r] for s in scratch))


def _correlate3(src: np.ndarray, wts: np.ndarray, offsets: Sequence[int], out: np.ndarray) -> None:
    """Set ``out[i, y, x]`` to the sum over k of ``wts[i, k]`` times ``p[y*(W+2) + x + offsets[k]]``.

    ``p`` is row i of ``src`` as ``_padded_blocks`` pads it. The sum is taken
    in ``wts.dtype``, from zero, in the order of ``offsets``.
    """
    h, w = src.shape[1:]
    span = h * (w + 2)
    for block, xp, acc, tmp in _padded_blocks(src, wts.dtype, (span, span)):
        acc.fill(0)
        for k, start in enumerate(offsets):
            np.multiply(xp[:, start : start + span], wts[block, k, None], out=tmp)
            acc += tmp
        out[block] = acc.reshape(-1, h, w + 2)[:, :, :w]


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each spatial position across channels (biased variance), then affine."""
    c = x.shape[-3]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(
            f"gamma/beta must have length {c}, got {tuple(gamma.shape)}/{tuple(beta.shape)}"
        )
    mu = x.data.mean(axis=-3, keepdims=True)
    centered = x.data - mu
    var = np.square(centered).mean(axis=-3, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def bw(g):
        if beta.requires_grad:
            _accumulate(beta, _sum_batch(g.sum(axis=(-2, -1)), 1))
        if gamma.requires_grad:
            _accumulate(gamma, _sum_batch((g * xhat).sum(axis=(-2, -1)), 1))
        if x.requires_grad:
            dxhat = g * gamma.data[:, None, None]
            mean_dxhat = dxhat.mean(axis=-3, keepdims=True)
            mean_dxhat_xhat = (dxhat * xhat).mean(axis=-3, keepdims=True)
            dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
            _accumulate(x, dx)

    return _node(out, (x, gamma, beta), bw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit x * Phi(x) (erf form, no tanh approximation)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def bw(g):
        pdf = np.exp(-0.5 * np.square(x.data)) * _INV_SQRT_2PI
        _accumulate(x, g * (cdf + x.data * pdf))

    return _node(out.astype(x.dtype), (x,), bw)


def simple_gate(x: Tensor) -> Tensor:
    """Split channels in half and multiply the halves elementwise."""
    c = x.shape[-3]
    if c % 2:
        raise ConfigurationError(f"simple_gate needs an even channel count, got {c}")
    half = c // 2
    first, second = x.data[..., :half, :, :], x.data[..., half:, :, :]
    out = first * second

    def bw(g):
        _accumulate(x, np.concatenate([g * second, g * first], axis=-3))

    return _node(out, (x,), bw)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel mean over all spatial positions, kept as Cx1x1."""
    h, w = x.shape[-2:]
    out = x.data.mean(axis=(-2, -1), keepdims=True, dtype=np.float64).astype(x.dtype)

    def bw(g):
        _accumulate(x, np.broadcast_to(g / (h * w), x.shape).astype(g.dtype))

    return _node(out, (x,), bw)


def depth_to_space(x: Tensor, factor: int = 2) -> Tensor:
    """Rearrange (r*r*C)xHxW into Cx(rH)x(rW); channel blocks fill each rxr cell row-major."""
    lead = x.shape[:-3]
    c_in, h, w = x.shape[-3:]
    r = factor
    if c_in % (r * r):
        raise ConfigurationError(f"depth_to_space needs channels divisible by {r * r}, got {c_in}")
    c_out = c_in // (r * r)
    out = (
        x.data.reshape(-1, c_out, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(lead + (c_out, h * r, w * r))
    )

    def bw(g):
        dg = (
            g.reshape(-1, c_out, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(x.shape)
        )
        _accumulate(x, dg)

    return _node(np.ascontiguousarray(out), (x,), bw)


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0
