"""Dense float tensors with reverse-mode differentiation.

Values are immutable from the caller's perspective: every operation returns a
fresh Tensor. When any input takes a gradient, the result also gets a graph
record: the records of its parents, its backward closure and its gradient.
A leaf that takes a gradient is its own record. The graph never holds an op
output, so it keeps no activation by itself: a closure captures at forward
time the arrays and shapes its backward reads, and an op output that no
backward reads is freed as soon as the forward drops it.

An elementwise op (``mul``, ``simple_gate``, ``gelu_mul``, the norm's affine
map, AFPM's ``patch_scale``, and ``add`` of two such outputs), ``linear`` and a
1x1 ``conv2d`` at stride 1 also give their output a recompute function: it
returns the output again, bit for bit, from arrays that the op's backward
keeps anyway and parameter buffers. A backward that reads an input keeps the
input's recompute function when it has one, and the array otherwise, so such
an output dies with the forward as well.

The graph lives only for one forward/backward pass and is never
shared between threads. ``backward()`` frees it record by record as it
sweeps, so what a closure kept goes as soon as its gradient has passed.
Inside ``no_grad()`` nothing is recorded, so a forward keeps no graph alive.
Inside ``observe(fn)`` each new node is also passed to ``fn``, to be counted.
Inside ``on_leaf(fn)``, ``backward()`` passes each leaf to ``fn`` as soon as
its gradient is final, so a caller can use and drop it mid-sweep.
Inside ``parameter_buffer(rng)`` each ``parameter`` made is collected, and
on exit all of them become slices of one new buffer, so a network's weights
are one allocation that is freed with the network.
Recording, observer, leaf hook, ``section`` label and parameter collector
are per context (``contextvars``): a thread sets them only for itself, and a
worker run in a copy of its caller's context (``contextvars.copy_context()``)
starts from the caller's.

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
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.special import erf


class ConfigurationError(ValueError):
    """Raised when shapes, sizes, or config fields violate an operation's contract."""


class EvaluationError(RuntimeError):
    """Raised when a numeric evaluation produces unusable results (NaN/Inf)."""


class Tensor:
    """Dense rank-N array of 32-bit floats (64-bit inside the gradient checker).

    ``data`` is row-major with length equal to the product of ``shape``.
    ``grad`` is filled by ``backward()`` on the leaves that require gradients
    (parameters, and inputs made with ``requires_grad=True``). A leaf is its
    own graph record. A Tensor an op made while recording holds a separate
    record (``_Node``) that keeps the gradient, the backward closure and the
    parents' records, but not ``data``: the graph never holds an activation.
    ``_parents`` and ``_backward`` read the record; ``_backward`` can be
    replaced through the Tensor, and ``backward()`` calls what was set.
    ``_recompute`` is None or, on an op output with a record, the op's zero-argument
    function that returns ``data`` again (see the module docstring).
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_recompute")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None
        self._recompute: Callable[[], np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def _record(self) -> Tensor | _Node | None:
        """What a graph holds of this tensor: its op's record, itself if it is a
        leaf that requires gradients, else None (it takes no gradient)."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None]) -> None:
        self._node._backward = fn

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output that frees the graph as it goes.

        Accumulates ``grad`` on every leaf in the graph that requires gradients.
        Inside ``on_leaf(fn)`` it calls ``fn(leaf)`` when the sweep reaches a
        leaf that holds a gradient: every consumer of the leaf comes first in
        the sweep, so that gradient is final, and ``fn`` may drop it. A leaf is
        reached right after one of its consumers (its only one, for a parameter
        read once), not after everything upstream of them, so few gradients
        are held at once. Leaves have no parents, so the op records are swept
        in the order they would be if leaves were walked like other parents.
        Once an op's record has passed its gradient on, it drops its ``grad``,
        parents and closure, so the arrays the closure kept alive are freed by
        reference count during the sweep. A freed record raises
        EvaluationError if a later ``backward()`` reaches it. Uses an iterative
        topological order so deep networks do not hit the recursion limit.
        """
        if self.data.ndim != 0:
            raise EvaluationError("backward() requires a scalar output")
        root = self if self._node is None else self._node
        order: list[Tensor | _Node] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            # Leaves go under the op parents, so a leaf is swept right after a
            # consumer, not after everything upstream of it.
            for leaves in (True, False):
                for parent in node._parents:
                    if (parent._backward is None) is leaves and id(parent) not in seen:
                        stack.append((parent, False))
        root.grad = np.ones((), dtype=self.data.dtype)
        hook = _on_leaf.get()
        while order:
            node = order.pop()  # popped, so the list keeps no swept record alive
            if node._backward is None:  # a leaf
                if hook is not None and node.grad is not None:
                    hook(node)
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _freed


class _Node:
    """The graph record of an op's result: parents' records, backward closure and grad.

    ``data`` is an empty array of the result's dtype, so a walk over the graph
    finds the dtype but counts only the arrays the closures captured.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, dtype: np.dtype, parents: tuple, backward: Callable[[np.ndarray], None]):
        self.data = _EMPTY[dtype]
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def _record(self) -> _Node:
        return self


_EMPTY = {np.dtype(dt): np.empty(0, dt) for dt in (np.float32, np.float64)}


def _freed(g: np.ndarray) -> None:
    raise EvaluationError("backward() reached a node whose graph an earlier backward() freed")


class Parameter(Tensor):
    """A learnable Tensor with a unique dotted-path name."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={tuple(self.shape)})"


def parameter(name: str, shape: tuple[int, ...], bound: float | None = None,
              fill: float = 0.0) -> Parameter:
    """A Parameter of ``shape`` made inside ``parameter_buffer``, which gives it its values:
    draws from U(-bound, bound) when ``bound`` is given, else ``fill``.

    Until the block exits it holds a zero-stride placeholder of its shape.
    """
    made = _collector.get()
    if made is None:
        raise ConfigurationError(f"parameter {name} made outside a parameter_buffer block")
    try:  # zero strides over four read-only zero bytes
        placeholder = np.ndarray(shape, np.float32, _ZERO, strides=(0,) * len(shape))
    except ValueError as exc:
        raise ConfigurationError(f"cannot allocate a weight of shape {shape}: {exc}") from exc
    p = Parameter(name, placeholder)
    made.append((p, bound, fill))
    return p


@contextmanager
def parameter_buffer(rng: np.random.Generator | None) -> Iterator[list[Parameter]]:
    """Collect the Parameters ``parameter`` makes inside the block, and give them values on exit.

    On exit each becomes a C-contiguous slice of one new float32 buffer, in the
    order made and with no gaps, and the yielded list holds them in that order.
    With ``rng`` each slice is drawn or filled in that order, straight into the
    buffer; without one every slice stays zero, for a network about to be
    filled from a checkpoint. A draw runs ``_DRAW_BLOCK`` float64 values at a
    time through one scratch block, as ``rng.uniform`` computes them
    (``low + range * U``, U from ``rng.random``), so it gives the bits of
    ``rng.uniform(-bound, bound, shape)`` with no temporary of the weight's
    size. A buffer numpy cannot allocate is a configuration error.
    """
    made: list[tuple[Parameter, float | None, float]] = []
    params: list[Parameter] = []
    with _setting(_collector, made):
        yield params
    try:
        buffer = np.zeros(sum(p.size for p, _, _ in made), dtype=np.float32)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"cannot allocate the weights: {exc}") from exc
    block = np.empty(_DRAW_BLOCK)
    offset = 0
    for p, bound, fill in made:
        flat = buffer[offset : offset + p.size]
        offset += p.size
        if rng is not None and bound is not None:
            for lo in range(0, p.size, _DRAW_BLOCK):
                draw = block[: min(_DRAW_BLOCK, p.size - lo)]
                rng.random(out=draw)
                draw *= 2 * bound
                draw += -bound
                flat[lo : lo + draw.size] = draw
        elif rng is not None and fill:
            flat.fill(fill)
        p.data = flat.reshape(p.shape)
        params.append(p)


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-D convolution layer."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    groups: int = 1

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


_recording: ContextVar[bool] = ContextVar("recording", default=True)
_observer: ContextVar[Callable | None] = ContextVar("observer", default=None)
_section: ContextVar[str | None] = ContextVar("section", default=None)
_on_leaf: ContextVar[Callable | None] = ContextVar("on_leaf", default=None)
_collector: ContextVar[list | None] = ContextVar("collector", default=None)
_ZERO = bytes(4)
_DRAW_BLOCK = 1 << 15  # float64 values per block of a seeded draw: 256 KiB


@contextmanager
def _setting(var: ContextVar, value):
    """Set ``var`` inside the block; restore it on exit, also on a raise."""
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def no_grad():
    """Record no graph inside the block: results get no record, so no parents and no closure.

    The arithmetic is unchanged, so outputs equal those with recording on.
    """
    return _setting(_recording, False)


def observe(fn: Callable):
    """Call ``fn(op, section, out, parents, spec)`` for every node made inside the block.

    ``op`` is the name of the function that made the node, with two
    exceptions: a linear node is named "matmul", with ``x`` as its first
    parent, and the imaginary part of an fft2d is "fft2d_imag", so that
    "fft2d" counts once per transform. ``spec`` is a conv2d's ConvSpec.
    ``section`` is the innermost label: a section (``enc1``) or a block path (``enc1.blk0``).
    """
    return _setting(_observer, fn)


def on_leaf(fn: Callable[[Tensor], None]):
    """Inside the block, ``backward()`` calls ``fn(leaf)`` once for each leaf that
    holds a gradient, as soon as that gradient is final."""
    return _setting(_on_leaf, fn)


def section(name: str):
    """Label the nodes made inside the block ``name`` for the observer; an inner
    label such as the block path ``enc1.blk0`` replaces an outer ``enc1`` until it exits."""
    return _setting(_section, name)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None],
          op: str | None = None, spec: ConvSpec | None = None,
          recompute: Callable[[], np.ndarray] | None = None) -> Tensor:
    """Wrap an op result; it gets a record only when recording and some parent needs a gradient.

    The record keeps the records of the parents that take a gradient and
    ``backward``, which must capture arrays and records, never a Tensor. A
    result with a record also gets ``recompute``, which may use only what
    ``backward`` keeps, the buffers of its own parameters, and the recompute
    functions of the inputs.

    A recompute runs, each time it is read, only inside the backward of a node
    downstream of the result: a consumer, or a consumer of an output whose
    recompute reads it. A training step updates each parameter in place when
    ``backward()`` reaches it (``on_leaf``). The sweep reaches every node
    downstream of a result before the result's producer, and the producer
    before its parameters, so a recompute always reads a parameter buffer
    before that update.
    """
    out = Tensor(data)
    if _recording.get():
        records = tuple([r for p in parents if (r := p._record) is not None])
        if records:
            out.requires_grad = True
            out._node = _Node(out.data.dtype, records, backward)
            out._recompute = recompute
    observer = _observer.get()
    if observer is not None:
        observer(op, _section.get(), out, parents, spec)
    return out


def _kept(t: Tensor) -> np.ndarray | Callable[[], np.ndarray]:
    """What a backward keeps to read ``t.data`` again: its recompute function, else the array."""
    return t.data if t._recompute is None else t._recompute


def _rebuilt(kept: np.ndarray | Callable[[], np.ndarray]) -> np.ndarray:
    """The array that ``kept`` (from ``_kept``) stands for: itself, or what its recompute returns.

    Nothing is cached, so every read runs the recompute, and a recompute runs
    those of its rebuilt inputs. A value that several rebuilt outputs read,
    such as the gated map under both branches of the fused sum, is computed
    again for each of them.
    """
    return kept if isinstance(kept, np.ndarray) else kept()


def _accumulate(t: Tensor | _Node | None, g: np.ndarray) -> None:
    """Add ``g`` to the gradient of ``t``'s record; None, or a Tensor with none, takes nothing."""
    r = None if t is None else t._record
    if r is None:
        return
    r.grad = g if r.grad is None else r.grad + g


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
    """``a + b``; the sum can be rebuilt when both terms can."""
    out = a.data + b.data
    ra, rb, a_shape, b_shape = a._record, b._record, a.shape, b.shape
    ka, kb = a._recompute, b._recompute

    def bw(g):
        if ra is not None:
            _accumulate(ra, _unbroadcast(g, a_shape))
        if rb is not None:
            _accumulate(rb, _unbroadcast(g, b_shape))

    recompute = None if ka is None or kb is None else lambda: _rebuilt(ka) + _rebuilt(kb)
    return _node(out, (a, b), bw, "add", recompute=recompute)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    ra, rb, a_shape, b_shape = a._record, b._record, a.shape, b.shape

    def bw(g):
        if ra is not None:
            _accumulate(ra, _unbroadcast(g, a_shape))
        if rb is not None:
            _accumulate(rb, -_unbroadcast(g, b_shape))

    return _node(out, (a, b), bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ra, rb, ka, kb, a_shape, b_shape = a._record, b._record, _kept(a), _kept(b), a.shape, b.shape

    def bw(g):
        if ra is not None:
            _accumulate(ra, _unbroadcast(g * _rebuilt(kb), a_shape))
        if rb is not None:
            _accumulate(rb, _unbroadcast(g * _rebuilt(ka), b_shape))

    return _node(out, (a, b), bw, "mul", recompute=lambda: _rebuilt(ka) * _rebuilt(kb))


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s
    ra = a._record

    def bw(g):
        _accumulate(ra, g * s)

    return _node(out, (a,), bw, "scale")


def abs_(a: Tensor) -> Tensor:
    """Elementwise |x|; the subgradient at exact zero is taken as 0."""
    out = np.abs(a.data)
    ra, ka = a._record, _kept(a)

    def bw(g):
        _accumulate(ra, g * np.sign(_rebuilt(ka)))

    return _node(out, (a,), bw, "abs_")


def mean_all(a: Tensor) -> Tensor:
    """Mean of each sample's last three axes (of every axis when there are at most three)."""
    shape, dtype = a.shape, a.dtype
    lead = shape[:-3]
    axes = tuple(range(len(lead), len(shape)))
    out = a.data.mean(axis=axes, dtype=np.float64).astype(dtype)
    n = math.prod(shape[len(lead) :])
    keep = lead + (1,) * len(axes)
    ra = a._record

    def bw(g):
        _accumulate(ra, np.broadcast_to((g / n).reshape(keep), shape).astype(dtype))

    return _node(out, (a,), bw, "mean_all")


def sum_in_order(a: Tensor) -> Tensor:
    """Sum of all elements, added one after another in index order.

    A batch's per-sample losses summed this way equal the same losses joined
    by a chain of ``add``.
    """
    out = _sum_batch(a.data.reshape(-1), 0)
    ra, shape = a._record, a.shape

    def bw(g):
        _accumulate(ra, np.broadcast_to(g, shape))

    return _node(out, (a,), bw, "sum_in_order")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes are a batch."""
    out = a.data @ b.data
    ra, rb, ka, kb, a_shape, b_shape = a._record, b._record, _kept(a), _kept(b), a.shape, b.shape

    def bw(g):
        if ra is not None:
            _accumulate(ra, _unbroadcast(g @ np.swapaxes(_rebuilt(kb), -1, -2), a_shape))
        if rb is not None:
            _accumulate(rb, _unbroadcast(np.swapaxes(_rebuilt(ka), -1, -2) @ g, b_shape))

    return _node(out, (a, b), bw, "matmul")


def transpose2d(a: Tensor) -> Tensor:
    out = a.data.T.copy()
    ra = a._record

    def bw(g):
        _accumulate(ra, g.T)

    return _node(out, (a,), bw, "transpose2d")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` over the last axis, as one node; axes before the last two are a batch.

    ``w`` is (out, in), with any trailing size-1 axes (a 1x1 conv weight).
    Bit for bit ``add(matmul(x, transpose2d(w)), reshape(b, (1, out)))``: the
    weight gradient sums the per-sample ``g.T @ x`` in index order, which is
    C-contiguous and has the bits of the chain's transposed ``x.T @ g``, and the
    bias gradient sums within each sample first. The backward keeps ``x`` and
    the weight itself, not a transposed copy; the output is rebuilt by the same
    GEMM. The observer sees a "matmul".
    """
    m, k = w.shape[0], x.shape[-1]
    if x.data.ndim < 2 or tuple(w.shape) != (m, k) + (1,) * (w.data.ndim - 2) or tuple(b.shape) != (m,):
        raise ConfigurationError(
            f"linear expects x (..., n, in), w (out, in) and b (out,), got {x.shape}, {w.shape}, {b.shape}"
        )
    w2, bd = w.data.reshape(m, k), b.data
    out = x.data @ w2.T + bd
    rx, rw, rb, kx, w_shape = x._record, w._record, b._record, _kept(x), w.shape

    def bw(g):
        if rx is not None:
            _accumulate(rx, g @ w2)
        if rw is not None:
            _accumulate(rw, _sum_batch(np.swapaxes(g, -1, -2) @ _rebuilt(kx), 2).reshape(w_shape))
        if rb is not None:
            _accumulate(rb, _unbroadcast(g, (1, m)).reshape(m))

    return _node(out, (x, w, b), bw, "matmul", recompute=lambda: _rebuilt(kx) @ w2.T + bd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    ra, a_shape = a._record, a.shape

    def bw(g):
        _accumulate(ra, g.reshape(a_shape))

    return _node(out, (a,), bw, "reshape")


def concat_channels(parts: Iterable[Tensor]) -> Tensor:
    parts = tuple(parts)
    out = np.concatenate([p.data for p in parts], axis=-3)
    offsets = np.cumsum([0] + [p.shape[-3] for p in parts])
    records = [p._record for p in parts]

    def bw(g):
        for r, lo, hi in zip(records, offsets[:-1], offsets[1:]):
            _accumulate(r, g[..., lo:hi, :, :])

    return _node(out, parts, bw, "concat_channels")


def slice_channels(a: Tensor, start: int, stop: int) -> Tensor:
    out = a.data[..., start:stop, :, :]
    ra, shape = a._record, a.shape

    def bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[..., start:stop, :, :] = g
        _accumulate(ra, full)

    return _node(out, (a,), bw, "slice_channels")


def roll2d(a: Tensor, shift_h: int, shift_w: int) -> Tensor:
    """Circular shift along the last two axes."""
    out = np.roll(a.data, (shift_h, shift_w), axis=(-2, -1))
    ra = a._record

    def bw(g):
        _accumulate(ra, np.roll(g, (-shift_h, -shift_w), axis=(-2, -1)))

    return _node(out, (a,), bw, "roll2d")


# ---------------------------------------------------------------------------
# neural primitives


def conv2d(x: Tensor, spec: ConvSpec, weight: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation of a CxHxW input or a batch of them, dense or depthwise.

    Odd kernels get zero padding (k-1)/2 so spatial size maps H -> H/stride;
    even kernels are unpadded (the 2x2/stride-2 downsampling case).

    One of two kernels computes it, chosen by ``spec``:

    - groups 1, any kernel size and stride: a GEMM of the weight and the
      stack of the kh*kw strided taps (1 for a 1x1, 4 for the 2x2/stride-2
      Down, 9 for a full 3x3), gathered in float64 a bounded block at a time
      (a few output rows of one sample, or whole samples while they fit), so
      its memory does not grow with the batch; the backward goes tap by tap;
    - depthwise 3x3, stride 1: nine shifted multiply-adds over blocks of
      zero-padded channel rows.

    Any other grouped spec raises ConfigurationError. Both sum the output and
    the weight gradient in float64 and cast back to the input dtype; the input
    gradient sums in the input dtype. Against the einsum oracle of the tests,
    on float32 the output and the weight gradient are equal bit for bit, and
    so is the input gradient of every preset conv, of the depthwise kind and
    of the 1x1 kind on one sample; elsewhere it may differ by a few ulps, as
    einsum's own float32 loop order changes with the shape. On float64 the
    depthwise and the dense 2x2 and 3x3 kinds differ by a few ulps. The
    backward keeps only the input (or its recompute function) and the weight
    alive, and hands the kernel the input again for the weight gradient.
    A 1x1 conv at stride 1 gives its output a recompute function that runs
    the same GEMM again on that input, with the same weight and bias.
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
    if tuple(bias.shape) != (spec.out_channels,):
        raise ConfigurationError(f"bias shape {tuple(bias.shape)} != ({spec.out_channels},)")
    if h % spec.stride or w % spec.stride:
        raise ConfigurationError(f"spatial dims {h}x{w} not divisible by stride {spec.stride}")

    kernel, wd, bd = _conv_kernel(spec), weight.data, bias.data

    def run(xd):
        out, grads = kernel(xd.reshape(-1, c_in, h, w), spec, wd)
        out = out.astype(np.result_type(xd, wd), copy=False)
        out += bd[:, None, None]
        return out.reshape(lead + out.shape[1:]), grads

    out, grads = run(x.data)
    rx, rw, rb = x._record, weight._record, bias._record
    kx, x_shape, w_shape = _kept(x), x.shape, weight.shape

    def bw(g):
        g = g.reshape((-1,) + g.shape[-3:])
        xd = None if rw is None else _rebuilt(kx).reshape(-1, c_in, h, w)
        dw, dx = grads(g, xd, rx is not None)
        if dw is not None:
            dw = dw.reshape((-1,) + w_shape).astype(g.dtype)
            _accumulate(rw, _sum_batch(dw, len(w_shape)))
        if dx is not None:
            _accumulate(rx, dx.reshape(x_shape))
        if rb is not None:
            _accumulate(rb, _sum_batch(g.sum(axis=(-2, -1)), 1))

    one_by_one = spec.kernel_h == spec.kernel_w == spec.stride == 1
    recompute = (lambda: run(_rebuilt(kx))[0]) if one_by_one else None
    return _node(out, (x, weight, bias), bw, "conv2d", spec, recompute)


def _conv_kernel(spec: ConvSpec):
    """The kernel for ``spec``: (NxCxHxW input, spec, weight) arrays -> (output, grads).

    The output is a new array, summed in float64 and returned in float64 or
    already cast to the result dtype. ``grads(g, xd, need_x)`` returns
    ``(dw, dx)``: dw float64 with one weight-sized block per sample, computed
    when ``xd`` is the forward's input again (None when dw is not needed), and
    dx with the input's shape and dtype when ``need_x``; None where not
    computed. ``grads`` keeps no reference to the forward's input.
    """
    # Depthwise first: with one channel it has groups 1 as well.
    if (spec.stride == 1 and spec.kernel_h == spec.kernel_w == 3
            and spec.groups == spec.in_channels == spec.out_channels):
        return _conv_depthwise3
    if spec.groups == 1:
        return _conv_dense
    raise ConfigurationError(f"{spec}: a grouped conv must be depthwise 3x3 at stride 1")


# Elements of one block of a dense conv's float64 tap stack, whatever the batch:
# some output rows of one sample, or as many whole samples as fit (2 MiB).
_DENSE_BLOCK = 1 << 18


def _conv_dense(xd: np.ndarray, spec: ConvSpec, wd: np.ndarray):
    """Groups 1: per sample, one GEMM of the weight and the stack of its kh*kw strided taps.

    Tap (u, v) is every stride-th pixel from (u, v) on of the input zero-padded
    by (k-1)//2. The stack holds their C_in*kh*kw rows in the weight's (i, u, v)
    order; a 1x1 at stride 1 is its own stack. Any other kernel gathers the
    stack in float64 block by block, ``_DENSE_BLOCK`` elements at most (whole
    samples while they fit, else a few output rows of one sample), and writes
    each block's columns of the float64 output. The backward takes one group of
    samples at a time, within the same budget: dw is, tap by tap, the gradient
    times that tap of the input handed back, in float64, and dx adds the tap's
    transposed weight times the gradient, in its dtype, into a zero-padded buffer.
    """
    kh, kw, s = spec.kernel_h, spec.kernel_w, spec.stride
    n, c_in, h, w = xd.shape
    c_out, x_dtype = spec.out_channels, xd.dtype
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    h_out, w_out = (h + 2 * ph - kh) // s + 1, (w + 2 * pw - kw) // s + 1
    w2 = wd.reshape(c_out, -1)
    if kh == kw == s == 1:
        out = np.matmul(w2, xd.reshape(n, c_in, h * w), dtype=np.float64)

        def grads(g, xd, need_x):
            g2 = g.reshape(n, c_out, h * w)
            dw = None if xd is None else np.matmul(g2, xd.reshape(n, c_in, h * w).transpose(0, 2, 1),
                                                   dtype=np.float64)
            dx = (w2.T @ g2).reshape(n, c_in, h, w).astype(x_dtype, copy=False) if need_x else None
            return dw, dx

        return out.reshape(n, c_out, h, w), grads

    taps = [(u, v) for u in range(kh) for v in range(kw)]

    def groups(size):  # slices of at most ``size`` samples
        return [slice(i, i + size) for i in range(0, n, size)]

    def padded(xd, samples):
        return np.pad(xd[samples], ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else xd[samples]

    def tap(xp, u, v, y0=0, y1=h_out):  # tap (u, v) of output rows y0 to y1
        return xp[:, :, u + s * y0 : u + s * y1 : s, v : v + s * w_out : s]

    def stack(xp, taps, y0=0, y1=h_out):  # float64, one (C_in*len(taps)) x columns matrix per sample
        columns = np.stack([tap(xp, u, v, y0, y1) for u, v in taps], axis=2, dtype=np.float64)
        return columns.reshape(len(xp), -1, (y1 - y0) * w_out)

    depth = c_in * len(taps)  # rows of the stack
    rows = max(1, min(h_out, _DENSE_BLOCK // (depth * w_out)))  # output rows of a block
    out = np.empty((n, c_out, h_out, w_out))
    for samples in groups(max(1, _DENSE_BLOCK // (depth * h_out * w_out))):
        xp = padded(xd, samples)
        for y0 in range(0, h_out, rows):
            y1 = min(y0 + rows, h_out)
            block = np.matmul(w2, stack(xp, taps, y0, y1), dtype=np.float64)
            out[samples, :, y0:y1] = block.reshape(len(xp), c_out, y1 - y0, w_out)

    by_sample = groups(max(1, _DENSE_BLOCK // (c_in * h_out * w_out)))  # one tap of a group in float64

    def weight_grad(g, xd):
        dw = np.empty((n, c_out, c_in, len(taps)))
        for samples in by_sample:
            xp, g64 = padded(xd, samples), g[samples].astype(np.float64, copy=False)
            for k in range(len(taps)):
                dw[samples, :, :, k] = np.matmul(g64, stack(xp, taps[k : k + 1]).transpose(0, 2, 1))
        return dw.reshape(n, c_out, -1)

    def input_grad(g):
        dxp = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), x_dtype)
        w_taps = wd.reshape(c_out, c_in, len(taps)).transpose(2, 0, 1).copy()  # (tap, out, in)
        for samples in by_sample:
            for k, (u, v) in enumerate(taps):
                tap(dxp[samples], u, v)[...] += (w_taps[k].T @ g[samples]).reshape(-1, c_in, h_out, w_out)
        return dxp[:, :, ph : ph + h, pw : pw + w]

    def grads(g, xd, need_x):
        g = g.reshape(n, c_out, h_out * w_out)
        return (None if xd is None else weight_grad(g, xd)), (input_grad(g) if need_x else None)

    return out, grads


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

    The backward keeps only the weight alive: it pads the input handed back
    block by block and tiles the weight per row when it runs.
    """
    n, c, h, w = xd.shape
    rows, x_dtype = (n * c, h, w), xd.dtype  # one HxW row per (sample, channel)
    offsets = [u * (w + 2) + v for u in range(3) for v in range(3)]
    out = np.empty((n, c, h, w), np.result_type(xd, wd))
    _correlate3(xd.reshape(rows), np.tile(wd.reshape(c, 9).astype(np.float64), (n, 1)), offsets,
                out.reshape(rows))

    def grads(g, xd, need_x):
        dw = dx = None
        g_rows = g.reshape(rows)
        if xd is not None:
            dw = np.empty((n * c, 9))
            for block, xp, shifted, g64 in _padded_blocks(xd.reshape(rows), np.float64, (h * w, h * w)):
                g64.reshape(-1, h, w)[...] = g_rows[block]
                for k, start in enumerate(offsets):
                    tap = xp[:, start : start + h * (w + 2)].reshape(-1, h, w + 2)[:, :, :w]
                    shifted.reshape(-1, h, w)[...] = tap
                    dw[block, k] = np.matmul(shifted[:, None, :], g64[:, :, None])[:, 0, 0]
            dw = dw.reshape(n, c, 9)
        if need_x:
            dx = np.empty((n, c, h, w), x_dtype)
            w9 = np.tile(wd.reshape(c, 9), (n, 1))
            _correlate3(g_rows, w9, [offsets[-1] - start for start in offsets], dx.reshape(rows))
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


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each spatial position across channels (biased variance, eps 1e-5), then affine.

    The backward keeps the normalized input, from which the output is rebuilt.
    """
    c = x.shape[-3]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(
            f"gamma/beta must have length {c}, got {tuple(gamma.shape)}/{tuple(beta.shape)}"
        )
    mu = x.data.mean(axis=-3, keepdims=True)
    centered = x.data - mu
    var = np.square(centered).mean(axis=-3, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    gamma3, beta3 = gamma.data[:, None, None], beta.data[:, None, None]
    rx, rg, rb = x._record, gamma._record, beta._record

    def affine():
        return gamma3 * xhat + beta3

    def bw(g):
        if rb is not None:
            _accumulate(rb, _sum_batch(g.sum(axis=(-2, -1)), 1))
        if rg is not None:
            _accumulate(rg, _sum_batch((g * xhat).sum(axis=(-2, -1)), 1))
        if rx is not None:
            dxhat = g * gamma3
            mean_dxhat = dxhat.mean(axis=-3, keepdims=True)
            mean_dxhat_xhat = (dxhat * xhat).mean(axis=-3, keepdims=True)
            dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
            _accumulate(rx, dx)

    return _node(affine(), (x, gamma, beta), bw, "layer_norm_channels", recompute=affine)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gaussian_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit x * Phi(x) (erf form, no tanh approximation).

    The backward keeps only the input and computes Phi(x) again.
    """
    rx, kx = x._record, _kept(x)

    def bw(g):
        xd = _rebuilt(kx)
        pdf = np.exp(-0.5 * np.square(xd)) * _INV_SQRT_2PI
        _accumulate(rx, g * (_gaussian_cdf(xd) + xd * pdf))

    return _node(_gelu(x.data), (x,), bw, "gelu")


def _gelu(xd: np.ndarray) -> np.ndarray:
    """GELU of an array, in its dtype."""
    return (xd * _gaussian_cdf(xd)).astype(xd.dtype, copy=False)


def gelu_mul(a: Tensor, b: Tensor) -> Tensor:
    """``gelu(a) * b`` as one node, bit for bit ``mul(gelu(a), b)``.

    The backward keeps only ``a`` and ``b``, and computes gelu(a) and Phi(a)
    again; the output is rebuilt from them.
    """
    ra, rb, ka, kb, a_shape, b_shape = a._record, b._record, _kept(a), _kept(b), a.shape, b.shape

    def bw(g):
        ad, bd = _rebuilt(ka), _rebuilt(kb)
        cdf = _gaussian_cdf(ad)
        if ra is not None:
            pdf = np.exp(-0.5 * np.square(ad)) * _INV_SQRT_2PI
            _accumulate(ra, _unbroadcast(g * bd, a_shape) * (cdf + ad * pdf))
        if rb is not None:
            _accumulate(rb, _unbroadcast(g * (ad * cdf).astype(ad.dtype, copy=False), b_shape))

    return _node(_gelu(a.data) * b.data, (a, b), bw, "gelu_mul",
                 recompute=lambda: _gelu(_rebuilt(ka)) * _rebuilt(kb))


def simple_gate(x: Tensor) -> Tensor:
    """Split channels in half and multiply the halves elementwise."""
    c = x.shape[-3]
    if c % 2:
        raise ConfigurationError(f"simple_gate needs an even channel count, got {c}")
    half = c // 2
    rx, kx = x._record, _kept(x)

    def halves(xd):
        return xd[..., :half, :, :], xd[..., half:, :, :]

    def bw(g):
        first, second = halves(_rebuilt(kx))
        _accumulate(rx, np.concatenate([g * second, g * first], axis=-3))

    return _node(np.multiply(*halves(x.data)), (x,), bw, "simple_gate",
                 recompute=lambda: np.multiply(*halves(_rebuilt(kx))))


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel mean over all spatial positions, kept as Cx1x1."""
    h, w = x.shape[-2:]
    out = x.data.mean(axis=(-2, -1), keepdims=True, dtype=np.float64).astype(x.dtype)
    rx, shape = x._record, x.shape

    def bw(g):
        _accumulate(rx, np.broadcast_to(g / (h * w), shape).astype(g.dtype))

    return _node(out, (x,), bw, "global_avg_pool")


def depth_to_space(x: Tensor) -> Tensor:
    """Rearrange (4C)xHxW into Cx(2H)x(2W); channel blocks fill each 2x2 cell row-major."""
    lead = x.shape[:-3]
    c_in, h, w = x.shape[-3:]
    r = 2
    if c_in % (r * r):
        raise ConfigurationError(f"depth_to_space needs channels divisible by {r * r}, got {c_in}")
    c_out = c_in // (r * r)
    out = (
        x.data.reshape(-1, c_out, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(lead + (c_out, h * r, w * r))
    )

    rx, shape = x._record, x.shape

    def bw(g):
        dg = (
            g.reshape(-1, c_out, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(shape)
        )
        _accumulate(rx, dg)

    return _node(np.ascontiguousarray(out), (x,), bw, "depth_to_space")


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0
