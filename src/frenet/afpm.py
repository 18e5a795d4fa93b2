"""Adaptive frequency positional modulation.

The centered spectrum is tiled into a grid of non-overlapping patches. Each
patch's normalized center distance drives two tiny two-layer generators that
emit a patch-shaped aggregation kernel and a scalar bias; the aggregated
per-channel value is projected by a 1x1 convolution into a modulation factor
that rescales the patch. Kernels and biases depend only on the patch's
spectral position, never on its content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ConfigurationError,
    Tensor,
    _accumulate,
    _kept,
    _node,
    _rebuilt,
    _unbroadcast,
    add,
    gelu,
    linear,
    parameter,
)

KBG_HIDDEN = 16


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """Exact tiling of an HxW map into rows x cols patches with center distances."""

    rows: int
    cols: int
    patch_h: int
    patch_w: int
    distances: np.ndarray  # (rows, cols) float32 in [0, 1]

    @property
    def height(self) -> int:
        return self.rows * self.patch_h

    @property
    def width(self) -> int:
        return self.cols * self.patch_w


def make_patch_grid(h: int, w: int, target: int = 8) -> PatchGrid:
    """Largest power-of-two grid g x g with g <= target that tiles the map exactly.

    Small maps fall back to a coarser granularity (g bounded by the map size).
    The distance of patch (i, j) is the Euclidean distance from the patch
    center ((i+0.5)p_h, (j+0.5)p_w) to the map center (H/2, W/2), normalized by
    the center-to-corner distance so all values lie in [0, 1].
    """
    if h < 1 or w < 1 or target < 1:
        raise ConfigurationError(f"invalid grid request h={h} w={w} target={target}")
    g = 1
    while g * 2 <= target and h % (g * 2) == 0 and w % (g * 2) == 0:
        g *= 2
    p_h, p_w = h // g, w // g

    # Offsets use integer numerators (2i+1)*p - H so point-reflected patches
    # get bit-identical distances.
    dist = np.empty((g, g), dtype=np.float32)
    norm = math.sqrt(h * h + w * w)
    for i in range(g):
        dy = (2 * i + 1) * p_h - h
        for j in range(g):
            dx = (2 * j + 1) * p_w - w
            dist[i, j] = np.float32(math.sqrt(dy * dy + dx * dx) / norm)
    return PatchGrid(rows=g, cols=g, patch_h=p_h, patch_w=p_w, distances=dist)


class KernelBiasGenerator:
    """Two linear layers with a GELU on the KBG_HIDDEN units in between, mapping a distance
    to out_dim values."""

    def __init__(self, prefix: str, out_dim: int):
        self.w1 = parameter(f"{prefix}.w1", (KBG_HIDDEN, 1), bound=1.0)
        self.b1 = parameter(f"{prefix}.b1", (KBG_HIDDEN,))
        self.w2 = parameter(f"{prefix}.w2", (out_dim, KBG_HIDDEN), bound=1.0 / math.sqrt(KBG_HIDDEN))
        self.b2 = parameter(f"{prefix}.b2", (out_dim,))

    def __call__(self, distances: np.ndarray) -> Tensor:
        """Evaluate the generator for an array of distances; returns distances.shape + (out_dim,)."""
        d = Tensor(np.asarray(distances, dtype=self.w1.dtype)[..., None])
        return linear(gelu(linear(d, self.w1, self.b1)), self.w2, self.b2)


def _check_tiling(x: Tensor, grid: PatchGrid) -> None:
    h, w = x.shape[-2:]
    if grid.height != h or grid.width != w:
        raise ConfigurationError(
            f"grid {grid.rows}x{grid.cols} of {grid.patch_h}x{grid.patch_w} patches "
            f"tiles {grid.height}x{grid.width}, not {h}x{w}"
        )


def patch_weighted_sum(x: Tensor, kernels: Tensor, grid: PatchGrid) -> Tensor:
    """Per patch and channel, sum the patch weighted by its shared kernel.

    ``kernels`` is (rows*cols, patch_h*patch_w), with or without the batch
    axes of ``x``; the result is (rows*cols, C) per sample.
    """
    _check_tiling(x, grid)
    lead, c = x.shape[:-3], x.shape[-3]
    m, n, ph, pw = grid.rows, grid.cols, grid.patch_h, grid.patch_w
    if tuple(kernels.shape) not in ((m * n, ph * pw), lead + (m * n, ph * pw)):
        raise ConfigurationError(
            f"kernel stack shape {tuple(kernels.shape)} != ({m * n}, {ph * pw}) per sample"
        )
    kview_shape = kernels.shape[:-2] + (m, n, ph, pw)
    patches = x.data.reshape(lead + (c, m, ph, n, pw))
    out = np.einsum("...cipjq,...ijpq->...ijc", patches, kernels.data.reshape(kview_shape),
                    optimize=True).reshape(lead + (m * n, c))
    rx, rk, kx, kk = x._record, kernels._record, _kept(x), _kept(kernels)
    x_shape, k_shape = x.shape, kernels.shape

    def bw(g):
        gv = g.reshape(lead + (m, n, c))
        if rk is not None:
            # One einsum per sample: over a batch, einsum may sum C in another
            # order (it does for 1x1 patches), and the bits would change.
            dk = np.stack([
                np.einsum("cipjq,ijc->ijpq", xs, gs, optimize=True)
                for xs, gs in zip(_rebuilt(kx).reshape((-1, c, m, ph, n, pw)), gv.reshape(-1, m, n, c))
            ])
            _accumulate(rk, _unbroadcast(dk.reshape(lead + (m * n, ph * pw)), k_shape))
        if rx is not None:
            dx = np.einsum("...ijpq,...ijc->...cipjq", _rebuilt(kk).reshape(kview_shape), gv, optimize=True)
            _accumulate(rx, dx.reshape(x_shape))

    return _node(np.ascontiguousarray(out), (x, kernels), bw, "patch_weighted_sum")


def patch_scale(x: Tensor, factors: Tensor, grid: PatchGrid) -> Tensor:
    """Multiply each patch by its per-channel modulation factor, (rows*cols, C) per sample.

    The output is rebuilt from the input and the factors, which the backward keeps.
    """
    _check_tiling(x, grid)
    lead, c = x.shape[:-3], x.shape[-3]
    m, n, ph, pw = grid.rows, grid.cols, grid.patch_h, grid.patch_w
    if tuple(factors.shape) != lead + (m * n, c):
        raise ConfigurationError(f"factor shape {tuple(factors.shape)} != ({m * n}, {c}) per sample")
    patch_shape = lead + (c, m, ph, n, pw)
    rx, rf, kx, kf = x._record, factors._record, _kept(x), _kept(factors)
    x_shape, f_shape = x.shape, factors.shape

    def fview(fd):  # each factor broadcast over its patch
        return np.moveaxis(fd.reshape(lead + (m, n, c)), -1, -3)[..., None, :, None]

    def scaled(xd, fd):
        return np.ascontiguousarray((xd.reshape(patch_shape) * fview(fd)).reshape(x_shape))

    def bw(g):
        gp = g.reshape(patch_shape)
        if rf is not None:
            df = np.einsum("...cipjq,...cipjq->...ijc", gp, _rebuilt(kx).reshape(patch_shape), optimize=True)
            _accumulate(rf, df.reshape(f_shape))
        if rx is not None:
            _accumulate(rx, (gp * fview(_rebuilt(kf))).reshape(x_shape))

    return _node(scaled(x.data, factors.data), (x, factors), bw, "patch_scale",
                 recompute=lambda: scaled(_rebuilt(kx), _rebuilt(kf)))


class Afpm:
    """Position-conditioned spectral patch modulation (the adaptive local branch).

    ``channels`` is the feature count of the map being modulated; the kernel
    generator's output size is fixed by the patch shape, so one Afpm instance
    serves exactly one map geometry. With ``adaptive=False`` the generators are
    not built and the aggregation degrades to fixed per-patch average pooling.
    """

    def __init__(self, prefix: str, channels: int, grid: PatchGrid, adaptive: bool = True):
        self.grid = grid
        self.adaptive = adaptive
        patch_len = grid.patch_h * grid.patch_w
        self.kernel_kbg = None
        self.bias_kbg = None
        if adaptive:
            self.kernel_kbg = KernelBiasGenerator(f"{prefix}.kernel_kbg", out_dim=patch_len)
            self.bias_kbg = KernelBiasGenerator(f"{prefix}.bias_kbg", out_dim=1)
        self.proj_weight = parameter(f"{prefix}.proj.weight", (channels, channels, 1, 1),
                                     bound=1.0 / math.sqrt(channels))
        self.proj_bias = parameter(f"{prefix}.proj.bias", (channels,))

    def _project(self, aggregated: Tensor) -> Tensor:
        # The 1x1 projection acts on Cx1x1 vectors; over the patch batch that
        # is exactly an affine map with the (C, C) weight plane.
        return linear(aggregated, self.proj_weight, self.proj_bias)

    def __call__(self, x: Tensor) -> Tensor:
        if not self.adaptive:
            return self.pooling_variant(x)
        grid = self.grid
        # One generator evaluation per sample, as each sample's generator
        # gradient is its own; kernels and biases are the same for every sample.
        distances = np.broadcast_to(grid.distances.reshape(-1), x.shape[:-3] + (grid.rows * grid.cols,))
        kernels = self.kernel_kbg(distances)
        biases = self.bias_kbg(distances)
        aggregated = add(patch_weighted_sum(x, kernels, grid), biases)
        return patch_scale(x, self._project(aggregated), grid)

    def pooling_variant(self, x: Tensor) -> Tensor:
        """Ablation: fixed per-patch average pooling instead of kernel/bias aggregation."""
        grid = self.grid
        mn = grid.rows * grid.cols
        plen = grid.patch_h * grid.patch_w
        averaging = Tensor(np.full((mn, plen), 1.0 / plen, dtype=x.dtype))
        aggregated = patch_weighted_sum(x, averaging, grid)
        return patch_scale(x, self._project(aggregated), grid)
