"""2-D Fourier transforms with centered spectra and real/imag channel packing.

Transforms are orthonormal (forward and inverse each scaled by 1/sqrt(H*W)) so
Parseval holds without extra factors. Spatial dims must be powers of two; the
network config guarantees this. Transforms act on the last two axes; any axes
before CxHxW are a batch. Complex values are carried as a pair of real
tensors so the whole pipeline stays inside the real-valued autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .tensor import (
    ConfigurationError,
    Tensor,
    _accumulate,
    _node,
    concat_channels,
    is_power_of_two,
    roll2d,
    slice_channels,
)


@dataclass
class ComplexTensor:
    """A centered 2-D spectrum stored as separate real and imaginary planes."""

    re: Tensor
    im: Tensor

    def __post_init__(self):
        if self.re.shape != self.im.shape:
            raise ConfigurationError(
                f"re/im shapes differ: {tuple(self.re.shape)} vs {tuple(self.im.shape)}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.re.shape


def _check_pow2(h: int, w: int, op: str) -> None:
    if not (is_power_of_two(h) and is_power_of_two(w)):
        raise ConfigurationError(f"{op} requires power-of-two spatial dims, got {h}x{w}")


def fft2d(x: Tensor) -> ComplexTensor:
    """Per-channel orthonormal 2-D DFT of a real CxHxW tensor (or a batch), DC at index (0,0)."""
    if x.data.ndim < 3:
        raise ConfigurationError(f"fft2d expects CxHxW input or a batch of them, got shape {x.shape}")
    h, w = x.shape[-2:]
    _check_pow2(h, w, "fft2d")
    spec = scipy.fft.fft2(x.data, axes=(-2, -1), norm="ortho")
    re_data = np.ascontiguousarray(spec.real)
    im_data = np.ascontiguousarray(spec.imag)
    rx = x._record

    def bw_re(g):
        _accumulate(rx, scipy.fft.ifft2(g, axes=(-2, -1), norm="ortho").real.astype(g.dtype))

    def bw_im(g):
        _accumulate(rx, -scipy.fft.ifft2(g, axes=(-2, -1), norm="ortho").imag.astype(g.dtype))

    # the imaginary part has a name of its own, so that "fft2d" counts each transform once
    return ComplexTensor(_node(re_data, (x,), bw_re, "fft2d"), _node(im_data, (x,), bw_im, "fft2d_imag"))


def ifft2d(spectrum: ComplexTensor) -> Tensor:
    """Orthonormal inverse transform; returns the real part of the result.

    That real part is the inverse of the spectrum's Hermitian part,
    ``(F(k) + conj F(-k)) / 2``; the rest, which the dropped imaginary part
    carries, is lost. Only for the spectrum of a real image round-tripped
    through this module is that rest numerical noise. A processed spectrum,
    such as a FACM's output, is not Hermitian, and its rest need not be small.
    """
    h, w = spectrum.shape[-2:]
    _check_pow2(h, w, "ifft2d")
    re, im = spectrum.re, spectrum.im
    full = scipy.fft.ifft2(re.data + 1j * im.data, axes=(-2, -1), norm="ortho")
    out = np.ascontiguousarray(full.real)
    r_re, r_im = re._record, im._record

    def bw(g):
        forward = scipy.fft.fft2(g, axes=(-2, -1), norm="ortho")
        _accumulate(r_re, np.ascontiguousarray(forward.real).astype(g.dtype))
        _accumulate(r_im, np.ascontiguousarray(forward.imag).astype(g.dtype))

    return _node(out, (re, im), bw, "ifft2d")


def fft_shift(spectrum: ComplexTensor, inverse: bool = False) -> ComplexTensor:
    """Circularly shift the zero-frequency bin to (from) the spectrum center.

    Forward shifts by (H//2, W//2); inverse by the ceiling halves, so the two
    coincide and the op is an involution on even dims.
    """
    h, w = spectrum.shape[-2:]
    sh, sw = h // 2, w // 2
    if inverse:
        sh, sw = -sh, -sw
    return ComplexTensor(roll2d(spectrum.re, sh, sw), roll2d(spectrum.im, sh, sw))


def complex_to_channels(spectrum: ComplexTensor) -> Tensor:
    """Stack the real plane over the imaginary plane along the channel axis."""
    return concat_channels((spectrum.re, spectrum.im))


def channels_to_complex(x: Tensor) -> ComplexTensor:
    """Inverse of complex_to_channels: first half of channels -> re, second -> im."""
    c = x.shape[-3]
    if c % 2:
        raise ConfigurationError(f"channels_to_complex needs an even channel count, got {c}")
    half = c // 2
    return ComplexTensor(slice_channels(x, 0, half), slice_channels(x, half, c))

