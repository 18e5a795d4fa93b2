import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from frenet.spectral import (
    ComplexTensor,
    channels_to_complex,
    complex_to_channels,
    fft2d,
    fft_shift,
    ifft2d,
)
from frenet.tensor import ConfigurationError, Tensor


def dft2_naive(plane):
    """O(N^2) orthonormal DFT summation, the independent oracle."""
    h, w = plane.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for k in range(h):
        for l in range(w):
            acc = 0.0 + 0.0j
            for m in range(h):
                for n in range(w):
                    acc += plane[m, n] * np.exp(-2j * np.pi * (k * m / h + l * n / w))
            out[k, l] = acc
    return out / math.sqrt(h * w)


class TestFft2d:
    def test_constant_signal_concentrates_at_dc(self):
        out = fft2d(Tensor(np.ones((1, 2, 2), dtype=np.float32)))
        assert abs(out.re.data[0, 0, 0] - 2.0) < 1e-6
        rest = out.re.data.copy()
        rest[0, 0, 0] = 0.0
        assert np.abs(rest).max() < 1e-6
        assert np.abs(out.im.data).max() < 1e-6

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros((1, 4, 4), dtype=np.float32)
        x[0, 0, 0] = 1.0
        out = fft2d(Tensor(x))
        assert np.abs(out.re.data - 0.25).max() < 1e-6
        assert np.abs(out.im.data).max() < 1e-6

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        out = fft2d(Tensor(x))
        for c in range(2):
            want = dft2_naive(x[c].astype(np.float64))
            assert np.abs(out.re.data[c] - want.real).max() < 1e-4
            assert np.abs(out.im.data[c] - want.imag).max() < 1e-4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            fft2d(Tensor(np.zeros((1, 6, 8))))

    def test_hermitian_symmetry_for_real_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 8, 8)).astype(np.float32)
        spectrum = fft2d(Tensor(x))
        z = (spectrum.re.data + 1j * spectrum.im.data)[0]
        h, w = z.shape
        for k in range(h):
            for l in range(w):
                assert abs(z[k, l] - np.conj(z[(h - k) % h, (w - l) % w])) < 1e-4


class TestIfft2d:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 16, 16)).astype(np.float32)
        back = ifft2d(fft2d(Tensor(x)))
        assert np.abs(back.data - x).max() < 1e-5

    def test_zero_spectrum(self):
        zero = ComplexTensor(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 4, 4))))
        assert np.abs(ifft2d(zero).data).max() == 0.0

    def test_dc_only_spectrum_gives_constant_image(self):
        re = np.zeros((1, 2, 2), dtype=np.float32)
        re[0, 0, 0] = 2.0
        out = ifft2d(ComplexTensor(Tensor(re), Tensor(np.zeros((1, 2, 2)))))
        assert np.abs(out.data - 1.0).max() < 1e-6

    def test_imag_residual_small_for_pipeline_spectra(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 16, 16)).astype(np.float32)
        spectrum = fft_shift(fft_shift(fft2d(Tensor(x))), inverse=True)
        full = scipy.fft.ifft2(spectrum.re.data + 1j * spectrum.im.data, axes=(-2, -1), norm="ortho")
        assert np.abs(full.imag).max() < 1e-4


class TestFftShift:
    def test_impulse_moves_to_center(self):
        re = np.zeros((1, 4, 4), dtype=np.float32)
        re[0, 0, 0] = 1.0
        shifted = fft_shift(ComplexTensor(Tensor(re), Tensor(np.zeros_like(re))))
        assert shifted.re.data[0, 2, 2] == 1.0
        assert shifted.re.data.sum() == 1.0

    def test_involution_on_even_dims(self):
        rng = np.random.default_rng(4)
        spectrum = fft2d(Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32)))
        twice = fft_shift(fft_shift(spectrum))
        assert np.array_equal(twice.re.data, spectrum.re.data)
        assert np.array_equal(twice.im.data, spectrum.im.data)

    def test_index_mapping_oracle(self):
        rng = np.random.default_rng(5)
        re = rng.standard_normal((1, 8, 8)).astype(np.float32)
        shifted = fft_shift(ComplexTensor(Tensor(re), Tensor(np.zeros_like(re))))
        h = w = 8
        for k in range(h):
            for l in range(w):
                assert shifted.re.data[0, (k + h // 2) % h, (l + w // 2) % w] == re[0, k, l]

    def test_inverse_on_odd_dims_composes_to_identity(self):
        rng = np.random.default_rng(6)
        re = rng.standard_normal((1, 5, 7)).astype(np.float32)
        spectrum = ComplexTensor(Tensor(re), Tensor(np.zeros_like(re)))
        back = fft_shift(fft_shift(spectrum), inverse=True)
        assert np.array_equal(back.re.data, re)

    def test_energy_preserved_exactly(self):
        rng = np.random.default_rng(7)
        spectrum = fft2d(Tensor(rng.standard_normal((2, 16, 16)).astype(np.float32)))
        shifted = fft_shift(spectrum)
        assert np.array_equal(np.sort(shifted.re.data, axis=None), np.sort(spectrum.re.data, axis=None))
        assert float(np.square(shifted.re.data).sum()) == float(np.square(spectrum.re.data).sum())


class TestChannelPacking:
    def test_pack_layout(self):
        spectrum = ComplexTensor(Tensor(np.ones((1, 2, 2))), Tensor(np.zeros((1, 2, 2))))
        packed = complex_to_channels(spectrum)
        assert packed.shape == (2, 2, 2)
        assert np.array_equal(packed.data[0], np.ones((2, 2), dtype=np.float32))
        assert np.array_equal(packed.data[1], np.zeros((2, 2), dtype=np.float32))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        spectrum = ComplexTensor(
            Tensor(rng.standard_normal((3, 4, 4)).astype(np.float32)),
            Tensor(rng.standard_normal((3, 4, 4)).astype(np.float32)),
        )
        back = channels_to_complex(complex_to_channels(spectrum))
        assert np.array_equal(back.re.data, spectrum.re.data)
        assert np.array_equal(back.im.data, spectrum.im.data)

    def test_channel_slices_match_planes(self):
        rng = np.random.default_rng(9)
        re = rng.standard_normal((3, 2, 2)).astype(np.float32)
        im = rng.standard_normal((3, 2, 2)).astype(np.float32)
        packed = complex_to_channels(ComplexTensor(Tensor(re), Tensor(im)))
        assert np.array_equal(packed.data[:3], re)
        assert np.array_equal(packed.data[3:], im)

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            channels_to_complex(Tensor(np.zeros((3, 2, 2))))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 4, 8, 16, 64]),
    st.integers(1, 4),
)
def test_parseval(seed, size, channels):
    x = np.random.default_rng(seed).standard_normal((channels, size, size)).astype(np.float32)
    spectrum = fft2d(Tensor(x))
    spatial = float(np.sum(np.square(x, dtype=np.float64)))
    freq = float(
        np.sum(spectrum.re.data.astype(np.float64) ** 2 + spectrum.im.data.astype(np.float64) ** 2)
    )
    assert abs(spatial - freq) <= 1e-4 * max(spatial, 1e-12)


def circular_conv_loop(x, k_pad):
    """Direct circular convolution with the kernel's origin at index (0, 0)."""
    h, w = x.shape
    out = np.zeros((h, w))
    for oh in range(h):
        for ow in range(w):
            acc = 0.0
            for u in range(h):
                for v in range(w):
                    if k_pad[u, v] != 0.0:
                        acc += k_pad[u, v] * x[(oh - u) % h, (ow - v) % w]
            out[oh, ow] = acc
    return out


def test_convolution_theorem():
    rng = np.random.default_rng(10)
    h = w = 8
    x = rng.standard_normal((h, w)).astype(np.float32)
    k_pad = np.zeros((h, w), dtype=np.float32)
    k_pad[:3, :3] = rng.uniform(0.0, 1.0, (3, 3)).astype(np.float32)
    want = circular_conv_loop(x.astype(np.float64), k_pad.astype(np.float64))
    a, b = fft2d(Tensor(x[None])), fft2d(Tensor(k_pad[None]))
    product = (a.re.data + 1j * a.im.data) * (b.re.data + 1j * b.im.data)
    route = ifft2d(ComplexTensor(Tensor(product.real), Tensor(product.imag)))
    got = route.data[0] * math.sqrt(h * w)
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel < 1e-3


def test_linearity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 8, 8)).astype(np.float32)
    y = rng.standard_normal((2, 8, 8)).astype(np.float32)
    a, b = 1.7, -0.6
    lhs = fft2d(Tensor(a * x + b * y))
    rx, ry = fft2d(Tensor(x)), fft2d(Tensor(y))
    assert np.abs(lhs.re.data - (a * rx.re.data + b * ry.re.data)).max() < 1e-5
    assert np.abs(lhs.im.data - (a * rx.im.data + b * ry.im.data)).max() < 1e-5
