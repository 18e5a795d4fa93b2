import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenet.metrics import psnr
from frenet.rawdata import (
    PreprocessSpec,
    apply_blur,
    bayer_pack,
    bayer_unpack,
    corpus_digest,
    embed_kernel,
    gen_dataset,
    gen_kernel,
    gen_sharp,
    load_corpus,
    motion_line,
    preprocess_raw,
    save_corpus,
)
from frenet.spectral import ComplexTensor, fft2d, ifft2d
from frenet.tensor import ConfigurationError, Tensor


class TestPreprocess:
    SPEC = PreprocessSpec(black_level=64, white_level=1023)

    def test_black_maps_to_zero(self):
        x = Tensor(np.full((1, 4, 4), 64.0))
        assert np.array_equal(preprocess_raw(x, self.SPEC).data, np.zeros((1, 4, 4), dtype=np.float32))

    def test_white_maps_to_one(self):
        x = Tensor(np.full((1, 4, 4), 1023.0))
        assert np.array_equal(preprocess_raw(x, self.SPEC).data, np.ones((1, 4, 4), dtype=np.float32))

    def test_midpoint(self):
        out = preprocess_raw(Tensor(np.full((1, 2, 2), 543.5)), self.SPEC)
        assert np.allclose(out.data, 0.5)

    def test_clamps_out_of_range(self):
        out = preprocess_raw(Tensor(np.array([[[-5.0, 2000.0]]])), self.SPEC)
        assert float(out.data.min()) == 0.0 and float(out.data.max()) == 1.0

    def test_monotone(self):
        xs = np.linspace(-10, 1100, 50)
        ys = preprocess_raw(Tensor(xs.reshape(1, 1, -1)), self.SPEC).data.reshape(-1)
        assert np.all(np.diff(ys) >= 0)

    def test_invalid_levels_rejected(self):
        with pytest.raises(ConfigurationError, match="exceed"):
            PreprocessSpec(black_level=100, white_level=100)


class TestBayer:
    def test_two_by_two_layout(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        packed = bayer_pack(x)
        assert packed.shape == (4, 1, 1)
        assert list(packed.data.reshape(-1)) == [1.0, 2.0, 3.0, 4.0]

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (1, 128, 128)).astype(np.float32)
        back = bayer_unpack(bayer_pack(Tensor(x)))
        assert np.array_equal(back.data, x)

    def test_shapes(self):
        packed = bayer_pack(Tensor(np.zeros((1, 128, 128))))
        assert packed.shape == (4, 64, 64)

    def test_odd_dims_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            bayer_pack(Tensor(np.zeros((1, 5, 4))))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 8, 32]))
    def test_round_trip_property(self, seed, size):
        x = np.random.default_rng(seed).uniform(0, 1, (1, size, size)).astype(np.float32)
        assert np.array_equal(bayer_unpack(bayer_pack(Tensor(x))).data, x)


class TestGenSharp:
    def test_deterministic(self):
        a = gen_sharp(123, 64, 64)
        b = gen_sharp(123, 64, 64)
        assert np.array_equal(a.data, b.data)

    def test_range(self):
        img = gen_sharp(7, 32, 32)
        assert float(img.data.min()) >= 0.0 and float(img.data.max()) <= 1.0

    @pytest.mark.parametrize("size", [32, 64, 128])
    def test_high_frequency_energy_share(self, size):
        # spectrum-integration oracle: energy above Nyquist/4 must exceed 1%
        # of the image's spectral (non-DC) energy
        for seed in (1, 2, 3):
            img = gen_sharp(seed, size, size).data[0].astype(np.float64)
            spec = np.abs(np.fft.fft2(img, norm="ortho")) ** 2
            fy = np.minimum(np.arange(size), size - np.arange(size))[:, None] / size
            fx = np.minimum(np.arange(size), size - np.arange(size))[None, :] / size
            hf = np.sqrt(fy**2 + fx**2) > 0.125
            share = spec[hf].sum() / (spec.sum() - spec[0, 0])
            assert share > 0.01, f"seed {seed}: high-frequency share {share:.4f}"


class TestGenKernel:
    def test_tiny_sigma_is_numerically_delta(self):
        k = gen_kernel(0, "gaussian", 5, sigma_range=(1e-3, 1e-3))
        delta = np.zeros((5, 5), dtype=np.float32)
        delta[2, 2] = 1.0
        assert np.abs(k - delta).max() < 1e-6

    def test_weights_sum_to_one(self):
        for seed in range(5):
            for kind in ("gaussian", "motion"):
                k = gen_kernel(seed, kind, 7)
                assert abs(float(k.sum(dtype=np.float64)) - 1.0) < 1e-6
                assert float(k.min()) >= 0.0

    def test_motion_axis_aligned_rasterization(self):
        want = np.zeros((5, 5), dtype=np.float32)
        want[2, 1:4] = 1.0 / 3.0
        assert np.abs(motion_line(5, 3, 0.0) - want).max() < 1e-6

    def test_sigma_range_respected(self):
        sigmas = []
        for seed in range(20):
            k = gen_kernel(seed, "gaussian", 5, sigma_range=(0.8, 2.0))
            # recover sigma from the weight ratio between center and side
            ratio = k[2, 3] / k[2, 2]
            sigmas.append(math.sqrt(-1.0 / (2.0 * math.log(ratio))))
        assert min(sigmas) >= 0.8 - 1e-3 and max(sigmas) <= 2.0 + 1e-3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            gen_kernel(0, "box", 5)


class TestApplyBlur:
    def test_delta_kernel_is_identity(self):
        x = gen_sharp(5, 16, 16)
        k = gen_kernel(0, "gaussian", 5, sigma_range=(1e-3, 1e-3))
        out = apply_blur(x, k)
        assert np.abs(out.data - x.data).max() < 1e-6

    def test_constant_image_is_fixed_point(self):
        x = Tensor(np.full((1, 16, 16), 0.37, dtype=np.float32))
        for seed in range(3):
            out = apply_blur(x, gen_kernel(seed, "gaussian", 5))
            assert np.abs(out.data - 0.37).max() < 1e-6

    def test_matches_spectral_oracle(self):
        x = gen_sharp(6, 32, 32)
        k = gen_kernel(3, "motion", 7)
        direct = apply_blur(x, k)
        a, b = fft2d(x), fft2d(embed_kernel(k, 32, 32))
        product = (a.re.data + 1j * a.im.data) * (b.re.data + 1j * b.im.data)
        route = ifft2d(ComplexTensor(Tensor(product.real), Tensor(product.imag)))
        spectral = route.data * math.sqrt(32 * 32)
        rel = np.abs(spectral - direct.data).max() / np.abs(direct.data).max()
        assert rel < 1e-3

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            apply_blur(Tensor(np.zeros((1, 4, 4))), gen_kernel(0, "gaussian", 5))

    @pytest.mark.parametrize("kind", ["gaussian", "motion"])
    @pytest.mark.parametrize("size", [3, 5, 7, 9])
    @pytest.mark.parametrize("h, w", [(9, 9), (16, 12), (11, 20)])
    def test_equals_sum_of_rolled_planes(self, kind, size, h, w):
        # The corpus must not change: same taps, same order, same float64 sums.
        x = Tensor(np.random.default_rng(size * h + w).uniform(0, 1, (1, h, w)).astype(np.float32))
        k = gen_kernel(size + h, kind, size)
        c = (size - 1) // 2
        plane = x.data[0].astype(np.float64)
        oracle = np.zeros_like(plane)
        for u in range(size):
            for v in range(size):
                kw = float(k[u, v])
                if kw:
                    oracle += kw * np.roll(plane, (u - c, v - c), axis=(0, 1))
        out = apply_blur(x, k)
        assert out.dtype == np.float32
        assert np.array_equal(out.data, oracle[None].astype(np.float32))


class TestGenDataset:
    def test_shapes_and_count(self):
        items = gen_dataset(0, count=6, h=64, w=64, spec=PreprocessSpec())
        assert len(items) == 6
        for item in items:
            assert item.blurred.shape == (4, 32, 32)
            assert item.sharp.shape == (4, 32, 32)

    def test_no_blur_no_noise_is_bit_exact(self):
        items = gen_dataset(0, count=3, h=32, w=32, spec=PreprocessSpec(),
                            noise_sigma=0.0, kernel_kind="none")
        for item in items:
            assert np.array_equal(item.blurred.data, item.sharp.data)

    def test_deterministic_per_seed_and_index(self):
        a = gen_dataset(5, count=4, h=32, w=32, spec=PreprocessSpec())
        b = gen_dataset(5, count=4, h=32, w=32, spec=PreprocessSpec())
        for x, y in zip(a, b):
            assert np.array_equal(x.blurred.data, y.blurred.data)
            assert np.array_equal(x.sharp.data, y.sharp.data)

    def test_mixed_kind_alternates(self):
        items = gen_dataset(1, count=4, h=32, w=32, spec=PreprocessSpec(), kernel_kind="mixed")
        assert [it.kernel_kind for it in items] == ["gaussian", "motion", "gaussian", "motion"]


class TestDatasetBaseline:
    # Measured once with the metrics oracle and recorded here; the generator
    # and degradation defaults must keep reproducing it.
    RECORDED_BASELINE_DB = 27.21

    def test_mean_psnr_of_default_corpus_matches_recorded_baseline(self):
        items = gen_dataset(2024, count=32, h=64, w=64, spec=PreprocessSpec())
        measured = float(np.mean([psnr(bayer_unpack(it.blurred), bayer_unpack(it.sharp))
                                  for it in items]))
        assert abs(measured - self.RECORDED_BASELINE_DB) < 0.05


class TestCorpusIo:
    def test_save_load_digest_stability(self, tmp_path):
        items = gen_dataset(9, count=4, h=32, w=32, spec=PreprocessSpec())
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        save_corpus(dir_a, items)
        save_corpus(dir_b, gen_dataset(9, count=4, h=32, w=32, spec=PreprocessSpec()))
        assert sorted(p.name for p in dir_a.iterdir()) == ["manifest.txt", "pairs.ften"]
        assert corpus_digest(dir_a) == corpus_digest(dir_b)
        pairs = load_corpus(dir_a)
        assert len(pairs) == 4
        assert np.array_equal(pairs[0][0].data, items[0].blurred.data)
        assert np.array_equal(pairs[2][1].data, items[2].sharp.data)
        assert pairs[0][0].data.base is pairs[3][1].data.base  # views of one tensor

    def test_digest_is_that_of_each_pairs_blurred_then_sharp_floats(self, tmp_path):
        # the bytes the per-pair files held, concatenated in index order, so digests carry over
        items = gen_dataset(5, count=3, h=32, w=32, spec=PreprocessSpec())
        save_corpus(tmp_path, items)
        floats = b"".join(it.blurred.data.tobytes() + it.sharp.data.tobytes() for it in items)
        assert corpus_digest(tmp_path) == hashlib.sha256(floats).hexdigest()

    def test_manifest_is_provenance_that_no_reader_parses(self, tmp_path):
        items = gen_dataset(3, count=2, h=32, w=32, spec=PreprocessSpec())
        save_corpus(tmp_path, items)
        digest = corpus_digest(tmp_path)
        (tmp_path / "manifest.txt").write_bytes(b"abc \xfe not a manifest\n")
        assert corpus_digest(tmp_path) == digest
        assert np.array_equal(load_corpus(tmp_path)[1][0].data, items[1].blurred.data)

    def test_manifest_lines(self, tmp_path):
        items = gen_dataset(2, count=2, h=32, w=32, spec=PreprocessSpec())
        save_corpus(tmp_path, items)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(lines) == 2
        index, kind, kseed, sigma = lines[0].split()
        assert index == "0" and kind == "gaussian"
        assert int(kseed) == items[0].kernel_seed
        assert float(sigma) == 0.002
