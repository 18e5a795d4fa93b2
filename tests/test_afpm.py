import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenet.afpm import (
    Afpm,
    KernelBiasGenerator,
    make_patch_grid,
    patch_weighted_sum,
)
from frenet.tensor import ConfigurationError, Tensor, global_avg_pool, parameter_buffer
from frenet.verify import _swap_patches


def grid_distance_oracle(h, w, rows, cols):
    """Coordinate-loop transcription of the normalized center-distance formula."""
    p_h, p_w = h / rows, w / cols
    corner = math.hypot(h / 2.0, w / 2.0)
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            cy, cx = (i + 0.5) * p_h, (j + 0.5) * p_w
            out[i, j] = math.hypot(cy - h / 2.0, cx - w / 2.0) / corner
    return out


class TestMakePatchGrid:
    def test_64_target8_hand_values(self):
        grid = make_patch_grid(64, 64, 8)
        assert (grid.rows, grid.cols, grid.patch_h, grid.patch_w) == (8, 8, 8, 8)
        assert abs(grid.distances[0, 0] - 0.875) < 1e-6
        assert abs(grid.distances[3, 3] - 0.125) < 1e-6
        assert grid.distances[3, 3] == grid.distances[4, 4]
        oracle = grid_distance_oracle(64, 64, 8, 8)
        assert np.abs(grid.distances - oracle).max() < 1e-6

    def test_small_map_falls_back_to_coarser_grid(self):
        grid = make_patch_grid(4, 4, 8)
        assert (grid.rows, grid.cols, grid.patch_h, grid.patch_w) == (4, 4, 1, 1)

    def test_rectangular_map(self):
        grid = make_patch_grid(16, 8, 8)
        assert (grid.rows, grid.cols) == (8, 8)
        assert (grid.patch_h, grid.patch_w) == (2, 1)
        assert np.abs(grid.distances - grid_distance_oracle(16, 8, 8, 8)).max() < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4, 8, 16, 32, 64]), st.sampled_from([1, 2, 4, 8]))
    def test_invariants(self, size, target):
        grid = make_patch_grid(size, size, target)
        assert grid.rows * grid.patch_h == size
        assert grid.cols * grid.patch_w == size
        d = grid.distances
        assert float(d.min()) >= 0.0 and float(d.max()) <= 1.0
        assert np.array_equal(d, d[::-1, ::-1])  # bit-exact central symmetry


class TestKbg:
    def test_zero_weights_yield_bias(self):
        rng = np.random.default_rng(0)
        with parameter_buffer(rng):
            kbg = KernelBiasGenerator("k", out_dim=4)
        kbg.w1.data = np.zeros_like(kbg.w1.data)
        kbg.w2.data = np.zeros_like(kbg.w2.data)
        kbg.b2.data = np.arange(4, dtype=np.float32)
        for d in (0.0, 0.33, 1.0):
            out = kbg(np.array([d]))
            assert np.array_equal(out.data[0], kbg.b2.data)

    def test_single_unit_path_reproduces_gelu(self):
        rng = np.random.default_rng(1)
        with parameter_buffer(rng):
            kbg = KernelBiasGenerator("k", out_dim=1)
        # one hidden unit carries the distance; the other 15 are zero in and out
        kbg.w1.data = np.zeros_like(kbg.w1.data)
        kbg.w1.data[0] = 1.0
        kbg.b1.data = np.zeros_like(kbg.b1.data)
        kbg.w2.data = np.zeros_like(kbg.w2.data)
        kbg.w2.data[0, 0] = 1.0
        kbg.b2.data = np.zeros_like(kbg.b2.data)
        out = kbg(np.array([1.0]))
        assert abs(float(out.data[0, 0]) - 0.8413447) < 1e-6

    def test_output_length_contract(self):
        rng = np.random.default_rng(2)
        grid = make_patch_grid(64, 64, 8)
        with parameter_buffer(rng):
            module = Afpm("a", channels=4, grid=grid)
        flat = grid.distances.reshape(-1)
        assert module.kernel_kbg(flat).shape == (64, 64)
        assert module.bias_kbg(flat).shape == (64, 1)


class TestAfpmForward:
    def make(self, channels=2, size=8, target=4, seed=3):
        rng = np.random.default_rng(seed)
        grid = make_patch_grid(size, size, target)
        with parameter_buffer(rng):
            module = Afpm("a", channels=channels, grid=grid)
        return module, grid, rng

    def test_unit_modulation_identity(self):
        module, _, rng = self.make()
        module.proj_weight.data = np.zeros_like(module.proj_weight.data)
        module.proj_bias.data = np.ones_like(module.proj_bias.data)
        x = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        assert np.array_equal(module(x).data, x.data)

    def test_zero_patch_stays_zero(self):
        module, grid, rng = self.make()
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        x[:, : grid.patch_h, : grid.patch_w] = 0.0
        out = module(Tensor(x)).data
        assert np.array_equal(out[:, : grid.patch_h, : grid.patch_w], np.zeros((2, grid.patch_h, grid.patch_w), dtype=np.float32))

    def test_single_patch_matches_formula_transcription(self):
        rng = np.random.default_rng(4)
        grid = make_patch_grid(2, 2, 1)
        with parameter_buffer(rng):
            module = Afpm("a", channels=2, grid=grid)
        module.kernel_kbg.b2.data = np.array([0.5, -0.25, 0.125, 1.0], dtype=np.float32)
        module.bias_kbg.b2.data = np.array([0.3], dtype=np.float32)
        x = rng.standard_normal((2, 2, 2)).astype(np.float32)

        d = float(grid.distances[0, 0])
        kernel = module.kernel_kbg(np.array([d])).data.reshape(2, 2).astype(np.float64)
        bias = float(module.bias_kbg(np.array([d])).data.reshape(()))
        s = (x.astype(np.float64) * kernel).sum(axis=(1, 2)) + bias
        factor = module.proj_weight.data.reshape(2, 2).astype(np.float64) @ s + module.proj_bias.data
        want = factor[:, None, None] * x

        got = module(Tensor(x)).data
        assert np.abs(got - want).max() < 1e-4

    def test_content_independence_under_equal_distance_swap(self):
        module, grid, rng = self.make(size=8, target=4)
        i, j = 0, 1
        mi, mj = grid.rows - 1 - i, grid.cols - 1 - j
        assert grid.distances[i, j] == grid.distances[mi, mj]
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        swapped = _swap_patches(x, grid, (i, j), (mi, mj))
        assert not np.array_equal(swapped, x)
        out, out_swapped = module(Tensor(x)).data, module(Tensor(swapped)).data
        assert np.array_equal(out_swapped, _swap_patches(out, grid, (i, j), (mi, mj)))

    def test_central_symmetry_of_generated_parameters(self):
        module, grid, _ = self.make(size=16, target=8)
        d = grid.distances
        flat = d.reshape(-1)
        mirrored = d[::-1, ::-1].reshape(-1)
        kernels = module.kernel_kbg(flat).data
        kernels_m = module.kernel_kbg(mirrored).data
        biases = module.bias_kbg(flat).data
        biases_m = module.bias_kbg(mirrored).data
        assert np.array_equal(kernels, kernels_m)
        assert np.array_equal(biases, biases_m)

    def test_aggregation_homogeneous_but_output_not_linear(self):
        module, grid, rng = self.make()
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        kernels = module.kernel_kbg(grid.distances.reshape(-1))
        s1 = patch_weighted_sum(Tensor(x), kernels, grid).data
        s2 = patch_weighted_sum(Tensor(2.0 * x), kernels, grid).data
        assert np.abs(s2 - 2.0 * s1).max() < 1e-4
        out1, out2 = module(Tensor(x)).data, module(Tensor(2.0 * x)).data
        assert np.abs(out2 - 2.0 * out1).max() > 1e-3  # product of two input-affine terms

    def test_patch_independence(self):
        module, grid, rng = self.make()
        ph, pw = grid.patch_h, grid.patch_w
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        zeroed = x.copy()
        zeroed[:, :ph, :pw] = 0.0
        out, out_zeroed = module(Tensor(x)).data, module(Tensor(zeroed)).data
        assert np.array_equal(out[:, ph:, :], out_zeroed[:, ph:, :])
        assert np.array_equal(out[:, :ph, pw:], out_zeroed[:, :ph, pw:])

    def test_tiling_mismatch_rejected(self):
        module, _, rng = self.make()
        with pytest.raises(ConfigurationError, match="tiles"):
            module(Tensor(rng.standard_normal((2, 6, 8)).astype(np.float32)))


class TestPoolingVariant:
    def test_constant_patch_aggregates_to_constant(self):
        rng = np.random.default_rng(5)
        grid = make_patch_grid(4, 4, 2)
        with parameter_buffer(rng):
            module = Afpm("a", channels=1, grid=grid, adaptive=False)
        x = np.zeros((1, 4, 4), dtype=np.float32)
        x[:, :2, :2] = 3.0
        uniform = Tensor(np.full((4, 4), 0.25, dtype=np.float32))
        s = patch_weighted_sum(Tensor(x), uniform, grid).data
        assert abs(s[0, 0] - 3.0) < 1e-6

    def test_identity_with_unit_projection(self):
        rng = np.random.default_rng(6)
        grid = make_patch_grid(8, 8, 4)
        with parameter_buffer(rng):
            module = Afpm("a", channels=3, grid=grid, adaptive=False)
        module.proj_weight.data = np.zeros_like(module.proj_weight.data)
        module.proj_bias.data = np.ones_like(module.proj_bias.data)
        x = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        assert np.array_equal(module.pooling_variant(x).data, x.data)

    def test_aggregation_equals_global_avg_pool_per_patch(self):
        rng = np.random.default_rng(7)
        grid = make_patch_grid(4, 4, 1)  # single patch spanning the map
        uniform = Tensor(np.full((1, 16), 1.0 / 16.0, dtype=np.float32))
        x = rng.standard_normal((3, 4, 4)).astype(np.float32)
        s = patch_weighted_sum(Tensor(x), uniform, grid).data.reshape(3)
        pooled = global_avg_pool(Tensor(x)).data.reshape(3)
        assert np.abs(s - pooled).max() < 1e-6

    def test_no_kbg_parameters_built(self):
        rng = np.random.default_rng(8)
        grid = make_patch_grid(8, 8, 4)
        with parameter_buffer(rng) as params:
            module = Afpm("a", channels=2, grid=grid, adaptive=False)
        names = [p.name for p in params]
        assert names == ["a.proj.weight", "a.proj.bias"]
