import hashlib
import math
import weakref

import numpy as np
import pytest

from frenet.arch import (
    Down,
    Facm,
    Ffn,
    FreBlock,
    NetworkConfig,
    Sca,
    Up,
    build_frenet,
    tiny_config,
)
from frenet.afpm import make_patch_grid
from frenet.fileio import restore_network, save_checkpoint
from frenet.rawdata import bayer_pack, bayer_unpack, gen_sharp
from frenet.spectral import channels_to_complex, complex_to_channels, fft2d, fft_shift, ifft2d
from frenet.tensor import (
    ConfigurationError,
    ConvSpec,
    Tensor,
    add,
    conv2d,
    gelu,
    global_avg_pool,
    layer_norm_channels,
    mul,
    observe,
    parameter_buffer,
    simple_gate,
)


def assert_one_buffer(params):
    """Every parameter is a C-contiguous float32 slice of one buffer, in order and
    with no gaps; returns the buffer."""
    params = list(params)
    buffer = params[0].data.base
    assert buffer.ndim == 1 and buffer.dtype == np.float32 and buffer.flags.owndata
    offset = 0
    for p in params:
        assert p.data.base is buffer and p.data.dtype == np.float32 and p.data.flags.c_contiguous
        assert p.data.ctypes.data == buffer.ctypes.data + 4 * offset
        offset += p.size
    assert offset == buffer.size
    return buffer


def forward_with_sections(net, x):
    """The output and the last node of each top-level section, recorded through the observer."""
    last = {}

    def record(op, label, out, parents, spec):
        if label is not None:
            last[label.split(".")[0]] = np.array(out.data)

    with observe(record):
        out = net.forward(x)
    return out, last


class TestSca:
    def test_constant_input_analytic(self):
        rng = np.random.default_rng(0)
        with parameter_buffer(rng):
            sca = Sca("s", channels=1)
        w = float(sca.proj.weight.data.reshape(()))
        sca.proj.bias.data = np.array([0.25], dtype=np.float32)
        x = Tensor(np.full((1, 4, 4), 3.0, dtype=np.float32))
        out = sca(x)
        assert np.allclose(out.data, (w * 3.0 + 0.25) * 3.0, atol=1e-6)

    def test_zero_weight_unit_bias_is_identity(self):
        rng = np.random.default_rng(1)
        with parameter_buffer(rng):
            sca = Sca("s", channels=3)
        sca.proj.weight.data = np.zeros_like(sca.proj.weight.data)
        sca.proj.bias.data = np.ones_like(sca.proj.bias.data)
        x = Tensor(rng.standard_normal((3, 4, 4)).astype(np.float32))
        assert np.array_equal(sca(x).data, x.data)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(2)
        with parameter_buffer(rng):
            sca = Sca("s", channels=4)
        x = Tensor(rng.standard_normal((4, 8, 8)).astype(np.float32))
        got = sca(x).data
        want = mul(conv2d(global_avg_pool(x), sca.proj.spec, sca.proj.weight, sca.proj.bias), x).data
        assert np.abs(got - want).max() < 1e-6


def default_cfg(**kw):
    return tiny_config(base_size=16, **kw)


class TestFacm:
    def make(self, channels=4, size=16, seed=3, **cfg_kw):
        cfg = default_cfg(**cfg_kw)
        rng = np.random.default_rng(seed)
        grid = make_patch_grid(size, size, cfg.grid_target)
        with parameter_buffer(rng) as params:
            facm = Facm("f", channels, cfg, grid)
        return facm, params

    def test_shape_contract_and_capture(self):
        facm, _ = self.make()
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 16, 16)).astype(np.float32))
        out, spectrum = facm(x)
        assert out.shape == (4, 16, 16)
        assert spectrum.shape == (8, 16, 16)  # packed: real planes over imaginary planes
        out2, _ = facm(x)
        assert np.array_equal(out.data, out2.data)

    def test_degenerate_parameters_reduce_to_input_plus_fixed_field(self):
        facm, params = self.make()
        for p in params:
            if p.name.endswith("weight") or p.name.endswith(("w1", "w2")):
                p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 16, 16)).astype(np.float32))
        out, _ = facm(x)
        assert np.isfinite(out.data).all()
        assert np.array_equal(out.data, x.data)  # zero biases: the whole branch is zero

        # A non-zero output bias makes a constant spectrum plane, whose inverse
        # transform is a scaled impulse at the origin pixel.
        facm.conv_out.bias.data = np.full_like(facm.conv_out.bias.data, 0.5)
        out_b, _ = facm(x)
        field = out_b.data - x.data
        assert abs(field[0, 0, 0] - 0.5 * 16.0) < 1e-4  # 0.5 * sqrt(H*W)
        field[:, 0, 0] = 0.0
        assert np.abs(field).max() < 1e-4
        out_b2, _ = facm(x)
        assert np.array_equal(out_b.data, out_b2.data)

    def test_matches_step_by_step_transcription(self):
        facm, _ = self.make(channels=2, size=8)
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        got, _ = facm(x)

        spectrum = fft_shift(fft2d(x))
        f_norm = layer_norm_channels(complex_to_channels(spectrum), facm.norm.gamma, facm.norm.beta)
        f_proc = simple_gate(
            conv2d(
                conv2d(f_norm, facm.conv_in.spec, facm.conv_in.weight, facm.conv_in.bias),
                facm.dw.spec,
                facm.dw.weight,
                facm.dw.bias,
            )
        )
        fused = add(facm.afpm(f_proc), facm.sca(f_proc))
        f_final = conv2d(fused, facm.conv_out.spec, facm.conv_out.weight, facm.conv_out.bias)
        want = add(x, ifft2d(fft_shift(channels_to_complex(f_final), inverse=True)))
        assert np.abs(got.data - want.data).max() < 1e-4

    def test_freq_skip_added_in_centered_frame(self):
        facm, _ = self.make(channels=2, size=8)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        other = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        skip = complex_to_channels(fft_shift(fft2d(other)))
        out_with, _ = facm(x, freq_skip=skip)
        out_without, _ = facm(x)
        assert np.abs(out_with.data - out_without.data).max() > 1e-6

    def test_freq_skip_shape_mismatch_rejected(self):
        facm, _ = self.make(channels=2, size=8)
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        # right channel count, wrong spatial size
        other = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float32))
        skip = complex_to_channels(fft_shift(fft2d(other)))
        with pytest.raises(ConfigurationError, match="skip shape"):
            facm(x, freq_skip=skip)

    def test_branch_toggles_fuse_exactly_one_branch(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        local_only, _ = self.make(channels=2, size=8, use_global_branch=False)
        assert local_only.sca is None
        out, _ = local_only(x)
        assert np.isfinite(out.data).all()
        global_only, _ = self.make(channels=2, size=8, use_local_branch=False)
        assert global_only.afpm is None
        out_g, _ = global_only(x)
        assert np.abs(out.data - out_g.data).max() > 1e-6

    def test_single_branch_fusion_is_exact(self):
        # with the global branch off, the fused feature IS the local branch
        # output (no spurious zero-add), so the transcription matches bit-exact
        facm, _ = self.make(channels=2, size=8, use_global_branch=False)
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))
        got, _ = facm(x)
        spectrum = fft_shift(fft2d(x))
        f_norm = layer_norm_channels(complex_to_channels(spectrum), facm.norm.gamma, facm.norm.beta)
        f_proc = simple_gate(
            conv2d(
                conv2d(f_norm, facm.conv_in.spec, facm.conv_in.weight, facm.conv_in.bias),
                facm.dw.spec,
                facm.dw.weight,
                facm.dw.bias,
            )
        )
        f_final = conv2d(facm.afpm(f_proc), facm.conv_out.spec, facm.conv_out.weight, facm.conv_out.bias)
        want = add(x, ifft2d(fft_shift(channels_to_complex(f_final), inverse=True)))
        assert np.array_equal(got.data, want.data)


class TestFfn:
    def test_zero_weights_is_pure_residual(self):
        rng = np.random.default_rng(10)
        with parameter_buffer(rng) as params:
            ffn = Ffn("f", channels=3, expand=2.0)
        for p in params:
            if p.name.endswith("weight") or p.name.endswith("bias"):
                p.data = np.zeros_like(p.data)
        x = Tensor(rng.standard_normal((3, 4, 4)).astype(np.float32))
        assert np.array_equal(ffn(x).data, x.data)

    def test_shape_preserved(self):
        rng = np.random.default_rng(11)
        with parameter_buffer(rng):
            ffn = Ffn("f", channels=6, expand=2.0)
        x = Tensor(rng.standard_normal((6, 4, 4)).astype(np.float32))
        assert ffn(x).shape == (6, 4, 4)
        assert ffn.branch1_conv.spec.out_channels == 12

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(12)
        with parameter_buffer(rng):
            ffn = Ffn("f", channels=2, expand=2.0)
        x = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float32))
        got = ffn(x).data
        gated = gelu(
            conv2d(
                conv2d(x, ffn.branch1_conv.spec, ffn.branch1_conv.weight, ffn.branch1_conv.bias),
                ffn.branch1_dw.spec,
                ffn.branch1_dw.weight,
                ffn.branch1_dw.bias,
            )
        )
        value = conv2d(
            conv2d(x, ffn.branch2_conv.spec, ffn.branch2_conv.weight, ffn.branch2_conv.bias),
            ffn.branch2_dw.spec,
            ffn.branch2_dw.weight,
            ffn.branch2_dw.bias,
        )
        want = add(x, conv2d(mul(gated, value), ffn.proj.spec, ffn.proj.weight, ffn.proj.bias)).data
        assert np.abs(got - want).max() < 1e-5


class TestFreBlock:
    def test_shape_and_capture_propagation(self):
        cfg = default_cfg()
        rng = np.random.default_rng(13)
        with parameter_buffer(rng):
            blk = FreBlock("b", channels=4, cfg=cfg, grid=make_patch_grid(16, 16, 8))
        x = Tensor(np.random.default_rng(14).standard_normal((4, 16, 16)).astype(np.float32))
        out, spectrum = blk(x)
        assert out.shape == (4, 16, 16)
        assert spectrum.shape == (8, 16, 16)

    def test_is_ffn_after_facm(self):
        cfg = default_cfg()
        rng = np.random.default_rng(15)
        with parameter_buffer(rng):
            blk = FreBlock("b", channels=2, cfg=cfg, grid=make_patch_grid(8, 8, 8))
        x = Tensor(np.random.default_rng(16).standard_normal((2, 8, 8)).astype(np.float32))
        got, _ = blk(x)
        mid, _ = blk.facm(x)
        want = blk.ffn(mid)
        assert np.abs(got.data - want.data).max() < 1e-6


class TestResampling:
    def test_downsample_shape_and_oracle(self):
        rng = np.random.default_rng(17)
        with parameter_buffer(rng):
            down = Down("d", channels=4)
        x = rng.standard_normal((4, 16, 16)).astype(np.float32)
        out = down(Tensor(x))
        assert out.shape == (8, 8, 8)
        from test_tensor import conv2d_loop_oracle

        want = conv2d_loop_oracle(x, down.conv.weight.data, down.conv.bias.data, stride=2)
        assert np.abs(out.data - want).max() < 1e-5

    def test_downsample_linear(self):
        rng = np.random.default_rng(18)
        with parameter_buffer(rng):
            down = Down("d", channels=2)
        down.conv.bias.data = np.zeros_like(down.conv.bias.data)
        x1 = rng.standard_normal((2, 8, 8)).astype(np.float32)
        x2 = rng.standard_normal((2, 8, 8)).astype(np.float32)
        lhs = down(Tensor(2.0 * x1 + 1.5 * x2)).data
        rhs = 2.0 * down(Tensor(x1)).data + 1.5 * down(Tensor(x2)).data
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_downsample_odd_dims_rejected(self):
        rng = np.random.default_rng(19)
        with parameter_buffer(rng):
            down = Down("d", channels=1)
        with pytest.raises(ConfigurationError, match="even"):
            down(Tensor(np.zeros((1, 5, 8))))

    def test_upsample_shape_and_oracle(self):
        rng = np.random.default_rng(20)
        with parameter_buffer(rng):
            up = Up("u", in_channels=8)
        x = Tensor(rng.standard_normal((8, 8, 8)).astype(np.float32))
        out = up(x)
        assert out.shape == (4, 16, 16)
        from frenet.tensor import depth_to_space

        mid = conv2d(x, up.conv1.spec, up.conv1.weight, up.conv1.bias)
        want = conv2d(depth_to_space(mid, 2), up.conv2.spec, up.conv2.weight, up.conv2.bias)
        assert np.abs(out.data - want.data).max() < 1e-6

    def test_upsample_channel_divisibility(self):
        with pytest.raises(ConfigurationError, match="divisible by 4"):
            Up("u", in_channels=6)


def tiny_param_count_formula(cfg: NetworkConfig) -> int:
    """Per-layer parameter formula summation, independent of the builder."""

    def conv_params(out_c, in_c, k, groups=1, bias=True):
        return out_c * (in_c // groups) * k * k + (out_c if bias else 0)

    def kbg_params(out_dim, hidden=16):
        return hidden * 1 + hidden + out_dim * hidden + out_dim

    def block_params(c, size):
        packed = 2 * c
        grid = make_patch_grid(size, size, cfg.grid_target)
        plen = grid.patch_h * grid.patch_w
        total = 2 * packed  # layer norm gamma/beta
        total += conv_params(2 * packed, packed, 1)
        total += conv_params(2 * packed, 2 * packed, 3, groups=2 * packed)
        total += kbg_params(plen) + kbg_params(1) + conv_params(packed, packed, 1)  # afpm
        total += conv_params(packed, packed, 1)  # sca
        total += conv_params(packed, packed, 1)  # conv_out
        hidden = math.ceil(cfg.ffn_expand * c)
        total += 2 * conv_params(hidden, c, 1) + 2 * conv_params(hidden, hidden, 3, groups=hidden)
        total += conv_params(c, hidden, 1)
        return total

    total = conv_params(cfg.width, cfg.in_channels, 3)
    size = cfg.base_size
    ch = cfg.width
    for i in range(cfg.scales):
        total += conv_params(2 * ch, ch, 2)
        ch *= 2
        size //= 2
        total += cfg.enc_blocks[i] * block_params(ch, size)
    total += cfg.bottleneck_blocks * block_params(ch, size)
    for i in range(cfg.scales - 1, -1, -1):
        c_i = cfg.width << (i + 1)
        s_i = cfg.base_size >> (i + 1)
        total += cfg.dec_blocks[i] * block_params(c_i, s_i)
        total += conv_params(c_i, c_i, 1) + conv_params(c_i // 2, c_i // 4, 1)
    total += conv_params(cfg.in_channels, cfg.width, 3)
    return total


class TestBuild:
    def test_frenet_preset_builds_with_reference_scale_params(self):
        cfg = NetworkConfig(name="frenet")
        net = build_frenet(cfg)
        count = net.param_count()
        assert abs(count / 19.76e6 - 1.0) <= 0.25
        assert cfg.block_total == 24

    def test_tiny_matches_parameter_formula_oracle(self):
        cfg = tiny_config(base_size=16)
        net = build_frenet(cfg)
        assert net.param_count() == tiny_param_count_formula(cfg)
        assert net.param_count() < 100_000

    def test_both_branches_disabled_rejected(self):
        cfg = tiny_config(use_local_branch=False, use_global_branch=False)
        with pytest.raises(ConfigurationError, match="at_least|at least"):
            build_frenet(cfg)

    def test_violations_listed_together(self):
        cfg = NetworkConfig(width=3, scales=0, enc_blocks=(), dec_blocks=(), bottleneck_blocks=0)
        bad = cfg.violations()
        assert len(bad) >= 3

    def test_parameter_names_are_deterministic_paths(self):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        names = list(net.parameters())
        assert "intro.weight" in names
        assert "enc1.blk0.facm.conv_in.weight" in names
        assert "enc1.blk0.facm.afpm.kernel_kbg.w1" in names
        assert "dec1.up.conv1.weight" in names
        assert "final.bias" in names
        net2 = build_frenet(tiny_config(base_size=16), seed=0)
        assert names == list(net2.parameters())
        for name, p in net.parameters().items():
            assert np.array_equal(p.data, net2.parameters()[name].data)

    def test_parameter_order_is_build_order(self):
        # This order is the checkpoint record order; changing it changes every saved file.
        names = list(build_frenet(NetworkConfig(name="frenet")).parameters())
        assert names[:3] == ["intro.weight", "intro.bias", "enc1.down.weight"]
        assert names[-1] == "final.bias"
        sections = [name.split(".")[0] for name in names]
        first = {s: sections.index(s) for s in ("dec3", "dec2", "dec1")}
        last = {s: len(sections) - 1 - sections[::-1].index(s) for s in ("dec3", "dec2", "dec1")}
        assert last["dec3"] < first["dec2"] and last["dec2"] < first["dec1"]
        assert sections.index("mid") < first["dec3"]

    @pytest.mark.parametrize("cfg, digest", [
        (tiny_config(), "bd1ab2c03ffdf46846119e89de72f4e091956b5303cabbb0ecf24cde634838ed"),
        (NetworkConfig(name="frenet"), "1fe67ed6844d1eb418c0fc8f6f0989db36f4745a6dfe2897428e79631743fd99"),
    ])
    def test_seeded_initialisation_is_pinned(self, cfg, digest):
        # sha256 of every parameter's float32 bytes in record order; a change in
        # what is drawn, or in what order, changes every trained result
        h = hashlib.sha256()
        for p in build_frenet(cfg, seed=0).parameters().values():
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        tiny_config(use_pooling_variant=True, use_global_branch=False, global_residual=True),
    ])
    def test_unseeded_build_is_the_seeded_tree_of_zeros(self, cfg):
        seeded = build_frenet(cfg, seed=0).parameters()
        empty = build_frenet(cfg, seed=None).parameters()
        assert list(empty) == list(seeded)
        for name, p in empty.items():
            assert (p.data.shape, p.data.dtype) == (seeded[name].data.shape, seeded[name].data.dtype)
            assert not p.data.any()


class TestParameterStorage:
    @pytest.mark.parametrize("cfg", [
        tiny_config(base_size=16),
        tiny_config(base_size=16, use_pooling_variant=True, use_global_branch=False, global_residual=True),
    ])
    def test_seeded_unseeded_and_restored_nets_hold_one_buffer(self, tmp_path, cfg):
        seeded = build_frenet(cfg, seed=0)
        save_checkpoint(tmp_path / "net.fckpt", seeded)
        restored = restore_network(tmp_path / "net.fckpt")[0]
        for net in (seeded, build_frenet(cfg, seed=None), restored):
            params = net.parameters()
            assert list(params) == list(seeded.parameters())  # record order
            assert assert_one_buffer(params.values()).size == net.param_count()
        assert np.array_equal(assert_one_buffer(restored.parameters().values()),
                              assert_one_buffer(seeded.parameters().values()))

    @pytest.mark.parametrize("seed", [0, None])
    def test_buffer_dies_with_the_network(self, seed):
        net = build_frenet(tiny_config(base_size=16), seed=seed)
        buffer = weakref.ref(assert_one_buffer(net.parameters().values()))
        del net
        assert buffer() is None

    def test_module_built_alone_holds_one_buffer(self):
        with parameter_buffer(np.random.default_rng(0)) as params:
            ffn = Ffn("f", channels=3, expand=2.0)
        assert [p.name for p in params][:2] == ["f.branch1.conv.weight", "f.branch1.conv.bias"]
        assert assert_one_buffer(params).size == sum(p.size for p in params)
        assert ffn.proj.weight is params[-2]

    def test_parameter_made_outside_a_buffer_block_is_rejected(self):
        with pytest.raises(ConfigurationError, match="parameter_buffer"):
            Sca("s", channels=2)


class TestNetworkForward:
    def test_tiny_shape_contract(self):
        net = build_frenet(tiny_config(base_size=32), seed=0)
        x = Tensor(np.random.default_rng(22).uniform(0, 1, (4, 32, 32)).astype(np.float32))
        out = net.forward(x)
        assert out.shape == (4, 32, 32)
        assert np.isfinite(out.data).all()

    def test_geometry_mismatch_rejected_before_compute(self):
        net = build_frenet(tiny_config(base_size=32), seed=0)
        with pytest.raises(ConfigurationError, match="geometry"):
            net.forward(Tensor(np.zeros((4, 16, 16))))

    def test_determinism(self):
        net = build_frenet(tiny_config(base_size=16), seed=1)
        x = Tensor(np.random.default_rng(23).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        assert np.array_equal(net.forward(x).data, net.forward(x).data)

    def test_freq_skip_isolation(self):
        # stored spectra are write-only: encoder path identical with skips on or off
        x = Tensor(np.random.default_rng(24).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        net = build_frenet(tiny_config(base_size=16), seed=2)
        out_on, trace_on = forward_with_sections(net, x)
        net.cfg.use_freq_skip = False
        out_off, trace_off = forward_with_sections(net, x)
        net.cfg.use_freq_skip = True
        for key in ("enc1", "enc2", "mid"):
            assert np.array_equal(trace_on[key], trace_off[key])
        assert np.abs(out_on.data - out_off.data).max() > 1e-7  # decoder inputs differ

    def test_spatial_skip_toggle_changes_output(self):
        x = Tensor(np.random.default_rng(25).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        net = build_frenet(tiny_config(base_size=16), seed=3)
        out_on = net.forward(x)
        net.cfg.use_spatial_skip = False
        out_off = net.forward(x)
        assert np.abs(out_on.data - out_off.data).max() > 1e-7

    def test_global_residual_starts_at_identity(self):
        net = build_frenet(tiny_config(base_size=16, global_residual=True), seed=4)
        x = Tensor(np.random.default_rng(26).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        assert np.array_equal(net.forward(x).data, x.data)

    def test_full_raw_patch_round_trip(self):
        # a 128x128 raw patch packs to 4x64x64, runs the full-size preset, and
        # unpacks back to 128x128
        net = build_frenet(NetworkConfig(name="frenet"), seed=0)
        raw = gen_sharp(9, 128, 128)
        packed = bayer_pack(raw)
        assert packed.shape == (4, 64, 64)
        out = net.forward(packed)
        assert out.shape == (4, 64, 64)
        unpacked = bayer_unpack(Tensor(out.data))
        assert unpacked.shape == (1, 128, 128)
        assert np.isfinite(unpacked.data).all()

    @pytest.mark.parametrize("pooling, nodes", [(False, 199), (True, 164)])
    def test_nodes_per_forward_are_pinned(self, pooling, nodes):
        # each AFPM affine map (generator layers, projection) is one linear node,
        # and each FFN gate gelu(a) * b is one gelu_mul node
        net = build_frenet(tiny_config(base_size=32, use_pooling_variant=pooling), seed=0)
        made = []
        with observe(lambda op, label, out, parents, spec: made.append(op)):
            net.forward(Tensor(np.zeros((4, 32, 32), dtype=np.float32)))
        assert len(made) == nodes

    @pytest.mark.parametrize("cfg", [
        NetworkConfig(name="frenet", base_size=16),
        tiny_config(base_size=16, use_pooling_variant=True, use_global_branch=False, global_residual=True),
    ], ids=["frenet", "tiny-ablated"])
    def test_every_node_names_its_op(self, cfg):
        net = build_frenet(cfg, seed=0)
        made = []
        with observe(lambda op, label, out, parents, spec: made.append(op)):
            net.forward(Tensor(np.zeros((4, 16, 16), dtype=np.float32)))
        assert len(made) > 100 and None not in made
        # one "fft2d" per transform: the block's forward transform, its inverse is "ifft2d"
        assert made.count("fft2d") == made.count("ifft2d") == cfg.block_total

    def test_shape_law_each_scale(self):
        net = build_frenet(tiny_config(base_size=32), seed=5)
        _, trace = forward_with_sections(net, Tensor(np.zeros((4, 32, 32), dtype=np.float32)))
        assert trace["enc1"].shape == (8, 16, 16)
        assert trace["enc2"].shape == (16, 8, 8)
        assert trace["mid"].shape == (16, 8, 8)
