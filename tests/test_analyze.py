import math

import numpy as np

from frenet.afpm import KBG_HIDDEN, make_patch_grid
from frenet.analyze import count_ops, count_params_macs
from frenet.arch import NetworkConfig, build_frenet, tiny_config
from frenet.tensor import ConvSpec, Tensor, conv2d, section


def test_single_conv_mac_formula():
    # one 1x1 conv, 3 -> 8 channels, on a 64x64 map, counted as it runs
    spec = ConvSpec(3, 8, 1, 1)
    x = Tensor(np.zeros((3, 64, 64), dtype=np.float32))
    w = Tensor(np.zeros(spec.weight_shape, dtype=np.float32))
    sections, fft_flops = count_ops(lambda: conv2d(x, spec, w))
    assert sections == {None: 8 * 3 * 64 * 64} and 8 * 3 * 64 * 64 == 98_304
    assert fft_flops == 0

    # a block path label counts towards the section before its first dot
    def labelled():
        with section("enc1.blk0"):
            conv2d(x, spec, w)
        conv2d(x, spec, w)

    sections, _ = count_ops(labelled)
    assert sections == {"enc1": 98_304, None: 98_304}


def test_frenet_figures_pinned():
    report = count_params_macs(NetworkConfig(name="frenet"))
    assert (report.params, report.conv_macs, report.fft_flops) == (21_104_350, 2_133_829_632, 77_987_840)
    assert list(report.sections.items()) == [
        ("intro", 4_718_592),
        ("enc1", 333_590_528),
        ("enc2", 254_759_936),
        ("enc3", 195_829_760),
        ("mid", 562_323_456),
        ("dec3", 193_732_608),
        ("dec2", 252_662_784),
        ("dec1", 331_493_376),
        ("final", 4_718_592),
    ]


def tiny_macs_spreadsheet(cfg, base):
    """Independent per-layer MAC summation for the tiny config."""

    def block(c, s):
        packed, hw = 2 * c, s * s
        grid = make_patch_grid(s, s, cfg.grid_target)
        mn, plen = grid.rows * grid.cols, grid.patch_h * grid.patch_w
        total = 2 * packed * packed * hw            # conv_in (packed -> 2*packed)
        total += 2 * packed * 9 * hw                # depthwise 3x3 on 2*packed
        total += mn * (KBG_HIDDEN + plen * KBG_HIDDEN)   # kernel generator
        total += mn * (KBG_HIDDEN + KBG_HIDDEN)          # bias generator
        total += mn * packed * packed               # per-patch projection
        total += packed * packed                    # sca projection
        total += packed * packed * hw               # conv_out
        hidden = math.ceil(cfg.ffn_expand * c)
        total += 2 * hidden * c * hw + 2 * hidden * 9 * hw + c * hidden * hw
        return total

    total = cfg.width * cfg.in_channels * 9 * base * base  # intro
    ch, s = cfg.width, base
    for i in range(cfg.scales):
        ch, s = ch * 2, s // 2
        total += ch * (ch // 2) * 4 * s * s                # downsample
        total += cfg.enc_blocks[i] * block(ch, s)
    total += cfg.bottleneck_blocks * block(ch, s)
    for i in range(cfg.scales - 1, -1, -1):
        c_i, s_i = cfg.width << (i + 1), base >> (i + 1)
        total += cfg.dec_blocks[i] * block(c_i, s_i)
        total += c_i * c_i * s_i * s_i                     # upsample conv1
        total += (c_i // 2) * (c_i // 4) * 4 * s_i * s_i   # upsample conv2
    total += cfg.in_channels * cfg.width * 9 * base * base  # final
    return total


def test_tiny_macs_match_spreadsheet_oracle():
    cfg = tiny_config(base_size=32)
    report = count_params_macs(cfg)
    assert report.conv_macs == tiny_macs_spreadsheet(cfg, 32)


def test_fft_flops_formula():
    cfg = tiny_config(base_size=32)
    report = count_params_macs(cfg)
    want = 0
    ch, s = cfg.width, 32
    per_scale = []
    for i in range(cfg.scales):
        ch, s = ch * 2, s // 2
        per_scale.append((ch, s))
    blocks = list(
        (cfg.enc_blocks[i] + cfg.dec_blocks[i], per_scale[i]) for i in range(cfg.scales)
    )
    blocks.append((cfg.bottleneck_blocks, per_scale[-1]))
    for count, (c, size) in blocks:
        hw = size * size
        want += count * 2 * c * int(5 * hw * math.log2(hw))
    assert report.fft_flops == want


def frenet_plus():
    """The paper's width-64, 20-block preset."""
    return NetworkConfig(name="frenet-plus", width=64, enc_blocks=(4, 4, 1), bottleneck_blocks=2,
                         dec_blocks=(4, 4, 1))


def test_presets_advertised_block_totals():
    assert NetworkConfig(name="frenet").block_total == 24
    assert frenet_plus().block_total == 20


def test_frenet_plus_builds_and_reports_reference():
    cfg = frenet_plus()
    net = build_frenet(cfg, seed=0)
    report = count_params_macs(cfg)
    assert report.params == net.param_count()
    assert report.reference_params is not None
    assert abs(report.params_deviation) < 0.25  # informational preset, still close


def test_ablated_configs_change_the_walk():
    full = count_params_macs(tiny_config(base_size=32))
    pooled = count_params_macs(tiny_config(base_size=32, use_pooling_variant=True))
    global_only = count_params_macs(tiny_config(base_size=32, use_local_branch=False))
    assert pooled.conv_macs < full.conv_macs
    assert pooled.params < full.params
    assert global_only.conv_macs < pooled.conv_macs


def test_walk_matches_runtime_operation_count(monkeypatch):
    """Count MACs by instrumenting the actual ops during one forward pass."""
    import frenet.afpm as afpm_mod
    import frenet.arch as arch_mod
    from frenet.tensor import Tensor as T
    from frenet.tensor import conv2d as real_conv2d
    from frenet.tensor import linear as real_linear

    counted = {"macs": 0}

    def counting_conv2d(x, spec, weight, bias=None):
        out = real_conv2d(x, spec, weight, bias)
        _, h_out, w_out = out.shape
        counted["macs"] += (
            spec.out_channels * (spec.in_channels // spec.groups)
            * spec.kernel_h * spec.kernel_w * h_out * w_out
        )
        return out

    def counting_linear(x, w, b):
        n, k = x.shape
        m = w.shape[0]
        counted["macs"] += n * k * m
        return real_linear(x, w, b)

    monkeypatch.setattr(arch_mod, "conv2d", counting_conv2d)
    monkeypatch.setattr(afpm_mod, "linear", counting_linear)

    cfg = tiny_config(base_size=32)
    net = build_frenet(cfg, seed=0)
    net.forward(T(np.zeros((4, 32, 32), dtype=np.float32)))
    assert counted["macs"] == count_params_macs(cfg).conv_macs
