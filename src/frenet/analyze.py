"""Parameter and MAC accounting for a network configuration.

MACs are counted for convolution and linear layers only, at
out_channels * (in_channels/groups) * kH * kW * H_out * W_out per application;
FFT work is reported separately as 5*N*log2(N) real flops per transform and is
not folded into the MACs figure, matching what common profilers count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .afpm import KBG_HIDDEN, make_patch_grid
from .arch import REFERENCE_EFFICIENCY, NetworkConfig, build_frenet


@dataclass
class EfficiencyReport:
    params: int
    conv_macs: int
    fft_flops: int
    input_shape: tuple[int, int, int]
    distribution: str
    sections: dict[str, int] = field(default_factory=dict)
    reference_params: float | None = None
    reference_macs: float | None = None

    @property
    def params_deviation(self) -> float | None:
        if self.reference_params is None:
            return None
        return self.params / self.reference_params - 1.0

    @property
    def macs_deviation(self) -> float | None:
        if self.reference_macs is None:
            return None
        return self.conv_macs / self.reference_macs - 1.0


def _conv_macs(out_ch: int, in_ch: int, k: int, out_hw: int, groups: int = 1) -> int:
    return out_ch * (in_ch // groups) * k * k * out_hw


def _block_macs(cfg: NetworkConfig, channels: int, size: int) -> tuple[int, int]:
    """(conv/linear MACs, fft flops) for one FrE-Block at this scale."""
    packed = 2 * channels
    hw = size * size
    macs = 0
    macs += _conv_macs(2 * packed, packed, 1, hw)  # facm conv_in
    macs += _conv_macs(2 * packed, 2 * packed, 3, hw, groups=2 * packed)  # facm dw
    grid = make_patch_grid(size, size, cfg.grid_target)
    mn = grid.rows * grid.cols
    plen = grid.patch_h * grid.patch_w
    if cfg.use_local_branch:
        if not cfg.use_pooling_variant:
            macs += mn * (KBG_HIDDEN * 1 + plen * KBG_HIDDEN)  # kernel generator
            macs += mn * (KBG_HIDDEN * 1 + 1 * KBG_HIDDEN)  # bias generator
        macs += mn * _conv_macs(packed, packed, 1, 1)  # per-patch projection
    if cfg.use_global_branch:
        macs += _conv_macs(packed, packed, 1, 1)  # sca projection on pooled vector
    macs += _conv_macs(packed, packed, 1, hw)  # facm conv_out

    hidden = math.ceil(cfg.ffn_expand * channels)
    macs += 2 * _conv_macs(hidden, channels, 1, hw)  # ffn branch convs
    macs += 2 * _conv_macs(hidden, hidden, 3, hw, groups=hidden)  # ffn branch dws
    macs += _conv_macs(channels, hidden, 1, hw)  # ffn projection

    fft = 2 * channels * int(5 * hw * math.log2(hw))  # forward + inverse transform
    return macs, fft


def count_params_macs(cfg: NetworkConfig) -> EfficiencyReport:
    """Exact parameter total (from the built tree) plus the MAC/flop walk."""
    cfg.validate()
    base = cfg.base_size
    params = build_frenet(cfg, seed=0).param_count()

    sections: dict[str, int] = {}
    macs = 0
    fft_flops = 0
    width = cfg.width

    sections["intro"] = _conv_macs(width, cfg.in_channels, 3, base * base)
    macs += sections["intro"]

    for i in range(1, cfg.scales + 1):
        ch = width << i
        size = base >> i
        stage_macs = _conv_macs(ch, ch // 2, 2, size * size)  # Down conv
        for _ in range(cfg.enc_blocks[i - 1]):
            bm, bf = _block_macs(cfg, ch, size)
            stage_macs += bm
            fft_flops += bf
        sections[f"enc{i}"] = stage_macs
        macs += stage_macs

    ch = width << cfg.scales
    size = base >> cfg.scales
    mid_macs = 0
    for _ in range(cfg.bottleneck_blocks):
        bm, bf = _block_macs(cfg, ch, size)
        mid_macs += bm
        fft_flops += bf
    sections["mid"] = mid_macs
    macs += mid_macs

    for i in range(cfg.scales, 0, -1):
        ch = width << i
        size = base >> i
        stage_macs = 0
        for _ in range(cfg.dec_blocks[i - 1]):
            bm, bf = _block_macs(cfg, ch, size)
            stage_macs += bm
            fft_flops += bf
        stage_macs += _conv_macs(ch, ch, 1, size * size)  # Up conv1
        stage_macs += _conv_macs(ch // 2, ch // 4, 1, 4 * size * size)  # Up conv2
        sections[f"dec{i}"] = stage_macs
        macs += stage_macs

    sections["final"] = _conv_macs(cfg.in_channels, width, 3, base * base)
    macs += sections["final"]

    ref = REFERENCE_EFFICIENCY.get(cfg.name)
    distribution = (
        f"enc {'-'.join(map(str, cfg.enc_blocks))}  bottleneck {cfg.bottleneck_blocks}  "
        f"dec {'-'.join(map(str, cfg.dec_blocks))}  scales {cfg.scales}  width {cfg.width}"
    )
    return EfficiencyReport(
        params=params,
        conv_macs=macs,
        fft_flops=fft_flops,
        input_shape=(cfg.in_channels, base, base),
        distribution=distribution,
        sections=sections,
        reference_params=ref[0] if ref else None,
        reference_macs=ref[1] if ref else None,
    )


def format_efficiency_report(cfg: NetworkConfig, report: EfficiencyReport) -> str:
    c, h, w = report.input_shape
    lines = [
        f"config        {cfg.name} ({report.params / 1e6:.2f}M params, {cfg.block_total} blocks)",
        f"distribution  {report.distribution}",
        f"input         {c}x{h}x{w} packed (raw {2 * h}x{2 * w}x1)",
        f"params        {report.params:,}",
        f"conv_macs     {report.conv_macs / 1e9:.3f}G",
        f"fft_flops     {report.fft_flops / 1e9:.3f}G (reported separately, excluded from MACs)",
    ]
    for name, value in report.sections.items():
        lines.append(f"  macs[{name:6s}] {value / 1e9:.4f}G")
    if report.reference_params is not None:
        lines.append(
            f"reference     params {report.reference_params / 1e6:.2f}M "
            f"(deviation {report.params_deviation:+.1%}), "
            f"macs {report.reference_macs / 1e9:.2f}G "
            f"(deviation {report.macs_deviation:+.1%})"
        )
    return "\n".join(lines)
