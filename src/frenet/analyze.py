"""Parameter and MAC accounting for a network configuration.

MACs are counted op by op in one forward on a zero input, for convolution and
linear layers only: output elements * (in_channels/groups) * kH * kW per conv,
output elements * inner dimension per matmul. FFT work is reported separately
as 5*N*log2(N) real flops per transformed plane and is not folded into the
MACs figure, matching what common profilers count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arch import REFERENCE_EFFICIENCY, NetworkConfig, build_frenet
from .tensor import Tensor, no_grad, observe


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


def count_ops(run: Callable[[], object]) -> tuple[dict[str | None, int], int]:
    """(MACs per section in order of first use, FFT flops) of the ops ``run()`` makes;
    a block path label such as ``enc1.blk0`` counts towards its section ``enc1``."""
    sections: dict[str | None, int] = {}
    fft_flops = 0

    def count(op, label, out, parents, spec):
        nonlocal fft_flops
        if op in ("conv2d", "matmul"):
            # one MAC per weight feeding an output element, or per inner-dimension step
            per_output = math.prod(spec.weight_shape[1:]) if spec is not None else parents[0].shape[-1]
            name = label if label is None else label.split(".")[0]
            sections[name] = sections.get(name, 0) + out.size * per_output
        elif op in ("fft2d", "ifft2d"):
            n = out.shape[-2] * out.shape[-1]
            fft_flops += out.size // n * int(5 * n * math.log2(n))

    with no_grad(), observe(count):
        run()
    return sections, fft_flops


def count_params_macs(cfg: NetworkConfig) -> EfficiencyReport:
    """Exact parameter total (from the built tree) plus MACs and FFT flops of one forward.

    Both depend only on shapes, so the network is built without initial values."""
    net = build_frenet(cfg, seed=None)
    base = cfg.base_size
    zeros = Tensor(np.zeros((cfg.in_channels, base, base), dtype=np.float32))
    sections, fft_flops = count_ops(lambda: net.forward(zeros))

    ref = REFERENCE_EFFICIENCY.get(cfg.name)
    distribution = (
        f"enc {'-'.join(map(str, cfg.enc_blocks))}  bottleneck {cfg.bottleneck_blocks}  "
        f"dec {'-'.join(map(str, cfg.dec_blocks))}  scales {cfg.scales}  width {cfg.width}"
    )
    return EfficiencyReport(
        params=net.param_count(),
        conv_macs=sum(sections.values()),
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
