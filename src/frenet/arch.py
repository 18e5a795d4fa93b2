"""FrE-Blocks and the full U-shaped network with dual skip connections.

Each scale halves the spatial size and doubles the channel count. Encoder
layers halve the map first and then run their blocks; decoder layers add the
spatial skip, run their blocks (each receiving the stored encoder spectrum of
the same scale when frequency skips are enabled), then double the map. The
spectrum kept for the frequency skip is the block's processed output in the
centered frame as packed channels (real planes over imaginary planes), taken
before unpacking and un-shifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .afpm import Afpm, PatchGrid, make_patch_grid
from .spectral import (
    channels_to_complex,
    complex_to_channels,
    fft2d,
    fft_shift,
    ifft2d,
)
from .tensor import (
    ConfigurationError,
    ConvSpec,
    Parameter,
    Tensor,
    add,
    conv2d,
    depth_to_space,
    gelu_mul,
    global_avg_pool,
    is_power_of_two,
    layer_norm_channels,
    mul,
    parameter,
    parameter_buffer,
    section,
    simple_gate,
)

# Published efficiency figures for the preset configs (params, conv MACs on the
# preset's nominal input), used by the analyze report for comparison.
REFERENCE_EFFICIENCY = {
    "frenet": (19.76e6, 2.22e9),
    "frenet-plus": (48.38e6, 7.30e9),
}


@dataclass
class NetworkConfig:
    """Architectural hyperparameters, including the ablation toggles.

    Field order is the key order of rendered configs; ``name`` is the ``model`` key.
    """

    name: str = "custom"
    in_channels: int = 4
    width: int = 32
    scales: int = 3
    enc_blocks: tuple[int, ...] = (4, 3, 2)
    bottleneck_blocks: int = 6
    dec_blocks: tuple[int, ...] = (4, 3, 2)
    grid_target: int = 8
    base_size: int = 64
    ffn_expand: float = 2.0
    use_freq_skip: bool = True
    use_spatial_skip: bool = True
    use_local_branch: bool = True
    use_global_branch: bool = True
    use_pooling_variant: bool = False
    global_residual: bool = False

    def __post_init__(self):
        self.enc_blocks = tuple(self.enc_blocks)
        self.dec_blocks = tuple(self.dec_blocks)

    @property
    def block_total(self) -> int:
        return sum(self.enc_blocks) + self.bottleneck_blocks + sum(self.dec_blocks)

    def violations(self) -> list[str]:
        bad = []
        if self.in_channels < 1:
            bad.append(f"in_channels must be >= 1, got {self.in_channels}")
        if self.width < 2 or self.width % 2:
            bad.append(f"width must be a positive even number, got {self.width}")
        if self.scales < 1:
            bad.append(f"scales must be >= 1, got {self.scales}")
        if len(self.enc_blocks) != self.scales or len(self.dec_blocks) != self.scales:
            bad.append(
                f"enc_blocks/dec_blocks must list {self.scales} scales, got "
                f"{len(self.enc_blocks)}/{len(self.dec_blocks)}"
            )
        if any(n < 1 for n in self.enc_blocks) or any(m < 1 for m in self.dec_blocks):
            bad.append("every scale needs at least one block")
        if self.bottleneck_blocks < 1:
            bad.append(f"bottleneck_blocks must be >= 1, got {self.bottleneck_blocks}")
        # a power of two is divisible by 2^scales exactly when scales < its bit length
        if not is_power_of_two(self.base_size) or self.scales >= self.base_size.bit_length():
            bad.append(
                f"base_size must be a power of two divisible by 2^scales, got {self.base_size}"
            )
        if self.grid_target < 1:
            bad.append(f"grid_target must be >= 1, got {self.grid_target}")
        if self.ffn_expand <= 0:
            bad.append(f"ffn_expand must be positive, got {self.ffn_expand}")
        if not (self.use_local_branch or self.use_global_branch):
            bad.append("at least one of use_local_branch/use_global_branch must be enabled")
        return bad

    def validate(self) -> None:
        bad = self.violations()
        if bad:
            raise ConfigurationError("invalid config: " + "; ".join(bad))


def tiny_config(base_size: int = 16, **overrides) -> NetworkConfig:
    """Desk-scale fixture: width 4, two scales, one block per layer."""
    cfg = NetworkConfig(
        name="tiny",
        width=4,
        scales=2,
        enc_blocks=(1, 1),
        bottleneck_blocks=1,
        dec_blocks=(1, 1),
        base_size=base_size,
    )
    return replace(cfg, **overrides) if overrides else cfg


class Conv:
    """Convolution layer owning its spec, weight, and bias."""

    def __init__(self, prefix: str, spec: ConvSpec):
        self.spec = spec
        # Fan-in uniform bound 1/sqrt(fan_in); the gated/multiplicative blocks blow
        # up under hotter schemes.
        fan_in = (spec.in_channels // spec.groups) * spec.kernel_h * spec.kernel_w
        self.weight = parameter(f"{prefix}.weight", spec.weight_shape, bound=1.0 / math.sqrt(fan_in))
        self.bias = parameter(f"{prefix}.bias", (spec.out_channels,))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.spec, self.weight, self.bias)


class LayerNormChannels:
    def __init__(self, prefix: str, channels: int):
        self.gamma = parameter(f"{prefix}.gamma", (channels,), fill=1.0)
        self.beta = parameter(f"{prefix}.beta", (channels,))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm_channels(x, self.gamma, self.beta)


class Sca:
    """Simplified channel attention: pooled 1x1 projection rescales every channel."""

    def __init__(self, prefix: str, channels: int):
        self.proj = Conv(f"{prefix}.proj", ConvSpec(channels, channels, 1, 1))

    def __call__(self, x: Tensor) -> Tensor:
        return mul(self.proj(global_avg_pool(x)), x)


class Facm:
    """Frequency adaptive context module.

    Pipeline: FFT -> shift -> pack re/im as channels -> (+ frequency skip) ->
    layer norm -> 1x1 expand -> 3x3 depthwise -> SimpleGate -> local (AFPM) and
    global (SCA) branches -> fuse -> 1x1 -> unpack -> unshift -> IFFT, with a
    residual connection around the whole module. Returns the output and the
    packed centered spectrum fed to the unpack step, which a decoder block of
    the same scale takes as its frequency skip; the parents of its ``ifft2d``
    node are that spectrum unpacked and un-shifted, where an observer reads it.

    The 1x1 convs, AFPM and SCA mix the real and imaginary channels, so that
    spectrum is not Hermitian, and ``ifft2d`` keeps only its Hermitian part: at
    initialisation about half of the inverse transform's energy (0.48 to 0.51
    per FACM, tiny and paper presets) is in the imaginary part it drops.
    """

    def __init__(self, prefix: str, channels: int, cfg: NetworkConfig, grid: PatchGrid):
        packed = 2 * channels
        self.norm = LayerNormChannels(f"{prefix}.norm", packed)
        self.conv_in = Conv(f"{prefix}.conv_in", ConvSpec(packed, 2 * packed, 1, 1))
        self.dw = Conv(f"{prefix}.dw", ConvSpec(2 * packed, 2 * packed, 3, 3, groups=2 * packed))
        self.afpm = None
        if cfg.use_local_branch:
            self.afpm = Afpm(f"{prefix}.afpm", packed, grid, adaptive=not cfg.use_pooling_variant)
        self.sca = Sca(f"{prefix}.sca", packed) if cfg.use_global_branch else None
        self.conv_out = Conv(f"{prefix}.conv_out", ConvSpec(packed, packed, 1, 1))

    def __call__(self, f_in: Tensor, freq_skip: Tensor | None = None) -> tuple[Tensor, Tensor]:
        spectrum = complex_to_channels(fft_shift(fft2d(f_in)))
        if freq_skip is not None:
            if freq_skip.shape != spectrum.shape:
                raise ConfigurationError(
                    f"frequency skip shape {tuple(freq_skip.shape)} does not match "
                    f"spectrum {tuple(spectrum.shape)}"
                )
            spectrum = add(spectrum, freq_skip)
        f_norm = self.norm(spectrum)
        f_processed = simple_gate(self.dw(self.conv_in(f_norm)))
        branches = []
        if self.afpm is not None:
            branches.append(self.afpm(f_processed))
        if self.sca is not None:
            branches.append(self.sca(f_processed))
        f_fused = branches[0] if len(branches) == 1 else add(branches[0], branches[1])
        f_final = self.conv_out(f_fused)
        f_out = add(f_in, ifft2d(fft_shift(channels_to_complex(f_final), inverse=True)))
        return f_out, f_final


class Ffn:
    """Gated dual-branch feed-forward: two expand+depthwise paths multiplied, projected back."""

    def __init__(self, prefix: str, channels: int, expand: float):
        hidden = math.ceil(expand * channels)
        self.branch1_conv = Conv(f"{prefix}.branch1.conv", ConvSpec(channels, hidden, 1, 1))
        self.branch1_dw = Conv(f"{prefix}.branch1.dw", ConvSpec(hidden, hidden, 3, 3, groups=hidden))
        self.branch2_conv = Conv(f"{prefix}.branch2.conv", ConvSpec(channels, hidden, 1, 1))
        self.branch2_dw = Conv(f"{prefix}.branch2.dw", ConvSpec(hidden, hidden, 3, 3, groups=hidden))
        self.proj = Conv(f"{prefix}.proj", ConvSpec(hidden, channels, 1, 1))

    def __call__(self, f_in: Tensor) -> Tensor:
        gate = self.branch1_dw(self.branch1_conv(f_in))
        value = self.branch2_dw(self.branch2_conv(f_in))
        return add(f_in, self.proj(gelu_mul(gate, value)))


class FreBlock:
    """FACM then FFN; the nodes made inside carry the block's path (``enc1.blk0``) as label."""

    def __init__(self, name: str, channels: int, cfg: NetworkConfig, grid: PatchGrid):
        self.name = name
        self.facm = Facm(f"{name}.facm", channels, cfg, grid)
        self.ffn = Ffn(f"{name}.ffn", channels, cfg.ffn_expand)

    def __call__(self, f_in, freq_skip=None):
        with section(self.name):
            f_mid, spectrum = self.facm(f_in, freq_skip)
            return self.ffn(f_mid), spectrum


class Down:
    """2x2 stride-2 convolution doubling the channel count."""

    def __init__(self, prefix: str, channels: int):
        self.conv = Conv(prefix, ConvSpec(channels, 2 * channels, 2, 2, stride=2))

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv(x)


class Up:
    """1x1 conv, depth-to-space by 2, then 1x1 conv: 2C x H x W -> C x 2H x 2W."""

    def __init__(self, prefix: str, in_channels: int):
        self.conv1 = Conv(f"{prefix}.conv1", ConvSpec(in_channels, in_channels, 1, 1))
        self.conv2 = Conv(f"{prefix}.conv2", ConvSpec(in_channels // 4, in_channels // 2, 1, 1))

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv2(depth_to_space(self.conv1(x)))


@dataclass
class _EncStage:
    down: Down
    blocks: list[FreBlock] = field(default_factory=list)


@dataclass
class _DecStage:
    blocks: list[FreBlock]
    up: Up


class FrENet:
    """The assembled network; parameters carry deterministic dotted-path names.

    All parameters are slices of one float32 buffer, in record order. ``seed``
    draws the initial weights into it; ``seed=None`` draws nothing and leaves
    every parameter zero, with the names, shapes and order of a seeded build,
    for a network whose values come from a checkpoint.
    """

    def __init__(self, cfg: NetworkConfig, seed: int | None = 0):
        cfg.validate()
        self.cfg = cfg
        with parameter_buffer(None if seed is None else np.random.default_rng(seed)) as params:
            self._build(cfg)
        if cfg.global_residual:
            # Residual completion: start as the exact identity so training
            # begins from the degraded input's own quality.
            self.final.weight.data[...] = 0.0
        self._params: dict[str, Parameter] = {}
        for p in params:
            if p.name in self._params:
                raise ConfigurationError(f"duplicate parameter name {p.name}")
            self._params[p.name] = p

    def _build(self, cfg: NetworkConfig) -> None:
        """Make every module, so every parameter, in checkpoint record order."""
        c_in, width = cfg.in_channels, cfg.width
        self.intro = Conv("intro", ConvSpec(c_in, width, 3, 3))

        self.enc_stages: list[_EncStage] = []
        channels, size = width, cfg.base_size
        for i in range(1, cfg.scales + 1):
            stage = _EncStage(down=Down(f"enc{i}.down", channels))
            channels *= 2
            size //= 2
            grid = make_patch_grid(size, size, cfg.grid_target)
            for b in range(cfg.enc_blocks[i - 1]):
                stage.blocks.append(FreBlock(f"enc{i}.blk{b}", channels, cfg, grid))
            self.enc_stages.append(stage)

        grid = make_patch_grid(size, size, cfg.grid_target)
        self.mid_blocks = [FreBlock(f"mid.blk{b}", channels, cfg, grid) for b in range(cfg.bottleneck_blocks)]

        self.dec_stages: list[_DecStage] = []  # execution order: dec{scales} first
        for i in range(cfg.scales, 0, -1):
            ch_i = width << i
            size_i = cfg.base_size >> i
            grid = make_patch_grid(size_i, size_i, cfg.grid_target)
            blocks = [FreBlock(f"dec{i}.blk{b}", ch_i, cfg, grid) for b in range(cfg.dec_blocks[i - 1])]
            self.dec_stages.append(_DecStage(blocks=blocks, up=Up(f"dec{i}.up", ch_i)))

        self.final = Conv("final", ConvSpec(width, c_in, 3, 3))

    def parameters(self) -> dict[str, Parameter]:
        return self._params

    def param_count(self) -> int:
        return sum(p.size for p in self._params.values())

    def blocks(self) -> Iterable[FreBlock]:
        for stage in self.enc_stages:
            yield from stage.blocks
        yield from self.mid_blocks
        for stage in self.dec_stages:
            yield from stage.blocks

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def forward(self, y: Tensor) -> Tensor:
        """Restore one CxHxW input, or a batch of them stacked on leading axes."""
        cfg = self.cfg
        expected = (cfg.in_channels, cfg.base_size, cfg.base_size)
        if tuple(y.shape[-3:]) != expected:
            raise ConfigurationError(
                f"input shape {tuple(y.shape)} does not match the built geometry {expected}"
            )
        with section("intro"):
            f = self.intro(y)
        store: list[Tensor] = []
        enc_feats: list[Tensor] = []
        for i, stage in enumerate(self.enc_stages, start=1):
            with section(f"enc{i}"):
                f = stage.down(f)
                for blk in stage.blocks:
                    f, spectrum = blk(f)
            assert f.shape[-3:] == (cfg.width << i, cfg.base_size >> i, cfg.base_size >> i)
            store.append(spectrum)
            enc_feats.append(f)

        with section("mid"):
            for blk in self.mid_blocks:
                f, _ = blk(f)

        decoder = zip(range(cfg.scales, 0, -1), self.dec_stages, reversed(enc_feats), reversed(store))
        for i, stage, feat, stored in decoder:
            with section(f"dec{i}"):
                if cfg.use_spatial_skip:
                    f = add(f, feat)
                for blk in stage.blocks:
                    f, _ = blk(f, stored if cfg.use_freq_skip else None)
                f = stage.up(f)

        with section("final"):
            out = self.final(f)
            if cfg.global_residual:
                out = add(out, y)
        return out


def build_frenet(cfg: NetworkConfig, seed: int | None = 0) -> FrENet:
    """Construct the network, with every parameter zero when ``seed`` is None;
    raises ConfigurationError listing every violation."""
    return FrENet(cfg, seed=seed)
