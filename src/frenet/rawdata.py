"""RAW preprocessing and a seeded synthetic blur-pair generator.

Sensor counts are black-level subtracted and normalized to [0, 1]; the Bayer
mosaic is packed RGGB into four aligned channels at half resolution. Synthetic
sharp images are procedural (gradients, rectangles, disks, band-limited
texture) so every octave of the spectrum carries energy, and blur is circular
so the frequency-domain oracle for it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import ConfigurationError, Tensor

DEFAULT_BLACK_LEVEL = 64.0
DEFAULT_WHITE_LEVEL = 1023.0
CORPUS_FILE = "pairs.ften"


@dataclass(frozen=True)
class PreprocessSpec:
    black_level: float = DEFAULT_BLACK_LEVEL
    white_level: float = DEFAULT_WHITE_LEVEL

    def __post_init__(self):
        if self.black_level < 0:
            raise ConfigurationError(f"black_level must be >= 0, got {self.black_level}")
        if self.white_level <= self.black_level:
            raise ConfigurationError(
                f"white_level ({self.white_level}) must exceed black_level ({self.black_level})"
            )


def preprocess_raw(x: Tensor, spec: PreprocessSpec) -> Tensor:
    """clamp((counts - black) / (white - black), 0, 1)."""
    scale = spec.white_level - spec.black_level
    out = np.clip((x.data - spec.black_level) / scale, 0.0, 1.0)
    return Tensor(out.astype(np.float32))


def to_sensor_counts(x: Tensor, spec: PreprocessSpec) -> Tensor:
    """Inverse of preprocess_raw for in-range values."""
    out = x.data * (spec.white_level - spec.black_level) + spec.black_level
    return Tensor(out.astype(np.float32))


def bayer_pack(x: Tensor) -> Tensor:
    """1xHxW RGGB mosaic -> 4x(H/2)x(W/2) channels (R, G1, G2, B)."""
    if x.data.ndim != 3 or x.shape[0] != 1:
        raise ConfigurationError(f"bayer_pack expects 1xHxW, got {tuple(x.shape)}")
    _, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigurationError(f"bayer_pack needs even dims, got {h}x{w}")
    plane = x.data[0]
    packed = np.stack(
        [plane[0::2, 0::2], plane[0::2, 1::2], plane[1::2, 0::2], plane[1::2, 1::2]]
    )
    return Tensor(np.ascontiguousarray(packed))


def bayer_unpack(x: Tensor) -> Tensor:
    """Exact inverse of bayer_pack."""
    if x.data.ndim != 3 or x.shape[0] != 4:
        raise ConfigurationError(f"bayer_unpack expects 4xHxW, got {tuple(x.shape)}")
    _, h, w = x.shape
    plane = np.empty((2 * h, 2 * w), dtype=x.data.dtype)
    plane[0::2, 0::2] = x.data[0]
    plane[0::2, 1::2] = x.data[1]
    plane[1::2, 0::2] = x.data[2]
    plane[1::2, 1::2] = x.data[3]
    return Tensor(plane[None])


def gen_sharp(seed: int, h: int, w: int) -> Tensor:
    """Deterministic procedural test image in [0, 1] with content at every octave."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    img = 0.3 + rng.uniform(-0.25, 0.25) * yy + rng.uniform(-0.25, 0.25) * xx

    for _ in range(2):
        fy, fx = rng.uniform(1.0, 4.0, size=2)
        phase = rng.uniform(0, 2 * math.pi)
        img += rng.uniform(0.05, 0.15) * np.sin(2 * math.pi * (fy * yy + fx * xx) + phase)

    for _ in range(6):
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        hh = int(rng.integers(h // 8, max(h // 2, h // 8 + 1)))
        ww = int(rng.integers(w // 8, max(w // 2, w // 8 + 1)))
        img[y0 : y0 + hh, x0 : x0 + ww] += rng.uniform(-0.35, 0.35)

    for _ in range(4):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        radius = rng.uniform(min(h, w) / 16, min(h, w) / 5)
        mask = (np.arange(h)[:, None] - cy) ** 2 + (np.arange(w)[None, :] - cx) ** 2 < radius**2
        img[mask] += rng.uniform(-0.3, 0.3)

    # Band-limited texture concentrated where mild gaussian blur attenuates
    # hard but the content stays above the read-noise floor, so the detail a
    # deblurrer must restore actually exists in every image.
    noise = rng.standard_normal((h, w))
    spec = np.fft.fft2(noise)
    fy = np.minimum(np.arange(h), h - np.arange(h))[:, None] / h
    fx = np.minimum(np.arange(w), w - np.arange(w))[None, :] / w
    radius = np.sqrt(fy**2 + fx**2)
    band = (radius >= 0.06) & (radius <= 0.20)
    texture = np.fft.ifft2(spec * band).real
    texture /= max(np.abs(texture).max(), 1e-9)
    img += 0.12 * texture

    lo, hi = img.min(), img.max()
    img = (img - lo) / max(hi - lo, 1e-9)
    return Tensor(img[None].astype(np.float32))


def gen_kernel(
    seed: int,
    kind: str = "gaussian",
    size: int = 5,
    sigma_range: tuple[float, float] = (0.8, 2.5),
) -> np.ndarray:
    """Seeded blur kernel, isotropic gaussian or rasterized linear motion, as its
    size x size float32 weights, non-negative and summing to 1 (``size`` odd)."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        s = float(rng.uniform(*sigma_range))
        offs = np.arange(size) - (size - 1) / 2.0
        w = np.exp(-(offs[:, None] ** 2 + offs[None, :] ** 2) / (2.0 * s * s))
    elif kind == "motion":
        length = int(rng.integers(3, size + 1))
        w = motion_line(size, length, float(rng.uniform(0.0, math.pi)))
    else:
        raise ConfigurationError(f"unknown kernel kind {kind!r}")
    w = w / w.sum(dtype=np.float64)
    return w.astype(np.float32)


def motion_line(size: int, length: int, angle: float) -> np.ndarray:
    """Unnormalized weights of a ``length``-tap line at ``angle`` through the grid's centre, taps bilinear."""
    c = (size - 1) / 2.0
    w = np.zeros((size, size))
    for i in range(length):
        t = -(length - 1) / 2.0 + i
        py, px = c + t * math.sin(angle), c + t * math.cos(angle)
        y0, x0 = int(math.floor(py)), int(math.floor(px))
        fy, fx = py - y0, px - x0
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dx, wx in ((0, 1 - fx), (1, fx)):
                if 0 <= y0 + dy < size and 0 <= x0 + dx < size and wy * wx > 0:
                    w[y0 + dy, x0 + dx] += wy * wx / length
    return w


def apply_blur(x: Tensor, kernel: np.ndarray) -> Tensor:
    """Circular (wrap-boundary) 2-D convolution with a centered kernel."""
    if x.data.ndim != 3 or x.shape[0] != 1:
        raise ConfigurationError(f"apply_blur expects 1xHxW, got {tuple(x.shape)}")
    _, h, w = x.shape
    size = kernel.shape[0]
    if size > min(h, w):
        raise ConfigurationError(f"kernel size {size} exceeds image {h}x{w}")
    c = (size - 1) // 2
    padded = np.pad(x.data[0].astype(np.float64), c, mode="wrap")
    out = np.zeros((h, w))
    for u in range(size):
        for v in range(size):
            kw = float(kernel[u, v])
            if kw:
                out += kw * padded[2 * c - u : 2 * c - u + h, 2 * c - v : 2 * c - v + w]
    return Tensor(out[None].astype(np.float32))


def embed_kernel(kernel: np.ndarray, h: int, w: int) -> Tensor:
    """Zero-pad a centered kernel to HxW with its center wrapped to index (0,0).

    With this embedding, apply_blur equals the pointwise spectral product route.
    """
    padded = np.zeros((h, w), dtype=np.float32)
    size = kernel.shape[0]
    c = (size - 1) // 2
    for u in range(size):
        for v in range(size):
            padded[(u - c) % h, (v - c) % w] = kernel[u, v]
    return Tensor(padded[None])


@dataclass
class DatasetItem:
    index: int
    blurred: Tensor  # 4 x H/2 x W/2, degraded then packed
    sharp: Tensor  # 4 x H/2 x W/2
    kernel_kind: str
    kernel_seed: int
    noise_sigma: float


def gen_dataset(
    seed: int,
    count: int,
    h: int,
    w: int,
    spec: PreprocessSpec,
    noise_sigma: float = 0.002,
    kernel_kind: str = "gaussian",
    kernel_size: int = 5,
    sigma_range: tuple[float, float] = (0.8, 2.5),
) -> list[DatasetItem]:
    """Deterministic corpus of (blurred, sharp) packed pairs.

    ``kernel_kind`` is gaussian, motion, mixed (alternating), or none (no blur,
    useful for plumbing tests). Noise lands only on the blurred input.
    """
    items = []
    for index in range(count):
        sharp_seed, kernel_seed, noise_seed = (
            int(v) for v in np.random.SeedSequence([seed, index]).generate_state(3)
        )
        sharp01 = gen_sharp(sharp_seed, h, w)
        kind = kernel_kind
        if kernel_kind == "mixed":
            kind = "gaussian" if index % 2 == 0 else "motion"
        if kind == "none":
            blurred01 = Tensor(sharp01.data.copy())
        else:
            kernel = gen_kernel(kernel_seed, kind, kernel_size, sigma_range=sigma_range)
            blurred01 = apply_blur(sharp01, kernel)
        if noise_sigma > 0:
            noise = np.random.default_rng(noise_seed).normal(0.0, noise_sigma, blurred01.shape)
            blurred01 = Tensor((blurred01.data + noise).astype(np.float32))
        blurred = bayer_pack(preprocess_raw(to_sensor_counts(blurred01, spec), spec))
        sharp = bayer_pack(preprocess_raw(to_sensor_counts(sharp01, spec), spec))
        items.append(
            DatasetItem(
                index=index,
                blurred=blurred,
                sharp=sharp,
                kernel_kind=kind,
                kernel_seed=kernel_seed,
                noise_sigma=noise_sigma,
            )
        )
    return items


def save_corpus(directory: str | Path, items: list[DatasetItem]) -> None:
    """Write ``pairs.ften``, the N x 2 x C x H x W stack of each item's blurred
    then sharp tensor, and ``manifest.txt``, one ``index kind kernel_seed
    noise_sigma`` line per item as provenance that no reader parses."""
    from .fileio import write_ften

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_ften(directory / CORPUS_FILE, np.stack([(it.blurred.data, it.sharp.data) for it in items]))
    lines = [f"{it.index} {it.kernel_kind} {it.kernel_seed} {it.noise_sigma:g}\n" for it in items]
    (directory / "manifest.txt").write_text("".join(lines))


def load_corpus(directory: str | Path) -> list[tuple[Tensor, Tensor]]:
    """The (blurred, sharp) pairs of ``pairs.ften``, views of its one tensor.

    It must be N x 2 x C x H x W; ``read_ften`` refuses a NaN or Inf.
    """
    from .fileio import read_ften

    path = Path(directory) / CORPUS_FILE
    data = read_ften(path)
    if data.ndim != 5 or data.shape[1] != 2:
        raise ConfigurationError(f"{path}: expected an Nx2xCxHxW tensor, got shape {data.shape}")
    return [(Tensor(blurred), Tensor(sharp)) for blurred, sharp in data]


def corpus_digest(directory: str | Path) -> str:
    """SHA-256 of the pairs' payload: each pair's blurred then sharp floats, in pair order."""
    import hashlib

    from .fileio import read_ften

    return hashlib.sha256(read_ften(Path(directory) / CORPUS_FILE)).hexdigest()
