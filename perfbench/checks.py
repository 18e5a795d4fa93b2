"""Correctness oracles for the benchmark, computed apart from the program.

Every oracle here is plain numpy: the loss is recomputed with ``numpy.fft``,
gradients are checked against float64 central differences, tiled inference is
rebuilt from the network's own per-tile forward with a separately written
sin^2 window, and PGM files are parsed without the program's reader. Each
check returns a ``CheckResult``; the runner counts a failed check as a failed
operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# float32 forward vs float64 recomputation of a loss near 0.03.
LOSS_RTOL = 1e-5
# Central differences along a unit direction in float64. The step is small so
# that few L1 residuals change sign across it; float64 keeps rounding far below.
DIRECTIONAL_EPS = 1e-6
DIRECTIONAL_RTOL = 1e-3
# The program writes rounded 16-bit counts; the reference stays unrounded.
COUNTS_ATOL = 0.5 + 1e-3
PSNR_AGREE_DB = 1e-3


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def numpy_loss(pred: np.ndarray, target: np.ndarray, fr_weight: float) -> float:
    """mean|pred - target| + w * mean|FFT(pred) - FFT(target)| over re and im planes."""
    diff = np.asarray(pred, np.float64) - np.asarray(target, np.float64)
    spectrum = np.fft.fft2(diff, norm="ortho")  # linear: F(p) - F(t) = F(p - t)
    freq = 0.5 * (np.abs(spectrum.real).mean() + np.abs(spectrum.imag).mean())
    return float(np.abs(diff).mean() + fr_weight * freq)


def check_loss(program_loss: float, pred: np.ndarray, target: np.ndarray,
               fr_weight: float) -> CheckResult:
    expected = numpy_loss(pred, target, fr_weight)
    err = abs(program_loss - expected) / max(abs(expected), 1e-12)
    return CheckResult("loss_oracle", err <= LOSS_RTOL,
                       f"program {program_loss:.9g} numpy {expected:.9g} rel err {err:.2e}")


def directional_derivative(loss_fn, params, seed: int) -> tuple[float, float, float]:
    """(analytic, numeric, scale) for one seeded direction, with parameters in float64.

    The direction gives every parameter tensor the same share of a unit vector,
    so small tensors (AFPM generators, norms) weigh as much as large convs.
    ``scale`` is the typical size of a directional derivative, used as the floor
    of the relative error. Parameters are restored to their float32 values.
    """
    saved = [(p, p.data, p.grad) for p in params]
    rng = np.random.default_rng(seed)
    try:
        for p in params:
            p.data = p.data.astype(np.float64)
            p.grad = None
        loss = loss_fn()
        loss.backward()
        directions, analytic, grad_sq = [], 0.0, 0.0
        for p in params:
            d = rng.standard_normal(p.data.shape)
            d /= np.linalg.norm(d) * math.sqrt(len(params))
            g = np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad, np.float64)
            directions.append(d)
            analytic += float(np.sum(g * d))
            grad_sq += float(np.sum(g * g))
        base = [p.data for p in params]
        values = []
        for sign in (1.0, -1.0):
            for p, x, d in zip(params, base, directions):
                p.data = x + sign * DIRECTIONAL_EPS * d
            values.append(loss_fn().item())
        numeric = (values[0] - values[1]) / (2.0 * DIRECTIONAL_EPS)
        scale = math.sqrt(grad_sq / sum(p.size for p in params))
        return analytic, numeric, scale
    finally:
        for p, data, grad in saved:
            p.data, p.grad = data, grad


def check_directional(analytic: float, numeric: float, scale: float) -> CheckResult:
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), scale)
    return CheckResult("directional_derivative", err <= DIRECTIONAL_RTOL,
                       f"tape {analytic:.6e} finite-diff {numeric:.6e} rel err {err:.2e}")


def numpy_psnr(outputs, targets) -> float:
    """Mean PSNR (peak 1) over image pairs; packing permutes pixels, so packed arrays do."""
    scores = []
    for out, ref in zip(outputs, targets):
        mse = np.mean(np.square(np.asarray(out, np.float64) - np.asarray(ref, np.float64)))
        scores.append(10.0 * math.log10(1.0 / mse))
    return float(np.mean(scores))


def check_training(before_db: float, after_db: float, program_db: float) -> CheckResult:
    """Training must not lower validation PSNR, and the program must report it right."""
    ok = after_db >= before_db and abs(program_db - after_db) <= PSNR_AGREE_DB
    return CheckResult("training_property", ok,
                       f"untrained {before_db:.4f} dB trained {after_db:.4f} dB "
                       f"program reports {program_db:.4f} dB")


def tile_starts(extent: int, window: int, stride: int) -> list[int]:
    starts = list(range(0, extent - window + 1, stride))
    if starts[-1] != extent - window:
        starts.append(extent - window)
    return starts


def pack(plane: np.ndarray) -> np.ndarray:
    """HxW RGGB mosaic -> 4x(H/2)x(W/2)."""
    return np.stack([plane[0::2, 0::2], plane[0::2, 1::2], plane[1::2, 0::2], plane[1::2, 1::2]])


def unpack(packed: np.ndarray) -> np.ndarray:
    _, h, w = packed.shape
    plane = np.empty((2 * h, 2 * w), dtype=packed.dtype)
    plane[0::2, 0::2], plane[0::2, 1::2] = packed[0], packed[1]
    plane[1::2, 0::2], plane[1::2, 1::2] = packed[2], packed[3]
    return plane


def reference_tiled(forward, packed: np.ndarray, window: int, overlap: int) -> np.ndarray:
    """Blend per-tile outputs with a separable sin^2 window and normalise, in float64."""
    c, h, w = packed.shape
    t = (np.arange(window) + 0.5) / window
    profile = np.sin(math.pi * t) ** 2
    weight = np.outer(profile, profile)
    acc = np.zeros((c, h, w))
    norm = np.zeros((h, w))
    for y in tile_starts(h, window, window - overlap):
        for x in tile_starts(w, window, window - overlap):
            out = forward(np.ascontiguousarray(packed[:, y : y + window, x : x + window]))
            acc[:, y : y + window, x : x + window] += weight * out
            norm[y : y + window, x : x + window] += weight
    return acc / norm


def check_counts(program: np.ndarray, reference: np.ndarray) -> CheckResult:
    err = float(np.abs(program.astype(np.float64) - reference).max())
    return CheckResult("tiled_infer", err <= COUNTS_ATOL,
                       f"max |program - reference| {err:.4f} counts (limit {COUNTS_ATOL})")


def check_identity(out: np.ndarray, image: np.ndarray) -> CheckResult:
    err = float(np.abs(np.asarray(out, np.float64) - image).max())
    return CheckResult("identity_tiling", err <= 1e-6, f"max |out - in| {err:.2e}")


def write_pgm(path, counts: np.ndarray) -> None:
    h, w = counts.shape
    data = np.clip(np.rint(counts), 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    fields = blob.split(maxsplit=4)
    if fields[0] != b"P5" or int(fields[3]) != 65535:
        raise ValueError(f"{path}: not a 16-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    payload = blob[len(blob) - 2 * w * h :]
    return np.frombuffer(payload, dtype=">u2").reshape(h, w).astype(np.float64)
