"""PSNR image quality metric."""

from __future__ import annotations

import math

import numpy as np

from .tensor import ConfigurationError, Tensor


def psnr(a: Tensor, b: Tensor, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE); identical inputs report +inf."""
    if a.shape != b.shape:
        raise ConfigurationError(f"psnr shape mismatch {tuple(a.shape)} vs {tuple(b.shape)}")
    mse = float(np.mean(np.square(a.data.astype(np.float64) - b.data.astype(np.float64))))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)
