"""Finite-difference validation of the reverse-mode differentiation contract.

Probes compare the tape's gradient for randomly chosen scalar parameter
entries against central differences (f(t+h) - f(t-h)) / (2h) at h = STEP.
Parameters are promoted to float64 for the duration of the check: with float32
forwards the rounding noise at h ~ 1e-3 would swamp a 1e-3 relative tolerance,
so float32 probing could not distinguish a correct gradient from a broken one.
The production network itself stays float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import ConfigurationError, EvaluationError, Parameter, Tensor, no_grad

# The central difference's step and the relative error a probe may show.
STEP = TOL = 1e-3
# Gradients smaller than this are compared absolutely (|err| <= TOL * floor)
# instead of relatively; finite differences cannot resolve them any tighter.
REL_FLOOR = 1e-3


@dataclass
class Probe:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_error: float
    ok: bool


@dataclass
class GradCheckReport:
    probes: list[Probe] = field(default_factory=list)

    @property
    def pass_fraction(self) -> float:
        if not self.probes:
            return 1.0
        return sum(p.ok for p in self.probes) / len(self.probes)

    @property
    def worst(self) -> float:
        return max((p.rel_error for p in self.probes), default=0.0)

    def summary(self) -> str:
        return (
            f"{sum(p.ok for p in self.probes)}/{len(self.probes)} probes within "
            f"{TOL:g} (worst rel err {self.worst:.3e})"
        )


def grad_check(
    fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    probe_count: int = 100,
    seed: int = 0,
) -> GradCheckReport:
    """Probe ``fn`` (a deterministic scalar loss over ``params``) against central differences.

    ``fn`` must recompute the loss from the parameters' current values on every
    call; only the first records a tape. Returns per-probe relative errors and
    pass/fail at ``TOL``.
    """
    if probe_count < 1:
        raise ConfigurationError("probe_count must be >= 1")
    if not params:
        raise ConfigurationError("grad_check needs at least one parameter")

    saved = [(p, p.data, p.grad) for p in params]
    for p in params:
        p.data = p.data.astype(np.float64)
        p.grad = None
    try:
        loss = fn()
        base = loss.item()
        if not math.isfinite(base):
            raise EvaluationError(f"loss is non-finite ({base}) before any perturbation")
        loss.backward()
        analytic = {p.name: (np.zeros_like(p.data) if p.grad is None else np.array(p.grad)) for p in params}

        sizes = np.array([p.data.size for p in params])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total = int(offsets[-1])
        rng = np.random.default_rng(seed)
        count = min(probe_count, total)
        flat_choices = np.sort(rng.choice(total, size=count, replace=False))

        report = GradCheckReport()
        for flat in flat_choices:
            pi = int(np.searchsorted(offsets, flat, side="right") - 1)
            p = params[pi]
            idx = int(flat - offsets[pi])
            orig = p.data.flat[idx]
            with no_grad():
                p.data.flat[idx] = orig + STEP
                f_plus = fn().item()
                p.data.flat[idx] = orig - STEP
                f_minus = fn().item()
            p.data.flat[idx] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise EvaluationError(
                    f"loss became non-finite while probing parameter {p.name}[{idx}]"
                )
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            an = float(analytic[p.name].flat[idx])
            rel = abs(an - numeric) / max(abs(an), abs(numeric), REL_FLOOR)
            report.probes.append(Probe(p.name, idx, an, numeric, rel, rel <= TOL))
        return report
    finally:
        for p, data, grad in saved:
            p.data = data
            p.grad = grad
