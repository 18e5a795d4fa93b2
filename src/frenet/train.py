"""Loss, Adam, cosine schedule, the training loop, and tiled inference.

The loss is mean absolute error plus a weighted frequency-reconstruction term:
the L1 distance between the real/imaginary parts of the orthonormal spectra of
prediction and target. One epoch is one seeded-shuffle pass over the corpus;
the learning rate follows cosine annealing per epoch. A training step stacks
its items into one batch and runs one forward and one backward, inside which
Adam updates each parameter as soon as its gradient is final and drops it.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .metrics import psnr
from .rawdata import bayer_unpack
from .spectral import complex_to_channels, fft2d
from .tensor import (
    ConfigurationError,
    EvaluationError,
    Parameter,
    Tensor,
    abs_,
    add,
    mean_all,
    no_grad,
    on_leaf,
    scale,
    sub,
    sum_in_order,
)


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    lr_min: float = 1e-6
    epochs: int = 10
    batch: int = 16
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    fr_weight: float = 0.01
    seed: int = 0
    max_steps: int | None = None  # optional hard cap, for fixed-step experiments
    val_count: int = 16

    def validate(self) -> None:
        if not (self.lr0 > self.lr_min > 0):
            raise ConfigurationError(f"need lr0 > lr_min > 0, got {self.lr0}/{self.lr_min}")
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            raise ConfigurationError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.fr_weight < 0:
            raise ConfigurationError(f"fr_weight must be >= 0, got {self.fr_weight}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1 or none, got {self.max_steps}")


def loss_total(pred: Tensor, target: Tensor, fr_weight: float) -> Tensor:
    """mean|pred - target| + fr_weight * mean|F(pred) - F(target)| (L1 over re and im).

    On a batch (axes before CxHxW) it is the mean of the per-sample losses,
    summed in index order and scaled by 1/N.
    """
    if pred.shape != target.shape:
        raise ConfigurationError(f"loss shape mismatch {tuple(pred.shape)} vs {tuple(target.shape)}")
    total = mean_all(abs_(sub(pred, target)))
    if fr_weight != 0.0:
        spec_pred = complex_to_channels(fft2d(pred))
        spec_target = complex_to_channels(fft2d(target))
        l_fr = mean_all(abs_(sub(spec_pred, spec_target)))
        total = add(total, scale(l_fr, fr_weight))
    if total.data.ndim:
        total = scale(sum_in_order(total), 1.0 / total.size)
    return total


def cosine_lr(t: int, total: int, lr0: float, lr_min: float) -> float:
    """lr_min + 0.5*(lr0 - lr_min)*(1 + cos(pi*t/total)) for t in [0, total]."""
    if not 0 <= t <= total:
        raise ConfigurationError(f"epoch {t} outside [0, {total}]")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * t / total))


_ADAM_BLOCK = 1 << 15  # elements per block of Adam's update: 128 KiB per float32 array
_ZEROS = np.zeros(_ADAM_BLOCK, np.float32)  # a missing gradient's blocks
_ZEROS.flags.writeable = False


@dataclass
class AdamState:
    """Adam's moments, step count and scratch.

    ``lay_out(params)`` makes ``m`` and ``v`` two zeroed float32 buffers laid
    out by the parameters' sizes in the order given; ``m[name]`` and
    ``v[name]`` are a parameter's slices, in that order. ``adam_update``
    computes in the two float32 blocks of ``scratch``.
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, _ADAM_BLOCK), np.float32), repr=False)

    def lay_out(self, params: Sequence[Parameter]) -> None:
        """Zero moments for ``params``, which replace any held before."""
        for moments in (self.m, self.v):
            buffer, offset = np.zeros(sum(p.size for p in params), np.float32), 0
            moments.clear()
            for p in params:
                moments[p.name] = buffer[offset : offset + p.size].reshape(p.shape)
                offset += p.size


def adam_step(
    params: Sequence[Parameter],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place; missing gradients count as zero.

    A state with no moments yet lays them out for ``params``.
    """
    state.step += 1
    if not state.m:
        state.lay_out(params)
    for p in params:
        adam_update(p, state, lr, beta1, beta2, eps)


def adam_update(p: Parameter, state: AdamState, lr: float, beta1: float, beta2: float,
                eps: float) -> None:
    """Adam's update of one parameter at step ``state.step``, in place; a missing gradient counts as zero.

    The float32 chain runs ``_ADAM_BLOCK`` elements at a time through the
    state's scratch, so each element sees the same ops in the same order as in
    one pass over the whole parameter, and nothing of its size is allocated.
    A gradient that is not C-contiguous would be copied to be flattened; the
    ops hand over C-contiguous ones.
    """
    assert p.data.flags.c_contiguous, p.name  # so the flat view below is a view, not a copy
    t, data = state.step, p.data.reshape(-1)
    grad = p.grad.reshape(-1) if p.grad is not None else None
    m, v = state.m[p.name].reshape(-1), state.v[p.name].reshape(-1)
    for lo in range(0, data.size, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, data.size)
        g = grad[lo:hi] if grad is not None else _ZEROS[: hi - lo]
        mb, vb, (step, denom) = m[lo:hi], v[lo:hi], state.scratch[:, : hi - lo]
        mb *= beta1
        mb += np.multiply(g, 1.0 - beta1, out=step)
        vb *= beta2
        vb += np.multiply(np.square(g, out=step), 1.0 - beta2, out=step)
        np.divide(mb, 1.0 - beta1**t, out=step)  # m_hat
        np.divide(vb, 1.0 - beta2**t, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += eps
        step *= lr
        step /= denom
        data[lo:hi] -= step


@dataclass
class TrainResult:
    step_losses: list[float]
    val_psnr: list[float]
    best_psnr: float


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """One batch from equally shaped tensors, in order."""
    return Tensor(np.stack([t.data for t in tensors]))


def validation_psnr(net, pairs: Sequence[tuple[Tensor, Tensor]], batch: int = 1) -> float:
    """Mean PSNR on unpacked single-channel RAW, network output vs sharp; records no tape.

    Pairs run through the network ``batch`` at a time.
    """
    scores = []
    with no_grad():
        for lo in range(0, len(pairs), batch):
            chunk = pairs[lo : lo + batch]
            out = net.forward(stack([blurred for blurred, _ in chunk]))
            for restored, (_, sharp) in zip(out.data, chunk):
                scores.append(psnr(bayer_unpack(Tensor(restored)), bayer_unpack(sharp)))
    return float(np.mean(scores))


def train(
    net,
    corpus: Sequence[tuple[Tensor, Tensor]],
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    val_pairs: Sequence[tuple[Tensor, Tensor]] | None = None,
    log: Callable[[str], None] | None = None,
    preprocess=None,
) -> TrainResult:
    """Seeded Adam-over-epochs driver writing ".fckpt" checkpoints and a line log.

    When ``val_pairs`` is None the last ``cfg.val_count`` corpus items are held
    out, keeping at least one for training; a split that holds out nothing is
    an error. Aborts with the last good checkpoint if the loss turns non-finite.
    A step updates each parameter inside the backward sweep, as soon as its
    gradient is final, and drops the gradient; the parameters the sweep does
    not reach are updated after it with a zero gradient. Bit for bit, that is
    ``backward()`` followed by ``adam_step``. A checkpoint of the state the
    last one was written at, such as ``final.fckpt`` right after
    ``best.fckpt``, is a hard link of that file where the file system allows.
    """
    from .fileio import link_checkpoint, save_checkpoint

    cfg.validate()
    if not corpus:
        raise ConfigurationError("training corpus is empty")
    if val_pairs is None:
        held = min(cfg.val_count, len(corpus) - 1)
        if held < 1:
            raise ConfigurationError(f"val_count {cfg.val_count} holds out none of {len(corpus)} items")
        val_pairs = corpus[len(corpus) - held :]
        corpus = corpus[: len(corpus) - held]
    if not corpus:
        raise ConfigurationError("no training items left after validation split")

    params = list(net.parameters().values())
    state = AdamState()
    rng = np.random.default_rng(cfg.seed)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    lines: list[str] = []

    def emit(text: str) -> None:
        lines.append(text)
        if log is not None:
            log(text)

    written: tuple[int, Path] | None = None  # the step and path of the last checkpoint written

    def write_ckpt(path: Path) -> None:
        nonlocal written
        if written is not None and written[0] == state.step:  # that file holds these bytes
            try:
                link_checkpoint(written[1], path)
                return
            except OSError:  # no hard link possible: write the bytes again
                pass
        save_checkpoint(path, net, adam=state, preprocess=preprocess)
        written = (state.step, path)

    step_losses: list[float] = []
    val_history: list[float] = []
    best = -math.inf
    steps_per_epoch = max(len(corpus) // cfg.batch, 1)
    done = False

    for epoch in range(1, cfg.epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.epochs, cfg.lr0, cfg.lr_min)
        order = rng.permutation(len(corpus))
        for k in range(steps_per_epoch):
            batch = order[k * cfg.batch : (k + 1) * cfg.batch]
            net.zero_grad()
            blurred = stack([corpus[idx][0] for idx in batch])
            sharp = stack([corpus[idx][1] for idx in batch])
            loss = loss_total(net.forward(blurred), sharp, cfg.fr_weight)
            value = loss.item()
            if not math.isfinite(value):
                if out_dir is not None:
                    write_ckpt(out_dir / "final.fckpt")
                raise EvaluationError(
                    f"non-finite loss {value} at epoch {epoch} batch {k} "
                    f"(batch indices {list(map(int, batch))})"
                )
            state.step += 1
            if not state.m:  # laid out in the parameters' order, as adam_step lays them out
                state.lay_out(params)
            pending = {id(p): p for p in params}

            def update(p: Parameter) -> None:
                adam_update(p, state, lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
                p.grad = None  # no gradient outlives its update
                del pending[id(p)]

            with on_leaf(update):
                loss.backward()
            for p in list(pending.values()):  # not reached by the sweep: a zero gradient
                update(p)
            step_losses.append(value)
            emit(f"epoch {epoch} step {state.step} lr {lr:.6g} loss {value:.6f}")
            if cfg.max_steps is not None and state.step >= cfg.max_steps:
                done = True
                break
        if val_pairs:
            score = validation_psnr(net, val_pairs, cfg.batch)
            val_history.append(score)
            emit(f"epoch {epoch} step {state.step} lr {lr:.6g} loss {step_losses[-1]:.6f} val_psnr {score:.4f}")
            if score > best:
                best = score
                if out_dir is not None:
                    write_ckpt(out_dir / "best.fckpt")
        if done:
            break

    if out_dir is not None:
        write_ckpt(out_dir / "final.fckpt")
        (out_dir / "training.log").write_text("\n".join(lines) + "\n")
    return TrainResult(
        step_losses=step_losses,
        val_psnr=val_history,
        best_psnr=best,
    )


def _tile_positions(extent: int, window: int, stride: int) -> list[int]:
    positions = list(range(0, extent - window + 1, stride))
    if positions[-1] != extent - window:
        positions.append(extent - window)
    return positions


def raised_cosine_profile(window: int) -> np.ndarray:
    """Half-sample-offset Hann profile; strictly positive on [0, window)."""
    t = (np.arange(window) + 0.5) / window
    return np.square(np.sin(math.pi * t))


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads one BLAS call may use, as OpenBLAS reads them from the
    environment: the first positive count in ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, else one per usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cpus()


def tile_workers(tiles: int) -> int:
    """Tiles forwarded at once: the usable CPUs that BLAS leaves idle, at least one.

    BLAS threads multiply with these, so at BLAS's default of one thread per
    CPU tiles run one at a time; at one BLAS thread, one per usable CPU.
    """
    return min(tiles, max(1, usable_cpus() // blas_threads()))


def sliding_window_infer(forward: Callable[[Tensor], Tensor], image: Tensor,
                         window: int, overlap: int) -> Tensor:
    """Tile the image, run ``forward`` per tile, and blend with raised-cosine weights.

    Tiles run with no tape on a pool of ``tile_workers`` threads, concurrently
    when BLAS leaves CPUs idle; each task runs in a copy of the caller's
    context, so the caller's ``observe`` applies there too. Their outputs are
    blended in index order, in float64, so the result does not depend on
    which tile finishes first. A tile's error reaches the caller as raised.
    A single tile comes back bit-identical to its forward output: weighting and
    normalizing by the same positive weight is exact once rounded to float32.
    """
    c, h, w = image.shape
    if window > h or window > w:
        raise ConfigurationError(f"window {window} exceeds image {h}x{w}")
    if not 0 <= overlap < window:
        raise ConfigurationError(f"overlap {overlap} must be in [0, window)")

    profile = raised_cosine_profile(window)
    weight = np.outer(profile, profile)
    stride = window - overlap
    corners = [(y0, x0) for y0 in _tile_positions(h, window, stride)
               for x0 in _tile_positions(w, window, stride)]

    def run(corner: tuple[int, int], context: contextvars.Context) -> np.ndarray:
        y0, x0 = corner
        tile = Tensor(np.ascontiguousarray(image.data[:, y0 : y0 + window, x0 : x0 + window]))
        return context.run(forward, tile).data

    acc_val = np.zeros((c, h, w))
    acc_w = np.zeros((h, w))
    with no_grad(), ThreadPoolExecutor(tile_workers(len(corners))) as pool:
        contexts = [contextvars.copy_context() for _ in corners]
        # map yields in submission order and, on a raise, cancels the tiles not yet started
        for (y0, x0), out in zip(corners, pool.map(run, corners, contexts)):
            acc_val[:, y0 : y0 + window, x0 : x0 + window] += out.astype(np.float64) * weight
            acc_w[y0 : y0 + window, x0 : x0 + window] += weight
    return Tensor((acc_val / acc_w).astype(np.float32))
