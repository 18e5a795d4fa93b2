"""The benchmark's workloads: inputs, set-up, timed rounds and output checks.

A round is one whole user-level operation: one ``train()`` call from the
same initial weights on training workloads, one ``frenet infer`` of a RAW PGM
on the inference workload. Inputs come from ``--seed``, except the validation
set, which is fixed so that validation PSNR measures the program rather than
the images drawn.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from frenet import cli, fileio, rawdata
from frenet.arch import build_frenet
from frenet.runconfig import parse_run_config
from frenet.tensor import Tensor, add, scale
from frenet.train import loss_total, sliding_window_infer, train

ROOT = Path(__file__).resolve().parent.parent
# Training corpora use the even seed 2 * --seed, so this held-out set never overlaps them.
VAL_SEED = 1


@dataclass(frozen=True)
class Spec:
    config: str  # run config under configs/
    train_pairs: int = 0  # seeded training corpus size
    val_pairs: int = 0  # fixed validation set size
    batch: int = 0
    steps: int = 0  # training steps per round
    infer_raw: int = 0  # RAW side of the PGM restored per round
    base_size: int | None = None  # network geometry override (quick mode only)


SPECS = {
    # tiny.cfg as A3 runs it: 184 training pairs, 16 held out, one epoch of 23 steps.
    "train_tiny": Spec("tiny.cfg", train_pairs=184, val_pairs=16, batch=8, steps=23),
    # The paper preset at 128x128 RAW; batch 1 keeps a step near 2 s and peak memory near 1.5 GiB.
    "train_full": Spec("frenet.cfg", train_pairs=3, val_pairs=1, batch=1, steps=3),
    # 256x256 RAW is 3x3 windows of 128 at half overlap.
    "infer_tiled": Spec("frenet.cfg", infer_raw=256),
}
QUICK = {
    "train_tiny": Spec("tiny.cfg", train_pairs=4, val_pairs=2, batch=2, steps=2, base_size=16),
    "train_full": Spec("tiny.cfg", train_pairs=2, val_pairs=1, batch=1, steps=2, base_size=16),
    "infer_tiled": Spec("tiny.cfg", infer_raw=64, base_size=16),
}


@dataclass
class Round:
    seconds: float
    pixels: int
    psnr_db: float
    ok: bool

    @property
    def mpix_per_s(self) -> float:
        return self.pixels / self.seconds / 1e6


def load_config(spec: Spec):
    cfg = parse_run_config((ROOT / "configs" / spec.config).read_text())
    if spec.base_size is not None:
        cfg.network = replace(cfg.network, base_size=spec.base_size)
    return cfg


def make_pairs(cfg, seed: int, count: int, raw: int):
    data = cfg.data
    items = rawdata.gen_dataset(  # through the module, so a tracer's wrapper applies
        seed=seed, count=count, h=raw, w=raw, spec=cfg.preprocess,
        noise_sigma=data.noise_sigma, kernel_kind=data.kernel_kind,
        kernel_size=data.kernel_size, sigma_range=(data.sigma_min, data.sigma_max),
    )
    return [(it.blurred, it.sharp) for it in items]


class TrainWorkload:
    """``train()`` for a fixed number of steps, with validation and checkpoint writes."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.cfg = load_config(spec)
        self.raw = 2 * self.cfg.network.base_size
        self.tcfg = replace(self.cfg.train, batch=spec.batch, max_steps=spec.steps)

    def setup(self) -> None:
        """Corpus generation and network build: the part ``setup_s`` times."""
        self.corpus = make_pairs(self.cfg, 2 * self.seed, self.spec.train_pairs, self.raw)
        self.val = make_pairs(self.cfg, VAL_SEED, self.spec.val_pairs, self.raw)
        self.net = build_frenet(self.cfg.network, seed=self.cfg.train.seed)

    def prepare(self) -> None:
        self.params = self.net.parameters()
        self.initial = {name: p.data.copy() for name, p in self.params.items()}
        self.untrained_db = self._val_psnr()
        train(self.net, self.corpus, replace(self.tcfg, max_steps=1), val_pairs=[])  # warm-up step

    def _reset(self) -> None:
        for name, p in self.params.items():
            p.data = self.initial[name].copy()
            p.grad = None

    def _val_psnr(self) -> float:
        return checks.numpy_psnr([self.net.forward(b).data for b, _ in self.val],
                                 [s.data for _, s in self.val])

    def round(self) -> Round:
        self._reset()
        start = time.perf_counter()
        result = train(self.net, self.corpus, self.tcfg, out_dir=self.workdir / "run",
                       val_pairs=self.val, preprocess=self.cfg.preprocess)
        elapsed = time.perf_counter() - start
        pixels = self.spec.batch * self.spec.steps * self.raw * self.raw
        ok = len(result.step_losses) == self.spec.steps and len(result.val_psnr) == 1
        self.program_db = result.val_psnr[-1]
        return Round(elapsed, pixels, self.program_db, ok)

    def samples_per_round(self) -> int:
        return self.spec.batch * self.spec.steps

    def check(self, rounds: list[Round]) -> list[checks.CheckResult]:
        """Run after the timed rounds, on the weights the last round trained."""
        results = [checks.check_training(self.untrained_db, self._val_psnr(), self.program_db)]
        w = self.cfg.train.fr_weight
        blurred, sharp = self.corpus[0]
        pred = self.net.forward(blurred)
        results.append(checks.check_loss(loss_total(pred, sharp, w).item(), pred.data, sharp.data, w))

        batch = [(Tensor(b.data.astype(np.float64)), Tensor(s.data.astype(np.float64)))
                 for b, s in self.corpus[: self.spec.batch]]

        def batch_loss():
            total = None
            for b, s in batch:
                item = loss_total(self.net.forward(b), s, w)
                total = item if total is None else add(total, item)
            return scale(total, 1.0 / len(batch))

        results.append(checks.check_directional(
            *checks.directional_derivative(batch_loss, list(self.params.values()), self.seed)))
        return results


class InferWorkload:
    """``frenet infer`` on a seeded RAW PGM with a full-preset checkpoint restored in set-up."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.cfg = load_config(spec)
        self.ckpt = workdir / "net.fckpt"
        self.input = workdir / "blurred.pgm"
        self.output = workdir / "restored.pgm"
        pre = self.cfg.preprocess
        self.black, self.span = pre.black_level, pre.white_level - pre.black_level
        net = build_frenet(self.cfg.network, seed=self.cfg.train.seed)
        fileio.save_checkpoint(self.ckpt, net, preprocess=pre)
        blurred, _ = make_pairs(self.cfg, 2 * seed, 1, spec.infer_raw)[0]
        checks.write_pgm(self.input, checks.unpack(blurred.data) * self.span + self.black)
        self.outputs: list[np.ndarray] = []

    def setup(self) -> None:
        """Checkpoint restore: the part ``setup_s`` times."""
        self.restored = fileio.restore_network(self.ckpt)

    def prepare(self) -> None:
        self.net = self.restored[0]
        base = self.net.cfg.base_size
        self.net.forward(Tensor(np.zeros((4, base, base), np.float32)))  # warm-up tile

    def round(self) -> Round:
        argv = ["infer", "--checkpoint", str(self.ckpt), "--input", str(self.input),
                "--output", str(self.output)]
        restore = cli.restore_network
        cli.restore_network = lambda path, seed=0: self.restored  # restore is set-up, not the round
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            elapsed = time.perf_counter() - start
        finally:
            cli.restore_network = restore
        if code == 0:
            self.outputs.append(checks.read_pgm(self.output))
        # psnr_db is filled in by check(), once the reference exists.
        return Round(elapsed, self.spec.infer_raw**2, math.nan, code == 0)

    def samples_per_round(self) -> int:
        base = self.cfg.network.base_size
        return len(checks.tile_starts(self.spec.infer_raw // 2, base, base // 2)) ** 2

    def check(self, rounds: list[Round]) -> list[checks.CheckResult]:
        """Compare every round's PGM with a reference built from per-tile forwards."""
        base = self.net.cfg.base_size
        counts = checks.read_pgm(self.input).astype(np.float32)
        plane = np.clip((counts - self.black) / self.span, 0.0, 1.0)
        packed = checks.pack(plane)
        forward = lambda tile: self.net.forward(Tensor(tile)).data  # noqa: E731
        reference = checks.unpack(np.clip(checks.reference_tiled(forward, packed, base, base // 2), 0, 1))
        outputs = iter(self.outputs)
        for r in rounds:
            if not r.ok:
                continue
            out = next(outputs)
            result = checks.check_counts(out, reference * self.span + self.black)
            print(f"round: {result.detail}", file=sys.stderr)
            r.ok = result.ok
            r.psnr_db = checks.numpy_psnr([(out - self.black) / self.span], [reference])
        identity = sliding_window_infer(lambda t: t, Tensor(packed), base, base // 2)
        return [checks.check_identity(identity.data, packed)]


def make(name: str, seed: int, workdir: Path, quick: bool = False):
    spec = (QUICK if quick else SPECS)[name]
    kind = InferWorkload if spec.infer_raw else TrainWorkload
    return kind(spec, seed, workdir)
