"""Command-line entry point: dataset generation, training, inference, analysis,
verification, and tensor dumps.

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analyze import count_params_macs, format_efficiency_report
from .arch import build_frenet
from .fileio import read_ften, read_pgm16, read_utf8, restore_network, write_ften, write_pgm16
from .rawdata import (
    PreprocessSpec,
    bayer_pack,
    bayer_unpack,
    corpus_digest,
    gen_dataset,
    load_corpus,
    preprocess_raw,
    save_corpus,
    to_sensor_counts,
)
from .runconfig import parse_run_config
from .spectral import ComplexTensor, fft_shift
from .tensor import ConfigurationError, EvaluationError, Tensor, no_grad, observe
from .train import sliding_window_infer, train
from .verify import run_suites


def _load_config(path: str):
    return parse_run_config(read_utf8(path))


def _image_suffix(path: str, role: str) -> str:
    """``path``'s suffix in lower case; one other than .pgm or .ften is refused."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".pgm", ".ften"):
        raise ConfigurationError(f"unsupported {role} image format {suffix!r} (use .pgm or .ften)")
    return suffix


def _read_raw_image(path: str, preprocess: PreprocessSpec) -> Tensor:
    """Load a single-channel RAW image normalized to [0, 1].

    .pgm files hold sensor counts and get preprocessed; .ften files are taken
    as already-normalized HxW or 1xHxW planes.
    """
    if _image_suffix(path, "input") == ".pgm":
        return preprocess_raw(Tensor(read_pgm16(path)), preprocess)
    data = read_ften(path)
    if data.ndim == 2:
        data = data[None]
    if data.ndim != 3 or data.shape[0] != 1:
        raise ConfigurationError(f"{path}: expected an HxW or 1xHxW plane, got shape {data.shape}")
    return Tensor(data)


def _write_raw_image(path: str, image: Tensor, preprocess: PreprocessSpec) -> None:
    if _image_suffix(path, "output") == ".pgm":
        write_pgm16(path, to_sensor_counts(image, preprocess).data)
    else:
        write_ften(path, image.data)


def _cmd_datagen(args) -> int:
    cfg = _load_config(args.config)
    items = gen_dataset(
        seed=cfg.train.seed,
        count=cfg.data.count,
        h=2 * cfg.network.base_size,  # RAW pixels, which pack 2x2 into the network's base_size
        w=2 * cfg.network.base_size,
        spec=cfg.preprocess,
        noise_sigma=cfg.data.noise_sigma,
        kernel_kind=cfg.data.kernel_kind,
        kernel_size=cfg.data.kernel_size,
        sigma_range=(cfg.data.sigma_min, cfg.data.sigma_max),
    )
    save_corpus(args.out, items)
    print(f"wrote {len(items)} pairs to {args.out}")
    print(f"digest {corpus_digest(args.out)}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    corpus = load_corpus(args.data)
    net = build_frenet(cfg.network, seed=cfg.train.seed)
    result = train(
        net,
        corpus,
        cfg.train,
        out_dir=args.out,
        log=print,
        preprocess=cfg.preprocess,
    )
    print(
        f"done: {len(result.step_losses)} steps, best val_psnr "
        f"{result.best_psnr:.4f}, checkpoints in {args.out}"
    )
    return 0


def _cmd_infer(args) -> int:
    """Tile, restore and blend one RAW image.

    Reads PGM or .ften, packs each 2x2 Bayer cell into one network pixel,
    tiles with the trained window of 2 x base_size image pixels overlapping by
    half a window, unpacks and writes PGM or .ften. Both file formats are
    checked before the network is restored.
    """
    _image_suffix(args.input, "input")
    _image_suffix(args.output, "output")
    net, preprocess = restore_network(args.checkpoint)
    image = _read_raw_image(args.input, preprocess)
    _, h, w = image.shape
    window = 2 * net.cfg.base_size
    if window > h or window > w:
        raise ConfigurationError(f"window {window} exceeds image {h}x{w}")
    restored = sliding_window_infer(net.forward, bayer_pack(image), window // 2, window // 4)
    out = np.clip(restored.data, 0.0, 1.0)
    _write_raw_image(args.output, bayer_unpack(Tensor(out)), preprocess)
    print(f"wrote {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    report = count_params_macs(cfg.network)
    print(format_efficiency_report(cfg.network, report))
    return 0


def _cmd_verify(args) -> int:
    return 0 if run_suites(args.suite) else 1


def _cmd_dump_spectrum(args) -> int:
    _image_suffix(args.input, "input")
    net, preprocess = restore_network(args.checkpoint)
    known = [blk.name for blk in net.blocks()]
    if args.block not in known:
        raise ConfigurationError(f"unknown block {args.block!r}; available: {', '.join(known)}")
    image = _read_raw_image(args.input, preprocess)
    packed = bayer_pack(image)
    expected = net.cfg.base_size
    if packed.shape[1] != expected or packed.shape[2] != expected:
        raise ConfigurationError(
            f"input must pack to {expected}x{expected} (raw {2 * expected}x{2 * expected}), "
            f"got {packed.shape[1]}x{packed.shape[2]}"
        )
    taken: list[ComplexTensor] = []

    def take(op, label, out, parents, spec):
        # the block's ifft2d reads its packed output spectrum un-shifted; fft_shift re-centres it
        if op == "ifft2d" and label == args.block:
            taken.append(ComplexTensor(*parents))

    with no_grad(), observe(take):
        net.forward(packed)
    spectrum = fft_shift(taken[0])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ften(out_dir / f"{args.block}.re.ften", spectrum.re.data)
    write_ften(out_dir / f"{args.block}.im.ften", spectrum.im.data)
    print(f"wrote {out_dir / args.block}.{{re,im}}.ften")
    return 0


def _cmd_dump_kernels(args) -> int:
    net, _ = restore_network(args.checkpoint)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for blk in net.blocks():
        afpm = blk.facm.afpm
        if afpm is None or not afpm.adaptive:
            continue
        grid = afpm.grid
        kernels = afpm.kernel_kbg(grid.distances.reshape(-1)).data
        stack = kernels.reshape(grid.rows, grid.cols, grid.patch_h, grid.patch_w)
        write_ften(out_dir / f"{blk.name}.kernels.ften", stack)
        count += 1
    if count == 0:
        raise ConfigurationError("checkpoint has no adaptive modulation kernels to dump")
    print(f"wrote {count} kernel stacks to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frenet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic blur-pair corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_datagen)

    p = sub.add_parser("train", help="train a network on a generated corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="deblur a RAW image with sliding-window tiling")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("analyze", help="report params, conv MACs, and FFT flops")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", choices=["spectral", "afpm", "grad", "all"], default="all")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dump-spectrum", help="dump one block's output spectrum as .ften")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--block", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dump_spectrum)

    p = sub.add_parser("dump-kernels", help="dump every block's modulation kernels as .ften")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dump_kernels)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, EvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
