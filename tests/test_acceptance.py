"""Acceptance criteria A1-A8, each pinned at its stated tolerance.

Every test prints one `[A#] PASS ...` line with the measured values, so
`pytest -s tests/test_acceptance.py` doubles as the acceptance report. A1, A2
and A8 are the `frenet verify` suites; their lines follow the PASS line.
"""

import time

import numpy as np
import pytest

from frenet.analyze import count_params_macs
from frenet.arch import NetworkConfig, build_frenet, tiny_config
from frenet.gradcheck import grad_check
from frenet.rawdata import (
    PreprocessSpec,
    bayer_pack,
    bayer_unpack,
    corpus_digest,
    gen_dataset,
    save_corpus,
)
from frenet.tensor import Tensor
from frenet.metrics import psnr
from frenet.train import TrainConfig, loss_total, sliding_window_infer, train
from frenet.verify import afpm_suite, grad_suite, spectral_suite


def _run_suite(tag, title, suite, bound=None, **kwargs):
    """Run a `frenet verify` suite, assert that it passes, and print its lines."""
    lines = []
    start = time.time()
    ok = suite(emit=lines.append, **kwargs)
    elapsed = time.time() - start
    assert ok, "\n".join(lines)
    if bound is not None:
        assert elapsed < bound, f"{elapsed:.1f}s"
    limit = "" if bound is None else f" (<{bound:g}s)"
    print(f"\n[{tag}] PASS {title}, {elapsed:.1f}s{limit}")
    for line in lines:
        print(f"  {line}")


def test_a1_spectral_suite():
    _run_suite("A1", "spectral suite", spectral_suite, bound=10.0)


def test_a2_gradient_suite():
    _run_suite("A2", "gradient suite", grad_suite, bound=120.0, probe_count=500)


def test_a3_training_sanity():
    start = time.time()
    items = gen_dataset(
        seed=42, count=200, h=64, w=64, spec=PreprocessSpec(),
        noise_sigma=0.002, kernel_kind="gaussian", sigma_range=(0.8, 2.0),
    )
    corpus = [(it.blurred, it.sharp) for it in items]
    val, train_items = corpus[-16:], corpus[:-16]
    base = float(np.mean([psnr(bayer_unpack(b), bayer_unpack(s)) for b, s in val]))

    net = build_frenet(tiny_config(base_size=32, global_residual=True), seed=7)
    cfg = TrainConfig(lr0=1e-2, epochs=50, batch=8, max_steps=300, seed=7, val_count=0)
    result = train(net, train_items, cfg, val_pairs=val)
    gain = result.val_psnr[-1] - base

    losses = np.array(result.step_losses)
    assert len(losses) == 300
    windows = [float(losses[i : i + 50].mean()) for i in range(0, 300, 50)]
    decreasing = all(b < a for a, b in zip(windows, windows[1:]))

    elapsed = time.time() - start
    assert gain >= 2.0, f"gain {gain:+.3f} dB below +2.0"
    assert decreasing, f"loss windows not strictly decreasing: {windows}"
    assert elapsed < 900.0
    print(
        f"\n[A3] PASS training sanity: baseline {base:.2f} dB, trained "
        f"{result.val_psnr[-1]:.2f} dB, gain {gain:+.2f} dB (>=+2.0), "
        f"loss windows strictly decreasing, {elapsed:.0f}s (<900s)"
    )


def test_a4_ablation_machinery():
    base_cfg = dict(base_size=16)
    variants = {
        "freq-skip-off": tiny_config(**base_cfg, use_freq_skip=False),
        "local-only": tiny_config(**base_cfg, use_global_branch=False),
        "global-only": tiny_config(**base_cfg, use_local_branch=False),
        "average-pooling": tiny_config(**base_cfg, use_pooling_variant=True),
    }
    full = build_frenet(tiny_config(**base_cfg), seed=3)
    rng = np.random.default_rng(40)
    x = Tensor(rng.uniform(0, 1, (4, 16, 16)).astype(np.float32))
    target = Tensor(rng.uniform(0, 1, (4, 16, 16)).astype(np.float32))
    full_out = full.forward(x).data

    details = []
    for name, cfg in variants.items():
        net = build_frenet(cfg, seed=3)
        out = net.forward(x).data
        diff = float(np.abs(out - full_out).max())
        assert diff > 1e-6, f"{name}: output identical to the full model"
        params = list(net.parameters().values())
        report = grad_check(
            lambda net=net: loss_total(net.forward(x), target, 0.01),
            params,
            probe_count=120,
            h=1e-3,
            tol=1e-3,
            seed=4,
        )
        assert report.pass_fraction >= 0.99, f"{name}: {report.summary()}"
        details.append(f"{name} diff {diff:.2e} grads {report.pass_fraction:.2f}")

    print(
        "\n[A4] PASS ablation machinery: "
        + "; ".join(details)
        + " | expected trained-PSNR ordering (reported, not gated): "
        "average-pooling < freq-skip-off < global-only < local-only < full model"
    )


def test_a5_efficiency_accounting():
    cfg = NetworkConfig(name="frenet")
    report = count_params_macs(cfg)
    assert report.reference_params == pytest.approx(19.76e6)
    assert report.reference_macs == pytest.approx(2.22e9)
    assert abs(report.params_deviation) <= 0.25, f"params {report.params:,}"
    assert abs(report.macs_deviation) <= 0.25, f"macs {report.conv_macs:,}"
    print(
        f"\n[A5] PASS efficiency: params {report.params / 1e6:.2f}M vs 19.76M "
        f"({report.params_deviation:+.1%}), conv MACs {report.conv_macs / 1e9:.2f}G "
        f"vs 2.22G ({report.macs_deviation:+.1%}), both within ±25%; "
        f"distribution: {report.distribution}"
    )


def test_a6_inference_suite():
    rng = np.random.default_rng(60)

    # The blended identity reproduces a random input only if every pixel is
    # covered and the normalized tile weights sum to one there.
    errors = []
    fixtures = [(96, 96, 64), (64, 64, 32), (48, 80, 16), (33, 47, 16), (128, 96, 64)]
    for h, w, window in fixtures:
        image = Tensor(rng.uniform(0, 1, (3, h, w)).astype(np.float32))
        out = sliding_window_infer(lambda t: Tensor(t.data.copy()), image, window, window // 2)
        errors.append(np.abs(out.data - image.data).max())
    worst_identity = float(np.max(errors))  # an uncovered pixel is NaN, and np.max keeps it
    assert worst_identity < 1e-6

    def affine(t):
        return Tensor(0.5 * t.data + 0.1)

    image = Tensor(rng.uniform(0, 1, (2, 32, 32)).astype(np.float32))
    single = sliding_window_infer(affine, image, 32, 16)
    assert np.array_equal(single.data, affine(image).data)

    print(
        f"\n[A6] PASS inference suite: identity-stub error {worst_identity:.2e} (<1e-6) on "
        f"{len(fixtures)} fixtures, single-tile bit-exact"
    )


def test_a7_data_suite(tmp_path):
    rng = np.random.default_rng(70)
    x = rng.uniform(0, 1, (1, 128, 128)).astype(np.float32)
    assert np.array_equal(bayer_unpack(bayer_pack(Tensor(x))).data, x)

    spec = PreprocessSpec(black_level=64, white_level=1023)
    from frenet.rawdata import preprocess_raw

    black = preprocess_raw(Tensor(np.full((1, 4, 4), 64.0)), spec)
    white = preprocess_raw(Tensor(np.full((1, 4, 4), 1023.0)), spec)
    assert np.array_equal(black.data, np.zeros((1, 4, 4), dtype=np.float32))
    assert np.array_equal(white.data, np.ones((1, 4, 4), dtype=np.float32))

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    save_corpus(dir_a, gen_dataset(77, count=8, h=32, w=32, spec=spec))
    save_corpus(dir_b, gen_dataset(77, count=8, h=32, w=32, spec=spec))
    digest_a, digest_b = corpus_digest(dir_a), corpus_digest(dir_b)
    # pinned: a change to the generator or the corpus format must show here
    assert digest_a == digest_b == "4efc30994b408de60cd3f1f55a69a4122ff7faccb2380921b15cd391c47e3578"

    print(
        f"\n[A7] PASS data suite: pack/unpack bit-exact, black->0 white->1 exact, "
        f"corpus digest stable ({digest_a[:12]}...)"
    )


def test_a8_afpm_suite():
    _run_suite("A8", "afpm suite", afpm_suite)
