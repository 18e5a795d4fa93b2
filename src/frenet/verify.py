"""Self-contained invariant suites behind the `verify` CLI subcommand.

Each check prints one PASS/FAIL line with the measured value; a suite passes
only if every check does. These suites are the acceptance checks A1 (spectral),
A8 (AFPM) and A2 (gradients) on their acceptance fixtures, so a built
installation can be probed without pytest.
"""

from __future__ import annotations

import math

import numpy as np

from .afpm import Afpm, make_patch_grid
from .arch import build_frenet, tiny_config
from .gradcheck import grad_check
from .rawdata import apply_blur, embed_kernel, gen_kernel, gen_sharp
from .spectral import ComplexTensor, fft2d, fft_shift, ifft2d
from .tensor import Tensor, parameter_buffer
from .train import loss_total


class _SuiteRun:
    def __init__(self, emit):
        self.emit = emit
        self.ok = True

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.ok &= bool(passed)
        self.emit(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")


def spectral_suite(emit=print) -> bool:
    run = _SuiteRun(emit)
    rng = np.random.default_rng(101)

    worst = 0.0
    for shape in [(1, 8, 8), (3, 32, 32), (2, 64, 64)]:
        x = rng.standard_normal(shape).astype(np.float32)
        back = ifft2d(fft2d(Tensor(x)))
        worst = max(worst, float(np.abs(back.data - x).max()))
    run.check("fft round trip", worst < 1e-5, f"max abs err {worst:.2e}")

    worst = 0.0
    for shape in [(1, 16, 16), (8, 64, 64)]:
        x = rng.standard_normal(shape).astype(np.float32)
        spec = fft2d(Tensor(x))
        spatial = float(np.sum(np.square(x, dtype=np.float64)))
        freq = float(np.sum(spec.re.data.astype(np.float64) ** 2 + spec.im.data.astype(np.float64) ** 2))
        worst = max(worst, abs(spatial - freq) / spatial)
    run.check("parseval", worst < 1e-4, f"rel err {worst:.2e}")

    img = gen_sharp(7, 32, 32)
    kernel = gen_kernel(11, "gaussian", 5)
    direct = apply_blur(img, kernel)
    a, b = fft2d(img), fft2d(embed_kernel(kernel, 32, 32))
    product = (a.re.data + 1j * a.im.data) * (b.re.data + 1j * b.im.data)
    route = ifft2d(ComplexTensor(Tensor(product.real), Tensor(product.imag)))
    rel = float(np.abs(route.data * math.sqrt(32 * 32) - direct.data).max() / np.abs(direct.data).max())
    run.check("convolution theorem", rel < 1e-3, f"rel err {rel:.2e}")

    z = fft2d(Tensor(rng.standard_normal((2, 16, 16)).astype(np.float32)))
    twice = fft_shift(fft_shift(z))
    exact = np.array_equal(twice.re.data, z.re.data) and np.array_equal(twice.im.data, z.im.data)
    run.check("fft_shift involution", exact, "bit-exact on even dims")

    a = Tensor(rng.standard_normal((2, 16, 16)).astype(np.float32))
    b = Tensor(rng.standard_normal((2, 16, 16)).astype(np.float32))
    lhs = fft2d(Tensor(2.0 * a.data - 3.0 * b.data))
    rhs_re = 2.0 * fft2d(a).re.data - 3.0 * fft2d(b).re.data
    err = float(np.abs(lhs.re.data - rhs_re).max())
    run.check("linearity", err < 1e-5, f"max abs err {err:.2e}")
    return run.ok


def _swap_patches(arr: np.ndarray, grid, a: tuple[int, int], b: tuple[int, int]) -> np.ndarray:
    """Copy of a CxHxW array with grid patches ``a`` and ``b`` (row, col) exchanged."""
    ph, pw = grid.patch_h, grid.patch_w

    def patch(cell):
        return np.s_[:, cell[0] * ph : (cell[0] + 1) * ph, cell[1] * pw : (cell[1] + 1) * pw]

    out = arr.copy()
    out[patch(a)], out[patch(b)] = arr[patch(b)], arr[patch(a)]
    return out


def afpm_suite(emit=print) -> bool:
    run = _SuiteRun(emit)
    rng = np.random.default_rng(80)
    grid = make_patch_grid(16, 16, 8)

    with parameter_buffer(rng):
        module = Afpm("m", channels=6, grid=grid)
    module.proj_weight.data[...] = 0.0
    module.proj_bias.data[...] = 1.0
    x = Tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
    run.check("unit modulation identity", np.array_equal(module(x).data, x.data),
              "proj weight 0 / bias 1 reproduces input")

    # Mirrored grid positions share a distance, so swapping those patch
    # contents must swap the outputs verbatim.
    with parameter_buffer(rng):
        module = Afpm("m2", channels=4, grid=grid)
    trials, swapped_ok = 5, True
    for _ in range(trials):
        data = rng.standard_normal((4, 16, 16)).astype(np.float32)
        i, j = rng.integers(0, grid.rows), rng.integers(0, grid.cols)
        cell, mirror = (i, j), (grid.rows - 1 - i, grid.cols - 1 - j)
        out = module(Tensor(data)).data
        out_swapped = module(Tensor(_swap_patches(data, grid, cell, mirror))).data
        swapped_ok &= bool(grid.distances[cell] == grid.distances[mirror])
        swapped_ok &= np.array_equal(out_swapped, _swap_patches(out, grid, cell, mirror))
    run.check("content independence", swapped_ok,
              f"swapping equal-distance patches swaps outputs on {trials} randomized fixtures")

    dists = grid.distances
    kernels = module.kernel_kbg(dists.reshape(-1)).data
    mirrored = module.kernel_kbg(dists[::-1, ::-1].reshape(-1)).data
    run.check("central symmetry",
              np.array_equal(dists, dists[::-1, ::-1]) and np.array_equal(kernels, mirrored),
              "mirrored patches get bit-identical kernels")

    # One 2x2 patch against the modulation formula, transcribed in float64.
    single = make_patch_grid(2, 2, 1)
    with parameter_buffer(rng):
        small = Afpm("m3", channels=2, grid=single)
    xs = rng.standard_normal((2, 2, 2)).astype(np.float32)
    d = np.array([float(single.distances[0, 0])])
    w = small.kernel_kbg(d).data.reshape(2, 2).astype(np.float64)
    b = float(small.bias_kbg(d).data.reshape(()))
    s = (xs.astype(np.float64) * w).sum(axis=(1, 2)) + b
    factor = small.proj_weight.data.reshape(2, 2).astype(np.float64) @ s + small.proj_bias.data
    err = float(np.abs(small(Tensor(xs)).data - factor[:, None, None] * xs).max())
    run.check("modulation transcription", err < 1e-4, f"max abs err {err:.2e}")
    return run.ok


def grad_suite(emit=print, probe_count: int = 150) -> bool:
    run = _SuiteRun(emit)
    net = build_frenet(tiny_config(base_size=16), seed=5)
    rng = np.random.default_rng(52)
    x = Tensor(rng.uniform(0.0, 1.0, (4, 16, 16)).astype(np.float32))
    target = Tensor(rng.uniform(0.0, 1.0, (4, 16, 16)).astype(np.float32))
    report = grad_check(lambda: loss_total(net.forward(x), target, 0.01), list(net.parameters().values()),
                        probe_count=probe_count, h=1e-3, tol=1e-3, seed=9)
    run.check("reverse-mode vs finite differences", report.pass_fraction >= 0.99, report.summary())
    return run.ok


SUITES = {
    "spectral": spectral_suite,
    "afpm": afpm_suite,
    "grad": grad_suite,
}


def run_suites(selection: str = "all", emit=print) -> bool:
    names = list(SUITES) if selection == "all" else [selection]
    ok = True
    for name in names:
        emit(f"== suite {name}")
        ok &= SUITES[name](emit)
    return ok
