"""Fast tests of the benchmark itself: result schema in quick mode, and that
every correctness check rejects a deliberately corrupted output.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from frenet.arch import build_frenet, tiny_config  # noqa: E402
from frenet.fileio import read_pgm16  # noqa: E402
from frenet.tensor import Tensor, _accumulate, _node  # noqa: E402
from frenet.train import loss_total, sliding_window_infer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_prints_the_declared_schema(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])


def test_loss_check_rejects_a_wrong_loss():
    rng = np.random.default_rng(0)
    pred, target = rng.uniform(0, 1, (2, 4, 16, 16)).astype(np.float32)
    loss = loss_total(Tensor(pred), Tensor(target), 0.01).item()
    assert checks.check_loss(loss, pred, target, 0.01).ok
    assert not checks.check_loss(loss * (1 + 1e-4), pred, target, 0.01).ok
    assert not checks.check_loss(loss_total(Tensor(pred), Tensor(target), 0.02).item(),
                                 pred, target, 0.01).ok


def _tiny_loss(scale_backward=1.0):
    net = build_frenet(tiny_config(base_size=16), seed=5)
    rng = np.random.default_rng(1)
    x, y = (Tensor(rng.uniform(0, 1, (4, 16, 16))) for _ in range(2))

    def loss_fn():
        loss = loss_total(net.forward(x), y, 0.01)

        def bw(g):
            _accumulate(loss, g * scale_backward)

        return _node(loss.data, (loss,), bw)

    return loss_fn, list(net.parameters().values())


def test_directional_check_rejects_a_wrong_gradient():
    loss_fn, params = _tiny_loss()
    before = [p.data.copy() for p in params]
    assert checks.check_directional(*checks.directional_derivative(loss_fn, params, seed=2)).ok
    assert all(np.array_equal(p.data, b) and p.data.dtype == np.float32 for p, b in zip(params, before))
    loss_fn, params = _tiny_loss(scale_backward=1.01)
    assert not checks.check_directional(*checks.directional_derivative(loss_fn, params, seed=2)).ok


def test_training_check_rejects_a_worse_or_misreported_network():
    assert checks.check_training(25.0, 25.5, 25.5).ok
    assert not checks.check_training(25.0, 24.9, 24.9).ok
    assert not checks.check_training(25.0, 25.5, 25.6).ok


def test_tiled_check_rejects_a_corrupted_pixel():
    rng = np.random.default_rng(3)
    packed = rng.uniform(0, 1, (4, 64, 64)).astype(np.float32)

    def net(tile):  # position-dependent, so wrong tile placement shows
        data = tile.data if isinstance(tile, Tensor) else tile
        return np.sqrt(data) * np.linspace(0.5, 1.0, data.shape[-1], dtype=np.float32)

    program = sliding_window_infer(lambda t: Tensor(net(t)), Tensor(packed), 32, 16).data
    counts = np.rint(checks.unpack(program) * 959 + 64)
    reference = checks.unpack(checks.reference_tiled(net, packed, 32, 16)) * 959 + 64
    assert checks.check_counts(counts, reference).ok
    corrupted = counts.copy()
    corrupted[37, 5] += 1
    assert not checks.check_counts(corrupted, reference).ok
    shifted = checks.unpack(checks.reference_tiled(net, packed, 32, 8)) * 959 + 64
    assert not checks.check_counts(counts, shifted).ok


def test_identity_check_rejects_a_changed_image():
    image = np.random.default_rng(4).uniform(0, 1, (4, 32, 32)).astype(np.float32)
    out = sliding_window_infer(lambda t: t, Tensor(image), 16, 8).data
    assert checks.check_identity(out, image).ok
    out[0, 3, 3] += 1e-3
    assert not checks.check_identity(out, image).ok


def test_pgm_writer_and_reader_agree_with_the_program(tmp_path):
    counts = np.random.default_rng(5).integers(0, 1024, (6, 8)).astype(np.float64)
    checks.write_pgm(tmp_path / "a.pgm", counts)
    assert np.array_equal(read_pgm16(tmp_path / "a.pgm")[0], counts)
    assert np.array_equal(checks.read_pgm(tmp_path / "a.pgm"), counts)
    assert np.array_equal(checks.unpack(checks.pack(counts)), counts)
