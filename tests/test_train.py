import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frenet.train as train_module
from frenet.arch import NetworkConfig, build_frenet, tiny_config
from frenet.fileio import save_checkpoint
from frenet.rawdata import PreprocessSpec, gen_dataset
from frenet.tensor import ConfigurationError, EvaluationError, Parameter, Tensor, no_grad, observe, on_leaf
from frenet.train import (
    _ADAM_BLOCK,
    BETA1,
    BETA2,
    EPS,
    LR_MIN,
    AdamState,
    TrainConfig,
    adam_step,
    adam_update,
    cosine_lr,
    loss_total,
    raised_cosine_profile,
    sliding_window_infer,
    stack,
    tile_workers,
    train,
    usable_cpus,
    validation_psnr,
)


class TestLossTotal:
    def test_identical_inputs_are_zero(self):
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 8, 8)).astype(np.float32))
        assert loss_total(x, Tensor(x.data.copy()), 0.01).item() == 0.0

    def test_zero_weight_reduces_to_plain_l1(self):
        a = Tensor(np.zeros((1, 8, 8)))
        b = Tensor(np.full((1, 8, 8), 0.5))
        assert abs(loss_total(a, b, 0.0).item() - 0.5) < 1e-7

    def test_matches_independent_two_term_computation(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (2, 16, 16)).astype(np.float32)
        b = rng.uniform(0, 1, (2, 16, 16)).astype(np.float32)
        got = loss_total(Tensor(a), Tensor(b), 0.01).item()
        l1 = np.abs(a.astype(np.float64) - b.astype(np.float64)).mean()
        sa = np.fft.fft2(a.astype(np.float64), norm="ortho")
        sb = np.fft.fft2(b.astype(np.float64), norm="ortho")
        lfr = 0.5 * (np.abs(sa.real - sb.real).mean() + np.abs(sa.imag - sb.imag).mean())
        assert abs(got - (l1 + 0.01 * lfr)) < 1e-5

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = Tensor(rng.uniform(0, 1, (1, 8, 8)).astype(np.float32))
            b = Tensor(rng.uniform(0, 1, (1, 8, 8)).astype(np.float32))
            assert loss_total(a, b, 0.01).item() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="mismatch"):
            loss_total(Tensor(np.zeros((1, 8, 8))), Tensor(np.zeros((2, 8, 8))), 0.0)


class TestAdam:
    def test_zero_gradients_leave_params_and_decay_moments(self):
        p = Parameter("p", np.array([1.0, -2.0], dtype=np.float32))
        state = AdamState()
        state.lay_out([p])
        state.m["p"][...], state.v["p"][...] = 0.5, 0.25
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        adam_step([p], state, lr=0.1)
        # m_hat is nonzero only through the stale moment, which the update uses
        assert np.allclose(state.m["p"], 0.45)
        assert np.allclose(state.v["p"], 0.24975)
        assert not np.array_equal(p.data, before)  # stale momentum still moves params

    def test_first_step_closed_form(self):
        p = Parameter("p", np.array([1.0, -1.0, 2.0], dtype=np.float32))
        g = np.array([0.3, -0.2, 0.05], dtype=np.float32)
        p.grad = g.copy()
        state = AdamState()
        before = p.data.copy()
        lr = 1e-3
        adam_step([p], state, lr=lr)
        want = before - lr * g / (np.abs(g) + EPS)
        assert np.abs(p.data - want).max() < 1e-7

    def test_quadratic_bowl_descends_monotonically(self):
        from frenet.tensor import mean_all, mul

        p = Parameter("p", np.array([3.0, -2.0], dtype=np.float32))
        state = AdamState()
        losses = []
        for _ in range(10):
            p.grad = None
            loss = mean_all(mul(p, p))
            losses.append(loss.item())
            loss.backward()
            adam_step([p], state, lr=0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_in_place_update_matches_out_of_place_formula(self):
        rng = np.random.default_rng(12)
        p = Parameter("p", rng.standard_normal((3, 5)).astype(np.float32))
        data = p.data
        want, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        state = AdamState()
        for t in range(1, 5):
            g = rng.standard_normal((3, 5)).astype(np.float32)
            p.grad = g
            adam_step([p], state, lr=1e-3)
            m = m * BETA1 + (1.0 - BETA1) * g
            v = v * BETA2 + (1.0 - BETA2) * np.square(g)
            m_hat, v_hat = m / (1.0 - BETA1**t), v / (1.0 - BETA2**t)
            want = (want - 1e-3 * m_hat / (np.sqrt(v_hat) + EPS)).astype(np.float32)
            assert np.array_equal(p.data, want)
        assert p.data is data

    @staticmethod
    def _one_pass(p, m, v, t, lr=1e-3, beta1=BETA1, beta2=BETA2, eps=EPS):
        """Adam's float32 chain over the whole parameter at once, with temporaries of its size."""
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        step, denom = np.empty_like(p.data), np.empty_like(p.data)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=step)
        v *= beta2
        v += np.multiply(np.square(g, out=step), 1.0 - beta2, out=step)
        np.divide(m, 1.0 - beta1**t, out=step)
        np.divide(v, 1.0 - beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step *= lr
        step /= denom
        p.data -= step

    @pytest.mark.parametrize("grad", ["c-order", "transposed", "missing"])
    def test_blocks_equal_one_pass_over_the_parameter(self, grad):
        rng = np.random.default_rng(13)
        shape = (3, _ADAM_BLOCK + 5)  # two full blocks and a partial one
        blocked = Parameter("w", rng.standard_normal(shape).astype(np.float32))
        whole = Parameter("w", blocked.data.copy())
        state, m, v = AdamState(), np.zeros(shape, np.float32), np.zeros(shape, np.float32)
        state.lay_out([blocked])
        for t in range(1, 4):
            g = rng.standard_normal(shape[::-1]).astype(np.float32).T if grad == "transposed" else (
                rng.standard_normal(shape).astype(np.float32))
            blocked.grad = whole.grad = None if grad == "missing" and t > 1 else g
            adam_step([blocked], state, lr=1e-3)
            self._one_pass(whole, m, v, t)
            assert np.array_equal(blocked.data, whole.data)
            assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)

    def test_update_allocates_nothing_of_the_parameters_size(self):
        # the one-pass chain made a step and a denominator array of the weight's size
        rng = np.random.default_rng(14)
        p = Parameter("w", rng.standard_normal((1024, 512)).astype(np.float32))
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
        state = AdamState(step=1)
        state.lay_out([p])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            adam_update(p, state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes // 64

    def test_every_gradient_of_a_frenet_step_is_c_contiguous(self):
        # adam_update flattens each gradient: a transposed one, as linear's weight
        # gradients were, is copied (32 of them, 12 MiB per step at the paper's size)
        net = build_frenet(NetworkConfig(name="frenet", base_size=16), seed=1)
        blurred, sharp = tiny_corpus(count=1, size=32)[0]
        loss = loss_total(net.forward(stack([blurred])), stack([sharp]), 0.01)
        seen, strided = [], []
        with on_leaf(lambda p: seen.append(p.name) or p.grad.flags.c_contiguous or strided.append(p.name)):
            loss.backward()
        assert len(seen) == 742 and strided == []

    def test_moments_are_slices_of_two_buffers_in_parameter_order(self):
        params = [Parameter(name, np.zeros(shape, np.float32)) for name, shape in
                  [("a", (2, 3)), ("b", (4,)), ("c", (1, 1, 5))]]
        state = AdamState()
        state.lay_out(params)
        address = lambda a: a.__array_interface__["data"][0]  # noqa: E731
        for moments in (state.m, state.v):
            assert list(moments) == ["a", "b", "c"]
            buffer = moments["a"].base
            assert buffer.shape == (15,) and buffer.dtype == np.float32 and not buffer.any()
            for p, offset in zip(params, (0, 6, 10)):
                assert moments[p.name].base is buffer and moments[p.name].shape == p.shape
                assert address(moments[p.name]) == address(buffer) + 4 * offset
        assert state.m["a"].base is not state.v["a"].base


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3) == pytest.approx(LR_MIN)
        assert cosine_lr(50, 100, 1e-3) == pytest.approx((1e-3 + LR_MIN) / 2)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(t, 40, 1e-3) for t in range(41)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            cosine_lr(5, 4, 1e-3)


def tiny_corpus(count=10, size=32, seed=0):
    items = gen_dataset(seed, count=count, h=size, w=size, spec=PreprocessSpec(),
                        noise_sigma=0.001, kernel_kind="gaussian", sigma_range=(0.8, 1.5))
    return [(it.blurred, it.sharp) for it in items]


class TestTrainLoop:
    def test_one_epoch_batch_arithmetic(self, tmp_path):
        corpus = tiny_corpus(count=8, size=16)
        net = build_frenet(tiny_config(base_size=8), seed=0)
        cfg = TrainConfig(epochs=1, batch=4, val_count=0, seed=1)
        log_lines = []
        result = train(net, corpus, cfg, val_pairs=[], log=log_lines.append)
        assert len(result.step_losses) == 2  # 8 items / batch 4 -> exactly 2 steps
        step_lines = [l for l in log_lines if " val_psnr " not in l]
        assert len(step_lines) == 2

    def test_determinism_bit_identical_checkpoints(self, tmp_path):
        corpus = tiny_corpus(count=8, size=16)
        blobs = []
        for run in ("a", "b"):
            net = build_frenet(tiny_config(base_size=8), seed=3)
            cfg = TrainConfig(epochs=2, batch=4, val_count=2, seed=3)
            train(net, corpus, cfg, out_dir=tmp_path / run)
            blobs.append((tmp_path / run / "final.fckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_a_step_updates_the_parameter_buffer_in_place(self):
        from test_arch import assert_one_buffer

        net = build_frenet(tiny_config(base_size=8), seed=2)
        buffer = assert_one_buffer(net.parameters().values())
        before = buffer.copy()
        train(net, tiny_corpus(count=2, size=16), TrainConfig(epochs=1, batch=2, val_count=0, seed=2),
              val_pairs=[])
        assert assert_one_buffer(net.parameters().values()) is buffer
        assert not np.array_equal(buffer, before)

    def test_log_line_format(self):
        corpus = tiny_corpus(count=6, size=16)
        net = build_frenet(tiny_config(base_size=8), seed=4)
        log_lines = []
        train(net, corpus, TrainConfig(epochs=1, batch=2, val_count=2, seed=4), log=log_lines.append)
        step_line = log_lines[0].split()
        assert step_line[0] == "epoch" and step_line[2] == "step"
        assert step_line[4] == "lr" and step_line[6] == "loss"
        assert log_lines[-1].split()[-2] == "val_psnr"

    def test_max_steps_cap(self):
        corpus = tiny_corpus(count=8, size=16)
        net = build_frenet(tiny_config(base_size=8), seed=5)
        result = train(net, corpus, TrainConfig(epochs=50, batch=4, max_steps=3, val_count=0, seed=5), val_pairs=[])
        assert len(result.step_losses) == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostic(self, tmp_path):
        corpus = tiny_corpus(count=4, size=16)
        net = build_frenet(tiny_config(base_size=8), seed=6)
        net.parameters()["intro.weight"].data[:] = np.float32(3e38)
        with pytest.raises(EvaluationError, match="batch"):
            train(net, corpus, TrainConfig(epochs=1, batch=2, val_count=0, seed=6),
                  out_dir=tmp_path, val_pairs=[])
        assert (tmp_path / "final.fckpt").exists()  # last-good state persisted

    def test_validation_keeps_no_tape_and_training_still_fills_gradients(self):
        corpus = tiny_corpus(count=4, size=16)
        net = build_frenet(tiny_config(base_size=8), seed=8)
        blurred, sharp = corpus[0]
        with no_grad():
            bare = net.forward(blurred)
        assert bare._backward is None and bare._parents == ()
        assert np.array_equal(bare.data, net.forward(blurred).data)
        validation_psnr(net, corpus[2:])
        net.zero_grad()
        loss_total(net.forward(blurred), sharp, 0.01).backward()
        assert all(p.grad is not None for p in net.parameters().values())

    def test_no_gradient_outlives_its_step(self, monkeypatch):
        # validation and the checkpoint writes run with every gradient dropped
        corpus = tiny_corpus(count=6, size=16)
        net = build_frenet(tiny_config(base_size=8), seed=4)
        held = []
        validate = train_module.validation_psnr

        def counting(net, pairs, batch):
            held.append(sum(p.grad is not None for p in net.parameters().values()))
            return validate(net, pairs, batch)

        monkeypatch.setattr(train_module, "validation_psnr", counting)
        train(net, corpus, TrainConfig(epochs=2, batch=2, val_count=2, seed=4))
        assert held == [0, 0]
        assert all(p.grad is None for p in net.parameters().values())

    def test_steps_in_the_sweep_equal_backward_then_adam_step(self, monkeypatch):
        self._sweep_equals_backward_then_adam_step(monkeypatch, tiny_config(base_size=8))

    def test_steps_in_the_sweep_equal_backward_then_adam_step_on_frenet(self, monkeypatch):
        # the backward rebuilds 1x1 conv outputs from their weights, which must happen
        # before the sweep updates those weights
        self._sweep_equals_backward_then_adam_step(monkeypatch, NetworkConfig(name="frenet", base_size=16))

    @staticmethod
    def _sweep_equals_backward_then_adam_step(monkeypatch, net_cfg):
        # ``idle`` is a parameter the loss never reads: it takes Adam's zero-gradient update
        class WithIdle:
            def __init__(self, seed):
                self.net = build_frenet(net_cfg, seed=seed)
                self.idle = Parameter("idle", np.linspace(-1, 1, 5, dtype=np.float32))

            def parameters(self):
                return {**self.net.parameters(), "idle": self.idle}

            def zero_grad(self):
                self.net.zero_grad()
                self.idle.grad = None

            def forward(self, x):
                return self.net.forward(x)

        corpus = tiny_corpus(count=6, size=2 * net_cfg.base_size)
        cfg = TrainConfig(epochs=1, batch=3, val_count=0, seed=9, lr0=0.01)
        states = []
        monkeypatch.setattr(train_module, "AdamState", lambda: states.append(AdamState()) or states[-1])
        swept = WithIdle(seed=2)
        train(swept, corpus, cfg, val_pairs=[])

        plain, want = WithIdle(seed=2), AdamState()
        params = list(plain.parameters().values())
        order = np.random.default_rng(cfg.seed).permutation(len(corpus))
        for k in range(2):
            batch = order[k * cfg.batch : (k + 1) * cfg.batch]
            plain.zero_grad()
            loss_total(plain.forward(stack([corpus[i][0] for i in batch])),
                       stack([corpus[i][1] for i in batch]), cfg.fr_weight).backward()
            adam_step(params, want, cosine_lr(0, 1, cfg.lr0))
        (got,) = states
        assert got.step == want.step == 2
        assert list(got.m) == list(want.m) == list(got.v) == list(plain.parameters())
        for name, p in swept.parameters().items():
            assert np.array_equal(p.data, plain.parameters()[name].data), name
            assert np.array_equal(got.m[name], want.m[name]) and np.array_equal(got.v[name], want.v[name])
        assert not np.any(got.m["idle"]) and np.array_equal(swept.idle.data, np.linspace(-1, 1, 5, dtype=np.float32))

    def test_adam_moments_are_laid_out_once_per_run(self, monkeypatch):
        # train() and adam_update used to make both moments of each parameter lazily,
        # as 2 x 166 separate arrays
        net = build_frenet(tiny_config(base_size=8), seed=2)
        states, layouts = [], []
        monkeypatch.setattr(train_module, "AdamState", lambda: states.append(AdamState()) or states[-1])
        lay_out = AdamState.lay_out
        monkeypatch.setattr(AdamState, "lay_out", lambda self, ps: layouts.append(list(ps)) or lay_out(self, ps))
        train(net, tiny_corpus(count=6, size=16), TrainConfig(epochs=1, batch=2, val_count=0, seed=9), val_pairs=[])
        (state,) = states
        assert state.step == 3 and layouts == [list(net.parameters().values())]
        for moments in (state.m, state.v):
            assert list(moments) == list(net.parameters())
            assert len({id(a.base) for a in moments.values()}) == 1

    def test_gradients_do_not_pile_up(self, monkeypatch):
        self._at_most_two_gradients_held(monkeypatch, tiny_config(), batch=4, count=166)

    def test_gradients_do_not_pile_up_on_frenet(self, monkeypatch):
        self._at_most_two_gradients_held(monkeypatch, NetworkConfig(name="frenet", base_size=16), batch=1, count=742)

    @staticmethod
    def _at_most_two_gradients_held(monkeypatch, cfg, batch, count):
        # Each parameter is updated, and its gradient dropped, as soon as the sweep
        # reaches it, right after its op's backward: at most a conv's weight and bias
        # are held at once. backward() then adam_step would hold every gradient; a
        # sweep that reached each leaf after all that is upstream of its op held 52
        # on tiny and 224 on frenet.
        corpus = tiny_corpus(count=batch, size=2 * cfg.base_size)
        net = build_frenet(cfg, seed=1)
        params = list(net.parameters().values())
        held = []
        update = train_module.adam_update

        def counting(p, *args):
            held.append(sum(q.grad is not None for q in params))
            return update(p, *args)

        monkeypatch.setattr(train_module, "adam_update", counting)
        train(net, corpus, TrainConfig(epochs=1, batch=batch, max_steps=1, val_count=0, seed=1), val_pairs=[])
        assert len(held) == len(params) == count
        assert max(held) <= 2

    def test_final_checkpoint_links_the_best_one_written_at_the_same_step(self, tmp_path, monkeypatch):
        states = []
        monkeypatch.setattr(train_module, "AdamState", lambda: states.append(AdamState()) or states[-1])
        net = build_frenet(tiny_config(base_size=8), seed=3)
        train(net, tiny_corpus(count=6, size=16), TrainConfig(epochs=1, batch=2, val_count=2, seed=3),
              out_dir=tmp_path)
        save_checkpoint(tmp_path / "fresh.fckpt", net, adam=states[0])
        assert (tmp_path / "final.fckpt").samefile(tmp_path / "best.fckpt")
        assert (tmp_path / "final.fckpt").read_bytes() == (tmp_path / "fresh.fckpt").read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["best.fckpt", "final.fckpt", "fresh.fckpt",
                                                              "training.log"]

    @pytest.mark.parametrize("scores, no_links", [([2.0, 1.0], False), ([1.0, 2.0], True)],
                             ids=["last validation not the best", "no hard links"])
    def test_final_checkpoint_is_written_when_it_cannot_link(self, tmp_path, monkeypatch, scores, no_links):
        states = []
        monkeypatch.setattr(train_module, "AdamState", lambda: states.append(AdamState()) or states[-1])
        scores = iter(scores)
        monkeypatch.setattr(train_module, "validation_psnr", lambda *args: next(scores))
        if no_links:
            def no_link(src, dst):
                raise OSError("hard links not supported")
            monkeypatch.setattr(os, "link", no_link)
        net = build_frenet(tiny_config(base_size=8), seed=3)
        train(net, tiny_corpus(count=6, size=16), TrainConfig(epochs=2, batch=2, val_count=2, seed=3),
              out_dir=tmp_path)
        save_checkpoint(tmp_path / "fresh.fckpt", net, adam=states[0])
        assert not (tmp_path / "final.fckpt").samefile(tmp_path / "best.fckpt")
        assert (tmp_path / "final.fckpt").read_bytes() == (tmp_path / "fresh.fckpt").read_bytes()
        assert ((tmp_path / "best.fckpt").read_bytes() == (tmp_path / "fresh.fckpt").read_bytes()) is no_links
        assert not any(f.name.endswith(".tmp") for f in tmp_path.iterdir())

    def test_empty_corpus_rejected(self):
        net = build_frenet(tiny_config(base_size=8), seed=7)
        with pytest.raises(ConfigurationError, match="empty"):
            train(net, [], TrainConfig(), val_pairs=[])


def _identity(tile):
    return Tensor(tile.data.copy())


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def blas_env(monkeypatch):
    """Set the BLAS thread variables the tile pool reads; unset ones mean BLAS's default."""
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)

    def set_env(**values):
        for var, value in values.items():
            monkeypatch.setenv(var, value)

    return set_env


_ONE_STEP = """
import hashlib, sys
from frenet.arch import build_frenet, tiny_config
from frenet.rawdata import PreprocessSpec, gen_dataset
from frenet.train import TrainConfig, train
items = gen_dataset(3, count=4, h=64, w=64, spec=PreprocessSpec(), noise_sigma=0.001,
                    kernel_kind="gaussian", sigma_range=(0.8, 1.5))
train(build_frenet(tiny_config(base_size=32), seed=5), [(it.blurred, it.sharp) for it in items],
      TrainConfig(epochs=1, batch=4, max_steps=1, val_count=0), out_dir=sys.argv[1], val_pairs=[])
with open(sys.argv[1] + "/final.fckpt", "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
"""


def test_a_step_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # final.fckpt holds every parameter and both Adam moments of each after one
    # tiny-preset step, each run in a process of its own at a BLAS thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-c", _ONE_STEP, str(out)], env=env, capture_output=True,
                              text=True, check=True)
        digests.append(done.stdout.split()[-1])
    assert digests[0] == digests[1]


@pytest.fixture
def one_blas_thread(blas_env):
    blas_env(OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("env, cpus, tiles, workers", [
    ({}, 8, 9, 1),  # BLAS's default: one thread per CPU, none left idle
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 9, 8),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),  # at most one per tile
    ({"OMP_NUM_THREADS": "2"}, 8, 9, 4),
    ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 8, 9, 2),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 9, 2),
    ({"OPENBLAS_NUM_THREADS": "16"}, 8, 9, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "two"}, 8, 9, 1),  # neither counts
])
def test_tile_workers_leave_blas_its_cpus(monkeypatch, blas_env, env, cpus, tiles, workers):
    blas_env(**env)
    monkeypatch.setattr(train_module, "usable_cpus", lambda: cpus)
    assert tile_workers(tiles) == workers


class TestSlidingWindow:
    def test_identity_stub_reconstructs_input(self):
        rng = np.random.default_rng(8)
        for h, w, window, overlap in [(96, 96, 64, 32), (64, 64, 32, 16), (40, 56, 16, 8)]:
            image = Tensor(rng.uniform(0, 1, (3, h, w)).astype(np.float32))
            out = sliding_window_infer(_identity, image, window, overlap)
            assert np.abs(out.data - image.data).max() < 1e-6

    def test_single_tile_is_bit_exact(self):
        rng = np.random.default_rng(9)
        image = Tensor(rng.uniform(0, 1, (2, 32, 32)).astype(np.float32))

        def plus_one(tile):
            return Tensor(tile.data + 1.0)

        tiled = sliding_window_infer(plus_one, image, 32, 16)
        assert np.array_equal(tiled.data, plus_one(image).data)

    def test_tiles_run_without_a_tape(self):
        net = build_frenet(tiny_config(base_size=8), seed=9)
        tapes = []

        def forward(tile):
            out = net.forward(tile)
            tapes.append(out._backward)
            return out

        image = Tensor(np.random.default_rng(10).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        sliding_window_infer(forward, image, 8, 4)
        assert len(tapes) == 9 and all(t is None for t in tapes)

    @pytest.mark.usefixtures("one_blas_thread")
    def test_tiles_equal_a_sequential_loop(self):
        # window 8, stride 5: tiles start at 0, 5, 10 and a ragged 13 (rows) / 11 (columns)
        net = build_frenet(tiny_config(base_size=8), seed=12)
        image = Tensor(np.random.default_rng(13).uniform(0, 1, (4, 21, 19)).astype(np.float32))
        weight = np.outer(raised_cosine_profile(8), raised_cosine_profile(8))
        acc_val, acc_w = np.zeros((4, 21, 19)), np.zeros((21, 19))
        with no_grad():
            for y0 in (0, 5, 10, 13):
                for x0 in (0, 5, 10, 11):
                    tile = Tensor(np.ascontiguousarray(image.data[:, y0 : y0 + 8, x0 : x0 + 8]))
                    acc_val[:, y0 : y0 + 8, x0 : x0 + 8] += net.forward(tile).data.astype(np.float64) * weight
                    acc_w[y0 : y0 + 8, x0 : x0 + 8] += weight
        expected = (acc_val / acc_w).astype(np.float32)
        assert np.array_equal(sliding_window_infer(net.forward, image, 8, 3).data, expected)

    @pytest.mark.skipif(usable_cpus() < 2, reason="one usable CPU: the pool has one thread")
    @pytest.mark.usefixtures("one_blas_thread")
    def test_tiles_run_concurrently(self):
        # the first two tiles must meet at the barrier, so they run at the same time
        meet, threads = threading.Barrier(2, timeout=10), []

        def forward(tile):
            if len(threads) < 2:
                threads.append(threading.get_ident())
                meet.wait()
            return _identity(tile)

        sliding_window_infer(forward, Tensor(np.zeros((1, 24, 24))), 8, 4)
        assert len(set(threads)) == 2 and threading.get_ident() not in threads

    def test_tiles_run_one_at_a_time_at_blas_default(self, blas_env):
        threads = []

        def forward(tile):
            threads.append(threading.get_ident())
            return _identity(tile)

        sliding_window_infer(forward, Tensor(np.zeros((1, 24, 24))), 8, 4)
        assert len(threads) == 25 and len(set(threads)) == 1

    @pytest.mark.usefixtures("one_blas_thread")
    def test_callers_observer_sees_every_tile(self):
        net = build_frenet(tiny_config(base_size=8), seed=9)
        image = Tensor(np.random.default_rng(10).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        seen = []
        with observe(lambda op, label, out, parents, spec: seen.append((op, label))):
            net.forward(Tensor(image.data[:, :8, :8]))
            per_tile = list(seen)
            seen.clear()
            sliding_window_infer(net.forward, image, 8, 4)
        assert sorted(seen, key=repr) == sorted(9 * per_tile, key=repr)

    @pytest.mark.usefixtures("one_blas_thread")
    def test_a_tiles_error_reaches_the_caller(self):
        calls = []

        def forward(tile):
            calls.append(None)
            if len(calls) == 3:
                raise ConfigurationError("tile 3 is bad")
            return _identity(tile)

        with pytest.raises(ConfigurationError, match="tile 3 is bad"):
            sliding_window_infer(forward, Tensor(np.zeros((1, 64, 64))), 8, 4)

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            sliding_window_infer(_identity, Tensor(np.zeros((1, 16, 16))), 32, 16)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 1000), st.integers(2, 2000))
def test_cosine_bounds_property(t, total):
    if t > total:
        t = total
    lr = cosine_lr(t, total, 1e-3)
    assert LR_MIN <= lr <= 1e-3


@settings(max_examples=30, deadline=None)
@given(
    st.integers(17, 80),
    st.integers(17, 80),
    st.sampled_from([8, 16]),
    st.data(),
)
def test_partition_of_unity_for_any_valid_tiling(h, w, window, data):
    # The blended identity reproduces a random input only if every pixel is
    # covered and the normalized tile weights sum to one there.
    if window > min(h, w):
        window = min(h, w)
    overlap = data.draw(st.integers(0, window - 1))
    image = np.random.default_rng(h * 1000 + w).uniform(0, 1, (2, h, w)).astype(np.float32)
    out = sliding_window_infer(_identity, Tensor(image), window, overlap)
    assert np.abs(out.data - image).max() < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_loss_positive_iff_tensors_differ(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
    b = a.copy()
    assert loss_total(Tensor(a), Tensor(b), 0.01).item() == 0.0
    b[0, rng.integers(0, 8), rng.integers(0, 8)] += 0.25
    assert loss_total(Tensor(a), Tensor(b), 0.01).item() > 0.0
