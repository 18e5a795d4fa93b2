"""A leading batch axis computes each sample exactly as it would be computed alone.

Training stacks a step's items into one NxCxHxW tensor. These tests pin that
the batched forward, loss and parameter gradients are bit-identical to
per-item forwards joined by a chain of ``add``, which is how the batch would
be trained one item at a time.
"""

import numpy as np
import pytest

from frenet.arch import build_frenet, frenet_config, tiny_config
from frenet.tensor import Tensor, add, no_grad, scale, sum_in_order
from frenet.train import loss_total, validation_psnr

TINY_VARIANTS = {
    "default": tiny_config(base_size=16),
    "pooling": tiny_config(base_size=16, use_pooling_variant=True),
    "global-only": tiny_config(base_size=16, use_local_branch=False),
    "freq-skip-off": tiny_config(base_size=16, use_freq_skip=False),
    "base32-residual": tiny_config(base_size=32, global_residual=True),
}


def _inputs(cfg, n, seed):
    rng = np.random.default_rng(seed)
    shape = (n, cfg.in_channels, cfg.base_size, cfg.base_size)
    return rng.uniform(0, 1, shape).astype(np.float32), rng.uniform(0, 1, shape).astype(np.float32)


@pytest.mark.parametrize("cfg, n", [
    *[(cfg, 5) for cfg in TINY_VARIANTS.values()],
    (frenet_config(), 2),
], ids=[*TINY_VARIANTS, "frenet"])
def test_batched_forward_equals_per_item_forwards(cfg, n):
    net = build_frenet(cfg, seed=3)
    xs, _ = _inputs(cfg, n, seed=11)
    with no_grad():
        batched = net.forward(Tensor(xs)).data
        items = [net.forward(Tensor(x)).data for x in xs]
    assert batched.shape == (n,) + items[0].shape
    assert batched.dtype == np.float32
    for i, item in enumerate(items):
        assert np.array_equal(batched[i], item), f"sample {i} differs"


def _per_item_step(net, xs, ys, fr_weight):
    net.zero_grad()
    total = None
    for x, y in zip(xs, ys):
        item = loss_total(net.forward(Tensor(x)), Tensor(y), fr_weight)
        total = item if total is None else add(total, item)
    loss = scale(total, 1.0 / len(xs))
    loss.backward()
    return loss.data, {name: p.grad for name, p in net.parameters().items()}


def _batched_step(net, xs, ys, fr_weight):
    net.zero_grad()
    loss = loss_total(net.forward(Tensor(xs)), Tensor(ys), fr_weight)
    loss.backward()
    return loss.data, {name: p.grad for name, p in net.parameters().items()}


@pytest.mark.parametrize("name", ["default", "pooling", "global-only", "base32-residual"])
@pytest.mark.parametrize("fr_weight", [0.01, 0.0])
def test_batched_step_equals_per_item_chain(name, fr_weight):
    # Batch 8: numpy sums an axis of 8 or more float32 values pairwise, so an
    # unordered batch reduction would show here.
    net = build_frenet(TINY_VARIANTS[name], seed=4)
    xs, ys = _inputs(net.cfg, 8, seed=12)
    loss_items, grads_items = _per_item_step(net, xs, ys, fr_weight)
    loss_batch, grads_batch = _batched_step(net, xs, ys, fr_weight)
    assert loss_batch.shape == () and loss_batch.dtype == np.float32
    assert np.array_equal(loss_batch, loss_items)
    assert grads_batch.keys() == grads_items.keys()
    differ = [k for k in grads_items
              if grads_batch[k].dtype != np.float32 or not np.array_equal(grads_batch[k], grads_items[k])]
    assert differ == []


def test_sum_in_order_adds_one_value_after_another():
    values = np.array([1.0, 1e8, -1e8, 3.0, 1e-3, 7.0, -2.5, 1e7, -1e7, 0.25], dtype=np.float32)
    expected = values[0]
    for v in values[1:]:
        expected = expected + v
    assert np.sum(values) != expected  # pairwise summation would give another value
    out = sum_in_order(Tensor(values))
    assert out.shape == () and out.dtype == np.float32
    assert out.item() == expected


def test_validation_is_the_same_for_every_chunk_size():
    net = build_frenet(tiny_config(base_size=16), seed=5)
    xs, ys = _inputs(net.cfg, 5, seed=13)
    pairs = [(Tensor(x), Tensor(y)) for x, y in zip(xs, ys)]
    scores = {batch: validation_psnr(net, pairs, batch) for batch in (1, 2, 5, 8)}
    assert len(set(scores.values())) == 1, scores

