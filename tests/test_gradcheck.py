import numpy as np
import pytest

from frenet.afpm import Afpm, make_patch_grid
from frenet.arch import build_frenet, tiny_config
from frenet.gradcheck import grad_check
from frenet.spectral import fft2d, fft_shift, ifft2d
from frenet.tensor import (
    ConvSpec,
    EvaluationError,
    Parameter,
    Tensor,
    abs_,
    conv2d,
    gelu,
    layer_norm_channels,
    mean_all,
    mul,
    parameter_buffer,
    simple_gate,
    sub,
)
from frenet.train import loss_total


def test_quadratic_matches_analytic_gradient():
    theta = Parameter("theta", np.array(3.0, dtype=np.float32))
    report = grad_check(lambda: mul(theta, theta), [theta], probe_count=1, h=1e-3)
    probe = report.probes[0]
    assert abs(probe.analytic - 6.0) < 1e-6
    assert abs(probe.numeric - 6.0) < 1e-4  # central difference is exact to O(h^2)
    assert probe.ok


def test_conv_l1_loss_probes_pass():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 2, 2)).astype(np.float32))
    target = Tensor(rng.standard_normal((1, 2, 2)).astype(np.float32))
    spec = ConvSpec(2, 1, 1, 1)
    w = Parameter("w", rng.standard_normal((1, 2, 1, 1)).astype(np.float32))
    b = Parameter("b", rng.standard_normal(1).astype(np.float32))

    def loss():
        return mean_all(abs_(sub(conv2d(x, spec, w, b), target)))

    report = grad_check(loss, [w, b], probe_count=3, h=1e-3, tol=1e-3)
    assert report.pass_fraction == 1.0


def test_norm_gate_gelu_composition():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 4, 4)).astype(np.float32))
    gamma = Parameter("gamma", rng.uniform(0.5, 1.5, 4).astype(np.float32))
    beta = Parameter("beta", rng.standard_normal(4).astype(np.float32))

    def loss():
        return mean_all(gelu(simple_gate(layer_norm_channels(x, gamma, beta))))

    report = grad_check(loss, [gamma, beta], probe_count=8, h=1e-3)
    assert report.pass_fraction == 1.0, report.summary()


def test_spectral_round_trip_gradients():
    rng = np.random.default_rng(2)
    w = Parameter("w", rng.standard_normal((3, 8, 8)).astype(np.float32))
    target = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))

    def loss():
        spectrum = fft_shift(fft2d(w))
        back = ifft2d(fft_shift(spectrum, inverse=True))
        return mean_all(abs_(sub(back, target)))

    report = grad_check(loss, [w], probe_count=20, h=1e-3)
    assert report.pass_fraction == 1.0, report.summary()


def test_afpm_primitive_gradients():
    rng = np.random.default_rng(3)
    grid = make_patch_grid(8, 8, 4)
    with parameter_buffer(rng) as module_params:
        module = Afpm("m", channels=3, grid=grid)
    x = Parameter("x", rng.standard_normal((3, 8, 8)).astype(np.float32))
    params = [x, *module_params]

    def loss():
        return mean_all(mul(module(x), module(x)))

    report = grad_check(loss, params, probe_count=40, h=1e-3)
    assert report.pass_fraction == 1.0, report.summary()


def test_full_loss_gradients_include_frequency_term():
    rng = np.random.default_rng(4)
    pred_param = Parameter("p", rng.uniform(0, 1, (2, 8, 8)).astype(np.float32))
    target = Tensor(rng.uniform(0, 1, (2, 8, 8)).astype(np.float32))
    report = grad_check(
        lambda: loss_total(pred_param, target, 0.01), [pred_param], probe_count=25, h=1e-3
    )
    assert report.pass_fraction == 1.0, report.summary()


def test_non_finite_loss_names_parameter():
    # the baseline loss is already non-finite
    theta = Parameter("theta", np.float32("inf"))

    def loss():
        return mul(theta, theta)

    with pytest.raises(EvaluationError, match="non-finite"):
        grad_check(loss, [theta], probe_count=1)


def test_gradients_restored_after_check():
    theta = Parameter("theta", np.array(2.0, dtype=np.float32))
    grad_check(lambda: mul(theta, theta), [theta], probe_count=1)
    assert theta.data.dtype == np.float32
    assert float(theta.data) == 2.0
    assert theta.grad is None


@pytest.mark.parametrize("variant", [
    {},
    {"use_pooling_variant": True},
    {"use_local_branch": False},
    {"use_freq_skip": False},
])
def test_float64_parameters_and_input_keep_the_whole_tape_float64(variant):
    # Central differences in float64 (gradcheck, the benchmark's directional
    # derivative) are only meaningful if no op drops to float32 on the way.
    net = build_frenet(tiny_config(base_size=16, **variant), seed=1)
    params = list(net.parameters().values())
    for p in params:
        p.data = p.data.astype(np.float64)
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(0, 1, (4, 16, 16)))
    target = Tensor(rng.uniform(0, 1, (4, 16, 16)))
    loss = loss_total(net.forward(x), target, 0.01)
    # backward() frees the graph, so walk it first and have every interior
    # node's closure record the dtype of the gradient it receives.
    nodes, stack, seen, interior, grad_dtypes = [], [loss], set(), 0, []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
            if node._backward is not None:
                node._backward = _recording_dtype(node._backward, grad_dtypes)
                interior += 1
    loss.backward()
    assert len(nodes) > len(params)
    assert len(grad_dtypes) == interior
    assert [n for n in nodes if n.data.dtype != np.float64] == []
    assert [dt for dt in grad_dtypes if dt != np.float64] == []
    assert all(p.grad is not None and p.grad.dtype == np.float64 for p in params)


def _recording_dtype(fn, dtypes):
    def bw(g):
        dtypes.append(g.dtype)
        fn(g)
    return bw


@pytest.mark.parametrize("variant", [{}, {"use_pooling_variant": True}])
def test_batched_loss_gradients_match_finite_differences(variant):
    # Three distinct inputs through one graph: every parameter gradient is a
    # sum over the samples, the AFPM generators' too, which run once per sample.
    net = build_frenet(tiny_config(base_size=16, **variant), seed=5)
    rng = np.random.default_rng(53)
    x = Tensor(rng.uniform(0.0, 1.0, (3, 4, 16, 16)).astype(np.float32))
    target = Tensor(rng.uniform(0.0, 1.0, (3, 4, 16, 16)).astype(np.float32))
    params = list(net.parameters().values())
    afpm = [p for p in params if ".afpm." in p.name]
    for chosen, probes in ((params, 60), (afpm, 40)):
        report = grad_check(lambda: loss_total(net.forward(x), target, 0.01), chosen,
                            probe_count=probes, h=1e-3, tol=1e-3, seed=9)
        assert report.pass_fraction == 1.0, report.summary()
