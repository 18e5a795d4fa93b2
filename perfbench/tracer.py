"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of the modules in
``src/frenet/`` (and a few class methods) with timing wrappers, and restores
them on ``uninstall``. Forward time is the inclusive time of each call. Every
autodiff node an op returns gets its backward closure wrapped, so backward
time lands on the op's kind and on every layer that was active when the node
was built. Layers nest: ``spectral.pack`` includes the tensor ops it calls,
``afpm`` and ``arch.*`` include everything inside them.

Counts (nodes, einsum calls, FFTs) are only taken outside validation, so they
read per training sample on training workloads and per tile on inference.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.fft

from frenet.tensor import Parameter, Tensor

# frenet/__init__ re-exports the function train(), which hides the submodule attribute.
afpm, arch, fileio, rawdata, spectral, tensor, train = (
    importlib.import_module(f"frenet.{name}")
    for name in ("afpm", "arch", "fileio", "rawdata", "spectral", "tensor", "train")
)

_POINTWISE = (
    "add", "sub", "mul", "scale", "abs_", "mean_all", "matmul", "transpose2d", "reshape",
    "concat_channels", "slice_channels", "roll2d", "gelu", "simple_gate", "global_avg_pool",
    "depth_to_space",
)

# module function -> layer key
_FUNCTIONS = {
    **{(tensor, name): "tensor.pointwise" for name in _POINTWISE},
    (tensor, "layer_norm_channels"): "tensor.norm",
    (spectral, "fft2d"): "spectral.fft",
    (spectral, "ifft2d"): "spectral.fft",
    (spectral, "fft_shift"): "spectral.pack",
    (spectral, "complex_to_channels"): "spectral.pack",
    (spectral, "channels_to_complex"): "spectral.pack",
    # Not reported: wrapped so their nodes' backward lands on afpm and the section.
    (afpm, "patch_weighted_sum"): "afpm.patch",
    (afpm, "patch_scale"): "afpm.patch",
    (train, "loss_total"): "train.loss",
    (train, "adam_step"): "train.adam",
    (train, "validation_psnr"): "train.val",
    (train, "sliding_window_infer"): "train.infer",
    (rawdata, "bayer_pack"): "rawdata.pack",
    (rawdata, "bayer_unpack"): "rawdata.pack",
    (rawdata, "preprocess_raw"): "rawdata.pack",
    (rawdata, "to_sensor_counts"): "rawdata.pack",
    (fileio, "read_pgm16"): "fileio.pgm",
    (fileio, "write_pgm16"): "fileio.pgm",
    (fileio, "restore_network"): "fileio.restore",
}

SECTION_ORDER = ("intro", "enc1", "enc2", "enc3", "mid", "dec3", "dec2", "dec1", "final")


def conv_kind(spec) -> str:
    if spec.kernel_h == spec.kernel_w == 1:
        return "tensor.conv1x1"
    if spec.groups == spec.in_channels == spec.out_channels and spec.kernel_h == 3:
        return "tensor.convdw3"
    if spec.stride == 2:
        return "tensor.convdown"
    return "tensor.conv3x3"


def graph_bytes(root: Tensor) -> int:
    """Bytes of the arrays a graph keeps alive: node outputs and closure captures.

    Views count once, through the buffer they look into (stride-trick views
    reach it through a non-array ``base``); parameter buffers are not graph memory.
    """
    buffers: dict[int, int] = {}
    params: set[int] = set()

    def owner(arr):
        while True:
            base = arr.base
            if base is not None and not isinstance(base, np.ndarray):
                base = getattr(base, "base", None)
            if not isinstance(base, np.ndarray):
                return arr
            arr = base

    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays = [node.data]
        fn = node._backward
        fn = getattr(fn, "inner", fn)
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        for arr in arrays:
            arr = owner(arr)
            buffers[id(arr)] = arr.nbytes
        if isinstance(node, Parameter):
            params.add(id(owner(node.data)))
        stack.extend(node._parents)
    return sum(size for key, size in buffers.items() if key not in params)


class _TimedBackward:
    __slots__ = ("tracer", "inner", "keys")

    def __init__(self, tracer, inner, keys):
        self.tracer, self.inner, self.keys = tracer, inner, keys

    def __call__(self, g):
        start = time.perf_counter()
        self.inner(g)
        elapsed = time.perf_counter() - start
        tr = self.tracer
        tr.closure_s += elapsed
        for key in self.keys:
            tr.seconds[key + ".bwd"] += elapsed


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.tape_bytes: list[int] = []
        self.checkpoint_bytes: list[int] = []
        self.stack: list[str] = []
        self.closure_s = 0.0
        self.excluded_s = 0.0  # graph walks, kept out of every layer's time
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------

    def _counting(self) -> bool:
        return "train.val" not in self.stack

    def _tag(self, result, key):
        """Wrap the backward of every fresh node in ``result``."""
        nodes = (result.re, result.im) if isinstance(result, spectral.ComplexTensor) else (result,)
        for node in nodes:
            fn = getattr(node, "_backward", None)
            if fn is None or isinstance(fn, _TimedBackward):
                continue
            keys = tuple(dict.fromkeys(self.stack + [key]))
            node._backward = _TimedBackward(self, fn, keys)
            if self._counting():
                self.counts["nodes"] += 1

    def _span(self, key, fn, args, kwargs):
        self.stack.append(key)
        excluded = self.excluded_s
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[key + ".fwd"] += time.perf_counter() - start - (self.excluded_s - excluded)
            self.counts[key + ".calls"] += 1
            self.stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap_op(self, key, fn):
        def op(*args, **kwargs):
            result = self._span(key, fn, args, kwargs)
            self._tag(result, key)
            return result
        return op

    def _wrap_conv(self, fn):
        def conv2d(x, spec, *args, **kwargs):
            key = conv_kind(spec)
            result = self._span(key, fn, (x, spec) + args, kwargs)
            self._tag(result, key)
            return result
        return conv2d

    def _wrap_section(self, fn, name_of):
        def call(obj, *args, **kwargs):
            name = name_of(obj)
            if name is None:
                return fn(obj, *args, **kwargs)
            return self._span("arch." + name, fn, (obj,) + args, kwargs)
        return call

    def _wrap_forward(self, fn):
        def forward(net, *args, **kwargs):
            out = self._span("net.forward", fn, (net,) + args, kwargs)
            if "train.infer" in self.stack:
                self._walk(out)
            return out
        return forward

    def _wrap_backward(self, fn):
        def backward(root):
            self._walk(root)
            closures = self.closure_s
            excluded = self.excluded_s
            start = time.perf_counter()
            try:
                return fn(root)
            finally:
                total = time.perf_counter() - start - (self.excluded_s - excluded)
                self.seconds["tensor.backward_overhead"] += total - (self.closure_s - closures)
        return backward

    def _wrap_save(self, fn):
        def save_checkpoint(path, *args, **kwargs):
            result = self._span("fileio.save", fn, (path,) + args, kwargs)
            self.checkpoint_bytes.append(os.path.getsize(path))
            return result
        return save_checkpoint

    def _wrap_gen(self, fn):
        def gen_dataset(*args, **kwargs):
            result = self._span("rawdata.gen", fn, args, kwargs)
            self.counts["rawdata.pairs"] += len(result)
            return result
        return gen_dataset

    def _wrap_count(self, key, fn):
        def counted(*args, **kwargs):
            if self._counting():
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _walk(self, root):
        start = time.perf_counter()
        self.tape_bytes.append(graph_bytes(root))
        self.excluded_s += time.perf_counter() - start

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_function(self, original, replacement):
        """Rebind ``original`` wherever a frenet module imported it by name."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "frenet" and not mod_name.startswith("frenet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        for (module, name), key in _FUNCTIONS.items():
            original = getattr(module, name)
            self._patch_function(original, self._wrap_op(key, original))
        self._patch_function(tensor.conv2d, self._wrap_conv(tensor.conv2d))
        self._patch_function(fileio.save_checkpoint, self._wrap_save(fileio.save_checkpoint))
        self._patch_function(rawdata.gen_dataset, self._wrap_gen(rawdata.gen_dataset))

        self._patch(afpm.Afpm, "__call__", self._wrap_op("afpm", afpm.Afpm.__call__))
        self._patch(arch.FreBlock, "__call__", self._wrap_section(
            arch.FreBlock.__call__, lambda b: b.name.split(".")[0]))
        self._patch(arch.Down, "__call__", self._wrap_section(
            arch.Down.__call__, lambda d: d.conv.weight.name.split(".")[0]))
        self._patch(arch.Up, "__call__", self._wrap_section(
            arch.Up.__call__, lambda u: u.conv1.weight.name.split(".")[0]))
        self._patch(arch.Conv, "__call__", self._wrap_section(
            arch.Conv.__call__,
            lambda c: c.weight.name[: -len(".weight")]
            if c.weight.name in ("intro.weight", "final.weight") else None))
        self._patch(arch.FrENet, "forward", self._wrap_forward(arch.FrENet.forward))
        self._patch(Tensor, "backward", self._wrap_backward(Tensor.backward))
        self._patch(np, "einsum", self._wrap_count("einsum", np.einsum))
        self._patch(scipy.fft, "fft2", self._wrap_count("transforms", scipy.fft.fft2))
        self._patch(scipy.fft, "ifft2", self._wrap_count("transforms", scipy.fft.ifft2))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- report ------------------------------------------------------------

    def per_layer(self, rounds: int, samples: int, section_macs: dict[str, int]) -> dict:
        """Per-layer metrics: ``*_ms`` per round unless named otherwise.

        ``samples`` is the number of training samples (or tiles) in the traced
        rounds; ``section_macs`` are analyze's MACs per forward for each section.
        """
        s, c = self.seconds, self.counts
        ms = lambda key: 1e3 * s[key] / rounds  # noqa: E731
        per_call = lambda key, calls: 1e3 * s[key] / calls if calls else 0.0  # noqa: E731
        out = {}
        for kind in ("conv1x1", "convdw3", "conv3x3", "convdown", "norm", "pointwise"):
            out[f"tensor.{kind}.fwd_ms"] = (ms(f"tensor.{kind}.fwd"), "ms")
            out[f"tensor.{kind}.bwd_ms"] = (ms(f"tensor.{kind}.bwd"), "ms")
        out["tensor.nodes_per_sample"] = (c["nodes"] / samples, "count")
        out["tensor.einsum_calls_per_sample"] = (c["einsum"] / samples, "count")
        out["tensor.backward_overhead_ms"] = (ms("tensor.backward_overhead"), "ms")
        tape = np.mean(self.tape_bytes) / 2**20 if self.tape_bytes else 0.0
        out["tensor.tape_mib"] = (float(tape), "MiB")
        for layer in ("fft", "pack"):
            out[f"spectral.{layer}.fwd_ms"] = (ms(f"spectral.{layer}.fwd"), "ms")
            out[f"spectral.{layer}.bwd_ms"] = (ms(f"spectral.{layer}.bwd"), "ms")
        out["spectral.transforms_per_sample"] = (c["transforms"] / samples, "count")
        out["afpm.fwd_ms"] = (ms("afpm.fwd"), "ms")
        out["afpm.bwd_ms"] = (ms("afpm.bwd"), "ms")
        forwards = c["net.forward.calls"]
        for name in SECTION_ORDER:
            secs = s[f"arch.{name}.fwd"]
            rate = section_macs.get(name, 0) * forwards / secs / 1e9 if secs else 0.0
            out[f"arch.{name}.fwd_ms"] = (ms(f"arch.{name}.fwd"), "ms")
            out[f"arch.{name}.gmac_per_s"] = (rate, "GMAC/s")
        out["train.loss_ms"] = (ms("train.loss.fwd"), "ms")
        out["train.adam_ms"] = (ms("train.adam.fwd"), "ms")
        out["train.val_ms"] = (ms("train.val.fwd"), "ms")
        images = c["train.infer.calls"]
        tiles = forwards if images else 0
        tile_s = s["net.forward.fwd"] if images else 0.0
        out["train.tile_fwd_ms"] = (1e3 * tile_s / tiles if tiles else 0.0, "ms")
        out["train.blend_ms"] = (1e3 * (s["train.infer.fwd"] - tile_s) / rounds if images else 0.0, "ms")
        out["train.tiles_per_image"] = (tiles / images if images else 0.0, "count")
        out["rawdata.gen_ms_per_pair"] = (per_call("rawdata.gen.fwd", c["rawdata.pairs"]), "ms")
        out["rawdata.pack_ms"] = (ms("rawdata.pack.fwd"), "ms")
        out["fileio.pgm_ms"] = (ms("fileio.pgm.fwd"), "ms")
        out["fileio.save_ms"] = (per_call("fileio.save.fwd", c["fileio.save.calls"]), "ms")
        ckpt = np.mean(self.checkpoint_bytes) / 2**20 if self.checkpoint_bytes else 0.0
        out["fileio.checkpoint_mib"] = (float(ckpt), "MiB")
        out["fileio.restore_ms"] = (per_call("fileio.restore.fwd", c["fileio.restore.calls"]), "ms")
        return out
