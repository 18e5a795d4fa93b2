"""Fuzzing of every file the CLI parses.

Each input is random bytes, a truncation of a valid file (maybe followed by
random bytes) or the valid file with one bit flipped; flips land in headers
and text as often as in float payloads. Tensors are also well-formed .ften
files of any small shape, finite or not. The file's parser must
return or raise ConfigurationError, and the command that reads the file must
return 0, or 1 with one ``error:`` line on stderr.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenet.arch import build_frenet, tiny_config
from frenet.cli import main
from frenet.fileio import (
    CKPT_MAGIC,
    FTEN_MAGIC,
    _parse_checkpoint,
    _Reader,
    read_ften,
    read_pgm16,
    read_utf8,
    restore_network,
    save_checkpoint,
    write_ften,
    write_pgm16,
)
from frenet.rawdata import PreprocessSpec, gen_dataset, load_corpus, save_corpus
from frenet.runconfig import parse_run_config
from frenet.tensor import ConfigurationError
from frenet.train import AdamState

from conftest import write_config

# values such as 1e30 overflow float32 inside the network, which is fine here
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _flip(data: bytes, bit: int) -> bytes:
    byte = bit // 8
    return data[:byte] + bytes([data[byte] ^ (1 << bit % 8)]) + data[byte + 1 :]


def _mutations(valid: bytes, structure: list[int]):
    """Random bytes, truncations with a random tail, and single-bit flips of
    ``valid``, half of them in the bytes at the offsets ``structure``."""
    bits = st.one_of(st.integers(0, 8 * len(valid) - 1),
                     st.tuples(st.sampled_from(structure), st.integers(0, 7)).map(lambda t: 8 * t[0] + t[1]))
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(st.integers(0, len(valid)), st.binary(max_size=16)).map(lambda t: valid[: t[0]] + t[1]),
        bits.map(lambda bit: _flip(valid, bit)),
    )


def _tensors(shapes=st.lists(st.integers(0, 20), max_size=4)):
    """Well-formed .ften files of any of ``shapes``, finite or not."""
    values = st.sampled_from([0.5, -1.0, 1e30, np.nan, np.inf])

    def encode(shape, value):
        header = struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
        return FTEN_MAGIC + header + np.full(shape, value, "<f4").tobytes()

    return st.builds(encode, shapes, values)


def _parses(parse, path) -> None:
    try:
        parse(path)
    except ConfigurationError:
        pass


def _exits_cleanly(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1)
    if code:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny base-8 checkpoint with Adam moments, a 16x16 RAW image as PGM
    and .ften, a run config that trains one step, and a 3-pair corpus."""
    root = tmp_path_factory.mktemp("fuzz")
    net = build_frenet(tiny_config(base_size=8), seed=2)
    state = AdamState(step=1)
    state.lay_out(list(net.parameters().values()))
    for v in state.v.values():
        v[...] = 1.0
    save_checkpoint(root / "net.fckpt", net, adam=state)
    write_pgm16(root / "in.pgm", np.full((16, 16), 1000.0))
    write_ften(root / "in.ften", np.full((1, 16, 16), 0.5, np.float32))
    write_config(root / "run.cfg", base_size=8, image_size=16, count=3, epochs=1, batch=2, val_count=1,
                 max_steps=1)
    save_corpus(root / "corpus", gen_dataset(1, 3, 16, 16, PreprocessSpec()))
    return root


def _checkpoint_structure(path) -> list[int]:
    """Offsets of the checkpoint's bytes that are not float payloads."""
    with open(path, "rb") as fh:
        params, adam_m, adam_v, _ = _parse_checkpoint(_Reader(fh, path, CKPT_MAGIC, ".fckpt"))
        size = fh.seek(0, 2)
    payloads = sorted((p.offset, p.offset + 4 * int(np.prod(p.shape)))
                      for table in (params, adam_m, adam_v) for p in table.values())
    structure, start = [], 0
    for lo, hi in payloads + [(size, size)]:
        structure += range(start, lo)
        start = hi
    return structure


_FTEN_HEADER = len(FTEN_MAGIC) + struct.calcsize("<4I")  # rank 3
_CORPUS_HEADER = len(FTEN_MAGIC) + struct.calcsize("<6I")  # rank 5
_PGM_HEADER = len(b"P5\n16 16\n65535\n")


def test_ften(files):
    @settings(max_examples=60, deadline=None)
    @given(_mutations((files / "in.ften").read_bytes(), list(range(_FTEN_HEADER))) | _tensors())
    def fuzz(data):
        path = files / "x.ften"
        path.write_bytes(data)
        _parses(read_ften, path)
        _exits_cleanly(["infer", "--checkpoint", files / "net.fckpt", "--input", path, "--output", files / "out.ften"])

    fuzz()


def test_corpus_tensor(files):
    path = files / "corpus" / "pairs.ften"
    valid = path.read_bytes()
    pair_shapes = st.tuples(st.integers(0, 4), st.just(2), st.integers(0, 5), st.integers(0, 9), st.integers(0, 9))

    @settings(max_examples=30, deadline=None)
    @given(_mutations(valid, list(range(_CORPUS_HEADER))) | _tensors() | _tensors(pair_shapes))
    def fuzz(data):
        path.write_bytes(data)
        _parses(lambda p: load_corpus(p.parent), path)
        _exits_cleanly(["train", "--config", files / "run.cfg", "--data", files / "corpus", "--out", files / "run"])

    try:
        fuzz()
    finally:
        path.write_bytes(valid)


def test_checkpoint(files):
    @settings(max_examples=80, deadline=None)
    @given(_mutations((files / "net.fckpt").read_bytes(), _checkpoint_structure(files / "net.fckpt")))
    def fuzz(data):
        path = files / "x.fckpt"
        path.write_bytes(data)
        _parses(restore_network, path)
        _exits_cleanly(["dump-kernels", "--checkpoint", path, "--out", files / "kernels"])

    fuzz()


def test_pgm(files):
    @settings(max_examples=60, deadline=None)
    @given(_mutations((files / "in.pgm").read_bytes(), list(range(_PGM_HEADER))))
    def fuzz(data):
        path = files / "x.pgm"
        path.write_bytes(data)
        _parses(read_pgm16, path)
        _exits_cleanly(["infer", "--checkpoint", files / "net.fckpt", "--input", path, "--output", files / "out.pgm"])

    fuzz()


def test_run_config(files):
    valid = (files / "run.cfg").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(_mutations(valid, list(range(len(valid)))))
    def fuzz(data):
        path = files / "x.cfg"
        path.write_bytes(data)
        _parses(lambda p: parse_run_config(read_utf8(p)), path)
        _exits_cleanly(["analyze", "--config", path])

    fuzz()
