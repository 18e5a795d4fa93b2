"""Binary file formats: .ften tensors, .fckpt checkpoints, PGM images.

Every integer is unsigned 32-bit little-endian, and every float 32-bit
little-endian.

.ften: magic "FTEN1\\n", then rank and each dim, then the float payload.

.fckpt: magic "FRENETCK2\\n"; the config length, the canonical config text
the network was built from, and the SHA-256 of that text; the SHA-256 of the
parameter layout, one "name d0 d1 ...\\n" line per parameter in the network's
order; the step, the buffer count (1, or 3 with Adam's moments) and each
buffer's float count; then the buffers: every parameter, then every first
moment, then every second moment, each in the network's order. The config
fixes every name and shape, so the floats carry neither.

RAW images travel as binary 16-bit PGM ("P5", maxval 65535, big-endian
samples); the reader also takes 8-bit PGM (maxval <= 255).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from .runconfig import parse_checkpoint_config, render_checkpoint_config
from .tensor import ConfigurationError

FTEN_MAGIC = b"FTEN1\n"
CKPT_MAGIC = b"FRENETCK2\n"


def read_utf8(path: str | Path) -> str:
    """The text of a file; bytes that are not UTF-8 raise ConfigurationError
    naming the file and the offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 at byte {exc.start}") from None


def write_ften(path: str | Path, array: np.ndarray) -> None:
    arr = np.require(array, "<f4", "C")  # keeps rank 0, which np.ascontiguousarray makes (1,)
    with open(path, "wb") as fh:
        fh.write(FTEN_MAGIC)
        fh.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
        fh.write(memoryview(arr))  # the array's own buffer, not a bytes copy


_U32 = struct.Struct("<I")


class _Reader:
    """Parses an open binary file front to back, after checking its magic.

    A read past the end raises ConfigurationError naming the file and the offset.
    """

    def __init__(self, fh, path, magic: bytes, kind: str):
        if fh.read(len(magic)) != magic:
            raise ConfigurationError(f"{path}: not a {kind} file (bad magic)")
        self.fh, self.path, self.offset = fh, path, len(magic)
        self.size = os.fstat(fh.fileno()).st_size

    def _claim(self, size: int) -> int:
        """Advance over the next ``size`` bytes and return where they start; past the end, raise."""
        at, left = self.offset, self.size - self.offset
        if size > left:
            raise ConfigurationError(f"{self.path}: truncated at byte {at} (need {size} bytes, {left} left)")
        self.offset += size
        return at

    def read(self, size: int) -> bytes:
        self._claim(size)
        return self.fh.read(size)

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.read(fmt.size))

    def payload_is(self, size: int) -> None:
        """Refuse a file whose bytes left are not ``size``."""
        left = self.size - self.offset
        if left != size:
            raise ConfigurationError(f"{self.path}: payload at byte {self.offset} is {left} bytes, not {size}")

    def dims(self) -> tuple[int, ...]:
        """u32 rank then u32 dims. A rank over 32, numpy 1's limit, is refused, and so
        is a shape of 2**64 bytes or more, which no file holds: a message that names
        a payload's size prints at most 20 digits."""
        at = self.offset
        (rank,) = self.unpack(_U32)
        if rank > 32:
            raise ConfigurationError(f"{self.path}: rank {rank} at byte {at} exceeds 32")
        dims = struct.unpack(f"<{rank}I", self.read(4 * rank))
        if 4 * math.prod(dims) >= 1 << 64:
            raise ConfigurationError(f"{self.path}: shape at byte {at} needs over 2**64 bytes")
        return dims

    def floats(self, out: np.ndarray) -> np.ndarray:
        """The next 32-bit little-endian floats, read straight into ``out``, a
        C-contiguous float32 array of their shape."""
        at = self._claim(out.nbytes)
        # through a view: its buffer bookkeeping dies with it; a byte cast would refuse a size-0 shape
        if self.fh.readinto(out[...]) != out.nbytes:
            raise ConfigurationError(f"{self.path}: truncated at byte {at}")
        if out.dtype != np.dtype("<f4"):  # a big-endian host
            out.byteswap(inplace=True)
        return out


def read_ften(path: str | Path) -> np.ndarray:
    """The tensor in ``path``. A NaN or Inf is refused: no reader takes one, and
    one NaN would spread through every FFT or training step it meets."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path, FTEN_MAGIC, ".ften")
        dims = reader.dims()
        reader.payload_is(4 * math.prod(dims))
        data = reader.floats(np.empty(dims, np.float32))
    if not _all_finite(data):
        raise ConfigurationError(f"{path}: holds non-finite values (NaN or Inf)")
    return data


def _layout_digest(params: dict) -> bytes:
    """SHA-256 of one "name d0 d1 ..." line per parameter, in order."""
    lines = "".join(" ".join([name, *map(str, p.shape)]) + "\n" for name, p in params.items())
    return hashlib.sha256(lines.encode("utf-8")).digest()


def save_checkpoint(path: str | Path, net, adam=None, preprocess=None) -> None:
    """Write ``net``'s config and parameters, and ``adam``'s step (0 without it)
    and its moments once they are laid out.

    Each array is written as it lies, so the parameters need not share a buffer.
    """
    from .rawdata import PreprocessSpec

    preprocess = preprocess if preprocess is not None else PreprocessSpec()
    config = render_checkpoint_config(net.cfg, preprocess).encode("utf-8")
    params = net.parameters()
    buffers = [[p.data for p in params.values()]]
    if adam is not None and adam.m:
        buffers += [[adam.m[name] for name in params], [adam.v[name] for name in params]]
    step = 0 if adam is None else adam.step
    count = len(buffers)

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC + _U32.pack(len(config)) + config + hashlib.sha256(config).digest())
            fh.write(_layout_digest(params))
            fh.write(struct.pack(f"<{2 + count}I", step, count, *[net.param_count()] * count))
            for arrays in buffers:
                for arr in arrays:
                    fh.write(memoryview(np.require(arr, "<f4", "C")))

    _publish(Path(path), write)


def link_checkpoint(src: str | Path, path: str | Path) -> None:
    """Publish ``path`` as a hard link of the checkpoint ``src``: its bytes, none written again.

    Raises OSError where the file system cannot link, and leaves ``path`` as it was.
    """
    _publish(Path(path), lambda tmp: os.link(src, tmp))


def _publish(path: Path, fill: Callable[[Path], None]) -> None:
    """Make ``path`` by ``fill(tmp)`` on a file beside it, then rename it over
    ``path``: a crash midway leaves the previous file intact."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        fill(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone after a successful replace


def _all_finite(a: np.ndarray) -> bool:
    """No NaN and no infinity in ``a``: its min and max carry either, and take
    no mask of its size. An empty ``a`` has neither."""
    return a.size == 0 or (math.isfinite(a.min()) and math.isfinite(a.max()))


def restore_network(path: str | Path):
    """Rebuild the network a checkpoint describes and load its parameters.

    The header is read first, and the bytes after it must be the floats it
    counts, so a cut file is refused before anything is built. The network is
    then built from the stored config without initial values (no random
    draws), and its layout digest and float count must match the header's.
    Each parameter's floats are read straight into its slice of the network's
    buffer, so the weights exist once. Parameters must be finite: one NaN
    weight would turn every output pixel into NaN. The optimizer moments and
    the step stay on disk. Returns (net, preprocess_spec).
    """
    from .arch import build_frenet

    with open(path, "rb") as fh:
        reader = _Reader(fh, path, CKPT_MAGIC, ".fckpt")
        (config_len,) = reader.unpack(_U32)
        at = reader.offset
        encoded = reader.read(config_len)
        if hashlib.sha256(encoded).digest() != reader.read(32):
            raise ConfigurationError(f"{path}: config digest mismatch (corrupt checkpoint)")
        try:
            config_text = encoded.decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigurationError(f"{path}: config at byte {at} is not UTF-8") from None
        layout = reader.read(32)
        reader.unpack(_U32)  # the step, which no caller reads
        at = reader.offset
        (buffers,) = reader.unpack(_U32)
        if buffers not in (1, 3):
            raise ConfigurationError(f"{path}: buffer count {buffers} at byte {at} is not 1 or 3")
        counts = struct.unpack(f"<{buffers}I", reader.read(4 * buffers))
        reader.payload_is(4 * sum(counts))
        net_cfg, preprocess = parse_checkpoint_config(config_text)
        net = build_frenet(net_cfg, seed=None)
        params = net.parameters()
        if layout != _layout_digest(params) or set(counts) != {net.param_count()}:
            raise ConfigurationError(
                f"{path}: parameter layout mismatch: the floats do not fit the network its config builds"
            )
        for name, p in params.items():
            if not _all_finite(reader.floats(p.data)):
                raise ConfigurationError(f"{path}: parameter {name} holds non-finite values (NaN or Inf)")
    return net, preprocess


def write_pgm16(path: str | Path, plane: np.ndarray) -> None:
    """Single-channel counts as binary PGM, maxval 65535, big-endian samples."""
    arr = np.asarray(plane)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise ConfigurationError(f"PGM writer expects one plane, got shape {arr.shape}")
    counts = np.clip(np.rint(arr), 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii"))
        fh.write(counts.tobytes())


def read_pgm16(path: str | Path) -> np.ndarray:
    """Read a binary PGM ("P5"); returns its samples as a 1xHxW float32 array.

    Raises ConfigurationError naming the file when the header is malformed or
    the payload is shorter than width x height samples.
    """
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise ConfigurationError(f"{path}: expected P5 header")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if len(token) > 18:  # no image has 10**18 samples a side; int() refuses over 4,300 digits
            raise ConfigurationError(f"{path}: header field at byte {start} has {len(token)} characters")
        if not token.isdigit():
            raise ConfigurationError(f"{path}: malformed header field {token!r} at byte {start}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ConfigurationError(f"{path}: malformed header {width}x{height} maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval <= 255 else ">u2")
    count = width * height
    offset = pos + 1
    if len(blob) - offset < count * dtype.itemsize:
        raise ConfigurationError(
            f"{path}: payload has {max(len(blob) - offset, 0)} bytes, "
            f"header needs {count * dtype.itemsize}"
        )
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return data.reshape(1, height, width).astype(np.float32)
