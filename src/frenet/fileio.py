"""Binary file formats: .ften tensors, .fckpt checkpoints, PGM images.

.ften: magic "FTEN1\\n", then rank and each dim as unsigned 32-bit
little-endian, then the raw 32-bit little-endian float payload.

.fckpt: magic "FRENETCK1\\n"; u32 parameter count; per record a u32 name
length, the UTF-8 name, u32 rank, u32 dims, and the f32 payload; the same
record structure again for optimizer moments (names prefixed "adam.m." /
"adam.v."); then a trailer with the step count, the canonical config text the
network was built from, and the SHA-256 digest of that text.

RAW images travel as binary 16-bit PGM ("P5", maxval 65535, big-endian
samples); the reader also takes 8-bit PGM (maxval <= 255).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .runconfig import parse_checkpoint_config, render_checkpoint_config
from .tensor import ConfigurationError

FTEN_MAGIC = b"FTEN1\n"
CKPT_MAGIC = b"FRENETCK1\n"


def read_utf8(path: str | Path) -> str:
    """The text of a file; bytes that are not UTF-8 raise ConfigurationError
    naming the file and the offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 at byte {exc.start}") from None


def write_ften(path: str | Path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(FTEN_MAGIC)
        _write_array(fh, array)


def _write_array(fh, array: np.ndarray) -> None:
    """u32 rank, u32 dims, then the 32-bit little-endian floats."""
    arr = np.require(array, "<f4", "C")  # keeps rank 0, which np.ascontiguousarray makes (1,)
    fh.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    fh.write(memoryview(arr))  # the array's own buffer, not a bytes copy


class _Payload(NamedTuple):
    """Where a record's floats start in its file, and their shape."""

    offset: int
    shape: tuple[int, ...]


_U32, _U32_PAIR = struct.Struct("<I"), struct.Struct("<II")


class _Reader:
    """Parses an open binary file front to back, after checking its magic;
    payloads can be skipped and read later by where they lie.

    A read past the end raises ConfigurationError naming the file and the offset.
    """

    def __init__(self, fh, path, magic: bytes, kind: str):
        if fh.read(len(magic)) != magic:
            raise ConfigurationError(f"{path}: not a {kind} file (bad magic)")
        self.fh, self.path, self.offset = fh, path, len(magic)
        self.size = os.fstat(fh.fileno()).st_size

    def _truncated(self, size: int) -> ConfigurationError:
        left = self.size - self.offset
        return ConfigurationError(
            f"{self.path}: truncated at byte {self.offset} (need {size} bytes, {left} left)"
        )

    def read(self, size: int) -> bytes:
        if size > self.size - self.offset:
            raise self._truncated(size)
        self.offset += size
        return self.fh.read(size)

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.read(fmt.size))

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

    def skip(self, dims: tuple[int, ...]) -> _Payload:
        """Seek over the next 32-bit floats of shape ``dims``; returns where they lie."""
        size = 4 * math.prod(dims)
        if size > self.size - self.offset:
            raise self._truncated(size)
        payload = _Payload(self.offset, dims)
        self.offset += size
        self.fh.seek(self.offset)
        return payload

    def floats(self, payload: _Payload, out: np.ndarray | None = None) -> np.ndarray:
        """The 32-bit little-endian floats at ``payload``, read straight into ``out``
        (a C-contiguous float32 array of its shape) or into a new array."""
        data = np.empty(payload.shape, dtype=np.float32) if out is None else out
        self.fh.seek(payload.offset)
        # through a view: its buffer bookkeeping dies with it; a byte cast would refuse a size-0 shape
        if self.fh.readinto(data[...]) != data.nbytes:
            raise ConfigurationError(f"{self.path}: truncated at byte {payload.offset}")
        if data.dtype != np.dtype("<f4"):  # a big-endian host
            data.byteswap(inplace=True)
        return data


def read_ften(path: str | Path) -> np.ndarray:
    """The tensor in ``path``. A NaN or Inf is refused: no reader takes one, and
    one NaN would spread through every FFT or training step it meets."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path, FTEN_MAGIC, ".ften")
        dims = reader.dims()
        left, expected = reader.size - reader.offset, 4 * math.prod(dims)
        if left != expected:
            raise ConfigurationError(f"{path}: payload size {left} != {expected}")
        data = reader.floats(_Payload(reader.offset, dims))
    if not _all_finite(data):
        raise ConfigurationError(f"{path}: holds non-finite values (NaN or Inf)")
    return data


def _write_record(fh, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    _write_array(fh, array)


def _read_record(reader: _Reader) -> tuple[str, _Payload]:
    """A record's name and where its floats lie; the floats are skipped.

    Each field is claimed where it lies, so a cut reports the first field it reaches.
    """
    (name_len,) = _U32.unpack(reader.read(4))
    offset = reader.offset
    try:
        name = reader.read(name_len).decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"{reader.path}: record name at byte {offset} is not UTF-8") from None
    return name, reader.skip(reader.dims())


def save_checkpoint(path: str | Path, net, adam=None, preprocess=None) -> None:
    """Write ``net``'s parameters and config, and ``adam``'s moments and step (0 without it)."""
    from .rawdata import PreprocessSpec

    preprocess = preprocess if preprocess is not None else PreprocessSpec()
    config_text = render_checkpoint_config(net.cfg, preprocess)
    params = net.parameters()
    moments: list[tuple[str, np.ndarray]] = []
    if adam is not None:
        for name in params:
            if name in adam.m:
                moments.append((f"adam.m.{name}", adam.m[name]))
                moments.append((f"adam.v.{name}", adam.v[name]))
    step = 0 if adam is None else adam.step

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<I", len(params)))
            for name, p in params.items():
                _write_record(fh, name, p.data)
            fh.write(struct.pack("<I", len(moments)))
            for name, arr in moments:
                _write_record(fh, name, arr)
            encoded = config_text.encode("utf-8")
            fh.write(struct.pack("<I", step))
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(hashlib.sha256(encoded).digest())

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


def _parse_checkpoint(reader: _Reader) -> tuple:
    """Parse every record header and the trailer, skipping the floats.

    Returns (params, adam_m, adam_v, config_text): the tables mapping record
    names to where their floats lie, and the config the network was built from.
    """
    params = dict(_read_record(reader) for _ in range(reader.unpack(_U32)[0]))
    moments: dict[str, dict] = {"adam.m.": {}, "adam.v.": {}}
    for _ in range(reader.unpack(_U32)[0]):
        name, payload = _read_record(reader)
        if name[:7] not in moments:
            raise ConfigurationError(f"{reader.path}: unexpected moment record {name!r}")
        moments[name[:7]][name[7:]] = payload
    _step, config_len = reader.unpack(_U32_PAIR)
    offset = reader.offset
    trailer = reader.read(config_len + 32)
    encoded, digest = trailer[:config_len], trailer[config_len:]
    if hashlib.sha256(encoded).digest() != digest:
        raise ConfigurationError(f"{reader.path}: config digest mismatch (corrupt checkpoint)")
    try:
        config_text = encoded.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"{reader.path}: config at byte {offset} is not UTF-8") from None
    return params, moments["adam.m."], moments["adam.v."], config_text


def _all_finite(a: np.ndarray) -> bool:
    """No NaN and no infinity in ``a``: its min and max carry either, and take
    no mask of its size. An empty ``a`` has neither."""
    return a.size == 0 or (math.isfinite(a.min()) and math.isfinite(a.max()))


def restore_network(path: str | Path):
    """Rebuild the network a checkpoint describes and load its parameters.

    The headers are parsed first, to reach the config; the network is built
    from it without initial values (no random draws), and each parameter's
    floats are then read straight into its slice of the network's buffer, so
    the weights exist once. Parameters must be finite: one NaN weight would
    turn every output pixel into NaN. The optimizer moments' records must
    pair up and match their parameters' shapes, but their floats and the
    step stay on disk. Returns (net, preprocess_spec).
    """
    from .arch import build_frenet

    with open(path, "rb") as fh:
        reader = _Reader(fh, path, CKPT_MAGIC, ".fckpt")
        stored, adam_m, adam_v, config_text = _parse_checkpoint(reader)
        net_cfg, preprocess = parse_checkpoint_config(config_text)
        net = build_frenet(net_cfg, seed=None)
        params = net.parameters()
        missing = sorted(set(params) - set(stored))
        extra = sorted(set(stored) - set(params))
        if missing or extra:
            raise ConfigurationError(
                f"{path}: parameter tree mismatch (missing {missing[:3]}, extra {extra[:3]})"
            )
        for name, p in params.items():
            shape = stored[name].shape
            if shape != p.data.shape:
                raise ConfigurationError(f"{path}: shape mismatch for {name}: {shape} vs {p.data.shape}")
        unpaired = sorted(set(adam_m) ^ set(adam_v))
        unknown = sorted(set(adam_m) - set(params))
        if unpaired or unknown:
            raise ConfigurationError(
                f"{path}: optimizer moment mismatch (unpaired {unpaired[:3]}, unknown {unknown[:3]})"
            )
        for name, m in adam_m.items():
            shape, v = params[name].data.shape, adam_v[name]
            if m.shape != shape or v.shape != shape:
                raise ConfigurationError(
                    f"{path}: moment shape mismatch for {name}: {m.shape}/{v.shape} vs {shape}"
                )
        for name, p in params.items():
            if not _all_finite(reader.floats(stored[name], out=p.data)):
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
