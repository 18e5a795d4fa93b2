import hashlib
import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from frenet.arch import build_frenet, tiny_config
from frenet.fileio import (
    CKPT_MAGIC,
    FTEN_MAGIC,
    read_ften,
    read_pgm16,
    restore_network,
    save_checkpoint,
    write_ften,
    write_pgm16,
)
from frenet.rawdata import PreprocessSpec
from frenet.runconfig import render_checkpoint_config
from frenet.tensor import ConfigurationError, Tensor
from frenet.train import AdamState


class TestFten:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((3, 4, 5)).astype(np.float32)
        path = tmp_path / "x.ften"
        write_ften(path, arr)
        assert np.array_equal(read_ften(path), arr)

    @pytest.mark.parametrize("shape", [(0, 0), (4, 0, 16), ()])
    def test_round_trip_of_an_empty_shape(self, tmp_path, shape):
        # a byte cast of the array refused a size-0 shape with a TypeError; rank 0 was written as (1,)
        arr = np.full(shape, 0.5, np.float32)
        path = tmp_path / "x.ften"
        write_ften(path, arr)
        got = read_ften(path)
        assert got.shape == shape and np.array_equal(got, arr)

    def test_wire_format(self, tmp_path):
        arr = np.array([[1.5, -2.0]], dtype=np.float32)
        path = tmp_path / "x.ften"
        write_ften(path, arr)
        blob = path.read_bytes()
        assert blob.startswith(FTEN_MAGIC)
        rank, d0, d1 = struct.unpack_from("<III", blob, len(FTEN_MAGIC))
        assert (rank, d0, d1) == (2, 1, 2)
        assert blob[len(FTEN_MAGIC) + 12 :] == arr.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        arr = np.zeros((2, 3), dtype=np.float32)
        arr[1, 2] = bad
        path = tmp_path / "x.ften"
        write_ften(path, arr)
        with pytest.raises(ConfigurationError, match="non-finite") as exc:
            read_ften(path)
        assert str(path) in str(exc.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ften"
        path.write_bytes(b"NOPE\n" + b"\x00" * 16)
        with pytest.raises(ConfigurationError, match="magic"):
            read_ften(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ften"
        write_ften(path, np.zeros(4, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ConfigurationError, match="payload"):
            read_ften(path)


def _config_bytes(net) -> bytes:
    return render_checkpoint_config(net.cfg, PreprocessSpec()).encode("utf-8")


def _header_size(net, buffers) -> int:
    """Magic, config length, config, its digest, layout digest, step, buffer count, float counts."""
    return len(CKPT_MAGIC) + 4 + len(_config_bytes(net)) + 64 + 8 + 4 * buffers


class TestCheckpoint:
    def test_round_trip_restores_network(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=3)
        state = AdamState(step=17)
        state.lay_out(list(net.parameters().values()))
        for name in state.m:
            state.m[name][...], state.v[name][...] = 0.125, 0.5
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state, preprocess=PreprocessSpec(32, 4095))
        assert path.read_bytes().startswith(CKPT_MAGIC)

        restored, preprocess = restore_network(path)
        assert preprocess.black_level == 32 and preprocess.white_level == 4095
        assert restored.cfg.width == net.cfg.width
        assert restored.cfg.base_size == 16
        for name, p in net.parameters().items():
            assert np.array_equal(restored.parameters()[name].data, p.data)
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (4, 16, 16)).astype(np.float32))
        assert np.array_equal(net.forward(x).data, restored.forward(x).data)

    def test_config_digest_guards_the_config(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        blob = bytearray(path.read_bytes())
        blob[len(CKPT_MAGIC) + 10] ^= 0xFF  # a byte inside the stored config text
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError, match="digest"):
            restore_network(path)

    @pytest.mark.parametrize("moments", [False, True], ids=["without moments", "with moments"])
    def test_restore_holds_the_weights_once(self, tmp_path, moments):
        # the network is built empty and the payloads are read straight into
        # its parameters, not into a loaded copy beside them; moments, twice
        # the weights' size, stay on disk
        net = build_frenet(tiny_config(base_size=16, width=48), seed=0)
        weights = sum(p.data.nbytes for p in net.parameters().values())
        assert weights >= 10 * 2**20
        state = None
        if moments:
            state = AdamState(step=5)
            state.lay_out(list(net.parameters().values()))
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state)
        tracemalloc.start()
        try:
            restored = restore_network(path)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * weights
        for name, p in net.parameters().items():
            assert np.array_equal(restored.parameters()[name].data, p.data)

    def test_restore_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = build_frenet(tiny_config(base_size=16), seed=3)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        default_rng = np.random.default_rng

        def guarded(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller in ("frenet.arch", "frenet.afpm"):
                raise AssertionError(f"{caller} drew initial weights")
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", guarded)
        restored = restore_network(path)[0].parameters()
        assert list(restored) == list(net.parameters())
        for name, p in net.parameters().items():
            assert np.array_equal(restored[name].data, p.data)

    def test_config_that_is_not_utf8_rejected(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        blob = path.read_bytes()
        # a valid digest of a config that does not decode, and the rest of the file as it was
        rest = blob[len(CKPT_MAGIC) + 4 + len(_config_bytes(net)) + 32 :]
        path.write_bytes(CKPT_MAGIC + struct.pack("<I", 1) + b"\xff" + hashlib.sha256(b"\xff").digest() + rest)
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}: config at byte {len(CKPT_MAGIC) + 4} is not UTF-8"):
            restore_network(path)

    @pytest.mark.parametrize("adam", ["none", "no moments yet"])
    def test_saved_without_optimizer_moments_holds_one_buffer(self, tmp_path, adam):
        # train() saves a state with no moments when its first loss is not finite
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=None if adam == "none" else AdamState())
        at = _header_size(net, 1) - 12
        assert struct.unpack_from("<3I", path.read_bytes(), at) == (0, 1, net.param_count())
        assert path.stat().st_size == _header_size(net, 1) + 4 * net.param_count()
        restored, _ = restore_network(path)
        for name, p in net.parameters().items():
            assert np.array_equal(restored.parameters()[name].data, p.data)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import frenet.fileio as fileio

        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "best.fckpt"
        save_checkpoint(path, net)
        before = path.read_bytes()
        for p in net.parameters().values():
            p.data = p.data + 1.0

        class DiskFull:
            """A file whose fifth write, one of the floats, fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    raise OSError("disk full")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(fileio, "open", lambda file, mode: DiskFull(open(file, mode)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.fckpt"]

    def test_bytes_match_an_independent_writer(self, tmp_path):
        # the parameters need not share a buffer, as after perfbench's reset
        net = build_frenet(tiny_config(base_size=16), seed=2)
        params = net.parameters()
        for p in params.values():
            p.data = p.data.copy()
        rng = np.random.default_rng(3)
        state = AdamState(step=9)
        state.lay_out(list(params.values()))
        for name, m in state.m.items():
            m[...] = rng.standard_normal(m.shape)
            state.v[name][...] = rng.uniform(0, 1, m.shape)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state)

        config = _config_bytes(net)
        layout = "".join(f"{name} {' '.join(str(d) for d in p.data.shape)}\n" for name, p in params.items())
        floats = sum(p.data.size for p in params.values())
        expected = b"".join([
            CKPT_MAGIC, struct.pack("<I", len(config)), config, hashlib.sha256(config).digest(),
            hashlib.sha256(layout.encode()).digest(), struct.pack("<5I", 9, 3, floats, floats, floats),
            *(p.data.astype("<f4").tobytes() for p in params.values()),
            *(state.m[name].astype("<f4").tobytes() for name in params),
            *(state.v[name].astype("<f4").tobytes() for name in params),
        ])
        assert path.read_bytes() == expected

    def test_digest_matches_sha256_of_config(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        restored, preprocess = restore_network(path)
        config = render_checkpoint_config(restored.cfg, preprocess).encode()
        at = len(CKPT_MAGIC) + 4 + len(config)
        assert path.read_bytes()[at : at + 32] == hashlib.sha256(config).digest()


class TestPnm:
    def test_pgm16_round_trip_big_endian(self, tmp_path):
        counts = np.array([[0, 1, 513], [65535, 64, 1023]], dtype=np.float32)
        path = tmp_path / "img.pgm"
        write_pgm16(path, counts)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n3 2\n65535\n")
        assert blob[13:15] == (0).to_bytes(2, "big")
        back = read_pgm16(path)
        assert back.shape == (1, 2, 3)
        assert np.array_equal(back[0], counts)

    def test_pgm_comment_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = np.arange(4, dtype=">u2").tobytes()
        path.write_bytes(b"P5\n# a comment\n2 2\n65535\n" + payload)
        back = read_pgm16(path)
        assert back.shape == (1, 2, 2)
        assert back[0, 1, 1] == 3.0

    def test_pgm8_one_byte_samples(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1, 2, 253, 254, 255]))
        back = read_pgm16(path)
        assert back.shape == (1, 2, 3) and back.dtype == np.float32
        assert back[0].tolist() == [[0, 1, 2], [253, 254, 255]]


@pytest.mark.parametrize("tamper", ["layout digest", "float count", "config"])
def test_restore_rejects_mismatched_geometry(tmp_path, tamper):
    # a checkpoint's floats must fit the network its config builds, name for
    # name and shape for shape, or it fails loudly rather than load them askew
    net = build_frenet(tiny_config(base_size=16), seed=0)
    path = tmp_path / "n.fckpt"
    save_checkpoint(path, net)
    blob, at = path.read_bytes(), _header_size(net, 1)
    if tamper == "layout digest":  # its last byte flipped
        blob = blob[: at - 13] + bytes([blob[at - 13] ^ 1]) + blob[at - 12 :]
    elif tamper == "float count":  # one more float counted, and one more there
        blob = blob[: at - 4] + struct.pack("<I", net.param_count() + 1) + blob[at:] + bytes(4)
    else:  # a stored config of another width, with its own digest and the same floats
        wider = render_checkpoint_config(tiny_config(base_size=16, width=8), PreprocessSpec()).encode()
        blob = (CKPT_MAGIC + struct.pack("<I", len(wider)) + wider + hashlib.sha256(wider).digest()
                + blob[len(CKPT_MAGIC) + 4 + len(_config_bytes(net)) + 32 :])
    path.write_bytes(blob)
    with pytest.raises(ConfigurationError, match="layout mismatch"):
        restore_network(path)


class TestTruncation:
    """Every prefix of a valid file either parses or raises ConfigurationError."""

    def test_checkpoint_prefixes(self, tmp_path, monkeypatch):
        # the header counts every float that follows it, so a cut anywhere is
        # refused before the network is built
        import frenet.arch as arch

        net = build_frenet(tiny_config(base_size=16), seed=0)
        state = AdamState(step=1)
        state.lay_out(list(net.parameters().values()))
        for v in state.v.values():
            v[...] = 1.0
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state)
        blob = path.read_bytes()
        builds = []
        monkeypatch.setattr(arch, "build_frenet", lambda *args, **kwargs: builds.append(args))
        cut_path = tmp_path / "cut.fckpt"
        for cut in [*range(0, 64), *range(64, len(blob), 97),
                    len(blob) // 3, len(blob) // 2, len(blob) - 100, len(blob) - 1]:
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(ConfigurationError, match="cut.fckpt"):
                restore_network(cut_path)
        assert builds == []

    def test_ften_prefixes(self, tmp_path):
        path = tmp_path / "x.ften"
        write_ften(path, np.ones((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigurationError, match="x.ften"):
                read_ften(path)

    def test_pnm_prefixes(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm16(path, np.full((3, 5), 700.0))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigurationError, match="a.pgm"):
                read_pgm16(path)

    def test_a_shape_past_64_bits_is_named_briefly(self, tmp_path):
        # a rank-32 shape of 0xFFFFFFFF dims needs a 310-digit byte count, which the message printed
        huge = struct.pack("<33I", 32, *[0xFFFFFFFF] * 32)
        path = tmp_path / "r32.ften"
        path.write_bytes(FTEN_MAGIC + huge)
        with pytest.raises(ConfigurationError) as exc:
            read_ften(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: ") and f"at byte {len(FTEN_MAGIC)} " in message
        assert "over 2**64" in message
        assert len(message) - len(str(path)) < 80 and not re.search(r"\d{21}", message)

    @pytest.mark.parametrize("field", ["config length", "buffer count", "float count"])
    def test_oversized_checkpoint_header_number_is_refused_unallocated(self, tmp_path, field):
        # each field set to what no valid file holds, past the bytes the file has
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "big.fckpt"
        save_checkpoint(path, net)
        blob, at = path.read_bytes(), _header_size(net, 1)
        field_at = {"config length": len(CKPT_MAGIC), "buffer count": at - 8, "float count": at - 4}[field]
        value = 2 if field == "buffer count" else 0xFFFFFFFF
        path.write_bytes(blob[:field_at] + struct.pack("<I", value) + blob[field_at + 4 :])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError) as exc:
                restore_network(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        message = str(exc.value)
        assert message.startswith(f"{path}: ") and " at byte " in message and "\n" not in message
        assert len(message) - len(str(path)) < 80

    def test_malformed_pnm_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        for header in (b"P5\nx 2\n255\n", b"P5\n0 2\n255\n", b"P5\n2 2\n70000\n", b"P5\n2 -2\n255\n"):
            path.write_bytes(header + bytes(16))
            with pytest.raises(ConfigurationError, match="bad.pgm"):
                read_pgm16(path)
