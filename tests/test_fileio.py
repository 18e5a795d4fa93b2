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

    def test_config_digest_guards_trailer(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        blob = bytearray(path.read_bytes())
        # flip one byte inside the stored config text (the tail is digest + text)
        blob[-40] ^= 0xFF
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
        # the trailer is step, config length, config text, digest; a valid digest
        # of a config that does not decode
        config_len = len(render_checkpoint_config(net.cfg, PreprocessSpec()).encode())
        head = blob[: len(blob) - 32 - config_len - 4]
        path.write_bytes(head + struct.pack("<I", 1) + b"\xff" + hashlib.sha256(b"\xff").digest())
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}: config at byte {len(head) + 4} is not UTF-8"):
            restore_network(path)

    def test_saved_without_optimizer_state(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        restored, _ = restore_network(path)
        assert set(restored.parameters()) == set(net.parameters())

    @pytest.mark.parametrize("tamper", ["unpaired", "unknown", "shape"])
    def test_unmatched_adam_moments_rejected(self, tmp_path, tamper):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        state = AdamState(step=3)
        state.lay_out(list(net.parameters().values()))
        if tamper == "shape":
            state.m["intro.bias"] = np.zeros(3, dtype=np.float32)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state)
        blob = path.read_bytes()
        if tamper == "unpaired":
            blob = blob.replace(b"adam.v.intro.weight", b"adam.m.intro.weight")
        elif tamper == "unknown":
            blob = blob.replace(b".intro.weight", b".intro.weighx")
        path.write_bytes(blob)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: .*moment"):
            restore_network(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import frenet.fileio as fileio

        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "best.fckpt"
        save_checkpoint(path, net)
        before = path.read_bytes()
        for p in net.parameters().values():
            p.data = p.data + 1.0
        write_record, calls = fileio._write_record, []

        def failing_write_record(fh, name, array):
            calls.append(name)
            if len(calls) == 3:
                raise OSError("disk full")
            write_record(fh, name, array)

        monkeypatch.setattr(fileio, "_write_record", failing_write_record)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.fckpt"]

    @pytest.mark.parametrize("moments", ["every parameter", "some parameters"])
    def test_bytes_match_an_independent_writer(self, tmp_path, moments):
        # moments of some parameters are written in the parameters' order
        net = build_frenet(tiny_config(base_size=16), seed=2)
        rng = np.random.default_rng(3)
        state = AdamState(step=9)
        state.lay_out([p for name, p in net.parameters().items()
                       if moments == "every parameter" or name.startswith("enc1.")])
        for name, m in state.m.items():
            m[...] = rng.standard_normal(m.shape)
            state.v[name][...] = rng.uniform(0, 1, m.shape)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state)

        def record(name, arr):
            encoded = name.encode("utf-8")
            return (struct.pack("<I", len(encoded)) + encoded + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
                    + arr.astype("<f4").tobytes())

        params = net.parameters()
        config = render_checkpoint_config(net.cfg, PreprocessSpec()).encode("utf-8")
        expected = b"".join([
            CKPT_MAGIC, struct.pack("<I", len(params)),
            *(record(name, p.data) for name, p in params.items()),
            struct.pack("<I", 2 * len(state.m)),
            *(record(f"adam.{k}.{name}", getattr(state, k)[name]) for name in params if name in state.m
              for k in "mv"),
            struct.pack("<II", 9, len(config)), config, hashlib.sha256(config).digest(),
        ])
        assert path.read_bytes() == expected

    def test_digest_matches_sha256_of_config(self, tmp_path):
        net = build_frenet(tiny_config(base_size=16), seed=0)
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net)
        restored, preprocess = restore_network(path)
        config_text = render_checkpoint_config(restored.cfg, preprocess)
        blob = path.read_bytes()
        assert blob[-32:] == hashlib.sha256(config_text.encode()).digest()


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


def test_restore_rejects_mismatched_geometry(tmp_path):
    # a checkpoint describes its own geometry; loading into a different tree
    # must fail loudly rather than silently skip parameters
    net16 = build_frenet(tiny_config(base_size=16), seed=0)
    path = tmp_path / "n.fckpt"
    save_checkpoint(path, net16)
    blob = path.read_bytes()
    for old, new in [
        (b"final.bias", b"final.bixs"),  # one record renamed: the trees disagree
        (b"intro.weight" + struct.pack("<5I", 4, 4, 4, 3, 3),  # same payload, other shape
         b"intro.weight" + struct.pack("<5I", 4, 2, 8, 3, 3)),
    ]:
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(ConfigurationError, match="mismatch"):
            restore_network(path)


class TestTruncation:
    """Every prefix of a valid file either parses or raises ConfigurationError."""

    def test_checkpoint_prefixes(self, tmp_path):
        # restore parses the headers first and reads the payloads after the
        # network is built; a cut anywhere must stop it in the first pass
        net = build_frenet(tiny_config(base_size=16), seed=0)
        state = AdamState(step=1)
        state.lay_out(list(net.parameters().values()))
        for v in state.v.values():
            v[...] = 1.0
        path = tmp_path / "net.fckpt"
        save_checkpoint(path, net, adam=state)
        blob = path.read_bytes()
        cut_path = tmp_path / "cut.fckpt"
        for cut in [*range(0, 64), *range(64, len(blob), 97),
                    len(blob) // 3, len(blob) // 2, len(blob) - 100, len(blob) - 1]:
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(ConfigurationError, match="cut.fckpt"):
                restore_network(cut_path)

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

    @pytest.mark.parametrize("kind", ["ften", "fckpt"])
    def test_a_shape_past_64_bits_is_named_briefly(self, tmp_path, kind):
        # a rank-32 shape of 0xFFFFFFFF dims needs a 310-digit byte count, which the message printed
        huge = struct.pack("<33I", 32, *[0xFFFFFFFF] * 32)
        path = tmp_path / f"r32.{kind}"
        # the shape is the file's last field: for a checkpoint, that of one record named "w"
        blob = FTEN_MAGIC + huge if kind == "ften" else CKPT_MAGIC + struct.pack("<2I", 1, 1) + b"w" + huge
        path.write_bytes(blob)
        with pytest.raises(ConfigurationError) as exc:
            (read_ften if kind == "ften" else restore_network)(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: ") and f"at byte {len(blob) - len(huge)} " in message
        assert "over 2**64" in message
        assert len(message) - len(str(path)) < 80 and not re.search(r"\d{21}", message)

    def test_malformed_pnm_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        for header in (b"P5\nx 2\n255\n", b"P5\n0 2\n255\n", b"P5\n2 2\n70000\n", b"P5\n2 -2\n255\n"):
            path.write_bytes(header + bytes(16))
            with pytest.raises(ConfigurationError, match="bad.pgm"):
                read_pgm16(path)
