import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from frenet.cli import main
from frenet.fileio import read_ften, read_pgm16, restore_network, write_ften, write_pgm16
from frenet.rawdata import bayer_pack, bayer_unpack, gen_sharp, preprocess_raw, to_sensor_counts
from frenet.tensor import Tensor

from conftest import config_text, write_config


@pytest.fixture
def workdir(tmp_path):
    """A tiny base-16 recipe: a 10-pair corpus of 32x32 RAW images, 2 epochs of 4-item batches."""
    cfg_path = write_config(tmp_path / "run.cfg", base_size=16, image_size=32, count=10,
                            lr0="0.001", epochs=2, batch=4, val_count=2, seed=11, max_steps="none")
    return tmp_path, cfg_path


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus-flag", "x"])
    assert exc.value.code == 2
    # the window is the trained 2 * base_size and tiles overlap by half of it: neither is an option
    for flag in ("--window", "--overlap"):
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--checkpoint", "c.fckpt", "--input", "in.pgm", "--output", "out.pgm",
                  flag, "32"])
        assert exc.value.code == 2


def test_verify_suites_pass():
    assert main(["verify", "--suite", "spectral"]) == 0
    assert main(["verify", "--suite", "afpm"]) == 0


def test_verify_all_runs_every_suite(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in ("spectral", "afpm", "grad"):
        assert f"== suite {name}" in out


def test_verify_exit_code_propagates_failure(monkeypatch):
    import frenet.verify as verify

    monkeypatch.setitem(verify.SUITES, "spectral", lambda emit=print: False)
    assert main(["verify", "--suite", "spectral"]) == 1


def test_missing_config_is_runtime_error(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_key_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(config_text("frenet") + "bogus = 1\n")
    assert main(["analyze", "--config", str(path)]) == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, raw", [
    ("lr_min", "1e-06"), ("adam_beta1", "0.9"), ("adam_beta2", "0.999"), ("adam_eps", "1e-08"),
])
def test_config_setting_a_fixed_training_constant_is_runtime_error(tmp_path, capsys, key, raw):
    # the schedule floor and Adam's betas and eps are constants of frenet.train, not config keys
    path = tmp_path / "old.cfg"
    path.write_text(config_text("tiny") + f"{key} = {raw}\n")
    assert main(["train", "--config", str(path), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 1
    assert f"unknown keys: {key}" in _assert_one_error_line(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, raw", [("max_steps", "abc"), ("ffn_expand", "nan"), ("lr0", "inf")])
def test_unparsable_config_value_is_runtime_error(tmp_path, capsys, key, raw):
    path = write_config(tmp_path / "bad.cfg", **{key: raw})
    assert main(["analyze", "--config", str(path)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("key, raw", [("max_steps", "0"), ("max_steps", "-3"), ("val_count", "0")])
def test_training_that_would_skip_its_limits_is_runtime_error(tmp_path, capsys, key, raw):
    # max_steps below one used to take one step anyway; val_count = 0 used to
    # train without validation and report best val_psnr -inf.
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["datagen", "--config", str(write_config(tmp_path / "data.cfg", count=6)),
                 "--out", str(data)]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path / "bad.cfg", count=6, epochs=1, **{key: raw})
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 1
    assert key in _assert_one_error_line(capsys)
    assert not (run / "final.fckpt").exists()


def test_negative_noise_sigma_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", count=6, noise_sigma=-1)
    assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "data" / "manifest.txt").exists()


@pytest.mark.parametrize("sigma_min", ["0", "-1"])
def test_non_positive_blur_sigma_is_runtime_error(tmp_path, capsys, sigma_min):
    # sigma_min = 0 used to write an all-NaN blurred corpus with exit 0.
    cfg = write_config(tmp_path / "bad.cfg", count=2, sigma_min=sigma_min, sigma_max="0")
    assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "data" / "manifest.txt").exists()


@pytest.mark.parametrize("kind", ["motion", "mixed"])
def test_motion_blur_too_short_for_its_kernel_is_runtime_error(tmp_path, capsys, kind):
    # A 1-tap motion kernel used to end in numpy's "low >= high" traceback.
    cfg = write_config(tmp_path / "bad.cfg", count=2, kernel_kind=kind, kernel_size=1)
    assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 1
    assert "kernel_size" in _assert_one_error_line(capsys)
    assert not (tmp_path / "data" / "manifest.txt").exists()


def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    # A corpus too large to allocate used to end in a MemoryError traceback.
    import frenet.cli as cli

    def too_large(**kwargs):
        raise MemoryError("Unable to allocate 64.0 TiB for an array")

    monkeypatch.setattr(cli, "gen_dataset", too_large)
    cfg = write_config(tmp_path / "data.cfg", count=2)
    assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 1
    assert "out of memory" in _assert_one_error_line(capsys)


def test_image_size_other_than_twice_base_size_is_refused_when_the_config_loads(tmp_path, capsys):
    # The corpus would be written, and train would refuse it only afterwards.
    cfg = write_config(tmp_path / "bad.cfg", count=2, image_size=32)  # base_size = 32 packs 64
    assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 1
    assert "image_size" in _assert_one_error_line(capsys)
    assert not (tmp_path / "data").exists()


def test_shipped_paper_config_runs_through_datagen_and_train(tmp_path, capsys):
    # configs/frenet.cfg as shipped, but for a 2-pair corpus and one step at batch 1.
    cfg = write_config(tmp_path / "frenet.cfg", "frenet", count=2, batch=1, max_steps=1)
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["datagen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    assert "done: 1 steps" in capsys.readouterr().out
    assert (run / "final.fckpt").exists()


# Each used to end in a traceback: a shift by a negative or a huge count, or
# numpy refusing to allocate a weight of the shape the config asks for.
HOSTILE_NETWORK_VALUES = [
    ("scales", "-1"),
    ("scales", "1000000000000000000"),
    ("ffn_expand", "1e30"),
    ("base_size", "1099511627776"),
]


@pytest.mark.parametrize("key, raw", HOSTILE_NETWORK_VALUES)
def test_hostile_network_config_is_runtime_error(tmp_path, capsys, key, raw):
    # image_size follows base_size, so that the network itself meets the hostile value
    sizes = {"image_size": 2 * int(raw)} if key == "base_size" else {}
    path = write_config(tmp_path / "bad.cfg", **{key: raw}, **sizes)
    assert main(["analyze", "--config", str(path)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("key, raw", HOSTILE_NETWORK_VALUES)
def test_checkpoint_with_hostile_network_config_is_runtime_error(tmp_path, capsys, key, raw):
    ckpt, image = _tiny_checkpoint(tmp_path)
    _rewrite_checkpoint_config(ckpt, lambda text: b"".join(
        f"{key} = {raw}\n".encode() if line.startswith(f"{key} = ".encode()) else line
        for line in text.splitlines(keepends=True)))
    out = tmp_path / "out.pgm"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(image), "--output", str(out)]) == 1
    _assert_one_error_line(capsys)
    assert not out.exists()


def _with(pairs, index, value):
    out = pairs.copy()
    out[index] = value
    return out


@pytest.mark.parametrize("rewrite, why", [
    (lambda pairs: pairs[0, 0], "expected an Nx2xCxHxW tensor"),
    (lambda pairs: pairs[:, 0], "expected an Nx2xCxHxW tensor"),
    (lambda pairs: np.concatenate([pairs, pairs[:, :1]], axis=1), "expected an Nx2xCxHxW tensor"),
    (lambda pairs: _with(pairs, (3, 1, 0, 5, 7), np.nan), "non-finite"),
    (lambda pairs: _with(pairs, (0, 0, 2, 0, 0), -np.inf), "non-finite"),
    (None, "No such file or directory"),
], ids=["one CxHxW tensor", "blurred only", "three tensors a pair", "NaN", "Inf", "old per-pair layout"])
def test_malformed_corpus_is_runtime_error(tmp_path, capsys, rewrite, why):
    # a NaN used to reach train(), which wrote final.fckpt of the untrained net before raising
    data, run = tmp_path / "data", tmp_path / "run"
    cfg = write_config(tmp_path / "run.cfg", count=6, batch=4)
    assert main(["datagen", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    pairs = read_ften(data / "pairs.ften")
    if rewrite is None:  # the per-pair files and manifest a corpus used to be
        (data / "pairs.ften").unlink()
        for n, (blurred, sharp) in enumerate(pairs):
            write_ften(data / f"{n:04d}_blur.ften", blurred)
            write_ften(data / f"{n:04d}_sharp.ften", sharp)
    else:
        write_ften(data / "pairs.ften", rewrite(pairs))
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 1
    err = _assert_one_error_line(capsys)
    assert "pairs.ften" in err and why in err
    assert not (run / "final.fckpt").exists()


def test_config_not_utf8_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"model = tiny\nwidth = \xff\n")
    assert main(["analyze", "--config", str(path)]) == 1
    assert "bad.cfg: not UTF-8 at byte 21" in _assert_one_error_line(capsys)


def test_analyze_reports_reference_comparison(tmp_path, capsys):
    path = write_config(tmp_path / "frenet.cfg", "frenet")  # the full-size preset
    assert main(["analyze", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "params" in out and "conv_macs" in out and "fft_flops" in out
    assert "reference" in out and "deviation" in out
    assert "distribution" in out


def test_datagen_train_infer_dump_pipeline(workdir, capsys):
    tmp_path, cfg_path = workdir
    data_dir = tmp_path / "corpus"
    out_dir = tmp_path / "runs"

    assert main(["datagen", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    first = capsys.readouterr().out
    assert "digest" in first
    assert sorted(p.name for p in data_dir.iterdir()) == ["manifest.txt", "pairs.ften"]

    # idempotence: regenerating produces the identical corpus digest
    assert main(["datagen", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[-1] == second.splitlines()[-1]

    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(out_dir)]) == 0
    log = capsys.readouterr().out
    assert "epoch 1 step 1 lr" in log
    assert "val_psnr" in log
    ckpt = out_dir / "final.fckpt"
    assert ckpt.exists() and (out_dir / "best.fckpt").exists()
    assert (out_dir / "training.log").exists()

    # single-window inference equals the direct forward bit-exactly
    net, preprocess = restore_network(ckpt)
    raw01 = gen_sharp(99, 32, 32)
    pgm = tmp_path / "input.pgm"
    write_pgm16(pgm, to_sensor_counts(raw01, preprocess).data)
    out_img = tmp_path / "restored.ften"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(pgm),
                 "--output", str(out_img)]) == 0
    got = read_ften(out_img)
    loaded = preprocess_raw(Tensor(read_pgm16(pgm)), preprocess)
    direct = net.forward(bayer_pack(loaded))
    want = bayer_unpack(Tensor(np.clip(direct.data, 0.0, 1.0))).data
    assert np.array_equal(got, want)

    dump_dir = tmp_path / "dump"
    assert main(["dump-spectrum", "--checkpoint", str(ckpt), "--input", str(pgm),
                 "--block", "enc1.blk0", "--out", str(dump_dir)]) == 0
    re_plane = read_ften(dump_dir / "enc1.blk0.re.ften")
    im_plane = read_ften(dump_dir / "enc1.blk0.im.ften")
    assert re_plane.shape == im_plane.shape == (8, 8, 8)

    assert main(["dump-spectrum", "--checkpoint", str(ckpt), "--input", str(pgm),
                 "--block", "dec2.blk0", "--out", str(dump_dir)]) == 0
    assert read_ften(dump_dir / "dec2.blk0.re.ften").shape == (16, 4, 4)

    assert main(["dump-spectrum", "--checkpoint", str(ckpt), "--input", str(pgm),
                 "--block", "enc9.blk9", "--out", str(dump_dir)]) == 1

    kdir = tmp_path / "kernels"
    assert main(["dump-kernels", "--checkpoint", str(ckpt), "--out", str(kdir)]) == 0
    stacks = sorted(p.name for p in kdir.glob("*.kernels.ften"))
    assert "enc1.blk0.kernels.ften" in stacks
    assert "mid.blk0.kernels.ften" in stacks
    assert len(stacks) == 5  # one per FrE-Block
    stack = read_ften(kdir / "enc1.blk0.kernels.ften")
    assert stack.shape == (8, 8, 1, 1)  # 8x8 grid of 1x1 kernels at base 16
    blk = next(b for b in net.blocks() if b.name == "enc1.blk0")
    grid = blk.facm.afpm.grid
    want = blk.facm.afpm.kernel_kbg(grid.distances.reshape(-1)).data.reshape(stack.shape)
    assert np.array_equal(stack, want)


def test_dump_spectrum_writes_each_blocks_output_spectrum(tmp_path, monkeypatch):
    from frenet import arch

    ckpt, _ = _tiny_checkpoint(tmp_path)
    net, preprocess = restore_network(ckpt)
    pgm = tmp_path / "in32.pgm"
    write_pgm16(pgm, to_sensor_counts(gen_sharp(17, 32, 32), preprocess).data)

    returned = {}
    block_call = arch.FreBlock.__call__

    def recording_call(blk, f_in, freq_skip=None):
        f_out, spectrum = block_call(blk, f_in, freq_skip)
        returned[blk.name] = np.array(spectrum.data)
        return f_out, spectrum

    monkeypatch.setattr(arch.FreBlock, "__call__", recording_call)
    names = [blk.name for blk in net.blocks()]
    assert len(names) == 5
    for name in names:
        returned.clear()
        assert main(["dump-spectrum", "--checkpoint", str(ckpt), "--input", str(pgm),
                     "--block", name, "--out", str(tmp_path / "dump")]) == 0
        spectrum = returned[name]  # real planes over imaginary planes
        half = spectrum.shape[0] // 2
        write_ften(tmp_path / "want.re.ften", spectrum[:half])
        write_ften(tmp_path / "want.im.ften", spectrum[half:])
        for part in ("re", "im"):
            got = (tmp_path / "dump" / f"{name}.{part}.ften").read_bytes()
            assert got == (tmp_path / f"want.{part}.ften").read_bytes()


def test_sliding_window_infer_on_larger_image(workdir, tmp_path):
    _, cfg_path = workdir
    data_dir = tmp_path / "corpus2"
    out_dir = tmp_path / "runs2"
    assert main(["datagen", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(out_dir)]) == 0
    ckpt = out_dir / "final.fckpt"
    # 48x48 raw image tiled by the 32-raw-pixel training window
    _, preprocess = restore_network(ckpt)
    raw01 = gen_sharp(123, 48, 48)
    pgm = tmp_path / "big.pgm"
    write_pgm16(pgm, to_sensor_counts(raw01, preprocess).data)
    out_img = tmp_path / "big_restored.pgm"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(pgm),
                 "--output", str(out_img)]) == 0
    restored = read_pgm16(out_img)
    assert restored.shape == (1, 48, 48)


def _tiny_checkpoint(tmp_path, in_channels=4):
    """Untrained tiny base-16 checkpoint and a 48x48 RAW image it can tile."""
    from frenet.arch import build_frenet, tiny_config
    from frenet.fileio import save_checkpoint

    net = build_frenet(tiny_config(base_size=16, in_channels=in_channels, global_residual=True), seed=2)
    ckpt = tmp_path / "net.fckpt"
    save_checkpoint(ckpt, net)
    image = tmp_path / "in.pgm"
    write_pgm16(image, np.full((48, 48), 1000.0))
    return ckpt, image


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_infer_rejects_bad_tiling(tmp_path, capsys):
    # a 3-channel net cannot take the 4 packed Bayer channels
    ckpt, image = _tiny_checkpoint(tmp_path, in_channels=3)
    out = tmp_path / "out.pgm"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(image), "--output", str(out)]) == 1
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("role, argv", [
    ("input", ["--input", "in.png", "--output", "out.pgm"]),
    ("output", ["--input", "in.pgm", "--output", "out.png"]),
], ids=["input", "output"])
def test_infer_refuses_an_image_format_before_restoring(tmp_path, capsys, role, argv):
    # an unsupported output format used to be refused only after every tile had run
    assert main(["infer", "--checkpoint", str(tmp_path / "missing.fckpt"), *argv]) == 1
    assert f"unsupported {role} image format '.png'" in _assert_one_error_line(capsys)


def test_dump_spectrum_refuses_an_image_format_before_restoring(tmp_path, capsys, monkeypatch):
    # a .png input used to be refused only after the network was restored
    import frenet.cli as cli

    ckpt, _ = _tiny_checkpoint(tmp_path)
    restored = []
    monkeypatch.setattr(cli, "restore_network", lambda path: restored.append(path) or restore_network(path))
    assert main(["dump-spectrum", "--checkpoint", str(ckpt), "--input", str(tmp_path / "in.png"),
                 "--block", "enc1.blk0", "--out", str(tmp_path / "spec")]) == 1
    assert "unsupported input image format '.png'" in _assert_one_error_line(capsys)
    assert restored == []


def test_infer_error_in_a_later_tile_is_runtime_error(tmp_path, capsys, monkeypatch):
    # tiles run on worker threads; the third one's error must still end the command cleanly
    from frenet import arch
    from frenet.tensor import ConfigurationError

    ckpt, image = _tiny_checkpoint(tmp_path)
    forward, calls = arch.FrENet.forward, []

    def failing_forward(net, tile):
        calls.append(None)
        if len(calls) == 3:
            raise ConfigurationError("tile 3 cannot be restored")
        return forward(net, tile)

    monkeypatch.setattr(arch.FrENet, "forward", failing_forward)
    out = tmp_path / "out.pgm"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(image), "--output", str(out)]) == 1
    assert "tile 3 cannot be restored" in _assert_one_error_line(capsys)
    assert not out.exists()


def test_unpaired_adam_moments_is_runtime_error(tmp_path, capsys):
    from frenet.arch import build_frenet, tiny_config
    from frenet.fileio import save_checkpoint
    from frenet.train import AdamState

    net = build_frenet(tiny_config(base_size=16), seed=2)
    state = AdamState(step=1)
    state.lay_out(list(net.parameters().values()))
    ckpt = tmp_path / "net.fckpt"
    save_checkpoint(ckpt, net, adam=state)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"adam.v.intro.weight", b"adam.m.intro.weight"))
    assert main(["dump-kernels", "--checkpoint", str(ckpt), "--out", str(tmp_path / "k")]) == 1
    _assert_one_error_line(capsys)


def _rewrite_checkpoint_config(ckpt, edit):
    """Replace the checkpoint's config text by ``edit(text)``, with its length and digest."""
    from frenet.runconfig import render_checkpoint_config

    net, preprocess = restore_network(ckpt)
    old = render_checkpoint_config(net.cfg, preprocess).encode()
    new = edit(old)
    blob = ckpt.read_bytes()
    # keep the step; replace the config length, text and digest
    ckpt.write_bytes(blob[: len(blob) - 32 - len(old) - 4] + struct.pack("<I", len(new)) + new
                     + hashlib.sha256(new).digest())


@pytest.mark.parametrize("command", ["dump-kernels", "infer"])
def test_checkpoint_config_not_utf8_is_runtime_error(tmp_path, capsys, command):
    ckpt, image = _tiny_checkpoint(tmp_path)
    _rewrite_checkpoint_config(ckpt, lambda text: b"\xff")
    if command == "infer":
        argv = ["infer", "--checkpoint", str(ckpt), "--input", str(image),
                "--output", str(tmp_path / "out.pgm")]
    else:
        argv = ["dump-kernels", "--checkpoint", str(ckpt), "--out", str(tmp_path / "k")]
    assert main(argv) == 1
    assert "not UTF-8" in _assert_one_error_line(capsys)


def test_infer_on_short_pgm_is_runtime_error(tmp_path, capsys):
    ckpt, _ = _tiny_checkpoint(tmp_path)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n64 64\n65535\n" + bytes(10))
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(short),
                 "--output", str(tmp_path / "out.pgm")]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["dump-kernels", "infer"])
@pytest.mark.parametrize("keep", ["half", 12])
def test_truncated_checkpoint_is_runtime_error(tmp_path, capsys, command, keep):
    ckpt, image = _tiny_checkpoint(tmp_path)
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2 if keep == "half" else keep])
    if command == "infer":
        argv = ["infer", "--checkpoint", str(ckpt), "--input", str(image),
                "--output", str(tmp_path / "out.pgm")]
    else:
        argv = ["dump-kernels", "--checkpoint", str(ckpt), "--out", str(tmp_path / "k")]
    assert main(argv) == 1
    _assert_one_error_line(capsys)


def _oversized(kind, valid):
    """``valid`` with a header number too large for Python or numpy."""
    if kind == "pgm":  # int() refuses a string of over 4,300 digits
        return b"P5\n" + b"5" * 5000 + b" 2\n65535\n" + bytes(8)
    if kind == "ften rank 65":  # a size-0 shape: numpy refuses over 64 dims, numpy 1 over 32
        return b"FTEN1\n" + struct.pack("<66I", 65, 0, *[1] * 64)
    if kind == "ften rank 1200":  # a payload size str() refuses: over 4,300 digits
        return b"FTEN1\n" + struct.pack("<1201I", 1200, *[0xFFFFFFFF] * 1200)
    huge = struct.pack("<33I", 32, *[0xFFFFFFFF] * 32)  # a payload size of 310 digits, once printed in full
    if kind == "ften rank 32":
        return b"FTEN1\n" + huge
    if kind == "fckpt rank 32":  # one parameter record, named "w"
        return b"FRENETCK1\n" + struct.pack("<2I", 1, 1) + b"w" + huge
    name = b"enc1.blk0.facm.conv_in.weight"  # a (32, 16, 1, 1) record: 512 nonzero floats follow its dims
    rank_at = valid.index(name) + len(name)
    # its rank 4 with one bit flipped: 516 dims, a payload size of over 4,300 digits
    return valid[:rank_at] + struct.pack("<I", 4 | 1 << 9) + valid[rank_at + 4 :]


@pytest.mark.parametrize("kind", ["ften rank 1200", "ften rank 65", "ften rank 32", "fckpt rank 516",
                                  "fckpt rank 32", "pgm"])
def test_oversized_header_number_is_runtime_error(tmp_path, capsys, monkeypatch, kind):
    # the rank-32 files used to print a 310-digit size, the others ended in a ValueError traceback
    ckpt, image = _tiny_checkpoint(tmp_path)
    monkeypatch.chdir(tmp_path)  # a short file name, so that the line's length is the message's
    bad = Path(f"bad.{kind.split()[0]}")
    bad.write_bytes(_oversized(kind, ckpt.read_bytes()))
    if kind.startswith("fckpt"):
        argv = ["dump-kernels", "--checkpoint", str(bad), "--out", str(tmp_path / "k")]
    else:
        argv = ["infer", "--checkpoint", str(ckpt), "--input", str(bad), "--output", str(tmp_path / "out.pgm")]
    assert main(argv) == 1
    err = _assert_one_error_line(capsys)
    assert f"{bad}: " in err and " at byte " in err and len(err) < 120


@pytest.mark.parametrize("command", ["infer", "dump-kernels"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_checkpoint_is_runtime_error(tmp_path, capsys, command, bad):
    # a NaN weight used to give exit 0 with an all-zero PGM or NaN kernel stacks
    from frenet.arch import build_frenet, tiny_config
    from frenet.fileio import save_checkpoint
    from frenet.train import AdamState

    net = build_frenet(tiny_config(base_size=16, global_residual=True), seed=2)
    state = AdamState(step=1)
    state.lay_out(list(net.parameters().values()))
    for v in state.v.values():
        v[...] = 1.0
    net.parameters()["enc1.blk0.facm.afpm.kernel_kbg.w2"].data.flat[3] = bad
    ckpt = tmp_path / "net.fckpt"
    save_checkpoint(ckpt, net, adam=state)
    image = tmp_path / "in.pgm"
    write_pgm16(image, np.full((32, 32), 1000.0))
    out = tmp_path / "out.pgm"
    if command == "infer":
        argv = ["infer", "--checkpoint", str(ckpt), "--input", str(image), "--output", str(out)]
    else:
        argv = ["dump-kernels", "--checkpoint", str(ckpt), "--out", str(tmp_path / "k")]
    assert main(argv) == 1
    err = _assert_one_error_line(capsys)
    assert str(ckpt) in err and "enc1.blk0.facm.afpm.kernel_kbg.w2" in err and "non-finite" in err
    assert not out.exists() and not (tmp_path / "k").exists()


@pytest.mark.parametrize("command", ["infer", "dump-kernels"])
def test_moments_are_not_read(tmp_path, capsys, command):
    # no command reads the optimizer moments, so NaN and Inf there change nothing
    from frenet.arch import build_frenet, tiny_config
    from frenet.fileio import save_checkpoint
    from frenet.train import AdamState

    net = build_frenet(tiny_config(base_size=16, global_residual=True), seed=2)
    state = AdamState(step=1)
    state.lay_out(list(net.parameters().values()))
    state.m["final.weight"].flat[3], state.v["final.weight"].flat[3] = np.nan, np.inf
    image = tmp_path / "in.pgm"
    write_pgm16(image, np.full((32, 32), 1000.0))
    outputs = []
    for i, adam in enumerate([state, None]):
        ckpt, out = tmp_path / f"net{i}.fckpt", tmp_path / f"out{i}"
        save_checkpoint(ckpt, net, adam=adam)
        if command == "infer":
            argv = ["infer", "--checkpoint", str(ckpt), "--input", str(image), "--output", f"{out}.pgm"]
        else:
            argv = ["dump-kernels", "--checkpoint", str(ckpt), "--out", str(out)]
        assert main(argv) == 0
        written = [out.with_suffix(".pgm")] if command == "infer" else sorted(out.iterdir())
        outputs.append([p.read_bytes() for p in written])
    assert outputs[0] == outputs[1] and len(outputs[0]) == (1 if command == "infer" else 5)


@pytest.mark.parametrize("command", ["infer", "dump-spectrum"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_ften_input_is_runtime_error(tmp_path, capsys, command, bad):
    ckpt, _ = _tiny_checkpoint(tmp_path)
    plane = np.full((32, 32), 0.5, dtype=np.float32)
    plane[5, 7] = bad
    image = tmp_path / "in.ften"
    write_ften(image, plane)
    out = tmp_path / "out.pgm"
    if command == "infer":
        argv = ["infer", "--checkpoint", str(ckpt), "--input", str(image), "--output", str(out)]
    else:
        argv = ["dump-spectrum", "--checkpoint", str(ckpt), "--input", str(image),
                "--block", "mid.blk0", "--out", str(tmp_path / "spec")]
    assert main(argv) == 1
    err = _assert_one_error_line(capsys)
    assert str(image) in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("shape", [(1024,), (1, 1, 32, 32), (2, 32, 32)])
def test_ften_input_of_wrong_rank_is_runtime_error(tmp_path, capsys, shape):
    ckpt, _ = _tiny_checkpoint(tmp_path)
    image = tmp_path / "in.ften"
    write_ften(image, np.full(shape, 0.5, dtype=np.float32))
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(image),
                 "--output", str(tmp_path / "out.pgm")]) == 1
    err = _assert_one_error_line(capsys)
    assert str(image) in err and "HxW" in err
