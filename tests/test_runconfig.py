from pathlib import Path

import pytest

from frenet.runconfig import (
    default_run_config,
    parse_checkpoint_config,
    parse_run_config,
    render_checkpoint_config,
    render_run_config,
)
from frenet.tensor import ConfigurationError


def test_render_parse_round_trip():
    cfg = default_run_config()
    text = render_run_config(cfg)
    back = parse_run_config(text)
    assert back.network == cfg.network
    assert back.train == cfg.train
    assert back.preprocess == cfg.preprocess
    assert back.data == cfg.data


def test_order_independent_and_comments():
    text = render_run_config(default_run_config())
    lines = [line for line in text.splitlines() if line.strip()]
    shuffled = "\n".join(reversed(lines))
    commented = "# leading comment\n" + shuffled.replace(
        "width = 32", "width = 32  # trailing comment"
    )
    cfg = parse_run_config(commented)
    assert cfg.network.width == 32


def test_unknown_key_rejected():
    text = render_run_config(default_run_config()) + "mystery_knob = 3\n"
    with pytest.raises(ConfigurationError, match="unknown keys: mystery_knob"):
        parse_run_config(text)


def test_missing_key_rejected():
    text = render_run_config(default_run_config())
    text = "\n".join(line for line in text.splitlines() if not line.startswith("width"))
    with pytest.raises(ConfigurationError, match="missing keys: width"):
        parse_run_config(text)


def test_duplicate_key_rejected():
    text = render_run_config(default_run_config()) + "width = 16\n"
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_run_config(text)


def test_bad_value_types_reported_with_key():
    text = render_run_config(default_run_config()).replace("width = 32", "width = lots")
    with pytest.raises(ConfigurationError, match="width"):
        parse_run_config(text)
    text = render_run_config(default_run_config()).replace(
        "use_freq_skip = true", "use_freq_skip = yes"
    )
    with pytest.raises(ConfigurationError, match="use_freq_skip"):
        parse_run_config(text)


@pytest.mark.parametrize("key, raw", [
    ("max_steps", "abc"),
    ("ffn_expand", "nan"),
    ("lr0", "inf"),
])
def test_unparsable_or_non_finite_value_names_the_key(key, raw):
    lines = render_run_config(default_run_config()).splitlines()
    text = "\n".join(f"{key} = {raw}" if line.startswith(f"{key} = ") else line for line in lines)
    with pytest.raises(ConfigurationError, match=f"^{key}: cannot parse '{raw}'"):
        parse_run_config(text)


def test_rendered_key_order_matches_shipped_config():
    text = (Path(__file__).resolve().parents[1] / "configs" / "frenet.cfg").read_text()

    def keys(body):
        return [line.split("=")[0].strip() for line in body.splitlines()
                if line.split("#")[0].strip()]

    assert keys(render_run_config(parse_run_config(text))) == keys(text)


def test_semantic_validation_applied():
    text = render_run_config(default_run_config()).replace(
        "use_local_branch = true", "use_local_branch = false"
    ).replace("use_global_branch = true", "use_global_branch = false")
    with pytest.raises(ConfigurationError, match="branch"):
        parse_run_config(text)


def test_checkpoint_config_subset_round_trip():
    cfg = default_run_config()
    text = render_checkpoint_config(cfg.network, cfg.preprocess)
    network, preprocess = parse_checkpoint_config(text)
    assert network == cfg.network
    assert preprocess == cfg.preprocess
    assert "lr0" not in text  # training keys stay out of checkpoints


def test_optional_max_steps_round_trips():
    cfg = default_run_config()
    cfg.train.max_steps = 300
    back = parse_run_config(render_run_config(cfg))
    assert back.train.max_steps == 300
    cfg.train.max_steps = None
    back = parse_run_config(render_run_config(cfg))
    assert back.train.max_steps is None
