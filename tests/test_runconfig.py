import pytest

from frenet.runconfig import (
    parse_checkpoint_config,
    parse_run_config,
    render_checkpoint_config,
)
from frenet.tensor import ConfigurationError

from conftest import config_text


def test_order_independent_and_comments():
    text = config_text("frenet")
    lines = [line for line in text.splitlines() if line.strip()]
    shuffled = "\n".join(reversed(lines))
    commented = "# leading comment\n" + shuffled.replace(
        "width = 32", "width = 32  # trailing comment"
    )
    cfg = parse_run_config(commented)
    assert cfg.network.width == 32


def test_unknown_key_rejected():
    text = config_text("frenet") + "mystery_knob = 3\n"
    with pytest.raises(ConfigurationError, match="unknown keys: mystery_knob"):
        parse_run_config(text)


def test_missing_key_rejected():
    text = config_text("frenet")
    text = "\n".join(line for line in text.splitlines() if not line.startswith("width"))
    with pytest.raises(ConfigurationError, match="missing keys: width"):
        parse_run_config(text)


def test_duplicate_key_rejected():
    text = config_text("frenet") + "width = 16\n"
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_run_config(text)


def test_bad_value_types_reported_with_key():
    text = config_text("frenet", width="lots")
    with pytest.raises(ConfigurationError, match="width"):
        parse_run_config(text)
    text = config_text("frenet", use_freq_skip="yes")
    with pytest.raises(ConfigurationError, match="use_freq_skip"):
        parse_run_config(text)


@pytest.mark.parametrize("key, raw", [
    ("max_steps", "abc"),
    ("ffn_expand", "nan"),
    ("lr0", "inf"),
])
def test_unparsable_or_non_finite_value_names_the_key(key, raw):
    text = config_text("frenet", **{key: raw})
    with pytest.raises(ConfigurationError, match=f"^{key}: cannot parse '{raw}'"):
        parse_run_config(text)


def test_semantic_validation_applied():
    text = config_text("frenet", use_local_branch="false", use_global_branch="false")
    with pytest.raises(ConfigurationError, match="branch"):
        parse_run_config(text)


def test_checkpoint_config_subset_round_trip():
    cfg = parse_run_config(config_text("frenet"))
    text = render_checkpoint_config(cfg.network, cfg.preprocess)
    network, preprocess = parse_checkpoint_config(text)
    assert network == cfg.network
    assert preprocess == cfg.preprocess
    assert "lr0" not in text  # training keys stay out of checkpoints


def test_optional_max_steps_round_trips():
    assert parse_run_config(config_text("frenet", max_steps=300)).train.max_steps == 300
    assert parse_run_config(config_text("frenet", max_steps="none")).train.max_steps is None
