from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_text(name, **values):
    """configs/<name>.cfg with the given keys set to new raw values."""
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    keys = [line.partition(" = ")[0] for line in lines]
    assert set(values) <= set(keys), f"not keys of {name}.cfg: {sorted(set(values) - set(keys))}"
    return "\n".join(
        f"{key} = {values[key]}" if key in values else line for key, line in zip(keys, lines)
    ) + "\n"


def write_config(path, name="tiny", **values):
    """Write configs/<name>.cfg to ``path`` with the given keys set to new raw values."""
    path.write_text(config_text(name, **values))
    return path
