"""The benchmark's per-layer tracer (``perfbench/tracer.py``) patches frenet's
functions and methods by name, so renaming one of them breaks the next traced
benchmark run. It is installed here in-process and uninstalled again."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """``perfbench/tracer.py`` as a module of its own, without putting ``perfbench/`` on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_exists_and_uninstall_restores_it():
    tracer = load_tracer()
    missing = [f"{module.__name__}.{name}" for module, name in tracer._FUNCTIONS
               if not callable(getattr(module, name, None))]
    assert not missing
    traced = tracer.Tracer()
    try:
        traced.install()
        patches = list(traced._patches)
        assert [(owner, name) for owner, name, original in patches
                if getattr(owner, name) is original] == []
    finally:
        traced.uninstall()
    assert [(owner, name) for owner, name, original in patches
            if getattr(owner, name) is not original] == []
    patched = {(owner, name) for owner, name, _ in patches}
    for owner, name in [*tracer._FUNCTIONS, (tracer.tensor, "conv2d"),
                        (tracer.fileio, "save_checkpoint"), (tracer.rawdata, "gen_dataset")]:
        assert (owner, name) in patched, f"{owner.__name__}.{name}"
