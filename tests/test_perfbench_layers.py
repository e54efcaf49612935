"""The traced benchmark wraps nevkit functions by name; every name it
lists must still resolve, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path


def _layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_traced_function_resolves():
    targets = [t for entries in _layers().values() for t in entries]
    assert targets
    for module, attribute in targets:
        obj = importlib.import_module(f"nevkit.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj) or isinstance(obj, property), (module, attribute)
