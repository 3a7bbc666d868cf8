"""The attributes the layer tracer in perfbench/tracing.py wraps all exist.

The tracer swaps timing wrappers into ``wcsp`` modules by attribute name.  A
refactor that moves or renames one of them would make ``--trace 1`` fail, so
every ``(module, attribute)`` it targets is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    targets = _load_tracing().Tracer().targets()
    assert targets
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _name, _note in targets
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []
