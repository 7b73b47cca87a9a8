"""The benchmark's per-layer tracer wraps functions of ``tamagawa`` by name.

``pytest bench`` is not part of the tier-1 suite, so this guard lives here:
a rename in ``src/`` that leaves a binding of ``bench/layertrace.LAYERS``
dangling would otherwise drop that layer's metrics without a failure.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def test_every_traced_layer_binding_is_a_tamagawa_callable():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    bindings = [b for bs in layertrace.LAYERS.values() for b in bs]
    assert len(bindings) == 19
    for module, name in bindings:
        fn = getattr(importlib.import_module(f"tamagawa.{module}"), name, None)
        assert callable(fn), f"tamagawa.{module}.{name}"
