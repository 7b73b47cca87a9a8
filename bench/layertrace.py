"""Per-layer trace: spans recorded around the program's layer functions.

Each layer function is wrapped at every module binding of it (``factor``
is bound in ``arith``, ``curves``, ``reduction``, ``verify`` and more), so
the program is measured from outside and nothing in ``src/`` changes.
Every call records a span (layer, start, end, parent).  Spans stay in
memory until the round ends.  A layer's self time is its spans' time minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

# layer name -> (module, function) bindings whose calls count for it
LAYERS = {
    "arith.factor": [("arith", "factor")],
    "arith.is_prime": [("arith", "is_prime")],
    "arith.valuation": [("arith", "valuation")],
    "curves.minimal_model": [("curves", "minimal_model")],
    "reduction.tate": [("reduction", "tate")],
    "torsion.torsion_subgroup": [("torsion", "torsion_subgroup")],
    "families.hadano_quotient": [("families", "hadano_quotient")],
    "families.constructors": [
        ("families", name)
        for name in ("four_torsion_curve", "two_six_curve", "two_torsion_curve", "three_torsion_normalize")
    ],
    "verify.driver": [
        ("verify", name)
        for name in (
            "scan_four_torsion",
            "scan_two_six",
            "scan_two_torsion",
            "scan_three_torsion_nonunits",
            "reduction_table_cross_check",
            "scan_dual_curves",
            "check_divisibility",
        )
    ],
    "cli.main": [("cli", "main")],
}
ROOT_LAYER = "bench.operation"
# layers whose first argument is remembered, to count calls that repeat one
REPEAT_COUNTED = ("arith.factor", "curves.minimal_model")

# (metric, unit, better) in the order they are reported
PER_LAYER_METRICS = [
    ("arith.factor.calls", "count", "lower"),
    ("arith.factor.input_bits", "bits", "lower"),
    ("arith.factor.self_s", "s", "lower"),
    ("arith.factor.repeat_calls", "count", "lower"),
    ("arith.is_prime.calls", "count", "lower"),
    ("arith.is_prime.self_s", "s", "lower"),
    ("arith.valuation.calls", "count", "lower"),
    ("curves.minimal_model.calls", "count", "lower"),
    ("curves.minimal_model.repeat_calls", "count", "lower"),
    ("curves.minimal_model.self_s", "s", "lower"),
    ("reduction.tate.calls", "count", "lower"),
    ("reduction.tate.self_s", "s", "lower"),
    ("torsion.torsion_subgroup.calls", "count", "lower"),
    ("torsion.torsion_subgroup.self_s", "s", "lower"),
    ("families.hadano_quotient.calls", "count", "lower"),
    ("families.hadano_quotient.self_s", "s", "lower"),
    ("families.constructors.self_s", "s", "lower"),
    ("verify.driver.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


class Tracer:
    """Installs span-recording wrappers into the ``tamagawa`` modules."""

    def __init__(self, clock_now):
        self.now = clock_now
        self.names = [ROOT_LAYER, *LAYERS]
        # span: [layer index, start, end, parent span index or -1]
        self.spans: list[list] = []
        self.factor_bits: list[int] = []
        self.repeats = {name: 0 for name in REPEAT_COUNTED}
        self._seen = {name: set() for name in REPEAT_COUNTED}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def call(self, layer: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given layer index."""
        index = len(self.spans)
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.now()
            self._stack.pop()

    def _wrapper(self, layer_name: str, fn):
        layer = self.names.index(layer_name)
        seen = self._seen.get(layer_name)
        counts_bits = layer_name == "arith.factor"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if args:
                if counts_bits:
                    self.factor_bits.append(abs(args[0]).bit_length())
                if seen is not None:
                    if args[0] in seen:
                        self.repeats[layer_name] += 1
                    else:
                        seen.add(args[0])
            return self.call(layer, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: module
            for name, module in sys.modules.items()
            if name.startswith("tamagawa.")
        }
        for layer_name, bindings in LAYERS.items():
            for module_name, func_name in bindings:
                original = getattr(modules.get(module_name), func_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{func_name}")
                    continue
                wrapper = self._wrapper(layer_name, original)
                for module in [sys.modules["tamagawa"], *modules.values()]:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self, duration) -> dict[str, float]:
        """Self time of every layer, with duration(start, end) as the span length."""
        own = [duration(s, e) for _, s, e, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += own[i]
        totals = {name: 0.0 for name in self.names}
        for i, (layer, _, _, _) in enumerate(self.spans):
            totals[self.names[layer]] += own[i] - child[i]
        return totals

    def calls(self) -> dict[str, int]:
        counts = {name: 0 for name in self.names}
        for layer, _, _, _ in self.spans:
            counts[self.names[layer]] += 1
        return counts

    def metrics(self, duration) -> dict[str, float]:
        """Every per-layer metric, with self times measured by duration()."""
        calls, self_s = self.calls(), self.self_times(duration)
        values = {}
        for metric, _, _ in PER_LAYER_METRICS:
            layer, stat = metric.rsplit(".", 1)
            if stat == "calls":
                values[metric] = calls[layer]
            elif stat == "self_s":
                values[metric] = self_s[layer]
            elif stat == "repeat_calls":
                values[metric] = self.repeats[layer]
            elif stat == "input_bits":
                values[metric] = sum(self.factor_bits)
        return values

    def write(self, path: Path, origin: float) -> None:
        """All spans as JSON, times in seconds from origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump(
                {
                    "layers": self.names,
                    "columns": ["layer", "start_s", "end_s", "parent"],
                    "spans": [
                        [layer, round(s - origin, 7), round(e - origin, 7), parent]
                        for layer, s, e, parent in self.spans
                    ],
                },
                out,
                separators=(",", ":"),
            )
