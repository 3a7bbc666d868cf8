"""Layer spans recorded from outside the program.

The traced run replaces module attributes that ``wcsp`` looks up at call
time with timing wrappers.  Each wrapper records a span (name, start, end,
parent span, operation id) plus a few counts read from its arguments or
result after the span has closed.  Spans stay in memory and are written out
once, when the run ends.  No file of the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, op id, attrs]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1
        self._seen: dict[int, object] = {}  # id(table) -> table, this op
        self._seen_content: set = set()

    # -- span bookkeeping ---------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen.clear()
        self._seen_content.clear()

    def wrap(self, fn, name: str, note=None):
        """``fn`` inside a span; ``note(args, result)`` runs after it closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index)
                if note is not None:
                    self.spans[index][5] = note(args, result)

        return wrapper

    # -- notes: counts taken at the layer boundary ---------------------------

    def _note_classify(self, args, result):
        functions = args[0]
        repeats = entries = 0
        for fn in functions.values():
            entries += len(fn.table)
            if id(fn.table) in self._seen:
                repeats += 1
                continue
            self._seen[id(fn.table)] = fn.table  # keeps the id valid
            key = (fn.arity, fn.domain_size, fn.table)
            if key in self._seen_content:
                repeats += 1
            self._seen_content.add(key)
        return {"functions": len(functions), "entries": entries, "repeats": repeats}

    @staticmethod
    def _note_evaluate(args, result):
        if result is None:
            return None
        return {"route": result[1]}

    @staticmethod
    def _note_format(args, result):
        value = args[0]
        return {"bits": value.numerator.bit_length() + value.denominator.bit_length()}

    @staticmethod
    def _note_n(args, result):
        return {"n": args[0].num_variables}

    @staticmethod
    def _note_enum(args, result):
        if result is None:  # refused before enumerating
            return None
        instance = args[0]
        return {"states": instance.domain_size**instance.num_variables}

    @staticmethod
    def _note_rows(args, result):
        return {"rows": len(args[0].rows)}

    def targets(self):
        """(module, attribute, span name, note) for every wrapped boundary."""
        return [
            ("wcsp.cli", "load_instance", "model.load", None),
            ("wcsp.cli", "evaluate", "tractable.evaluate", self._note_evaluate),
            ("wcsp.cli", "format_rational", "model.format", self._note_format),
            ("wcsp.cli", "pinning_reduce_boolean", "reductions.pin_vars", None),
            ("wcsp.cli", "interpolation_polynomial", "reductions.interpolate", None),
            ("wcsp.cli", "mobius_pinning_reduce", "reductions.mobius", None),
            ("wcsp.tractable", "classify_family", "classify.family", self._note_classify),
            ("wcsp.tractable", "is_pure_affine", "classify.pure_affine_recheck", None),
            ("wcsp.tractable", "eval_product_type", "tractable.product", self._note_n),
            ("wcsp.tractable", "eval_pure_affine", "tractable.affine", None),
            ("wcsp.tractable", "affine_system_of", "gf2.system", None),
            ("wcsp.tractable", "count_solutions", "gf2.solve", self._note_rows),
            ("wcsp.tractable", "brute_force_z", "model.enum", self._note_enum),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in, and restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, note in self.targets():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if attrs:
                    record.update(attrs)
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

REDUCTION_SPANS = ("reductions.pin_vars", "reductions.interpolate", "reductions.mobius")

#: name -> unit, in the order they are reported.
LAYER_UNITS = {
    "model.load_s": "s/op",
    "cli.self_s": "s/op",
    "model.format_s": "s/op",
    "model.value_bits": "bits",
    "tractable.product_s": "s/op",
    "tractable.affine_s": "s/op",
    "tractable.product_linearity": "ratio",
    "tractable.route.product-type": "count/op",
    "tractable.route.pure-affine": "count/op",
    "tractable.route.brute-force": "count/op",
    "gf2.system_s": "s/op",
    "gf2.solve_s": "s/op",
    "gf2.rows": "count/op",
    "model.enum_s": "s/op",
    "model.enum_states": "count/op",
    "model.enum_states_per_s": "1/s",
    "classify.family_s": "s/op",
    "classify.calls": "count/op",
    "classify.functions": "count/op",
    "classify.table_entries": "count/op",
    "classify.repeat_frac": "frac",
    "classify.pure_affine_rechecks": "count/op",
    "reductions.call_s": "s/op",
    "reductions.self_s": "s/op",
    "reductions.evaluator_calls": "count/op",
    "trace.overhead_frac": "frac",
}


def _self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op, attrs) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append(end - start - covered)
    return out


def _linearity(calls: list[tuple[int, float]]) -> tuple[float, str]:
    """Time per variable on the largest instances over that on the smallest.

    Instances within 10% of the largest (smallest) size form each group.
    """
    if not calls:
        return 0.0, "no product-type evaluations"
    low = min(n for n, _ in calls)
    high = max(n for n, _ in calls)
    if high < 2 * low:
        return 0.0, f"sizes {low}..{high} span less than a factor of 2"

    def per_variable(group):
        return sum(t for _, t in group) / sum(n for n, _ in group)

    small = [(n, t) for n, t in calls if n <= 1.1 * low]
    large = [(n, t) for n, t in calls if n >= high / 1.1]
    ratio = per_variable(large) / per_variable(small)
    return ratio, f"{len(large)} calls near n={high} over {len(small)} near n={low}"


def layer_metrics(spans: list[list], ops: int, overhead: float) -> tuple[dict, dict]:
    """Per-operation layer metrics and, for each, the base it was computed from."""
    self_time = _self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    product_calls = []
    enum_done_time = 0.0
    for index, (name, start, end, parent, op, attrs) in enumerate(spans):
        total[name] += end - start
        own[name] += self_time[index]
        calls[name] += 1
        attrs = attrs or {}
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                counts[f"{name}.{key}"] += value
        if name == "tractable.evaluate" and "route" in attrs:
            counts[f"route.{attrs['route']}"] += 1
            if parent >= 0 and spans[parent][0] in REDUCTION_SPANS:
                counts["reduction_evaluator_calls"] += 1
        if name == "tractable.product":
            product_calls.append((attrs["n"], self_time[index]))
        if name == "model.enum" and "states" in attrs:
            enum_done_time += end - start

    def per_op(value):
        return value / ops

    linearity, linearity_base = _linearity(product_calls)
    functions = counts["classify.family.functions"]
    states = counts["model.enum.states"]
    format_calls = calls["model.format"]
    metrics = {
        "model.load_s": per_op(own["model.load"]),
        "cli.self_s": per_op(own["cli.main"]),
        "model.format_s": per_op(total["model.format"]),
        "model.value_bits": counts["model.format.bits"] / format_calls if format_calls else 0.0,
        "tractable.product_s": per_op(own["tractable.product"]),
        "tractable.affine_s": per_op(own["tractable.affine"]),
        "tractable.product_linearity": linearity,
        "tractable.route.product-type": per_op(counts["route.product-type"]),
        "tractable.route.pure-affine": per_op(counts["route.pure-affine"]),
        "tractable.route.brute-force": per_op(counts["route.brute-force"]),
        "gf2.system_s": per_op(total["gf2.system"]),
        "gf2.solve_s": per_op(total["gf2.solve"]),
        "gf2.rows": per_op(counts["gf2.solve.rows"]),
        "model.enum_s": per_op(total["model.enum"]),
        "model.enum_states": per_op(states),
        "model.enum_states_per_s": states / enum_done_time if enum_done_time else 0.0,
        "classify.family_s": per_op(total["classify.family"]),
        "classify.calls": per_op(calls["classify.family"]),
        "classify.functions": per_op(functions),
        "classify.table_entries": per_op(counts["classify.family.entries"]),
        "classify.repeat_frac": counts["classify.family.repeats"] / functions if functions else 0.0,
        "classify.pure_affine_rechecks": per_op(calls["classify.pure_affine_recheck"]),
        "reductions.call_s": per_op(sum(total[n] for n in REDUCTION_SPANS)),
        "reductions.self_s": per_op(sum(own[n] for n in REDUCTION_SPANS)),
        "reductions.evaluator_calls": per_op(counts["reduction_evaluator_calls"]),
        "trace.overhead_frac": overhead,
    }
    bases = {
        "model.value_bits": f"mean over {format_calls} formatted values",
        "tractable.product_linearity": linearity_base,
        "model.enum_states_per_s": (
            f"{int(states)} states / {enum_done_time:.4f} s of completed enumerations"
        ),
        "classify.repeat_frac": (
            f"{int(counts['classify.family.repeats'])} repeats / {int(functions)} functions"
        ),
        "classify.pure_affine_rechecks": f"{calls['classify.pure_affine_recheck']} calls",
        "reductions.evaluator_calls": f"{int(counts['reduction_evaluator_calls'])} calls",
    }
    for name in metrics:
        bases.setdefault(name, f"{ops} ops" if LAYER_UNITS[name].endswith("/op") else "")
    return metrics, bases
