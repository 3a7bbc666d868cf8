"""The attributes the layer tracer in perfbench/tracing.py wraps exist and fire.

The tracer swaps timing wrappers into ``wcsp`` modules by attribute name.  A
refactor that moves or renames one of them would make ``--trace 1`` fail, so
every ``(module, attribute)`` it targets is resolved here, and one command per
route checks that the program still calls them through those attributes.
"""

import contextlib
import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import wcsp.cli as cli

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


_ROUTES = [
    (["eval"], '{"q":2,"n":3,"functions":{},"constraints":[{"f":"neq","scope":[0,1]}]}'),
    (["eval"], '{"q":2,"n":3,"functions":{},"constraints":[{"f":"xor3","scope":[0,1,2]}]}'),
    (
        ["eval"],
        '{"q":2,"n":3,"functions":{"ising":{"arity":2,"table":[2,1,1,2]}},'
        '"constraints":[{"f":"ising","scope":[0,1]},{"f":"ising","scope":[1,2]}]}',
    ),
    (["eval", "--force-oracle"], '{"q":2,"n":2,"functions":{},"constraints":[]}'),
    (
        ["reduce", "pin-vars"],
        '{"q":2,"n":3,"functions":{},'
        '"constraints":[{"f":"delta0","scope":[0]},{"f":"neq","scope":[0,1]}]}',
    ),
]


def test_traced_spans_fire_on_every_route(tmp_path):
    # Resolving an attribute is not enough: a refactor that stops calling it
    # through the module would leave its span, and the bench's layer metric,
    # silently at zero.
    tracer = _load_tracing().Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for op, (command, text) in enumerate(_ROUTES):
            path = tmp_path / f"route{op}.json"
            path.write_text(text, encoding="utf-8")
            tracer.start_op(op)
            assert cli.main([*command, str(path)]) == 0
    routes = {span[5]["route"] for span in tracer.spans if span[0] == "tractable.evaluate"}
    assert routes == {"product-type", "pure-affine", "elimination", "brute-force"}
    fired = {span[0] for span in tracer.spans}
    expected = {
        "model.load",
        "tractable.evaluate",
        "classify.family",
        "tractable.product",
        "tractable.affine",
        "gf2.solve",
        "model.enum",
        "model.format",
        "reductions.pin_vars",
    }
    assert expected - fired == set()
    # evaluate classifies once and hands its verdict to the evaluator it picks
    tractable_ops = {
        span[4]
        for span in tracer.spans
        if span[0] == "tractable.evaluate"
        and span[5]["route"] in ("product-type", "pure-affine")
        and _ROUTES[span[4]][0] == ["eval"]
    }
    classified = Counter(span[4] for span in tracer.spans if span[0] == "classify.family")
    assert {op: classified[op] for op in tractable_ops} == {0: 1, 1: 1}
