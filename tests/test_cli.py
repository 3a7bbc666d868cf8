"""End-to-end command-line behaviour: reports, exit codes, file handling."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import decimal_digits, ising_direct

import wcsp.cli as cli
from wcsp.generate import parity_spread, product_type_chain
from wcsp.library import binary_disequality, delta
from wcsp.model import (
    MAX_VALUE_BITS,
    Constraint,
    Instance,
    WeightFunction,
    format_rational,
    instance_to_json,
    parse_instance,
)
from wcsp.models import Graph, hom_instance, ising_matrix
from wcsp.reductions import MAX_INTERPOLATION_WORK

XOR3_INSTANCE = (
    '{"q":2,"n":3,"functions":{"xor3":{"arity":3,'
    '"table":["0","1","1","0","1","0","0","1"]}},'
    '"constraints":[{"f":"xor3","scope":[0,1,2]}]}'
)

HARD_CATALOG = (
    '{"q":2,"functions":{'
    '"xor3":{"arity":3,"table":["0","1","1","0","1","0","0","1"]},'
    '"lean":{"arity":1,"table":["1","2"]}}}'
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# classify / eval


def test_classify_catalog_reports(tmp_path, capsys):
    path = write(tmp_path, "cat.json", '{"q":2,"functions":{"neq":{"arity":2,"table":["0","1","1","0"]}}}')
    code, report, _ = run(capsys, "classify", path)
    assert code == 0
    assert report["family"] == "PRODUCT_TYPE_FP"
    assert report["hard_pair"] is None
    assert report["functions"]["neq"]["product_type"] is True
    assert report["functions"]["neq"]["witness"]["classes"][0]["members"] == [
        [0, False],
        [1, True],
    ]


def test_classify_instance_file_and_hard_pair(tmp_path, capsys):
    path = write(tmp_path, "cat.json", HARD_CATALOG)
    code, report, _ = run(capsys, "classify", path)
    assert code == 0
    assert report["family"] == "HARD"
    assert report["hard_pair"] == ["xor3", "lean"]
    assert report["functions"]["xor3"]["pure_affine"] is True
    assert report["functions"]["xor3"]["product_type"] is False

    inst_path = write(tmp_path, "inst.json", XOR3_INSTANCE)
    code, report, _ = run(capsys, "classify", inst_path)
    assert code == 0 and report["family"] == "PURE_AFFINE_FP"


GOLDEN_CATALOG = (
    '{"q":2,"functions":{'
    '"xor3":{"arity":3,"table":["0","1","1","0","1","0","0","1"]},'
    '"lopsided":{"arity":2,"table":["1","1","1","2"]},'
    '"or":{"arity":2,"table":["0","3","3","3"]},'
    '"skew":{"arity":2,"table":["1","3","2","6"]},'
    '"pin":{"arity":1,"table":["1","0"]}}}'
)


def test_classify_output_matches_recorded_golden(tmp_path, monkeypatch, capsys):
    # xor3 is product-like but not product type; lopsided has full support
    # and is not product-like; or has a non-affine support; pin is in both
    # tractable classes.  Flags and the sha256 of the whole stdout were
    # recorded before the evaluators took their witnesses from the reports.
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "cat.json", GOLDEN_CATALOG)
    assert cli.main(["classify", "cat.json"]) == 0
    out = capsys.readouterr().out
    flags = {
        name: tuple(
            report[key] for key in ("product_type", "pure_affine", "affine_support", "product_like")
        )
        for name, report in json.loads(out)["functions"].items()
    }
    assert flags == {
        "xor3": (False, True, True, True),
        "lopsided": (False, False, True, False),
        "or": (False, False, False, False),
        "skew": (True, False, True, True),
        "pin": (True, True, True, True),
    }
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "5aa9c4e2931757c4dc35f9a9f78d2b0b43e650f249b5b4ea7dbd1952b2cf0f62"
    )


WIDE_WEIGHTS = (1, 2, 3, Fraction(1, 2), Fraction(2, 3), 5)


def _wide_product(rng, arity, pins, ties):
    """Pins, ties (some complemented) and per-column weights on the rest."""
    bit = lambda index, col: index >> (arity - 1 - col) & 1  # noqa: E731
    cols = rng.sample(range(arity), arity)
    pinned = {c: rng.randrange(2) for c in cols[:pins]}
    reps = cols[pins : arity - ties]
    tied = {c: (rng.choice(reps), rng.randrange(2)) for c in cols[arity - ties :]}
    weights = {r: (rng.choice(WIDE_WEIGHTS), rng.choice(WIDE_WEIGHTS)) for r in reps}
    scale = rng.choice(WIDE_WEIGHTS)
    table = []
    for index in range(1 << arity):
        if any(bit(index, c) != v for c, v in pinned.items()) or any(
            bit(index, c) != bit(index, r) ^ flip for c, (r, flip) in tied.items()
        ):
            table.append(Fraction(0))
            continue
        value = Fraction(scale)
        for r in reps:
            value *= weights[r][bit(index, r)]
        table.append(value)
    return table


def _wide_coset(rng, arity):
    origin = rng.randrange(1 << arity)
    members = {origin}
    for _ in range(rng.randint(1, arity - 1)):
        vector = rng.randrange(1 << arity)
        members |= {m ^ vector for m in members}
    level = Fraction(rng.choice(WIDE_WEIGHTS))
    return [level if i in members else Fraction(0) for i in range(1 << arity)]


def _near_miss(rng, table, how):
    table = list(table)
    support = [i for i, v in enumerate(table) if v]
    if how == "extra":  # one more support point
        table[rng.choice([i for i, v in enumerate(table) if not v])] = Fraction(1)
    else:
        i = rng.choice(support)
        table[i] = {"double": 2 * table[i], "zero": Fraction(0), "other": table[i] + 1}[how]
    return table


def _wide_catalog():
    rng = random.Random(8121)
    tables = {}
    for arity in range(8, 13):
        product = _wide_product(rng, arity, pins=2, ties=arity // 3)
        coset = _wide_coset(rng, arity)
        tables[f"product{arity}"] = product
        tables[f"product{arity}-{arity % 2 and 'double' or 'zero'}"] = _near_miss(
            rng, product, "double" if arity % 2 else "zero"
        )
        tables[f"coset{arity}"] = coset
        tables[f"coset{arity}-{arity % 2 and 'other' or 'extra'}"] = _near_miss(
            rng, coset, "other" if arity % 2 else "extra"
        )
    full = _wide_product(rng, 12, pins=0, ties=0)
    tables["full12"] = full
    tables["full12-double"] = _near_miss(rng, full, "double")
    return {
        "q": 2,
        "functions": {
            name: {"arity": len(table).bit_length() - 1, "table": [str(v) for v in table]}
            for name, table in tables.items()
        },
    }


def test_classify_output_on_wide_tables_matches_recorded_golden(tmp_path, monkeypatch, capsys):
    # Arity 8-12 product-type tables with pins and complemented ties, pure
    # affine cosets, and one-entry near misses of each.  The sha256 of the
    # whole stdout was recorded before product type was decided on the
    # support's coset.
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "wide.json", json.dumps(_wide_catalog()))
    assert cli.main(["classify", "wide.json"]) == 0
    out = capsys.readouterr().out
    reports = json.loads(out)["functions"]
    product = {name for name, r in reports.items() if r["product_type"]}
    affine = {name for name, r in reports.items() if r["pure_affine"]}
    assert product >= {f"product{k}" for k in range(8, 13)} | {"full12"}
    assert affine >= {f"coset{k}" for k in range(8, 13)}
    assert not any("-" in name for name in product | affine)
    witnesses = [reports[f"product{k}"]["witness"] for k in range(8, 13)]
    assert all(w["constant_columns"] for w in witnesses)
    assert any(flip for w in witnesses for c in w["classes"] for _, flip in c["members"])
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "00dc0d1b158abc71f9d1796020fba11c3c0ff81448baf7318c25ff7c98a84176"
    )


def test_eval_routes_and_values(tmp_path, capsys):
    path = write(tmp_path, "inst.json", XOR3_INSTANCE)
    code, report, _ = run(capsys, "eval", path)
    assert code == 0
    assert report["evaluator"] == "pure-affine"
    assert report["value"] == "4"
    assert report["decimal"] == "4"
    assert report["seconds"] >= 0

    code, report, _ = run(capsys, "eval", path, "--force-oracle")
    assert code == 0
    assert report["evaluator"] == "brute-force"
    assert report["value"] == "4"


@pytest.mark.parametrize(
    "instance, route, value",
    [
        (product_type_chain(40), "product-type", 2**39 + 3**39 * 2**14),
        (parity_spread(40), "pure-affine", 2**40),
    ],
    ids=["chain", "spread"],
)
def test_eval_of_a_tractable_instance_builds_no_constraint(
    tmp_path, capsys, monkeypatch, instance, route, value
):
    built = []
    real = Constraint.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    path = write(tmp_path, "inst.json", instance_to_json(instance))
    monkeypatch.setattr(Constraint, "__init__", counting)
    code, report, _ = run(capsys, "eval", path)
    assert (code, report["evaluator"], report["value"]) == (0, route, str(value))
    assert built == []


def test_eval_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "eval", str(tmp_path / "absent.json"))
    assert code == 2 and "wcsp:" in err
    bad = write(tmp_path, "bad.json", "{broken")
    code, _, err = run(capsys, "eval", bad)
    assert code == 2 and "wcsp:" in err


def test_eval_budget_refusal_and_flag_override(tmp_path, capsys, monkeypatch):
    inst = parse_instance(XOR3_INSTANCE)
    big = (
        '{"q":2,"n":24,"functions":{},"constraints":[]}'
    )
    path = write(tmp_path, "big.json", big)
    code, _, err = run(capsys, "eval", path, "--force-oracle", "--budget", "1000")
    assert code == 3 and "refused" in err

    monkeypatch.setenv("WCSP_BUDGET", "1000")
    code, _, err = run(capsys, "eval", path, "--force-oracle")
    assert code == 3

    # an explicit flag wins over the environment
    code, report, _ = run(
        capsys, "eval", path, "--force-oracle", "--budget", str(2**30)
    )
    assert code == 0 and report["value"] == str(2**24)
    del inst


def test_bad_budget_environment_value(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "inst.json", XOR3_INSTANCE)
    monkeypatch.setenv("WCSP_BUDGET", "plenty")
    code, _, err = run(capsys, "eval", path, "--force-oracle")
    assert code == 2 and "WCSP_BUDGET" in err


def test_forced_oracle_refuses_many_variables_without_computing_q_to_the_n(tmp_path, capsys):
    # 3**(10**7) alone takes seconds; the refusal must not wait for it
    path = write(tmp_path, "wide.json", '{"q":3,"n":10000000,"functions":{},"constraints":[]}')
    started = time.perf_counter()
    code, report, err = run(capsys, "eval", path, "--force-oracle")
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert err == (
        "wcsp: refused: enumeration of 3**10000000 weighted states exceeds the budget of "
        f"{2**30}\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        # used to exit 1 with a MemoryError from the union-find's lists
        (
            '{"q":2,"n":1000000000000,"functions":{},"constraints":[]}',
            "2**1000000000000 assignments: the value can need 1000000000000 bits or more",
        ),
        # used to compute 3**(n - 1) for more than 100 s
        (
            '{"q":3,"n":100000000,"functions":{"u":{"arity":1,"table":[1,2,3]}},'
            '"constraints":[{"f":"u","scope":[0]}]}',
            "3**100000000 assignments: the value can need 100000000 bits or more",
        ),
        (
            '{"q":3,"n":700000,"functions":{},"constraints":[]}',
            "3**700000 assignments: the value can need 1109474 bits or more",
        ),
    ],
    ids=["q2-n1e12", "q3-n1e8-unary", "q3-just-over"],
)
def test_eval_refuses_a_value_too_large_before_building_anything(tmp_path, capsys, text, message):
    path = write(tmp_path, "huge.json", text)
    started = time.perf_counter()
    code, report, err = run(capsys, "eval", path)
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert err == f"wcsp: refused: {message}, beyond the limit of {MAX_VALUE_BITS}\n"


@pytest.mark.parametrize(
    "reduction, text, message",
    [
        # used to exit 1 with a MemoryError from a list over all n variables
        (
            "pin-vars",
            '{"q":2,"n":1000000000,"functions":{},'
            '"constraints":[{"f":"delta0","scope":[0]}]}',
            "2**1000000001 assignments: the value can need 1000000001 bits or more, "
            f"beyond the limit of {MAX_VALUE_BITS}",
        ),
        (
            "mobius-pin",
            '{"q":2,"n":1000000000,"functions":{},'
            '"constraints":[{"f":"neq","scope":[0,1]}]}',
            "2**1000000000 assignments: the value can need 1000000000 bits or more, "
            f"beyond the limit of {MAX_VALUE_BITS}",
        ),
        # used to walk the 40**40 tuples of the disequality table
        (
            "mobius-pin",
            '{"q":40,"n":1,"functions":{},"constraints":[]}',
            "partition lattices are enforced up to domain size 6",
        ),
    ],
    ids=["pin-vars-n1e9", "mobius-pin-n1e9", "mobius-pin-q40"],
)
def test_reductions_refuse_a_huge_instance_before_building_anything(
    tmp_path, capsys, reduction, text, message
):
    path = write(tmp_path, "huge.json", text)
    started = time.perf_counter()
    code, report, err = run(capsys, "reduce", reduction, path)
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert err == f"wcsp: refused: {message}\n"


def _unary_occurrences(m):
    # m unaries f = (1, 2), one on each of m variables
    return json.dumps(
        {
            "q": 2,
            "n": m,
            "functions": {"f": {"arity": 1, "table": [1, 2]}},
            "constraints": [{"f": "f", "scope": [v]} for v in range(m)],
        }
    )


@pytest.mark.parametrize("m", [65, 200])
def test_interpolation_refuses_too_many_occurrences_at_once(tmp_path, capsys, m):
    # m = 200 ran past 120 s, in the Vandermonde solve, before the bound
    path = write(tmp_path, "unaries.json", _unary_occurrences(m))
    started = time.perf_counter()
    code, report, err = run(capsys, "reduce", "interpolate", path, "--unary", "f", "--point", "3")
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert err == (
        f"wcsp: refused: 'f' occurs {m} times; interpolation is enforced up to "
        "64 occurrences\n"
    )


def test_eval_emits_values_beyond_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    n = 10000
    path = write(tmp_path, "chain.json", instance_to_json(product_type_chain(n)))
    code, report, _ = run(capsys, "eval", path)
    assert code == 0 and report["evaluator"] == "product-type"
    closed_form = 2 ** (n - 1) + 3 ** (n - 1) * 2 ** -(-n // 3)
    assert report["value"] == decimal_digits(closed_form)

    path = write(tmp_path, "free.json", '{"q":2,"n":20000,"functions":{},"constraints":[]}')
    code, report, _ = run(capsys, "eval", path)
    assert code == 0 and report["value"] == decimal_digits(2**20000)
    assert sys.get_int_max_str_digits() == limit


def test_eval_rejects_a_giant_table_arity_before_building_it(tmp_path, capsys):
    path = write(
        tmp_path,
        "arity.json",
        '{"q":3,"n":1,"functions":{"f":{"arity":2000000,"table":[]}},"constraints":[]}',
    )
    code, report, err = run(capsys, "eval", path)
    assert code == 2 and report is None
    assert "table has 0 entries, expected 3**2000000" in err
    assert len(err) < 200


@pytest.mark.parametrize("q", [1, 0, -1])
def test_eval_rejects_domain_size_below_two(tmp_path, capsys, q):
    path = write(tmp_path, "q.json", f'{{"q":{q},"n":2,"functions":{{}},"constraints":[]}}')
    code, report, err = run(capsys, "eval", path)
    assert code == 2 and report is None
    assert f"domain size must be at least 2, got {q}" in err


def _neq_path(length, offset, functions, constraints=()):
    """neq ties along offset..offset+length-1, weighted (1, 2) at the start
    and (3, 1) one step later; of the two alternating assignments one weighs
    1 * 1 and the other 2 * 3, so the path contributes 7."""
    functions = {
        **functions,
        "neq": binary_disequality(),
        "a": WeightFunction(1, 2, (Fraction(1), Fraction(2))),
        "b": WeightFunction(1, 2, (Fraction(3), Fraction(1))),
    }
    constraints = [*constraints, Constraint("a", (offset,)), Constraint("b", (offset + 1,))]
    constraints += [Constraint("neq", (offset + v, offset + v + 1)) for v in range(length - 1)]
    return Instance(offset + length, 2, functions, tuple(constraints))


def test_eval_routes_on_the_functions_constraints_use(tmp_path, capsys):
    spin = ising_matrix(Fraction(3)).edge_function()  # hard, and used by no constraint
    path = write(tmp_path, "path.json", instance_to_json(_neq_path(40, 0, {"spin": spin})))
    code, report, _ = run(capsys, "eval", path)
    assert code == 0
    assert (report["evaluator"], report["value"]) == ("product-type", "7")


def test_eval_hard_block_beside_a_long_path_is_eliminated(tmp_path, capsys):
    lam = Fraction(2, 3)
    block = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 4), (2, 6), (1, 5)]
    )
    spin = tuple(Constraint("spin", edge) for edge in block.edges)
    functions = {"spin": ising_matrix(lam).edge_function()}
    instance = _neq_path(30, 8, functions, spin)  # 38 variables, 2**38 states
    path = write(tmp_path, "block.json", instance_to_json(instance))
    code, report, _ = run(capsys, "eval", path)
    assert code == 0 and report["evaluator"] == "elimination"
    assert Fraction(report["value"]) == ising_direct(block, lam) * 7


def test_eval_refuses_a_wide_hard_instance_naming_the_width(tmp_path, capsys):
    complete = Graph.from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
    instance = hom_instance(complete, ising_matrix(Fraction(2)))
    path = write(tmp_path, "k12.json", instance_to_json(instance))
    code, report, err = run(capsys, "eval", path, "--budget", "4095")
    assert code == 3 and report is None
    assert "width 11" in err and "2**12 entries" in err and "budget of 4095" in err
    code, report, _ = run(capsys, "eval", path, "--budget", "4096")
    assert code == 0 and report["evaluator"] == "elimination"
    assert Fraction(report["value"]) == ising_direct(complete, Fraction(2))


def test_default_budget_refuses_a_table_too_large_for_memory(tmp_path, capsys, monkeypatch):
    # K30 needs a 2**30-entry table: within the enumeration default, but it
    # would have to be held in memory, so the elimination default refuses it.
    monkeypatch.delenv("WCSP_BUDGET", raising=False)
    edges = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    complete = Graph.from_edges(30, edges)
    instance = hom_instance(complete, ising_matrix(Fraction(2)))
    path = write(tmp_path, "k30.json", instance_to_json(instance))
    code, report, err = run(capsys, "eval", path)
    assert code == 3 and report is None
    assert "width 29" in err and f"budget of {2**24}" in err

    graph = write(tmp_path, "k30.txt", "30\n" + "".join(f"{u} {v}\n" for u, v in edges))
    matrix = write(tmp_path, "h.json", "[[1, 2], [2, 1]]")
    code, report, err = run(capsys, "model", "evalh", "--graph", graph, "--matrix", matrix)
    assert code == 3 and report is None and "width 29" in err


# ---------------------------------------------------------------------------
# reduce subcommands


def test_reduce_project_verify_and_output(tmp_path, capsys):
    instance = (
        '{"q":2,"n":1,"functions":{"g":{"arity":1,"table":["1","1"]}},'
        '"constraints":[{"f":"g","scope":[0]}]}'
    )
    preimage = '{"q":2,"functions":{"neq":{"arity":2,"table":["0","1","1","0"]}}}'
    inst_path = write(tmp_path, "inst.json", instance)
    pre_path = write(tmp_path, "pre.json", preimage)
    out_path = tmp_path / "lifted.json"
    code, report, err = run(
        capsys,
        "reduce",
        "project",
        inst_path,
        "--function",
        "g",
        "--preimage",
        pre_path,
        "--coordinates",
        "0",
        "--verify",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert report["verified"] is True
    assert "verified" in err
    lifted = parse_instance(out_path.read_text(encoding="utf-8"))
    assert lifted.num_variables == 2
    assert report["instance"]["n"] == 2


def test_reduce_project_refuses_wrong_preimage(tmp_path, capsys):
    instance = (
        '{"q":2,"n":1,"functions":{"g":{"arity":1,"table":["1","7"]}},'
        '"constraints":[{"f":"g","scope":[0]}]}'
    )
    preimage = '{"q":2,"functions":{"neq":{"arity":2,"table":["0","1","1","0"]}}}'
    inst_path = write(tmp_path, "inst.json", instance)
    pre_path = write(tmp_path, "pre.json", preimage)
    code, _, err = run(
        capsys,
        "reduce",
        "project",
        inst_path,
        "--function",
        "g",
        "--preimage",
        pre_path,
        "--coordinates",
        "0",
    )
    assert code == 3 and "refused" in err


def test_reduce_project_never_reports_success_on_a_bad_transform(
    tmp_path, capsys, monkeypatch
):
    # Force the transform to return a wrong instance: --verify must catch it.
    instance = (
        '{"q":2,"n":1,"functions":{"g":{"arity":1,"table":["1","1"]}},'
        '"constraints":[{"f":"g","scope":[0]}]}'
    )
    preimage = '{"q":2,"functions":{"neq":{"arity":2,"table":["0","1","1","0"]}}}'
    inst_path = write(tmp_path, "inst.json", instance)
    pre_path = write(tmp_path, "pre.json", preimage)

    def corrupted(inst, name, fn, coords):
        return parse_instance(XOR3_INSTANCE)

    monkeypatch.setattr(cli, "simulate_projection", corrupted)
    code, report, err = run(
        capsys,
        "reduce",
        "project",
        inst_path,
        "--function",
        "g",
        "--preimage",
        pre_path,
        "--coordinates",
        "0",
        "--verify",
    )
    assert code == 4
    assert report is None
    assert "verification failure" in err


UNARY_INSTANCE = (
    '{"q":2,"n":1,"functions":{"u":{"arity":1,"table":["1","5"]}},'
    '"constraints":[{"f":"u","scope":[0]}]}'
)
NEQ_INSTANCE = '{"q":2,"n":2,"functions":{},"constraints":[{"f":"neq","scope":[0,1]}]}'
WRONG = Fraction(12345)


@pytest.mark.parametrize(
    "argv, instance, attribute, corrupted",
    [
        (
            ["reduce", "pin", "{path}", "--variable", "0", "--value", "1"],
            UNARY_INSTANCE,
            "delta",
            lambda value: delta(1 - value),
        ),
        (
            ["reduce", "pin-vars", "{path}"],
            UNARY_INSTANCE,
            "pinning_reduce_boolean",
            lambda instance, evaluator: WRONG,
        ),
        (
            ["reduce", "interpolate", "{path}", "--unary", "u", "--point", "2"],
            UNARY_INSTANCE,
            "interpolation_polynomial",
            lambda instance, name, point, evaluator: [WRONG],
        ),
        (
            ["reduce", "parity-chain", "--width", "3"],
            None,
            "evaluate",
            lambda instance, budget=None: (WRONG, "pure-affine"),
        ),
        (
            ["reduce", "mobius-pin", "{path}"],
            NEQ_INSTANCE,
            "mobius_pinning_reduce",
            lambda instance, evaluator: WRONG,
        ),
    ],
    ids=["pin", "pin-vars", "interpolate", "parity-chain", "mobius-pin"],
)
def test_reduce_verify_never_reports_success_on_a_wrong_value(
    tmp_path, capsys, monkeypatch, argv, instance, attribute, corrupted
):
    path = write(tmp_path, "inst.json", instance) if instance else None
    argv = [path if arg == "{path}" else arg for arg in argv]
    code, report, _ = run(capsys, *argv)
    assert code == 0 and report["verified"] is None  # the transform is sound

    monkeypatch.setattr(cli, attribute, corrupted)
    code, report, err = run(capsys, *argv, "--verify")
    assert code == 4
    assert report is None
    assert "verification failure" in err


def test_reduce_pin(tmp_path, capsys):
    instance = (
        '{"q":2,"n":2,"functions":{},'
        '"constraints":[{"f":"neq","scope":[0,1]}]}'
    )
    path = write(tmp_path, "inst.json", instance)
    code, report, err = run(
        capsys, "reduce", "pin", path, "--variable", "0", "--value", "1", "--verify"
    )
    assert code == 0 and report["verified"] is True
    assert err == "wcsp: verified: pinned value matches the enumeration oracle\n"
    constraints = report["instance"]["constraints"]
    assert constraints[-1] == {"f": "delta1", "scope": [0]}

    code, _, _ = run(
        capsys, "reduce", "pin", path, "--variable", "9", "--value", "1"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "reduce", "pin", path, "--variable", "0", "--value", "5"
    )
    assert code == 2


def test_reduce_pin_vars(tmp_path, capsys):
    instance = (
        '{"q":2,"n":2,"functions":{},'
        '"constraints":[{"f":"delta0","scope":[0]},{"f":"neq","scope":[0,1]}]}'
    )
    path = write(tmp_path, "inst.json", instance)
    code, report, _ = run(capsys, "reduce", "pin-vars", path, "--verify")
    assert code == 0
    assert report["value"] == "1" and report["verified"] is True


def test_reduce_pin_vars_ignores_unused_functions(tmp_path, capsys):
    # "hard" is in the catalog but no constraint uses it; the pinned
    # equality chain alone is product type and needs no elimination table,
    # so budget 3 suffices
    instance = (
        '{"q":2,"n":4,"functions":{"hard":{"arity":2,"table":["3","1","2","5"]}},'
        '"constraints":[{"f":"eq","scope":[0,1]},{"f":"eq","scope":[1,2]},'
        '{"f":"eq","scope":[2,3]},{"f":"delta0","scope":[0]}]}'
    )
    path = write(tmp_path, "inst.json", instance)
    code, report, err = run(capsys, "reduce", "pin-vars", path, "--budget", "3")
    assert (code, err) == (0, "")
    assert report["value"] == "1"


def test_reduce_interpolate(tmp_path, capsys):
    instance = (
        '{"q":2,"n":1,"functions":{"u":{"arity":1,"table":["1","5"]}},'
        '"constraints":[{"f":"u","scope":[0]}]}'
    )
    path = write(tmp_path, "inst.json", instance)
    code, report, _ = run(
        capsys,
        "reduce",
        "interpolate",
        path,
        "--unary",
        "u",
        "--point",
        "2",
        "--verify",
    )
    assert code == 0
    assert report["coefficients"] == ["1", "1"]
    assert report["value"] == "6"
    assert report["verified"] is True

    code, _, _ = run(
        capsys, "reduce", "interpolate", path, "--unary", "u", "--point", "1"
    )
    assert code == 2


def test_reduce_parity_chain(capsys):
    code, report, _ = run(
        capsys, "reduce", "parity-chain", "--width", "4", "--verify"
    )
    assert code == 0
    assert report["value"] == "8"
    assert report["evaluator"] == "pure-affine"
    assert report["instance"]["q"] == 2

    # width 10**6 built 4M variables in 10 s before evaluate refused them
    started = time.perf_counter()
    code, report, err = run(capsys, "reduce", "parity-chain", "--width", str(10**6))
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert err == (
        f"wcsp: refused: a parity chain of width {10**6} has 2**3999991 assignments: "
        f"the value can need 3999991 bits or more, beyond the limit of {MAX_VALUE_BITS}\n"
    )


def test_reduce_mobius_pin(tmp_path, capsys):
    instance = (
        '{"q":2,"n":2,"functions":{},'
        '"constraints":[{"f":"neq","scope":[0,1]}]}'
    )
    path = write(tmp_path, "inst.json", instance)
    code, report, _ = run(capsys, "reduce", "mobius-pin", path, "--verify")
    assert code == 0 and report["value"] == "2"

    doubled = (
        '{"q":2,"n":3,"functions":{},'
        '"constraints":[{"f":"neq","scope":[0,1]},{"f":"neq","scope":[1,2]}]}'
    )
    path = write(tmp_path, "two.json", doubled)
    code, _, err = run(capsys, "reduce", "mobius-pin", path)
    assert code == 3
    assert err == "wcsp: refused: expected exactly one full-disequality constraint, found 2\n"


# ---------------------------------------------------------------------------
# model subcommands


def test_model_ising(tmp_path, capsys):
    code, report, _ = run(capsys, "model", "ising", "--lambda", "2")
    assert code == 0
    assert report["matrix"] == [["1", "2"], ["2", "1"]]
    assert report["classification"] == "hard"
    assert "value" not in report

    graph = write(tmp_path, "g.txt", "2\n0 1\n")
    code, report, _ = run(
        capsys, "model", "ising", "--lambda", "2", "--graph", graph
    )
    assert code == 0 and report["value"] == "6"

    code, _, _ = run(capsys, "model", "ising", "--lambda", "-2")
    assert code == 2
    code, _, _ = run(capsys, "model", "ising", "--lambda", "x")
    assert code == 2


def test_model_evalh(tmp_path, capsys):
    graph = write(tmp_path, "g.txt", "3\n0 1\n1 2\n0 2\n")
    matrix = write(tmp_path, "h.json", '[[1, 2], [2, 1]]')
    code, report, _ = run(
        capsys, "model", "evalh", "--graph", graph, "--matrix", matrix
    )
    assert code == 0
    assert report["value"] == "26"
    assert report["classification"] == "hard"
    assert report["vertices"] == 3 and report["edges"] == 3


def test_model_evalh_classifies_a_large_target_in_quadratic_time(tmp_path, capsys):
    # a full rank of this target costs about 120**3 rational operations and
    # took many seconds; the rank-at-most-1 test reads each entry once
    rng = random.Random(120)
    rows = [[0] * 120 for _ in range(120)]
    for i in range(120):
        for j in range(i, 120):
            rows[i][j] = rows[j][i] = rng.randint(0, 9)
    graph = write(tmp_path, "g.txt", "2\n0 1\n")
    matrix = write(tmp_path, "h.json", json.dumps(rows))
    started = time.perf_counter()
    code, report, _ = run(capsys, "model", "evalh", "--graph", graph, "--matrix", matrix)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert report["classification"] == "hard"
    assert report["value"] == str(sum(map(sum, rows)))


def test_model_wenum(tmp_path, capsys):
    generator = write(tmp_path, "a.txt", "11\n")
    code, report, _ = run(
        capsys, "model", "wenum", "--lambda", "2", "--generator", generator
    )
    assert code == 0
    assert report["value"] == "5"  # 1 + lambda^2
    assert report["dimension"] == 1 and report["length"] == 2

    graph = write(tmp_path, "g.txt", "3\n0 1\n1 2\n0 2\n")
    code, report, _ = run(
        capsys, "model", "wenum", "--lambda", "2", "--graph", graph
    )
    assert code == 0 and report["value"] == "13"

    with pytest.raises(SystemExit) as info:
        cli.main(
            ["model", "wenum", "--lambda", "2", "--generator", generator, "--graph", graph]
        )
    assert info.value.code == 2
    capsys.readouterr()


def test_model_wenum_of_one_long_row_needs_no_power_per_length(tmp_path):
    # lambda**w for every w up to the length of a 200000-bit row ended in a
    # MemoryError; the row's two codewords need only lambda**0 and
    # lambda**200000, so a child process under a 1 GiB address-space cap
    # prints the exact value
    generator = write(tmp_path, "row.txt", "1" * 200000 + "\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import wcsp.cli\n"
        "sys.exit(wcsp.cli.main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "model", "wenum", "--lambda", "2", "--generator", generator],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        timeout=60,
    )
    assert result.returncode == 0 and not result.stderr
    assert json.loads(result.stdout)["value"] == format_rational(Fraction(1 + 2**200000))


def test_model_cut_check(tmp_path, capsys):
    graph = write(tmp_path, "g.txt", "3\n0 1\n1 2\n0 2\n")
    code, report, _ = run(
        capsys, "model", "cut-check", "--graph", graph, "--lambda", "2"
    )
    assert code == 0
    assert report["enumerator"] == "13"
    assert report["spin_value"] == "26"
    assert report["verified"] is True

    split = write(tmp_path, "split.txt", "4\n0 1\n2 3\n")
    code, _, err = run(
        capsys, "model", "cut-check", "--graph", split, "--lambda", "2"
    )
    assert code == 3 and "refused" in err


@pytest.mark.parametrize("command", ["wenum", "cut-check"])
def test_cut_space_code_is_refused_before_any_row_is_built(tmp_path, capsys, command):
    # the 19999 rows of a 20000-vertex path took over 50 s to build before
    # the word count was compared with the budget
    n = 20000
    edges = "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    graph = write(tmp_path, "path.txt", f"{n}\n{edges}")
    started = time.perf_counter()
    code, report, err = run(capsys, "model", command, "--graph", graph, "--lambda", "2")
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert err == (
        f"wcsp: refused: code has 2**{n - 1} words, beyond the enumeration budget {2**30}\n"
    )


@pytest.mark.parametrize("command", ["wenum", "cut-check"])
def test_huge_sparse_graph_is_refused_without_adjacency_lists(tmp_path, command):
    # the 10**8 adjacency sets of a one-edge graph ended in a MemoryError; a
    # child process under a 1 GiB address-space cap fails fast instead of
    # exhausting the machine
    graph = write(tmp_path, "sparse.json", '{"vertices": 100000000, "edges": [[0, 1]]}')
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import wcsp.cli\n"
        "sys.exit(wcsp.cli.main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "model", command, "--graph", graph, "--lambda", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        timeout=60,
    )
    assert result.returncode == 3 and not result.stdout
    assert result.stderr == (
        "wcsp: refused: the cut-space code is only defined for connected graphs\n"
    )


def test_gen_refuses_a_huge_graph_before_listing_its_vertex_pairs():
    # the list of 5 * 10**9 candidate pairs ended in a MemoryError; a child
    # process under a 1 GiB address-space cap fails fast instead
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import wcsp.cli\n"
        "sys.exit(wcsp.cli.main(sys.argv[1:]))\n"
    )
    start = time.perf_counter()
    result = subprocess.run(
        [
            sys.executable, "-c", script,
            "gen", "--profile", "graph-hom", "--seed", "1", "--variables", "100000",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert result.returncode == 3 and not result.stdout
    assert result.stderr == (
        "wcsp: refused: a graph on 100000 vertices has 4999950000 vertex pairs, "
        "beyond the table budget 16777216\n"
    )


# ---------------------------------------------------------------------------
# verify / gen / plumbing


def test_verify_suite_passes(capsys):
    code, report, _ = run(capsys, "verify", "--suite", "cut", "--seed", "1")
    assert code == 0
    assert report["failed"] == 0 and report["passed"] > 0
    assert all(c["passed"] for c in report["checks"])


def test_verify_reports_injected_corruption(capsys, monkeypatch):
    import wcsp.verify

    monkeypatch.setattr(
        wcsp.verify, "evaluate", lambda inst: (Fraction(999), "corrupt")
    )
    code, report, err = run(capsys, "verify", "--suite", "oracle", "--seed", "0")
    assert code == 4
    assert report["failed"] == report["passed"] + report["failed"]
    assert "FAILED" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()


def test_gen_is_deterministic_and_loadable(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code, _, _ = run(
        capsys,
        "gen",
        "--profile",
        "pure-affine",
        "--seed",
        "11",
        "--output",
        str(out),
    )
    assert code == 0
    first = out.read_text(encoding="utf-8")

    code2 = cli.main(
        ["gen", "--profile", "pure-affine", "--seed", "11"]
    )
    captured = capsys.readouterr()
    assert code2 == 0
    assert captured.out == first

    code, report, _ = run(capsys, "eval", str(out))
    assert code == 0 and report["evaluator"] in ("pure-affine", "product-type")


# sha256 of the concatenated `wcsp gen` stdout for seeds 0..20 at the default
# sizes, recorded before the generator moved onto the shared GF(2) basis: a
# change in its random draws or in the cosets it builds shows up here.
GEN_DIGESTS = {
    "product-type": "e4f3571ca42dd2bebbcf38b0a1ff0d4e3c01238a08244a3594cb8d6a248cb4dd",
    "pure-affine": "a22b167d6cc277316750328564965cbecd45aa0d8c88252e8f62351af4a537b1",
    "mixed": "dcf133017c5adc1bd4fa9d1a7aa415dea1acfb20e17994ae6716593a8bb5fd99",
    "graph-hom": "d93252ff81fe7c2ac2e4de092ace631213bfb6b06502358e795e4db8922b1132",
}


@pytest.mark.parametrize("profile", sorted(GEN_DIGESTS))
def test_gen_output_matches_recorded_digests(capsys, profile):
    digest = hashlib.sha256()
    for seed in range(21):
        assert cli.main(["gen", "--profile", profile, "--seed", str(seed)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GEN_DIGESTS[profile]


# ---------------------------------------------------------------------------
# parser diagnostics
#
# The exact stderr of `wcsp eval` on malformed instances, recorded before the
# load path was rewritten for speed: every branch of the function, table,
# constraint and scope checks, and the first bad occurrence in a table or
# scope.  Only the file path is substituted.

DIAGNOSTIC_GOLDENS = [
    (
        'boolean-entry',
        '{"q":2,"n":3,"functions":{"f":{"arity":2,"table":[1,"1",true,1]}},"constraints":[{"f":"f","scope":[0]}]}',
        'functions.f.table[2]: expected a rational, got a boolean',
    ),
    (
        'boolean-after-one',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,true]}},"constraints":[{"f":"f","scope":[0]}]}',
        'functions.f.table[1]: expected a rational, got a boolean',
    ),
    (
        'negative-string',
        '{"q":2,"n":3,"functions":{"f":{"arity":2,"table":["1","2","-3/4","-3/4"]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[2]: negative weight '-3/4' is not allowed",
    ),
    (
        'negative-int',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[2,-1]}},"constraints":[{"f":"f","scope":[0]}]}',
        'functions.f.table[1]: negative weight -1 is not allowed',
    ),
    (
        'negative-denominator',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":["1/2","1/-2"]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[1]: negative weight '1/-2' is not allowed",
    ),
    (
        'zero-denominator',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":["1"," 3/0 "]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[1]: zero denominator in ' 3/0 '",
    ),
    (
        'float-entry',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,1.0]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[1]: expected an integer or 'num/den' string, got float",
    ),
    (
        'null-entry',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[null,1]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[0]: expected an integer or 'num/den' string, got NoneType",
    ),
    (
        'list-entry',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":["1",[1]]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[1]: expected an integer or 'num/den' string, got list",
    ),
    (
        'not-a-rational',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":["1","one"]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f.table[1]: not a rational: 'one'",
    ),
    (
        'wrong-table-length',
        '{"q":2,"n":3,"functions":{"f":{"arity":2,"table":[1,2,3]}},"constraints":[{"f":"f","scope":[0]}]}',
        'functions.f: table has 3 entries, expected 2**2 for arity 2 over domain 2',
    ),
    (
        'table-not-a-list',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":"12"}},"constraints":[{"f":"f","scope":[0]}]}',
        'functions.f.table: expected a list',
    ),
    (
        'arity-boolean',
        '{"q":2,"n":3,"functions":{"f":{"arity":true,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]}]}',
        'functions.f.arity: expected an integer, got True',
    ),
    (
        'function-not-an-object',
        '{"q":2,"n":3,"functions":{"f":[1,2]},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f: expected an object with 'arity' and 'table'",
    ),
    (
        'functions-not-an-object',
        '{"q":2,"n":3,"functions":[],"constraints":[{"f":"f","scope":[0]}]}',
        'functions: expected an object mapping names to functions',
    ),
    (
        'function-unknown-key',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2],"note":"x"}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f: unknown keys ['note']",
    ),
    (
        'function-missing-arity',
        '{"q":2,"n":3,"functions":{"f":{"table":[1,2]}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f: missing 'arity'",
    ),
    (
        'function-missing-table',
        '{"q":2,"n":3,"functions":{"f":{"arity":1}},"constraints":[{"f":"f","scope":[0]}]}',
        "functions.f: missing 'table'",
    ),
    (
        'instance-not-an-object',
        '[1,2]',
        'instance: expected a JSON object',
    ),
    (
        'instance-unknown-key',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]}],"comment":"x"}',
        "instance: unknown keys ['comment']",
    ),
    (
        'instance-missing-key',
        '{"q":2,"n":3,"functions":{}}',
        "instance: missing key 'constraints'",
    ),
    (
        'q-not-an-integer',
        '{"q":"2","n":3,"functions":{},"constraints":[]}',
        "q: expected an integer, got '2'",
    ),
    (
        'n-boolean',
        '{"q":2,"n":false,"functions":{},"constraints":[]}',
        'n: expected an integer, got False',
    ),
    (
        'negative-n',
        '{"q":2,"n":-1,"functions":{},"constraints":[]}',
        'negative variable count -1',
    ),
    (
        'domain-below-two',
        '{"q":1,"n":1,"functions":{},"constraints":[]}',
        'domain size must be at least 2, got 1',
    ),
    (
        'constraints-not-a-list',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":{}}',
        'constraints: expected a list',
    ),
    (
        'constraint-not-an-object',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]},["f",[1]]]}',
        "constraints[1]: expected an object with 'f' and 'scope'",
    ),
    (
        'constraint-unknown-key',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0],"w":2}]}',
        "constraints[0]: unknown keys ['w']",
    ),
    (
        'constraint-missing-scope',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f"}]}',
        "constraints[0]: missing 'f' or 'scope'",
    ),
    (
        'constraint-name-not-a-string',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":["f"],"scope":[0]}]}',
        'constraints[0].f: expected a function name string',
    ),
    (
        'unknown-function',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]},{"f":"g","scope":[1]}]}',
        "constraints[1].f: unknown function 'g'",
    ),
    (
        'bad-builtin-unary',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"unary:-1","scope":[0]}]}',
        "unary:-1: negative weight '-1' is not allowed",
    ),
    (
        'scope-not-a-list',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":0}]}',
        'constraints[0].scope: expected a list of variable indices',
    ),
    (
        'boolean-in-scope',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]},{"f":"eq","scope":[1,true]}]}',
        'constraints[1].scope[1]: expected an integer, got True',
    ),
    (
        'string-in-scope',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"eq","scope":["0",1]}]}',
        "constraints[0].scope[0]: expected an integer, got '0'",
    ),
    (
        'float-in-scope',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"eq","scope":[0,1.0]}]}',
        'constraints[0].scope[1]: expected an integer, got 1.0',
    ),
    (
        'variable-out-of-range',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]},{"f":"eq","scope":[2,3]}]}',
        'constraints[1]: variable 3 out of range',
    ),
    (
        'first-of-several-out-of-range',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"eq","scope":[1,2]},{"f":"xor3","scope":[1,7,-2]}]}',
        'constraints[1]: variable 7 out of range',
    ),
    (
        'negative-variable',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"eq","scope":[1,-1]}]}',
        'constraints[0]: variable -1 out of range',
    ),
    (
        'arity-mismatch',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[0]},{"f":"f","scope":[0,1]}]}',
        "constraints[1]: scope length 2 != arity 1 of 'f'",
    ),
    (
        'empty-scope-for-unary',
        '{"q":2,"n":3,"functions":{"f":{"arity":1,"table":[1,2]}},"constraints":[{"f":"f","scope":[]}]}',
        "constraints[0]: scope length 0 != arity 1 of 'f'",
    ),
]


@pytest.mark.parametrize(
    "text, message",
    [case[1:] for case in DIAGNOSTIC_GOLDENS],
    ids=[case[0] for case in DIAGNOSTIC_GOLDENS],
)
def test_parser_diagnostics_match_recorded_goldens(tmp_path, capsys, text, message):
    path = write(tmp_path, "case.json", text)
    code, report, err = run(capsys, "eval", path)
    assert code == 2 and report is None
    assert err == f"wcsp: {path}: {message}\n"


HUGE_INT = "9" * 5000  # beyond the interpreter's 4300-digit conversion limit
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("payload", [HUGE_INT, DEEP], ids=["huge-int", "deep-nesting"])
@pytest.mark.parametrize("command", ["eval", "classify", "evalh"])
def test_undecodable_json_is_an_input_error(tmp_path, capsys, command, payload):
    if command == "eval":
        text = '{"q":2,"n":%s,"functions":{},"constraints":[]}' % payload
        argv = ["eval", write(tmp_path, "inst.json", text)]
    elif command == "classify":
        text = '{"q":2,"functions":{"f":{"arity":1,"table":[1,%s]}}}' % payload
        argv = ["classify", write(tmp_path, "cat.json", text)]
    else:
        graph = write(tmp_path, "g.json", '{"vertices":%s,"edges":[]}' % payload)
        matrix = write(tmp_path, "h.json", "[[1, 2], [2, 1]]")
        argv = ["model", "evalh", "--graph", graph, "--matrix", matrix]
    code, report, err = run(capsys, *argv)  # raising here would be a traceback
    assert code == 2 and report is None
    assert err.startswith("wcsp:") and "invalid JSON" in err


def test_no_command_prints_usage(capsys):
    code = cli.main([])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err


def test_reduce_without_subcommand_prints_usage(capsys):
    code = cli.main(["reduce"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err


def _child(script, *argv):
    """Run ``script`` in a fresh interpreter that imports this checkout's wcsp."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        timeout=60,
    )


def test_main_reuses_its_parser_after_errors_and_help(tmp_path):
    # the clock is fixed so that the report's "seconds" field repeats
    path = write(tmp_path, "xor3.json", XOR3_INSTANCE)
    script = (
        "import contextlib, io, sys, time\n"
        "time.perf_counter = lambda: 0.0\n"
        "import wcsp.cli\n"
        "if sys.argv[1] == 'warm':\n"
        "    for argv, expected in ((['eval', '--bogus'], 2), (['--help'], 0)):\n"
        "        sink = io.StringIO()\n"
        "        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "            try:\n"
        "                wcsp.cli.main(argv)\n"
        "            except SystemExit as exc:\n"
        "                assert exc.code == expected, (argv, exc.code)\n"
        "            else:\n"
        "                raise AssertionError(argv)\n"
        "sys.exit(wcsp.cli.main(sys.argv[2:]))\n"
    )
    warm = _child(script, "warm", "eval", path)
    fresh = _child(script, "fresh", "eval", path)
    assert warm.returncode == fresh.returncode == 0, warm.stderr
    assert warm.stdout == fresh.stdout and warm.stderr == fresh.stderr == b""
    assert json.loads(warm.stdout)["value"] == "4"


def test_parser_is_built_by_the_first_call_and_only_once(tmp_path):
    path = write(tmp_path, "xor3.json", XOR3_INSTANCE)
    script = (
        "import argparse, contextlib, io, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import wcsp.cli\n"
        "assert not built, 'importing wcsp.cli built a parser'\n"
        "calls = []\n"
        "build = wcsp.cli.build_parser\n"
        "wcsp.cli.build_parser = lambda: calls.append(1) or build()\n"
        "for _ in range(100):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert wcsp.cli.main(['eval', sys.argv[1]]) == 0\n"
        "print(len(calls))\n"
    )
    result = _child(script, path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"1\n"


def test_gen_refuses_a_huge_constraint_count_before_drawing():
    # the 10**8 constraints were drawn before any limit was checked, ending
    # in a MemoryError; a child process under a 1 GiB address-space cap
    # fails fast instead
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import wcsp.cli\n"
        "sys.exit(wcsp.cli.main(sys.argv[1:]))\n"
    )
    start = time.perf_counter()
    result = _child(
        script, "gen", "--profile", "mixed", "--seed", "1",
        "--variables", "10", "--constraints", "100000000",
    )
    assert time.perf_counter() - start < 5
    assert result.returncode == 3 and not result.stdout
    assert result.stderr == (
        b"wcsp: refused: 100000000 constraints requested, beyond the limit of 1048576\n"
    )


def test_model_wenum_refuses_a_value_beyond_the_bit_limit(tmp_path):
    # lambda = 10**4000 on one 1000-bit row ran past 30 s computing
    # lambda**1000; a child process under a 1 GiB address-space cap refuses
    # before enumerating
    generator = write(tmp_path, "row.txt", "1" * 1000 + "\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import wcsp.cli\n"
        "sys.exit(wcsp.cli.main(sys.argv[1:]))\n"
    )
    start = time.perf_counter()
    result = _child(
        script, "model", "wenum", "--lambda", str(10**4000), "--generator", generator
    )
    assert time.perf_counter() - start < 5
    bits = 1000 * ((10**4000).bit_length() + 1) + 1
    assert result.returncode == 3 and not result.stdout
    assert result.stderr == (
        f"wcsp: refused: weight enumerator: the value can need {bits} bits or more, "
        f"beyond the limit of {MAX_VALUE_BITS}\n"
    ).encode()


def test_interpolation_refuses_a_solve_beyond_the_work_limit(tmp_path):
    # 64 unaries at the 255-bit point 2**255 - 19 pass the value-bits check
    # (64 * 64 * 256 bits is exactly the limit), and the solve ran for 45 s;
    # a child process under a 1 GiB address-space cap refuses before
    # evaluating
    path = write(tmp_path, "unaries.json", _unary_occurrences(64))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import wcsp.cli\n"
        "sys.exit(wcsp.cli.main(sys.argv[1:]))\n"
    )
    start = time.perf_counter()
    result = _child(
        script, "reduce", "interpolate", path, "--unary", "f", "--point", str(2**255 - 19)
    )
    assert time.perf_counter() - start < 5
    assert result.returncode == 3 and not result.stdout
    assert result.stderr == (
        f"wcsp: refused: interpolating 'f' over 64 occurrences at a 256-bit point: the "
        f"solve can take about {64**6 * 256**2} bit operations, beyond the limit of "
        f"{MAX_INTERPOLATION_WORK}\n"
    ).encode()


# ---------------------------------------------------------------------------
# hostile input

_EXTREME_INTS = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, 10**12, 2**64]),
    st.just(4000).map(lambda digits: 10**digits),  # under the 4300-digit limit
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["f", "x"]), st.integers(0, 2), max_size=2),
    _EXTREME_INTS,
)
_ENTRIES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from(["0", "1", " 2 ", "1/2", "2/4", "0/0", "1/-2", "-1", "x", "", "1e3"]),
    _JUNK,
)
_NAMES = st.sampled_from(["f", "g", "eq", "neq", "xor3", "delta1", "unary:2", "unary:-1", "?"])
_FUNCTION = st.one_of(
    st.fixed_dictionaries(
        {
            "arity": st.one_of(st.integers(0, 3), _JUNK),
            "table": st.one_of(st.lists(_ENTRIES, max_size=9), _JUNK),
        },
        optional={"extra": _JUNK},
    ),
    _JUNK,
)
_CONSTRAINT = st.one_of(
    st.fixed_dictionaries(
        {
            "f": st.one_of(_NAMES, _JUNK),
            "scope": st.one_of(st.lists(st.one_of(st.integers(-1, 6), _JUNK), max_size=3), _JUNK),
        },
        optional={"w": _JUNK},
    ),
    _JUNK,
)
_FIELDS = {
    "q": st.one_of(st.integers(1, 4), _EXTREME_INTS, _JUNK),
    "n": st.one_of(st.integers(0, 7), _EXTREME_INTS, _JUNK),
    "functions": st.one_of(st.dictionaries(_NAMES, _FUNCTION, max_size=3), _JUNK),
    "constraints": st.one_of(st.lists(_CONSTRAINT, max_size=4), _JUNK),
}
_INSTANCE = st.one_of(
    st.fixed_dictionaries(_FIELDS, optional={"extra": _JUNK}),
    st.fixed_dictionaries({}, optional=_FIELDS),
)


_ORACLE_BUDGETS = [0, -1, 2**64, 10**4000]
_NEQ_PAIR = {"q": 2, "n": 3, "functions": {}, "constraints": [{"f": "neq", "scope": [0, 1]}]}


@settings(max_examples=300)
@given(
    st.one_of(_INSTANCE, _JUNK),
    st.one_of(st.none(), st.integers(0, 200)),
    st.one_of(st.none(), st.sampled_from(_ORACLE_BUDGETS)),
)
@example({"q": 2, "n": 10**12, "functions": {}, "constraints": []}, None, None)
@example(
    {
        "q": 3,
        "n": 10**8,
        "functions": {"u": {"arity": 1, "table": [1, 2, 3]}},
        "constraints": [{"f": "u", "scope": [0]}],
    },
    None,
    None,
)
@example(_NEQ_PAIR, None, 0)
@example(_NEQ_PAIR, None, -1)
@example(_NEQ_PAIR, None, 2**64)
@example(_NEQ_PAIR, None, 10**4000)
def test_eval_keeps_the_exit_code_contract_on_hostile_input(
    tmp_path_factory, obj, cut, budget
):
    # without a budget, the default route; with one, the enumeration oracle
    options = () if budget is None else ("--force-oracle", "--budget", str(budget))
    _check_exit_code_contract(tmp_path_factory, ["eval"], obj, cut, options)


def _check_exit_code_contract(tmp_path_factory, command, obj, cut, options=()):
    # malformed and extreme JSON, or its text cut short: exit 0, 2 or 3, with
    # a diagnostic for 2 and 3, and never an exception; the options go
    # between the command words and the path
    text = json.dumps(obj)
    if cut is not None:
        text = text[:cut]
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, *options, str(path)])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("wcsp: ") and not out.getvalue()
    else:
        assert json.loads(out.getvalue())["command"] == " ".join(command)


@pytest.mark.parametrize("reduction", ["pin-vars", "mobius-pin"])
@settings(max_examples=300)
@given(
    st.one_of(_INSTANCE, _JUNK),
    st.one_of(st.none(), st.integers(0, 200)),
)
@example(
    {
        "q": 2,
        "n": 10**12,
        "functions": {},
        "constraints": [{"f": "delta0", "scope": [0]}, {"f": "neq", "scope": [0, 1]}],
    },
    None,
)
@example({"q": 40, "n": 1, "functions": {}, "constraints": []}, None)
def test_reductions_keep_the_exit_code_contract_on_hostile_input(
    tmp_path_factory, reduction, obj, cut
):
    _check_exit_code_contract(tmp_path_factory, ["reduce", reduction], obj, cut)


@pytest.mark.parametrize("reduction", ["interpolate", "project"])
@settings(max_examples=300)
@given(
    st.one_of(_INSTANCE, _JUNK),
    st.one_of(st.none(), st.integers(0, 200)),
)
@example(json.loads(_unary_occurrences(200)), None)
@example(
    {
        "q": 2,
        "n": 10**12,
        "functions": {"f": {"arity": 1, "table": [1, 0]}},
        "constraints": [{"f": "f", "scope": [0]}, {"f": "neq", "scope": [0, 1]}],
    },
    None,
)
def test_interpolate_and_project_keep_the_exit_code_contract_on_hostile_input(
    tmp_path_factory, reduction, obj, cut
):
    if reduction == "interpolate":
        options = ["--unary", "f", "--point", "3"]
    else:
        # a valid preimage whose projection onto coordinate 0 is delta0
        preimage = tmp_path_factory.getbasetemp() / "preimage.json"
        preimage.write_text('{"q":2,"functions":{"g":{"arity":2,"table":[1,0,0,0]}}}')
        options = ["--function", "f", "--preimage", str(preimage), "--coordinates", "0"]
    _check_exit_code_contract(tmp_path_factory, ["reduce", reduction], obj, cut, options)


_VALUES = st.sampled_from([0, 1, 2, "1/2"])


@st.composite
def _valid_boolean_instances(draw):
    """Small valid q = 2 instances over random tables, pins, f = (1, c) and neq."""
    n = draw(st.integers(1, 6))
    functions = {"f": {"arity": 1, "table": [1, draw(_VALUES)]}}
    for name in draw(st.lists(st.sampled_from(["g", "h"]), unique=True)):
        arity = draw(st.integers(1, 3))
        table = draw(st.lists(_VALUES, min_size=2**arity, max_size=2**arity))
        functions[name] = {"arity": arity, "table": table}
    arities = {"delta0": 1, "delta1": 1, "neq": 2}
    arities.update((name, spec["arity"]) for name, spec in functions.items())
    constraints = [
        {"f": name, "scope": draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))}
        for name in draw(st.lists(st.sampled_from(sorted(arities)), max_size=6))
        for k in [arities[name]]
    ]
    return {"q": 2, "n": n, "functions": functions, "constraints": constraints}


@pytest.mark.parametrize(
    "options",
    [["pin-vars"], ["interpolate", "--unary", "f", "--point", "3"], ["mobius-pin"]],
    ids=["pin-vars", "interpolate", "mobius-pin"],
)
@settings(max_examples=300)
@given(_valid_boolean_instances())
def test_reductions_verify_or_refuse_every_valid_boolean_instance(
    tmp_path_factory, options, obj
):
    # a valid instance is never an input error (2) or a wrong value (4)
    path = tmp_path_factory.getbasetemp() / "valid.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["reduce", *options, "--verify", str(path)])
    assert code in (0, 3), err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["verified"] is True
