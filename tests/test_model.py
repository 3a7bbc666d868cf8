"""Core data model: rationals, indexing, instances, summation, JSON."""

import json
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import decimal_digits, partition_function_direct, scopes_direct

from wcsp.errors import InputError, Refusal
from wcsp.generate import PROFILES, parity_spread, product_type_chain, random_instance
from wcsp.library import resolve_builtin
from wcsp.model import (
    Constraint,
    Instance,
    WeightFunction,
    brute_force_z,
    conditioned_z,
    decimal_rendering,
    format_rational,
    index_to_tuple,
    instance_from_obj,
    instance_to_json,
    instance_to_obj,
    parse_catalog,
    parse_instance,
    parse_rational,
    tuple_to_index,
)
from wcsp.tractable import evaluate

F = Fraction


# ---------------------------------------------------------------------------
# rational parsing and rendering


def test_parse_rational_accepts_integers_and_slashes():
    assert parse_rational("3") == 3
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("2/6") == F(1, 3)
    assert parse_rational(" 7 ") == 7
    assert parse_rational(5) == 5


def test_parse_rational_rejects_junk():
    for bad in ("", "1/0", "a", "1.5e3", "1/2/3", None, 1.5, [1], True, "-1", -2):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_format_rational_is_canonical():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
    assert format_rational(F(0)) == "0"
    huge = F(2**20000, 3**13000)  # both parts beyond the 4300-digit str limit
    assert format_rational(huge) == f"{decimal_digits(2**20000)}/{decimal_digits(3**13000)}"


@given(st.fractions(min_value=0))
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_decimal_rendering_is_informational():
    assert decimal_rendering(F(1, 3)).startswith("0.3333")
    assert decimal_rendering(F(2)) == "2"


# ---------------------------------------------------------------------------
# assignment indexing: first coordinate is the most significant digit


def test_tuple_to_index_is_big_endian():
    assert tuple_to_index((1, 0), 2) == 2
    assert tuple_to_index((0, 1), 2) == 1
    assert tuple_to_index((1, 0, 1), 2) == 5
    assert tuple_to_index((2, 1), 3) == 7
    assert tuple_to_index((), 2) == 0


@given(st.integers(2, 5), st.integers(0, 6), st.data())
def test_index_round_trip(q, arity, data):
    index = data.draw(st.integers(0, q**arity - 1))
    assert tuple_to_index(index_to_tuple(index, arity, q), q) == index


def test_index_to_tuple_rejects_out_of_range():
    with pytest.raises(InputError):
        index_to_tuple(8, 3, 2)
    with pytest.raises(InputError):
        index_to_tuple(-1, 2, 2)


# ---------------------------------------------------------------------------
# weight functions and instances


def test_weight_function_validation():
    with pytest.raises(InputError):
        WeightFunction(2, 2, (F(1),))  # wrong table length
    with pytest.raises(InputError):
        WeightFunction(1, 2, (F(1), F(-1)))  # negative weight
    with pytest.raises(InputError):
        WeightFunction(1, 1, (F(1),))  # domain too small
    fn = WeightFunction(1, 2, (F(1), F(2)))
    assert fn.lookup((0,)) == 1 and fn.lookup((1,)) == 2
    with pytest.raises(InputError):
        fn.lookup((0, 0))
    with pytest.raises(InputError):
        fn.lookup((2,))


def test_instance_validation():
    neq = resolve_builtin("neq")
    with pytest.raises(InputError):
        Instance(2, 2, {"neq": neq}, (Constraint("missing", (0, 1)),))
    with pytest.raises(InputError):
        Instance(2, 2, {"neq": neq}, (Constraint("neq", (0,)),))  # arity mismatch
    with pytest.raises(InputError):
        Instance(2, 2, {"neq": neq}, (Constraint("neq", (0, 5)),))  # var range
    with pytest.raises(InputError):
        Instance(-1, 2, {}, ())
    with pytest.raises(InputError):
        Instance(2, 3, {"neq": neq}, ())  # domain mismatch with catalog


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Instance(2.5, 2, {}, ()), "num_variables: expected an integer, got 2.5"),
        (lambda: Instance("3", 2, {}, ()), "num_variables: expected an integer, got '3'"),
        (lambda: Instance(True, 2, {}, ()), "num_variables: expected an integer, got True"),
        (lambda: Instance(2, 2.0, {}, ()), "domain_size: expected an integer, got 2.0"),
        (lambda: WeightFunction(1.0, 2, (F(1), F(1))), "arity: expected an integer, got 1.0"),
        (lambda: WeightFunction(1, None, (F(1),)), "domain_size: expected an integer, got None"),
    ],
)
def test_sizes_must_be_exact_integers(build, message):
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("variable", [0.0, 1.0, None, "0", True, False, [0]])
def test_instance_refuses_a_variable_that_is_not_an_integer(variable):
    neq = resolve_builtin("neq")
    with pytest.raises(InputError) as caught:
        Instance(2, 2, {"neq": neq}, (Constraint("neq", (0, 1)), Constraint("neq", (1, variable))))
    assert str(caught.value) == f"constraints[1].scope[1]: expected an integer, got {variable!r}"


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda neq: Instance(2, 2, {"neq": neq}, (Constraint(["neq"], (0, 1)),)),
            "constraints[0]: expected a Constraint of a name and a scope tuple, "
            "got Constraint(function=['neq'], scope=(0, 1))",
        ),
        (
            lambda neq: Instance(
                2, 2, {"neq": neq}, (Constraint("neq", (0, 1)), Constraint("neq", None))
            ),
            "constraints[1]: expected a Constraint of a name and a scope tuple, "
            "got Constraint(function='neq', scope=None)",
        ),
        (
            lambda neq: Instance(2, 2, {"neq": neq}, (Constraint("neq", [0, 1]),)),
            "constraints[0]: expected a Constraint of a name and a scope tuple, "
            "got Constraint(function='neq', scope=[0, 1])",
        ),
        (
            lambda neq: Instance(2, 2, {"neq": neq}, (("neq", (0, 1)),)),
            "constraints[0]: expected a Constraint of a name and a scope tuple, "
            "got ('neq', (0, 1))",
        ),
        (
            lambda neq: Instance(2, 2, {"neq": "x"}, ()),
            "functions['neq']: expected a WeightFunction, got 'x'",
        ),
        (lambda neq: Instance(2, 2, None, ()), "functions: expected a dict, got None"),
        (lambda neq: Instance(2, 2, {}, None), "constraints: expected a tuple, got None"),
        (
            lambda neq: Instance(2, 2, {"neq": neq}, [Constraint("neq", (0, 1))] * 1000),
            "constraints: expected a tuple, got [Constraint(fu... scope=(0, 1)), "
            "Constraint(fu... scope=(0, 1)), Constraint(fu... scope=(0, 1)), "
            "Constraint(fu... scope=(0, 1)), Constraint(fu... scope=(0, 1)), "
            "Constraint(fu... scope=(0, 1)), ...]",
        ),
        (lambda neq: WeightFunction(1, 2, None), "table: expected a tuple, got None"),
        (
            lambda neq: WeightFunction(1, 2, list(neq.table[:2])),
            "table: expected a tuple, got [Fraction(0, 1), Fraction(1, 1)]",
        ),
    ],
)
def test_containers_of_the_wrong_type_are_named_with_their_repr(build, message):
    with pytest.raises(InputError) as caught:
        build(resolve_builtin("neq"))
    assert str(caught.value) == message


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
)


def _int_or_junk(low, high):
    return st.one_of(st.integers(low, high), JUNK)


@st.composite
def _instances_built_in_code(draw):
    """Sizes, scope entries and containers from valid values, or in half the
    draws also junk: a junk name, scope, table, catalog entry, constraint
    (a bare tuple among them), catalog or constraint tuple."""
    ints = draw(st.sampled_from([st.integers, _int_or_junk]))
    junk = ints is _int_or_junk

    def maybe_junk(value, *alternatives):
        if not junk:
            return value
        return draw(st.one_of(st.just(value), *map(st.just, alternatives), JUNK))

    q = draw(ints(1, 3))
    n = draw(ints(-1, 8))
    functions = {}
    for name in ("f", "g")[: draw(st.integers(0, 2))]:
        arity = draw(ints(-1, 3))
        domain = draw(st.one_of(st.just(q), ints(1, 3)))
        valid = type(arity) is int and type(domain) is int and arity >= 0
        length = domain**arity if valid else 1
        length += draw(st.sampled_from([0, 0, 0, 1]))  # now and then a wrong length
        entry = st.fractions(0, 3, max_denominator=3)
        table = draw(st.lists(entry, min_size=length, max_size=length))
        spec = (arity, domain, maybe_junk(tuple(table), table))
        functions[name] = maybe_junk(spec)  # a spec is built; any other value is put in as is
    constraints = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from([*functions, "h"]))
        arity = functions[name][0] if isinstance(functions.get(name), tuple) else 1
        width = arity if type(arity) is int and arity >= 0 else draw(st.integers(0, 3))
        scope = tuple(draw(st.lists(ints(-1, 8), min_size=width, max_size=width)))
        constraint = Constraint(maybe_junk(name), maybe_junk(scope))
        constraints.append(maybe_junk(constraint, (name, scope)))
    return q, n, maybe_junk(functions), maybe_junk(tuple(constraints))


@settings(max_examples=300)
@given(_instances_built_in_code())
@example(
    (
        2,
        3,
        {"f": (2, 2, (F(1), F(2), F(0), F(1)))},
        (Constraint("f", (0, 1)), Constraint("f", (2, 2))),
    )
)
@example((2, 3, {"f": (2, 2, (F(1), F(2), F(0), F(1)))}, (Constraint("f", (0, 1.0)),)))
@example((3, 2, {"f": (1, 3, (F(1), F(2), F(3)))}, (Constraint("f", (True,)),)))
@example((2, 2.0, {}, ()))
@example((2, 2, {"f": (1, 2, (F(1), F(2)))}, (Constraint(["f"], (0,)),)))
@example((2, 2, {"f": (1, 2, (F(1), F(2)))}, (Constraint("f", None),)))
@example((2, 2, {"f": "x"}, ()))
@example((2, 2, {"f": (1, 2, (F(1), F(2)))}, (("f", (0,)),)))
@example((2, 2, {"f": (1, 2, None)}, ()))
@example((2, 2, None, ()))
@example((2, 2, {}, None))
@example((2, 2, {"f": (1, 2, [F(1), F(2)])}, (Constraint("f", (0,)),)))
def test_evaluate_keeps_the_exit_code_contract_on_instances_built_in_code(drawn):
    # what the command line holds for any input file, the library holds for
    # any instance built in code: a value, an InputError or a Refusal
    q, n, functions, constraints = drawn
    try:
        catalog = functions
        if isinstance(functions, dict):
            catalog = {
                name: WeightFunction(*spec) if isinstance(spec, tuple) else spec
                for name, spec in functions.items()
            }
        inst = Instance(n, q, catalog, constraints)
        value, _route = evaluate(inst)
    except (InputError, Refusal):
        return
    assert value == brute_force_z(inst)


def test_scopes_group_the_used_functions_in_catalog_order():
    neq, xor3, delta0 = (resolve_builtin(name) for name in ("neq", "xor3", "delta0"))
    inst = _instance(
        2,
        4,
        {"xor3": xor3, "unused": delta0, "neq": neq, "d": delta0},
        [("neq", (0, 1)), ("d", (2,)), ("xor3", (1, 2, 3)), ("neq", (3, 3))],
    )
    assert inst.scopes == {"xor3": [(1, 2, 3)], "neq": [(0, 1), (3, 3)], "d": [(2,)]}
    assert list(inst.scopes) == ["xor3", "neq", "d"]
    assert _instance(2, 3, {"neq": neq}, []).scopes == {}


@given(st.sampled_from(PROFILES), st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 12))
def test_scopes_match_the_grouping_oracle(profile, seed, n, m):
    inst = random_instance(profile, seed, n, m)
    assert inst.scopes == scopes_direct(inst)
    assert list(inst.scopes) == list(scopes_direct(inst))


def test_repeated_variables_in_scope_are_legal():
    xor3 = resolve_builtin("xor3")
    inst = Instance(2, 2, {"xor3": xor3}, (Constraint("xor3", (0, 0, 1)),))
    # f(v,v,w): weight 1 iff w = 1, two choices of v
    assert brute_force_z(inst) == 2


# ---------------------------------------------------------------------------
# the brute-force sum, pinned on hand-computed values


def _instance(q, n, functions, constraints):
    return Instance(
        n, q, functions, tuple(Constraint(f, tuple(s)) for f, s in constraints)
    )


def test_brute_force_hand_values():
    neq = resolve_builtin("neq")
    xor3 = resolve_builtin("xor3")
    skew = WeightFunction(2, 2, (F(1), F(3), F(2), F(6)))

    assert brute_force_z(_instance(2, 2, {"neq": neq}, [("neq", (0, 1))])) == 2
    assert brute_force_z(_instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))])) == 4
    assert brute_force_z(_instance(2, 2, {"skew": skew}, [("skew", (0, 1))])) == 12

    # odd cycle of disequalities over q=2 has no satisfying assignment
    triangle = _instance(
        2, 3, {"neq": neq}, [("neq", (0, 1)), ("neq", (1, 2)), ("neq", (2, 0))]
    )
    assert brute_force_z(triangle) == 0


def test_empty_instance_counts_all_assignments():
    assert brute_force_z(_instance(2, 4, {}, [])) == 16
    assert brute_force_z(_instance(3, 3, {}, [])) == 27
    assert brute_force_z(_instance(2, 0, {}, [])) == 1


@given(st.sampled_from([2, 3]), st.integers(0, 12), st.data())
def test_unconstrained_variable_multiplies_by_q(q, extra, data):
    n = data.draw(st.integers(1, 4))
    entries = st.sampled_from([F(0), F(1), F(2), F(1, 3)])
    table = tuple(data.draw(st.lists(entries, min_size=q * q, max_size=q * q)))
    variable = st.integers(0, n - 1)
    scopes = data.draw(st.lists(st.tuples(variable, variable), max_size=5))
    functions = {"g": WeightFunction(2, q, table)}
    constraints = [("g", scope) for scope in scopes]
    base = _instance(q, n, functions, constraints)
    padded = _instance(q, n + extra, functions, constraints)
    assert brute_force_z(base) == partition_function_direct(base)
    # 3**12 states for the padded instance alone would take seconds to enumerate
    assert brute_force_z(padded) == partition_function_direct(base) * q**extra


@given(st.integers(0, 5), st.integers(1, 20))
def test_scaling_one_function_scales_z_per_use(uses, k):
    xor3 = resolve_builtin("xor3")
    scaled = WeightFunction(3, 2, tuple(F(k) * v for v in xor3.table))
    constraints = [("f", (0, 1, 2))] * uses
    plain = brute_force_z(_instance(2, 3, {"f": xor3}, constraints))
    boosted = brute_force_z(_instance(2, 3, {"f": scaled}, constraints))
    assert boosted == F(k) ** uses * plain


def test_constraint_order_does_not_matter():
    neq = resolve_builtin("neq")
    delta0 = resolve_builtin("delta0")
    a = _instance(2, 2, {"neq": neq, "d": delta0}, [("neq", (0, 1)), ("d", (0,))])
    b = _instance(2, 2, {"neq": neq, "d": delta0}, [("d", (0,)), ("neq", (0, 1))])
    assert brute_force_z(a) == brute_force_z(b) == 1


def test_budget_refusal():
    with pytest.raises(Refusal):
        brute_force_z(_instance(2, 40, {}, []), budget=1000)


def test_conditioned_z_hand_values():
    neq = resolve_builtin("neq")
    inst = _instance(2, 2, {"neq": neq}, [("neq", (0, 1))])
    assert conditioned_z(inst, [(0, 0)]) == 1
    assert conditioned_z(inst, [(0, 0), (1, 0)]) == 0
    assert conditioned_z(inst, []) == 2
    with pytest.raises(InputError):
        conditioned_z(inst, [(5, 0)])
    with pytest.raises(InputError):
        conditioned_z(inst, [(0, 2)])
    with pytest.raises(InputError):
        conditioned_z(inst, [(0, 0), (0, 1)])


def test_conditioned_matches_brute_force_with_pin_constraints():
    xor3 = resolve_builtin("xor3")
    delta1 = resolve_builtin("delta1")
    inst = _instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))])
    pinned = _instance(
        2,
        3,
        {"xor3": xor3, "delta1": delta1},
        [("xor3", (0, 1, 2)), ("delta1", (2,))],
    )
    assert conditioned_z(inst, [(2, 1)]) == brute_force_z(pinned) == 2


def _with_pin_constraints(inst, pins):
    """The instance plus one ``delta<value>`` constraint per pinned variable."""
    functions = dict(
        inst.functions,
        delta0=resolve_builtin("delta0"),
        delta1=resolve_builtin("delta1"),
    )
    extra = tuple(Constraint(f"delta{value}", (var,)) for var, value in pins)
    return Instance(inst.num_variables, 2, functions, inst.constraints + extra)


@given(
    st.sampled_from([p for p in PROFILES if p != "graph-hom"]),
    st.integers(0, 10**6),
    st.integers(1, 6),
    st.data(),
)
def test_conditioned_z_equals_enumeration_with_pin_constraints(profile, seed, n, data):
    inst = random_instance(profile, seed, n, 6)
    variables = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    pins = [(var, data.draw(st.integers(0, 1))) for var in variables]
    assert conditioned_z(inst, pins) == brute_force_z(_with_pin_constraints(inst, pins))


@pytest.mark.parametrize("free", [0, 3, 8])
def test_conditioned_z_budgets_only_the_free_variables(free):
    # 40 variables: weighted unaries everywhere, disequalities on even pairs.
    lean = WeightFunction(1, 2, (F(1), F(2)))
    constraints = [("lean", (v,)) for v in range(40)]
    constraints += [("neq", (v, v + 1)) for v in range(0, 40, 2)]
    inst = _instance(2, 40, {"lean": lean, "neq": resolve_builtin("neq")}, constraints)
    pins = [(v, v % 2) for v in range(40 - free)]
    pinned = _with_pin_constraints(inst, pins)
    expected, route = evaluate(pinned)  # the product-type route, no enumeration
    assert route == "product-type" and expected > 0
    assert conditioned_z(inst, pins, budget=2**free) == expected
    with pytest.raises(Refusal):
        conditioned_z(inst, pins, budget=2**free - 1)
    with pytest.raises(Refusal):
        brute_force_z(pinned, budget=2**free)


# ---------------------------------------------------------------------------
# JSON contract


CANONICAL = (
    '{"q":2,"n":3,"functions":{"xor3":{"arity":3,'
    '"table":["0","1","1","0","1","0","0","1"]}},'
    '"constraints":[{"f":"xor3","scope":[0,1,2]}]}'
)


def test_serialization_is_byte_exact():
    inst = _instance(2, 3, {"xor3": resolve_builtin("xor3")}, [("xor3", (0, 1, 2))])
    assert instance_to_json(inst) == CANONICAL


def test_parse_round_trip_is_identity():
    inst = parse_instance(CANONICAL)
    assert inst.domain_size == 2 and inst.num_variables == 3
    assert instance_to_json(inst) == CANONICAL


@given(st.integers(2, 4), st.integers(0, 3))
def test_round_trip_random_instances(q, n):
    functions = {"u": WeightFunction(1, q, tuple(F(i + 1, 2) for i in range(q)))}
    constraints = [("u", (v,)) for v in range(n)]
    inst = _instance(q, n, functions, constraints)
    again = instance_from_obj(json.loads(instance_to_json(inst)))
    assert instance_to_obj(again) == instance_to_obj(inst)


def test_constraints_may_use_builtin_names_without_a_catalog_entry():
    inst = parse_instance(
        '{"q":2,"n":2,"functions":{},'
        '"constraints":[{"f":"neq","scope":[0,1]},{"f":"unary:3","scope":[1]}]}'
    )
    assert brute_force_z(inst) == 4  # 0->1 weighs 3, 1->0 weighs 1


@given(st.sampled_from(PROFILES), st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 12))
def test_json_round_trip_of_generated_instances(profile, seed, n, m):
    inst = random_instance(profile, seed, n, m)
    again = instance_from_obj(json.loads(instance_to_json(inst)))
    assert again == inst
    assert again.scopes == inst.scopes


def test_constraints_naming_builtins_load_them_into_the_catalog():
    names = ["eq", "neq", "xor3", "delta0", "unary:1/2"]
    scopes = [[0, 1], [1, 2], [0, 1, 2], [2], [1]]
    text = json.dumps(
        {
            "q": 2,
            "n": 3,
            "functions": {},
            "constraints": [{"f": f, "scope": s} for f, s in zip(names, scopes)],
        }
    )
    inst = parse_instance(text)
    assert inst.functions == {name: resolve_builtin(name) for name in names}
    assert inst.constraints == tuple(Constraint(f, tuple(s)) for f, s in zip(names, scopes))


@pytest.mark.parametrize(
    "constraints, message",
    [
        # a non-integer variable is reported after a later constraint's
        # unknown function or JSON-shape fault, and after its own arity fault
        (
            '[{"f":"eq","scope":[0,1.5]},{"f":"g","scope":[1]}]',
            "constraints[1].f: unknown function 'g'",
        ),
        ('[{"f":"eq","scope":[null,1]},{"f":"eq"}]', "constraints[1]: missing 'f' or 'scope'"),
        ('[{"f":"eq","scope":[0,1.5,1]}]', "constraints[0]: scope length 3 != arity 2 of 'eq'"),
    ],
)
def test_the_first_fault_reported_is_shape_then_arity_then_variables(constraints, message):
    with pytest.raises(InputError) as caught:
        parse_instance('{"q":2,"n":2,"functions":{},"constraints":%s}' % constraints)
    assert str(caught.value) == message


def test_an_instance_built_in_code_reports_its_constraint_walk_before_arity_and_variables():
    # the walk over the Constraint objects (object, name, scope tuple) runs
    # before the bulk arity and variable check, as the loader's shape loop
    # does; the tuple of constraints is checked after the whole catalog
    neq = resolve_builtin("neq")
    with pytest.raises(InputError) as caught:
        Instance(2, 2, {"neq": neq}, (Constraint("neq", (0,)), Constraint("missing", (0, 1))))
    assert str(caught.value) == "constraints[1]: unknown function 'missing'"
    with pytest.raises(InputError) as caught:
        Instance(2, 2, {"neq": neq}, (Constraint("neq", (0, 5)), Constraint("neq", [0, 1])))
    assert str(caught.value) == (
        "constraints[1]: expected a Constraint of a name and a scope tuple, "
        "got Constraint(function='neq', scope=[0, 1])"
    )
    with pytest.raises(InputError) as caught:
        Instance(2, 2, {"f": "x"}, None)
    assert str(caught.value) == "functions['f']: expected a WeightFunction, got 'x'"


def _relabelled_and_shuffled(instance, rng):
    label = list(range(instance.num_variables))
    rng.shuffle(label)
    constraints = [
        Constraint(c.function, tuple(label[v] for v in c.scope)) for c in instance.constraints
    ]
    rng.shuffle(constraints)
    return Instance(
        instance.num_variables, instance.domain_size, instance.functions, tuple(constraints)
    )


@given(st.sampled_from(PROFILES), st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 12))
def test_a_loaded_instance_equals_the_one_built_in_code(profile, seed, n, m):
    inst = _relabelled_and_shuffled(random_instance(profile, seed, n, m), random.Random(seed))
    text = instance_to_json(inst)
    loaded = parse_instance(text)
    assert loaded == inst
    assert loaded.constraints == inst.constraints
    assert loaded.scopes == inst.scopes
    assert list(loaded.scopes) == list(inst.scopes)
    assert instance_to_json(loaded) == text


def test_loading_builds_no_constraint_until_one_is_read(monkeypatch):
    built = []
    real = Constraint.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    text = instance_to_json(product_type_chain(50))
    expected = product_type_chain(50).constraints
    monkeypatch.setattr(Constraint, "__init__", counting)
    inst = parse_instance(text)
    assert built == []
    assert inst.scopes == {
        "tie": [(v, v + 1) for v in range(49)],
        "lean": [(v,) for v in range(0, 50, 3)],
    }
    assert inst.constraints == expected
    assert len(built) == len(expected)
    assert inst.constraints is inst.constraints  # built once, then cached
    assert len(built) == len(expected)


def test_an_instance_built_in_code_keeps_its_constraint_tuple():
    inst = parity_spread(10)
    again = Instance(10, 2, inst.functions, inst.constraints)
    assert again.constraints is inst.constraints
    assert again == inst and repr(again) == repr(inst)
    assert repr(Instance(1, 2, {}, ())) == (
        "Instance(num_variables=1, domain_size=2, functions={}, constraints=())"
    )
    with pytest.raises(AttributeError):
        again.constraints = ()
    with pytest.raises(AttributeError):
        again.scopes = {}


def test_an_instance_is_frozen_unhashable_and_equal_only_in_constraint_order():
    neq, eq = resolve_builtin("neq"), resolve_builtin("eq")
    catalog = {"neq": neq, "eq": eq}
    forward = (Constraint("neq", (0, 1)), Constraint("eq", (1, 2)))
    inst = Instance(3, 2, catalog, forward)
    with pytest.raises(TypeError, match="unhashable type: 'Instance'"):
        hash(inst)
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'scopes'"):
        del inst.scopes
    assert (inst == object()) is False
    assert inst == Instance(3, 2, {"neq": neq, "eq": eq}, forward)
    assert inst != Instance(3, 2, catalog, forward[::-1])


#: Ways to break one scope: a wrong length, or one variable replaced by a value
#: that is not an int in range (``None`` stands for the variable count)
BREAKS = ["longer", "shorter", True, False, 1.0, 0.5, "0", -1, None]


@settings(max_examples=200)
@given(
    st.sampled_from(PROFILES),
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.integers(1, 12),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 2), st.sampled_from(BREAKS)),
        min_size=1,
        max_size=3,
    ),
)
def test_the_loader_and_the_in_code_check_report_the_same_first_fault(profile, seed, n, m, breaks):
    inst = random_instance(profile, seed, n, m)
    scopes = [list(c.scope) for c in inst.constraints]
    for at, coordinate, kind in breaks:
        scope = scopes[at % len(scopes)]
        if kind == "longer" or kind == "shorter" and not scope:
            scope.append(0)
        elif kind == "shorter":
            scope.pop()
        elif scope:
            scope[coordinate % len(scope)] = inst.num_variables if kind is None else kind
    constraints = tuple(Constraint(c.function, tuple(s)) for c, s in zip(inst.constraints, scopes))
    obj = instance_to_obj(inst)
    for spec, scope in zip(obj["constraints"], scopes):
        spec["scope"] = scope
    faults = []
    for build in (
        lambda: Instance(inst.num_variables, inst.domain_size, inst.functions, constraints),
        lambda: parse_instance(json.dumps(obj)),
    ):
        try:
            build()
            faults.append(None)
        except InputError as exc:
            faults.append(str(exc))
    assert faults[0] == faults[1]
    broken = any(
        len(s) != inst.functions[c.function].arity
        or any(type(v) is not int or not 0 <= v < inst.num_variables for v in s)
        for c, s in zip(inst.constraints, scopes)
    )
    assert (faults[0] is not None) == broken


def test_parse_instance_diagnostics():
    with pytest.raises(InputError):
        parse_instance("{not json")
    with pytest.raises(InputError):
        parse_instance('{"q":2,"n":1,"functions":{}}')  # missing key
    with pytest.raises(InputError):
        parse_instance('{"q":2,"n":1,"functions":{},"constraints":[],"extra":1}')
    with pytest.raises(InputError):
        parse_instance(
            '{"q":2,"n":1,"functions":{"f":{"arity":1,"table":["1","-1"]}},'
            '"constraints":[]}'
        )
    with pytest.raises(InputError):
        parse_instance(
            '{"q":2,"n":2,"functions":{"f":{"arity":1,"table":["1","2"]}},'
            '"constraints":[{"f":"f","scope":[3]}]}'
        )
    with pytest.raises(InputError):
        parse_instance(
            '{"q":2,"n":1,"functions":{},"constraints":[{"f":"mystery","scope":[0]}]}'
        )


def test_input_error_messages_name_the_offending_field():
    with pytest.raises(InputError, match=r"functions\.f\.table\[1\]"):
        parse_instance(
            '{"q":2,"n":1,"functions":{"f":{"arity":1,"table":["1","x"]}},'
            '"constraints":[]}'
        )
    with pytest.raises(InputError, match=r"constraints\[0\]"):
        parse_instance(
            '{"q":2,"n":1,"functions":{},"constraints":[{"scope":[0]}]}'
        )


def test_parse_catalog():
    q, functions = parse_catalog(
        '{"q":2,"functions":{"f":{"arity":1,"table":["1","2"]}}}'
    )
    assert q == 2
    assert functions["f"].table == (F(1), F(2))
    with pytest.raises(InputError):
        parse_catalog('{"q":2}')
    # a full instance file also works as a catalog
    q, functions = parse_catalog(CANONICAL)
    assert q == 2 and set(functions) == {"xor3"}


MIXED_ENTRIES = [1, "1", " 1", "2/4", "1/2", 2, "2", 0, "0", "2/4", 1, " 1", "3/6"]


def _catalog_text(*tables):
    functions = ",".join(
        '"f%d":{"arity":%d,"table":%s}' % (i, len(t).bit_length() - 1, json.dumps(t))
        for i, t in enumerate(tables)
    )
    return '{"q":2,"functions":{%s}}' % functions


def test_repeated_entries_parse_to_the_entry_by_entry_values(monkeypatch):
    import wcsp.model as model

    calls = []
    real = model.parse_rational

    def counting(value, where="value"):
        calls.append(value)
        return real(value, where)

    monkeypatch.setattr(model, "parse_rational", counting)
    table = MIXED_ENTRIES + MIXED_ENTRIES[:3]  # 16 entries
    text = _catalog_text(table, table[::-1])
    for _ in range(2):  # nothing parsed by one call is kept for the next
        calls.clear()
        _, functions = parse_catalog(text)
        expected = tuple(real(v) for v in table)
        assert functions["f0"].table == expected
        assert functions["f1"].table == expected[::-1]
        assert all(type(x) is F for x in functions["f0"].table + functions["f1"].table)
        # one parse per distinct text or int, over both tables of the catalog
        assert sorted(calls, key=repr) == sorted(
            {(type(v), v): v for v in table}.values(), key=repr
        )


@pytest.mark.parametrize(
    "bad, kind",
    [
        (True, "expected a rational, got a boolean"),
        (False, "expected a rational, got a boolean"),
        (1.0, "expected an integer or 'num/den' string, got float"),
        (0.0, "expected an integer or 'num/den' string, got float"),
    ],
)
@pytest.mark.parametrize("index", [0, 3, 12])
def test_entries_equal_to_a_parsed_int_are_still_rejected(bad, kind, index):
    # True == 1, False == 0 and 1.0 == 1 as dict keys; each must still be
    # refused at its own index, whether or not 1 or 0 was parsed before it
    table = list(MIXED_ENTRIES) + [1, 1, 1]
    table[index] = bad
    with pytest.raises(InputError) as caught:
        parse_catalog(_catalog_text(table))
    assert str(caught.value) == f"functions.f0.table[{index}]: {kind}"


def test_a_bad_text_is_reported_at_its_first_occurrence():
    table = ["1", "x", "2", "x", "-1", "1", "x", "1", "1", "1", "1", "1", "1", "1", "1", "1"]
    with pytest.raises(InputError, match=r"^functions\.f0\.table\[1\]: not a rational: 'x'$"):
        parse_catalog(_catalog_text(table))
    table[1] = table[3] = table[6] = "3"
    with pytest.raises(InputError, match=r"^functions\.f0\.table\[4\]: negative weight '-1'"):
        parse_catalog(_catalog_text(table))


# ---------------------------------------------------------------------------
# builtin shorthand


def test_builtins():
    assert resolve_builtin("delta0").table == (F(1), F(0))
    assert resolve_builtin("delta1").table == (F(0), F(1))
    assert resolve_builtin("eq").table == (F(1), F(0), F(0), F(1))
    assert resolve_builtin("neq").table == (F(0), F(1), F(1), F(0))
    assert resolve_builtin("xor3").table == tuple(
        F(x) for x in (0, 1, 1, 0, 1, 0, 0, 1)
    )
    assert resolve_builtin("nxor3").table == tuple(
        F(x) for x in (1, 0, 0, 1, 0, 1, 1, 0)
    )
    assert resolve_builtin("unary:3/4").table == (F(1), F(3, 4))
    assert resolve_builtin("nope") is None
    with pytest.raises(InputError):
        resolve_builtin("unary:x")
    with pytest.raises(InputError):
        resolve_builtin("xor3", domain_size=3)
