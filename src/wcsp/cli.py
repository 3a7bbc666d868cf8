"""Command-line front end.

Machine-readable JSON goes to stdout, human diagnostics to stderr.  Exit
codes: 0 success, 2 input error, 3 refusal, 4 verification failure.  The
budget comes from ``--budget`` or the ``WCSP_BUDGET`` environment variable.
It bounds the largest table of bucket elimination on the hard route
(default 2**24 entries, since the table is held in memory), and the states
the enumeration oracle may visit (default 2**30, visited in constant memory).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from fractions import Fraction

from .classify import ProductWitness, classify_family, is_product_like
from .errors import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_REFUSAL,
    EXIT_VERIFICATION_FAILURE,
    InputError,
    Refusal,
    VerificationFailure,
)
from .generate import PROFILES, random_instance
from .library import delta
from .model import (
    Constraint,
    Instance,
    brute_force_z,
    conditioned_z,
    decimal_rendering,
    format_rational,
    instance_to_json,
    instance_to_obj,
    load_catalog,
    load_instance,
    parse_rational,
)
from .models import (
    bulatov_grohe_classify,
    cut_identity_sides,
    eval_graph_hom,
    incidence_code,
    ising_matrix,
    load_generator,
    load_graph,
    load_target_matrix,
    weight_enumerator,
)
from .reductions import (
    interpolation_polynomial,
    mobius_pinning_reduce,
    parity_chain,
    pinning_reduce_boolean,
    polynomial_value,
    simulate_projection,
)
from .tractable import evaluate
from .verify import SUITES, run_suite


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _diag(message: str) -> None:
    print(f"wcsp: {message}", file=sys.stderr)


def _budget(args: argparse.Namespace) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    raw = os.environ.get("WCSP_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"WCSP_BUDGET must be an integer, got {raw!r}") from None


def _value_fields(value: Fraction) -> dict:
    return {"value": format_rational(value), "decimal": decimal_rendering(value)}


def _witness_obj(witness: ProductWitness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "arity": witness.arity,
        "scale": format_rational(witness.scale),
        "constant_columns": [list(pair) for pair in witness.constant_columns],
        "classes": [
            {
                "members": [[col, bool(flip)] for col, flip in cls.members],
                "weights": [format_rational(w) for w in cls.weights],
            }
            for cls in witness.classes
        ],
    }


def _maybe_write(args: argparse.Namespace, instance: Instance) -> None:
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(instance_to_json(instance))
            handle.write("\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_classify(args: argparse.Namespace) -> int:
    _, functions = load_catalog(args.path)
    verdict = classify_family(functions)
    _emit(
        {
            "command": "classify",
            "path": args.path,
            "family": verdict.family.name,
            "hard_pair": list(verdict.hard_pair) if verdict.hard_pair else None,
            "functions": {
                name: {
                    "product_type": report.product_type,
                    "pure_affine": report.pure_affine,
                    "affine_support": report.affine_support,
                    "product_like": is_product_like(functions[name])[0],
                    "witness": _witness_obj(report.witness),
                }
                for name, report in verdict.per_function.items()
            },
        }
    )
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    instance = load_instance(args.path)
    started = time.perf_counter()
    value, route = evaluate(
        instance, budget=_budget(args), force_oracle=args.force_oracle
    )
    elapsed = time.perf_counter() - started
    _emit(
        {
            "command": "eval",
            "path": args.path,
            "evaluator": route,
            **_value_fields(value),
            "seconds": round(elapsed, 6),
        }
    )
    return EXIT_OK


def _verified(args: argparse.Namespace, what: str, result, oracle) -> bool | None:
    """The report's ``verified`` field; under ``--verify``, check first.

    ``result`` and ``oracle`` are zero-argument callables, run only under
    ``--verify``; a mismatch raises ``VerificationFailure`` (exit 4).
    """
    if not args.verify:
        return None
    got, expected = result(), oracle()
    if got != expected:
        raise VerificationFailure(f"{what} differs from the oracle: {got} vs {expected}")
    _diag(f"verified: {what} matches the enumeration oracle")
    return True


def _dispatcher(budget: int | None):
    def evaluator(instance: Instance) -> Fraction:
        value, _ = evaluate(instance, budget=budget)
        return value

    return evaluator


def _cmd_reduce_project(args: argparse.Namespace) -> int:
    instance = load_instance(args.path)
    _, functions = load_catalog(args.preimage)
    if args.preimage_function is not None:
        if args.preimage_function not in functions:
            raise InputError(
                f"{args.preimage!r} does not define {args.preimage_function!r}"
            )
        preimage = functions[args.preimage_function]
    elif len(functions) == 1:
        (preimage,) = functions.values()
    else:
        raise InputError(
            "the preimage file defines several functions; pick one with "
            "--preimage-function"
        )
    try:
        coordinates = tuple(int(c) for c in args.coordinates.split(","))
    except ValueError:
        raise InputError(
            f"--coordinates must be a comma-separated integer list, got "
            f"{args.coordinates!r}"
        ) from None
    transformed = simulate_projection(instance, args.function, preimage, coordinates)
    budget = _budget(args)
    verified = _verified(
        args,
        "projection simulation",
        lambda: brute_force_z(transformed, budget),
        lambda: brute_force_z(instance, budget),
    )
    _maybe_write(args, transformed)
    _emit(
        {
            "command": "reduce project",
            "verified": verified,
            "instance": instance_to_obj(transformed),
        }
    )
    return EXIT_OK


def _cmd_reduce_pin(args: argparse.Namespace) -> int:
    instance = load_instance(args.path)
    if instance.domain_size != 2:
        raise Refusal("reduce pin expects a Boolean instance")
    if not 0 <= args.variable < instance.num_variables:
        raise InputError(
            f"variable {args.variable} outside range 0..{instance.num_variables - 1}"
        )
    if args.value not in (0, 1):
        raise InputError(f"--value must be 0 or 1, got {args.value}")
    pin_fn = delta(args.value)
    name = f"delta{args.value}"
    functions = dict(instance.functions)
    while name in functions and functions[name] != pin_fn:
        name += "_"
    functions[name] = pin_fn
    pinned = Instance(
        instance.num_variables,
        2,
        functions,
        instance.constraints + (Constraint(name, (args.variable,)),),
    )
    budget = _budget(args)
    verified = _verified(
        args,
        "pinned value",
        lambda: brute_force_z(pinned, budget),
        lambda: conditioned_z(instance, [(args.variable, args.value)], budget),
    )
    _maybe_write(args, pinned)
    _emit(
        {
            "command": "reduce pin",
            "verified": verified,
            "instance": instance_to_obj(pinned),
        }
    )
    return EXIT_OK


def _cmd_reduce_pin_vars(args: argparse.Namespace) -> int:
    instance = load_instance(args.path)
    budget = _budget(args)
    value = pinning_reduce_boolean(instance, _dispatcher(budget))
    verified = _verified(
        args, "pin elimination", lambda: value, lambda: brute_force_z(instance, budget)
    )
    _emit({"command": "reduce pin-vars", "verified": verified, **_value_fields(value)})
    return EXIT_OK


def _cmd_reduce_interpolate(args: argparse.Namespace) -> int:
    instance = load_instance(args.path)
    budget = _budget(args)
    point = parse_rational(args.point, "--point")
    coefficients = interpolation_polynomial(
        instance, args.unary, point, _dispatcher(budget)
    )
    value = polynomial_value(coefficients, instance.functions[args.unary].table[1])
    verified = _verified(
        args, "interpolation", lambda: value, lambda: brute_force_z(instance, budget)
    )
    _emit(
        {
            "command": "reduce interpolate",
            "unary": args.unary,
            "point": format_rational(point),
            "coefficients": [format_rational(c) for c in coefficients],
            "verified": verified,
            **_value_fields(value),
        }
    )
    return EXIT_OK


def _cmd_reduce_parity_chain(args: argparse.Namespace) -> int:
    instance = parity_chain(args.width)
    budget = _budget(args)
    value, route = evaluate(instance, budget=budget)
    verified = _verified(
        args, "parity chain value", lambda: value, lambda: brute_force_z(instance, budget)
    )
    _maybe_write(args, instance)
    _emit(
        {
            "command": "reduce parity-chain",
            "width": args.width,
            "evaluator": route,
            "verified": verified,
            **_value_fields(value),
            "instance": instance_to_obj(instance),
        }
    )
    return EXIT_OK


def _cmd_reduce_mobius_pin(args: argparse.Namespace) -> int:
    instance = load_instance(args.path)
    budget = _budget(args)
    value = mobius_pinning_reduce(instance, _dispatcher(budget))
    verified = _verified(
        args, "lattice inversion", lambda: value, lambda: brute_force_z(instance, budget)
    )
    _emit({"command": "reduce mobius-pin", "verified": verified, **_value_fields(value)})
    return EXIT_OK


def _cmd_model_ising(args: argparse.Namespace) -> int:
    weight = parse_rational(args.lam, "--lambda")
    matrix = ising_matrix(weight)
    report = {
        "command": "model ising",
        "lambda": format_rational(weight),
        "matrix": [[format_rational(v) for v in row] for row in matrix.entries],
        "classification": bulatov_grohe_classify(matrix).value,
    }
    if args.graph:
        graph = load_graph(args.graph)
        value = eval_graph_hom(graph, matrix, budget=_budget(args))
        report.update(_value_fields(value))
    _emit(report)
    return EXIT_OK


def _cmd_model_evalh(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    matrix = load_target_matrix(args.matrix)
    started = time.perf_counter()
    value = eval_graph_hom(graph, matrix, budget=_budget(args))
    elapsed = time.perf_counter() - started
    _emit(
        {
            "command": "model evalh",
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "classification": bulatov_grohe_classify(matrix).value,
            **_value_fields(value),
            "seconds": round(elapsed, 6),
        }
    )
    return EXIT_OK


def _cmd_model_wenum(args: argparse.Namespace) -> int:
    weight = parse_rational(args.lam, "--lambda")
    if args.generator:
        generator = load_generator(args.generator)
    else:
        generator = incidence_code(load_graph(args.graph), budget=_budget(args))
    value = weight_enumerator(generator, weight, budget=_budget(args))
    _emit(
        {
            "command": "model wenum",
            "length": generator.length,
            "dimension": generator.dimension,
            "lambda": format_rational(weight),
            **_value_fields(value),
        }
    )
    return EXIT_OK


def _cmd_model_cut_check(args: argparse.Namespace) -> int:
    weight = parse_rational(args.lam, "--lambda")
    graph = load_graph(args.graph)
    enumerator, spin_value = cut_identity_sides(
        graph, weight, budget=_budget(args)
    )
    if 2 * enumerator != spin_value:
        raise VerificationFailure(
            f"cut identity failed: enumerator {enumerator} vs spin value {spin_value}"
        )
    _emit(
        {
            "command": "model cut-check",
            "lambda": format_rational(weight),
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "enumerator": format_rational(enumerator),
            "spin_value": format_rational(spin_value),
            "verified": True,
        }
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = run_suite(args.suite, seed=args.seed)
    failed = [c for c in checks if not c.passed]
    _emit(
        {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "passed": len(checks) - len(failed),
            "failed": len(failed),
            "checks": [
                {
                    "suite": c.suite,
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in checks
            ],
        }
    )
    if failed:
        for c in failed:
            _diag(f"FAILED {c.suite}/{c.name}: {c.detail}")
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = random_instance(
        args.profile, args.seed, args.variables, args.constraints
    )
    _maybe_write(args, instance)
    sys.stdout.write(instance_to_json(instance))
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _IntValue(argparse.Action):
    """Store an ``int`` option, refusing ``--option=--`` with the usage error.

    Python 3.11's argparse reads that spelling as an empty list and skips
    the option's ``type``, so without this a handler would get a list.
    """

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        if not isinstance(values, int):
            raise argparse.ArgumentError(self, "invalid int value: '--'")
        setattr(namespace, self.dest, values)


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        action=_IntValue,
        default=None,
        help=(
            "largest elimination table (default 2**24 entries, held in memory), "
            "or most states the oracle may enumerate (default 2**30)"
        ),
    )


def _add_verify_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify",
        action="store_true",
        help="replay both sides on the enumeration oracle",
    )


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output", metavar="FILE", help="also write the resulting instance JSON here"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcsp",
        description="Exact classification and evaluation of weighted Boolean "
        "counting CSP instances.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", help="classify a function catalog")
    p.add_argument("path", help="catalog or instance JSON file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate an instance exactly")
    p.add_argument("path", help="instance JSON file")
    p.add_argument(
        "--force-oracle",
        action="store_true",
        help="skip classification and enumerate",
    )
    _add_budget(p)
    p.set_defaults(handler=_cmd_eval)

    reduce_parser = sub.add_parser("reduce", help="value-preserving transformations")
    reduce_sub = reduce_parser.add_subparsers(dest="reduction")

    p = reduce_sub.add_parser("project", help="replace a function by a lifted preimage")
    p.add_argument("path")
    p.add_argument("--function", required=True, help="name of the projected function")
    p.add_argument("--preimage", required=True, help="catalog file holding the preimage")
    p.add_argument("--preimage-function", help="name inside the preimage file")
    p.add_argument(
        "--coordinates",
        required=True,
        help="comma-separated increasing coordinates the projection kept",
    )
    _add_verify_flag(p)
    _add_budget(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_reduce_project)

    p = reduce_sub.add_parser("pin", help="pin one variable with a point-mass constraint")
    p.add_argument("path")
    p.add_argument("--variable", type=int, action=_IntValue, required=True)
    p.add_argument("--value", type=int, action=_IntValue, required=True)
    _add_verify_flag(p)
    _add_budget(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_reduce_pin)

    p = reduce_sub.add_parser(
        "pin-vars", help="eliminate all Boolean pins via representative variables"
    )
    p.add_argument("path")
    _add_verify_flag(p)
    _add_budget(p)
    p.set_defaults(handler=_cmd_reduce_pin_vars)

    p = reduce_sub.add_parser(
        "interpolate", help="recover one unary weight by interpolation"
    )
    p.add_argument("path")
    p.add_argument("--unary", required=True, help="name of the (1, c) unary")
    p.add_argument(
        "--point", required=True, help="probe weight (rational, not 0 or 1)"
    )
    _add_verify_flag(p)
    _add_budget(p)
    p.set_defaults(handler=_cmd_reduce_interpolate)

    p = reduce_sub.add_parser("parity-chain", help="emit the parity-of-k gadget")
    p.add_argument(
        "--width", type=int, action=_IntValue, required=True, help="number of primary inputs"
    )
    _add_verify_flag(p)
    _add_budget(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_reduce_parity_chain)

    p = reduce_sub.add_parser(
        "mobius-pin", help="remove a full-disequality constraint by lattice inversion"
    )
    p.add_argument("path")
    _add_verify_flag(p)
    _add_budget(p)
    p.set_defaults(handler=_cmd_reduce_mobius_pin)

    model_parser = sub.add_parser("model", help="graph and code models")
    model_sub = model_parser.add_subparsers(dest="model_command")

    p = model_sub.add_parser("ising", help="two-spin target for an edge weight")
    p.add_argument("--lambda", dest="lam", required=True, help="edge weight (rational)")
    p.add_argument("--graph", help="optional graph file to evaluate against")
    _add_budget(p)
    p.set_defaults(handler=_cmd_model_ising)

    p = model_sub.add_parser("evalh", help="weighted homomorphism count")
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", required=True)
    _add_budget(p)
    p.set_defaults(handler=_cmd_model_evalh)

    p = model_sub.add_parser("wenum", help="weight enumerator of a binary code")
    p.add_argument("--lambda", dest="lam", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generator", help="0/1 generator matrix file")
    group.add_argument("--graph", help="connected graph whose cut space is used")
    _add_budget(p)
    p.set_defaults(handler=_cmd_model_wenum)

    p = model_sub.add_parser("cut-check", help="check the cut-counting identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    _add_budget(p)
    p.set_defaults(handler=_cmd_model_cut_check)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, action=_IntValue, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("gen", help="generate a reproducible random instance")
    p.add_argument("--profile", required=True, choices=PROFILES)
    p.add_argument("--seed", type=int, action=_IntValue, required=True)
    p.add_argument("--variables", type=int, action=_IntValue, default=6)
    p.add_argument("--constraints", type=int, action=_IntValue, default=8)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(handler=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`: built on its first call, not at import, and reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # No command builds reference cycles that grow with its input, so
    # reference counting frees what it drops; the cyclic collector would
    # only rescan the loaded instance.  Paused here, at the entry point that
    # owns the process, on every way out.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return handler(args)
    except (InputError, OSError) as exc:
        _diag(str(exc))
        return EXIT_INPUT_ERROR
    except Refusal as exc:
        _diag(f"refused: {exc}")
        return EXIT_REFUSAL
    except VerificationFailure as exc:
        _diag(f"verification failure: {exc}")
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
