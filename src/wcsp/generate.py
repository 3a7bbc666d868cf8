"""Seed-deterministic random instances for tests and the CLI.

Profiles:

* ``product-type`` -- catalogs built from unary weights, pins, and
  equality/disequality ties, so every function decomposes over its
  coordinates by construction;
* ``pure-affine``  -- constant weights on random GF(2) cosets;
* ``mixed``        -- unconstrained random tables (usually a hard family);
* ``graph-hom``    -- two-spin instances of random connected graphs.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import product

from .errors import InputError, Refusal
from .gf2 import xor_basis
from .model import Constraint, Instance, WeightFunction
from .models import Graph, hom_instance, ising_matrix
from .tractable import DEFAULT_TABLE_BUDGET

PROFILES = ("product-type", "pure-affine", "mixed", "graph-hom")

#: Most constraints (or graph edges) one random instance may ask for; each is
#: drawn and held in memory.
MAX_CONSTRAINTS = 2**20

_POSITIVE_POOL = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(5),
    Fraction(2, 3),
)
_VALUE_POOL = (Fraction(0),) + _POSITIVE_POOL
_EDGE_WEIGHT_POOL = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
)


def random_product_type_function(rng: random.Random, arity: int) -> WeightFunction:
    """A table that factors into unary weights, pins, and coordinate ties."""
    unaries = []
    for _ in range(arity):
        kind = rng.randrange(4)
        if kind == 0:  # pin to 0 or 1
            side = rng.randrange(2)
            unaries.append((Fraction(1 - side), Fraction(side)))
        elif kind == 1:  # trivial
            unaries.append((Fraction(1), Fraction(1)))
        else:
            unaries.append(
                (rng.choice(_POSITIVE_POOL), rng.choice(_POSITIVE_POOL))
            )
    ties = []
    for _ in range(rng.randrange(arity)) if arity >= 2 else ():
        i, j = rng.sample(range(arity), 2)
        ties.append((i, j, rng.randrange(2)))  # 1 = must differ
    scale = rng.choice(_POSITIVE_POOL)
    table = []
    for point in product(range(2), repeat=arity):
        value = scale
        for i, x in enumerate(point):
            value *= unaries[i][x]
        for i, j, differ in ties:
            if (point[i] != point[j]) != bool(differ):
                value = Fraction(0)
                break
        table.append(value)
    return WeightFunction(arity, 2, tuple(table))


def random_pure_affine_function(rng: random.Random, arity: int) -> WeightFunction:
    """A constant positive weight carried on a random GF(2) coset."""
    basis = xor_basis(rng.randrange(1 << arity) for _ in range(rng.randint(0, arity)))
    origin = rng.randrange(1 << arity)
    members = {origin}
    for b in basis.values():
        members |= {m ^ b for m in members}
    weight = rng.choice(_POSITIVE_POOL)
    table = [weight if i in members else Fraction(0) for i in range(1 << arity)]
    return WeightFunction(arity, 2, tuple(table))


def random_table_function(rng: random.Random, arity: int) -> WeightFunction:
    table = [rng.choice(_VALUE_POOL) for _ in range(1 << arity)]
    if not any(table):  # keep the instance value non-trivially zero-free-ish
        table[rng.randrange(len(table))] = rng.choice(_POSITIVE_POOL)
    return WeightFunction(arity, 2, tuple(table))


def random_connected_graph(
    rng: random.Random, num_vertices: int, num_edges: int | None = None
) -> Graph:
    """A uniform-ish random connected simple graph on the given vertices.

    Extra edges beyond a random spanning tree are drawn from a list of every
    vertex pair, so with ``num_edges`` given it refuses, before any draw,
    when that list would exceed ``DEFAULT_TABLE_BUDGET`` entries.
    """
    if num_vertices < 1:
        raise InputError(f"need at least one vertex, got {num_vertices}")
    pairs = num_vertices * (num_vertices - 1) // 2
    if num_edges is not None and pairs > DEFAULT_TABLE_BUDGET:
        raise Refusal(
            f"a graph on {num_vertices} vertices has {pairs} vertex pairs, "
            f"beyond the table budget {DEFAULT_TABLE_BUDGET}"
        )
    edges = {
        tuple(sorted((v, rng.randrange(v)))) for v in range(1, num_vertices)
    }
    if num_edges is not None:
        if num_edges < len(edges):
            num_edges = len(edges)
        candidates = [
            (u, v)
            for u in range(num_vertices)
            for v in range(u + 1, num_vertices)
            if (u, v) not in edges
        ]
        rng.shuffle(candidates)
        edges.update(candidates[: num_edges - len(edges)])
    return Graph(num_vertices, tuple(sorted(edges)))


def random_instance(
    profile: str,
    seed: int,
    num_variables: int = 6,
    num_constraints: int = 8,
) -> Instance:
    """A reproducible random instance of the requested profile.

    Refuses, before any draw, more than ``MAX_CONSTRAINTS`` constraints or
    more than ``sys.maxsize`` variables.
    """
    if profile not in PROFILES:
        raise InputError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if num_variables < 1:
        raise InputError(f"need at least one variable, got {num_variables}")
    if num_variables > sys.maxsize:  # the most ``random.sample`` can index
        raise Refusal(
            f"{num_variables} variables requested, beyond the limit of {sys.maxsize}"
        )
    if num_constraints < 0:
        raise InputError(f"constraint count must be non-negative, got {num_constraints}")
    if num_constraints > MAX_CONSTRAINTS:
        raise Refusal(
            f"{num_constraints} constraints requested, beyond the limit of {MAX_CONSTRAINTS}"
        )
    rng = random.Random(seed)

    if profile == "graph-hom":
        graph = random_connected_graph(
            rng, max(num_variables, 2), max(num_constraints, num_variables - 1)
        )
        return hom_instance(graph, ising_matrix(rng.choice(_EDGE_WEIGHT_POOL)))

    makers = {
        "product-type": random_product_type_function,
        "pure-affine": random_pure_affine_function,
        "mixed": None,
    }
    functions: dict[str, WeightFunction] = {}
    for index in range(rng.randint(2, 4)):
        arity = rng.randint(1, min(3, num_variables))
        if profile == "mixed":
            maker = rng.choice(
                [
                    random_product_type_function,
                    random_pure_affine_function,
                    random_table_function,
                ]
            )
        else:
            maker = makers[profile]
        functions[f"f{index}"] = maker(rng, arity)
    names = sorted(functions)
    constraints = []
    for _ in range(num_constraints):
        name = rng.choice(names)
        arity = functions[name].arity
        scope = tuple(rng.sample(range(num_variables), arity))
        constraints.append(Constraint(name, scope))
    return Instance(num_variables, 2, functions, tuple(constraints))


def product_type_chain(length: int) -> Instance:
    """A long chain of ties and unary weights; classifier-tractable at any size."""
    if length < 2:
        raise InputError(f"chain needs at least two variables, got {length}")
    functions = {
        "tie": WeightFunction(
            2, 2, (Fraction(2), Fraction(0), Fraction(0), Fraction(3))
        ),
        "lean": WeightFunction(1, 2, (Fraction(1), Fraction(2))),
    }
    constraints = [Constraint("tie", (v, v + 1)) for v in range(length - 1)]
    constraints += [Constraint("lean", (v,)) for v in range(0, length, 3)]
    return Instance(length, 2, functions, tuple(constraints))


def parity_spread(length: int) -> Instance:
    """A pure-affine instance tying triples along a long path."""
    if length < 3:
        raise InputError(f"need at least three variables, got {length}")
    functions = {
        "xor3w": WeightFunction(
            3,
            2,
            tuple(
                Fraction(2) if bin(i).count("1") % 2 else Fraction(0)
                for i in range(8)
            ),
        )
    }
    constraints = [
        Constraint("xor3w", (v, v + 1, v + 2)) for v in range(length - 2)
    ]
    return Instance(length, 2, functions, tuple(constraints))
