"""Differential tests: the mass check of ``Factorization`` against the loop.

``Factorization`` evaluates each factor once over its scope's joint domain
and multiplies the broadcast arrays in factor order;
``helpers_scm.factorization_mass`` calls ``Factor.evaluate`` at every joint
assignment.  The masses must agree bit for bit, and a factorization whose
factors fail in one way only must fail with the loop's error.
"""

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_scm import factorization_mass  # noqa: E402
from test_expressions import _exprs  # noqa: E402

from cdl_compass.expressions import EvaluationError, free_variables
from cdl_compass.scm import Factor, Factorization

NAMES = ("x", "y", "z")
VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.0])


def outcome(run):
    """The value, or the error's type and message."""
    try:
        return run()
    except Exception as exc:  # any error must be the same error on both sides
        return type(exc).__name__, str(exc)


def fault_kinds(factors: list[Factor]) -> set:
    """Each factor's distinct ways of failing over the joint domain: its
    evaluation error's message, or one kind for every negative value."""
    domains = {}
    for f in factors:
        domains.update(f.domains)
    names = sorted(domains)
    kinds = set()
    for values in itertools.product(*(domains[v] for v in names)):
        assignment = dict(zip(names, values))
        for i, f in enumerate(factors):
            try:
                f.evaluate(assignment)
            except EvaluationError as exc:
                kinds.add((i, str(exc)))
            except ValueError:
                kinds.add((i, "negative"))
    return kinds


def check(factors: list[Factor]) -> None:
    want = outcome(lambda: factorization_mass(factors))
    if isinstance(want, tuple):
        got = outcome(lambda: Factorization(factors))
        assert isinstance(got, tuple)
        if len(fault_kinds(factors)) == 1:
            assert got == want
        else:  # several faults: the first one found may differ
            assert got[0] in ("ValueError", "EvaluationError")
        return
    for z in (1.0, want):
        if not (0.0 < z < float("inf")):
            continue
        got = outcome(lambda: Factorization(factors, z))
        if not abs(want / z - 1.0) <= 1e-9:  # a NaN mass normalizes nothing
            message = f"factorization does not normalize: mass {want!r} vs z {z!r}"
            assert got == ("ValueError", message)
        else:
            assert isinstance(got, Factorization)


@st.composite
def factorizations(draw):
    domains = {
        name: tuple(draw(st.lists(VALUES, min_size=1, max_size=4))) for name in NAMES
    }
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        extra = draw(st.sets(st.sampled_from(NAMES), max_size=2))
        if draw(st.booleans()):
            scope = sorted(extra or {"x"})
            table = {
                key: draw(st.sampled_from([0.0, 0.125, 0.5, 1.0, 2.5, 1e200]))
                for key in itertools.product(*(domains[v] for v in scope))
            }
            factors.append(Factor.from_table(scope, domains, table))
        else:
            expr = draw(_exprs(2))
            scope = sorted(free_variables(expr) | extra or {"x"})
            factors.append(Factor.from_expression(scope, expr, domains))
    return factors


@settings(max_examples=400, deadline=None)
@given(factorizations())
def test_generated_factorizations_match_loop(factors):
    check(factors)


def exp_factors(size: int) -> list[Factor]:
    domain = [float(i) for i in range(size)]
    return [Factor.from_expression([v], f"exp(0 - {v} / 4)", {v: domain}) for v in NAMES]


def coin(scope, domains, values) -> Factor:
    keys = itertools.product(*(domains[v] for v in scope))
    return Factor.from_table(scope, domains, dict(zip(keys, values)))


DOMAINS = {"x": (0.0, 1.0), "y": (0.0, 1.0, 2.0), "z": (-1.0, 1.0)}

CASES = {
    "three exp factors on 12 values": exp_factors(12),
    "normalizing tables": [
        coin(["x"], DOMAINS, [0.25, 0.75]),
        coin(["y", "x"], DOMAINS, [0.5, 0.5, 0.25, 0.25, 0.25, 0.5]),
    ],
    "non-normalizing tables": [coin(["x", "z"], DOMAINS, [0.1, 0.2, 0.3, 0.7])],
    "mixed, out of name order": [
        Factor.from_expression(["z", "y"], "exp(z) * (y + 1) / 3", DOMAINS),
        coin(["x"], DOMAINS, [0.5, 0.5]),
    ],
    "expression ignoring its scope": [Factor.from_expression(["x", "y"], "1 / 6", DOMAINS)],
    # (0.1 * 0.2) * 0.3 rounds otherwise than (0.3 * 0.2) * 0.1, the product
    # in name order
    "product in factor order": [
        Factor.from_table([v], {v: (0.0,)}, {(0.0,): value})
        for v, value in (("z", 0.1), ("y", 0.2), ("x", 0.3))
    ],
    "negative values": [
        coin(["x"], DOMAINS, [0.5, 0.5]),
        Factor.from_expression(["y", "z"], "y - 1 - z", DOMAINS),
    ],
    "division by zero": [Factor.from_expression(["x", "y"], "1 / (y - x)", DOMAINS)],
    "product overflows": [
        Factor.from_expression(["x"], "1e200 + x", DOMAINS),
        Factor.from_expression(["y"], "1e200 + y", DOMAINS),
    ],
    # 1e200 * 1e200 * 0.0 is inf * 0.0, NaN, though every exact product is 0
    "product is NaN": [
        coin(["x"], DOMAINS, [1e200, 0.0]),
        coin(["x"], DOMAINS, [1e200, 0.0]),
        coin(["x"], DOMAINS, [0.0, 1.0]),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_match_loop(name):
    check(CASES[name])

