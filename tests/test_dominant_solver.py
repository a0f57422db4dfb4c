"""`core.solve_dominant`, which resolves its substitution chain in one
backward pass, against the solver that swept the chain to a fixed point
(tests/oracles.py).  Both run the same search, so every answer, solution
order and `Unsolved` reason must agree exactly, also when the node budget or
the rational-root cap cuts the search short."""

import random

import pytest

from oracles import solve_dominant_by_fixed_point
from painleve import algebra, core
from painleve.algebra import MultiPoly
from painleve.core import (
    Unsolved,
    dominant_equations,
    enumerate_fuchsian_exponents,
    solve_dominant,
)
from painleve.model import ODESystem
from test_exponent_search import DATA_SYSTEMS


def _kind(solved) -> str:
    if isinstance(solved, Unsolved):
        return solved.reason
    return "solutions" if solved else "none"


def _compare_on(sys: ODESystem, exponents) -> set[str]:
    kinds = set()
    for k in exponents:
        solved = solve_dominant(dominant_equations(sys, k))
        assert solved == solve_dominant_by_fixed_point(sys, k), k
        kinds.add(_kind(solved))
    return kinds


@pytest.mark.parametrize("name", sorted(DATA_SYSTEMS))
def test_matches_fixed_point_on_data(name):
    sys = DATA_SYSTEMS[name]
    _compare_on(sys, enumerate_fuchsian_exponents(sys, 10))


def _monomials_at(rng: random.Random, k: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Some u-exponent vectors m with k . m == degree."""
    found = set()
    for _ in range(40):
        m = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in k)
        if sum(a * b for a, b in zip(k, m)) == degree:
            found.add(m)
    return sorted(found)


def _random_balanced_system(rng: random.Random) -> tuple[ODESystem, tuple[int, ...]]:
    """A system with n = 1..3 built around exponents k: each right side has
    terms at weighted degree k_i + 1, some carrying a parameter or t, plus
    lower-degree terms; some right sides have no dominant term at all."""
    n = rng.randint(1, 3)
    k = tuple(rng.choice([0, 1, 1, 2, 2, 3]) for _ in range(n))
    if not any(k):
        k = (1,) + k[1:]
    us = tuple(f"u{i + 1}" for i in range(n))
    params = ("a", "b")[: rng.randint(0, 2)]
    symbols = us + ("t",) + params
    rhs = []
    for ki in k:
        terms: dict[tuple[int, ...], int] = {}
        dominant = _monomials_at(rng, k, ki + 1)
        rng.shuffle(dominant)
        for m in dominant[: rng.choice([0, 1, 2, 2, 3, 3])]:
            extra = [0] * (1 + len(params))
            roll = rng.random()
            if roll < 0.1:
                extra[0] = 1  # t stays in the slice: time-dependent equations
            elif roll < 0.3 and params:
                extra[rng.randint(1, len(params))] = 1
            terms[m + tuple(extra)] = rng.choice([-3, -2, -1, 1, 1, 2, 4])
        for _ in range(rng.randint(0, 2)):
            m = tuple(rng.choice([0, 1]) for _ in us)
            if sum(a * b for a, b in zip(k, m)) < ki + 1:
                terms[m + (rng.choice([0, 1]),) + (0,) * len(params)] = rng.choice([-1, 1, 3])
        rhs.append(MultiPoly(symbols, terms))
    return ODESystem(us, tuple(rhs), param_symbols=params), k


def test_matches_fixed_point_on_random_systems():
    rng = random.Random(2013)
    kinds = set()
    for _ in range(1000):
        sys, k = _random_balanced_system(rng)
        others = [e for e in enumerate_fuchsian_exponents(sys, 3) if e != k]
        kinds |= _compare_on(sys, [k] + rng.sample(others, min(2, len(others))))
    # about 2,500 vectors; capped root searches and exhausted budgets have
    # their own tests below
    stalls = {"elimination stalled", "time-dependent dominant equations"}
    assert kinds == {"solutions", "none"} | stalls


@pytest.mark.parametrize("budget", [1, 3, 5])
def test_matches_fixed_point_under_a_node_budget(monkeypatch, budget):
    sys = DATA_SYSTEMS["henon_heiles.ham"]
    monkeypatch.setattr(core, "SEARCH_BUDGET", budget)
    kinds = _compare_on(sys, enumerate_fuchsian_exponents(sys, 10))
    assert "search budget exhausted" in kinds


def test_matches_fixed_point_under_a_root_search_cap(monkeypatch):
    monkeypatch.setattr(algebra, "ROOT_SEARCH_CAP", 5)
    kinds = set()
    for sys in DATA_SYSTEMS.values():
        kinds |= _compare_on(sys, enumerate_fuchsian_exponents(sys, 10))
    assert "rational-root search capped" in kinds
