"""The pruned exponent search against the product-loop reference, plus
metamorphic invariants that need no reference data."""

import random
from pathlib import Path

import pytest

from oracles import enumerate_fuchsian_by_product
from painleve import core
from painleve.algebra import MultiPoly
from painleve.core import enumerate_fuchsian_exponents, is_fuchsian
from painleve.model import (
    T_SYMBOL,
    HamiltonianSystem,
    ODESystem,
    ParseError,
    hamiltonian_to_system,
    parse_input,
)

DATA = Path(__file__).parent / "data"


def _load(path: Path) -> ODESystem | None:
    try:
        parsed = parse_input(path.read_text())
    except ParseError:
        return None
    return hamiltonian_to_system(parsed) if isinstance(parsed, HamiltonianSystem) else parsed


DATA_SYSTEMS = {p.name: s for p in sorted(DATA.iterdir()) if (s := _load(p)) is not None}


def _random_system(rng: random.Random) -> tuple[ODESystem, int]:
    """A system with n = 1..4 whose right sides mix u-monomials with
    constant, t-only and parameter terms; some right sides are zero."""
    n = rng.randint(1, 4)
    us = tuple(f"u{i + 1}" for i in range(n))
    params = ("a", "b")[: rng.randint(0, 2)]
    symbols = us + ("t",) + params
    rhs = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.choice([0, 1, 2, 3, 4])):
            exps = [rng.choice([0, 0, 1, 2, 3]) for _ in us]
            exps += [rng.choice([0, 0, 1]) for _ in ("t",) + params]
            terms[tuple(exps)] = rng.choice([-3, -1, 1, 2, 5])
        rhs.append(MultiPoly(symbols, terms))
    bound = rng.randint(1, {1: 14, 2: 12, 3: 8, 4: 5}[n])
    return ODESystem(us, tuple(rhs), param_symbols=params), bound


def _kind(sys: ODESystem, f: MultiPoly) -> str:
    if set(f.symbols()) & set(sys.param_symbols):
        return "param"
    if f.is_zero or f.is_constant:
        return "zero" if f.is_zero else "const"
    return "t-only" if f.symbols() == (T_SYMBOL,) else "other"


def _assert_permutation_invariant(sys: ODESystem, perm: list[int], bound: int) -> None:
    permuted = ODESystem(
        tuple(sys.u_symbols[p] for p in perm),
        tuple(sys.rhs[p] for p in perm),
        sys.param_symbols,
    )
    found = enumerate_fuchsian_exponents(sys, bound)
    expected = [tuple(k[p] for p in perm) for k in found]
    assert sorted(enumerate_fuchsian_exponents(permuted, bound)) == sorted(expected)


@pytest.mark.parametrize("name", sorted(DATA_SYSTEMS))
def test_matches_product_loop_on_data(name):
    sys = DATA_SYSTEMS[name]
    bounds = (1, 2, 5, 10) + ((16, 18) if sys.n == 4 else ())
    for bound in bounds:
        assert enumerate_fuchsian_exponents(sys, bound) == enumerate_fuchsian_by_product(sys, bound)


def test_matches_product_loop_on_random_systems():
    rng = random.Random(20131)
    kinds = set()
    for _ in range(200):
        sys, bound = _random_system(rng)
        found = enumerate_fuchsian_exponents(sys, bound)
        assert found == enumerate_fuchsian_by_product(sys, bound)
        fuchsian = set(found)
        for _ in range(5):
            k = tuple(rng.randint(0, bound) for _ in range(sys.n))
            assert is_fuchsian(sys, k) == (k in fuchsian or not any(k))
        kinds.update(_kind(sys, f) for f in sys.rhs)
    assert kinds >= {"zero", "const", "t-only", "param"}


@pytest.mark.parametrize("name", sorted(DATA_SYSTEMS))
def test_permuting_variables_permutes_exponents(name):
    sys = DATA_SYSTEMS[name]
    _assert_permutation_invariant(sys, list(reversed(range(sys.n))), 10)


def test_permuting_random_systems():
    rng = random.Random(7)
    for _ in range(50):
        sys, bound = _random_system(rng)
        perm = list(range(sys.n))
        rng.shuffle(perm)
        _assert_permutation_invariant(sys, perm, bound)


MONOTONICITY_CASES = [(name, 5) for name in sorted(DATA_SYSTEMS)] + [("henon_heiles.ham", 29)]


@pytest.mark.parametrize("name,bound", MONOTONICITY_CASES)
def test_bound_monotonicity(name, bound):
    # bound 29 + 7 = 36 is 37^4 = 1.87M vectors: affordable only with pruning
    sys = DATA_SYSTEMS[name]
    wider = enumerate_fuchsian_exponents(sys, bound + 7)
    narrow = [k for k in wider if max(k) <= bound]
    assert enumerate_fuchsian_exponents(sys, bound) == narrow


def test_search_space_guard_still_applies(monkeypatch):
    # the guard budgets the values tried, not the (bound + 1)^n box: bound 37
    # (38^4 = 2.09M vectors, refused by the box guard) tries about 20,500
    sys = DATA_SYSTEMS["henon_heiles.ham"]
    wider = enumerate_fuchsian_exponents(sys, 37)
    narrow = [k for k in wider if max(k) <= 36]
    assert enumerate_fuchsian_exponents(sys, 36) == narrow
    monkeypatch.setattr(core, "EXPONENT_BUDGET", 20_000)
    with pytest.raises(ValueError, match="exponent search space too large"):
        enumerate_fuchsian_exponents(sys, 37)


# One system per branch of the interval a node's rows give the next k_d.
# Each row asks s + k_d * m_d <= cap: for row d's own equation the cap is
# k_d + 1, for any other row it does not depend on k_d.
INTERVAL_CASES = {
    # own row, m_d = 0: a lower end, k_2 >= 3 k_1 - 1
    "own m_d = 0": ["u2", "u1^3"],
    # own row, m_d = 1: every k_2 or none, as 2 k_1 <= 1 or not
    "own m_d = 1": ["u1^2", "u1^2*u2"],
    # own row, m_d >= 2: an upper end, k_2 <= (1 - k_1) // 2
    "own m_d >= 2": ["u1^2 + u2", "u1*u2^3 + t"],
    # another row, m_d = 0: every k_2, since a pushed prefix already keeps
    # that row's cap (so its sum is never over the cap at the next node)
    "other m_d = 0": ["u1^2", "u2^2 + a"],
    # another row, m_d > 0: an upper end, k_2 <= (k_1 + 1) // 2 from row 1
    "other m_d > 0": ["u2^2 + u1", "u1*u2 - 1"],
}


@pytest.mark.parametrize("name", sorted(INTERVAL_CASES))
def test_each_interval_branch_matches_product_loop(name):
    f1, f2 = INTERVAL_CASES[name]
    sys = parse_input(f"system\nvars: u1,u2\nparams: a\nu1' = {f1}\nu2' = {f2}\n")
    for bound in range(1, 9):
        assert enumerate_fuchsian_exponents(sys, bound) == enumerate_fuchsian_by_product(sys, bound)
