"""The balance recursion against its reference, and its cost in products.

`expand_balance` evaluates one coefficient of f(partial sums) per order
from cached power and product coefficients; `oracles.expand_balance_by_
substitution` expands f over the partial sums at every order.  Both must
give the same coefficients, parameters and failure witnesses.
"""

from pathlib import Path

import pytest

from oracles import expand_balance_by_substitution
from painleve.algebra import MultiPoly
from painleve.core import (
    Balance,
    FailureAtResonance,
    analyze_system,
    dominant_equations,
    expand_balance,
    verify_dominant_balance,
)
from painleve.model import ODESystem, ParseError, hamiltonian_to_system, parse_input, parse_system

DATA = Path(__file__).parent / "data"

SYNTHETIC = {
    # non-autonomous, with three bound factors (time among them) in one monomial
    "t_u1_u2": "system\nvars: u1,u2\nu1' = u2 + 3*u1*u2\nu2' = t*u1*u2 - u2^2\n",
    # declared parameters left unbound inside the coefficients
    "params": "system\nvars: u1,u2\nparams: a,b\nu1' = u2\nu2' = 6*u1^2 + a*u1 + b*t\n",
}


def _load(path: Path):
    system = parse_input(path.read_text())
    return system if isinstance(system, ODESystem) else hamiltonian_to_system(system)


def _systems():
    for path in sorted(DATA.iterdir()):
        try:
            yield path.name, _load(path)
        except ParseError:
            continue  # nonpoly.sys: rejected before any expansion
    for name, text in SYNTHETIC.items():
        yield name, parse_system(text)


def _expandable(system):
    """(dominant data, resonance structure, default order) per candidate
    that reaches the expansion."""
    for cand in analyze_system(system).candidates:
        if cand.structure is None:
            continue
        equations = dominant_equations(system, cand.exponents)
        dd = verify_dominant_balance(equations, cand.exponents, cand.leading)
        yield dd, cand.structure, max(cand.structure.largest + 5, 2)


CASES = [
    (f"{name}-{index}-o{order}", system, dd, rs, order)
    for name, system in _systems()
    for index, (dd, rs, default) in enumerate(_expandable(system))
    for order in sorted({default, 20})
    if order > rs.largest
]


def test_every_input_reaches_the_expansion():
    names = {case.split("-")[0] for case, *_ in CASES}
    assert names >= {p.name for p in DATA.iterdir()} - {"cubic.sys", "nonpoly.sys"}
    assert names >= set(SYNTHETIC)


@pytest.mark.parametrize("case,system,dd,rs,order", CASES, ids=[case for case, *_ in CASES])
def test_expand_balance_matches_substitution_reference(case, system, dd, rs, order):
    out = expand_balance(system, dd, rs, order)
    ref = expand_balance_by_substitution(system, dd, rs, order)
    assert type(out) is type(ref)
    if isinstance(ref, Balance):
        assert out.coeffs == ref.coeffs
        assert out.parameters == ref.parameters
    else:
        assert out == ref


def test_inconsistent_witness_matches_reference():
    system = _load(DATA / "inconsistent.sys")
    cases = [(dd, rs) for dd, rs, _ in _expandable(system)]
    failures = [expand_balance(system, dd, rs, 8) for dd, rs in cases]
    assert any(isinstance(f, FailureAtResonance) for f in failures)
    for (dd, rs), out in zip(cases, failures):
        assert out == expand_balance_by_substitution(system, dd, rs, 8)


def test_synthetic_systems_exercise_time_and_parameters():
    for name, symbols in (("t_u1_u2", {"t0"}), ("params", {"a", "b", "t0"})):
        system = parse_system(SYNTHETIC[name])
        balances = [expand_balance(system, dd, rs, 12) for dd, rs, _ in _expandable(system)]
        assert balances and all(isinstance(b, Balance) for b in balances)
        used = {s for b in balances for row in b.coeffs for c in row for s in c.symbols()}
        assert used >= symbols


def test_expansion_products_grow_quadratically(count_products):
    # one coefficient per order costs O(j) products, so doubling the order
    # multiplies the count by about 4 (754 and 3,229 products at orders 30
    # and 60, 1,022 and 4,608 before square nodes formed each symmetric pair
    # once); expanding f(partial sums) gives about 9
    system = _load(DATA / "henon_heiles.ham")
    cases = [(dd, rs) for dd, rs, _ in _expandable(system)]
    assert cases

    def expand_all(order):
        for dd, rs in cases:
            expand_balance(system, dd, rs, order)

    at_30, at_60 = (count_products(expand_all, order) for order in (30, 60))
    assert at_60 / at_30 < 5


def test_expansion_sums_each_coefficient_in_one_pass(monkeypatch):
    # every coefficient of f(partial sums) and of a product node is one
    # algebra.sum_of_products call, not a fold of MultiPoly.__add__ over its
    # products: 209 additions at order 30, against 1,122 with the fold
    count = 0
    add = MultiPoly.__add__

    def counted(self, other):
        nonlocal count
        count += 1
        return add(self, other)

    monkeypatch.setattr(MultiPoly, "__add__", counted)
    monkeypatch.setattr(MultiPoly, "__radd__", counted)
    analyze_system(_load(DATA / "henon_heiles.ham"), order=30)
    assert count < 400


def test_expansion_solves_each_order_without_polynomial_row_operations(monkeypatch):
    # solve_affine forms each coordinate as one sum_of_products over the
    # recorded row operations, so the only MultiPoly additions and scalings
    # left are the resonance-parameter injections (12 and 12 at order 30);
    # eliminating the polynomial column row by row made 123 and 236
    system = _load(DATA / "henon_heiles.ham")
    cases = [(dd, rs) for dd, rs, _ in _expandable(system)]
    assert cases
    counts = {"add": 0, "mul": 0}
    add, mul = MultiPoly.__add__, MultiPoly.__mul__

    def counted(name, op):
        def wrapper(self, other):
            counts[name] += 1
            return op(self, other)

        return wrapper

    monkeypatch.setattr(MultiPoly, "__add__", counted("add", add))
    monkeypatch.setattr(MultiPoly, "__radd__", counted("add", add))
    monkeypatch.setattr(MultiPoly, "__mul__", counted("mul", mul))
    monkeypatch.setattr(MultiPoly, "__rmul__", counted("mul", mul))
    for dd, rs in cases:
        assert isinstance(expand_balance(system, dd, rs, 30), Balance)
    assert counts["add"] < 30
    assert counts["mul"] < 30
