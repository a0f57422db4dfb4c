import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from painleve import algebra
from painleve.algebra import MultiPoly
from painleve.core import analyze_system
from painleve.model import hamiltonian_to_system, parse_hamiltonian, parse_system

DATA = Path(__file__).parent / "data"


@pytest.fixture
def count_products(monkeypatch):
    """count_products(fn, *args): the number of coefficient products fn(*args)
    forms, each counted once whether `MultiPoly.__mul__` or a pair of the one
    product loop `sum_of_products` forms it; a pair with a zero factor forms
    none.  The loop is patched in every `painleve` module that binds it."""
    loop = algebra.sum_of_products
    binders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("painleve") and vars(module).get("sum_of_products") is loop
    ]

    def count(fn, *args) -> int:
        total, inside = 0, False
        mul = MultiPoly.__mul__

        def counted_mul(self, other):
            nonlocal total, inside
            total += 1
            inside = True  # a product of two polynomials is one kernel pair
            try:
                return mul(self, other)
            finally:
                inside = False

        def counted_loop(pairs):
            nonlocal total
            pairs = list(pairs)
            if not inside:
                total += sum(1 for a, b in pairs if a and b)
            return loop(pairs)

        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "__mul__", counted_mul)
            patch.setattr(MultiPoly, "__rmul__", counted_mul)
            for module in binders:
                patch.setattr(module, "sum_of_products", counted_loop)
            fn(*args)
        return total

    return count


GD_TEXT = (
    "hamiltonian\n"
    "vars: q1,q2; p1,p2\n"
    "H = -q1*p2^2 - 2*p1*p2 + 3*q1^2*q2 - q1^4 - q2^2\n"
)


@pytest.fixture(scope="session")
def gd_hamiltonian():
    return parse_hamiltonian(GD_TEXT)


@pytest.fixture(scope="session")
def gd_system(gd_hamiltonian):
    return hamiltonian_to_system(gd_hamiltonian)


@pytest.fixture(scope="session")
def gd_analysis(gd_system):
    return analyze_system(gd_system, bound=5, order=13)


@pytest.fixture(scope="session")
def gd_candidate(gd_analysis):
    for cand in gd_analysis.principal_candidates():
        if [str(c) for c in cand.leading] == ["1", "0", "-1", "1"]:
            return cand
    raise AssertionError("expected principal balance with leading (1,0,-1,1)")


@pytest.fixture(scope="session")
def pole2_system():
    return parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 6*u1^2\n")


@pytest.fixture(scope="session")
def pole2_candidate(pole2_system):
    result = analyze_system(pole2_system, bound=5, order=12)
    return result.principal_candidates()[0]


@pytest.fixture(scope="session")
def riccati_system():
    return parse_system("system\nvars: u\nu' = u^2\n")


@pytest.fixture(scope="session")
def riccati_candidate(riccati_system):
    return analyze_system(riccati_system, bound=5).principal_candidates()[0]
