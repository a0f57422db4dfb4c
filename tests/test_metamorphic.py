"""Metamorphic relations of the test: a system and a transformed copy of it
must get related results.

* Rescaling u_i = lambda_i v_i by nonzero rationals keeps every candidate's
  exponents, verdict and resonances, and divides its leading coefficients
  by lambda_i.
* Reversing the variable order reverses the exponents and the leading data
  and keeps the verdicts and resonances.

Only the analysis is compared.  A rescaled system need not regularize: the
pivot needs a rational k-th root of 1/c, which a rescaling can take away.
"""

from fractions import Fraction as Q
from pathlib import Path

import pytest

from painleve.algebra import MultiPoly
from painleve.core import analyze_system
from painleve.model import ODESystem, ParseError, hamiltonian_to_system, parse_input

DATA = Path(__file__).parent / "data"
SCALES = (Q(2), Q(-3, 2), Q(5), Q(1, 3))


def _systems():
    for path in sorted(DATA.iterdir()):
        try:
            system = parse_input(path.read_text())
        except ParseError:
            continue  # nonpoly.sys
        if not isinstance(system, ODESystem):
            system = hamiltonian_to_system(system)
        yield path.name, system


SYSTEMS = list(_systems())


def _rescaled(system: ODESystem, scales) -> ODESystem:
    """The system for v with u_i = scales[i] v_i, kept under the names u_i."""
    into = {u: MultiPoly.var(u) * s for u, s in zip(system.u_symbols, scales)}
    rhs = tuple(f.replace(into) * (1 / s) for f, s in zip(system.rhs, scales))
    return ODESystem(system.u_symbols, rhs, system.t_symbol, system.param_symbols)


def _reversed(system: ODESystem) -> ODESystem:
    return ODESystem(
        system.u_symbols[::-1], system.rhs[::-1], system.t_symbol, system.param_symbols
    )


def _summary(system: ODESystem, order, leading=lambda c: c, exponents=lambda k: k):
    """The verdict, and the sorted (exponents, leading, verdict, resonances)
    of every candidate, leading data and exponents mapped back to the
    original system."""
    result = analyze_system(system, order=order)
    rows = []
    for cand in result.candidates:
        lead = None if cand.leading is None else tuple(str(x) for x in leading(cand.leading))
        resonances = None if cand.structure is None else cand.structure.resonances
        rows.append((exponents(cand.exponents), lead, cand.verdict, resonances))
    return result.verdict, sorted(rows, key=repr)


@pytest.mark.parametrize("order", [None, 12])
@pytest.mark.parametrize("name,system", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_rescaling_divides_the_leading_data(name, system, order):
    scales = [SCALES[i % len(SCALES)] for i in range(system.n)]
    original = _summary(system, order)
    rescaled = _summary(
        _rescaled(system, scales),
        order,
        leading=lambda c: [x * s for x, s in zip(c, scales)],
    )
    assert rescaled == original


@pytest.mark.parametrize("order", [None, 12])
@pytest.mark.parametrize("name,system", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_reversing_the_variables_reverses_the_candidates(name, system, order):
    original = _summary(system, order)
    reverse = _summary(
        _reversed(system), order, leading=lambda c: c[::-1], exponents=lambda k: k[::-1]
    )
    assert reverse == original
