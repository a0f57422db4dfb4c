"""Metamorphic relations of the test: a system and a transformed copy of it
must get related results.

* Rescaling u_i = lambda_i v_i by nonzero rationals keeps every candidate's
  exponents, verdict and resonances, divides its leading coefficients by
  lambda_i, and maps its Kowalevskian K to D^-1 K D, D = diag(lambda).
* Reversing the variable order reverses the exponents and the leading data
  and keeps the verdicts and resonances.
* Shifting time, t -> t + a, in a non-autonomous system keeps every
  candidate, and `regularize` of each principal balance stays regular or
  not: the shift only moves the pole, t0 -> t0 - a.
* Raising the expansion order keeps every candidate and verdict, extends
  each balance's coefficients, and leaves the change of variable and the
  transformed system of `regularize` as they were: both read the balance
  only up to its largest resonance.  The transformed balances agree below
  the shorter truncation.
* A canonical exchange (q_i, p_i) -> (p_i, -q_i) of a Hamiltonian system
  carries a principal balance to a principal balance of the exchanged
  Hamiltonian: the exchanged balance that the canonical change is built on
  gets the record that analyzing the exchanged Hamiltonian afresh gives.
* A canonical shear p_i -> p_i + dF/dq_i of a Hamiltonian system, each
  dF/dq_i of weight below k of p_i, keeps the verdict, the exponents,
  leading data and resonances of every principal balance, and whether
  `hamiltonian` finds the new system regular and the change canonical.
  A weight-raising F breaks the Fuchsian rows of the dominant balance.
  Where a balance has k_p = 0 (P_II, P_IV), the shift p -> p + a keeps the
  same at every `--balance-index` and moves that balance's c_p by -a.

Only the analysis is compared.  A rescaled system need not regularize: the
pivot needs a rational k-th root of 1/c, which a rescaling can take away.
"""

import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from oracles import agrees_with, print_hamiltonian
from painleve.algebra import MultiPoly, RatMatrix
from painleve.cli import main
from painleve.core import analyze_system, expanded_candidate
from painleve.hamiltonian import (
    build_canonical_change,
    canonical_exchanges,
    check_almost_weighted_homogeneous,
    resonance_columns,
    symplectic_normalize,
)
from painleve.model import T_SYMBOL, ODESystem, ParseError, hamiltonian_to_system, parse_input, parse_system
from painleve.regularize import regularize

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
# the non-autonomous inputs, with Riccati and Painleve I variants beside
# painleve1.ham, the only one in tests/data
TIMED = [(name, system) for name, system in SYSTEMS if not system.autonomous] + [
    ("riccati_t", parse_system("system\nvars: u\nu' = u^2 + t\n")),
    ("riccati_t3", parse_system("system\nvars: u\nu' = u^2 + t^3 - 2*t\n")),
    ("painleve1_t2_t3", parse_system("system\nvars: u1,u2\nu1' = u2 + t^3\nu2' = 6*u1^2 - 3*t^2 + t\n")),
]
SHIFTS = (Q(1), Q(-2, 3))


def _rescaled(system: ODESystem, scales) -> ODESystem:
    """The system for v with u_i = scales[i] v_i, kept under the names u_i."""
    into = {u: MultiPoly.var(u) * s for u, s in zip(system.u_symbols, scales)}
    rhs = tuple(f.replace(into) * (1 / s) for f, s in zip(system.rhs, scales))
    return ODESystem(system.u_symbols, rhs, system.param_symbols)


def _reversed(system: ODESystem) -> ODESystem:
    return ODESystem(system.u_symbols[::-1], system.rhs[::-1], system.param_symbols)


def _shifted(system: ODESystem, a) -> ODESystem:
    """The system for v(t) = u(t + a)."""
    into = {T_SYMBOL: MultiPoly.var(T_SYMBOL) + a}
    rhs = tuple(f.replace(into) for f in system.rhs)
    return ODESystem(system.u_symbols, rhs, system.param_symbols)


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


def _kowalevskians(system: ODESystem, order, leading=lambda c: c) -> dict:
    """The Kowalevskian of every candidate that reaches one, by exponents
    and leading data mapped back to the original system."""
    return {
        (cand.exponents, tuple(str(x) for x in leading(cand.leading))): cand.K
        for cand in analyze_system(system, order=order).candidates
        if cand.K is not None
    }


@pytest.mark.parametrize("order", [None, 12])
@pytest.mark.parametrize("name,system", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_rescaling_divides_the_leading_data(name, system, order):
    scales = [SCALES[i % len(SCALES)] for i in range(system.n)]

    def unscaled(c):
        return [x * s for x, s in zip(c, scales)]

    original = _summary(system, order)
    rescaled = _summary(_rescaled(system, scales), order, leading=unscaled)
    assert rescaled == original
    # K'_ij = K_ij s_j / s_i
    K_original = _kowalevskians(system, order)
    K_rescaled = _kowalevskians(_rescaled(system, scales), order, leading=unscaled)
    assert K_rescaled.keys() == K_original.keys()
    for key, K in K_original.items():
        conjugated = [
            [K.entry(i, j) * sj / si for j, sj in enumerate(scales)] for i, si in enumerate(scales)
        ]
        assert K_rescaled[key] == RatMatrix(conjugated), key


@pytest.mark.parametrize("order", [None, 12])
@pytest.mark.parametrize("name,system", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_reversing_the_variables_reverses_the_candidates(name, system, order):
    original = _summary(system, order)
    reverse = _summary(
        _reversed(system), order, leading=lambda c: c[::-1], exponents=lambda k: k[::-1]
    )
    assert reverse == original


def _regular(system: ODESystem, order) -> list[bool]:
    return [
        regularize(cand.balance).regularity is None
        for cand in analyze_system(system, order=order).principal_candidates()
    ]


@pytest.mark.parametrize("a", SHIFTS, ids=str)
@pytest.mark.parametrize("order", [None, 12])
@pytest.mark.parametrize("name,system", TIMED, ids=[name for name, _ in TIMED])
def test_time_shift_keeps_the_candidates_and_regularity(name, system, order, a):
    shifted = _shifted(system, a)
    assert shifted.rhs != system.rhs
    assert _summary(shifted, order) == _summary(system, order)
    regular = _regular(system, order)
    assert regular and _regular(shifted, order) == regular


PREFIX_INPUTS = ("gd.ham", "painleve1.ham", "pole2.sys", "riccati.sys")


@pytest.mark.parametrize("name", PREFIX_INPUTS)
def test_raising_the_order_extends_the_balances(name):
    system = dict(SYSTEMS)[name]
    low, high = analyze_system(system, order=12), analyze_system(system, order=20)
    assert low.verdict == high.verdict
    assert [(c.exponents, c.leading, c.verdict, c.structure) for c in low.candidates] == [
        (c.exponents, c.leading, c.verdict, c.structure) for c in high.candidates
    ]
    regularized = 0
    for short, long in zip(low.candidates, high.candidates):
        if short.balance is None:
            continue
        assert all(row == whole[:12] for row, whole in zip(short.balance.coeffs, long.balance.coeffs))
        if short.verdict != "principal":
            continue
        a, b = regularize(short.balance), regularize(long.balance)
        assert a.change == b.change and a.transformed == b.transformed
        ta, tb = a.transformed_balance, b.transformed_balance
        assert ta.initial_values == tb.initial_values
        assert agrees_with(ta.tau, tb.tau) and ta.rho.keys() == tb.rho.keys()
        assert all(agrees_with(ta.rho[nm], tb.rho[nm]) for nm in ta.rho)
        regularized += 1
    assert regularized


def test_an_exchanged_balance_is_a_balance_of_the_exchanged_hamiltonian():
    # force the exchange (q1, p1) -> (p1, -q1) on GD's principal balance
    hs = parse_input((DATA / "gd.ham").read_text())
    cand = analyze_system(hamiltonian_to_system(hs)).principal_candidates()[0]
    d = check_almost_weighted_homogeneous(hs, cand.exponents[:2], cand.exponents[2:])
    sd = canonical_exchanges(symplectic_normalize(resonance_columns(cand.balance), d))
    sd = dataclasses.replace(sd, exchange_set=(0,))
    ehs, balance, _ = build_canonical_change(hs, cand.balance, sd)
    exchanged = expanded_candidate(balance)
    assert exchanged.exponents == (5, 4, 2, 3)
    assert [str(c) for c in exchanged.leading] == ["1", "0", "1", "1"]
    [fresh] = [
        c
        for c in analyze_system(hamiltonian_to_system(ehs)).candidates
        if (c.exponents, c.leading) == (exchanged.exponents, exchanged.leading)
    ]
    assert fresh.verdict == exchanged.verdict == "principal"
    assert fresh.K == exchanged.K
    assert fresh.structure.resonances == exchanged.structure.resonances
    assert fresh.structure.multiplicities == exchanged.structure.multiplicities


# F's admissible monomials, as exponents over the positions: each dF/dq_i
# has weight below k of p_i (GD: k = (2, 4, 5, 3); P_I: k = (2, 3))
SHEAR_MONOMIALS = {
    "gd.ham": [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0)],
    "painleve1.ham": [(1,), (2,)],
}
# fixed draws, (coefficient, exponents) pairs, before the seeded ones
SHEAR_CASES = {
    "gd.ham": [[(Q(3, 2), (2, 0)), (Q(2), (1, 1)), (Q(1), (0, 1))], [(Q(1), (3, 0))]],
    "painleve1.ham": [[(Q(3, 2), (2,))], [(Q(1), (2,)), (Q(-1, 3), (1,))]],
}


def _polynomial(terms, symbols) -> MultiPoly:
    return sum((MultiPoly(symbols, {exps: c}) for c, exps in terms), MultiPoly.zero())


def _sheared(hs, F: MultiPoly):
    """H with p_i -> p_i + dF/dq_i."""
    into = {p: MultiPoly.var(p) + F.partial(q) for q, p in zip(hs.q_symbols, hs.p_symbols)}
    return dataclasses.replace(hs, H=hs.H.replace(into))


def _shear_summary(hs, tmp_path):
    """The verdict, the (exponents, leading, resonances) of every principal
    candidate, and the exit code, `regular` and `canonical` of `hamiltonian`."""
    result = analyze_system(hamiltonian_to_system(hs))
    principal = [
        (c.exponents, tuple(map(str, c.leading)), c.structure.resonances)
        for c in result.principal_candidates()
    ]
    path = tmp_path / "sheared.ham"
    path.write_text(print_hamiltonian(hs))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["hamiltonian", str(path), "--json"])
    report = json.loads(out.getvalue())
    regular = report["transformed_system"]["regular"], report["hamiltonian"]["canonical"]
    return result.verdict, principal, code, regular


@pytest.mark.parametrize("name", sorted(SHEAR_MONOMIALS))
def test_a_weight_lowering_canonical_shear_keeps_the_balance(name, tmp_path):
    hs = parse_input((DATA / name).read_text())
    expected = _shear_summary(hs, tmp_path)
    assert expected[0] == "principal" and expected[2] == 0
    rng = random.Random(16)
    drawn = [
        [(Q(rng.randint(-3, 3), rng.randint(1, 3)), exps) for exps in SHEAR_MONOMIALS[name]]
        for _ in range(6)
    ]
    for terms in SHEAR_CASES[name] + drawn:
        F = _polynomial(terms, hs.q_symbols)
        if F.is_zero:
            continue
        sheared = _sheared(hs, F)
        assert sheared.H != hs.H
        assert _shear_summary(sheared, tmp_path) == expected, F


# P_II and P_IV in Okamoto's form have a principal balance with k_p = 0, so
# no nonzero dF/dq has weight below k_p; F = a q, the exact shift p -> p + a,
# is the one shear, and it moves the order-zero momentum coefficient by -a
MOMENTUM_SHIFTS = (Q(1), Q(-2, 3), Q(5, 2))


def _balance_summaries(hs, tmp_path):
    """Per principal candidate, in `--balance-index` order: its exponents and
    leading data in the input coordinates, and the exit code, exponents,
    resonances, `regular` and `canonical` of `hamiltonian --json` at its
    index (whose balance may be exchanged)."""
    path = tmp_path / "shifted.ham"
    path.write_text(print_hamiltonian(hs))
    summaries = []
    for index, cand in enumerate(analyze_system(hamiltonian_to_system(hs)).principal_candidates()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["hamiltonian", str(path), f"--balance-index={index}", "--json"])
        report = json.loads(out.getvalue())
        checks = report["transformed_system"]["regular"], report["hamiltonian"]["canonical"]
        run = code, report["exponents"], report["resonances"], checks
        summaries.append((cand.exponents, tuple(map(str, cand.leading)), run))
    return summaries


@pytest.mark.parametrize("name", ["painleve2.ham", "painleve4.ham"])
def test_a_momentum_shift_moves_only_the_order_zero_momentum(name, tmp_path):
    hs = parse_input((DATA / name).read_text())
    expected = _balance_summaries(hs, tmp_path)
    assert len(expected) == {"painleve2.ham": 4, "painleve4.ham": 5}[name]
    assert any(k[1] == 0 for k, _, _ in expected)
    for a in MOMENTUM_SHIFTS:
        shifted = _sheared(hs, _polynomial([(a, (1,))], hs.q_symbols))
        got = _balance_summaries(shifted, tmp_path)
        assert [(k, run) for k, _, run in got] == [(k, run) for k, _, run in expected], a
        for (k, leading, _), (_, moved, _) in zip(expected, got):
            c_q, c_p = leading
            assert moved == ((c_q, str(Q(c_p) - a)) if k[1] == 0 else leading), (a, k)


def test_a_weight_raising_shear_fails_the_dominant_balance():
    hs = parse_input((DATA / "painleve1.ham").read_text())
    F = _polynomial([(Q(1, 3), (3,))], hs.q_symbols)
    assert analyze_system(hamiltonian_to_system(_sheared(hs, F))).verdict == "fails:dominant"
