"""Acceptance suite: every criterion at its stated (exact) tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion.  All comparisons are exact rational arithmetic; there are no
numeric tolerances anywhere.
"""

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from oracles import agrees_with, column, is_symplectic, residual_orders
from painleve.algebra import MultiPoly, RatMatrix
from painleve.core import (
    FailureAtResonance,
    expand_balance,
    residual_check,
    check_principal,
    analyze_system,
    dominant_equations,
    kowalevskian,
    resonance_structure,
    verify_dominant_balance,
)
from painleve.hamiltonian import (
    HamiltonianRejected,
    build_canonical_change,
    canonical_exchanges,
    check_almost_weighted_homogeneous,
    hamilton_equations_match,
    new_hamiltonian,
    resonance_columns,
    symplectic_normalize,
    symplectic_pairing,
    symplectic_product,
    verify_canonical,
)
from painleve.model import parse_hamiltonian, parse_system, hamiltonian_to_system
from painleve.regularize import (
    SingularWitness,
    regularize,
    transform_system,
    verify_regularity,
)
from painleve.series import EXACT, TruncatedSeries, compose, revert_series

GD_K_MATRIX = RatMatrix(
    [[2, 0, 0, -2], [-2, 4, -2, -2], [12, -6, 5, 2], [-6, 2, 0, 3]]
)
GD_R = RatMatrix([[2, 1, -4, -2], [0, 3, -6, 9], [-5, 2, 1, -22], [3, 0, 6, 6]])
GD_S = RatMatrix(
    [
        [2, Q(1, 3), Q(2, 81), Q(-4, 9)],
        [0, 1, Q(-1, 9), Q(-2, 3)],
        [-5, Q(2, 3), Q(22, 81), Q(1, 9)],
        [3, 0, Q(-2, 27), Q(2, 3)],
    ]
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def gd_canonical(gd_hamiltonian, gd_candidate):
    balance = gd_candidate.balance
    d = check_almost_weighted_homogeneous(gd_hamiltonian, (2, 4), (5, 3))
    pairing = symplectic_pairing(balance.structure, d)
    sd = canonical_exchanges(symplectic_normalize(resonance_columns(balance), d))
    return (d, pairing, sd) + build_canonical_change(gd_hamiltonian, balance, sd)


def test_criterion_1_gd_kowalevskian(gd_candidate):
    assert gd_candidate.exponents == (2, 4, 5, 3)
    assert [str(c) for c in gd_candidate.leading] == ["1", "0", "-1", "1"]
    assert gd_candidate.K == GD_K_MATRIX
    report(1, "Gelfand-Dikii Kowalevskian matrix matches entrywise")


def test_criterion_2_gd_resonances(gd_candidate):
    rs = gd_candidate.structure
    assert rs.resonances == (-1, 2, 5, 8)
    assert rs.multiplicities == (1, 1, 1, 1)
    for r in rs.resonances:
        assert len(rs.eigenbases[r]) == 1
    report(2, "resonances {-1, 2, 5, 8}, algebraic = geometric = 1")


def test_criterion_3_gd_resonance_matrix(gd_candidate):
    rs = gd_candidate.structure
    for col, r in enumerate(rs.resonances):
        computed = list(rs.eigenbases[r][0])
        target = list(column(GD_R, col))
        lead_pos = next(i for i, x in enumerate(target) if x != 0)
        assert computed[lead_pos] != 0
        scale = target[lead_pos] / computed[lead_pos]
        normalized = [x * scale for x in computed]
        assert normalized == target, f"column for resonance {r}"
    report(3, "eigenvectors match the published resonance matrix per column")


# the published series fixes a scale per resonance column: eigenvectors
# normalized so the balance coefficients come out exactly as printed
SERIES_SCALE_BASES = {
    2: ((Q(1, 3), Q(1), Q(2, 3), Q(0)),),
    5: ((Q(-2, 3), Q(-1), Q(1, 6), Q(1)),),
    8: ((Q(-1, 3), Q(3, 2), Q(-11, 3), Q(1)),),
}


@pytest.fixture(scope="module")
def gd_reference_balance(gd_system, gd_candidate):
    rs = gd_candidate.structure
    bases = dict(rs.eigenbases)
    bases.update(SERIES_SCALE_BASES)
    rs_scaled = dataclasses.replace(rs, eigenbases=bases)
    balance = expand_balance(
        gd_system, gd_candidate.balance.dominant, rs_scaled, 13, ("r2", "r3", "r4")
    )
    assert not isinstance(balance, FailureAtResonance)
    return balance


def test_criterion_4_gd_balance_coefficients(gd_reference_balance):
    r2, r3, r4 = (MultiPoly.var(s) for s in ("r2", "r3", "r4"))
    zero = MultiPoly.zero()
    expected = {
        # q1 = t^-2 + r2/3 - r2^2/3 t^2 - 2 r3/3 t^3 - 10 r2^3/27 t^4 - ...
        0: [
            MultiPoly.const(1), zero, r2 * Q(1, 3), zero, r2**2 * Q(-1, 3),
            r3 * Q(-2, 3), r2**3 * Q(-10, 27), r2 * r3 * Q(-1, 3), r4 * Q(-1, 3),
        ],
        # q2 = r2 t^-2 - 2 r2^2/3 - r3 t - r2^3/3 t^2 + (-11 r2^4/54 + 3 r4/2) t^4
        1: [
            zero, zero, r2, zero, r2**2 * Q(-2, 3),
            -r3, r2**3 * Q(-1, 3), zero, r2**4 * Q(-11, 54) + r4 * Q(3, 2),
        ],
        # p1 = -t^-5 + 2 r2/3 t^-3 + r3/6 - 4 r2^3/27 t - 5 r2 r3/6 t^2 + ...
        2: [
            MultiPoly.const(-1), zero, r2 * Q(2, 3), zero, zero,
            r3 * Q(1, 6), r2**3 * Q(-4, 27), r2 * r3 * Q(-5, 6),
            r2**4 * Q(22, 81) + r4 * Q(-11, 3),
        ],
        # p2 = t^-3 + r2^2/3 t + r3 t^2 + 20 r2^3/27 t^3 + 5 r2 r3/6 t^4 + r4 t^5
        3: [
            MultiPoly.const(1), zero, zero, zero, r2**2 * Q(1, 3),
            r3, r2**3 * Q(20, 27), r2 * r3 * Q(5, 6), r4,
        ],
    }
    for i, column in expected.items():
        for j, value in enumerate(column):
            assert gd_reference_balance.coeffs[i][j] == value, (i, j)
    # the spot assertions, restated explicitly (orders are powers of t-t0)
    k = (2, 4, 5, 3)
    assert gd_reference_balance.coeffs[0][0 + k[0]] == r2 * Q(1, 3)  # q1 order 0
    assert gd_reference_balance.coeffs[0][3 + k[0]] == r3 * Q(-2, 3)  # q1 order 3
    assert gd_reference_balance.coeffs[1][-2 + k[1]] == r2  # q2 order -2
    assert gd_reference_balance.coeffs[2][-3 + k[2]] == r2 * Q(2, 3)  # p1 order -3
    assert gd_reference_balance.coeffs[3][5 + k[3]] == r4  # p2 order 5
    report(4, "balance reproduces the published series exactly through order 8")


def test_criterion_5_gd_symplectic_normalization(gd_candidate):
    balance = gd_candidate.balance
    d = 8
    pairing = symplectic_pairing(balance.structure, d)
    assert pairing == [(-1, 8), (2, 5)]
    # the published normalization: R's columns with the second scaled by 1/3
    columns = [
        (-1, column(GD_R, 0)),
        (2, tuple(x * Q(1, 3) for x in column(GD_R, 1))),
        (5, column(GD_R, 2)),
        (8, column(GD_R, 3)),
    ]
    sd = symplectic_normalize(columns, d)
    assert is_symplectic(sd.S)
    assert sd.S == GD_S
    # the default eigenbasis normalization is symplectic as well
    sd_default = symplectic_normalize(resonance_columns(balance), d)
    assert is_symplectic(sd_default.S)
    report(5, "d = 8, pairing (-1,8),(2,5), S^T J S = J, S matches entrywise")


def test_criterion_6_gd_regularization(gd_canonical):
    d, pairing, sd, ehs, balance, reg = gd_canonical
    # every right side is a finite Laurent polynomial checked at every order;
    # in particular there is no negative order up to (and beyond) M = 13
    assert reg.regularity is None
    for g in reg.transformed.g:
        assert g.min_exp is None or g.min_exp >= 0
    ts = transform_system(balance.system, reg.change)
    ts_13 = dataclasses.replace(ts, g=tuple(g.truncate(13) for g in ts.g))
    assert verify_regularity(ts_13) is None
    assert verify_canonical(reg.change, 2) is None
    regular, dropped = new_hamiltonian(ehs.H, reg.change, balance.system.u_symbols, True)
    assert dropped == ()
    assert hamilton_equations_match(regular, reg.transformed)
    report(6, "canonical change regular to all orders; new Hamiltonian polynomial")


def test_criterion_7_desk_examples():
    # u' = u^2
    riccati = parse_system("system\nvars: u\nu' = u^2\n")
    result = analyze_system(riccati, bound=10)
    cand = result.principal_candidates()[0]
    assert cand.exponents == (1,) and [str(c) for c in cand.leading] == ["-1"]
    assert cand.K == RatMatrix([[-1]])
    assert cand.balance.coeffs[0][0] == MultiPoly.const(-1)
    assert all(cand.balance.coeffs[0][j].is_zero for j in range(1, cand.balance.order))
    reg = regularize(cand.balance)
    assert reg.change.phi[0].coeffs == {-1: MultiPoly.const(1)}
    assert reg.transformed.g[0].coeffs == {0: MultiPoly.const(-1)}

    # u1' = u2, u2' = 6 u1^2
    pole2 = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 6*u1^2\n")
    result2 = analyze_system(pole2, bound=10, order=12)
    cand2 = result2.principal_candidates()[0]
    assert cand2.exponents == (2, 3)
    assert [str(c) for c in cand2.leading] == ["1", "-2"]
    assert cand2.structure.resonances == (-1, 6)
    assert not check_principal(cand2.balance)[1].is_zero
    reg2 = regularize(cand2.balance)
    assert reg2.regularity is None
    # independent recursion oracle at an instantiated parameter value
    values = {"r2": Q(5, 7)}
    bindings = {
        name: {
            j - cand2.exponents[i]: cand2.balance.coeffs[i][j].replace(values).constant_value()
            for j in range(cand2.balance.order)
            if not cand2.balance.coeffs[i][j].is_zero
        }
        for i, name in enumerate(pole2.u_symbols)
    }
    cut = cand2.balance.order - 3 - 1
    assert residual_orders(pole2.rhs, bindings, pole2.u_symbols, cut) == [[], []]

    # u' = u^3 has no Fuchsian exponents at all
    cubic = parse_system("system\nvars: u\nu' = u^3\n")
    assert analyze_system(cubic, bound=10).verdict == "fails:exponents"
    report(7, "desk examples: u'=u^2, w''=6w^2, u'=u^3 behave as stated")


def test_criterion_8_property_suites(
    gd_system, gd_candidate, gd_reference_balance, gd_canonical, gd_hamiltonian
):
    # residual check passes at contracted order for every emitted balance
    corpus = []
    riccati = parse_system("system\nvars: u\nu' = u^2\n")
    corpus.append((riccati, analyze_system(riccati, bound=6)))
    pole2 = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 6*u1^2\n")
    corpus.append((pole2, analyze_system(pole2, bound=6, order=12)))
    nonauto = parse_system("system\nvars: u\nu' = u^2 + t\n")
    corpus.append((nonauto, analyze_system(nonauto, bound=6, order=10)))
    corpus.append((gd_system, analyze_system(gd_system, bound=5, order=13)))
    from painleve.core import Rejected, basic_resonance_check

    balances = [gd_reference_balance]
    for sysm, result in corpus:
        for cand in result.candidates:
            if cand.balance is not None:
                balances.append(cand.balance)
                bound = residual_check(sysm, cand.balance)
                assert isinstance(bound, int), (sysm.u_symbols, cand.exponents)
            if cand.K is not None and cand.leading is not None:
                # (K + I) (-k . c) = 0 for every accepted dominant balance,
                # including those that later fail the spectrum gate
                equations = dominant_equations(sysm, cand.exponents)
                dd = verify_dominant_balance(equations, cand.exponents, cand.leading)
                assert not isinstance(dd, Rejected)
                assert basic_resonance_check(dd, cand.K)

    # compose(revert(s), s) = x = compose(s, revert(s)) mod truncation
    rng = random.Random(101)
    ident = TruncatedSeries("x", {1: 1}, EXACT)
    for _ in range(10):
        coeffs = {1: Q(rng.choice((1, -1, 2)), rng.choice((1, 3)))}
        for o in range(2, 6):
            if rng.random() < 0.6:
                coeffs[o] = (
                    MultiPoly.var("r") * rng.randint(-2, 2)
                    if rng.random() < 0.4
                    else MultiPoly.const(Q(rng.randint(-3, 3)))
                )
        s = TruncatedSeries("x", coeffs, 8)
        w = revert_series(s)
        assert agrees_with(compose(s, w), ident)
        assert agrees_with(compose(w, s), ident)

    # round-trip under every emitted change of variable
    from test_regularizer import _roundtrip

    for cand in analyze_system(pole2, bound=6, order=12).principal_candidates():
        _roundtrip(cand.balance, regularize(cand.balance))
    riccati_cand = analyze_system(riccati, bound=6).principal_candidates()[0]
    _roundtrip(riccati_cand.balance, regularize(riccati_cand.balance))
    _roundtrip(gd_candidate.balance, regularize(gd_candidate.balance))
    _, _, _, _, exchanged, canonical = gd_canonical
    _roundtrip(exchanged, canonical)

    # S^T J S = J for every accepted Hamiltonian system
    one_dof = parse_hamiltonian("hamiltonian\nvars: q; p\nH = 1/2*p^2 - 2*q^3\n")
    hams = [(gd_hamiltonian, (2, 4), (5, 3), gd_candidate.balance)]
    cand1 = analyze_system(hamiltonian_to_system(one_dof), bound=5, order=12)
    hams.append((one_dof, (2,), (3,), cand1.principal_candidates()[0].balance))
    for hs, k, l, balance in hams:
        d = check_almost_weighted_homogeneous(hs, k, l)
        assert isinstance(d, int)
        pairing = symplectic_pairing(balance.structure, d)
        assert not isinstance(pairing, HamiltonianRejected)
        sd = symplectic_normalize(resonance_columns(balance), d)
        assert is_symplectic(sd.S)
        # <v, Jw> = 0 for every eigenvector pair with lambda + mu != d - 1
        rs = balance.structure
        for lam in rs.resonances:
            for mu in rs.resonances:
                if lam + mu == d - 1:
                    continue
                for v in rs.eigenbases[lam]:
                    for w in rs.eigenbases[mu]:
                        assert symplectic_product(v, w) == 0
    report(8, "residuals, reversion, round-trips, and symplectic identities hold")


def test_criterion_9_negative_controls(gd_candidate):
    # corrupted change of variable -> SingularWitness
    pole2 = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 6*u1^2\n")
    cand = analyze_system(pole2, bound=6, order=12).principal_candidates()[0]
    reg = regularize(cand.balance)
    bad = reg.change.phi[1] + TruncatedSeries.monomial("tau", -2, 3)
    corrupted = dataclasses.replace(reg.change, phi={**reg.change.phi, 1: bad})
    witness = verify_regularity(transform_system(pole2, corrupted))
    assert isinstance(witness, SingularWitness)
    assert not witness.coefficient.is_zero

    # non-paired spectrum -> symplectic Rejected
    rs = resonance_structure(RatMatrix([[-1, 0], [0, 3]]))
    out = symplectic_pairing(rs, 8)
    assert isinstance(out, HamiltonianRejected)

    # engineered inconsistent recursion -> FailureAtResonance, nonzero witness
    sysm = parse_system("system\nvars: u1,u2\nu1' = u1^2 + u1\nu2' = 2*u1*u2 - u2^2\n")
    equations = dominant_equations(sysm, (1, 1))
    dd = verify_dominant_balance(equations, (1, 1), (-1, -1))
    K = kowalevskian(equations, dd)
    rs2 = resonance_structure(K)
    failure = expand_balance(sysm, dd, rs2, 4)
    assert isinstance(failure, FailureAtResonance)
    assert failure.j == 1
    assert not failure.witness.is_zero
    report(9, "corruption, unpaired spectra, and inconsistency are all caught")
