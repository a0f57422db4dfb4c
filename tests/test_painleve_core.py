import dataclasses
from fractions import Fraction as Q
from pathlib import Path

import pytest

from oracles import matvec, residual_orders
from painleve import algebra, core
from painleve.algebra import MultiPoly, RatMatrix
from painleve.core import (
    FailureAtResonance,
    NonConstantKowalevskian,
    Rejected,
    ResidualWitness,
    ResonanceStructure,
    StructureFailure,
    Unsolved,
    analyze_system,
    basic_resonance_check,
    DominantData,
    check_principal,
    dominant_equations,
    enumerate_fuchsian_exponents,
    expand_balance,
    expanded_candidate,
    kowalevskian,
    resonance_structure,
    residual_check,
    solve_dominant,
    verify_dominant_balance,
)
from painleve.model import hamiltonian_to_system, parse_input, parse_system

DATA = Path(__file__).parent / "data"

u = MultiPoly.var("u")


def test_dominant_part_degree_slice():
    f = u**2 + 1
    assert f.weighted_part({"u": 1}, 2) == u**2
    assert f.weighted_degree({"u": 1}) == 2  # the top slice is the one above
    assert f.weighted_part({"u": 1}, 3).is_zero


def test_dominant_part_two_variables():
    u1, u2 = MultiPoly.var("u1"), MultiPoly.var("u2")
    f2 = 6 * u1**2 + u2
    # weights (2,3): 6 u1^2 sits at degree 4 = k2 + 1
    assert f2.weighted_part({"u1": 2, "u2": 3}, 4) == 6 * u1**2


def test_dominant_part_gd_commutes_with_differentiation(gd_hamiltonian, gd_system):
    # slice of dH/dp_i at degree l_i + 1 equals d(H^D)/dp_i for the GD weights
    weights = {"q1": 2, "q2": 4, "p1": 5, "p2": 3}
    H = gd_hamiltonian.H
    HD = H.weighted_part(weights, H.weighted_degree(weights))
    assert HD == H  # all of H: weighted homogeneous
    f1 = gd_system.rhs[0]  # dH/dp1, k-target l1 + 1 = 3... exponents (2,4,5,3)
    assert f1.weighted_part(weights, 3) == HD.partial("p1")
    assert f1.weighted_part(weights, 3) == -2 * MultiPoly.var("p2")


def _data_system(name):
    parsed = parse_input((DATA / name).read_text())
    return parsed if name.endswith(".sys") else hamiltonian_to_system(parsed)


@pytest.mark.parametrize("name, calls", [("gd.ham", 68), ("pole2.sys", 8), ("riccati.sys", 1)])
def test_dominant_part_built_once_per_exponent_vector(monkeypatch, name, calls):
    # one weighted part per right side and exponent vector; the dominant
    # check and the Kowalevskian read the equations built for the solve
    sys = _data_system(name)
    vectors = enumerate_fuchsian_exponents(sys)
    count = 0
    weighted_part = MultiPoly.weighted_part

    def counted(self, weights, degree):
        nonlocal count
        count += 1
        return weighted_part(self, weights, degree)

    monkeypatch.setattr(MultiPoly, "weighted_part", counted)
    result = analyze_system(sys)
    assert count == sys.n * len(vectors) == calls
    reached = [c for c in result.candidates if c.K is not None]
    assert reached
    equations = {c.exponents: dominant_equations(sys, c.exponents) for c in reached}
    count = 0
    for cand in reached:
        dd = verify_dominant_balance(equations[cand.exponents], cand.exponents, cand.leading)
        assert kowalevskian(equations[cand.exponents], dd) == cand.K
    assert count == 0


@pytest.mark.parametrize(
    "text, exponents",
    [
        ("system\nvars: u\nu' = 2\n", (-1,)),  # regular: no singularity to find
        ((DATA / "pole2.sys").read_text(), (0, 0)),
        ((DATA / "pole2.sys").read_text(), (0, -1)),
    ],
)
def test_pinned_exponents_outside_the_search_box_fail_the_exponents(text, exponents):
    # a pinned vector must lie where the search looks: k >= 0, k != 0, Fuchsian
    result = analyze_system(parse_input(text), exponents=exponents)
    assert (result.verdict, result.candidates) == ("fails:exponents", [])


def test_enumerate_cubic_empty():
    sys = parse_system("system\nvars: u\nu' = u^3\n")
    assert enumerate_fuchsian_exponents(sys, bound=10) == []


def test_enumerate_pole2(pole2_system):
    assert (2, 3) in enumerate_fuchsian_exponents(pole2_system, bound=10)


def test_enumerate_gd(gd_system):
    ks = enumerate_fuchsian_exponents(gd_system, bound=5)
    assert (2, 4, 5, 3) in ks
    assert (2, 2, 5, 3) not in ks  # the natural exponents are not Fuchsian


def test_enumerate_bound_validation():
    sys = parse_system("system\nvars: u\nu' = u^2\n")
    with pytest.raises(ValueError):
        enumerate_fuchsian_exponents(sys, bound=0)


def test_verify_dominant_riccati(riccati_system):
    equations = dominant_equations(riccati_system, (1,))
    dd = verify_dominant_balance(equations, (1,), (Q(-1),))
    assert dd == DominantData((1,), (MultiPoly.const(-1),))
    rejected = verify_dominant_balance(equations, (1,), (Q(2),))
    assert isinstance(rejected, Rejected) and not rejected.residual.is_zero


def test_verify_dominant_pole2(pole2_system):
    dd = verify_dominant_balance(dominant_equations(pole2_system, (2, 3)), (2, 3), (Q(1), Q(-2)))
    assert not isinstance(dd, Rejected)


def test_verify_dominant_gd(gd_system):
    k = (2, 4, 5, 3)
    dd = verify_dominant_balance(dominant_equations(gd_system, k), k, (1, 0, -1, 1))
    assert not isinstance(dd, Rejected)


def test_solve_dominant_gd_lifted(gd_system):
    solutions = solve_dominant(dominant_equations(gd_system, (2, 4, 5, 3)))
    assert (Q(1), Q(0), Q(-1), Q(1)) in solutions
    assert (Q(3), Q(9), Q(9), Q(3)) in solutions


def test_solve_dominant_branches_on_common_factor():
    # u1' = u1 u2, u2' = u1 u2 needs the monomial-factor branch to reach
    # the genuine balance c = (-1, -1)
    sys = parse_system("system\nvars: u1,u2\nu1' = u1*u2\nu2' = u1*u2\n")
    assert solve_dominant(dominant_equations(sys, (1, 1))) == [(Q(-1), Q(-1))]


def test_solve_dominant_stall_is_unsolved():
    # fully coupled quadratics: no linear handle, no univariate equation,
    # no common monomial factor, so the elimination must give up
    sys = parse_system(
        "system\nvars: u1,u2\nu1' = u1^2 + u2^2 + u1*u2\nu2' = u1^2 - u2^2\n"
    )
    assert isinstance(solve_dominant(dominant_equations(sys, (1, 1))), Unsolved)


def test_solve_dominant_large_linear_factor_is_exact():
    # 10^13 c^2 + c = c (10^13 c + 1): the linear factor is solved as
    # -const/lead, with no divisor search of the large coefficient
    sys = parse_system("system\nvars: u\nu' = 10000000000000*u^2\n")
    assert solve_dominant(dominant_equations(sys, (1,))) == [(Q(-1, 10**13),)]
    assert analyze_system(sys).verdict == "principal"


def test_solve_dominant_capped_root_search_is_unsolved():
    # c1 (2*10^14 c1^2 - 2) has the rational roots +-1/10^7, but the
    # quadratic factor's lead is past the search cap: report, do not drop
    sys = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 200000000000000*u1^3\n")
    assert solve_dominant(dominant_equations(sys, (1, 2))) == Unsolved("rational-root search capped")
    [cand] = analyze_system(sys).candidates
    assert cand.verdict == "fails:dominant"
    assert cand.detail == Unsolved("rational-root search capped")


def test_solve_dominant_checks_parameterized_equations_identically():
    # at k = (1, 2), c1 = a c2 and c2 = 0 resolve to numbers; checking
    # -a c2 + c1 = 0 at them must not need a value for the parameter a
    sys = parse_system("system\nvars: u, v\nparams: a\nu' = -a*v\nv' = 81 - u\n")
    assert solve_dominant(dominant_equations(sys, (1, 2))) == []
    assert analyze_system(sys).verdict == "fails:dominant"


def test_solve_dominant_budget_exhaustion_is_unsolved(monkeypatch):
    sys = hamiltonian_to_system(parse_input((DATA / "henon_heiles.ham").read_text()))
    exponents = enumerate_fuchsian_exponents(sys, 10)
    equations = {k: dominant_equations(sys, k) for k in exponents}
    assert all(not isinstance(solve_dominant(equations[k]), Unsolved) for k in exponents)
    monkeypatch.setattr(core, "SEARCH_BUDGET", 5)
    budget = Unsolved("search budget exhausted")
    exhausted = [k for k in exponents if solve_dominant(equations[k]) == budget]
    assert exhausted
    reports = {c.exponents: c for c in analyze_system(sys).candidates}
    for k in exhausted:
        assert reports[k].verdict == "fails:dominant"
        assert reports[k].detail == budget


def test_capped_spectrum_search_fails_the_spectrum(monkeypatch):
    # lambda^2 - 5 lambda - 6: the constant 6 is past a cap of 5
    K = RatMatrix([[2, 1], [12, 3]])
    assert isinstance(resonance_structure(K), ResonanceStructure)
    monkeypatch.setattr(algebra, "ROOT_SEARCH_CAP", 5)
    capped = StructureFailure("spectrum_search_capped", "rational-root search capped")
    assert resonance_structure(K) == capped
    [cand] = analyze_system(parse_input((DATA / "pole2.sys").read_text())).candidates
    assert cand.verdict == "fails:spectrum"
    assert cand.detail == capped


def test_kowalevskian_riccati(riccati_system):
    equations = dominant_equations(riccati_system, (1,))
    dd = verify_dominant_balance(equations, (1,), (Q(-1),))
    assert kowalevskian(equations, dd) == RatMatrix([[-1]])


def test_kowalevskian_pole2(pole2_system):
    equations = dominant_equations(pole2_system, (2, 3))
    dd = verify_dominant_balance(equations, (2, 3), (1, -2))
    assert kowalevskian(equations, dd) == RatMatrix([[2, 1], [12, 3]])


def test_kowalevskian_gd(gd_candidate):
    expected = RatMatrix(
        [[2, 0, 0, -2], [-2, 4, -2, -2], [12, -6, 5, 2], [-6, 2, 0, 3]]
    )
    assert gd_candidate.K == expected


def test_kowalevskian_nonconstant_reported():
    # u2' = u1*u2 keeps c2 free but puts it into the matrix entries
    sys = parse_system("system\nvars: u1,u2\nu1' = u1^2\nu2' = u1*u2\n")
    r = MultiPoly.var("r")
    equations = dominant_equations(sys, (1, 1))
    dd = verify_dominant_balance(equations, (1, 1), (MultiPoly.const(-1), r))
    assert not isinstance(dd, Rejected)
    with pytest.raises(NonConstantKowalevskian, match=r"entry \(1,0\) .*: r$"):
        kowalevskian(equations, dd)


def test_kowalevskian_nonconstant_diagonal_names_the_k_entry():
    # c = (-1, 0, r): d(f_2^D)/d(u2) = u1 + u3 = r - 1, and the message names
    # K's entry (1,1), which adds k_2 = 1 to it
    sys = parse_system(
        "system\nvars: u1,u2,u3\nu1' = u1^2\nu2' = u1*u2 + u2*u3\nu3' = u1*u3\n"
    )
    k = (1, 1, 1)
    equations = dominant_equations(sys, k)
    dd = verify_dominant_balance(equations, k, (-1, 0, MultiPoly.var("r")))
    assert not isinstance(dd, Rejected)
    with pytest.raises(NonConstantKowalevskian, match=r"entry \(1,1\) .*: r$"):
        kowalevskian(equations, dd)


def test_resonance_structure_simple():
    rs = resonance_structure(RatMatrix([[-1]]))
    assert isinstance(rs, ResonanceStructure)
    assert rs.resonances == (-1,)
    assert rs.eigenbases[-1] == ((Q(1),),)


def test_resonance_structure_pole2():
    rs = resonance_structure(RatMatrix([[2, 1], [12, 3]]))
    assert isinstance(rs, ResonanceStructure)
    assert rs.resonances == (-1, 6)
    assert rs.multiplicities == (1, 1)


def test_resonance_structure_failures():
    out = resonance_structure(RatMatrix([[0, 1], [-1, 0]]))
    assert isinstance(out, StructureFailure) and out.reason == "non_integer_spectrum"
    out = resonance_structure(RatMatrix([[-1, 0], [0, -2]]))
    assert isinstance(out, StructureFailure) and out.reason == "negative_resonance"
    out = resonance_structure(RatMatrix([[2, 0], [0, 3]]))
    assert isinstance(out, StructureFailure) and out.reason == "minus_one_multiplicity"
    out = resonance_structure(RatMatrix([[-1, 0], [0, -1]]))
    assert isinstance(out, StructureFailure) and out.reason == "minus_one_multiplicity"
    jordan = RatMatrix([[-1, 0, 0], [0, 2, 1], [0, 0, 2]])
    out = resonance_structure(jordan)
    assert isinstance(out, StructureFailure) and out.reason == "not_diagonalizable"


def test_rejected_spectrum_forms_no_eigenbasis(monkeypatch):
    # the kernels of K - rI are formed only for a spectrum that passed the
    # non-integer and negative-resonance gates
    real = algebra.nullspace
    kernels = []

    def counting(matrix):
        kernels.append(matrix)
        return real(matrix)

    for module in (algebra, core):
        if getattr(module, "nullspace", None) is real:
            monkeypatch.setattr(module, "nullspace", counting)
    # eigenvalues -1 and +-i: an integer root before a non-integer remainder
    out = resonance_structure(RatMatrix([[-1, 0, 0], [0, 0, 1], [0, -1, 0]]))
    assert out.reason == "non_integer_spectrum"
    assert out.detail == MultiPoly.var("lambda") ** 2 + 1
    out = resonance_structure(RatMatrix([[-1, 0], [0, -2]]))
    assert out == StructureFailure("negative_resonance", (-2,))
    assert kernels == []
    assert isinstance(resonance_structure(RatMatrix([[2, 1], [12, 3]])), ResonanceStructure)
    assert len(kernels) == 2  # the patch reaches the kernels that are formed


def test_basic_resonance_check(riccati_system, pole2_system, gd_system, gd_candidate):
    dd1 = verify_dominant_balance(dominant_equations(riccati_system, (1,)), (1,), (Q(-1),))
    assert basic_resonance_check(dd1, RatMatrix([[-1]]))
    dd2 = verify_dominant_balance(dominant_equations(pole2_system, (2, 3)), (2, 3), (1, -2))
    assert basic_resonance_check(dd2, RatMatrix([[2, 1], [12, 3]]))
    k = (2, 4, 5, 3)
    dd3 = verify_dominant_balance(dominant_equations(gd_system, k), k, (1, 0, -1, 1))
    assert basic_resonance_check(dd3, gd_candidate.K)


def test_expand_balance_riccati_is_exact(riccati_candidate):
    balance = riccati_candidate.balance
    assert balance.coeffs[0][0] == MultiPoly.const(-1)
    assert all(balance.coeffs[0][j].is_zero for j in range(1, balance.order))


def test_expand_balance_pole2_structure(pole2_candidate):
    balance = pole2_candidate.balance
    rs = balance.structure
    # the parameter enters at j = 6 along the eigenvector (1, 4) direction
    a6 = [balance.coeffs[i][6] for i in range(2)]
    d6 = [a.partial("r2") for a in a6]
    assert all(d.is_constant for d in d6)
    vals = [d.constant_value() for d in d6]
    assert vals[1] == 4 * vals[0] != 0
    for j in range(1, balance.order):
        if j == 6:
            continue
        assert all(balance.coeffs[i][j].is_zero for i in range(2))


def test_expand_balance_pole2_against_independent_oracle(pole2_system, pole2_candidate):
    balance = pole2_candidate.balance
    cut = balance.order - 3 - 1
    value = {"r2": Q(5, 7)}
    bindings = {}
    for i, name in enumerate(pole2_system.u_symbols):
        k_i = balance.dominant.exponents[i]
        bindings[name] = {
            j - k_i: balance.coeffs[i][j].replace(value).constant_value()
            for j in range(balance.order)
            if not balance.coeffs[i][j].is_zero
        }
    bad = residual_orders(pole2_system.rhs, bindings, pole2_system.u_symbols, cut)
    assert bad == [[], []]


def test_expand_balance_parameter_appears_linearly(gd_candidate):
    balance = gd_candidate.balance
    for name, r in balance.parameters:
        for i in range(4):
            coeff = balance.coeffs[i][r]
            assert coeff.degree_in(name) <= 1
            assert coeff.partial(name).is_constant


def test_expand_balance_parameters_respect_resonance_order(gd_candidate):
    balance = gd_candidate.balance
    for name, r in balance.parameters:
        for i in range(4):
            for j in range(balance.order):
                if j < r:
                    assert balance.coeffs[i][j].degree_in(name) == 0


def test_expand_balance_inconsistent_recursion():
    sys = parse_system("system\nvars: u1,u2\nu1' = u1^2 + u1\nu2' = 2*u1*u2 - u2^2\n")
    equations = dominant_equations(sys, (1, 1))
    dd = verify_dominant_balance(equations, (1, 1), (-1, -1))
    assert not isinstance(dd, Rejected)
    K = kowalevskian(equations, dd)
    rs = resonance_structure(K)
    assert isinstance(rs, ResonanceStructure)
    assert rs.resonances == (-1, 1)
    out = expand_balance(sys, dd, rs, 4)
    assert isinstance(out, FailureAtResonance)
    assert out.j == 1
    assert not out.witness.is_zero


def test_check_principal_riccati(riccati_candidate):
    matrix, det = check_principal(riccati_candidate.balance)
    assert matrix == ((MultiPoly.const(1),),)  # the basic vector -k c alone
    assert det == MultiPoly.const(1)


def test_check_principal_gd(gd_candidate):
    matrix, det = check_principal(gd_candidate.balance)
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    assert not det.is_zero


def test_check_principal_stripped_parameter(gd_candidate):
    # three columns for four variables: no square matrix, so a zero determinant
    stripped = dataclasses.replace(
        gd_candidate.balance, parameters=gd_candidate.balance.parameters[:-1]
    )
    matrix, det = check_principal(stripped)
    assert len(matrix) == 4 and all(len(row) == 3 for row in matrix)
    assert det.is_zero


def test_residual_check_passes(gd_system, gd_candidate):
    bound = residual_check(gd_system, gd_candidate.balance)
    assert isinstance(bound, int) and bound == gd_candidate.balance.order - 5 - 1


def test_residual_check_detects_corruption(pole2_system, pole2_candidate):
    balance = pole2_candidate.balance
    coeffs = [list(row) for row in balance.coeffs]
    coeffs[0][3] = coeffs[0][3] + 1
    corrupted = dataclasses.replace(
        balance, coeffs=tuple(tuple(row) for row in coeffs)
    )
    witness = residual_check(pole2_system, corrupted)
    assert isinstance(witness, ResidualWitness)
    assert not witness.coefficient.is_zero


def test_fuchsian_inequality_invariant(gd_system, gd_candidate):
    weights = dict(zip(gd_system.u_symbols, gd_candidate.exponents))
    for k_i, f in zip(gd_candidate.exponents, gd_system.rhs):
        wd = f.weighted_degree(weights)
        assert wd is None or wd <= k_i + 1


def test_parameterized_leading_coefficients_resonance_zero():
    # u1' = u1^2, u2' = u2: K = diag(-1, 0), leading (−1, r) is a genuine
    # resonance-0 family with K (dc/dr) = 0
    sys = parse_system("system\nvars: u1,u2\nu1' = u1^2\nu2' = u2\n")
    r = MultiPoly.var("r")
    result = analyze_system(sys, order=8, exponents=(1, 0), leading=(MultiPoly.const(-1), r))
    assert result.verdict == "principal"
    cand = result.principal_candidates()[0]
    assert cand.structure.resonances == (-1, 0)
    K = cand.K
    dc = [c.partial("r") for c in cand.balance.dominant.leading]
    assert all(x.is_constant for x in dc)
    applied = matvec(K, [x.constant_value() for x in dc])
    assert all(x == 0 for x in applied)
    # exp-series balance: a_{2,j} = r / j!
    assert cand.balance.coeffs[1][3] == r * Q(1, 6)
    assert residual_check(sys, cand.balance) == 8 - max(1, 0) - 1


def test_analyze_system_gd_overall(gd_analysis):
    assert gd_analysis.verdict == "principal"
    verdicts = {c.verdict for c in gd_analysis.candidates}
    assert "principal" in verdicts


def test_analyze_system_with_spec_overrides(gd_system):
    result = analyze_system(
        gd_system,
        order=10,
        exponents=(2, 4, 5, 3),
        leading=tuple(MultiPoly.const(x) for x in (1, 0, -1, 1)),
    )
    assert result.verdict == "principal"
    assert len(result.candidates) == 1
    assert result.candidates[0].balance.order == 10


def test_leading_without_exponents_is_refused(gd_system):
    # a leading vector solves the dominant balance of one exponent vector; it
    # must not be applied to every exponent vector of a search
    with pytest.raises(ValueError, match="exponents"):
        analyze_system(gd_system, leading=tuple(MultiPoly.const(x) for x in (1, 0, -1, 1)))


def test_expanded_candidate_is_the_record_of_its_balance(gd_analysis):
    expanded = [c for c in gd_analysis.candidates if c.balance is not None]
    assert {c.verdict for c in expanded} == {"principal"}
    for cand in expanded:
        assert expanded_candidate(cand.balance) == cand
    with pytest.raises(dataclasses.FrozenInstanceError):
        expanded[0].verdict = "not_principal"


def test_declared_parameter_names_the_resonance_parameter_without_a_spec():
    # Okamoto's Painleve I with one declared name and one resonance parameter
    hs = parse_input("hamiltonian\nvars: q; p\nparams: a\nH = 1/2*p^2 - 2*q^3 - t*q\n")
    cand = analyze_system(hamiltonian_to_system(hs)).principal_candidates()[0]
    assert cand.balance.parameters == (("a", 6),)
