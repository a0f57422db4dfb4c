import dataclasses
import json
import random
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest

import oracles
from painleve.algebra import MultiPoly, RatMatrix, poly_det, rank
from painleve.cli import main
from painleve.core import (
    analyze_candidate,
    analyze_system,
    check_principal,
    dominant_equations,
    residual_check,
    resonance_structure,
)
from painleve.hamiltonian import (
    CanonicalWitness,
    HamiltonianRejected,
    SymplecticData,
    apply_exchanges,
    build_canonical_change,
    canonical_exchanges,
    check_almost_weighted_homogeneous,
    exchange_permutation,
    hamilton_equations_match,
    new_hamiltonian,
    resonance_columns,
    symplectic_normalize,
    symplectic_pairing,
    symplectic_product,
    verify_canonical,
)
from painleve.model import HamiltonianSystem, hamiltonian_to_system, parse_hamiltonian
from painleve.regularize import ChangeOfVariable, regularize
from painleve.series import TruncatedSeries

DATA = Path(__file__).parent / "data"

GD_K = (2, 4)
GD_L = (5, 3)

REF_R = RatMatrix(
    [[2, 1, -4, -2], [0, 3, -6, 9], [-5, 2, 1, -22], [3, 0, 6, 6]]
)
REF_S = RatMatrix(
    [
        [2, Q(1, 3), Q(2, 81), Q(-4, 9)],
        [0, 1, Q(-1, 9), Q(-2, 3)],
        [-5, Q(2, 3), Q(22, 81), Q(1, 9)],
        [3, 0, Q(-2, 27), Q(2, 3)],
    ]
)


@pytest.fixture(scope="module")
def one_dof():
    # H = p^2/2 - 2 q^3 is the pole2 system in Hamiltonian form
    hs = parse_hamiltonian("hamiltonian\nvars: q; p\nH = 1/2*p^2 - 2*q^3\n")
    sys = hamiltonian_to_system(hs)
    cand = analyze_system(sys, bound=5, order=12).principal_candidates()[0]
    return hs, sys, cand


def test_structure_matrices():
    J = oracles.J_matrix(2)
    assert oracles.transpose(J) == oracles.matrix_scale(J, -1)
    assert J * J == oracles.matrix_scale(RatMatrix.identity(4), -1)


def test_weighted_homogeneous_gd(gd_hamiltonian):
    assert check_almost_weighted_homogeneous(gd_hamiltonian, GD_K, GD_L) == 8


def test_weighted_homogeneous_one_dof():
    hs = parse_hamiltonian("hamiltonian\nvars: q; p\nH = 1/2*p^2 + q^3\n")
    assert check_almost_weighted_homogeneous(hs, (2,), (3,)) == 6


def test_weighted_homogeneous_degenerate_gate():
    hs = parse_hamiltonian("hamiltonian\nvars: q; p\nH = q*p\n")
    out = check_almost_weighted_homogeneous(hs, (0,), (0,))
    assert isinstance(out, HamiltonianRejected) and out.reason == "degenerate"


def test_weighted_homogeneous_rejects_bad_pair():
    hs = parse_hamiltonian("hamiltonian\nvars: q1,q2; p1,p2\nH = q1*p1 + q2^2*p2\n")
    out = check_almost_weighted_homogeneous(hs, (1, 1), (1, 2))
    assert isinstance(out, HamiltonianRejected)
    assert out.reason == "not_almost_weighted_homogeneous"


def test_pairing_gd(gd_candidate):
    pairing = symplectic_pairing(gd_candidate.balance.structure, 8)
    assert pairing == [(-1, 8), (2, 5)]


def test_pairing_orthogonality_gd_reference_columns():
    cols = [oracles.column(REF_R, j) for j in range(4)]
    resonances = (-1, 2, 5, 8)
    for a in range(4):
        for b in range(4):
            if resonances[a] + resonances[b] != 7:
                assert symplectic_product(cols[a], cols[b]) == 0


def test_symplectic_product_is_the_form_of_J():
    rng = random.Random(5)
    for n in (1, 2, 3):
        J = oracles.J_matrix(n)
        for _ in range(10):
            v = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 * n)]
            w = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 * n)]
            assert symplectic_product(v, w) == sum(a * b for a, b in zip(v, oracles.matvec(J, w)))


def test_nonorthogonal_eigenvectors_pair_and_are_rejected_by_normalize():
    # K = diag(-1, 5, 2, 8): the eigenvectors e1 (at -1) and e3 (at 2) have
    # <e1, J e3> = 1 although -1 + 2 != d - 1 = 7.  The multiplicities pair,
    # and the one orthogonality check, in normalize, rejects the columns.
    rs = resonance_structure(RatMatrix([[-1, 0, 0, 0], [0, 5, 0, 0], [0, 0, 2, 0], [0, 0, 0, 8]]))
    assert symplectic_pairing(rs, 8) == [(-1, 8), (2, 5)]
    columns = [(lam, rs.eigenbases[lam][0]) for lam in rs.resonances]
    out = symplectic_normalize(columns, 8)
    assert isinstance(out, HamiltonianRejected) and out.reason == "nonzero_pairing"
    assert out.detail == {"cols": (0, 1), "value": Q(1)}


def test_pairing_rejects_unpaired_spectrum():
    rs = resonance_structure(RatMatrix([[-1, 0], [0, 3]]))
    out = symplectic_pairing(rs, 8)
    assert isinstance(out, HamiltonianRejected) and out.reason == "unpaired_resonance"


def test_symplectic_normalize_default_columns(gd_candidate):
    columns = resonance_columns(gd_candidate.balance)
    sd = symplectic_normalize(columns, 8)
    assert oracles.is_symplectic(sd.S)
    # S keeps the first half and rescales the reversed second half
    by_resonance = dict(columns)
    for j, lam in enumerate((-1, 2, 8, 5)):
        assert rank([oracles.column(sd.S, j), by_resonance[lam]]) == 1
    assert [oracles.column(sd.S, j) for j in range(2)] == [by_resonance[-1], by_resonance[2]]


def test_symplectic_normalize_reference_columns():
    # the published normalization choice: R's columns with the second scaled
    # by 1/3; the conjugate half then comes out entrywise equal to the
    # reference symplectic matrix
    columns = [
        (-1, oracles.column(REF_R, 0)),
        (2, tuple(x * Q(1, 3) for x in oracles.column(REF_R, 1))),
        (5, oracles.column(REF_R, 2)),
        (8, oracles.column(REF_R, 3)),
    ]
    sd = symplectic_normalize(columns, 8)
    assert sd.S == REF_S


def test_symplectic_normalize_fixes_signs():
    # identity-like resonance basis with J-incompatible signs: one rescale
    columns = [(-1, (Q(0), Q(1))), (2, (Q(1), Q(0)))]
    sd = symplectic_normalize(columns, 2)
    assert oracles.is_symplectic(sd.S)
    assert sd.S == RatMatrix([[0, -1], [1, 0]])


def _vector(*entries) -> tuple:
    return tuple(Q(x) for x in entries)


def test_symplectic_normalize_merged_block():
    # synthetic self-paired block at lambda = (d-1)/2 = 2 with d = 5; no
    # corpus input reaches the merged-block split, so S is pinned entrywise
    e = lambda i: tuple(Q(1) if j == i else Q(0) for j in range(4))
    columns = [(-1, e(0)), (2, e(1)), (2, e(3)), (5, e(2))]
    sd = symplectic_normalize(columns, 5)
    assert oracles.is_symplectic(sd.S)
    assert sd.S == RatMatrix.identity(4)
    # a 4-dimensional block in (q2, q3, p2, p3): the Gram-Schmidt split
    # pairs the first vector with the second and reduces the other two
    columns = [
        (-1, _vector(1, 0, 0, 1, 0, 0)),
        (2, _vector(0, 1, 0, 0, 0, 1)),
        (2, _vector(0, 0, 1, 0, 2, 0)),
        (2, _vector(0, 1, 0, 0, -1, 0)),
        (2, _vector(0, 0, 1, 0, 0, 1)),
        (5, _vector(0, 0, 0, 2, 0, 0)),
    ]
    sd = symplectic_normalize(columns, 5)
    assert oracles.is_symplectic(sd.S)
    assert sd.S == RatMatrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, -1, 0, 0, Q(1, 3)],
            [0, 0, 1, 0, 1, Q(2, 3)],
            [1, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 2, Q(2, 3)],
            [0, 1, -2, 0, 0, Q(2, 3)],
        ]
    )


def test_symplectic_normalize_double_resonances_with_a_full_gram_block():
    # 3 dof, resonances -1, 2, 2, 5, 5, 8 (d = 8): the Gram block phi pairs
    # the 2-eigenvectors with both 5-eigenvectors, so the rescaling is a
    # full 2 x 2 inverse, not a per-column division
    columns = [
        (-1, _vector(1, 0, 0, 3, 0, 0)),
        (2, _vector(0, 1, 1, 0, 0, 0)),
        (2, _vector(0, 1, -2, 0, 0, 0)),
        (5, _vector(0, 0, 0, 0, 2, Q(1, 2))),
        (5, _vector(0, 0, 0, 0, 1, -1)),
        (8, _vector(0, 0, 0, 2, 0, 0)),
    ]
    second_half = [vec for _, vec in reversed(columns[3:])]
    gram = [[symplectic_product(v, w) for w in second_half] for _, v in columns[:3]]
    assert [row[1:] for row in gram[1:]] == [[0, Q(5, 2)], [3, 1]]
    sd = symplectic_normalize(columns, 8)
    assert oracles.is_symplectic(sd.S)
    assert sd.S == RatMatrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 1, -2, 0, 0, 0],
            [3, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, Q(2, 3), Q(1, 3)],
            [0, 0, 0, 0, Q(1, 3), Q(-1, 3)],
        ]
    )
    # the first half is the 2-eigenvectors unchanged, the second half spans
    # the 5-eigenspace
    assert [oracles.column(sd.S, j) for j in range(3)] == [vec for _, vec in columns[:3]]
    assert rank([oracles.column(sd.S, 4), oracles.column(sd.S, 5), *second_half[1:]]) == 2


def test_symplectic_normalize_rejects_nonzero_pairing():
    # break orthogonality: resonances say the columns must be J-orthogonal
    columns = [(-1, (Q(1), Q(1))), (2, (Q(0), Q(1)))]
    out = symplectic_normalize(columns, 9)  # -1 + 2 != 8
    assert isinstance(out, HamiltonianRejected)


def test_canonical_exchanges_identity_case():
    sd_like = symplectic_normalize([(-1, (Q(1), Q(0))), (2, (Q(0), Q(1)))], 2)
    out = canonical_exchanges(sd_like)
    assert out.exchange_set == ()
    assert out.row_swaps == ()


def test_canonical_exchanges_forced_swap():
    sd = symplectic_normalize([(-1, (Q(0), Q(1))), (2, (Q(1), Q(0)))], 2)
    out = canonical_exchanges(sd)
    assert out.exchange_set == (0,)
    assert oracles.is_symplectic(out.S)
    assert out.S.entry(0, 0) != 0


def test_canonical_exchanges_gd(gd_candidate):
    sd = symplectic_normalize(resonance_columns(gd_candidate.balance), 8)
    out = canonical_exchanges(sd)
    assert out.exchange_set == () and out.row_swaps == ()
    # leading principal minors of the top-left block are nonzero
    A = [[out.S.entry(i, j) for j in range(2)] for i in range(2)]
    assert A[0][0] != 0
    assert A[0][0] * A[1][1] - A[0][1] * A[1][0] != 0


def _block_diag_symplectic(A: RatMatrix) -> SymplecticData:
    """S = diag(A, A^-T), symplectic for any invertible A."""
    n = A.rows
    B = oracles.transpose(A.inverse())
    rows = [list(A.row(i)) + [Q(0)] * n for i in range(n)]
    rows += [[Q(0)] * n + list(B.row(i)) for i in range(n)]
    return SymplecticData(S=RatMatrix(rows))


def _leading_minors(S: RatMatrix, n: int) -> list:
    # cofactor expansion, independent of the elimination under test
    return [
        poly_det([[MultiPoly.const(S.entry(i, j)) for j in range(m)] for i in range(m)])
        for m in range(1, n + 1)
    ]


def test_canonical_exchanges_chained_swaps():
    A = RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    out = canonical_exchanges(_block_diag_symplectic(A))
    assert out.exchange_set == ()
    assert out.row_swaps == ((0, 2), (1, 2))
    assert all(not m.is_zero for m in _leading_minors(out.S, 3))
    assert oracles.is_symplectic(out.S)


def test_canonical_exchanges_random_blocks_are_lu_decomposable():
    rng = random.Random(97)
    chained = 0
    for n in (3, 4, 5):
        done = 0
        while done < 40:
            A = RatMatrix([[rng.choice((0, 0, 0, 1, -2, Q(1, 3))) for _ in range(n)] for _ in range(n)])
            if rank(A.data) < n:
                continue
            done += 1
            out = canonical_exchanges(_block_diag_symplectic(A))
            chained += len(out.row_swaps) >= 2
            assert all(not m.is_zero for m in _leading_minors(out.S, n))
            assert oracles.is_symplectic(out.S)
    assert chained >= 20


@pytest.fixture(scope="module")
def henon_heiles():
    # the principal balance whose canonical exchange is the row swap (0, 1)
    hs = parse_hamiltonian((DATA / "henon_heiles.ham").read_text())
    cand = analyze_system(hamiltonian_to_system(hs)).principal_candidates()[0]
    d = check_almost_weighted_homogeneous(hs, cand.exponents[:2], cand.exponents[2:])
    sd = canonical_exchanges(symplectic_normalize(resonance_columns(cand.balance), d))
    return hs, cand.balance, sd


def test_apply_exchanges_preserves_hamiltonian_form(henon_heiles):
    _, balance, _ = henon_heiles
    rng = random.Random(41)
    names = ("q1", "q2", "p1", "p2")
    for _ in range(6):
        H = MultiPoly.zero()
        for _ in range(5):
            exps = tuple(rng.randrange(3) for _ in names)
            H = H + MultiPoly(names, {exps: rng.randint(-2, 2)})
        hs = HamiltonianSystem(q_symbols=("q1", "q2"), p_symbols=("p1", "p2"), H=H)

        # force an exchange on dof 0 and a relabeling swap
        sd = SymplecticData(
            S=RatMatrix.identity(4),
            exchange_set=(0,),
            row_swaps=((0, 1),),
        )
        assert exchange_permutation(sd) == ((1, 1), (2, -1), (3, 1), (0, 1))
        # the balance (of another H) is only relabelled; it carries the new system
        new_hs, new_balance = apply_exchanges(hs, balance, sd)
        # the exchanged H generates the transformed equations: check that the
        # new system is the old one conjugated by the linear canonical map
        old = hamiltonian_to_system(hs)
        new = hamiltonian_to_system(new_hs)
        assert new_balance.system == new
        # forward map x_new = E x_old: new q1 = old q2, new q2 = -old p1,
        # new p1 = old p2, new p2 = old q1  (exchange dof 0, then swap dofs)
        new_exprs = {
            "q1": MultiPoly.var("q2"),
            "q2": -MultiPoly.var("p1"),
            "p1": MultiPoly.var("p2"),
            "p2": MultiPoly.var("q1"),
        }
        for new_name, expr_in_old in new_exprs.items():
            i = new.u_symbols.index(new_name)
            # rewrite f_new (a polynomial in new symbols) in old variables
            lhs = new.rhs[i].replace(new_exprs)
            # d/dt of expr_in_old along the old system
            rhs = MultiPoly.zero()
            for j, old_name in enumerate(old.u_symbols):
                rhs = rhs + expr_in_old.partial(old_name) * old.rhs[j]
            assert lhs == rhs, new_name


@pytest.mark.parametrize(
    "exchange_set,row_swaps,rederived",
    [
        ((), (), True),
        ((), ((0, 1),), True),  # the balance's own canonical exchange
        ((0,), ((0, 1),), False),
        ((0, 1), (), False),
    ],
    ids=["identity", "row-swap", "exchange-0-swap", "exchange-both"],
)
def test_exchanged_balance_solves_exchanged_system(henon_heiles, exchange_set, row_swaps, rederived):
    hs, balance, sd = henon_heiles
    assert (sd.exchange_set, sd.row_swaps) == ((), ((0, 1),))
    forced = dataclasses.replace(sd, exchange_set=exchange_set, row_swaps=row_swaps)
    ehs, exchanged = apply_exchanges(hs, balance, forced)
    esys = hamiltonian_to_system(ehs)
    assert exchanged.system == esys
    assert residual_check(esys, exchanged) == balance.order - max(balance.dominant.exponents) - 1
    assert not check_principal(exchanged)[1].is_zero
    assert exchanged.parameters == balance.parameters
    # after a pure relabelling the analysis of the exchanged system finds the
    # permuted balance coefficient for coefficient; after a sign flip its
    # eigenbasis, and with it the parameters, may differ by scale
    if rederived:
        k = exchanged.dominant.exponents
        report = analyze_candidate(
            esys, dominant_equations(esys, k), k, exchanged.dominant.leading, balance.order
        )
        assert report.balance == exchanged


def test_build_canonical_change_gd(gd_hamiltonian, gd_candidate):
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(gd_candidate.balance), 8)
    )
    _, balance, reg = build_canonical_change(gd_hamiltonian, gd_candidate.balance, sd)
    cov = reg.change
    names = [balance.system.u_symbols[i] for i in cov.order]
    assert names == ["q1", "q2", "p2", "p1"]
    rows = {balance.system.u_symbols[i]: oracles.phi_row(cov, i) for i in cov.order[1:]}
    assert rows["q2"][1] == 2 - 4
    assert rows["p2"][1] == 5 - 3
    assert rows["p1"][1] == 8 - 5
    assert rows["p1"][2] == Q(-1, 2)
    assert rows["q2"][2] == rows["p2"][2] == 1
    assert reg.regularity is None


@pytest.mark.parametrize("exchange_set", [(0,), (1,), (0, 1)])
def test_forced_exchanges_give_a_canonical_change_gd(gd_hamiltonian, gd_candidate, exchange_set):
    # the exchanged balance carries sign flips into the construction; any
    # exchange that leaves a rational pivot root still closes the 2-form
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(gd_candidate.balance), 8)
    )
    forced = dataclasses.replace(sd, exchange_set=exchange_set)
    ehs, balance, reg = build_canonical_change(gd_hamiltonian, gd_candidate.balance, forced)
    assert reg.regularity is None
    assert verify_canonical(reg.change, 2) is None
    regular, _ = new_hamiltonian(ehs.H, reg.change, balance.system.u_symbols, True)
    assert hamilton_equations_match(regular, reg.transformed)


def test_verify_canonical_gd(gd_hamiltonian, gd_candidate):
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(gd_candidate.balance), 8)
    )
    _, _, reg = build_canonical_change(gd_hamiltonian, gd_candidate.balance, sd)
    assert verify_canonical(reg.change, 2) is None


def test_plain_triangular_change_is_not_canonical(gd_hamiltonian, gd_candidate):
    # same construction without the -1/k1 factor: the 2-form check must fail
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(gd_candidate.balance), 8)
    )
    _, _, reg = build_canonical_change(gd_hamiltonian, gd_candidate.balance, sd)
    cov = reg.change
    last = cov.order[-1]
    head, expo, _ = oracles.phi_row(cov, last)
    plain_last = TruncatedSeries(
        cov.names[0], {**dict(head), expo: MultiPoly.var(cov.names[-1])}, cov.phi[last].trunc
    )
    plain = dataclasses.replace(cov, phi={**cov.phi, last: plain_last})
    out = verify_canonical(plain, 2)
    assert isinstance(out, CanonicalWitness)


def test_one_dof_canonical(one_dof):
    hs, sys, cand = one_dof
    d = check_almost_weighted_homogeneous(hs, (2,), (3,))
    assert d == 6
    pairing = symplectic_pairing(cand.balance.structure, d)
    assert pairing == [(-1, 6)]
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(cand.balance), d)
    )
    ehs, balance, reg = build_canonical_change(hs, cand.balance, sd)
    cov = reg.change
    # the momentum variable carries the -1/k factor at tau^(mu0 - l1) = tau^3
    _, expo, factor = oracles.phi_row(cov, cov.order[1])
    assert factor == Q(-1, 2)
    assert expo == 6 - 3
    assert verify_canonical(cov, 1) is None
    regular, dropped = new_hamiltonian(ehs.H, cov, balance.system.u_symbols, True)
    assert dropped == ()
    assert hamilton_equations_match(regular, reg.transformed)


def test_new_hamiltonian_gd(gd_hamiltonian, gd_candidate):
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(gd_candidate.balance), 8)
    )
    ehs, balance, reg = build_canonical_change(gd_hamiltonian, gd_candidate.balance, sd)
    regular, dropped = new_hamiltonian(ehs.H, reg.change, balance.system.u_symbols, True)
    assert dropped == ()
    assert not regular.is_zero
    assert hamilton_equations_match(regular, reg.transformed)


def test_new_hamiltonian_substitution_mechanics():
    # synthetic monomial change of variable: H = q p pulls back to P1
    cov = ChangeOfVariable(
        names=("Q1", "P1"),
        order=(0, 1),
        beta=Q(1),
        phi={
            0: TruncatedSeries.monomial("Q1", -1),
            1: TruncatedSeries.monomial("Q1", 1, MultiPoly.var("P1")),
        },
    )
    H = MultiPoly.var("q") * MultiPoly.var("p")
    regular, _ = new_hamiltonian(H, cov, ("q", "p"), True)
    assert regular == MultiPoly.var("P1")


@pytest.mark.parametrize(
    "text,d,dropped",
    [
        ((DATA / "painleve1.ham").read_text(), 6, [[-1, "1"]]),
        # Painleve II at alpha = 1/2
        ("hamiltonian\nvars: q; p\nH = 1/2*p^2 - 1/2*q^4 - 1/2*t*q^2 - 1/2*q\n", 4, [[-1, "-1/2"]]),
    ],
    ids=["painleve1", "painleve2"],
)
def test_non_autonomous_hamiltonian_drops_singular_terms(text, d, dropped):
    hs = parse_hamiltonian(text)
    result = analyze_system(hamiltonian_to_system(hs), bound=5, order=12)
    assert result.verdict == "principal"
    cand = result.principal_candidates()[0]
    assert check_almost_weighted_homogeneous(hs, cand.exponents[:1], cand.exponents[1:]) == d
    sd = canonical_exchanges(
        symplectic_normalize(resonance_columns(cand.balance), d)
    )
    ehs, balance, reg = build_canonical_change(hs, cand.balance, sd)
    assert reg.regularity is None
    assert verify_canonical(reg.change, 1) is None
    regular, singular = new_hamiltonian(ehs.H, reg.change, balance.system.u_symbols, False)
    # the time-dependent terms pull back to singular orders
    assert [[o, str(p)] for o, p in singular] == dropped
    # Hamilton's equations of the regular part give the transformed system
    assert hamilton_equations_match(regular, reg.transformed)


def test_henon_heiles_symplectic_structure():
    # integrable cubic two-dof system: the balance with the pole in the
    # second pair has resonances (-1, 1, 4, 6) pairing to d - 1 = 5
    hs = parse_hamiltonian(
        "hamiltonian\nvars: q1,q2; p1,p2\nH = 1/2*p1^2 + 1/2*p2^2 + q1^2*q2 + 2*q2^3\n"
    )
    sys = hamiltonian_to_system(hs)
    result = analyze_system(sys, bound=6)
    assert result.verdict == "principal"
    cand = [c for c in result.principal_candidates() if c.exponents == (2, 2, 3, 3)][0]
    assert cand.structure.resonances == (-1, 1, 4, 6)
    d = check_almost_weighted_homogeneous(hs, (2, 2), (3, 3))
    assert d == 6
    pairing = symplectic_pairing(cand.balance.structure, d)
    assert pairing == [(-1, 6), (1, 4)]
    sd = symplectic_normalize(resonance_columns(cand.balance), d)
    assert oracles.is_symplectic(sd.S)
    # the indicial root here is imaginary (leading coefficient -1 at an even
    # exponent), which is outside the rational-arithmetic scope
    from painleve.regularize import NoRationalRootPivot, regularize

    with pytest.raises(NoRationalRootPivot):
        regularize(cand.balance)


def test_new_hamiltonian_autonomous_singular_part_is_fault():
    cov = ChangeOfVariable(
        names=("Q1", "P1"),
        order=(0, 1),
        beta=Q(1),
        phi={
            0: TruncatedSeries.monomial("Q1", -2),
            1: TruncatedSeries.monomial("Q1", 1, MultiPoly.var("P1")),
        },
    )
    H = MultiPoly.var("q")  # pulls back to Q1^-2: singular
    with pytest.raises(AssertionError):
        new_hamiltonian(H, cov, ("q", "p"), True)


# every corpus `hamiltonian` run that reaches the canonical construction
CANONICAL_RUNS = (
    [("gd.ham", 0), ("painleve1.ham", 0)]
    + [("painleve2.ham", i) for i in range(4)]
    + [("painleve4.ham", i) for i in range(5)]
)


@pytest.mark.parametrize("name,index", CANONICAL_RUNS)
def test_reported_change_of_variable_is_canonical_by_sympy(capsys, name, index):
    # rebuild phi from the --json rows alone and check Dphi^T J Dphi = J with
    # sympy, in the order (Q1..Qn, P1..Pn) and (q1..qn, p1..pn): a check of
    # the 2-form that shares no code with `verify_canonical`
    sympy = pytest.importorskip("sympy")
    argv = ["hamiltonian", str(DATA / name), f"--balance-index={index}", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    cov = report["change_of_variable"]
    assert report["hamiltonian"]["canonical"] is True

    def expr(text: str):
        names = {nm: sympy.Symbol(nm) for nm in re.findall(r"[A-Za-z_]\w*", text)}
        return sympy.sympify(text.replace("^", "**"), locals=names)

    hs = parse_hamiltonian((DATA / name).read_text())
    n = hs.n_dof
    new = [f"Q{i}" for i in range(1, n + 1)] + [f"P{i}" for i in range(1, n + 1)]
    assert sorted(cov["new_variables"]) == sorted(new)
    tau = sympy.Symbol(cov["tau"])
    phi = {
        u: sum(expr(c) * tau**o for o, c in terms) for u, terms in cov["rows"].items()
    }
    old = hs.q_symbols + hs.p_symbols
    D = sympy.Matrix([[sympy.diff(phi[u], sympy.Symbol(x)) for x in new] for u in old])
    zero, one = sympy.zeros(n), sympy.eye(n)
    J = sympy.Matrix(sympy.BlockMatrix([[zero, one], [-one, zero]]))
    assert (D.T * J * D - J).applyfunc(sympy.expand) == sympy.zeros(2 * n)
