"""Differential tests for the regularizer and Hamiltonian layer routines that
now call the engine's own kernels: the re-expansion of a balance in t, the
pick of pivot rows, the Lagrangian transversal and the resonance-matrix
columns.  Each is compared with the code it replaced (kept in
tests/oracles.py) or with an independent construction.
"""

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from oracles import (
    greedy_rows_by_rank,
    is_symplectic,
    reexpanded_coeffs_by_taylor,
    transversal_rows_by_backtracking,
)
from painleve.algebra import MultiPoly, RatMatrix, as_poly
from painleve.core import SERIES_VAR, analyze_system, basic_resonance_vector, resonance_matrix_columns
from painleve.hamiltonian import _transversal_rows, resonance_columns
from painleve.model import (
    T0_SYMBOL,
    T_SYMBOL,
    ODESystem,
    ParseError,
    hamiltonian_to_system,
    parse_input,
    parse_system,
)
from painleve.regularize import (
    PivotSelectionError,
    _greedy_rows,
    choose_pivot,
    indicial_normalization,
)
from painleve.series import (
    EXACT,
    TruncatedSeries,
    compose_many,
    rational_power_of_unit,
    revert_series,
    substitute_coeffs,
)

DATA = Path(__file__).parent / "data"

# Every non-autonomous input with a principal balance: Okamoto's Painleve I,
# the Riccati equation u' = u^2 + t, and Painleve I written with t^2 and t^3
# on its right side (u1'' = 6 u1^2 + t once u2 = u1' - t^3 is eliminated).
NON_AUTONOMOUS = {
    "painleve1.ham": hamiltonian_to_system(parse_input((DATA / "painleve1.ham").read_text())),
    "riccati_t": parse_system("system\nvars: u\nu' = u^2 + t\n"),
    "painleve1_t2_t3": parse_system(
        "system\nvars: u1,u2\nu1' = u2 + t^3\nu2' = 6*u1^2 - 3*t^2 + t\n"
    ),
}


def _normalization_from_table(balance, table, pivot, tau_name="tau"):
    """tau(dt) and the non-pivot tau-series as the regularizer built them
    from the Taylor table."""
    k = balance.dominant.exponents
    M = balance.order
    c = balance.dominant.leading[pivot].constant_value()
    unit = TruncatedSeries(SERIES_VAR, {0: 1, **{j: table[pivot][j] * (1 / c) for j in range(1, M)}}, M)
    beta = indicial_normalization(balance, pivot).beta
    tau_in_dt = rational_power_of_unit(unit, -1, k[pivot]).shift(1).scale(beta)
    dt_in_tau = revert_series(tau_in_dt).rename_var(tau_name)
    others = [i for i in range(balance.system.n) if i != pivot]
    u_others = [
        TruncatedSeries(tau_name, {j - k[i]: table[i][j] for j in range(M)}, M - k[i]) for i in others
    ]
    return tau_in_dt, dict(zip(others, compose_many(u_others, dt_in_tau)))


@pytest.mark.parametrize("order", [13, 20])
@pytest.mark.parametrize("name", NON_AUTONOMOUS)
def test_time_reexpansion_is_the_taylor_formula(name, order):
    system = NON_AUTONOMOUS[name]
    balances = [c.balance for c in analyze_system(system, order=order).principal_candidates()]
    assert balances
    for balance in balances:
        table = reexpanded_coeffs_by_taylor(balance)
        assert table != [list(row) for row in balance.coeffs]  # t0 does occur
        k = balance.dominant.exponents
        t_minus_dt = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(T_SYMBOL), 1: -1}, EXACT)
        for i in range(system.n):
            by_taylor = TruncatedSeries(
                SERIES_VAR, {j - k[i]: table[i][j] for j in range(order)}, order - k[i]
            )
            assert substitute_coeffs(balance.series(i), {T0_SYMBOL: t_minus_dt}) == by_taylor
        pivot = choose_pivot(balance)
        nb = indicial_normalization(balance)
        assert (nb.tau_in_dt, nb.series) == _normalization_from_table(balance, table, pivot)


def test_time_reexpansion_skips_autonomous_balances(gd_candidate):
    balance = gd_candidate.balance
    assert reexpanded_coeffs_by_taylor(balance) == [list(row) for row in balance.coeffs]
    t_minus_dt = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var("t"), 1: -1}, EXACT)
    for i in range(balance.system.n):
        series = balance.series(i)
        assert substitute_coeffs(series, {T0_SYMBOL: t_minus_dt}) is series


def _seeded_matrix(rng: random.Random, n_rows: int, n_cols: int) -> list[list[Q]]:
    rows: list[list[Q]] = []
    for _ in range(n_rows):
        kind = rng.choice(["random", "zero", "repeat", "combination"]) if rows else "random"
        if kind == "zero":
            rows.append([Q(0)] * n_cols)
        elif kind == "repeat":
            rows.append(list(rng.choice(rows)))
        elif kind == "combination":
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = Q(rng.randint(-3, 3), rng.randint(1, 3)), Q(rng.randint(-3, 3))
            rows.append([x * p + y * q for p, q in zip(a, b)])
        else:
            rows.append([Q(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n_cols)])
    return rows


def _pick(pick_rows, matrix, m):
    try:
        return pick_rows(matrix, m)
    except PivotSelectionError as err:
        return str(err)


def test_pivot_rows_match_the_rank_loop():
    rng = random.Random(20260917)
    outcomes = set()
    for _ in range(600):
        n_cols = rng.randint(1, 4)
        matrix = _seeded_matrix(rng, rng.randint(0, 7), n_cols)
        m = rng.randint(1, n_cols)
        expected = _pick(greedy_rows_by_rank, matrix, m)
        assert _pick(_greedy_rows, matrix, m) == expected, (matrix, m)
        outcomes.add(isinstance(expected, str))
    assert outcomes == {True, False}  # both picks and failures were exercised


def _seeded_symplectic(rng: random.Random, n: int) -> RatMatrix:
    """[[I, 0], [B, I]] [[I, C], [0, I]] with B, C symmetric and often
    sparse, then q_i <-> p_i exchanges (rows i, n+i -> -row n+i, row i) on a
    random subset of the degrees of freedom."""

    def symmetric() -> list[list[Q]]:
        m = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    m[i][j] = m[j][i] = Q(rng.randint(-2, 2), rng.randint(1, 2))
        return m

    def blocks(top_left, top_right, bottom_left, bottom_right) -> RatMatrix:
        top = [a + b for a, b in zip(top_left, top_right)]
        return RatMatrix(top + [a + b for a, b in zip(bottom_left, bottom_right)])

    eye = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    zero = [[Q(0)] * n for _ in range(n)]
    S = blocks(eye, zero, symmetric(), eye) * blocks(eye, symmetric(), zero, eye)
    rows = [list(r) for r in S.data]
    for i in range(n):
        if rng.random() < 0.5:
            rows[i], rows[n + i] = [-x for x in rows[n + i]], rows[i]
    return RatMatrix(rows)


def test_transversal_rows_match_the_backtracking():
    rng = random.Random(20131)
    p_rows = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        S = _seeded_symplectic(rng, n)
        assert is_symplectic(S)
        block = [list(row[:n]) for row in S.data]
        picks = _transversal_rows(block, n)
        assert picks is not None and picks == transversal_rows_by_backtracking(block, n)
        p_rows += any(p >= n for p in picks)
    assert p_rows > 100  # many frames need a p-row
    # the search is the same on any block: q1 alone is independent, but
    # neither row of the second pair extends it, so the pick starts at p1
    block = [[Q(1), Q(0)], [Q(1), Q(0)], [Q(0), Q(1)], [Q(2), Q(0)]]
    assert _transversal_rows(block, 2) == transversal_rows_by_backtracking(block, 2) == [2, 1]
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        block = _seeded_matrix(rng, 2 * n, n)
        picks = _transversal_rows(block, n)
        assert picks == transversal_rows_by_backtracking(block, n), block
        outcomes.add(picks is None)
    assert outcomes == {True, False}


# four balances at bound 1; on (1, 1, 1), K = diag(-1, 2, 2) gives two
# parameters at resonance 2
DOUBLE_RESONANCE = "system\nvars: u1,u2,u3\nu1' = u1^2\nu2' = -u1*u2\nu3' = -u1*u3\n"


def _candidates():
    systems = []
    for path in sorted(DATA.iterdir()):
        try:
            system = parse_input(path.read_text())
        except ParseError:
            continue  # nonpoly.sys
        if not isinstance(system, ODESystem):
            system = hamiltonian_to_system(system)
        systems.append((path.name, system, 10))
    systems.append(("double_resonance", parse_system(DOUBLE_RESONANCE), 1))
    for name, system, bound in systems:
        for cand in analyze_system(system, bound=bound).candidates:
            if cand.balance is not None:
                yield name, cand


CANDIDATES = list(_candidates())


@pytest.mark.parametrize(
    "name,cand", CANDIDATES, ids=[f"{name}-{cand.exponents}" for name, cand in CANDIDATES]
)
def test_resonance_matrix_columns_on_every_candidate(name, cand):
    balance = cand.balance
    columns = resonance_matrix_columns(balance)
    rows = tuple(zip(*(column for _, column in columns)))
    assert rows == cand.principal[0]
    # built independently: the eigenbases walked in resonance order
    structure = balance.structure
    expected = [(-1, basic_resonance_vector(balance.dominant))]
    expected += [
        (0, tuple(c.partial(nm) for c in balance.dominant.leading))
        for nm, r in balance.parameters
        if r == 0
    ]
    expected += [
        (r, tuple(as_poly(x) for x in v))
        for r in structure.resonances
        if r >= 1
        for v in structure.eigenbases[r]
    ]
    assert columns == expected
    if all(x.is_constant for _, column in columns for x in column):
        assert resonance_columns(balance) == [
            (r, tuple(x.constant_value() for x in column)) for r, column in columns
        ]
