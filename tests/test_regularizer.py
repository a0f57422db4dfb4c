import dataclasses
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from oracles import (
    absorb_resonances_by_growing_precision,
    agrees_with,
    residual_orders,
    resonance_matrix,
    transform_balance_by_composition,
)
from painleve.algebra import MultiPoly, rank
from painleve.cli import main
from painleve.core import SERIES_VAR, T0_SYMBOL, analyze_system
from painleve.model import (
    T_SYMBOL,
    ODESystem,
    ParseError,
    hamiltonian_to_system,
    parse_input,
    parse_system,
)
from painleve.regularize import (
    NoRationalRootPivot,
    PivotSelectionError,
    SingularWitness,
    VariableRow,
    absorb_resonances,
    build_triangular_change,
    indicial_normalization,
    integer_nth_root,
    rational_root,
    regularize,
    transform_balance,
    transform_system,
    verify_regularity,
)
from painleve.series import EXACT, TruncatedSeries, substitute_poly


def test_integer_nth_root():
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(-27, 3) == -3
    assert integer_nth_root(16, 4) == 2
    assert integer_nth_root(10, 2) is None
    assert integer_nth_root(-4, 2) is None


def test_rational_root_branch():
    assert rational_root(Q(1, 4), 2) == Q(1, 2)  # positive branch for even order
    assert rational_root(Q(-1, 8), 3) == Q(-1, 2)
    assert rational_root(Q(2), 2) is None


def _roundtrip(balance, reg):
    """Substituting the transformed balance into the change of variable must
    reproduce the original Laurent balance order by order, and the Taylor
    solution must equal the composition route exactly."""
    nb = indicial_normalization(balance, pivot=reg.change.pivot, tau_name=reg.change.tau_name)
    assert reg.transformed_balance == transform_balance_by_composition(nb, reg.change)
    sysm = balance.system
    subs = reg.change.substitution()
    tb = reg.transformed_balance
    t_series = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(T0_SYMBOL), 1: 1}, EXACT)
    for i, name in enumerate(sysm.u_symbols):
        acc = TruncatedSeries.zero(SERIES_VAR, trunc=EXACT)
        for o in subs[i].orders():
            poly = subs[i].coeffs[o]
            bound = {nm: tb.rho[nm] for nm in poly.symbols() if nm in tb.rho}
            if T_SYMBOL in poly.symbols():
                bound[T_SYMBOL] = t_series
            if bound:
                coeff = substitute_poly(poly, bound, order=EXACT)
            else:
                coeff = TruncatedSeries.constant(SERIES_VAR, poly, trunc=EXACT)
            acc = acc + coeff * (tb.tau**o)
        assert agrees_with(balance.series(i), acc), name


def _transformed_balance_solves_system(balance, reg):
    """tau(s)' = g_tau(tau(s), rho(s)) and likewise for each rho, checked with
    the independent dict-based series oracle at instantiated parameters."""
    tb = reg.transformed_balance
    ts = reg.transformed
    values = {T0_SYMBOL: Q(2, 3)}
    for idx, (nm, _) in enumerate(balance.parameters):
        values[nm] = Q(3 + 2 * idx, 5)
    series = {ts.names[0]: tb.tau}
    series.update(tb.rho)
    cut = min(s.trunc for s in series.values()) - 1
    inst = {}
    for nm, s in series.items():
        inst[nm] = {
            o: s.coeffs[o].replace(values).constant_value()
            for o in s.orders()
        }
    names = list(ts.names)
    g_polys = []
    for g in ts.g:
        poly = MultiPoly.zero()
        for o in g.orders():
            assert o >= 0
            poly = poly + g.coeffs[o] * MultiPoly.var(ts.names[0]) ** o
        g_polys.append(poly)
    # non-autonomous right sides carry t: bind it to t0 + s
    t_laurent = {0: values[T0_SYMBOL], 1: Q(1)}
    bindings = dict(inst)
    bindings[T_SYMBOL] = t_laurent
    bad = residual_orders(g_polys, bindings, names, cut)
    assert bad == [[] for _ in names]


def test_riccati_full(riccati_candidate):
    balance = riccati_candidate.balance
    reg = regularize(balance)
    assert reg.change.beta == -1
    assert agrees_with(
        indicial_normalization(balance, pivot=reg.change.pivot).tau_in_dt,
        TruncatedSeries(SERIES_VAR, {1: -1}, EXACT)
    )
    cov = reg.change
    assert cov.order == (0,)
    assert cov.rows == ()
    # transformed system: tau' = -1 exactly
    assert len(reg.transformed.g) == 1
    assert reg.transformed.g[0].coeffs == {0: MultiPoly.const(-1)}
    assert reg.regularity is None
    # initial data: tau(t0) = 0, tau'(t0) = -1
    assert reg.transformed_balance.tau.coeff(0).is_zero
    assert reg.transformed_balance.tau.coeff(1) == MultiPoly.const(-1)
    _roundtrip(balance, reg)


def test_pole2_full(pole2_candidate):
    balance = pole2_candidate.balance
    reg = regularize(balance)
    assert reg.change.beta == 1  # c1 = 1, k1 = 2
    stages = reg.stages
    assert len(stages) == 1 and stages[0].resonance == 6
    assert stages[0].pivot_block.rows == 1
    assert stages[0].pivot_block.entry(0, 0) != 0
    cov = reg.change
    row = cov.rows[0]
    assert row.exponent(cov.k) == 3  # lambda - k = 6 - 3
    assert row.head == ((-3, MultiPoly.const(-2)),)
    # frozen transformed system, verified by hand:
    #   tau' = 1 - rho2/2 tau^6,  rho2' = 3/2 rho2^2 tau^5
    rho2 = MultiPoly.var("rho2")
    assert reg.transformed.g[0].coeffs == {0: MultiPoly.const(1), 6: rho2 * Q(-1, 2)}
    assert reg.transformed.g[1].coeffs == {5: rho2**2 * Q(3, 2)}
    assert reg.regularity is None
    # initial value of the new variable is the pivot block times the parameter
    a = stages[0].pivot_block.entry(0, 0)
    assert reg.transformed_balance.initial_values["rho2"] == MultiPoly.var("r2") * a
    _roundtrip(balance, reg)
    _transformed_balance_solves_system(balance, reg)


def test_gd_full(gd_candidate):
    balance = gd_candidate.balance
    reg = regularize(balance)
    assert reg.change.beta == 1
    assert [s.resonance for s in reg.stages] == [2, 5, 8]
    for stage in reg.stages:
        assert rank(stage.pivot_block.data) == stage.pivot_block.rows
    assert reg.regularity is None
    # triangularity: head coefficients use only earlier rho symbols
    seen = set()
    for row in reg.change.rows:
        for _, poly in row.head:
            assert set(poly.symbols()) <= seen | {"t"}
        seen.add(row.rho_name)
    _roundtrip(balance, reg)
    _transformed_balance_solves_system(balance, reg)


def test_gd_transformed_balance_has_no_negative_orders(gd_candidate):
    reg = regularize(gd_candidate.balance)
    for name, series in reg.transformed_balance.rho.items():
        assert series.min_exp is None or series.min_exp >= 0, name


def test_non_autonomous_riccati():
    sysm = parse_system("system\nvars: u\nu' = u^2 + t\n")
    result = analyze_system(sysm, bound=5, order=10)
    assert result.verdict == "principal"
    balance = result.principal_candidates()[0].balance
    reg = regularize(balance)
    assert reg.regularity is None
    # hand check: u = tau^-1 turns u' = u^2 + t into tau' = -1 - t tau^2
    t = MultiPoly.var("t")
    assert reg.transformed.g[0].coeffs == {0: MultiPoly.const(-1), 2: -t}
    _roundtrip(balance, reg)
    _transformed_balance_solves_system(balance, reg)


def test_painleve_ii_initial_value_is_read_at_t0():
    # Painleve II with alpha = 1/2: the coefficient that rho2 takes over at
    # the resonance 4 depends on t, so its initial value is taken at t = t0
    sysm = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 2*u1^3 + t*u1 + 1/2\n")
    result = analyze_system(sysm, bound=4, order=9)
    assert len(result.principal_candidates()) == 2
    for cand in result.principal_candidates():
        reg = regularize(cand.balance)
        assert reg.regularity is None
        (a_lam,) = reg.stages[0].a_lam
        assert "t" in a_lam.symbols()
        assert reg.transformed_balance.initial_values["rho2"] == a_lam.replace({"t": MultiPoly.var(T0_SYMBOL)})
        _roundtrip(cand.balance, reg)
        _transformed_balance_solves_system(cand.balance, reg)


def test_no_rational_root_pivot():
    # w'' = 3 w^2 has leading data (2, -4): no rational square root of 1/2
    sysm = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 3*u1^2\n")
    result = analyze_system(sysm, bound=5, order=9)
    balance = result.principal_candidates()[0].balance
    assert [str(c) for c in balance.dominant.leading] == ["2", "-4"]
    with pytest.raises(NoRationalRootPivot):
        regularize(balance)


def test_resonance_zero_absorption():
    sysm = parse_system("system\nvars: u1,u2\nu1' = u1^2\nu2' = u2\n")
    r = MultiPoly.var("r")
    balance = analyze_system(
        sysm, order=8, exponents=(1, 0), leading=(MultiPoly.const(-1), r)
    ).principal_candidates()[0].balance
    reg = regularize(balance)
    assert reg.regularity is None
    assert [s.resonance for s in reg.stages] == [0]
    row = reg.change.rows[0]
    assert row.head == () and row.exponent(reg.change.k) == 0
    # u2 = rho2 exactly: the transformed equation must be rho2' = rho2
    assert reg.transformed.g[1].coeffs == {0: MultiPoly.var("rho2")}
    _roundtrip(balance, reg)


def test_multiplicity_two_resonance_block():
    # u1 = -1/s, u2 = r s, u3 = w s exactly: K = diag(-1, 2, 2), so the
    # resonance 2 has a two-dimensional eigenspace absorbed in one stage
    sysm = parse_system(
        "system\nvars: u1,u2,u3\nu1' = u1^2\nu2' = -u1*u2\nu3' = -u1*u3\n"
    )
    result = analyze_system(sysm, bound=4, order=8)
    cand = [c for c in result.principal_candidates() if c.exponents == (1, 1, 1)][0]
    assert cand.structure.resonances == (-1, 2)
    assert cand.structure.multiplicities == (1, 2)
    balance = cand.balance
    assert len(balance.parameters) == 2
    reg = regularize(balance)
    stages = reg.stages
    assert len(stages) == 1
    assert stages[0].resonance == 2 and len(stages[0].rho_names) == 2
    assert stages[0].pivot_block.rows == 2
    assert rank(stages[0].pivot_block.data) == 2
    assert reg.regularity is None
    # exact expectations: tau' = -1, rho' = 0 for both absorbed variables
    assert reg.transformed.g[0].coeffs == {0: MultiPoly.const(-1)}
    assert reg.transformed.g[1].is_zero
    assert reg.transformed.g[2].is_zero
    _roundtrip(balance, reg)
    _transformed_balance_solves_system(balance, reg)


def test_multiplicity_two_positive_resonance_with_coupled_tails():
    # u2' = -u1 u2 + u3^2 couples the two resonance-2 parameters: the block
    # inversion must substitute one absorbed parameter into the other's tail
    sysm = parse_system(
        "system\nvars: u1,u2,u3\nu1' = u1^2\nu2' = -u1*u2 + u3^2\nu3' = -u1*u3\n"
    )
    result = analyze_system(sysm, bound=4, order=9)
    cand = [c for c in result.principal_candidates() if c.exponents == (1, 1, 1)][0]
    assert cand.structure.resonances == (-1, 2)
    assert cand.structure.multiplicities == (1, 2)
    r2, r3 = MultiPoly.var("r2"), MultiPoly.var("r3")
    # hand-solved: u2 = r2 s + r3^2/2 s^3, u3 = r3 s
    assert cand.balance.coeffs[1][2] == r2
    assert cand.balance.coeffs[1][4] == r3**2 * Q(1, 2)
    assert cand.balance.coeffs[2][2] == r3
    reg = regularize(cand.balance)
    assert reg.regularity is None
    rho3 = MultiPoly.var("rho3")
    assert reg.transformed.g[0].coeffs == {0: MultiPoly.const(-1)}
    assert reg.transformed.g[1].coeffs == {1: rho3**2}
    assert reg.transformed.g[2].is_zero
    _roundtrip(cand.balance, reg)
    _transformed_balance_solves_system(cand.balance, reg)


def test_multiplicity_two_block_with_coupling():
    # resonance-0 block of size two with u2 driven by u3: the inversion must
    # handle the cross-coupling inside the block tails
    sysm = parse_system(
        "system\nvars: u1,u2,u3\nu1' = u1^2\nu2' = u2 + u3\nu3' = u3\n"
    )
    r, w = MultiPoly.var("r"), MultiPoly.var("w")
    result = analyze_system(sysm, order=8, exponents=(1, 0, 0), leading=(MultiPoly.const(-1), r, w))
    cand = result.principal_candidates()[0]
    assert cand.structure.resonances == (-1, 0)
    assert cand.structure.multiplicities == (1, 2)
    reg = regularize(cand.balance)
    assert reg.regularity is None
    assert len(reg.stages) == 1
    assert rank(reg.stages[0].pivot_block.data) == reg.stages[0].pivot_block.rows
    # the new system is linear: rho2' = rho2 + rho3, rho3' = rho3
    rho2, rho3 = MultiPoly.var("rho2"), MultiPoly.var("rho3")
    assert reg.transformed.g[1].coeffs == {0: rho2 + rho3}
    assert reg.transformed.g[2].coeffs == {0: rho3}
    _roundtrip(cand.balance, reg)


def test_corrupted_change_of_variable_singular_witness(pole2_candidate):
    reg = regularize(pole2_candidate.balance)
    cov = reg.change
    bad_row = VariableRow(
        index=cov.rows[0].index,
        rho_name=cov.rows[0].rho_name,
        rho_factor=cov.rows[0].rho_factor,
        resonance=cov.rows[0].resonance,
        head=((-3, MultiPoly.const(-2)), (-1, MultiPoly.const(1))),
    )
    corrupted = dataclasses.replace(cov, rows=(bad_row,))
    ts = transform_system(pole2_candidate.balance.system, corrupted)
    witness = verify_regularity(ts)
    assert isinstance(witness, SingularWitness)
    assert not witness.coefficient.is_zero
    assert witness.order < 0


def test_normalization_resonance_matrix_invertible(gd_candidate):
    # the (n-1) x (n-1) matrix after the indicial normalization stays invertible
    nb = indicial_normalization(gd_candidate.balance)
    R1 = resonance_matrix(nb)
    assert R1.rows == R1.cols == 3
    assert rank(R1.data) == 3


def test_absorption_respects_prescribed_order(gd_candidate):
    nb = indicial_normalization(gd_candidate.balance)
    _, rows, order = absorb_resonances(nb, var_order=(1, 3, 2))
    assert order == (0, 1, 3, 2)
    cov = build_triangular_change(nb, rows, order)
    ts = transform_system(gd_candidate.balance.system, cov)
    assert verify_regularity(ts) is None


def test_prescribed_singular_block_is_rejected(gd_candidate):
    # with rows (1, 2, 3), the block at resonance 5 is variable 2's row alone, and it is singular
    nb = indicial_normalization(gd_candidate.balance)
    with pytest.raises(PivotSelectionError) as err:
        absorb_resonances(nb, var_order=(1, 2, 3))
    assert str(err.value) == "prescribed rows [2] give a singular block at resonance 5"


def test_transform_system_report_truncation(pole2_candidate):
    reg = regularize(pole2_candidate.balance)
    ts = transform_system(pole2_candidate.balance.system, reg.change)
    assert all(g.truncate(4).trunc <= 4 for g in ts.g)


def test_regularize_rarely_runs_the_validating_constructor(monkeypatch, gd_candidate):
    # the ring operations wrap their results without re-validating: on GD at
    # order 13 regularize calls MultiPoly.__init__ 78 times, against 24,101
    # when every sum and product went back through it
    count = 0
    init = MultiPoly.__init__

    def counted(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "__init__", counted)
    assert gd_candidate.balance.order == 13
    regularize(gd_candidate.balance)
    assert count < 1000


def _gd_balance(gd_system, order):
    result = analyze_system(gd_system, bound=5, order=order)
    (cand,) = [
        c for c in result.principal_candidates() if [str(x) for x in c.leading] == ["1", "0", "-1", "1"]
    ]
    return cand.balance


def test_normalization_products_stay_bounded(count_products, gd_system):
    # the three compositions are polynomials read over one relaxed
    # substitution, which shares the powers of the inner series and of its
    # inverse, and the reversion is a relaxed fixed point: 1,509 and 10,519
    # products at orders 16 and 30, against 5,602 and 42,929 with a full
    # product per order for every composition and for the reversion
    at_16, at_30 = (
        count_products(indicial_normalization, _gd_balance(gd_system, order))
        for order in (16, 30)
    )
    assert at_16 < 2_200
    assert at_30 < 12_000


def test_absorption_products_stay_bounded(count_products, gd_system):
    # one relaxed pass over cached product nodes: 1,873 and 8,513 products
    # at orders 20 and 30, against 8,953 and 65,993 when every precision
    # re-substituted the tails
    at_20, at_30 = (
        count_products(absorb_resonances, indicial_normalization(_gd_balance(gd_system, order)))
        for order in (20, 30)
    )
    assert at_20 < 3_000
    assert at_30 < 12_000


DATA = Path(__file__).parent / "data"


def _principal_balances(order):
    for path in sorted(DATA.iterdir()):
        try:
            system = parse_input(path.read_text())
        except ParseError:
            continue  # nonpoly.sys
        if not isinstance(system, ODESystem):
            system = hamiltonian_to_system(system)
        for cand in analyze_system(system, order=order).principal_candidates():
            yield f"{path.name} k={cand.exponents}", cand.balance


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as err:  # the construction's own refusals
        return type(err), str(err)


@pytest.mark.parametrize("order", [13, 20])
def test_absorption_matches_growing_precision(order):
    compared = []
    for name, balance in _principal_balances(order):
        try:
            nb = indicial_normalization(balance)
        except NoRationalRootPivot:
            continue
        new = _outcome(absorb_resonances, nb)
        assert new == _outcome(absorb_resonances_by_growing_precision, nb), name
        compared.append(name)
    assert len(compared) >= 15


@pytest.mark.parametrize("name", ["gd.ham", "painleve1.ham"])
def test_canonical_absorption_matches_growing_precision(monkeypatch, capsys, name):
    # the hamiltonian command absorbs in the symplectic order, with the
    # last variable's coefficient rescaled
    home = sys.modules["painleve.regularize"]
    absorb, calls = home.absorb_resonances, []

    def recorded(nb, **kwargs):
        calls.append((nb, kwargs, absorb(nb, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(home, "absorb_resonances", recorded)
    for order in ("13", "20"):
        assert main(["hamiltonian", str(DATA / name), "--order", order, "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    for nb, kwargs, absorption in calls:
        assert kwargs["var_order"] is not None and kwargs["last_factor"] is not None
        assert absorption == absorb_resonances_by_growing_precision(nb, **kwargs)


def test_regularize_products_stay_bounded(count_products, gd_system):
    # the construction runs on the balance cut after its largest resonance
    # and the transformed balance is the Taylor solution of the new system:
    # 1,804 and 8,942 products at orders 16 and 30, against 4,454 and 26,017
    # at full order with the balance composed with the inverted change
    at_16, at_30 = (
        count_products(regularize, _gd_balance(gd_system, order)) for order in (16, 30)
    )
    assert at_16 < 2_500
    assert at_30 < 12_000


@pytest.mark.parametrize("order", [13, 20])
def test_transformed_balance_matches_composition(order):
    compared = []
    for name, balance in _principal_balances(order):
        try:
            nb = indicial_normalization(balance)
        except NoRationalRootPivot:
            continue
        reg = regularize(balance)
        assert reg.transformed_balance == transform_balance_by_composition(nb, reg.change), name
        compared.append(name)
    assert len(compared) >= 15


@pytest.mark.parametrize("name", ["gd.ham", "painleve1.ham"])
def test_canonical_transformed_balance_matches_composition(monkeypatch, capsys, name):
    # the hamiltonian command's change of variable, in the symplectic order
    # with the last variable's coefficient rescaled
    home = sys.modules["painleve.regularize"]
    taylor, calls = home.transform_balance, []

    def recorded(balance, stages, cov, ts):
        calls.append((balance, cov, taylor(balance, stages, cov, ts)))
        return calls[-1][2]

    monkeypatch.setattr(home, "transform_balance", recorded)
    for order in ("13", "20"):
        assert main(["hamiltonian", str(DATA / name), "--order", order, "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    for balance, cov, tb in calls:
        assert cov.rows[-1].rho_factor != 1
        nb = indicial_normalization(balance, pivot=cov.pivot, tau_name=cov.tau_name)
        assert tb == transform_balance_by_composition(nb, cov)


def test_taylor_solution_refuses_to_read_a_capped_series(pole2_candidate):
    # tau' = 1 - rho2/2 tau^6 reads rho2 up to the last order it keeps,
    # M - 6; with tau^5 it would read one order past it
    reg = regularize(pole2_candidate.balance)
    g_tau, g_rho = reg.transformed.g
    early = TruncatedSeries(g_tau.var, {0: g_tau.coeffs[0], 5: g_tau.coeffs[6]}, EXACT)
    ts = dataclasses.replace(reg.transformed, g=(early, g_rho))
    with pytest.raises(AssertionError, match="tau' reads a series beyond its truncation"):
        transform_balance(pole2_candidate.balance, reg.stages, reg.change, ts)


def test_singular_system_has_no_transformed_balance(monkeypatch, capsys, pole2_candidate):
    # a singular transformed system has no Taylor solution to read
    witness = SingularWitness(index=1, name="rho2", order=-1, coefficient=MultiPoly.const(1))
    monkeypatch.setattr(sys.modules["painleve.regularize"], "verify_regularity", lambda ts: witness)
    assert regularize(pole2_candidate.balance).transformed_balance is None
    assert main(["regularize", str(DATA / "pole2.sys"), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["transformed_system"]["regular"] is False
    assert report["transformed_balance"] is None
