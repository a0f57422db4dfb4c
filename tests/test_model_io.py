import contextlib
import dataclasses
import gc
import inspect
import io
import json
import random
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest

from painleve import cli, core, model
from painleve.algebra import MultiPoly
from painleve.cli import PARSER, main
from painleve.core import Balance
from painleve.model import (
    HamiltonianSystem,
    NonPolynomial,
    ODESystem,
    ParseError,
    UndeclaredSymbol,
    hamiltonian_to_system,
    jsonable,
    parse_hamiltonian,
    parse_input,
    parse_system,
    serialize_report,
)
from painleve.regularize import NoRationalRootPivot, regularize
from painleve.series import TruncatedSeries

from oracles import print_hamiltonian, print_system

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src" / "painleve"


def test_parse_single_equation():
    sys = parse_system("system\nvars: u\nu' = u^2\n")
    assert sys.u_symbols == ("u",)
    assert sys.rhs[0] == MultiPoly.var("u") ** 2


def test_parse_first_order_reduction():
    # u1' = u2, u2' = 6 u1^2 is the first-order form of w'' = 6 w^2:
    # oracle check d/dt(u1') = u2' means rhs[1] must equal 6 * rhs-of-w
    sys = parse_system("system\nvars: u1,u2\nu1' = u2\nu2' = 6*u1^2\n")
    u1 = MultiPoly.var("u1")
    assert sys.rhs == (MultiPoly.var("u2"), 6 * u1**2)


def test_parse_rational_literals_and_unary_minus():
    sys = parse_system("system\nvars: u\nu' = -1/2*u^2 + u - 3/4\n")
    u = MultiPoly.var("u")
    assert sys.rhs[0] == u**2 * Q(-1, 2) + u - Q(3, 4)


def test_parse_time_symbol_is_implicit():
    sys = parse_system("system\nvars: u\nu' = u^2 + t\n")
    assert not sys.autonomous


def test_parse_division_is_rejected():
    with pytest.raises(NonPolynomial):
        parse_system("system\nvars: u\nu' = 1/u\n")


def test_parse_fractional_power_rejected():
    with pytest.raises((NonPolynomial, ParseError)):
        parse_system("system\nvars: u\nu' = u^1/2\n")


def test_parse_undeclared_symbol():
    with pytest.raises(UndeclaredSymbol):
        parse_system("system\nvars: u\nu' = u*v\n")


def test_parse_missing_equation():
    with pytest.raises(ParseError):
        parse_system("system\nvars: u1,u2\nu1' = u2\n")


def test_parse_duplicate_equation():
    with pytest.raises(ParseError):
        parse_system("system\nvars: u\nu' = u\nu' = u^2\n")


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_system("system\nvars: u\nu' = u +\n")
    assert err.value.line == 3


def test_parse_reserved_time_symbol():
    with pytest.raises(ParseError):
        parse_system("system\nvars: t\nt' = t\n")


def test_new_variable_names_are_reserved_for_parameters_only():
    # tau, rho<n>, Q<n> and P<n> name new variables, which replace the old
    # ones but live beside the parameters
    sys = parse_system("system\nvars: tau,rho2\nparams: rho\ntau' = rho2\nrho2' = rho*tau^2\n")
    assert sys.u_symbols == ("tau", "rho2")
    for name in ("tau", "rho2", "Q1", "P3"):
        with pytest.raises(ParseError, match="reserved"):
            parse_system(f"system\nvars: u\nparams: {name}\nu' = u^2\n")


def test_fixed_names_are_constants_not_fields():
    # time is always t, a balance's pole t0, and every series runs in (t-t0)
    assert [f.name for f in dataclasses.fields(ODESystem)] == ["u_symbols", "rhs", "param_symbols"]
    assert [f.name for f in dataclasses.fields(HamiltonianSystem)] == [
        "q_symbols",
        "p_symbols",
        "H",
        "param_symbols",
    ]
    assert "t0_symbol" not in {f.name for f in dataclasses.fields(Balance)}
    assert model.SERIES_VAR == core.SERIES_VAR == "(t-t0)"
    src = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert not any("DT_DISPLAY" in text for text in src.values())


def test_default_bound_is_written_once():
    literal = re.compile(r"(?<![\w.])10(?![\w.]|\*\*)")
    assert sum(len(literal.findall(p.read_text())) for p in SRC.glob("*.py")) == 1
    for fn in (core.enumerate_fuchsian_exponents, core.analyze_system):
        assert inspect.signature(fn).parameters["bound"].default == core.DEFAULT_BOUND
    for command in ("test", "regularize", "hamiltonian"):
        assert PARSER.parse_args([command, "f"]).bound == core.DEFAULT_BOUND


def _new_variables() -> set[str]:
    """The new variables of `regularize` on every principal corpus balance
    that regularizes, and of `hamiltonian` on gd.ham and painleve1.ham."""
    names: set[str] = set()
    for path in sorted(DATA.iterdir()):
        try:
            parsed = parse_input(path.read_text())
        except ParseError:
            continue
        if isinstance(parsed, HamiltonianSystem):
            parsed = hamiltonian_to_system(parsed)
        for cand in core.analyze_system(parsed).principal_candidates():
            try:
                names |= set(regularize(cand.balance).change.names)
            except NoRationalRootPivot:
                continue
    for name in ("gd.ham", "painleve1.ham"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["hamiltonian", str(DATA / name), "--json"]) == 0
        names |= set(json.loads(out.getvalue())["change_of_variable"]["new_variables"])
    return names


def test_parser_reserves_every_generated_new_variable():
    names = _new_variables()
    assert {"tau", "rho2", "Q1", "Q2", "P1", "P2"} <= names
    for name in sorted(names):
        with pytest.raises(ParseError, match="reserved"):
            parse_system(f"system\nvars: u\nparams: {name}\nu' = u^2\n")


def test_declaration_errors_name_the_declaring_line():
    cases = [
        ("system\nvars: u\nparams: t0\nu' = u^2\n", "reserved", 3),
        ("system\n\nvars: u\nparams: a, _b\nu' = u^2\n", "reserved", 4),
        ("system\nvars: u\nparams: t\nu' = u^2\n", "time variable", 3),
        ("system\nvars: u, a\nparams: a\nu' = u^2\n", "duplicate", 3),
        ("system\nparams: a\nvars: u, a\nu' = u^2\n", "duplicate", 3),
        ("hamiltonian\nvars: q; p\nparams: b, q\nH = p^2\n", "duplicate", 3),
    ]
    for text, message, line in cases:
        with pytest.raises(ParseError, match=message) as err:
            parse_input(text)
        assert err.value.line == line, text


def test_parse_hamiltonian_gd():
    hs = parse_hamiltonian(
        "hamiltonian\nvars: q1,q2; p1,p2\nH = -q1*p2^2 - 2*p1*p2 + 3*q1^2*q2 - q1^4 - q2^2\n"
    )
    q1, q2 = MultiPoly.var("q1"), MultiPoly.var("q2")
    p1, p2 = MultiPoly.var("p1"), MultiPoly.var("p2")
    assert hs.H == -q1 * p2**2 - 2 * p1 * p2 + 3 * q1**2 * q2 - q1**4 - q2**2
    assert hs.n_dof == 2


def test_parse_hamiltonian_one_dof():
    hs = parse_hamiltonian("hamiltonian\nvars: q; p\nH = q*p\n")
    assert hs.q_symbols == ("q",) and hs.p_symbols == ("p",)


def test_parse_hamiltonian_missing_momentum_list():
    with pytest.raises(ParseError):
        parse_hamiltonian("hamiltonian\nvars: q\nH = q^2\n")


def test_parse_header_required():
    with pytest.raises(ParseError):
        parse_input("vars: u\nu' = u\n")


def test_hamiltonian_to_system_bilinear():
    hs = parse_hamiltonian("hamiltonian\nvars: q; p\nH = q*p\n")
    sys = hamiltonian_to_system(hs)
    assert sys.u_symbols == ("q", "p")
    assert sys.rhs == (MultiPoly.var("q"), -MultiPoly.var("p"))


def test_hamiltonian_to_system_oscillator():
    hs = parse_hamiltonian("hamiltonian\nvars: q; p\nH = 1/2*p^2 + q^2\n")
    sys = hamiltonian_to_system(hs)
    assert sys.rhs == (MultiPoly.var("p"), -2 * MultiPoly.var("q"))


def test_hamiltonian_to_system_gd_hand_differentiation():
    hs = parse_hamiltonian(
        "hamiltonian\nvars: q1,q2; p1,p2\nH = -q1*p2^2 - 2*p1*p2 + 3*q1^2*q2 - q1^4 - q2^2\n"
    )
    sys = hamiltonian_to_system(hs)
    q1, q2 = MultiPoly.var("q1"), MultiPoly.var("q2")
    p1, p2 = MultiPoly.var("p1"), MultiPoly.var("p2")
    assert sys.rhs[0] == -2 * p2  # dH/dp1
    assert sys.rhs[1] == -2 * q1 * p2 - 2 * p1  # dH/dp2
    assert sys.rhs[2] == p2**2 - 6 * q1 * q2 + 4 * q1**3  # -dH/dq1
    assert sys.rhs[3] == -3 * q1**2 + 2 * q2  # -dH/dq2


def test_mixed_partial_symmetry_random():
    rng = random.Random(13)
    q_names = ("q1", "q2")
    p_names = ("p1", "p2")
    names = q_names + p_names
    for _ in range(10):
        H = MultiPoly.zero()
        for _ in range(6):
            exps = tuple(rng.randrange(3) for _ in names)
            H = H + MultiPoly(names, {exps: rng.randint(-3, 3)})
        hs_sys = hamiltonian_to_system(
            HamiltonianSystem(q_symbols=q_names, p_symbols=p_names, H=H)
        )
        n = 2
        for i in range(n):
            for j in range(n):
                f_qi = hs_sys.rhs[i]
                f_pj = hs_sys.rhs[n + j]
                assert f_qi.partial(q_names[j]) == -f_pj.partial(p_names[i])


def test_round_trip_corpus():
    for path in sorted(DATA.glob("*.sys")) + sorted(DATA.glob("*.ham")):
        text = path.read_text()
        try:
            first = parse_input(text)
        except ParseError:
            continue  # negative-control files
        if isinstance(first, ODESystem):
            assert parse_system(print_system(first)) == first
        else:
            assert parse_hamiltonian(print_hamiltonian(first)) == first


def test_undeclared_symbol_in_constructor():
    with pytest.raises(ValueError):
        ODESystem(u_symbols=("u",), rhs=(MultiPoly.var("w"),))


def test_serialize_resonances_and_rationals():
    text = serialize_report({"resonances": [-1, 2, 5, 8], "value": Q(3, 4)})
    assert '"resonances": [\n    -1,\n    2,\n    5,\n    8\n  ]' in text
    assert '"value": "3/4"' in text


def test_serialize_polynomial_witness():
    r2 = MultiPoly.var("r2")
    text = serialize_report({"witness": r2 * 2 - 1})
    assert '"str": "2*r2 - 1"' in text


def test_serialize_empty_nullspace():
    assert serialize_report({"nullspace": []}).strip() == '{\n  "nullspace": []\n}'


def test_serialize_deterministic():
    report = {"verdict": "principal", "exponents": [2, 4, 5, 3], "leading": [Q(1), Q(0)]}
    assert serialize_report(report) == serialize_report(
        {"verdict": "principal", "exponents": [2, 4, 5, 3], "leading": [Q(1), Q(0)]}
    )


def _reports(monkeypatch, capsys, *argv) -> list[dict]:
    """The report dicts a CLI run hands to `serialize_report`."""
    reports = []
    write = cli.serialize_report
    monkeypatch.setattr(cli, "serialize_report", lambda r: reports.append(r) or write(r))
    main([argv[0], str(DATA / argv[1]), *argv[2:], "--json"])
    capsys.readouterr()
    return reports


WRITER_RUNS = [
    ("test", "henon_heiles.ham", "--order", "30"),
    ("test", "inconsistent.sys"),
    ("test", "cubic.sys"),
    ("regularize", "gd.ham"),
    ("regularize", "exp_family.sys"),
    ("hamiltonian", "gd.ham"),
    ("hamiltonian", "painleve2.ham"),
]


@pytest.mark.parametrize("argv", WRITER_RUNS, ids=" ".join)
def test_serialize_report_writes_the_json_dumps_text(monkeypatch, capsys, argv):
    (report,) = _reports(monkeypatch, capsys, *argv)
    assert serialize_report(report) == json.dumps(jsonable(report), indent=2)


def test_an_object_reached_twice_is_converted_once():
    r = MultiPoly.var("r")
    s = TruncatedSeries("x", {-1: r * Q(-1, 3), 0: 2, 4: r**2 - 1}, 7)
    p = r**3 * Q(10**20, 7) - r
    shared = {"s": s, "p": p, "again": [s, {"p": p}], "k": [[1, "a"]]}
    apart = {
        "s": s,
        "p": p,
        "again": [TruncatedSeries(s.var, dict(s.coeffs), s.trunc), {"p": r**3 * Q(10**20, 7) - r}],
        "k": [[1, "a"]],
    }
    assert serialize_report(shared) == serialize_report(apart)
    converted = jsonable(shared)
    assert converted["again"][0] is converted["s"] and converted["again"][1]["p"] is converted["p"]


def test_serialize_report_leaves_no_cycle(monkeypatch, capsys):
    (report,) = _reports(monkeypatch, capsys, "test", "henon_heiles.ham", "--order", "30")
    gc.collect()
    gc.disable()
    try:
        serialize_report(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_jsonable_matrix():
    from painleve.algebra import RatMatrix

    out = jsonable(RatMatrix([[1, Q(1, 2)], [0, 1]]))
    assert out == [["1", "1/2"], ["0", "1"]]
