import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import painleve
from painleve.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_test_riccati_principal(capsys):
    code, out, _ = run(capsys, "test", str(DATA / "riccati.sys"))
    assert code == 0
    assert "verdict: principal" in out
    assert "-(t-t0)^-1" in out


def test_test_cubic_fails_exponents(capsys):
    code, out, _ = run(capsys, "test", str(DATA / "cubic.sys"))
    assert code == 1
    assert "fails:exponents" in out


def test_test_large_coefficient_balance_found(capsys, tmp_path):
    # the linear factor of 10^13 c^2 + c is solved exactly, however large
    # its coefficients; a search cap used to drop this principal balance
    path = tmp_path / "big.sys"
    path.write_text("system\nvars: u\nu' = 10000000000000*u^2\n")
    code, out, _ = run(capsys, "test", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "principal"
    assert report["leading"] == ["-1/10000000000000"]


def test_test_pole2_json(capsys):
    code, out, _ = run(capsys, "test", str(DATA / "pole2.sys"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "principal"
    assert report["resonances"] == [-1, 6]
    assert report["exponents"] == [2, 3]
    assert report["leading"] == ["1", "-2"]


def test_test_gd_json(capsys):
    code, out, _ = run(capsys, "test", str(DATA / "gd.ham"), "--bound", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "principal"
    assert report["resonances"] == [-1, 2, 5, 8]
    assert report["kowalevskian"] == [
        ["2", "0", "0", "-2"],
        ["-2", "4", "-2", "-2"],
        ["12", "-6", "5", "2"],
        ["-6", "2", "0", "3"],
    ]
    verdicts = [b["verdict"] for b in report["balances"]]
    assert "principal" in verdicts


def test_test_inconsistent_resonance(capsys):
    # the (-1,-1) balance hits an inconsistent recursion at j=1; the system
    # still has a different principal balance, so the overall exit is 0
    code, out, _ = run(capsys, "test", str(DATA / "inconsistent.sys"), "--json")
    assert code == 0
    report = json.loads(out)
    failures = [b for b in report["balances"] if b["verdict"] == "fails:resonance"]
    assert failures and failures[0]["detail"]["witness"]["str"] != "0"


def test_test_inconsistent_balance_only(capsys):
    # pinning the failing leading data isolates the FailureAtResonance verdict
    code, out, _ = run(
        capsys,
        "test",
        str(DATA / "inconsistent.sys"),
        "--exponents=1,1",
        "--leading=-1,-1",
        "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["balances"][0]["verdict"] == "fails:resonance"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "test", str(DATA / "nonpoly.sys"))
    assert code == 2
    assert "rational literal" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "test", str(DATA / "does-not-exist.sys"))
    assert code == 2


def test_bad_bound_exit_2(capsys):
    code, _, err = run(capsys, "test", str(DATA / "riccati.sys"), "--bound", "0")
    assert code == 2
    assert "--bound" in err


def test_bad_override_exit_2(capsys):
    code, _, err = run(
        capsys, "test", str(DATA / "pole2.sys"), "--exponents", "2", "--json"
    )
    assert code == 2


def test_exponent_leading_override(capsys):
    code, out, _ = run(
        capsys,
        "test",
        str(DATA / "gd.ham"),
        "--exponents",
        "2,4,5,3",
        "--leading",
        "1,0,-1,1",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["balances"]) == 1
    assert report["balances"][0]["verdict"] == "principal"


def test_regularize_riccati(capsys):
    code, out, _ = run(capsys, "regularize", str(DATA / "riccati.sys"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["change_of_variable"]["rows"]["u"] == [[-1, "1"]]
    assert report["transformed_system"]["regular"] is True
    assert report["transformed_system"]["right_sides"]["tau'"]["terms"] == [[0, "-1"]]


def test_regularize_non_principal_exit_1(capsys):
    code, out, err = run(capsys, "regularize", str(DATA / "cubic.sys"))
    assert (code, out) == (1, "")
    assert err == "error: no principal balance found (verdict fails:exponents)\n"


def test_regularize_negative_pinned_exponent_exit_1(capsys, tmp_path):
    # u' = 2 is regular: k = -1 lies outside the search box, so no balance
    # reaches the root extraction of the change of variable
    path = tmp_path / "const.sys"
    path.write_text("system\nvars: u\nu' = 2\n")
    code, out, err = run(capsys, "regularize", str(path), "--exponents=-1")
    assert (code, out) == (1, "")
    assert err == "error: no principal balance found (verdict fails:exponents)\n"


def test_regularize_gd(capsys):
    code, out, _ = run(
        capsys, "regularize", str(DATA / "gd.ham"), "--bound", "5", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["transformed_system"]["regular"] is True
    assert report["transformed_balance"]["tau_derivative_at_t0"] == "1"


def test_hamiltonian_gd(capsys):
    code, out, _ = run(
        capsys, "hamiltonian", str(DATA / "gd.ham"), "--bound", "5", "--json"
    )
    assert code == 0
    report = json.loads(out)
    sub = report["hamiltonian"]
    assert sub["d"] == 8
    assert sub["pairing"] == [[-1, 8], [2, 5]]
    assert sub["canonical"] is True
    assert sub["exchange_set"] == []
    assert sub["dropped_singular"] == []
    assert sub["hamilton_equations_match"] is True
    assert report["transformed_system"]["regular"] is True


def test_hamiltonian_reports_the_exchanged_coordinates(capsys, monkeypatch):
    # under the exchange (q1, p1) -> (p1, -q1) the change of variable is
    # built on the exchanged balance; the candidate fields must describe that
    # balance, not the input one, under the same symbol names
    import painleve.cli as cli

    exchanges = cli.canonical_exchanges
    monkeypatch.setattr(
        cli, "canonical_exchanges", lambda sd: dataclasses.replace(exchanges(sd), exchange_set=(0,))
    )
    code, out, _ = run(capsys, "hamiltonian", str(DATA / "gd.ham"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["hamiltonian"]["exchange_set"] == [0]
    exponents = report["exponents"]
    assert exponents == [5, 4, 2, 3]
    assert report["leading"] == ["1", "0", "1", "1"]
    assert report["change_of_variable"]["rows"]["q1"] == [[-exponents[0], "1"]]
    assert report["balance_coefficients"]["q1"]["terms"][0] == [-5, "1"]
    assert report["resonance_matrix_det"] != "0"
    code, out, _ = run(capsys, "hamiltonian", str(DATA / "gd.ham"))
    assert code == 0
    assert out.startswith("candidate k=(5, 4, 2, 3) c=(1, 0, 1, 1)\n")
    assert "  q1 = Q1^-5\n" in out


def test_cli_calls_leave_no_garbage_cycle(capsys):
    # nothing a call builds (parser, search state, JSON writer) may need the
    # cyclic collector to be freed
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, "test", str(DATA / "henon_heiles.ham"), "--json")[0] == 0
        assert gc.collect() == 0
        assert run(capsys, "hamiltonian", str(DATA / "gd.ham"))[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hamiltonian_requires_hamiltonian_input(capsys):
    code, _, err = run(capsys, "hamiltonian", str(DATA / "riccati.sys"))
    assert code == 2
    assert "hamiltonian" in err


def test_hamiltonian_rejects_degenerate(capsys, tmp_path):
    path = tmp_path / "bilinear.ham"
    path.write_text("hamiltonian\nvars: q; p\nH = q*p\n")
    code, out, err = run(capsys, "hamiltonian", str(path))
    assert (code, out) == (1, "")
    assert err == "error: no principal balance found (verdict fails:dominant)\n"


# SHA-256 of exact --json reports: GD deeper than the benchmark runs it,
# Okamoto's Painleve I (painleve1.ham), which takes the non-autonomous path,
# and two deep `test` runs whose hashes were recorded when the balance
# recursion still expanded f over the partial sums at every order.
PINNED_REPORTS = [
    (("regularize", "painleve1.ham"), "df90937d79060dd00296605e64c94c862ed595b913ddf02b796b10bc667c7518"),
    (("hamiltonian", "painleve1.ham"), "0c1b3a75913b7f04b29c4fa265578ab37272479fef61538d75bd51b1c53948c5"),
    (("regularize", "gd.ham", "--order", "20"), "b9eca95a6e68548c7d7aa3c369b4aca93218bddd6f0fd5762a85882998d3c794"),
    (("hamiltonian", "gd.ham", "--order", "20"), "3f177f3c9add156b95c990bbfd585d63e1692ac50db8505b940a08922f941d3f"),
    (("test", "henon_heiles.ham", "--order", "50"), "972c9984cbdddae44b9985c83fa2022309453a228b7e47119a360e7cc9b96735"),
    (("test", "gd.ham", "--order", "30"), "4b9c2608cda9ad625fe81f17e1714b4693d2f204653dc2c8006b4ad3d863f20a"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_REPORTS, ids=[" ".join(argv) for argv, _ in PINNED_REPORTS]
)
def test_report_bytes_pinned(capsys, argv, digest):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, str(DATA / name), *rest, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "test", str(DATA / "gd.ham"), "--bound", "5", "--json")
    _, out2, _ = run(capsys, "test", str(DATA / "gd.ham"), "--bound", "5", "--json")
    assert out1 == out2


# runs CLI calls in order in one interpreter; prints the last call's stdout
# and the symbols in the order the packed-key map numbered them
_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from painleve import algebra
from painleve.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
print(json.dumps([out.getvalue(), list(algebra._FIELDS)]))
"""


def test_report_bytes_do_not_depend_on_packed_key_numbering():
    # the packed-key map numbers symbols in the order a process first uses
    # them, so the same report must come out after another command
    env = dict(os.environ, PYTHONPATH=str(Path(painleve.__file__).parent.parent))
    hh = ["test", str(DATA / "henon_heiles.ham"), "--json"]

    def last_report(*jobs):
        argv = [sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(jobs)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
        return json.loads(proc.stdout)

    alone, alone_fields = last_report(hh)
    after, after_fields = last_report(["regularize", str(DATA / "gd.ham")], hh)
    assert [f for f in after_fields if f in alone_fields] != alone_fields
    assert after == alone and '"verdict": "principal"' in alone


def test_exponent_at_the_packed_key_limit_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.sys"
    path.write_text("system\nvars: u\nu' = u^2147483648\n")
    code, out, err = run(capsys, "test", str(path))
    assert code == 2 and out == ""
    assert "2**31, the limit of a packed monomial key" in err


def test_regularize_irrational_root_exit_1(capsys, tmp_path):
    # principal balance whose pivot root is irrational: structural exit 1
    path = tmp_path / "w3.sys"
    path.write_text("system\nvars: u1,u2\nu1' = u2\nu2' = 3*u1^2\n")
    code, _, err = run(capsys, "regularize", str(path))
    assert code == 1
    assert "rational" in err


def test_parameterized_leading_through_cli(capsys):
    code, out, _ = run(
        capsys,
        "test",
        str(DATA / "exp_family.sys"),
        "--exponents=1,0",
        "--leading=-1,r",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "principal"
    assert report["resonances"] == [-1, 0]
    assert report["leading"] == ["-1", "r"]


def test_regularize_resonance_zero_through_cli(capsys):
    code, out, _ = run(
        capsys,
        "regularize",
        str(DATA / "exp_family.sys"),
        "--exponents=1,0",
        "--leading=-1,r",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["transformed_system"]["regular"] is True
    assert report["change_of_variable"]["rows"]["u2"] == [[0, "rho2"]]


# one resonance parameter, at resonance 6
RESONANCE_SIX = "system\nvars: u1,u2\nparams: {}\nu1' = u2\nu2' = 6*u1^2 + {}\n"


@pytest.mark.parametrize("params,term,name", [("a", "a", "r2"), ("r2", "r2", "r3"), ("k", "0", "k")])
def test_declared_params_name_the_resonance_parameters_only_when_unused(
    capsys, tmp_path, params, term, name
):
    # a declared name that occurs in a right side is a parameter of the
    # system, not the free coefficient at resonance 6, and the default
    # names skip every declared name
    path = tmp_path / "six.sys"
    path.write_text(RESONANCE_SIX.format(params, term))
    code, out, _ = run(capsys, "test", str(path), "--json")
    assert code == 0
    assert json.loads(out)["parameters"] == [{"name": name, "resonance": 6}]
    code, _, err = run(capsys, "regularize", str(path))
    assert code == 0, err


def test_hamiltonian_keeps_declared_parameter_names(capsys, tmp_path):
    # the canonical construction regularizes the balance the analysis found,
    # so the declared name reaches the transformed balance too
    path = tmp_path / "painleve1_a.ham"
    path.write_text("hamiltonian\nvars: q; p\nparams: a\nH = 1/2*p^2 - 2*q^3 - t*q\n")
    code, out, err = run(capsys, "hamiltonian", str(path), "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["parameters"] == [{"name": "a", "resonance": 6}]
    assert report["transformed_balance"]["initial_values"] == {"P1": "-7/2*a"}


def test_hamiltonian_henon_heiles_refused(capsys):
    # the one corpus balance whose canonical exchange is not the identity
    # (the row swap (0, 1)); its pivot root is imaginary
    code, out, err = run(capsys, "hamiltonian", str(DATA / "henon_heiles.ham"))
    assert (code, out) == (1, "")
    assert err == "error: leading coefficient -1 has no rational root of order 2\n"


def test_declared_param_of_the_leading_data_names_no_resonance_parameter(capsys, tmp_path):
    path = tmp_path / "lead.sys"
    path.write_text("system\nvars: u1,u2,u3\nparams: r\nu1' = u2\nu2' = 6*u1^2\nu3' = u3\n")
    code, out, _ = run(capsys, "test", str(path), "--exponents=2,3,0", "--leading=1,-2,r", "--json")
    assert code == 0
    assert json.loads(out)["parameters"] == [
        {"name": "r", "resonance": 0},
        {"name": "r3", "resonance": 6},
    ]


@pytest.mark.parametrize(
    "text",
    [
        "system\nvars: u\nparams: t0\nu' = u^2 + t0*t\n",
        "system\nvars: u\nparams: tau\nu' = u^2 + tau*t\n",
        "system\nvars: u1,u2\nparams: rho2,b\nu1' = u2\nu2' = 6*u1^2 + rho2\n",
        "system\nvars: u\nparams: _c0\nu' = _c0*u^2\n",
        "system\nvars: t0\nt0' = t0^2\n",
        "system\nvars: _u\n_u' = _u^2\n",
        "hamiltonian\nvars: q; p\nparams: Q1\nH = p^2 + Q1*q^3\n",
        "hamiltonian\nvars: q; p\nparams: P1\nH = p^2 + P1*q^3\n",
    ],
)
def test_engine_names_are_reserved(capsys, tmp_path, text):
    path = tmp_path / "reserved.txt"
    path.write_text(text)
    code, _, err = run(capsys, "test", str(path))
    assert code == 2
    assert "reserved" in err


def test_balance_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "regularize", str(DATA / "riccati.sys"), "--balance-index", "5"
    )
    assert code == 2
    assert "--balance-index" in err


# exceptions that never leave the package: solve_dominant and the
# Kowalevskian check turn them into verdicts
CAUGHT_INTERNALLY = {"SearchIncomplete", "NonConstantKowalevskian"}


def test_every_package_exception_has_an_exit_code():
    import importlib
    import inspect

    from painleve.cli import EXIT_CODES

    found = set()
    for name in ("algebra", "series", "model", "core", "regularize", "hamiltonian", "cli"):
        module = importlib.import_module(f"painleve.{name}")
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and issubclass(cls, BaseException)
                and cls.__module__ == module.__name__
            ):
                found.add(cls)
    assert {cls.__name__ for cls in found} >= {"TruncationUnderflow", "UsageError"}
    for cls in found:
        if cls.__name__ in CAUGHT_INTERNALLY:
            continue
        # the nearest tabled class is the package's own, so a new subclass of
        # a builtin like ValueError cannot slip into that builtin's exit code
        tabled = next(c for c in cls.__mro__ if c in EXIT_CODES)
        assert tabled.__module__.startswith("painleve."), cls


def test_exit_codes_follow_the_mro():
    from painleve.cli import UsageError, exit_code
    from painleve.core import LimitError
    from painleve.model import UndeclaredSymbol
    from painleve.series import NotReversible, TruncationUnderflow

    assert exit_code(UsageError("x")) == 2
    assert exit_code(UndeclaredSymbol("x", 1)) == 2
    assert exit_code(LimitError("x")) == 2
    assert exit_code(IsADirectoryError("x")) == 2
    assert exit_code(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "x")) == 2
    assert exit_code(ValueError("x")) == 3
    assert exit_code(NotReversible("x")) == 1
    assert exit_code(TruncationUnderflow("x")) == 3
    assert exit_code(AssertionError()) == 3
    assert exit_code(TypeError("x")) is None


def test_directory_input_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "test", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "directory" in err


def test_non_utf8_input_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.sys"
    path.write_bytes("system\nvars: u\nu' = u^2 # \u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "test", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err


def test_order_below_the_largest_resonance_exit_2(capsys):
    code, out, err = run(capsys, "test", str(DATA / "gd.ham"), "--order", "5")
    assert (code, out) == (2, "")
    assert err == "error: order must exceed the largest resonance 8\n"


def test_exponent_budget_exit_2(capsys, monkeypatch):
    import painleve.core

    monkeypatch.setattr(painleve.core, "EXPONENT_BUDGET", 10)
    code, out, err = run(capsys, "test", str(DATA / "riccati.sys"))
    assert (code, out) == (2, "")
    assert err == "error: exponent search space too large; lower the bound\n"


def test_internal_value_error_exit_3(capsys, monkeypatch):
    # a plain ValueError inside the engine (here a series coefficient read
    # past its truncation) is a fault of the engine, not of the input
    import painleve.cli

    def broken(balance):
        raise ValueError("order 9 is beyond truncation 8")

    monkeypatch.setattr(painleve.cli, "regularize", broken)
    code, out, err = run(capsys, "regularize", str(DATA / "riccati.sys"))
    assert (code, out) == (3, "")
    assert err == "internal error: order 9 is beyond truncation 8\n"


def test_internal_fault_exit_3(capsys, monkeypatch):
    import painleve.cli
    from painleve.series import TruncationUnderflow

    def broken(balance):
        raise TruncationUnderflow("truncation 0 cannot reach the lowest possible order 1")

    monkeypatch.setattr(painleve.cli, "regularize", broken)
    code, out, err = run(capsys, "regularize", str(DATA / "riccati.sys"), "--json")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: truncation 0")


def test_hamiltonian_non_hamiltonian_input_message(capsys):
    code, out, err = run(capsys, "hamiltonian", str(DATA / "pole2.sys"), "--json")
    assert (code, out) == (2, "")
    assert err == "error: hamiltonian command requires a hamiltonian input file\n"


# The three symplectic rejections of `painleve hamiltonian`, which no input
# in tests/data reaches: each stage is made to reject GD in turn.  The
# report keeps what the earlier stages found; the text is one line.
REJECTIONS = [
    (
        "check_almost_weighted_homogeneous",
        {"rejected": {"reason": "forced", "detail": "why"}},
        "rejected: forced (why)\n",
        "5361d581600cb2a3fe84e6f9e2fe0cb8acf81f5ee46606ebdd60096479e1829a",
    ),
    (
        "symplectic_pairing",
        {"d": 8, "rejected": {"reason": "forced", "detail": "why"}},
        "rejected: forced (why)\n",
        "e424436a0a0f75b48160c3a77fe03ee6dc734aab0a7f0d735ff4b8590957c3ae",
    ),
    (
        "symplectic_normalize",
        {"d": 8, "pairing": [[-1, 8], [2, 5]], "rejected": {"reason": "forced", "detail": "why"}},
        "rejected: forced\n",
        "d5c155c0afb35b4c0a342e57d3c044a7762f0fc5a01c5eff6ade18d0ebccbd24",
    ),
]


@pytest.mark.parametrize(
    "stage,sub,text,digest", REJECTIONS, ids=[stage for stage, *_ in REJECTIONS]
)
def test_hamiltonian_rejection_reports_pinned(capsys, monkeypatch, stage, sub, text, digest):
    import painleve.cli
    from painleve.hamiltonian import HamiltonianRejected

    monkeypatch.setattr(painleve.cli, stage, lambda *args: HamiltonianRejected("forced", "why"))
    argv = ("hamiltonian", str(DATA / "gd.ham"), "--bound", "5")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["hamiltonian"] == sub
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert run(capsys, *argv) == (1, text, "")
