"""Verdicts on textbook systems, against the literature.

Painleve II, u'' = 2u^3 + tu + alpha, at alpha = 1/2 passes the test with
resonances -1 and 4, as a first-order system and from the Hamiltonian
H = p^2/2 - q^4/2 - tq^2/2 - alpha*q (Ablowitz, Ramani & Segur, J. Math.
Phys. 21, 1980).  The Henon-Heiles family H = (p1^2 + p2^2)/2 + q1^2 q2 +
s/3 q2^3 passes for s = 1 (C/D = -1) with resonances -1, 2, 3, 6, has a
resonance 0 at s = 2 (C/D = -2), and has non-integer resonances at s = 16
(C/D = -16), which only the weak test handles (Chang, Tabor & Weiss,
J. Math. Phys. 23, 1982).

Okamoto's polynomial Hamiltonians of P_II (alpha = 1/2) and P_IV
(tests/data/painleve2.ham and painleve4.ham; Okamoto, Proc. Japan Acad.
56A, 1980) give a regular, canonical chart at every principal balance, and
Hamilton's equations of each new Hamiltonian are the transformed system."""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from painleve.cli import main

P2_SYSTEM = "system\nvars: u1,u2\nu1' = u2\nu2' = 2*u1^3 + t*u1 + 1/2\n"
P2_HAMILTONIAN = "hamiltonian\nvars: q; p\nH = 1/2*p^2 - 1/2*q^4 - 1/2*t*q^2 - 1/2*q\n"
DATA = Path(__file__).parent / "data"
HENON_HEILES = "hamiltonian\nvars: q1,q2; p1,p2\nH = 1/2*p1^2 + 1/2*p2^2 + q1^2*q2 + {s}/3*q2^3\n"


def run_json(capsys, tmp_path, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = main([command, str(path), "--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None


@pytest.mark.parametrize("text", [P2_SYSTEM, P2_HAMILTONIAN], ids=["system", "hamiltonian"])
def test_painleve_ii_is_principal_and_regularizes(capsys, tmp_path, text):
    code, report = run_json(capsys, tmp_path, "test", text)
    assert (code, report["verdict"], report["resonances"]) == (0, "principal", [-1, 4])
    code, report = run_json(capsys, tmp_path, "regularize", text)
    assert code == 0
    assert report["transformed_system"]["regular"] is True


def test_painleve_ii_hamiltonian_is_canonical(capsys, tmp_path):
    code, report = run_json(capsys, tmp_path, "hamiltonian", P2_HAMILTONIAN)
    assert code == 0
    assert report["hamiltonian"]["canonical"] is True
    assert report["transformed_system"]["regular"] is True


@pytest.mark.parametrize(
    "s,verdict,resonances",
    [(1, "principal", [-1, 2, 3, 6]), (2, "not_principal", [-1, 0, 5, 6]), (16, "fails:spectrum", None)],
)
def test_henon_heiles_verdicts(capsys, tmp_path, s, verdict, resonances):
    code, report = run_json(capsys, tmp_path, "test", HENON_HEILES.format(s=s))
    assert code == (0 if verdict == "principal" else 1)
    assert report["verdict"] == verdict
    best = [b for b in report["balances"] if b["verdict"] == verdict]
    assert best and all(b.get("resonances") == resonances for b in best)


# (file, --balance-index, exponents, leading, resonances, exchange_set,
# dropped_singular) of each principal balance; the candidate part is in the
# exchanged coordinates
OKAMOTO = [
    ("painleve2.ham", 0, [1, 0], ["1", "0"], [-1, 2], [], []),
    ("painleve2.ham", 1, [1, 1], ["1", "0"], [-1, 3], [], []),
    ("painleve2.ham", 2, [1, 2], ["-1", "2"], [-1, 4], [], [[-1, "-1"]]),
    ("painleve2.ham", 3, [1, 2], ["1", "0"], [-1, 4], [], []),
    ("painleve4.ham", 0, [1, 0], ["-1/2", "0"], [-1, 2], [0], []),
    ("painleve4.ham", 1, [1, 0], ["1", "0"], [-1, 2], [], []),
    ("painleve4.ham", 2, [1, 1], ["-1", "-1/2"], [-1, 3], [], [[-1, "-1"]]),
    ("painleve4.ham", 3, [1, 1], ["-1/2", "0"], [-1, 3], [0], []),
    ("painleve4.ham", 4, [1, 1], ["1", "0"], [-1, 3], [], []),
]
OKAMOTO_IDS = [f"{name} b={index}" for name, index, *_ in OKAMOTO]


@functools.cache
def hamiltonian_report(name, index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["hamiltonian", str(DATA / name), "--json", f"--balance-index={index}"])
    return code, json.loads(out.getvalue())


def test_okamoto_table_covers_every_principal_balance(capsys):
    for name in ("painleve2.ham", "painleve4.ham"):
        assert main(["test", str(DATA / name), "--json"]) == 0
        balances = json.loads(capsys.readouterr().out)["balances"]
        count = sum(b["verdict"] == "principal" for b in balances)
        assert [index for n, index, *_ in OKAMOTO if n == name] == list(range(count))


@pytest.mark.parametrize(
    "name,index,exponents,leading,resonances,exchange_set,dropped", OKAMOTO, ids=OKAMOTO_IDS
)
def test_okamoto_balance_is_regular_and_canonical(
    name, index, exponents, leading, resonances, exchange_set, dropped
):
    code, report = hamiltonian_report(name, index)
    assert code == 0
    assert (report["exponents"], report["leading"], report["resonances"]) == (
        exponents,
        leading,
        resonances,
    )
    h = report["hamiltonian"]
    assert report["transformed_system"]["regular"] is True and h["canonical"] is True
    assert (h["exchange_set"], h["dropped_singular"]) == (exchange_set, dropped)
    # nonautonomous: the report leaves the check to the test below
    assert "hamilton_equations_match" not in h


@pytest.mark.parametrize("name,index", [row[:2] for row in OKAMOTO], ids=OKAMOTO_IDS)
def test_okamoto_new_hamiltonian_generates_the_transformed_system(name, index):
    sympy = pytest.importorskip("sympy")

    def parse(text):
        return sympy.sympify(text.replace("^", "**"))

    _, report = hamiltonian_report(name, index)
    H = parse(report["hamiltonian"]["new_hamiltonian"])
    ts = report["transformed_system"]
    names = ts["variables"]
    n = len(names) // 2
    rhs = {}
    for variable, series in ts["right_sides"].items():
        assert series["trunc"] is None  # an exact finite Laurent series
        tau = sympy.Symbol(series["var"])
        rhs[variable] = sum(parse(c) * tau**e for e, c in series["terms"])
    for q, p in zip(names[:n], names[n:]):
        Q, P = sympy.Symbol(q), sympy.Symbol(p)
        assert sympy.expand(rhs[q + "'"] - sympy.diff(H, P)) == 0
        assert sympy.expand(rhs[p + "'"] + sympy.diff(H, Q)) == 0
