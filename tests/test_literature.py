"""Verdicts on textbook systems, against the literature.

Painleve II, u'' = 2u^3 + tu + alpha, at alpha = 1/2 passes the test with
resonances -1 and 4, as a first-order system and from the Hamiltonian
H = p^2/2 - q^4/2 - tq^2/2 - alpha*q (Ablowitz, Ramani & Segur, J. Math.
Phys. 21, 1980).  The Henon-Heiles family H = (p1^2 + p2^2)/2 + q1^2 q2 +
s/3 q2^3 passes for s = 1 (C/D = -1) with resonances -1, 2, 3, 6, has a
resonance 0 at s = 2 (C/D = -2), and has non-integer resonances at s = 16
(C/D = -16), which only the weak test handles (Chang, Tabor & Weiss,
J. Math. Phys. 23, 1982)."""

import json

import pytest

from painleve.cli import main

P2_SYSTEM = "system\nvars: u1,u2\nu1' = u2\nu2' = 2*u1^3 + t*u1 + 1/2\n"
P2_HAMILTONIAN = "hamiltonian\nvars: q; p\nH = 1/2*p^2 - 1/2*q^4 - 1/2*t*q^2 - 1/2*q\n"
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
