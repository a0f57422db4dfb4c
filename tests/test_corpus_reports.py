"""Every corpus report, byte for byte.

The table pins the exit code and the SHA-256 of stdout and of stderr of
`test`, `regularize` and `hamiltonian` on each file of tests/data, with and
without `--json`.  Refactors of the engine must leave every row unchanged;
a row changes only with a documented change of output.
"""

import hashlib
from pathlib import Path

import pytest

from painleve.cli import main

DATA = Path(__file__).parent / "data"

# (command, file, --json, exit code, sha256(stdout), sha256(stderr))
CORPUS_REPORTS = [
    ("test", "cubic.sys", False, 1, "44464ee984444dde8140a19d85836f563f164be816039e8871c36930de0974ae", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "cubic.sys", True, 1, "185d551cc4a057fbd498a6e7e32c131990710b4d554dd28beb954f1dc90b960c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "cubic.sys", False, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ce069b4c942dabe9dd3c50d55b29363db933fc0f27f716167185dd8e08f84fa0"),
    ("regularize", "cubic.sys", True, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ce069b4c942dabe9dd3c50d55b29363db933fc0f27f716167185dd8e08f84fa0"),
    ("hamiltonian", "cubic.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("hamiltonian", "cubic.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("test", "exp_family.sys", False, 0, "3290e8e5b055be015f7371ca695afb2513065b8376f0f0ca077ef5902dfc5426", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "exp_family.sys", True, 0, "7d7cc488729e37aedfa8267d01b462a5f44dca2af28f6ba2ba4e783fdfd4c744", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "exp_family.sys", False, 0, "3c8a5bb0068e8e58a70ff3cc56308d6c48344a5899852d87d9807b44975770b1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "exp_family.sys", True, 0, "02151645f811084dc0e83fdb007ceffe4406dde203242c360e4ae0f8aae386f3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "exp_family.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("hamiltonian", "exp_family.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("test", "gd.ham", False, 0, "4ec26e2437e5bd13b7ca4605946199a0b90876c5356654ef50c6aaaa34c58ee7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "gd.ham", True, 0, "419568560eef1fb2aeb047b1875c8284ac1bf7201335a0e0ec8e50b8d51601d3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "gd.ham", False, 0, "4218fecdf4d969706ca000879f57a47dc72e2661644de50ff8be12cab00cd4e0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "gd.ham", True, 0, "6f6984df7c9e470da74d62fab9b9682f54adbf9e8d31561692b56c8ef50dff84", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "gd.ham", False, 0, "3822cfc142974677092a81c05b74a6ab429a81ee2e49d66186c1abbe40f7a82f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "gd.ham", True, 0, "39ca4c825e7f99dfa73462ad9356b84f7e458c1c84ff7e6294fa06b2831a4a72", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "henon_heiles.ham", False, 0, "e95d9610af3ec7f12bab7ec6ebff5d0f0ffa1484e4c14f1f4a32f994771cb850", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "henon_heiles.ham", True, 0, "da59926a17e6c2d7c767d057ad8cb03ba446c50c6dd0d96b8c46c49de775888b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "henon_heiles.ham", False, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "667f0fb7a9ab77e901414d86943ff4d9d79bcd29a20e6bbcad8b41c6ab2ee51b"),
    ("regularize", "henon_heiles.ham", True, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "667f0fb7a9ab77e901414d86943ff4d9d79bcd29a20e6bbcad8b41c6ab2ee51b"),
    ("hamiltonian", "henon_heiles.ham", False, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "acd4b18e03ebb3419e9c16c1afee43ffd97257e794f3244bcd6a551c9bf46e5b"),
    ("hamiltonian", "henon_heiles.ham", True, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "acd4b18e03ebb3419e9c16c1afee43ffd97257e794f3244bcd6a551c9bf46e5b"),
    ("test", "inconsistent.sys", False, 0, "231e4e7db3974d49d6218b6c7b4ec0646a62b3aadfc9cfc3f887b4dd1462ccd3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "inconsistent.sys", True, 0, "a5f9da2b82dbf1d398e720b6a28e35b90bbdc53d2379af1a9a79c5d6803fe17b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "inconsistent.sys", False, 0, "77d055644b33a421058aae9ab43ac3b413d07ca79063ac6fd8db2563988ae419", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "inconsistent.sys", True, 0, "5b83295345e5d3fd8dfd0eb4cced9896d5ce5e03a3d95b583988ae19a8685165", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "inconsistent.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("hamiltonian", "inconsistent.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("test", "nonpoly.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "bea5bca182e8a2539a2591f3b03f7cb2f2f34e5039c5ba309640e12fd5998e79"),
    ("test", "nonpoly.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "bea5bca182e8a2539a2591f3b03f7cb2f2f34e5039c5ba309640e12fd5998e79"),
    ("regularize", "nonpoly.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "bea5bca182e8a2539a2591f3b03f7cb2f2f34e5039c5ba309640e12fd5998e79"),
    ("regularize", "nonpoly.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "bea5bca182e8a2539a2591f3b03f7cb2f2f34e5039c5ba309640e12fd5998e79"),
    ("hamiltonian", "nonpoly.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "bea5bca182e8a2539a2591f3b03f7cb2f2f34e5039c5ba309640e12fd5998e79"),
    ("hamiltonian", "nonpoly.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "bea5bca182e8a2539a2591f3b03f7cb2f2f34e5039c5ba309640e12fd5998e79"),
    ("test", "painleve1.ham", False, 0, "d874fc907e4592a6fbc8dc000a7c4c758dac2811c37df67aedf98cc66bca833b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "painleve1.ham", True, 0, "60feb69d31bf508a06253e0abe2ee0397c406f4dac56e707686e31d8168f75f6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve1.ham", False, 0, "63a028cf40878a5e56bd3c1346f795fbbb7be415f93861c9c0007dc1dfd34cfe", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve1.ham", True, 0, "df90937d79060dd00296605e64c94c862ed595b913ddf02b796b10bc667c7518", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve1.ham", False, 0, "afc5229d7248656bbb6172672f5fbadb7d5aa6f9df9cf8dd0030c08252dbfcec", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve1.ham", True, 0, "0c1b3a75913b7f04b29c4fa265578ab37272479fef61538d75bd51b1c53948c5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "painleve2.ham", False, 0, "e8b89890a408ac8a487734239846f83957ce59f323a1c93cb26fdc4429e2c300", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "painleve2.ham", True, 0, "aa636863ed652890cc7f16b1a531884e281719eae9d867cd6171d2f3faef88c4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", False, 0, "e6fbbee7585670e294a4231264b9cff877ef0c92311c1b064e7e4c042f95aef9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", True, 0, "d37b3358815084cd00bdaefcb3034e07dd4be407048347d49774653f7a0a303a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", False, 0, "fd897c994605ad5762b77cdd4d14e811cdb456f6b14d915d1bc46bf54cb2b415", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", True, 0, "50afedd9949237c03bc619f35f356b1f43be7bad1420f5923fc28d66a6357f57", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "painleve4.ham", False, 0, "446c43f9d9f882054d660fad422aa0a068abec7b17a7f2bb1d9fad82f3907721", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "painleve4.ham", True, 0, "ccbc9b9bf3613305c29793382c2890747bd75582041d0c964cc192ef2e545b24", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", False, 0, "0b5b0f7959473f209838c626ce3ef3fd62dbd3e750a618a0568c1cf78044751a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", True, 0, "6739eae8580405a6702323851ee255d707a21679b154333469d93ab7c99c93a9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", False, 0, "bffe7f1fdfeedf7c23f127527d2f76d8c295aac24355f3b766fbdd2de8837c97", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", True, 0, "d1455a3cf4a7a9fbacf55e517e7b087ab34fddbf90dce6edc30772940312fea3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "pole2.sys", False, 0, "d66a364b71cb547cf38c4533ddee4b661239b1848308eaddf5d43d8e9aec32d2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "pole2.sys", True, 0, "6a051725be1884cdfe5841bd926c217c3de3b71b4b992d500a9f12d7dcf9056d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "pole2.sys", False, 0, "2e1b1889ee0ea093b443676eb8ab602fedd8178e2550ecba768df562bd8632d9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "pole2.sys", True, 0, "85fbbd8dd83736f5b5c32bdd9e294ef47a8bd4b0b081f4fcadf6dc0ae4edaa16", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "pole2.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("hamiltonian", "pole2.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("test", "riccati.sys", False, 0, "6fba4c59c2947662d42498427ea82411172c6df352be888070e9519318016825", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("test", "riccati.sys", True, 0, "24a3646f2cf3608de79066f6d363749fb84563dcabe1cbfb669e64cae31b1389", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "riccati.sys", False, 0, "1f9a07a525d48cf96dfc682fd479ca9f9d8169a44578d9bc58b5e8951f97f9b5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "riccati.sys", True, 0, "0a83ec5b672e71b5f106fdf4f787826ae48abfb49ef29c3014e4bcf2c9eb931c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "riccati.sys", False, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
    ("hamiltonian", "riccati.sys", True, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "975c6ecceb2b725a1dc2d311b220ad98921dba9df0a3db98b9fef3a830f06e56"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_table_covers_the_corpus():
    names = sorted(p.name for p in DATA.iterdir())
    assert sorted({row[1] for row in CORPUS_REPORTS}) == names
    assert len(CORPUS_REPORTS) == len(names) * 3 * 2


@pytest.mark.parametrize(
    "command,name,as_json,code,out_digest,err_digest",
    CORPUS_REPORTS,
    ids=[f"{c} {n}{' --json' if j else ''}" for c, n, j, *_ in CORPUS_REPORTS],
)
def test_corpus_report_pinned(capsys, command, name, as_json, code, out_digest, err_digest):
    argv = [command, str(DATA / name)] + (["--json"] if as_json else [])
    got = main(argv)
    captured = capsys.readouterr()
    assert (got, _sha(captured.out), _sha(captured.err)) == (code, out_digest, err_digest)
