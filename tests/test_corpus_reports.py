"""Every corpus report, byte for byte.

The tables pin the exit code and the SHA-256 of stdout and of stderr of
`test`, `regularize` and `hamiltonian` on each file of tests/data, with and
without `--json`, and of `regularize` and `hamiltonian` at every principal
balance of each `.ham` file.  Refactors of the engine must leave every row
unchanged; a row changes only with a documented change of output.  The
`.ham` rows are also run under the oldest Python that pyproject.toml
admits, when that interpreter is on PATH.
"""

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from painleve.cli import main
from painleve.core import analyze_system
from painleve.model import hamiltonian_to_system, parse_hamiltonian

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

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


# (command, file, --balance-index, --json, exit code, sha256(stdout),
# sha256(stderr)): the principal balances after the first of each .ham file
# (index 0 is the default, in CORPUS_REPORTS).  P_IV index 3 is built in
# exchanged coordinates (exchange_set [0]).
BALANCE_INDEX_REPORTS = [
    ("regularize", "painleve2.ham", 1, False, 0, "99c0eb9373b3edbb83f3417bbc64513c6eb269387ada76c32b9cfb92ecfb2ca3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", 1, True, 0, "78a25086bd33bba7c50f3bc014e859ab9fd3232f3b68ea389ebd81e6a440bc81", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", 2, False, 0, "9977f976464919bf8f85dde7157a301fda2f0f600a48b258c772c6da5b8ce585", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", 2, True, 0, "999b1572c64b4cf317c4159b90f27c06f17778d7efc3898d2f9abd4e4b22d658", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", 3, False, 0, "f9a86672adfec2f05214881870bdf97e76f62abdd6acdd3f7da469520e237591", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve2.ham", 3, True, 0, "f16b478d9e681b1455c027f970d45949ebd34255412f64e50d3d1e51f241adea", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", 1, False, 0, "4efe93dc56a22c714f40f054e81bb6ee616ea71c8520640f04bbf335f70641dc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", 1, True, 0, "4ded826f3cd04f1c12d08a48d7b8d478cc5d7d0d74095176ba07fa49a817c1de", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", 2, False, 0, "75a3426860ea8d6b512c0fa93434b84be291067d7fb2520bd2b8d2f7381b73dc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", 2, True, 0, "a34714205410ad9eaba0c3ab7ce82e17eb76c81e4cff425741902def89a811fe", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", 3, False, 0, "38fe1b966f934805ecf64338f148d13cd7654a9684c045cb467fc97fab5c06ce", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve2.ham", 3, True, 0, "f62ea03c7c9be7842e95c9bd4ad4fd13bcae85e9d5021a9402e77cf9d4cf764a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 1, False, 0, "6c667ca4470736a63204fd54e2842c10c4cb8c97a867ce01f6963ddb2b4382ad", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 1, True, 0, "93166a5cfb35543f684276cec070cb607ade8ebc561bf6c75761b1af6889cebc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 2, False, 0, "a90b1eae675f8e555fae0485d1331c75ee1b0cefe758f7a1e511657732a111b3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 2, True, 0, "e5ebe3f7d6a3febc73315c0c44b875962e8bf5e3cf8d34f9521784d0385d7966", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 3, False, 0, "eb00a9fd461d0bce7ea447eacb20df489163e908860f6163121c98e74b1b7ddb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 3, True, 0, "5dbe9668e29eef28d4ea5235354b196c274f096e715993e84cb3343931cb5bc0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 4, False, 0, "c82bde2fce9a21fd181063c8c8bb8864f38b6c333b4a3e4940e2bb8450272dc1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("regularize", "painleve4.ham", 4, True, 0, "c66d994d99328ad4ac78cedb9a406b433777269dd8fd2cd92e1d87ee67f92de7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 1, False, 0, "ee504c0466c0c5554eaac6cef36cf5ad88d5042f861415b06740feda19748ff1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 1, True, 0, "490aade58f2635cd2e357c72df02e3d3c5aa703ce76b9cbe238c6ee717348331", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 2, False, 0, "2b480bbf1b4a9cf2e17de71283311137aff79a9e9d8dba431146f87e8d4bb53f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 2, True, 0, "04c5ac0e5041f79478a146e25cf16b7590e6af265fa2b26bdef272bfd0798baf", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 3, False, 0, "3d9154ea2b3a82443824252cb9f3b68d1846efe8d737bc4568cb3b6d497b100a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 3, True, 0, "5ee3293c336571148ba52bea01d65fc930a23962d016daeb26cc0a744cc7e0c3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 4, False, 0, "59710f4e11401c20c7376468f23b9cebe8153eff9a0439453fbd5e6d754fccae", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hamiltonian", "painleve4.ham", 4, True, 0, "75b75a653286ab4cf0094c29e2ea592a202619751831835552562c02128b5c7c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

PINNED = [(c, n, 0, j, *pins) for c, n, j, *pins in CORPUS_REPORTS] + BALANCE_INDEX_REPORTS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _argv(command: str, name: str, index: int, as_json: bool) -> list[str]:
    return (
        [command, str(DATA / name)]
        + ([f"--balance-index={index}"] if index else [])
        + (["--json"] if as_json else [])
    )


def test_table_covers_the_corpus():
    names = sorted(p.name for p in DATA.iterdir())
    keys = [tuple(row[:4]) for row in PINNED]
    assert len(set(keys)) == len(keys)
    # every command, text and --json, on every file at its default balance,
    # and regularize and hamiltonian at every principal balance of a .ham file
    commands = ("test", "regularize", "hamiltonian")
    expected = {(c, n, 0, j) for c in commands for n in names for j in (False, True)}
    for name in names:
        if name.endswith(".ham"):
            system = hamiltonian_to_system(parse_hamiltonian((DATA / name).read_text()))
            count = len(analyze_system(system).principal_candidates())
            expected |= {
                (c, name, i, j)
                for c in commands[1:]
                for i in range(count)
                for j in (False, True)
            }
    assert set(keys) == expected


@pytest.mark.parametrize(
    "command,name,index,as_json,code,out_digest,err_digest",
    PINNED,
    ids=[" ".join([c, n] + _argv(c, n, i, j)[2:]) for c, n, i, j, *_ in PINNED],
)
def test_corpus_report_pinned(capsys, command, name, index, as_json, code, out_digest, err_digest):
    got = main(_argv(command, name, index, as_json))
    captured = capsys.readouterr()
    assert (got, _sha(captured.out), _sha(captured.err)) == (code, out_digest, err_digest)


# `requires-python` in pyproject.toml
OLDEST_PYTHON = "python3.10"

# run with the standard library only: each argv read from stdin, one
# [exit code, sha256(stdout), sha256(stderr)] per argv on stdout
_DIGEST_ROWS = """
import contextlib, hashlib, io, json, sys
from painleve.cli import main
digests = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests.append([code] + [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)])
print(json.dumps(digests))
"""


def test_oldest_python_prints_the_pinned_ham_reports():
    exe = shutil.which(OLDEST_PYTHON)
    version = "import sys; print(sys.version_info[:2] == (3, 10))"
    probe = exe and subprocess.run([exe, "-S", "-c", version], capture_output=True, text=True)
    if not probe or probe.stdout.strip() != "True":
        pytest.skip(f"no working {OLDEST_PYTHON} on PATH")
    rows = [row for row in PINNED if row[1].endswith(".ham")]
    done = subprocess.run(
        [exe, "-S", "-c", _DIGEST_ROWS],
        input=json.dumps([_argv(*row[:4]) for row in rows]),
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == [list(row[4:]) for row in rows]
