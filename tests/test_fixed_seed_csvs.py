"""Fixed-seed CSV bytes stay the same across changes, not only across runs.

``proxmg compare`` is run at both step modes, without contact (lam = 1e-6)
and in contact (lam = 100), and each solver's CSV is compared with the
SHA-256 recorded for it.  A change that moves any iterate by one ulp moves a
digest, so a refactor that is meant to keep the bytes is checked here.  The
digests were recorded with numpy 2.4 and scipy 1.17 on x86-64; a different
floating-point stack may round differently and then fails here first.
"""

import hashlib

import pytest

from proxmg.cli import main

ARGS = ["compare", "--n-exp", "4", "--levels", "3", "--max-iters", "60", "--seed", "1"]

DIGESTS = {
    ("fixed", "1e-6"): {
        "mgprox": "761da5935f75e2ef51e85ef3c4d0bbc0a30858c580b20227ba76d2794cd74236",
        "fastmgprox": "10745986b561530fa0d3fc3b3939ca645da07301cad04603616c7fe43cd62bcc",
        "proxgrad": "f5a1677546dab9ed5552a03d51747431908d35bf0504fa03a96de383954d1b6c",
        "fista": "9ccd59845340eb3feef3ca0622a5edffd204335eb3047e570d1198a2e3c5128a",
        "kocvara3": "f1ea6ded027e84711814f36721a1ed0a1269ebea25a9eeccc40765e055484556",
    },
    ("fixed", "100"): {
        "mgprox": "dd5df73e9a142d182f9a25f2b8aa9609873894f9a8d095357eff88829301a4d8",
        "fastmgprox": "6e20a997f5cbdd4f7b22334916a09ea958c1ac1d6719443085b88f021d4b5048",
        "proxgrad": "db2556ed518e6c89a91f856031041cb6f4eabaaac888bf8bf7c0c0c9aee4733f",
        "fista": "07335055a6f79233c27671922964aed0d6f73b4da30760a870dbc4d02d4ef825",
        "kocvara3": "f8f09b92a981be6f4d992105628d493738fc3ac4169589c6996422196c05f6b1",
    },
    ("backtracking", "1e-6"): {
        "mgprox": "1b1cb22a30507b12d335989bfa072476a79cad305c3a15dd7bb67563f56fdabc",
        "fastmgprox": "bf975af4995fbed148f55e9571141850173f35913d4e455048cfd4945b0bd429",
        "proxgrad": "f5a1677546dab9ed5552a03d51747431908d35bf0504fa03a96de383954d1b6c",
        "fista": "9ccd59845340eb3feef3ca0622a5edffd204335eb3047e570d1198a2e3c5128a",
        "kocvara3": "0ebdffdeb7cbbfb364189fd928ec2419650fe2ff18676f1f631db41b5978c717",
    },
    ("backtracking", "100"): {
        "mgprox": "f59191c0af5773b62395c18fce1088d76b0f74d149c9e3d9bb6e555022791ade",
        "fastmgprox": "080bd6f075acbdd10affb699d3d03cc4dbb10840311f6d53bfdd136f5cfad6e5",
        "proxgrad": "db2556ed518e6c89a91f856031041cb6f4eabaaac888bf8bf7c0c0c9aee4733f",
        "fista": "07335055a6f79233c27671922964aed0d6f73b4da30760a870dbc4d02d4ef825",
        "kocvara3": "12b5f7abf8ec9c3e29133f572ad2a910b1cac43bc0742b8325ba2bddfd303f0c",
    },
}


@pytest.mark.parametrize("step_mode, lam", sorted(DIGESTS))
def test_compare_csvs_match_their_recorded_digests(step_mode, lam, tmp_path, capsys):
    prefix = tmp_path / "c"
    assert main([*ARGS, "--step-mode", step_mode, "--lam", lam,
                 "--out-prefix", str(prefix)]) == 0
    capsys.readouterr()
    got = {algo: hashlib.sha256((tmp_path / f"c_{algo}.csv").read_bytes()).hexdigest()
           for algo in DIGESTS[step_mode, lam]}
    assert got == DIGESTS[step_mode, lam]
