"""Fixed-seed CSV bytes stay the same across changes, not only across runs.

``proxmg compare`` is run on the obstacle problem at both step modes,
without contact (lam = 1e-6) and in contact (lam = 100), and on the
synthetic chain at its defaults, and each solver's CSV is compared with the
SHA-256 recorded for it.  A change that moves any iterate by one ulp moves a
digest, so a refactor that is meant to keep the bytes is checked here.  The
digests were recorded with numpy 2.4 and scipy 1.17 on x86-64; a different
floating-point stack may round differently and then fails here first.
"""

import hashlib

import pytest

from proxmg.cli import SOLVERS, main

ARGS = ["compare", "--n-exp", "4", "--levels", "3", "--max-iters", "60", "--seed", "1"]

DIGESTS = {
    ("fixed", "1e-6"): {
        "mgprox": "b50c5d89a07ef2d819197995266467009942db01a93831575a8646298a8eaefd",
        "fastmgprox": "1d4bcde9b95789c1d2a6bd2910b358cd7154d6c6b58521b0680d58f9d4d6407a",
        "proxgrad": "f5a1677546dab9ed5552a03d51747431908d35bf0504fa03a96de383954d1b6c",
        "fista": "9ccd59845340eb3feef3ca0622a5edffd204335eb3047e570d1198a2e3c5128a",
        "kocvara3": "5205c88e0d3d2f3e4463a13c735b048fe3e83cc0c2a22a793a83d326ff313508",
    },
    ("fixed", "100"): {
        "mgprox": "86e8b1475ad1195235af68c2f005feac43e91b3dd46773290955a6954f897d87",
        "fastmgprox": "c367fa42434d541a5864c7cfccd0c3028825cfb06a66cfb7d89c6c865e97cdef",
        "proxgrad": "db2556ed518e6c89a91f856031041cb6f4eabaaac888bf8bf7c0c0c9aee4733f",
        "fista": "07335055a6f79233c27671922964aed0d6f73b4da30760a870dbc4d02d4ef825",
        "kocvara3": "f8f09b92a981be6f4d992105628d493738fc3ac4169589c6996422196c05f6b1",
    },
    ("backtracking", "1e-6"): {
        "mgprox": "8bcb48295e3cf2f0a1de8e25502bd6a3c201b51fb4c290eb0d98e4bf1be4801c",
        "fastmgprox": "fdd1a3fdd1a2ef3b25e7e03425c4063a1ca1affa302fa56c9cafef9ed798cfce",
        "proxgrad": "f5a1677546dab9ed5552a03d51747431908d35bf0504fa03a96de383954d1b6c",
        "fista": "9ccd59845340eb3feef3ca0622a5edffd204335eb3047e570d1198a2e3c5128a",
        "kocvara3": "ccdf96e5f0ead13d5d99b3220da809160185d3bd6d22c0ff0f85c268ea1782e9",
    },
    ("backtracking", "100"): {
        "mgprox": "00c53de315cdecee504ec63056d863bfd8cf5547a7b3a934a1123bf03b178d95",
        "fastmgprox": "d707bb384a08cb9ea5297e00a9f2c2d573bd4012e56d0e6817a63e9867b51157",
        "proxgrad": "db2556ed518e6c89a91f856031041cb6f4eabaaac888bf8bf7c0c0c9aee4733f",
        "fista": "07335055a6f79233c27671922964aed0d6f73b4da30760a870dbc4d02d4ef825",
        "kocvara3": "12b5f7abf8ec9c3e29133f572ad2a910b1cac43bc0742b8325ba2bddfd303f0c",
    },
}


def _csv_digests(args, tmp_path, capsys):
    assert main([*args, "--out-prefix", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    return {algo: hashlib.sha256((tmp_path / f"c_{algo}.csv").read_bytes()).hexdigest()
            for algo in SOLVERS}


@pytest.mark.parametrize("step_mode, lam", sorted(DIGESTS))
def test_compare_csvs_match_their_recorded_digests(step_mode, lam, tmp_path, capsys):
    got = _csv_digests([*ARGS, "--step-mode", step_mode, "--lam", lam], tmp_path, capsys)
    assert got == DIGESTS[step_mode, lam]


SYNTHETIC_ARGS = ["compare", "--problem", "synthetic", "--n-exp", "5", "--levels", "2",
                  "--max-iters", "60", "--seed", "1"]

SYNTHETIC_DIGESTS = {
    "mgprox": "3adfadf63c5f8dc19956138c41731aaa168582dd3607da293eaafd5b78a980e4",
    "fastmgprox": "de7744b01c85fc07a509a8e63e64b3685f08530aff7a205f1b7460a6c70b1b48",
    "proxgrad": "4ffb50ea9544e60891bd85ba247fd36400e9d1fb423b02ae8ceae7c313614df2",
    "fista": "e6f717f1af921727d74a6db16c61c659affe4b8a671e8598b312095a30ec3b2c",
    "kocvara3": "43a35eddd34297d351a911e07db399954a5097b54ee84570c4f71460081b97ae",
}


def test_synthetic_compare_csvs_match_their_recorded_digests(tmp_path, capsys):
    assert _csv_digests(SYNTHETIC_ARGS, tmp_path, capsys) == SYNTHETIC_DIGESTS
