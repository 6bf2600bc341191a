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
        "mgprox": "4ff1b8ecefcc1dc71b54e7b1ef42da40a7f8cfc0cd67f966ceb81e6694b1651a",
        "fastmgprox": "40e65a4d8969533fb46f89ef8b12d0c1b91a1e125f7e8a55c77b211919e9eb28",
        "proxgrad": "a4cd1372b40dbbcd6fdfc8ef95c003ec51d63a275a924844dd4c390bfad99853",
        "fista": "7d58d0590e4d905bb2f2d9d48ef7819f38267e567b3a33aea1ef867320ba481f",
        "kocvara3": "16c59ad715cee4978cb03e18e4ad9e4158f190ea35859650c0faf8ebcc4ae381",
    },
    ("fixed", "100"): {
        "mgprox": "743c37bd08c097d598841cd60d7bebe2d3e09d022de5f581e99980fb3d8aed67",
        "fastmgprox": "c8971ced13dadc21bb09832eba1d1585a0481d054f1eae667d0e7637b38b2662",
        "proxgrad": "96f42e2a8e756b308eb809b46922ff5f424d47701dc5e50f03e1f3af777dad44",
        "fista": "21baad1aba801420571d9cfd12c14f8cb4ce71eda7e46059f3279251277e2655",
        "kocvara3": "ae459f530942045f0685b4267e8b15a131c20455fce3152f6d932151522d4694",
    },
    ("backtracking", "1e-6"): {
        "mgprox": "47f68925c27ae45dc28ce371982d41f401d0850e73ba42dce66b1c3cef74085f",
        "fastmgprox": "f0de75a9c8b0132f3ea09ab1ba6926b749c045e5f8335b3093da8f986daad167",
        "proxgrad": "a4cd1372b40dbbcd6fdfc8ef95c003ec51d63a275a924844dd4c390bfad99853",
        "fista": "7d58d0590e4d905bb2f2d9d48ef7819f38267e567b3a33aea1ef867320ba481f",
        "kocvara3": "f6aaa794d1b17b865fff2aa20e47ede9c101bdf25db42865b1ea64f80bee21a3",
    },
    ("backtracking", "100"): {
        "mgprox": "824f5fedce2721ad3c5d16810992890506f4e4bdbee7a57ae468cab7ef67e076",
        "fastmgprox": "afb2561aaa9c85a358c2add493cdaf26850a54e5595a5de0f942542e9eee68cc",
        "proxgrad": "96f42e2a8e756b308eb809b46922ff5f424d47701dc5e50f03e1f3af777dad44",
        "fista": "21baad1aba801420571d9cfd12c14f8cb4ce71eda7e46059f3279251277e2655",
        "kocvara3": "f85581af8d56222ce54eaf00290253d33dc861a3c7a08b7ce6b4fc3571e0ea30",
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
