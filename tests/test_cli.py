import argparse

import pytest

from proxmg.certificates import SCOPES
from proxmg.cli import _build_parser, main


def read(path):
    return path.read_text(encoding="utf-8")


def test_solve_writes_csv_with_schema(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["solve", "--problem", "eop", "--n-exp", "3", "--algo", "mgprox",
                 "--levels", "2", "--smoothing", "20", "--tol", "1e-10",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0] == "iter,time_s,objective,rel_prox_grad_norm,coarse_alpha"
    assert 1 <= len(lines) - 1 <= 200
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == ""  # deterministic output: no wall time by default
    assert "e" in first[2] and len(first[2].split("e")[0].replace("-", "").replace(".", "")) >= 12
    summary = capsys.readouterr().out
    assert "mgprox" in summary and "converged=True" in summary


def test_solve_row_count_matches_budget_when_tolerance_unmet(tmp_path):
    out = tmp_path / "fista.csv"
    code = main(["solve", "--problem", "eop", "--n-exp", "3", "--algo", "fista",
                 "--max-iters", "10", "--tol", "1e-16", "--out", str(out)])
    assert code == 1  # ran out of budget: solve failure
    lines = read(out).splitlines()
    assert len(lines) - 1 == 10


def test_single_level_solver_leaves_alpha_empty(tmp_path):
    out = tmp_path / "pg.csv"
    main(["solve", "--n-exp", "3", "--algo", "proxgrad", "--max-iters", "5",
          "--out", str(out)])
    row = read(out).splitlines()[1]
    assert row.endswith(",")


def test_invalid_n_exp_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n-exp", "0"])
    assert exc.value.code == 2
    assert "--n-exp" in capsys.readouterr().err


def test_unknown_algorithm_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "sgd"])
    assert exc.value.code == 2


def test_compare_is_bit_deterministic(tmp_path, capsys):
    args = ["compare", "--n-exp", "3", "--levels", "2", "--tol", "1e-8",
            "--seed", "7", "--max-iters", "400"]
    code = main(args + ["--out-prefix", str(tmp_path / "a")])
    assert code == 0
    main(args + ["--out-prefix", str(tmp_path / "b")])
    for algo in ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3"):
        a = read(tmp_path / f"a_{algo}.csv")
        b = read(tmp_path / f"b_{algo}.csv")
        assert a == b
        assert a.splitlines()[0] == "iter,time_s,objective,rel_prox_grad_norm,coarse_alpha"
    table = capsys.readouterr().out
    for algo in ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3"):
        assert algo in table


def test_compare_table_is_deterministic_outside_the_time_column(tmp_path, capsys):
    args = ["compare", "--n-exp", "3", "--levels", "2", "--tol", "1e-8",
            "--seed", "3", "--max-iters", "300"]
    main(args + ["--out-prefix", str(tmp_path / "a")])
    first = capsys.readouterr().out
    main(args + ["--out-prefix", str(tmp_path / "b")])
    second = capsys.readouterr().out

    def strip_time(text):
        rows = []
        for line in text.splitlines():
            cells = line.split()
            if cells and cells[0] in ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3"):
                rows.append((cells[0], cells[1], cells[3]))  # iterations and gap
        return rows

    assert strip_time(first) == strip_time(second)
    assert len(strip_time(first)) == 5


def test_compare_multigrid_has_the_fewest_iterations(tmp_path, capsys):
    main(["compare", "--n-exp", "4", "--levels", "3", "--tol", "1e-10",
          "--seed", "0", "--max-iters", "200", "--out-prefix", str(tmp_path / "c")])
    out = capsys.readouterr().out
    counts = {}
    for line in out.splitlines():
        cells = line.split()
        if cells and cells[0] in ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3"):
            counts[cells[0]] = (cells[1].startswith(">"), int(cells[1].lstrip(">")))
    unconverged_mg, mg = counts["mgprox"]
    assert not unconverged_mg
    for algo, (unconverged, iters) in counts.items():
        if algo != "mgprox":
            assert unconverged or iters > mg


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-exp = 3\nalgo = fista\nmax-iters = 5\n# comment\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    main(["solve", "--config", str(cfg), "--algo", "proxgrad", "--out", str(out),
          "--tol", "1e-16"])
    assert "proxgrad" in capsys.readouterr().out  # flag wins over the file
    assert len(read(out).splitlines()) - 1 == 5   # file value still applies


@pytest.mark.parametrize("key, value, extra", [
    ("problem", "EOP", []),
    ("tol", "-1", []),
    ("max-iters", "0", []),
    ("n-exp", "0", []),
    ("algo", "sgd", []),
    ("step-mode", "wild", ["--algo", "proxgrad"]),
])
def test_config_file_values_get_the_flag_checks(tmp_path, capsys, key, value, extra):
    # a file entry is parsed as the flag it names: same exit status, same message
    with pytest.raises(SystemExit) as exc:
        main(["solve", f"--{key}", value, *extra])
    assert exc.value.code == 2
    flag_err = capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg), *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--{key}" in err
    assert err == flag_err


def test_compare_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "compare.cfg"
    cfg.write_text("n_exp = 3\nlevels = 2\nmax-iters = 5\nstep-mode = fixed\nseed = 9\n",
                   encoding="utf-8")
    main(["compare", "--config", str(cfg), "--seed", "4", "--out-prefix", str(tmp_path / "f")])
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ("problem=eop n=49 lam=1e-06 levels=2 smoothing=20 tol=1e-10 "
                      "seed=4 step_mode=fixed")  # the flag's seed, the file's step mode
    main(["compare", "--n-exp", "3", "--levels", "2", "--max-iters", "5",
          "--step-mode", "fixed", "--seed", "4", "--out-prefix", str(tmp_path / "a")])
    for algo in ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3"):
        assert (tmp_path / f"f_{algo}.csv").read_bytes() == (tmp_path / f"a_{algo}.csv").read_bytes()


def test_bad_config_key_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("niter = 5\n", encoding="utf-8")
    code = main(["solve", "--config", str(cfg)])
    assert code == 2
    assert "niter" in capsys.readouterr().err


def test_verify_scope_prox(capsys):
    code = main(["verify", "--scope", "prox"])
    assert code == 0
    out = capsys.readouterr().out
    assert "prox-oracle" in out and "PASS" in out


def test_verify_negative_controls(capsys):
    code = main(["verify", "--scope", "negative-controls"])
    assert code == 0
    out = capsys.readouterr().out
    assert "negative-control-tau" in out
    assert "negative-control-trace" in out
    assert "negative-control-kocvara3" in out


def test_verify_scope_choices_are_the_suite_table():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    scope = next(a for a in sub.choices["verify"]._actions if a.dest == "scope")
    assert set(scope.choices) == {"all", *SCOPES}


def test_verify_fixed_point_certifies_a_masked_contact_cycle(capsys):
    code = main(["verify", "--scope", "fixed-point"])
    assert code == 0
    contact = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("PASS  contact-")]
    names = [line.split()[1] for line in contact]
    assert names == ["contact-reference-accuracy", "contact-fixed-point-fine",
                     "contact-fixed-point-coarse", "contact-fixed-point-objective",
                     "contact-fixed-point-mask"]
    assert all("margin=" in line for line in contact)
    assert int(contact[-1].split("fine mask ")[1].split()[0]) > 0


def test_compare_rows_match_standalone_solves(tmp_path):
    # every solver in compare gets its own stack, so a row does not depend on
    # the solvers that ran before it (kocvara3 and fastmgprox follow mgprox)
    common = ["--n-exp", "4", "--levels", "3", "--seed", "42", "--max-iters", "8"]
    main(["compare", *common, "--out-prefix", str(tmp_path / "c")])
    for algo in ("kocvara3", "fastmgprox"):
        alone = tmp_path / f"solve_{algo}.csv"
        main(["solve", *common, "--algo", algo, "--step-mode", "backtracking",
              "--out", str(alone)])
        assert (tmp_path / f"c_{algo}.csv").read_bytes() == alone.read_bytes()
