import argparse

import numpy as np
import pytest

from proxmg import certificates, cli
from proxmg.certificates import SCOPES
from proxmg.cli import SOLVERS, _build_parser, main


def read(path):
    return path.read_text(encoding="utf-8")


def _choices(command, dest):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def _rows(table):  # the cells of compare's solver rows, in the printed order
    return [cells for cells in map(str.split, table.splitlines())
            if cells and cells[0] in SOLVERS]


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


def test_solve_met_at_its_start_reports_the_start(capsys):
    """A tolerance above 1 is met before any iteration; the summary reports
    the start's relative |G|, 1, not 0."""
    assert main(["solve", "--n-exp", "3", "--tol", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "iterations=0 rel_norm=1.000e+00 " in out and "converged=True" in out


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


def test_algo_choices_compare_rows_and_csv_names_follow_the_solver_table(tmp_path, capsys):
    assert tuple(_choices("solve", "algo")) == tuple(SOLVERS)
    main(["compare", "--n-exp", "3", "--levels", "2", "--max-iters", "2",
          "--out-prefix", str(tmp_path / "t")])
    assert tuple(cells[0] for cells in _rows(capsys.readouterr().out)) == tuple(SOLVERS)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"t_{a}.csv" for a in SOLVERS)


def test_compare_is_bit_deterministic(tmp_path, capsys):
    args = ["compare", "--n-exp", "3", "--levels", "2", "--tol", "1e-8",
            "--seed", "7", "--max-iters", "400"]
    code = main(args + ["--out-prefix", str(tmp_path / "a")])
    assert code == 0
    main(args + ["--out-prefix", str(tmp_path / "b")])
    for algo in SOLVERS:
        a = read(tmp_path / f"a_{algo}.csv")
        b = read(tmp_path / f"b_{algo}.csv")
        assert a == b
        assert a.splitlines()[0] == "iter,time_s,objective,rel_prox_grad_norm,coarse_alpha"
    table = capsys.readouterr().out
    for algo in SOLVERS:
        assert algo in table


def test_compare_table_is_deterministic_outside_the_time_column(tmp_path, capsys):
    args = ["compare", "--n-exp", "3", "--levels", "2", "--tol", "1e-8",
            "--seed", "3", "--max-iters", "300"]
    main(args + ["--out-prefix", str(tmp_path / "a")])
    first = capsys.readouterr().out
    main(args + ["--out-prefix", str(tmp_path / "b")])
    second = capsys.readouterr().out

    def strip_time(text):
        return [(c[0], c[1], c[3]) for c in _rows(text)]  # iterations and gap

    assert strip_time(first) == strip_time(second)
    assert len(strip_time(first)) == 5


def test_compare_multigrid_has_the_fewest_iterations(tmp_path, capsys):
    """mgprox and fastmgprox take fewer cycles than any other solver takes
    iterations.  Which of the two is faster depends on the start (seeds 0 /
    1 / 2 / 3 give 19/17, 18/19, 14/17 and 20/14), so their pair is pinned
    as measured instead of ordered."""
    main(["compare", "--n-exp", "4", "--levels", "3", "--tol", "1e-10",
          "--seed", "0", "--max-iters", "200", "--out-prefix", str(tmp_path / "c")])
    out = capsys.readouterr().out
    counts = {c[0]: (c[1].startswith(">"), int(c[1].lstrip(">"))) for c in _rows(out)}
    assert (counts["mgprox"], counts["fastmgprox"]) == ((False, 19), (False, 17))
    for algo in ("proxgrad", "fista", "kocvara3"):
        unconverged, iters = counts[algo]
        assert unconverged or iters > counts["mgprox"][1]


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
    # a NaN tolerance is never met and an infinite one is met at the start;
    # a NaN weight makes every objective NaN.  The short budget bounds a
    # solve that would wrongly start.
    ("tol", "nan", ["--max-iters", "2"]),
    ("tol", "inf", ["--max-iters", "2"]),
    ("lam", "nan", ["--max-iters", "2"]),
    ("lam", "inf", ["--max-iters", "2"]),
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
    for algo in SOLVERS:
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
    assert set(_choices("verify", "scope")) == {"all", *SCOPES}


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


class Started(Exception):
    """Raised by a stand-in solver once it has seen its start point."""


@pytest.mark.parametrize("seed", [0, 5])
def test_solve_and_verify_start_from_the_same_array(seed, monkeypatch):
    starts = []

    def record(stack, x0, *args, **kwargs):
        starts.append(x0.copy())
        raise Started

    monkeypatch.setitem(cli.SOLVERS, "mgprox", record)
    monkeypatch.setattr(certificates, "certify_run", record)
    with pytest.raises(Started):
        main(["solve", "--n-exp", "4", "--levels", "3", "--seed", str(seed)])
    with pytest.raises(Started):
        SCOPES["mgprox"](seed)
    assert starts[0].shape == (225,)
    np.testing.assert_array_equal(starts[0], starts[1])


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
