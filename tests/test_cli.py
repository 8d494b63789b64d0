import json

import pytest

from collapselab.cli import _require_non_negative, _require_positive, build_parser, main
from collapselab.errors import ConfigError


def run_cli(args):
    return main(args)


# -- help and key enumeration --------------------------------------------------


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("singlet", "epr", "grw-run", "oracle-compare", "ks-check", "ck-trace"):
        assert name in out


def test_subcommand_help_enumerates_keys_and_defaults(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["singlet", "--help"])
    out = capsys.readouterr().out
    for key in ("--trials", "--seed", "--triple-a", "--triple-b", "--same-triples",
                "--out", "--csv", "--workers", "--config"):
        assert key in out
    assert "default" in out


# -- config handling -------------------------------------------------------------


def test_seed_required(capsys):
    assert run_cli(["singlet", "--trials", "10"]) == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_config_key_suggests_nearest(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lamda = 0.5\n")
    code = run_cli(["grw-run", "--config", str(cfg), "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "lamda" in err and "lambda" in err


def test_negative_lambda_rejected_by_name(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = -1.0\n")
    code = run_cli(["grw-run", "--config", str(cfg), "--seed", "1",
                    "--trajectories", "5"])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 20\nseed = 5\n")
    out = tmp_path / "r.json"
    code = run_cli(["singlet", "--config", str(cfg), "--same-triples",
                    "--trials", "30", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["trials"] == 30
    assert report["master_seed"] == 5


def test_minimal_config_defaults_applied(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    out = tmp_path / "r.json"
    assert run_cli(["singlet", "--config", str(cfg), "--trials", "10",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["triple_b"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_require_positive_rejects_non_finite_and_non_positive(bad):
    with pytest.raises(ConfigError, match="horizon"):
        _require_positive({"horizon": bad}, "horizon")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0, -1])
def test_require_non_negative_rejects_non_finite_and_negative(bad):
    with pytest.raises(ConfigError, match="lambda"):
        _require_non_negative({"lambda": bad}, "lambda")


# tiny sizes: each run would finish quickly even if validation let it through
_TINY_ORACLE = ["oracle-compare", "--points", "16", "--peaks", "4:0.5,10:0.5",
                "--packet-width", "1.0", "--k", "100", "--horizon", "0.1",
                "--checkpoints", "1"]


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "nan"), ("--dt", "nan"), ("--mass", "inf"),
])
def test_non_finite_flags_are_config_errors(flag, value, capsys):
    args = _TINY_ORACLE + ["--seed", "1", flag, value]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert flag.lstrip("-") in err and "internal" not in err


def test_epr_non_finite_pointer_alpha_is_config_error(capsys):
    assert run_cli(["epr", "--seed", "1", "--trials", "2", "--pointer-alpha", "nan"]) == 2
    assert "pointer_alpha" in capsys.readouterr().err


def test_negative_seed_rejected_for_every_seeded_command(capsys):
    for command in ("singlet", "epr", "grw-run", "oracle-compare"):
        assert run_cli([command, "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err


def test_malformed_triple_rejected(capsys):
    assert run_cli(["singlet", "--seed", "1", "--triple-b", "1,0,0;1,1,0;0,0,1"]) == 2
    assert "triple_b" in capsys.readouterr().err


# -- outputs ----------------------------------------------------------------------


def test_byte_identical_reports_and_csv(tmp_path):
    args = ["singlet", "--same-triples", "--trials", "50", "--seed", "7"]
    o1, c1 = tmp_path / "a.json", tmp_path / "a.csv"
    o2, c2 = tmp_path / "b.json", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(o1), "--csv", str(c1)]) == 0
    assert run_cli(args + ["--out", str(o2), "--csv", str(c2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()
    header = c1.read_text().splitlines()[0]
    assert "trial" in header and "b_values" in header
    report = json.loads(o1.read_text())
    assert report["aggregates"]["agreement_frequency"] == 1.0
    assert report["schema_version"] == 1


def test_oracle_compare_reports_identical_across_worker_counts(tmp_path):
    # no Hamiltonian: the forked workers then make no BLAS calls
    args = ["oracle-compare", "--hamiltonian", "none", "--k", "150", "--seed", "11"]
    paths = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.json"
        assert run_cli(args + ["--workers", str(workers), "--out", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert all(json.loads(paths[0].read_text())["aggregates"]["within_threshold"])


def test_stdout_when_no_out_path(capsys):
    assert run_cli(["singlet", "--same-triples", "--trials", "5", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "singlet_spacetime"


def test_csv_rejected_when_no_trial_table(tmp_path, capsys):
    code = run_cli(["ks-check", "--rays", "builtin:axes",
                    "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert not (tmp_path / "x.csv").exists()


def test_failed_run_leaves_no_partial_files(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    # CSV failure happens after the JSON was written: both must be gone
    code = run_cli(["ks-check", "--rays", "builtin:ks33",
                    "--out", str(out), "--csv", str(csv)])
    assert code == 2
    assert not out.exists() and not csv.exists()


# -- numerical error codes ----------------------------------------------------------


def test_grid_adequacy_error_exit_code(tmp_path, capsys):
    code = run_cli(["grw-run", "--seed", "1", "--trajectories", "2",
                    "--points", "8", "--alpha", "0.001", "--peaks", "4:1.0"])
    assert code == 3
    assert "grid" in capsys.readouterr().err.lower()


# -- ks subcommands ------------------------------------------------------------------


def test_ks_check_bundled_sets(tmp_path):
    out = tmp_path / "ks.json"
    assert run_cli(["ks-check", "--rays", "builtin:ks33", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    agg = report["aggregates"]
    assert agg["verdict"] == "uncolorable"
    assert agg["n_rays"] == 33
    assert agg["witness"] is None
    assert run_cli(["ks-check", "--rays", "builtin:axes", "--out", str(out)]) == 0
    agg = json.loads(out.read_text())["aggregates"]
    assert agg["verdict"] == "colorable"
    assert sorted(agg["witness"]) == [0, 1, 1]


def test_ks_check_reads_files(tmp_path):
    rays = tmp_path / "mine.rays"
    rays.write_text("# a triple plus a diagonal\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n")
    out = tmp_path / "r.json"
    assert run_cli(["ks-check", "--rays", str(rays), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["aggregates"]["verdict"] == "colorable"
    assert run_cli(["ks-check", "--rays", str(tmp_path / "missing.rays")]) == 2


def test_ck_trace_on_uncolorable_set(tmp_path):
    out = tmp_path / "trace.json"
    assert run_cli(["ck-trace", "--rays", "builtin:ks33", "--out", str(out)]) == 0
    trace = json.loads(out.read_text())["aggregates"]
    assert trace["certificate"]["verdict"] == "uncolorable"
    assert [s["name"] for s in trace["steps"]][-1] == "no-101-assignment-exists"


def test_ck_trace_colorable_is_config_error(capsys):
    assert run_cli(["ck-trace", "--rays", "builtin:axes"]) == 2
    assert "colorable" in capsys.readouterr().err


def test_internal_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    from collapselab import cli
    from collapselab.errors import InvariantViolationError

    def boom(values):
        raise InvariantViolationError("probability table invalid")

    monkeypatch.setitem(cli._COMMANDS, "singlet", boom)
    out = tmp_path / "r.json"
    assert cli.main(["singlet", "--seed", "1", "--out", str(out)]) == 4
    assert "invariant" in capsys.readouterr().err
    assert not out.exists()
