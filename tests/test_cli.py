import errno
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapselab
from collapselab import grw, ks, lindblad, scenarios
from collapselab.cli import KEY_SPECS, build_parser, main
from collapselab.errors import ConfigError
from collapselab.schema import NON_NEGATIVE, POSITIVE, check_value


def run_cli(args):
    return main(args)


def exit_code(args):
    """The process's exit code: main's return, or argparse's SystemExit
    for an argument it rejects."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def _run_python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package,
    with ``env`` (default: this process's environment) as its environment."""
    src = str(Path(collapselab.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def _modules_loaded_by_cli_import(package: str) -> str:
    """The modules of ``package`` a fresh interpreter holds after importing the CLI."""
    code = ("import sys, collapselab.cli; "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}))")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the package must run without it
    assert _modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_multiprocessing():
    # the process pool is imported by the runs that start one, not by every start-up
    assert _modules_loaded_by_cli_import("multiprocessing") == "[]"


def test_cli_import_loads_no_numpy():
    # keys, --help and value checks come from modules that need no numpy
    assert _modules_loaded_by_cli_import("numpy") == "[]"


def _modules_loaded_by_run(*args: str) -> tuple[int, list[str]]:
    """A fresh interpreter's exit code for the CLI run ``args`` and the
    modules it then holds."""
    code = ("import sys\n"
            "from collapselab.cli import main\n"
            "try:\n"
            "    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(rc)\n")
    result = _run_python(code, *args)
    return result.returncode, result.stderr.splitlines()[-1].split()


_ENGINES = ["collapselab." + m for m in ("grw", "lindblad", "scenarios", "spin", "hilbert", "rng")]


@pytest.mark.parametrize("args,code", [
    (["ck-trace", "--rays", "builtin:ks33"], 0),
    (["ks-check", "--rays", "builtin:ks33"], 0),
    (["ks-check", "--rays", "builtin:twin_triples"], 0),
    (["--help"], 0),
    (["oracle-compare", "--help"], 0),
    (["epr", "--seed", "1", "--trials", "0"], 2),
    (["grw-run", "--seed", "1", "--peaks", "24:0.5,24:0.5"], 2),
], ids=["ck-trace", "ks-check-uncolorable", "ks-check-colorable", "help", "command-help",
        "bad-key-value", "bad-config"])
def test_runs_that_need_no_engine_load_no_numpy(args, code):
    rc, modules = _modules_loaded_by_run(*args)
    assert rc == code
    assert [m for m in modules if m.partition(".")[0] == "numpy"] == []
    assert [m for m in modules if m in _ENGINES] == []


def test_singlet_run_loads_no_numpy_masked_arrays():
    # np.unique imports numpy.ma on its first call; the run and its report avoid it
    rc, modules = _modules_loaded_by_run("singlet", "--same-triples", "--trials", "2000",
                                         "--seed", "1")
    assert rc == 0
    assert "numpy" in modules and "numpy.ma" not in modules


def test_every_exported_name_resolves():
    for name in collapselab.__all__:
        assert getattr(collapselab, name) is not None, name
    with pytest.raises(AttributeError):
        collapselab.not_a_name


# the BLAS thread variables as numpy's first import sees them, then after the
# package import; a meta-path probe records them when numpy is first looked up,
# which is after the package import, since importing the package loads no numpy
_THREAD_PROBE = """
import json, os, sys
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in names])
sys.meta_path.insert(0, Probe())
import collapselab
import numpy
print(json.dumps(seen + [[os.environ.get(v) for v in names]]))
"""


@pytest.mark.parametrize("preset,expected", [
    ({}, ["1", None]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None]),
    ({"OMP_NUM_THREADS": "2"}, [None, "2"]),
], ids=["unset", "openblas", "omp"])
def test_import_sets_one_blas_thread_unless_the_user_chose(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    result = _run_python(_THREAD_PROBE, env={**env, **preset})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [expected, expected]


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


def test_epr_has_no_dt_key(tmp_path, capsys):
    # without a Hamiltonian the epr oracle and trials take no time steps
    with pytest.raises(SystemExit) as exc:
        run_cli(["epr", "--seed", "1", "--trials", "2", "--dt", "0.01"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt = 0.05\n")
    assert run_cli(["epr", "--config", str(cfg), "--seed", "1", "--trials", "2"]) == 2
    assert "unknown key 'dt'" in capsys.readouterr().err


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
        check_value("horizon", bad, POSITIVE)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0, -1])
def test_require_non_negative_rejects_non_finite_and_negative(bad):
    with pytest.raises(ConfigError, match="lambda"):
        check_value("lambda", bad, NON_NEGATIVE)


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


@pytest.mark.parametrize("command", ["singlet", "epr", "grw-run", "oracle-compare"])
def test_seed_range_is_the_128_bit_philox_key(command, tmp_path, capsys):
    # 2**128 would overflow the key; it is a config error, not an internal one
    assert run_cli([command, "--seed", str(2**128)]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "internal" not in err
    out = tmp_path / "r.json"
    args = _PROPERTY_BASE[command][2:]  # the tiny run, without its seed
    assert run_cli([command, *args, "--seed", str(2**128 - 1), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["master_seed"] == 2**128 - 1


@pytest.mark.parametrize("args,key", [
    (["epr", "--trials", "2", "--delta1", "nan"], "delta1"),
    (["ks-check", "--rays", "builtin:ks33", "--tolerance", "nan"], "tolerance"),
    (["ks-check", "--rays", "builtin:axes", "--tolerance", "-1"], "tolerance"),
    (["grw-run", "--trajectories", "2", "--peaks", "nan:1.0"], "peaks"),
    (["grw-run", "--trajectories", "2", "--peaks", "24:0.5,40:0.5,24:0"], "peaks"),
    (["grw-run", "--trajectories", "2", "--points", "4"], "points"),
    (["singlet", "--trials", "2", "--triple-b", "1,0,0;0,1,0;0,0,nan"], "triple_b"),
])
def test_invalid_inputs_are_config_errors_naming_the_key(args, key, capsys):
    seed = ["--seed", "1"] if args[0] not in ("ks-check", "ck-trace") else []
    assert exit_code(args + seed) == 2
    err = capsys.readouterr().err
    assert key in err and "internal" not in err


@pytest.mark.parametrize("args,key", [
    # ~5*10^8 Taylor substeps; with lambda = 0 the trajectory budget does not fire first
    (["oracle-compare", "--k", "100", "--hamiltonian", "free", "--lambda", "0",
      "--horizon", "1e9"], "horizon"),
    (["grw-run", "--trajectories", "2", "--lambda", "1e8"], "lambda"),
    (["grw-run", "--points", "100000000"], "points"),
    (["grw-run", "--trajectories", "2", "--checkpoints", "100000000"], "checkpoints"),
    (["epr", "--pointer-points", "2000"], "pointer_points"),
    (["singlet", "--trials", "1000000000"], "trials"),
    # the oracle budget: 252 MB of live arrays at d = 1024 with H, 1.5 GB at d = 4096
    (["oracle-compare", "--k", "100", "--hamiltonian", "free", "--points", "1024"], "points"),
    (["oracle-compare", "--k", "100", "--points", "4096"], "checkpoints"),
    (["epr", "--trials", "2", "--pointer-points", "1024"], "points"),
    # the mixture comparison's sums, buffer and block rows: 786 MB and 459 MB
    (["oracle-compare", "--k", "256", "--checkpoints", "2000"], "checkpoints"),
    (["oracle-compare", "--k", "100", "--checkpoints", "1000"], "checkpoints"),
])
def test_oversized_runs_are_rejected_before_they_start(args, key, capsys):
    assert run_cli(args + ["--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert key in err and "internal" not in err


@pytest.mark.parametrize("hamiltonian", ["none", "free"])
def test_dt_is_not_an_oracle_step(tmp_path, hamiltonian):
    # neither oracle steps by dt, and the sampled trajectories only validate it
    aggregates = []
    for dt in ([], ["--dt", "1e-9"]):
        out = tmp_path / f"dt{len(dt)}.json"
        assert run_cli(["oracle-compare", "--k", "100", "--seed", "1", "--hamiltonian",
                        hamiltonian, *dt, "--out", str(out)]) == 0
        aggregates.append(json.loads(out.read_text())["aggregates"])
    assert aggregates[0] == aggregates[1]


def test_trajectory_step_is_checked_before_the_oracle_runs(monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the trajectories' step check")

    monkeypatch.setattr(scenarios, "integrate_with_snapshots", oracle)
    args = ["oracle-compare", "--k", "100", "--hamiltonian", "free", "--dt", "0.1", "--seed", "1"]
    assert run_cli(args) == 3
    assert "dt=0.1" in capsys.readouterr().err


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


@pytest.mark.parametrize("hamiltonian", ["none", "free"])
def test_oracle_compare_reports_identical_across_worker_counts(tmp_path, hamiltonian):
    # 600 trials: two full mixture chunks of MIXTURE_CHUNK = 256 and a remainder
    args = ["oracle-compare", "--hamiltonian", hamiltonian, "--k", "600", "--seed", "11"]
    outputs = []
    for workers in (1, 2):
        out, csv = tmp_path / f"w{workers}.json", tmp_path / f"w{workers}.csv"
        assert run_cli(args + ["--workers", str(workers), "--out", str(out),
                               "--csv", str(csv)]) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]
    assert all(json.loads(outputs[0][0])["aggregates"]["within_threshold"])


@pytest.mark.parametrize("args", [
    ["oracle-compare", "--hamiltonian", "none", "--k", "600"],
    ["oracle-compare", "--hamiltonian", "free", "--k", "600"],
    ["grw-run", "--trajectories", "600", "--hamiltonian", "free"],
    ["epr", "--trials", "600"],
], ids=["oracle-none", "oracle-free", "grw-run", "epr"])
def test_reports_identical_across_block_sizes(tmp_path, monkeypatch, args):
    # one row per block in small windows (8 trials for epr and grw-run, one
    # mixture chunk for oracle-compare), the default, and blocks of 512 rows
    # (512 KiB of amplitudes at d = 64), where NumPy reuses large temporaries in
    # place and an unnamed output could reorder a complex product; without a
    # Hamiltonian the blocks are real multipliers, 512 rows by default at M = 64
    assert grw.block_rows(16) == 1024
    assert grw.block_rows(64) == 256
    assert grw.block_rows(256) == grw.block_rows(4096) == 64
    assert grw.block_rows(64, 8) == 512  # float64 multipliers
    buffer_bytes = lindblad.MIXTURE_BUFFER_BYTES
    outputs = []
    for name, rows, window_bytes in [("b1", lambda *_: 1, 1),
                                     ("default", grw.block_rows, buffer_bytes),
                                     ("b512", lambda *_: 512, buffer_bytes)]:
        monkeypatch.setattr(grw, "block_rows", rows)
        monkeypatch.setattr(scenarios, "block_rows", rows)
        monkeypatch.setattr(lindblad, "MIXTURE_BUFFER_BYTES", window_bytes)
        out, csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert run_cli(args + ["--seed", "11", "--workers", "1", "--out", str(out),
                               "--csv", str(csv)]) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_stdout_when_no_out_path(capsys):
    assert run_cli(["singlet", "--same-triples", "--trials", "5", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "singlet_spacetime"


def test_csv_rejected_when_no_trial_table(tmp_path, capsys):
    code = exit_code(["ks-check", "--rays", "builtin:axes",
                      "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--csv" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["ks-check", "ck-trace"])
@pytest.mark.parametrize("key,value", [("tolerance", "0.9"), ("csv", "x.csv")])
def test_ray_commands_reject_tolerance_and_csv_before_any_search(
        command, key, value, tmp_path, monkeypatch, capsys):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(ks, "search_coloring", no_search)
    config = tmp_path / "run.cfg"
    config.write_text(f"rays = builtin:ks33\n{key} = {value}\n")
    assert run_cli([command, "--config", str(config)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert exit_code([command, "--rays", "builtin:ks33", f"--{key}", value]) == 2
    assert f"--{key}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command,key,target", [
    (["ck-trace", "--rays", "builtin:ks33"], "out", "missing/r.json"),
    (["ck-trace", "--rays", "builtin:ks33"], "out", "folder"),
    (["epr", "--trials", "2", "--seed", "1"], "csv", "missing/x.csv"),
    (["epr", "--trials", "2", "--seed", "1"], "csv", "folder"),
], ids=["out-missing-dir", "out-is-dir", "csv-missing-dir", "csv-is-dir"])
def test_unusable_output_path_is_a_config_error(tmp_path, capsys, command, key, target):
    (tmp_path / "folder").mkdir()
    args = [*command, f"--{key}", str(tmp_path / target)]
    if key == "csv":
        args += ["--out", str(tmp_path / "r.json")]
    assert run_cli(args) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: key '{key}': ")
    # checked before any work: no report, no .tmp file
    assert [p.name for p in tmp_path.iterdir()] == ["folder"]
    assert list((tmp_path / "folder").iterdir()) == []


@pytest.mark.parametrize("failing", [".json", ".csv"])
def test_failed_write_removes_its_temporary_file(tmp_path, capsys, monkeypatch, failing):
    replace = os.replace

    def no_space(src, dst):
        if dst.endswith(failing):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", no_space)
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    code = run_cli(["singlet", "--trials", "5", "--seed", "1", "--out", str(out),
                    "--csv", str(csv)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: cannot write {tmp_path / ('r' + failing)}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert list(tmp_path.iterdir()) == []


# -- numerical error codes ----------------------------------------------------------


def test_grid_adequacy_error_exit_code(tmp_path, capsys):
    code = run_cli(["grw-run", "--seed", "1", "--trajectories", "2",
                    "--points", "8", "--alpha", "0.001", "--peaks", "4:1.0"])
    assert code == 3
    assert "grid" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("args", [
    ["grw-run", "--trajectories", "2"],
    ["epr", "--trials", "2"],
], ids=["grw-run", "epr"])
def test_packet_width_that_squares_to_zero_prints_only_the_error(args):
    # in a fresh process, so a NumPy warning would reach stderr as a user sees it
    result = _run_python("import sys; from collapselab.cli import main; sys.exit(main(sys.argv[1:]))",
                         *args, "--packet-width", "1e-200", "--seed", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line == ("error: key 'packet_width' = 1e-200 is narrower than half the grid "
                    "spacing 1.0; the grid cannot resolve the packet")


@pytest.mark.parametrize("command", [
    ["grw-run", "--trajectories", "2"],
    ["oracle-compare", "--k", "100"],
], ids=["grw-run", "oracle-compare"])
@pytest.mark.parametrize("centre", ["16", "16.5"], ids=["on-site", "between-sites"])
@pytest.mark.parametrize("width", ["1e-160", "0.49"])
def test_packet_narrower_than_half_a_spacing_is_a_config_error(capsys, command, centre, width):
    # a one-site packet on a site used to run, and one between sites to fail as numerical
    code = run_cli([*command, "--peaks", f"{centre}:1.0", "--packet-width", width, "--seed", "1"])
    assert code == 2
    assert "narrower than half the grid spacing" in capsys.readouterr().err


def test_packet_of_half_a_spacing_runs(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["grw-run", "--trajectories", "2", "--peaks", "16.5:1.0",
                    "--packet-width", "0.5", "--seed", "1", "--out", str(out)]) == 0


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
    rays.write_text("1e-5+r2 1 0\n")  # a signed exponent before the r2 part
    assert run_cli(["ks-check", "--rays", str(rays), "--out", str(out)]) == 0


def test_ray_files_beyond_the_search_cap_are_config_errors(tmp_path, monkeypatch, capsys):
    def no_structure(rays):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(ks, "build_structure", no_structure)
    rays = tmp_path / "many.rays"
    # 2557 distinct integer rays; reading stops at the 201st
    lines = [f"{i} {j} 1" for i in range(-25, 26) for j in range(-25, 26)][:2557]
    rays.write_text("\n".join(lines) + "\n")
    for command in ("ks-check", "ck-trace"):
        assert run_cli([command, "--rays", str(rays)]) == 2
        assert capsys.readouterr().err == (
            f"error: {rays}: more than 200 distinct rays, the search cap\n")


@pytest.mark.parametrize("command", ["ks-check", "ck-trace"])
def test_ray_commands_build_one_structure(command, tmp_path, monkeypatch):
    calls = []
    build = ks.build_structure

    def counting(rays):
        calls.append(len(rays))
        return build(rays)

    monkeypatch.setattr(ks, "build_structure", counting)
    assert run_cli([command, "--rays", "builtin:ks33", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [33]


@pytest.mark.parametrize("line", [
    "0 1",  # wrong component count
    "foo 1 0",
    "1 0 nan",
    "1+r2*r2 0 0",
    "0 0 0",  # zero vector
    "1e-100000 1 0",  # an exponent beyond a double's range
    "1e-99999999 1 0",  # Fraction would expand the exponent exactly and stall
    "1/0 1 0",
])
def test_malformed_ray_lines_are_config_errors_naming_the_line(tmp_path, capsys, line):
    rays = tmp_path / "bad.rays"
    rays.write_text(f"# a good ray, then a bad one\n1 0 0\n{line}\n")
    for command in ("ks-check", "ck-trace"):
        assert run_cli([command, "--rays", str(rays)]) == 2
        assert f"{rays}:3:" in capsys.readouterr().err


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


def test_lost_worker_exit_code(tmp_path, monkeypatch, capsys):
    from collapselab import cli
    from collapselab.errors import WorkerLostError

    def lost(values):
        raise WorkerLostError("a worker process died before it returned its task")

    monkeypatch.setitem(cli._COMMANDS, "epr", lost)
    out = tmp_path / "r.json"
    assert cli.main(["epr", "--seed", "1", "--workers", "2", "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert "worker lost" in err and "internal" not in err
    assert not out.exists()


# -- pinned key lists and report config blocks ------------------------------------

_BASE_KEYS = [("--config", None), ("--seed", "None"), ("--out", "None"),
              ("--csv", "None"), ("--workers", "1")]
_GRW_KEYS = [("--points", "64"), ("--spacing", "1.0"), ("--alpha", "0.0625"),
             ("--lambda", "1.0"), ("--hbar", "1.0"), ("--mass", "10.0"),
             ("--hamiltonian", "none"), ("--peaks", "24:0.5,40:0.5"),
             ("--packet-width", "2.0"), ("--horizon", "5.0"), ("--dt", "0.01"),
             ("--checkpoints", "4")]
_RAYS_KEYS = [("--config", None), ("--rays", "None"), ("--out", "None")]

HELP_KEYS = {
    "singlet": _BASE_KEYS + [
        ("--trials", "10000"), ("--triple-a", "none"), ("--triple-b", "axes"),
        ("--same-triples", "False"), ("--measure-b", "True")],
    "epr": _BASE_KEYS + [
        ("--trials", "1000"), ("--delta1", "-30.0"), ("--delta2", "-10.0"),
        ("--delta3", "10.0"), ("--delta4", "30.0"), ("--packet-width", "1.0"),
        ("--pointer-points", "64"), ("--pointer-spacing", "1.0"),
        ("--pointer-alpha", "0.25"), ("--lambda", "0.2"), ("--amplification", "25"),
        ("--coupling", "24"), ("--horizon", "5.0")],
    "grw-run": _BASE_KEYS + _GRW_KEYS + [("--trajectories", "1000")],
    "oracle-compare": _BASE_KEYS + _GRW_KEYS + [("--k", "10000")],
    "ks-check": _RAYS_KEYS,
    "ck-trace": _RAYS_KEYS,
}


def _help_keys(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    body = capsys.readouterr().out.split("options:", 1)[1]
    pairs = []
    for segment in re.split(r"\n  (?=--)", body)[1:]:
        text = " ".join(segment.split())
        default = re.search(r"\(default ([^)]*)\)$", text)
        pairs.append((text.split()[0].rstrip(","), default and default.group(1)))
    return pairs


@pytest.mark.parametrize("command", sorted(HELP_KEYS))
def test_help_pins_every_key_and_default(command, capsys):
    assert _help_keys(command, capsys) == HELP_KEYS[command]


_AXES_LISTS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_GRW_CONFIG = {
    "alpha": 0.0625, "checkpoints": 1, "dt": 0.01, "grid_points": 64,
    "grid_spacing": 1.0, "hamiltonian": "none", "hbar": 1.0, "horizon": 0.1,
    "lambda": 1.0, "mass": 10.0, "packet_width": 2.0,
    "peak_centers": [24.0, 40.0], "peak_weights": [0.5, 0.5],
}
_GRW_TINY = ["--horizon", "0.1", "--checkpoints", "1"]

REPORT_CONFIGS = {
    "singlet": (["--same-triples", "--trials", "5"], {
        "measure_b": True, "trials": 5, "triple_a": _AXES_LISTS, "triple_b": _AXES_LISTS}),
    "epr": (["--trials", "2"], {
        "amplification": 25, "coupling_sites": 24, "delta1": -30.0, "delta2": -10.0,
        "delta3": 10.0, "delta4": 30.0, "horizon": 5.0, "lambda": 0.2,
        "packet_width": 1.0, "pointer_alpha": 0.25, "pointer_points": 64,
        "pointer_spacing": 1.0, "trials": 2}),
    "grw-run": (["--trajectories", "2"] + _GRW_TINY, _GRW_CONFIG),
    "oracle-compare": (["--k", "100"] + _GRW_TINY, _GRW_CONFIG),
    "ks-check": (["--rays", "builtin:ks33"], {"rays": "ks33.rays"}),
    "ck-trace": (["--rays", "builtin:ks33"], {"rays": "ks33.rays"}),
}


@pytest.mark.parametrize("command", sorted(REPORT_CONFIGS))
def test_report_config_block_is_pinned(command, tmp_path):
    args, expected = REPORT_CONFIGS[command]
    seed = ["--seed", "3"] if command not in ("ks-check", "ck-trace") else []
    out = tmp_path / "r.json"
    assert run_cli([command, *args, *seed, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == expected


# -- property: malformed values never reach "internal error" ------------------------

_PROPERTY_BASE = {
    "singlet": ["--seed", "1", "--workers", "1", "--trials", "3"],
    "epr": ["--seed", "1", "--workers", "1", "--trials", "2"],
    "grw-run": ["--seed", "1", "--workers", "1", "--trajectories", "2"] + _GRW_TINY,
    "oracle-compare": ["--seed", "1", "--workers", "1", "--k", "100"] + _GRW_TINY,
    "ks-check": ["--rays", "builtin:axes"],
    "ck-trace": ["--rays", "builtin:ks33"],
}
_BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e300", "1000000000000"]
_BAD_TRIPLES = ["1,0,0;1,0,0;0,0,1", "nan,0,0;0,1,0;0,0,1", "inf,0,0;0,1,0;0,0,1",
                "1,0,0;0,1,0", "1e300,0,0;0,1e300,0;0,0,1e300", "0,0,0;0,1,0;0,0,1"]
_BAD_LISTS = {
    "peaks": ["24:0.5,24:0.5", "24:nan", "nan:1", "24:inf,40:-inf", "24:0.5,40:0.5,24:0",
              "24:-0.5,40:1.5", "1e300:1", "24:1:2", ""],
    "triple_a": _BAD_TRIPLES,
    "triple_b": _BAD_TRIPLES,
    "rays": ["", "builtin:nope", "missing.rays", "builtin:"],
}
_MUTATIONS = {
    command: [
        (key, value)
        for key, k in spec.items()
        for value in _BAD_LISTS.get(key, _BAD_NUMBERS if k.type in (int, float) else [])
    ]
    for command, spec in KEY_SPECS.items()
}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_MUTATIONS)).flatmap(lambda command: st.tuples(
    st.just(command), st.lists(st.sampled_from(_MUTATIONS[command]), min_size=1, max_size=2))))
def test_malformed_values_exit_cleanly(case):
    command, mutations = case
    args = [command, *_PROPERTY_BASE[command]]
    args += [f"--{key.replace('_', '-')}={value}" for key, value in mutations]
    with tempfile.TemporaryDirectory() as tmp:
        code = exit_code(args + ["--out", os.path.join(tmp, "r.json")])
    assert code in (0, 2, 3), args
