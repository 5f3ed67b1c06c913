"""Command line: config handling, artifacts, exit codes, output shapes."""
import dataclasses
import json

import pytest

from shapenewton import cli, driver
from shapenewton.errors import StepFailureError


def write_config(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return str(path)


def test_missing_config_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = cli.main(["solve", "--out", str(tmp_path / "out"),
                     "--config", str(missing)])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    # An older config file may still set cg_tol, step_length or line_search;
    # it must fail, not run with the value ignored.
    for key in ("widget", "cg_tol", "step_length", "line_search"):
        cfg = write_config(tmp_path, f"n = 16\n{key} = 1\n")
        code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", cfg])
        assert code == 1, key
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_value_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 2.5\n")
    code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", cfg])
    assert code == 1
    assert "bad value for 'n'" in capsys.readouterr().err


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_bytes(b"n = 8\xff\n")
    code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"config file {path} is not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_invalid_config_combination_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "f1 = 5\nf2 = 5\n")
    code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", cfg])
    assert code == 1
    assert "f1" in capsys.readouterr().err


def test_non_finite_scaling_exits_one(tmp_path, capsys):
    code = cli.main(["baseline", "--out", str(tmp_path / "out"), "--scaling", "nan"])
    assert code == 1
    assert "baseline_scaling must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "{out}", "--level", "abc"],
    ["solve"],
    ["solve", "--out", "{out}", "--alpha", "0.5"],
    ["solve", "--out", "{out}", "--cg-tol", "1e-6"],
], ids=["bad-level", "no-out", "alpha", "cg-tol"])
def test_usage_error_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([arg.format(out=out) for arg in argv]) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert cli.main(["solve", "--help"]) == 0
    assert "--out" in capsys.readouterr().out


def test_repeated_config_key_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\nlevels = 1\nn = 16\n")
    code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", cfg])
    assert code == 1
    err = capsys.readouterr().err
    assert "'n'" in err and ":3:" in err and "line 1" in err


def test_out_naming_a_file_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    for target in (out, out / "run"):
        assert cli.main(["solve", "--out", str(target)]) == 1
        assert "configuration error" in capsys.readouterr().err


def test_level_finer_than_the_data_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\n")
    code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", cfg,
                     "--level", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "level 4" in err


@pytest.mark.parametrize("level", ["4", "0"])
def test_a_level_error_leaves_no_run_directory(tmp_path, capsys, level):
    # The level is checked before the run directory is made, so the
    # corrected rerun into the same --out needs no --force.
    cfg = write_config(tmp_path, "n = 8\nmax_sqp_iters = 1\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--out", str(out), "--config", cfg, "--level", level]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["solve", "--out", str(out), "--config", cfg, "--level", "3"]) == 0
    assert (out / "trace.csv").is_file()


def test_each_command_writes_its_artifact_set(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\nlevels = 1\nmax_sqp_iters = 1\n")
    common = {"manifest.json", "run.log", "trace.csv"}
    snapshots = {"iter_000.vtk", "iter_001.vtk", "interface_000.csv",
                 "interface_001.csv"}
    for command, want in (("solve", common | snapshots),
                          ("baseline", common | snapshots), ("study", common)):
        out = tmp_path / command
        assert cli.main([command, "--out", str(out), "--config", cfg]) == 0
        assert {path.name for path in out.iterdir()} == want, command


def test_config_file_round_trips_every_field(tmp_path):
    config = driver.ExperimentConfig(
        f1=500.0, f2=2.0, mu=3.5, n=16, levels=2, max_sqp_iters=4,
        baseline_scaling=2e3)
    changed = dataclasses.asdict(config)
    assert all(value != getattr(driver.ExperimentConfig(), key)
               for key, value in changed.items())
    cfg = write_config(tmp_path, "".join(f"{key} = {value}\n"
                                         for key, value in changed.items()))
    assert driver.ExperimentConfig(**cli.load_config_file(cfg)) == config


def test_solve_default_prints_three_row_table(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "level 1"
    assert lines[1].split() == ["iter", "dist", "J", "grad_norm",
                                "cg_iters", "alpha"]
    body = [line.split() for line in lines[2:]]
    assert [row[0] for row in body] == ["0", "1", "2"]
    dists = [float(row[1]) for row in body]
    assert dists[0] > dists[1] > dists[2]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["f1"] == 1000.0
    assert manifest["version"]
    assert manifest["timestamp"]
    assert (out / "trace.csv").is_file()
    assert (out / "run.log").read_text().count("\n") >= 3
    for it in range(3):
        vtk = out / f"iter_{it:03d}.vtk"
        assert vtk.read_text().startswith("# vtk DataFile Version 3.0")
        assert (out / f"interface_{it:03d}.csv").is_file()


def test_sources_of_mixed_sign_solve_as_their_jump(tmp_path, capsys):
    # The misfit depends only on f1 - f2, so (-1000, -1) is the problem
    # (1, 1000); the oracle's sign check must not refuse its negative data.
    tables = []
    for name, sources in (("signed", "f1 = -1000\nf2 = -1\n"),
                          ("positive", "f1 = 1\nf2 = 1000\n")):
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, sources + "n = 8\nlevels = 1\n")
        assert cli.main(["solve", "--out", str(tmp_path / name / "run"),
                         "--config", cfg]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    body = [line.split() for line in tables[0].strip().split("\n")[2:]]
    assert [row[1] for row in body] == ["0.06698816", "0.003336956", "0.001531829"]


def test_rerun_requires_force(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\nmax_sqp_iters = 1\n")
    out = str(tmp_path / "run")
    assert cli.main(["solve", "--out", out, "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["solve", "--out", out, "--config", cfg]) == 1
    assert "--force" in capsys.readouterr().err
    assert cli.main(["solve", "--out", out, "--config", cfg, "--force"]) == 0


def test_force_replaces_the_previous_run(tmp_path, capsys):
    # A rerun with fewer iterations must not leave the first run's later
    # snapshots beside it, nor its lines in run.log; other files stay.
    (tmp_path / "fresh").mkdir()
    longer = write_config(tmp_path, "n = 8\nmax_sqp_iters = 3\n")
    shorter = write_config(tmp_path / "fresh", "n = 8\nmax_sqp_iters = 1\n")
    out, fresh = tmp_path / "run", tmp_path / "fresh" / "run"
    assert cli.main(["solve", "--out", str(out), "--config", longer]) == 0
    (out / "notes.txt").write_text("kept\n")
    assert cli.main(["solve", "--out", str(out), "--config", shorter, "--force"]) == 0
    assert cli.main(["solve", "--out", str(fresh), "--config", shorter]) == 0
    names = {path.name for path in fresh.iterdir()}
    assert {path.name for path in out.iterdir()} == names | {"notes.txt"}
    assert (out / "notes.txt").read_text() == "kept\n"
    assert (out / "run.log").read_text() == (fresh / "run.log").read_text()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\nmax_sqp_iters = 0\nbaseline_scaling = 500\n")
    out = tmp_path / "run"
    code = cli.main(["baseline", "--out", str(out), "--config", cfg, "--scaling", "250"])
    assert code == 0
    saved = json.loads((out / "manifest.json").read_text())["config"]
    assert saved["n"] == 8
    assert saved["baseline_scaling"] == 250.0


def test_invalid_level_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\n")
    code = cli.main(["solve", "--out", str(tmp_path / "out"), "--config", cfg,
                     "--level", "0"])
    assert code == 1
    assert "level" in capsys.readouterr().err


def test_baseline_warns_on_insufficient_progress(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 16\n")
    code = cli.main(["baseline", "--out", str(tmp_path / "run"),
                     "--config", cfg, "--scaling", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "insufficient progress" in out


def test_baseline_large_scaling_does_not_warn(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 16\nmax_sqp_iters = 1\n")
    code = cli.main(["baseline", "--out", str(tmp_path / "run"),
                     "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert "steepest descent" in out
    assert "insufficient progress" not in out


def test_baseline_from_a_zero_start_dist_runs_quietly(tmp_path, capsys):
    # With n = 2 the three-node interface starts straight, on the solution;
    # no progress ratio divides by its zero dist.
    cfg = write_config(tmp_path, "n = 2\nmax_sqp_iters = 1\n")
    code = cli.main(["baseline", "--out", str(tmp_path / "run"), "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert out.split("\n")[2].split()[:2] == ["0", "0"]


def test_study_prints_level_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\nlevels = 2\nmax_sqp_iters = 1\n")
    code = cli.main(["study", "--out", str(tmp_path / "run"), "--config", cfg])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == ["iter", "level", "1", "level", "2"]
    assert len(lines) == 3
    assert len(lines[1].split()) == 3
    trace = (tmp_path / "run" / "trace.csv").read_text().strip().split("\n")
    assert len(trace) == 5  # header + two rows per level


def test_verify_lists_all_checks(capsys):
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    assert "all 6 checks passed" in out


def test_solver_failure_exits_two(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise StepFailureError("iteration 1: no acceptable step length found")

    monkeypatch.setattr(driver, "sqp_solve", boom)
    cfg = write_config(tmp_path, "n = 8\n")
    code = cli.main(["solve", "--out", str(tmp_path / "run"), "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "iteration 1" in err
