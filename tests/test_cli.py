"""Command-line driver: exit codes, artifacts, precedence, determinism."""
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from nucshoot import cli, verify
from nucshoot.cli import (EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK,
                          EXIT_REGIME, EXIT_USAGE, main)
from nucshoot.integrator import DEFAULT_CONFIG
from nucshoot.shooting import bisect_ground_state

TRAJ_HEADER = "r,f,g,f_squared,g_squared,rho_s,rho_0,S,V,V_plus_S,V_minus_S,H"


def _usage_exit(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


# values that parse but are out of range, or a missing or invalid (a, b, x)
BAD_VALUES = (
    ["portrait", "--a", "9", "--b", "4", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["classify", "--a", "9", "--b", "4", "--x", "0.8", "--rtol", "1e-16"],
    ["classify", "--a", "9", "--b", "4", "--x", "0.8", "--r-max", "0"],
    ["classify", "--a", "9", "--b", "4", "--x", "nan"],
    ["classify", "--a", "9", "--b", "4", "--x", "inf"],
    ["sweep", "--a-grid=-1,9", "--b-grid", "4"],
    ["sweep", "--a-grid=nan", "--b-grid", "4"],
    ["sweep", "--a-grid", "9", "--b-grid", "0"],
    ["portrait", "--a", "9", "--b", "4", "--levels=nan"],
    ["sweep", "--a-grid", "9", "--b-grid", "4", "--jobs", "0"],
    ["ground-state", "--a", "-1", "--b", "4"],
    ["classify", "--a", "9", "--b", "4"],
)


def test_usage_failures_exit_64(tmp_path, capsys):
    assert _usage_exit([]) == EXIT_USAGE
    assert _usage_exit(["classify", "--no-such-flag"]) == EXIT_USAGE
    assert _usage_exit(["classify", "--x", "0.5"]) == EXIT_USAGE      # missing a, b
    assert _usage_exit(["classify", "--a", "9", "--b", "4"]) == EXIT_USAGE  # missing x
    assert _usage_exit(["ground-state", "--a", "-1", "--b", "4",
                        "--out", str(tmp_path)]) == EXIT_USAGE
    assert _usage_exit(["ground-state", "--a", "9", "--b", "4", "--r-max", "-5",
                        "--out", str(tmp_path)]) == EXIT_USAGE
    assert _usage_exit(["portrait", "--a", "9", "--b", "4", "--formats", "png",
                        "--out", str(tmp_path)]) == EXIT_USAGE
    assert _usage_exit(["sweep", "--a-grid", "", "--b-grid", "4",
                        "--out", str(tmp_path)]) == EXIT_USAGE
    capsys.readouterr()
    # one error line, no traceback, and no output directory
    never = tmp_path / "never"
    for argv in BAD_VALUES:
        assert _usage_exit(argv + ["--out", str(never)]) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("nucshoot: error: "), argv
        assert "Traceback" not in err
    assert not never.exists()
    # an --out that cannot be created is a usage error too
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["ground-state", "--a", "9", "--b", "4"], ["verify"]):
        assert _usage_exit(argv + ["--out", str(blocker / "out")]) == EXIT_USAGE
        assert "is not writable" in capsys.readouterr().err


def test_ground_state_regime_rejection(tmp_path, capsys):
    code = main(["ground-state", "--a", "4", "--b", "4", "--out", str(tmp_path)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert "a - 2b" in err and "a = 4" in err
    assert main(["ground-state", "--a", "1", "--b", "4",
                 "--out", str(tmp_path)]) == EXIT_REGIME


def test_ground_state_numerical_failure(tmp_path, capsys):
    """A failed search exits 3 and, like a usage error, leaves no --out.
    At a = 1e300 the origin's power series overflows before any shot."""
    out = tmp_path / "gs"
    code = main(["ground-state", "--a", "1e300", "--b", "1", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "ground-state search failed" in capsys.readouterr().err
    assert not out.exists()


def test_ground_state_below_the_float_floor_fails_by_name(tmp_path, capsys):
    """At (8, 3.98) the shot from the smallest normal u0 is still in I, so
    u* lies below the float floor: a failed search exits 3 with that
    reason and, like a usage error, leaves no --out."""
    out = tmp_path / "gs"
    code = main(["ground-state", "--a", "8", "--b", "3.98", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "ground-state search failed" in err and "float floor" in err
    assert not out.exists()


def test_ground_state_at_the_precision_wall(tmp_path, capsys):
    """At (9, 4.4) sup I lies within an ulp of 1.  The law's pair is the
    largest float below 1 and x = 1 on the invariant line g = 1; the
    search goes on in u = 1 - g below the float grid, and its
    certificate passes the audit."""
    code = main(["ground-state", "--a", "9", "--b", "4.4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "u_star = " in capsys.readouterr().out
    payload = json.loads((tmp_path / "ground_state.json").read_text())
    top = math.nextafter(1.0, 0.0)
    assert payload["bracket"] == [top, 1.0] and payload["x_star"] == top
    assert 0.0 < payload["u_star"] < 2.0 ** -53
    assert payload["all_checks_passed"] is True
    assert (tmp_path / "trajectory.csv").exists()


def test_ground_state_artifacts(tmp_path, capsys):
    code = main(["ground-state", "--a", "4", "--b", "1", "--x-tol", "1e-8",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "energy_dissipation: pass" in out
    assert "x_star = " in out

    payload = json.loads((tmp_path / "ground_state.json").read_text())
    assert payload["schema"] == "nucshoot/1"
    assert payload["all_checks_passed"] is True
    assert payload["regime"] == "Supercritical"
    lo, hi = payload["bracket"]
    assert lo <= payload["x_star"] <= hi
    assert hi - lo <= 1e-8
    assert abs(payload["x_star"] - 0.995181079032138) < 1e-7
    assert len(payload["lemma_report"]) == 9
    assert payload["config"]["command"] == "ground-state"
    assert payload["config"]["x_tol"] == 1e-8

    csv = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv[0] == TRAJ_HEADER
    assert len(csv) > 100


def test_ground_state_reruns_are_byte_identical(tmp_path):
    argv = ["ground-state", "--a", "4", "--b", "1", "--x-tol", "1e-8",
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    first_json = (tmp_path / "ground_state.json").read_bytes()
    first_csv = (tmp_path / "trajectory.csv").read_bytes()
    assert main(argv) == EXIT_OK
    assert (tmp_path / "ground_state.json").read_bytes() == first_json
    assert (tmp_path / "trajectory.csv").read_bytes() == first_csv


def test_classify_reports_json_on_stdout(tmp_path, capsys):
    code = main(["classify", "--a", "9", "--b", "4", "--x", "0.8",
                 "--out", str(tmp_path / "unused")])
    assert code == EXIT_OK
    assert not (tmp_path / "unused").exists()   # classify writes only stdout
    payload = json.loads(capsys.readouterr().out)
    assert payload["shot_class"] == "InSetI"
    assert payload["x0"] == 0.8
    assert payload["r_x"] == pytest.approx(2.13940806222205, abs=1e-9)
    assert payload["termination"].startswith("Event(FCrossesZero")
    assert payload["r_end"] == payload["r_x"]


def test_classify_trapped_shot(tmp_path, capsys):
    code = main(["classify", "--a", "9", "--b", "4", "--x", "1.2",
                 "--r-max", "50", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["shot_class"] == "Trapped"
    assert payload["r_x"] is None


def test_classify_energy_trapped_shot(tmp_path, capsys):
    code = main(["classify", "--a", "3", "--b", "2", "--x", "0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["shot_class"] == "EnergyTrapped"
    assert payload["termination"].startswith("Event(EnergyBarrier, ")
    assert payload["r_end"] == payload["r_x"] < 200.0


def test_classify_blowup_certain_shot(tmp_path, capsys):
    """The (1, 4) shot from 0.8 stops where the blowup is proved: a < b
    proves it at r = 0, long before the threshold |f| + |g| = 1e3 that it
    reaches at r = 1.8787."""
    code = main(["classify", "--a", "1", "--b", "4", "--x", "0.8",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["shot_class"] == "Blowup"
    assert payload["termination"] == "Event(BlowupCertain, r=0)"
    assert payload["r_end"] == payload["r_x"] == 0.0


def test_classify_subnormal_shot_exits_ok(tmp_path, capsys):
    """A shot from a subnormal x0 is classified, not a traceback."""
    code = main(["classify", "--a", "9", "--b", "4", "--x", "1e-315",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["shot_class"] == "Undetermined"


@pytest.mark.parametrize("x", ["-1e-3", "-5e-324"])
def test_classify_takes_a_negative_x_in_exponent_form(x, capsys):
    """argparse through Python 3.12 takes -1e-3 for an option; the CLI
    parses it as the value of --x, as it does --x=-1e-3."""
    assert main(["classify", "--a", "9", "--b", "4", "--x", x]) == EXIT_OK
    spaced = json.loads(capsys.readouterr().out)
    assert main(["classify", "--a", "9", "--b", "4", f"--x={x}"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == spaced
    assert spaced["x0"] == float(x)


def test_portrait_artifacts(tmp_path):
    code = main(["portrait", "--a", "9", "--b", "4", "--resolution", "80",
                 "--levels=-0.2,0,0.1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    curves = (tmp_path / "portrait_curves.csv").read_text().splitlines()
    assert curves[0] == "level,branch,f,g"
    assert len(curves) > 100
    crit = (tmp_path / "portrait_critical.csv").read_text().splitlines()
    assert crit[0] == "f,g,kind"
    assert len(crit) == 8                      # 7 stationary points
    adm = (tmp_path / "portrait_admissible.csv").read_text().splitlines()
    assert adm[0] == "f,g"
    tcsv = (tmp_path / "portrait_trajectories.csv").read_text().splitlines()
    assert tcsv[0] == "trajectory,r,f,g"
    assert {line.split(",")[0] for line in tcsv[1:]} == {"0", "1", "2", "3"}
    svg = (tmp_path / "portrait.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<polyline" in svg and "<circle" in svg


def test_portrait_reruns_are_byte_identical(tmp_path):
    argv = ["portrait", "--a", "9", "--b", "4", "--resolution", "60",
            "--levels=-0.2,0,0.1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(first) == 5
    assert main(argv) == EXIT_OK
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_portrait_format_selection(tmp_path):
    code = main(["portrait", "--a", "9", "--b", "4", "--resolution", "40",
                 "--formats", "svg", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "portrait.svg").exists()
    assert not (tmp_path / "portrait_curves.csv").exists()


def test_portrait_critical_and_subcritical_pairs(tmp_path):
    out1 = tmp_path / "crit"
    assert main(["portrait", "--a", "8", "--b", "4", "--resolution", "40",
                 "--formats", "csv", "--out", str(out1)]) == EXIT_OK
    assert not (out1 / "portrait_admissible.csv").exists()
    crit = (out1 / "portrait_critical.csv").read_text().splitlines()
    assert len(crit) == 8                      # a = 2b still has all 7 points
    assert "0,0,Saddle" in crit

    out2 = tmp_path / "sub"
    assert main(["portrait", "--a", "3", "--b", "2", "--resolution", "40",
                 "--formats", "csv", "--out", str(out2)]) == EXIT_OK
    assert (out2 / "portrait_curves.csv").exists()


def test_sweep_rows_sorted_and_nonexistence_blank(tmp_path, capsys):
    code = main(["sweep", "--a-grid", "9,4", "--b-grid", "4", "--x-tol", "1e-8",
                 "--jobs", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "sweep: 2 rows, 1 solved" in capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "a,b,status,x_star,decay_rate,plateau_score,lemma_pass_rate"
    assert len(lines) == 3
    row44 = lines[1].split(",")
    assert row44[:3] == ["4", "4", "nonexistence"]
    assert row44[3:] == ["", "", "", ""]
    row94 = lines[2].split(",")
    assert row94[:3][:2] == ["9", "4"]
    assert row94[2] == "ok"
    assert float(row94[6]) == 1.0              # all lemma checks passed


def test_sweep_parallel_matches_serial(tmp_path):
    """(16, 4) shares kappa = 1/4 with (4, 1), so the lanes get one task fewer."""
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["sweep", "--a-grid", "9,4,16", "--b-grid", "4,1", "--x-tol", "1e-8"]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
    s = (serial / "sweep.csv").read_bytes()
    assert (parallel / "sweep.csv").read_bytes() == s
    assert len(s.splitlines()) == 7            # header + 6 sorted pairs


def test_sweep_searches_each_kappa_once(tmp_path, capsys, monkeypatch):
    """Rows of one kappa share the search at its largest a: x*, the plateau
    score and the pass rate match a per-pair solve, decay_rate is sqrt(b)."""
    searches = []

    def counted(params, *args, **kwargs):
        searches.append((params.a, params.b))
        return bisect_ground_state(params, *args, **kwargs)

    monkeypatch.setattr(cli, "bisect_ground_state", counted)
    assert main(["sweep", "--a-grid", "4,16", "--b-grid", "4,1", "--x-tol", "1e-8",
                 "--jobs", "1", "--out", str(tmp_path)]) == EXIT_OK
    assert "sweep: 4 rows, 3 solved, 2 searches" in capsys.readouterr().out
    assert sorted(searches) == [(16.0, 1.0), (16.0, 4.0)]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    for row in rows:
        if row["status"] != "ok":
            continue
        a, b = float(row["a"]), float(row["b"])
        solo = cli._sweep_row((a, b, DEFAULT_CONFIG, 1e-8))
        assert abs(float(row["x_star"]) - solo["x_star"]) <= 1e-8
        assert float(row["plateau_score"]) == pytest.approx(solo["plateau_score"],
                                                            rel=1e-6)
        assert float(row["lemma_pass_rate"]) == solo["lemma_pass_rate"]
        assert float(row["decay_rate"]) == math.sqrt(b)


def _fresh_interpreter(code: str, cwd) -> str:
    """stdout of code run by a new interpreter on this tree's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_ground_state_audit_never_loads_numpy_ma(tmp_path):
    """np.median's NaN check imports numpy.ma, about 10 ms, on its first
    call in a process; the audit's medians must not make that call."""
    out = _fresh_interpreter(
        "import sys\nfrom nucshoot import cli\n"
        "cli.main(['ground-state', '--a', '9', '--b', '4', '--out', 'gs'])\n"
        "print(sorted({'numpy.ma'} & set(sys.modules)))", tmp_path)
    assert out.splitlines()[-1] == "[]"


def test_sweep_loads_no_process_pool(tmp_path):
    out = _fresh_interpreter(
        "import sys\nfrom nucshoot import cli\n"
        "cli.main(['sweep', '--a-grid', '9,16', '--b-grid', '4,1',\n"
        "          '--x-tol', '1e-8', '--jobs', '2', '--out', 'sw'])\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))",
        tmp_path)
    assert out.splitlines()[-2:] == ["sweep: 4 rows, 4 solved, 4 searches", "[]"]


# four searches, in task order kappa = 1/9, 4/9, 1/16, 1/4, so lane 0 runs
# the first and third and lane 1 the second and fourth
LANES_2 = ["sweep", "--a-grid", "9,16", "--b-grid", "4,1", "--jobs", "2"]


def _stub_row(task) -> dict:
    return {"a": task[0], "b": task[1], "status": f"stub:{task[0]:g}/{task[1]:g}"}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_reraises_a_lane_exception(tmp_path, monkeypatch):
    def failing(task):
        if task[1] / task[0] == 0.25:
            raise ValueError("no search at kappa 0.25")
        return _stub_row(task)

    monkeypatch.setattr(cli, "_sweep_row", failing)
    with pytest.raises(ValueError, match="no search at kappa 0.25"):
        main(LANES_2 + ["--out", str(tmp_path)])
    _assert_no_child_left()


def test_sweep_names_a_lane_killed_by_a_signal(tmp_path, monkeypatch):
    def killed(task):
        if task[1] / task[0] == 0.25:
            os.kill(os.getpid(), signal.SIGKILL)
        return _stub_row(task)

    monkeypatch.setattr(cli, "_sweep_row", killed)
    with pytest.raises(cli.SweepLaneError,
                       match=r"sweep lane 1 \(pid \d+\) died without a result: "
                             r"killed by SIGKILL"):
        main(LANES_2 + ["--out", str(tmp_path)])
    _assert_no_child_left()


def test_sweep_lanes_return_rows_in_task_order_and_leave_no_child(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep_row", _stub_row)
    assert main(LANES_2 + ["--out", str(tmp_path)]) == EXIT_OK
    _assert_no_child_left()
    assert "sweep: 4 rows, 0 solved, 4 searches" in capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["9", "1", "stub:9/1"], ["9", "4", "stub:9/4"],
        ["16", "1", "stub:16/1"], ["16", "4", "stub:16/4"]]


def test_verify(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert "quick" not in payload
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["coth_oracle", "conservative_energy_drift",
                     "dissipation_identity", "nonexistence_grids",
                     "shifted_convergence", "ground_state_9_4_audit"]
    assert out.count("pass") == len(names)
    for check in payload["checks"]:
        assert check["value"] <= check["threshold"]


def test_verify_corrupted_tolerances_fail(tmp_path, monkeypatch):
    # cheap stand-ins whose values exceed their thresholds
    corrupted = tuple(verify.Check(c.name, lambda config, seed, x_tol: 1.0, 0.5)
                      for c in verify.CHECKS)
    monkeypatch.setattr(verify, "CHECKS", corrupted)
    code = main(["verify", "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert payload["all_passed"] is False
    assert all(not c["passed"] for c in payload["checks"])


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# sample run\na = 9\nb = 4\nx = 0.3\nr_max = 5.0\n")
    code = main(["classify", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["x0"] == 0.3
    assert payload["r_end"] == 5.0             # r_max from the file took effect
    assert payload["shot_class"] == "Undetermined"


def test_flags_override_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("a = 9\nb = 4\nx = 0.3\n")
    code = main(["classify", "--config", str(cfgfile), "--x", "0.8",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["x0"] == 0.8
    assert payload["shot_class"] == "InSetI"


def test_config_file_rejections(tmp_path):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("a = 9\nzz = 1\n")
    assert _usage_exit(["classify", "--config", str(bad_key),
                        "--out", str(tmp_path)]) == EXIT_USAGE
    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("a 9\n")
    assert _usage_exit(["classify", "--config", str(bad_line),
                        "--out", str(tmp_path)]) == EXIT_USAGE
    assert _usage_exit(["classify", "--config", str(tmp_path / "missing.cfg"),
                        "--out", str(tmp_path)]) == EXIT_USAGE


def test_config_file_jobs_is_honoured(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("a = 9\nb = 4\nx = 0.8\njobs = 1\n")
    assert main(["classify", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["jobs"] == 1


def test_config_file_quick_is_an_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("a = 9\nb = 4\nx = 0.8\nquick = true\n")
    assert _usage_exit(["classify", "--config", str(cfgfile),
                        "--out", str(tmp_path)]) == EXIT_USAGE
    assert "unknown config key 'quick'" in capsys.readouterr().err
