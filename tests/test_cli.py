"""Command-line driver: exit codes, artifacts, precedence, determinism."""
import json
import math

import pytest

from nucshoot import verify
from nucshoot.cli import (EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK,
                          EXIT_REGIME, EXIT_USAGE, main)

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
    code = main(["ground-state", "--a", "9", "--b", "4", "--r-max", "0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "ground-state search failed" in capsys.readouterr().err


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
    """The (1, 4) shot from 0.8 stops where the blowup is proved, before
    the threshold |f| + |g| = 1e3 that it reaches at r = 1.8787."""
    code = main(["classify", "--a", "1", "--b", "4", "--x", "0.8",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["shot_class"] == "Blowup"
    assert payload["termination"].startswith("Event(BlowupCertain, ")
    assert payload["r_end"] == payload["r_x"] < 1.8787


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
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["sweep", "--a-grid", "9,4", "--b-grid", "4,1", "--x-tol", "1e-8"]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
    s = (serial / "sweep.csv").read_text()
    p = (parallel / "sweep.csv").read_text()
    assert s.splitlines()[1:] == p.splitlines()[1:]
    assert len(s.splitlines()) == 5            # header + 4 sorted pairs


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
