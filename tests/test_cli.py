"""CLI behaviour: config handling, outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from nhswe.adaptivity import Criterion
from nhswe.cli import (EXIT_CONFIG, EXIT_NUMERICAL, main, read_config_file,
                       read_gauges_csv)
from nhswe.driver import simulate
from nhswe.scenarios import build_scenario


def run_cli(*argv):
    return main(list(argv))


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = solitary\n# a comment\nmode = global  # inline\n"
                   "t_end = 2\n")
    parsed = read_config_file(str(cfg))
    assert parsed == {"scenario": "solitary", "mode": "global", "t_end": "2"}
    cfg.write_text("unknown_key = 1\n")
    from nhswe.cli import ConfigError
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_file(str(cfg))


def test_run_writes_all_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("run", "--scenario", "solitary", "--mode", "adaptive",
                   "--criterion", "eta_over_d", "--t-end", "2",
                   "--gauges", "100,300", "--outdir", str(out))
    assert code == 0
    for name in ("gauges.csv", "snapshot.csv", "mask_history.csv", "report.json"):
        assert (out / name).exists()
    first = (out / "gauges.csv").read_text().splitlines()[0]
    assert first.startswith("# config ")
    t, cols = read_gauges_csv(str(out / "gauges.csv"))
    assert set(cols) == {"eta@100", "eta@300"}
    assert len(t) == 21
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["mode"] == "adaptive"
    assert report["config"]["criterion"] == "eta_over_d"
    assert report["config"]["k_nh"] == 0.001
    assert report["config"]["enlarge"] is False
    assert "rmse_vs_exact" in report


def test_rerun_is_bit_identical(tmp_path):
    args = ("run", "--scenario", "solitary", "--mode", "global",
            "--t-end", "2", "--gauges", "200")
    assert run_cli(*args, "--outdir", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--outdir", str(tmp_path / "b")) == 0
    for name in ("gauges.csv", "snapshot.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_compare_run_with_itself(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "195,205",
                   "--outdir", str(out)) == 0
    assert run_cli("compare", str(out), str(out),
                   "--out", str(tmp_path / "cmp.json")) == 0
    doc = json.loads((tmp_path / "cmp.json").read_text())
    assert all(v == 0.0 for v in doc["gauge_rmse"].values())
    assert doc["time_ratio_a_over_b"] == pytest.approx(1.0)


def test_run_with_reference_csv(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "200",
                   "--outdir", str(out)) == 0
    # feed the run back to itself as "lab data": perfect agreement
    code = run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "200",
                   "--outdir", str(tmp_path / "again"),
                   "--reference", str(out / "gauges.csv"))
    assert code == 0
    report = json.loads((tmp_path / "again" / "report.json").read_text())
    assert report["gauge_rmse"]["eta@200"] == pytest.approx(0.0, abs=1e-15)


def test_with_global_reports_time_ratio(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "solitary", "--mode", "adaptive",
                   "--t-end", "2", "--with-global",
                   "--outdir", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["time_ratio_local_over_global"] > 0.0
    assert (out / "report_global.json").exists()


def test_sweep_with_empty_criterion_list(tmp_path):
    code = run_cli("sweep", "--scenario", "solitary", "--t-end", "1",
                   "--criteria", "", "--outdir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2   # config echo + header only


def test_sweep_table_shape(tmp_path):
    code = run_cli("sweep", "--scenario", "solitary", "--t-end", "2",
                   "--criteria", "eta_over_d,u", "--enlarge-options", "off,on",
                   "--outdir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 * 2   # echo, header, 2 criteria x 2 options
    assert lines[1].startswith("criterion,enlarge,time_ratio")


def test_sweep_correlates_the_surfaces_of_a_moving_bottom(tmp_path):
    # eta = h - d over the bottom at the final time, not h, whose bump
    # shape both runs share: here r reads 0.99981 on eta, 0.99999 on h
    code = run_cli("sweep", "--scenario", "whittaker", "--t-end", "0.2",
                   "--criteria", "eta_over_d", "--outdir", str(tmp_path))
    assert code == 0
    _, header, row = (tmp_path / "sweep.csv").read_text().splitlines()
    r = float(dict(zip(header.split(","), row.split(",")))["r"])

    spec, init = build_scenario("whittaker", t_end=0.2)
    runs = [simulate(spec, init, "global"),
            simulate(spec, init, "adaptive", Criterion("eta_over_d", 0.001))]
    d = spec.bathymetry.depth(spec.grid.sample_nodes, runs[0].final_state.time)
    eta_g, eta_a = ((run.final_state.h.values - d).ravel() for run in runs)
    assert r == pytest.approx(np.corrcoef(eta_g, eta_a)[0, 1], rel=1e-9)


def test_config_error_exit_codes(tmp_path):
    assert run_cli("run", "--scenario", "solitary", "--dx", "3",
                   "--outdir", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("run", "--scenario", "solitary", "--mode", "adaptive",
                   "--k-nh", "-1", "--outdir", str(tmp_path)) == EXIT_CONFIG
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = atlantis\n")
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG


def test_seed_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("run", "--scenario", "solitary", "--seed", "1",
                "--outdir", str(tmp_path))
    assert exit_.value.code == EXIT_CONFIG
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("scenario = solitary\nseed = 1\n")
    assert run_cli("run", "--config", str(cfg), "--outdir", str(tmp_path)) == EXIT_CONFIG
    assert "unknown key 'seed'" in capsys.readouterr().err


def test_unreadable_gauge_csv_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run_cli("compare", str(missing), str(missing)) == EXIT_CONFIG
    # a failed run leaves its report but no gauge series
    failed = tmp_path / "failed"
    failed.mkdir()
    (failed / "report.json").write_text('{"status": "failed"}\n')
    assert run_cli("compare", str(failed), str(failed)) == EXIT_CONFIG
    assert run_cli("run", "--scenario", "solitary", "--mode", "hydrostatic",
                   "--t-end", "0.2", "--outdir", str(tmp_path / "run"),
                   "--reference", str(tmp_path / "missing.csv")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read gauge CSV {missing}" in err
    assert f"cannot read gauge CSV {failed / 'gauges.csv'}" in err
    for body in ("t,eta@1\n0.0,0.1\n0.1\n", "t,eta@1\n0.0,high\n"):
        malformed = tmp_path / "malformed.csv"
        malformed.write_text(body)
        assert run_cli("compare", str(malformed), str(malformed)) == EXIT_CONFIG


def test_numerical_failure_exit_code(tmp_path):
    # a grossly unstable time step blows up into a positivity failure
    import warnings
    import numpy as np
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        code = run_cli("run", "--scenario", "solitary", "--mode", "global",
                       "--dt", "5", "--t-end", "100",
                       "--outdir", str(tmp_path / "boom"))
    assert code == EXIT_NUMERICAL
    report = json.loads((tmp_path / "boom" / "report.json").read_text())
    assert report["status"] == "failed"
