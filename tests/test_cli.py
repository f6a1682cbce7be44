"""CLI behaviour: config handling, outputs, determinism, exit codes."""

import inspect
import json

import numpy as np
import pytest

from nhswe.adaptivity import Criterion
from nhswe.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_NUMERICAL, SCENARIO_KEYS,
                       build_run, main, make_report, parse_value, read_config_file,
                       read_gauges_csv)
from nhswe.driver import simulate
from nhswe.metrics import SeriesPair, rmse
from nhswe.scenarios import (EXACT_SURFACES, SCENARIOS, SOLITARY_D, build_scenario,
                             solitary_exact)


def run_cli(*argv):
    return main(list(argv))


def no_simulate(*args, **kwargs):
    raise AssertionError("a bad input must stop the command before any step")


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


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_report_scores_the_exact_surface_where_the_scenario_has_one(name):
    # the scenario table says which scenarios have a closed-form surface;
    # the report scores the final surface against it there, and nowhere else
    spec, init = build_scenario(name)
    spec, init = build_scenario(name, t_end=spec.dt)
    report = make_report(simulate(spec, init, "hydrostatic"), {})
    assert ("rmse_vs_exact" in report.extra) == (name in EXACT_SURFACES)
    if name == "solitary":
        eta = simulate(spec, init, "hydrostatic").final_state.h.values - SOLITARY_D
        exact, _ = solitary_exact(spec.grid.nodes, spec.dt)
        assert report.extra["rmse_vs_exact"] == rmse(SeriesPair(exact.ravel(), eta.ravel()))


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
    # a later failed run into the same directory leaves a report without
    # timing beside the old gauges: the gauges still compare, the ratio drops
    (out / "report.json").write_text('{"status": "failed"}\n')
    assert run_cli("compare", str(out), str(out),
                   "--out", str(tmp_path / "cmp.json")) == 0
    assert "time_ratio_a_over_b" not in json.loads((tmp_path / "cmp.json").read_text())


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


def test_reference_outside_the_run_is_a_config_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "200", "--outdir", str(out)) == 0
    late = tmp_path / "late.csv"
    # the second case shares one sample, t = 1 s, with the 2 s run
    for body in ("t,eta@200\n50.0,0.1\n60.0,0.2\n", "t,eta@200\n1.0,0.1\n60.0,0.2\n"):
        late.write_text(body)
        assert run_cli("compare", str(late), str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {late} and {out}: series samplings do not overlap" in err
        # the reference's times are checked before the outdir and any step
        monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
        assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                       "--t-end", "2", "--gauges", "200", "--outdir",
                       str(tmp_path / "again"), "--reference", str(late)) == EXIT_CONFIG
        assert not (tmp_path / "again").exists()
        assert "config error: reference: series samplings do not overlap" in \
            capsys.readouterr().err
        monkeypatch.undo()


def test_reference_columns_match_the_gauges_by_position(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "200", "--outdir", str(out)) == 0
    named = tmp_path / "named.csv"
    lines = (out / "gauges.csv").read_text().splitlines()
    assert lines[1] == "t,eta@200"
    named.write_text("\n".join(lines[:1] + ["t,eta@200.0"] + lines[2:]) + "\n")
    assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "200", "--outdir",
                   str(tmp_path / "again"), "--reference", str(named)) == 0
    report = json.loads((tmp_path / "again" / "report.json").read_text())
    assert report["gauge_rmse"] == {"eta@200": 0.0}
    # a reference that shares no gauge with the run stops before it
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    assert run_cli("run", "--scenario", "solitary", "--mode", "global",
                   "--t-end", "2", "--gauges", "300", "--outdir",
                   str(tmp_path / "other"), "--reference", str(named)) == EXIT_CONFIG
    assert not (tmp_path / "other").exists()
    assert "config error: reference: its columns ['eta@200'] share no gauge" in \
        capsys.readouterr().err
    # two columns that name one gauge are refused, not one of them dropped
    named.write_text("t,eta@200,eta@200.0\n0.0,0.1,0.1\n0.1,0.2,0.2\n")
    assert run_cli("compare", str(named), str(out)) == EXIT_CONFIG
    assert "two columns name one gauge" in capsys.readouterr().err


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
    for flags in (("--criteria", "u,bogus"), ("--enlarge-options", "off,maybe")):
        assert run_cli("sweep", "--scenario", "solitary", *flags,
                       "--outdir", str(tmp_path / "sweep")) == EXIT_CONFIG
    assert not (tmp_path / "sweep").exists()


def test_a_run_that_holds_no_step_is_a_config_error(tmp_path, capsys):
    # solitary steps by 0.1 s, so a 0.01 s run takes no step
    for command, flags in (("run", ("--mode", "adaptive", "--with-global")),
                           ("sweep", ("--criteria", "eta_over_d"))):
        out = tmp_path / command
        assert run_cli(command, "--scenario", "solitary", "--t-end", "0.01", *flags,
                       "--outdir", str(out)) == EXIT_CONFIG
        assert "t_end=0.01 holds no step of dt=0.1" in capsys.readouterr().err
        assert not out.exists()


# a value of each key that sets up a scenario
SETTINGS = {"dt": "0.01", "t_end": "0.1", "dx": "0.1", "n_elements": "20",
            "poly_order": "1", "froude": "0.25"}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_each_builder_setting_is_a_config_key(name):
    settings = inspect.signature(SCENARIOS[name]).parameters
    assert set(settings) <= set(CONFIG_KEYS)
    assert SCENARIO_KEYS == set(SETTINGS)
    for key in settings:
        build_run({"scenario": name, key: parse_value(key, SETTINGS[key])})


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_setting_the_builder_does_not_take_is_a_config_error(tmp_path, monkeypatch,
                                                               capsys, name):
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    settings = inspect.signature(SCENARIOS[name]).parameters
    refused = [key for key in SETTINGS if key not in settings]
    assert refused
    for key in refused:
        out = tmp_path / key
        assert run_cli("run", "--scenario", name, "--" + key.replace("_", "-"),
                       SETTINGS[key], "--outdir", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{name} takes no {key}; its settings are {', '.join(settings)}" in err
        assert not out.exists()


def test_sweep_rejects_a_bad_threshold_before_any_run(tmp_path, monkeypatch):
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--scenario", "solitary", "--k-nh", "-1",
                   "--outdir", str(out)) == EXIT_CONFIG
    assert not out.exists()


# each numeric config key, with a scenario that takes it
NUMERIC_KEYS = {"dt": "whittaker", "t_end": "whittaker", "dx": "whittaker",
                "n_elements": "solitary", "poly_order": "whittaker",
                "froude": "whittaker", "k_nh": "whittaker"}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("key", list(NUMERIC_KEYS))
def test_non_numeric_config_value_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                    command, key):
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = {NUMERIC_KEYS[key]}\n{key} = fast\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--outdir", str(out)) == EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_seed_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("run", "--scenario", "solitary", "--seed", "1",
                "--outdir", str(tmp_path))
    assert exit_.value.code == EXIT_CONFIG
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("scenario = solitary\nseed = 1\n")
    assert run_cli("run", "--config", str(cfg), "--outdir", str(tmp_path)) == EXIT_CONFIG
    assert "unknown key 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dt", "--t-end", "--k-nh"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_number_is_a_config_error(tmp_path, monkeypatch, flag, value):
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "solitary", "--mode", "adaptive",
                   flag, value, "--outdir", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_unreadable_gauge_csv_is_a_config_error(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing"
    assert run_cli("compare", str(missing), str(missing)) == EXIT_CONFIG
    # a failed run leaves its report but no gauge series
    failed = tmp_path / "failed"
    failed.mkdir()
    (failed / "report.json").write_text('{"status": "failed"}\n')
    assert run_cli("compare", str(failed), str(failed)) == EXIT_CONFIG
    # the reference is read before the output directory and the first step
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    assert run_cli("run", "--scenario", "solitary", "--mode", "hydrostatic",
                   "--t-end", "0.2", "--outdir", str(tmp_path / "run"),
                   "--reference", str(tmp_path / "missing.csv")) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    err = capsys.readouterr().err
    assert f"cannot read gauge CSV {missing}" in err
    assert f"cannot read gauge CSV {failed / 'gauges.csv'}" in err
    for body in ("t,eta@1\n0.0,0.1\n0.1\n", "t,eta@1\n0.0,high\n"):
        malformed = tmp_path / "malformed.csv"
        malformed.write_text(body)
        assert run_cli("compare", str(malformed), str(malformed)) == EXIT_CONFIG


@pytest.mark.parametrize("row", ["nan,0.1", "0.1,inf", "0.1,-inf", "0.1,NaN"])
def test_non_finite_gauge_value_is_a_config_error(tmp_path, monkeypatch, capsys, row):
    ref = tmp_path / "ref.csv"
    ref.write_text(f"t,eta@200\n0.0,0.0\n{row}\n1.0,0.2\n")
    column = "t" if row.startswith("nan") else "eta@200"
    assert run_cli("compare", str(ref), str(ref)) == EXIT_CONFIG
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    assert run_cli("run", "--scenario", "solitary", "--t-end", "2", "--gauges", "200",
                   "--outdir", str(tmp_path / "run"), "--reference", str(ref)) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    err = capsys.readouterr().err
    assert err.count(f"{ref}: column {column!r} holds the non-finite value") == 2


@pytest.mark.parametrize("report", ["{not json", '{"loop_time_s": 1.0}', "42",
                                    '{"loop_time_s": "fast", "config": {}}',
                                    '{"loop_time_s": 1.0, "config": []}'])
def test_unreadable_run_report_is_a_config_error(tmp_path, capsys, report):
    run = tmp_path / "run"
    run.mkdir()
    (run / "gauges.csv").write_text("t,eta@1\n0.0,0.1\n0.1,0.2\n")
    (run / "report.json").write_text(report)
    assert run_cli("compare", str(run), str(run)) == EXIT_CONFIG
    assert str(run / "report.json") in capsys.readouterr().err


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
    # the same config echo as a finished run's outputs
    config = report["config"]
    assert (config["dt"], config["t_end"], config["n_elements"],
            config["poly_order"]) == (5.0, 100.0, 200, 1)


@pytest.mark.parametrize("gauges", ["200,200.0", "100,2e2,200"])
def test_two_gauges_at_one_position_are_a_config_error(tmp_path, monkeypatch, capsys,
                                                       gauges):
    # one gauges.csv column per position: a repeated one would write a
    # header that compare refuses and a reference comparison halves
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    cfg = tmp_path / "gauges.cfg"
    cfg.write_text(f"scenario = solitary\ngauges = {gauges}\n")
    for argv in (["--scenario", "solitary", "--gauges", gauges], ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run_cli("run", *argv, "--mode", "hydrostatic", "--t-end", "1",
                       "--outdir", str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: gauges: two positions name one gauge: eta@200" in \
            capsys.readouterr().err


def test_gauges_that_agree_to_six_digits_keep_two_columns(tmp_path):
    # a position that six significant digits do not give back is named by
    # its repr, so the two gauges write, and read back as, two columns
    out = tmp_path / "run"
    argv = ("run", "--scenario", "whittaker", "--mode", "hydrostatic", "--t-end", "0.01",
            "--gauges", "1.000001,1.000002")
    assert run_cli(*argv, "--outdir", str(out)) == 0
    names = ["eta@1.000001", "eta@1.000002"]
    assert (out / "gauges.csv").read_text().splitlines()[1] == ",".join(["t"] + names)
    t, cols = read_gauges_csv(str(out / "gauges.csv"))
    assert list(cols) == names and len(t) == 3  # t = 0, dt, 2 dt
    assert run_cli(*argv, "--outdir", str(tmp_path / "again"),
                   "--reference", str(out / "gauges.csv")) == 0
    report = json.loads((tmp_path / "again" / "report.json").read_text())
    assert report["gauge_rmse"] == dict.fromkeys(names, 0.0)


@pytest.mark.parametrize("times", [(0, 2, 1, 3), (0, 1, 1, 3)],
                         ids=["swapped", "repeated"])
def test_gauge_times_that_do_not_increase_are_a_config_error(tmp_path, monkeypatch,
                                                             capsys, times):
    # interpolating onto an unsorted time column gives wrong metrics silently
    ordered = tmp_path / "ordered.csv"
    ordered.write_text("t,eta@200\n0,0\n1,1\n2,4\n3,9\n")
    ref = tmp_path / "ref.csv"
    ref.write_text("t,eta@200\n" + "".join(f"{t},{t * t}\n" for t in times))
    assert run_cli("compare", str(ordered), str(ref)) == EXIT_CONFIG
    monkeypatch.setattr("nhswe.cli.simulate", no_simulate)
    assert run_cli("run", "--scenario", "solitary", "--t-end", "2", "--gauges", "200",
                   "--outdir", str(tmp_path / "run"), "--reference", str(ref)) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    err = capsys.readouterr().err
    assert err.count(f"{ref}: time {float(times[2])} in data row 3 does not "
                     f"increase on {float(times[1])}") == 2
