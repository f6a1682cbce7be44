"""Command-line entry point: run benchmarks, compare runs, sweep criteria.

Outputs are plain CSV/JSON files; every file starts with a one-line config
echo so any artifact can be traced back to the exact run settings.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.  Every input
is checked before the output directory is made and before the first step.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adaptivity import CRITERION_KINDS, DEFAULT_THRESHOLD, MODES, Criterion
from .corrector import EllipticSolveError
from .driver import RunResult, simulate, step_times
from .hydrostatic import PositivityError
from .metrics import (DegenerateSeriesError, DisjointSeriesError, RunReport,
                      SeriesPair, aligned_pair, overlap, pearson, rmse, time_ratio)
from .scenarios import EXACT_SURFACES, SCENARIOS, ScenarioSpec

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# keys accepted in a config file; every one is also a command-line flag
CONFIG_KEYS = ("scenario", "mode", "criterion", "k_nh", "enlarge", "dt",
               "t_end", "dx", "n_elements", "poly_order", "froude", "gauges",
               "outdir", "reference", "with_global")
# the keys that set up a scenario: the parameters of the scenario builders
SCENARIO_KEYS = {key for builder in SCENARIOS.values()
                 for key in inspect.signature(builder).parameters}


class ConfigError(ValueError):
    """Invalid run configuration (bad key, value, or combination)."""


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys match the CLI flags."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = value
    return out


def gauge_name(x: float) -> str:
    """The column name of the gauge at position x, as gauge CSVs are written."""
    return f"eta@{x:g}"


def _column_name(header: str) -> str:
    """The gauge_name of the position an `eta@<x>` header names, so that
    `eta@200.0` and `eta@200` are one gauge; other headers stand as read."""
    prefix, at, position = header.partition("@")
    try:
        return gauge_name(float(position)) if (prefix, at) == ("eta", "@") else header
    except ValueError:
        return header


def read_gauges_csv(path: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read a gauge CSV (ours or lab data in the same layout); gauge columns
    are keyed by the gauge_name of their position."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(line for line in fh
                                          if not line.startswith("#")) if r]
    except OSError as exc:
        raise ConfigError(f"cannot read gauge CSV {path}: {exc}") from exc
    if not rows or rows[0][0] != "t":
        raise ConfigError(f"{path}: expected a 't,eta@...' gauge CSV header")
    header = rows[0][1:]
    try:
        data = np.array([[float(v) for v in r] for r in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"{path}: ragged or non-numeric gauge CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header) + 1:
        raise ConfigError(f"{path}: ragged or empty gauge CSV")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise ConfigError(f"{path}: column {(['t'] + header)[col]!r} holds the "
                          f"non-finite value {data[row, col]} in data row {row + 1}")
    # the times are the sample grid that series are interpolated on
    back = np.flatnonzero(np.diff(data[:, 0]) <= 0.0)
    if len(back):
        row = back[0] + 1
        raise ConfigError(f"{path}: time {data[row, 0]} in data row {row + 1} does "
                          f"not increase on {data[row - 1, 0]} in the row before")
    names = [_column_name(h) for h in header]
    if len(set(names)) < len(names):
        raise ConfigError(f"{path}: two columns name one gauge: {header}")
    return data[:, 0], {name: data[:, k + 1] for k, name in enumerate(names)}


def _parse_bool(value) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_gauges(value) -> tuple[float, ...]:
    """Gauge positions, no two of which share a gauge_name (a column)."""
    gauges = tuple(float(tok) for tok in value.split(",") if tok.strip())
    names = [gauge_name(x) for x in gauges]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ValueError(f"two positions name one gauge: {', '.join(shared)}")
    return gauges


def _parse_kind(value) -> str:
    if value not in CRITERION_KINDS:
        raise ValueError(f"expected one of {CRITERION_KINDS}, got {value!r}")
    return value


# the conversion of every typed config key, whether its value comes from a
# config file (a string) or a flag; scenario, mode and outdir stay strings,
# and a reference gauge CSV is read here, so a bad one stops before the run
_PARSERS = {"dt": float, "t_end": float, "dx": float, "n_elements": int,
            "poly_order": int, "froude": float, "k_nh": float,
            "enlarge": _parse_bool, "with_global": _parse_bool,
            "gauges": _parse_gauges, "criterion": _parse_kind,
            "reference": read_gauges_csv}


def parse_value(key: str, value):
    """One typed config value; a bad one is a ConfigError naming its key."""
    try:
        return _PARSERS[key](value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(args) -> dict:
    """Config-file values overridden by the flags given, each parsed once."""
    cfg = read_config_file(args.config) if args.config else {}
    # a flag left unset is None and keeps the file's value
    cfg.update({k: v for k, v in vars(args).items()
                if k in CONFIG_KEYS and v is not None})
    return {k: parse_value(k, v) if k in _PARSERS else v
            for k, v in cfg.items()}


def make_criterion(kind: str, k_nh: float, enlarge: bool) -> Criterion:
    """A flag criterion; settings it rejects are a ConfigError."""
    try:
        return Criterion(kind, k_nh, enlarge)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_run(cfg: dict) -> tuple[ScenarioSpec, object, str, Criterion | None]:
    """Scenario + initial state + mode + criterion from a parsed config."""
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {tuple(SCENARIOS)}, got {name!r}")
    mode = cfg.get("mode", "adaptive")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")

    # a scenario takes the settings its builder declares, and no other
    settings = inspect.signature(SCENARIOS[name]).parameters
    overrides = {key: value for key, value in cfg.items() if key in SCENARIO_KEYS}
    for key in overrides:
        if key not in settings:
            raise ConfigError(f"{name} takes no {key}; its settings are "
                              f"{', '.join(settings)}")

    try:
        spec, initial = SCENARIOS[name](**overrides)
        if cfg.get("gauges"):
            spec = replace(spec, gauges=cfg["gauges"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    criterion = None
    if mode == "adaptive":
        criterion = make_criterion(cfg.get("criterion", "eta_over_d"),
                                   cfg.get("k_nh", DEFAULT_THRESHOLD),
                                   cfg.get("enlarge", False))
    return spec, initial, mode, criterion


def config_echo(spec: ScenarioSpec, mode: str,
                criterion: Criterion | None) -> dict:
    """The settings every output of a run is traced back to."""
    grid = spec.grid
    return {
        "scenario": spec.name,
        "mode": mode,
        "criterion": criterion.kind if criterion else None,
        "k_nh": criterion.k_nh if criterion else None,
        "enlarge": criterion.enlarge if criterion else None,
        "dt": spec.dt,
        "t_end": spec.t_end,
        "n_elements": grid.n_elements,
        "poly_order": grid.poly_order,
        "x_left": grid.x_left,
        "x_right": grid.x_right,
        "gauges": list(spec.gauges),
    }


def write_csv(path: Path, config: dict, header: list, rows) -> None:
    """An output table: the one-line config echo, the header, then the rows."""
    with path.open("w", newline="") as fh:
        fh.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_gauges_csv(path: Path, result: RunResult, config: dict) -> None:
    header = ["t"] + [gauge_name(x) for x in result.spec.gauges]
    rows = ([repr(float(t))] + [repr(float(v)) for v in eta]
            for t, eta in zip(result.gauge_times, result.gauge_eta))
    write_csv(path, config, header, rows)


def write_snapshot_csv(path: Path, result: RunResult, config: dict) -> None:
    state = result.final_state
    grid = result.spec.grid
    p = (result.final_p.values if result.final_p is not None
         else np.zeros_like(state.h.values))
    flags = result.final_mask.flags
    fields = (grid.nodes, state.h.values, state.hu.values, state.hw.values, p)
    rows = ([repr(float(f[e, j])) for f in fields] + [int(flags[e])]
            for e in range(grid.n_elements) for j in range(grid.poly_order + 1))
    write_csv(path, config, ["x", "h", "hu", "hw", "p_nh", "flagged"], rows)


def write_mask_csv(path: Path, result: RunResult, config: dict) -> None:
    rows = ([step, repr(float(t)), e0, e1]
            for step, t, ranges in result.mask_history for e0, e1 in ranges)
    write_csv(path, config, ["step", "t", "range_start", "range_end"], rows)


def series_metrics(pair: SeriesPair) -> tuple[float, float | None]:
    """RMSE and Pearson r of a pair; r is None where a series has no variance."""
    try:
        r = pearson(pair)
    except DegenerateSeriesError:
        r = None
    return rmse(pair), r


def _final_surface(result: RunResult) -> np.ndarray:
    """Final elevation eta = h - d at every node, over the bottom at the final time."""
    state, spec = result.final_state, result.spec
    d = spec.bathymetry.depth(spec.grid.sample_nodes, state.time)
    return (state.h.values - d).ravel()


def make_report(result: RunResult, config: dict, reference=None) -> RunReport:
    """The report of a run; reference is a parsed gauge CSV (read_gauges_csv)."""
    report = RunReport(config=config, loop_time=result.loop_time,
                       mask_fraction_mean=result.mask_fraction_mean)
    spec = result.spec
    exact = EXACT_SURFACES.get(spec.name)
    if exact is not None:
        # final-snapshot accuracy against the closed-form surface
        eta_ref = exact(spec.grid.nodes, result.final_state.time)
        e, r = series_metrics(SeriesPair(eta_ref.ravel(), _final_surface(result)))
        report.extra.update(rmse_vs_exact=e, r_vs_exact=r)
    if reference:
        ref_t, ref_cols = reference
        ours = {gauge_name(x): result.gauge_eta[:, k]
                for k, x in enumerate(spec.gauges)}
        for name, ref_v in ref_cols.items():
            if name not in ours:
                continue
            pair = aligned_pair(ref_t, ref_v, result.gauge_times, ours[name])
            report.gauge_rmse[name], report.gauge_r[name] = series_metrics(pair)
    return report


def check_reference(reference, spec: ScenarioSpec, initial) -> None:
    """A reference gauge CSV (read_gauges_csv) must share a gauge and two
    sample times with the run, which is known before the run."""
    ref_t, ref_cols = reference
    ours = [gauge_name(x) for x in spec.gauges]
    if not set(ours) & set(ref_cols):
        raise ConfigError(f"reference: its columns {list(ref_cols)} share no gauge "
                          f"with the run's {ours}")
    try:
        overlap(ref_t, step_times(spec, initial))
    except DisjointSeriesError as exc:
        raise ConfigError(f"reference: {exc}") from exc


def cmd_run(args) -> int:
    cfg = load_config(args)
    spec, initial, mode, criterion = build_run(cfg)
    if cfg.get("reference"):
        check_reference(cfg["reference"], spec, initial)
    config = config_echo(spec, mode, criterion)
    outdir = Path(cfg.get("outdir") or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        result = simulate(spec, initial, mode, criterion)
    except (PositivityError, EllipticSolveError) as exc:
        (outdir / "report.json").write_text(json.dumps(
            {"config": config, "status": "failed", "error": str(exc)},
            indent=2) + "\n")
        raise

    report = make_report(result, config, cfg.get("reference"))
    if cfg.get("with_global") and mode == "adaptive":
        gresult = simulate(spec, initial, "global")
        gconfig = config_echo(spec, "global", None)
        greport = make_report(gresult, gconfig)
        report.time_ratio = time_ratio(report, greport)
        (outdir / "report_global.json").write_text(greport.to_json() + "\n")
        write_gauges_csv(outdir / "gauges_global.csv", gresult, gconfig)

    write_gauges_csv(outdir / "gauges.csv", result, config)
    write_snapshot_csv(outdir / "snapshot.csv", result, config)
    if mode == "adaptive":
        write_mask_csv(outdir / "mask_history.csv", result, config)
    (outdir / "report.json").write_text(report.to_json() + "\n")
    print(report.to_json())
    return 0


def _load_run(path_str: str) -> tuple[np.ndarray, dict, RunReport | None]:
    """Gauge series plus the report (if present) of a finished run."""
    path = Path(path_str)
    csv_path = path / "gauges.csv" if path.is_dir() else path
    t, cols = read_gauges_csv(str(csv_path))
    rp = (path if path.is_dir() else path.parent) / "report.json"
    try:
        doc = json.loads(rp.read_text()) if rp.exists() else {}
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read run report {rp}: {exc}") from exc
    if isinstance(doc, dict) and "loop_time_s" not in doc:  # no report, or a failed run's
        return t, cols, None
    if not (isinstance(doc, dict) and isinstance(doc["loop_time_s"], (int, float))
            and isinstance(doc.get("config"), dict)):
        raise ConfigError(f"{rp}: a run report is a JSON object whose loop_time_s "
                          f"is a number and comes with its config object")
    return t, cols, RunReport(config=doc["config"], loop_time=doc["loop_time_s"],
                              mask_fraction_mean=doc.get("mask_fraction_mean", 0.0))


def cmd_compare(args) -> int:
    t_a, cols_a, rep_a = _load_run(args.run_a)
    t_b, cols_b, rep_b = _load_run(args.run_b)
    shared = [name for name in cols_a if name in cols_b]
    if not shared:
        raise ConfigError("the two runs share no gauge columns")
    try:
        overlap(t_a, t_b)
    except DisjointSeriesError as exc:
        raise ConfigError(f"{args.run_a} and {args.run_b}: {exc}") from exc
    doc = {"gauge_rmse": {}, "gauge_r": {}}
    for name in shared:
        pair = aligned_pair(t_a, cols_a[name], t_b, cols_b[name])
        doc["gauge_rmse"][name], doc["gauge_r"][name] = series_metrics(pair)
    if rep_a and rep_b:
        try:
            doc["time_ratio_a_over_b"] = time_ratio(rep_a, rep_b)
        except ValueError:
            pass  # unmatched configs: ratio omitted, comparison still valid
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    cfg["mode"] = "global"
    spec, initial, _, _ = build_run(cfg)
    k_nh = cfg.get("k_nh", DEFAULT_THRESHOLD)
    kinds = [parse_value("criterion", tok) for tok in args.criteria.split(",")
             if tok.strip()]
    enlarges = [parse_value("enlarge", tok)
                for tok in args.enlarge_options.split(",")]
    criteria = [make_criterion(kind, k_nh, enlarge)
                for kind in kinds for enlarge in enlarges]
    outdir = Path(cfg.get("outdir") or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    if criteria:
        gresult = simulate(spec, initial, "global")
        greport = make_report(gresult, config_echo(spec, "global", None))
        gsurface = _final_surface(gresult)
        for crit in criteria:
            result = simulate(spec, initial, "adaptive", crit)
            report = make_report(result, config_echo(spec, "adaptive", crit))
            row = {"criterion": crit.kind, "enlarge": int(crit.enlarge),
                   "time_ratio": time_ratio(report, greport),
                   "mask_fraction": report.mask_fraction_mean}
            if "rmse_vs_exact" in report.extra:
                row["rmse"] = report.extra["rmse_vs_exact"]
                row["r"] = report.extra["r_vs_exact"]
            else:
                # surface accuracy vs the matched global run
                pair = SeriesPair(gsurface, _final_surface(result))
                row["rmse"], row["r"] = series_metrics(pair)
            for k, x in enumerate(spec.gauges):
                pair = SeriesPair(gresult.gauge_eta[:, k], result.gauge_eta[:, k])
                # a None r (flat series) is written as an empty cell
                row[f"rmse@{x:g}"], row[f"r@{x:g}"] = series_metrics(pair)
            rows.append(row)

    header = list(rows[0]) if rows else ["criterion", "enlarge", "time_ratio",
                                         "mask_fraction", "rmse", "r"]
    path = outdir / "sweep.csv"
    echo = {"scenario": cfg.get("scenario"), "k_nh": k_nh, "criteria": kinds,
            "enlarge_options": [int(e) for e in enlarges]}
    write_csv(path, echo, header, ([row[h] for h in header] for row in rows))
    print(path)
    return 0


def _add_run_flags(sub) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--scenario", choices=SCENARIOS)
    sub.add_argument("--dt")
    sub.add_argument("--t-end", dest="t_end")
    sub.add_argument("--dx", help="element width")
    sub.add_argument("--n-elements", dest="n_elements", help="element count")
    sub.add_argument("--poly-order", dest="poly_order")
    sub.add_argument("--froude", help="slide Froude number")
    sub.add_argument("--gauges", help="comma-separated gauge positions (m)")
    sub.add_argument("--k-nh", dest="k_nh", help="flag threshold")
    sub.add_argument("--outdir")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhswe",
        description="1D non-hydrostatic shallow water benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one scenario and write outputs")
    _add_run_flags(p_run)
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument("--criterion", choices=CRITERION_KINDS)
    p_run.add_argument("--enlarge", nargs="?", const="true")
    p_run.add_argument("--reference", help="lab gauge CSV to compare against")
    p_run.add_argument("--with-global", dest="with_global", nargs="?",
                       const="true", help="also run the global baseline "
                       "in-process and report the time ratio")
    p_run.set_defaults(func=cmd_run)

    p_cmp = subs.add_parser("compare", help="metrics between two finished runs")
    p_cmp.add_argument("run_a", help="run directory or gauge CSV")
    p_cmp.add_argument("run_b", help="run directory or gauge CSV")
    p_cmp.add_argument("--out", help="write the metrics JSON here too")
    p_cmp.set_defaults(func=cmd_compare)

    p_sw = subs.add_parser("sweep", help="criterion/enlargement sweep table")
    _add_run_flags(p_sw)
    p_sw.add_argument("--criteria", default=",".join(CRITERION_KINDS),
                      help="comma-separated criterion kinds")
    p_sw.add_argument("--enlarge-options", dest="enlarge_options",
                      default="off", help="comma list of off/on")
    p_sw.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PositivityError, EllipticSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
