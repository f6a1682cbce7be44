"""Command-line entry point: run benchmarks, compare runs, sweep criteria.

Outputs are plain CSV/JSON files; every file starts with a one-line config
echo so any artifact can be traced back to the exact run settings.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adaptivity import CRITERION_KINDS, DEFAULT_THRESHOLD, Criterion
from .corrector import EllipticSolveError
from .driver import RunResult, simulate
from .hydrostatic import PositivityError
from .metrics import (DegenerateSeriesError, RunReport, SeriesPair,
                      aligned_pair, pearson, rmse, time_ratio)
from .scenarios import ScenarioSpec, build_scenario, solitary_exact

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SCENARIOS = ("solitary", "hammack_up", "hammack_down", "whittaker")

# keys accepted in a config file; every one is also a command-line flag
CONFIG_KEYS = ("scenario", "mode", "criterion", "k_nh", "enlarge", "dt",
               "t_end", "dx", "n_elements", "poly_order", "froude", "gauges",
               "outdir", "reference", "with_global")


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


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    v = str(value).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _parse_gauges(value) -> tuple[float, ...]:
    if value in (None, ""):
        return ()
    if isinstance(value, tuple):
        return value
    try:
        return tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad gauge list {value!r}") from exc


def merge_config(file_cfg: dict, cli_cfg: dict) -> dict:
    """Command-line flags override config-file values; None means unset."""
    merged = dict(file_cfg)
    merged.update({k: v for k, v in cli_cfg.items() if v is not None})
    return merged


def build_run(cfg: dict) -> tuple[ScenarioSpec, object, str, Criterion | None]:
    """Scenario + initial state + mode + criterion from a merged config."""
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {name!r}")
    mode = cfg.get("mode", "adaptive")
    if mode not in ("hydrostatic", "global", "adaptive"):
        raise ConfigError(f"unknown mode {mode!r}")

    overrides = {}
    for key, cast in (("dt", float), ("t_end", float), ("poly_order", int)):
        if cfg.get(key) is not None:
            overrides[key] = cast(cfg[key])
    if cfg.get("dx") is not None:
        if name == "solitary":
            raise ConfigError("solitary takes n_elements, not dx")
        overrides["dx"] = float(cfg["dx"])
    if cfg.get("n_elements") is not None:
        if name != "solitary":
            raise ConfigError("dx sets the resolution for this scenario")
        overrides["n_elements"] = int(cfg["n_elements"])
    if cfg.get("froude") is not None:
        if name != "whittaker":
            raise ConfigError("froude applies to the whittaker scenario only")
        overrides["froude"] = float(cfg["froude"])

    try:
        spec, initial = build_scenario(name, **overrides)
        gauges = _parse_gauges(cfg.get("gauges"))
        if gauges:
            spec = replace(spec, gauges=gauges)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    criterion = None
    if mode == "adaptive":
        kind = cfg.get("criterion", "eta_over_d")
        if kind not in CRITERION_KINDS:
            raise ConfigError(f"criterion must be one of {CRITERION_KINDS}, "
                              f"got {kind!r}")
        try:
            criterion = Criterion(kind, float(cfg.get("k_nh", DEFAULT_THRESHOLD)),
                                  _parse_bool(cfg.get("enlarge", False)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return spec, initial, mode, criterion


def _echo_line(config: dict) -> str:
    return "# config " + json.dumps(config, sort_keys=True)


def write_gauges_csv(path: Path, result: RunResult, config: dict) -> None:
    with path.open("w", newline="") as fh:
        fh.write(_echo_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"eta@{x:g}" for x in result.spec.gauges])
        for row in range(result.gauge_times.shape[0]):
            writer.writerow([repr(float(result.gauge_times[row]))]
                            + [repr(float(v)) for v in result.gauge_eta[row]])


def write_snapshot_csv(path: Path, result: RunResult, config: dict) -> None:
    state = result.final_state
    grid = result.spec.grid
    p = (result.final_p.values if result.final_p is not None
         else np.zeros_like(state.h.values))
    flags = (result.final_mask.flags if result.final_mask is not None
             else np.zeros(grid.n_elements, dtype=bool))
    with path.open("w", newline="") as fh:
        fh.write(_echo_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "h", "hu", "hw", "p_nh", "flagged"])
        for e in range(grid.n_elements):
            for j in range(grid.poly_order + 1):
                writer.writerow([repr(float(grid.nodes[e, j])),
                                 repr(float(state.h.values[e, j])),
                                 repr(float(state.hu.values[e, j])),
                                 repr(float(state.hw.values[e, j])),
                                 repr(float(p[e, j])),
                                 int(flags[e])])


def write_mask_csv(path: Path, result: RunResult, config: dict) -> None:
    with path.open("w", newline="") as fh:
        fh.write(_echo_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "range_start", "range_end"])
        for step, t, ranges in result.mask_history:
            for e0, e1 in ranges:
                writer.writerow([step, repr(float(t)), e0, e1])


def read_gauges_csv(path: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read a gauge CSV (ours or lab data in the same layout)."""
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
    return data[:, 0], {name: data[:, k + 1] for k, name in enumerate(header)}


def _solitary_field_metrics(result: RunResult) -> tuple[float, float]:
    """Final-snapshot accuracy against the closed-form solitary profile."""
    spec = result.spec
    d0 = spec.bathymetry.h0
    x0 = (spec.grid.x_right - spec.grid.x_left) / 4.0
    eta_ref, _ = solitary_exact(spec.grid.nodes, result.final_state.time,
                                d=d0, x0=x0)
    eta = result.final_state.h.values - d0
    pair = SeriesPair(eta_ref.ravel(), eta.ravel())
    return rmse(pair), pearson(pair)


def _final_surface(result: RunResult) -> np.ndarray:
    """Final elevation eta = h - d at every node, over the bottom at the final time."""
    state, spec = result.final_state, result.spec
    d = spec.bathymetry.depth(spec.grid.sample_nodes, state.time)
    return (state.h.values - d).ravel()


def make_report(result: RunResult, config: dict,
                reference: str | None = None) -> RunReport:
    report = RunReport(config=config, loop_time=result.loop_time,
                       mask_fraction_mean=result.mask_fraction_mean)
    if result.spec.name == "solitary":
        e, r = _solitary_field_metrics(result)
        report.extra["rmse_vs_exact"] = e
        report.extra["r_vs_exact"] = r
    if reference:
        ref_t, ref_cols = read_gauges_csv(reference)
        ours = {f"eta@{x:g}": result.gauge_eta[:, k]
                for k, x in enumerate(result.spec.gauges)}
        for name, ref_v in ref_cols.items():
            if name not in ours:
                continue
            pair = aligned_pair(ref_t, ref_v, result.gauge_times, ours[name])
            report.gauge_rmse[name] = rmse(pair)
            try:
                report.gauge_r[name] = pearson(pair)
            except DegenerateSeriesError:
                report.gauge_r[name] = None
    return report


def cmd_run(args) -> int:
    cfg = merge_config(read_config_file(args.config) if args.config else {},
                       {k: getattr(args, k, None) for k in CONFIG_KEYS})
    spec, initial, mode, criterion = build_run(cfg)
    outdir = Path(cfg.get("outdir") or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    echo = {"mode": mode,
            "criterion": criterion.kind if criterion else None,
            "k_nh": criterion.k_nh if criterion else None,
            "enlarge": criterion.enlarge if criterion else None}

    try:
        result = simulate(spec, initial, mode, criterion)
    except (PositivityError, EllipticSolveError) as exc:
        (outdir / "report.json").write_text(json.dumps(
            {"config": {**echo, "scenario": spec.name}, "status": "failed",
             "error": str(exc)}, indent=2) + "\n")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    config = result.config_echo()
    report = make_report(result, config, cfg.get("reference"))

    if _parse_bool(cfg.get("with_global", False)) and mode == "adaptive":
        gresult = simulate(spec, initial, "global")
        gconfig = gresult.config_echo()
        greport = RunReport(config=gconfig, loop_time=gresult.loop_time,
                            mask_fraction_mean=gresult.mask_fraction_mean)
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


def _load_run(path_str: str) -> tuple[np.ndarray, dict, dict | None]:
    """Gauge series plus the report config (if present) of a finished run."""
    path = Path(path_str)
    csv_path = path / "gauges.csv" if path.is_dir() else path
    t, cols = read_gauges_csv(str(csv_path))
    report = None
    rp = (path if path.is_dir() else path.parent) / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return t, cols, report


def cmd_compare(args) -> int:
    t_a, cols_a, rep_a = _load_run(args.run_a)
    t_b, cols_b, rep_b = _load_run(args.run_b)
    shared = [name for name in cols_a if name in cols_b]
    if not shared:
        raise ConfigError("the two runs share no gauge columns")
    doc = {"gauge_rmse": {}, "gauge_r": {}}
    for name in shared:
        pair = aligned_pair(t_a, cols_a[name], t_b, cols_b[name])
        doc["gauge_rmse"][name] = rmse(pair)
        try:
            doc["gauge_r"][name] = pearson(pair)
        except DegenerateSeriesError:
            doc["gauge_r"][name] = None
    if rep_a and rep_b:
        ra = RunReport(config=rep_a["config"], loop_time=rep_a["loop_time_s"],
                       mask_fraction_mean=rep_a.get("mask_fraction_mean", 0.0))
        rb = RunReport(config=rep_b["config"], loop_time=rep_b["loop_time_s"],
                       mask_fraction_mean=rep_b.get("mask_fraction_mean", 0.0))
        try:
            doc["time_ratio_a_over_b"] = time_ratio(ra, rb)
        except ValueError:
            pass  # unmatched configs: ratio omitted, comparison still valid
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_sweep(args) -> int:
    cfg = merge_config(read_config_file(args.config) if args.config else {},
                       {k: getattr(args, k, None) for k in CONFIG_KEYS})
    cfg["mode"] = "global"
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    for kind in criteria:
        if kind not in CRITERION_KINDS:
            raise ConfigError(f"unknown criterion {kind!r}")
    enlarges = [_parse_bool(tok) for tok in args.enlarge_options.split(",")]
    outdir = Path(cfg.get("outdir") or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    spec, initial, _, _ = build_run(cfg)
    k_nh = float(cfg.get("k_nh", DEFAULT_THRESHOLD))
    rows = []
    if criteria:
        gresult = simulate(spec, initial, "global")
        gconfig = gresult.config_echo()
        greport = RunReport(config=gconfig, loop_time=gresult.loop_time,
                            mask_fraction_mean=0.0)
        for kind in criteria:
            for enlarge in enlarges:
                crit = Criterion(kind, k_nh, enlarge)
                result = simulate(spec, initial, "adaptive", crit)
                config = result.config_echo()
                report = RunReport(config=config, loop_time=result.loop_time,
                                   mask_fraction_mean=result.mask_fraction_mean)
                row = {"criterion": kind, "enlarge": int(enlarge),
                       "time_ratio": time_ratio(report, greport),
                       "mask_fraction": result.mask_fraction_mean}
                if spec.name == "solitary":
                    e, r = _solitary_field_metrics(result)
                    row["rmse"] = e
                    row["r"] = r
                else:
                    # surface accuracy vs the matched global run
                    pair = SeriesPair(_final_surface(gresult), _final_surface(result))
                    row["rmse"] = rmse(pair)
                    row["r"] = pearson(pair)
                for k, x in enumerate(spec.gauges):
                    pair = SeriesPair(gresult.gauge_eta[:, k],
                                      result.gauge_eta[:, k])
                    row[f"rmse@{x:g}"] = rmse(pair)
                    try:
                        row[f"r@{x:g}"] = pearson(pair)
                    except DegenerateSeriesError:
                        row[f"r@{x:g}"] = ""
                rows.append(row)

    header = list(rows[0]) if rows else ["criterion", "enlarge", "time_ratio",
                                         "mask_fraction", "rmse", "r"]
    path = outdir / "sweep.csv"
    with path.open("w", newline="") as fh:
        fh.write(_echo_line({"scenario": cfg.get("scenario"),
                             "k_nh": k_nh,
                             "criteria": criteria,
                             "enlarge_options": [int(e) for e in enlarges]}) + "\n")
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    print(path)
    return 0


def _add_run_flags(sub) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--scenario", choices=SCENARIOS)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--dx", type=float, help="element width (hammack/whittaker)")
    sub.add_argument("--n-elements", dest="n_elements", type=int,
                     help="element count (solitary)")
    sub.add_argument("--poly-order", dest="poly_order", type=int)
    sub.add_argument("--froude", type=float, help="whittaker slide Froude number")
    sub.add_argument("--gauges", help="comma-separated gauge positions (m)")
    sub.add_argument("--k-nh", dest="k_nh", type=float, help="flag threshold")
    sub.add_argument("--outdir")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhswe",
        description="1D non-hydrostatic shallow water benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one scenario and write outputs")
    _add_run_flags(p_run)
    p_run.add_argument("--mode", choices=("hydrostatic", "global", "adaptive"))
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
