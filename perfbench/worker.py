"""One benchmark process: a set-up probe or the measurement of one workload.

    python3 perfbench/worker.py setup   --workload NAME
    python3 perfbench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1

`run.py` starts it with single-threaded BLAS and `src` on PYTHONPATH and
reads the JSON object it prints as its last line.  Only the standard library
is imported at module level, so that the set-up probe times the import of
the solver and its numerical libraries.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import (MIXED_REFERENCE_S, PYTHON_REFERENCE_S, HostSampler,
                       mixed_loop_factory, python_loop)
from machine import steal_ticks

ROOT = Path(__file__).resolve().parents[1]
MODES = ("hydrostatic", "global", "adaptive")
MIN_ROUNDS = 3
# share of the run budget given to untraced rounds when tracing
UNTRACED_SHARE = 0.5
# traced loop time may exceed the summed span time by this share: the
# difference is the driver's own timer calls and the wrapper entry/exit
SELF_TIME_TOLERANCE = 0.05


def setup_probe(name: str) -> dict:
    """Time to import the solver, build the scenario and take one step."""
    with HostSampler(python_loop, PYTHON_REFERENCE_S) as host:
        t0 = perf_counter()
        import nhswe  # noqa: F401
        from nhswe.adaptivity import adaptive_step
        from workloads import WORKLOADS

        wl = WORKLOADS[name]
        spec, init = wl.build()
        adaptive_step(init, spec.dt, spec.bathymetry, spec.bcs, mode="adaptive",
                      crit=wl.criterion)
        setup_s = perf_counter() - t0
    return {"setup_s": setup_s, "scale": host.scale}


class Session:
    """Runs of one workload in this process, with their correctness record."""

    def __init__(self, name: str):
        import nhswe
        from nhswe import corrector
        from workloads import WORKLOADS

        source = Path(nhswe.__file__).resolve().parent
        if source != ROOT / "src" / "nhswe":
            raise SystemExit(f"nhswe imported from {source}, not from this checkout")
        self.workload = WORKLOADS[name]
        # the caches themselves, kept before any tracing replaces the names
        self.caches = (corrector._ldg_template, corrector._block_template)
        self.runs: list[dict] = []
        self.failures: list[str] = []
        self.peak_rss_kib = 0
        self.host_loop = mixed_loop_factory()
        # the first successful global result, which every adaptive run is
        # compared against.  The inputs are deterministic, so every global
        # run gives the same result, and keeping just this one means every
        # run starts with the same memory held, whatever the mode order:
        # a 20k-element global run is about 15% slower when the results of
        # earlier runs in its round are still alive.
        self.global_result = None

    def warm_up(self) -> None:
        """One untimed step per mode, so one-off first-call costs are paid."""
        from nhswe.adaptivity import adaptive_step

        spec, init = self.workload.build()
        for mode in MODES:
            adaptive_step(init, spec.dt, spec.bathymetry, spec.bcs, mode=mode,
                          crit=self.workload.criterion)

    def run(self, mode: str, label: str, tracer=None) -> dict:
        """One whole simulate() call on freshly built inputs."""
        from nhswe.corrector import EllipticSolveError
        from nhswe.driver import simulate
        from nhswe.hydrostatic import PositivityError
        from tracer import layer_targets, originals, traced, unrestored

        spec, init = self.workload.build()
        crit = self.workload.criterion if mode == "adaptive" else None
        record = {"label": label, "mode": mode, "spec": spec, "initial": init,
                  "result": None, "error": None}
        for cache in self.caches:
            cache.cache_clear()
        ldg = self.caches[0]
        cache_before = ldg.cache_info()
        left = []
        with HostSampler(self.host_loop, MIXED_REFERENCE_S, during=tracer is None) as host:
            steal0 = steal_ticks()
            try:
                if tracer is None:
                    t0 = perf_counter()
                    result = simulate(spec, init, mode, crit)
                    record["wall_s"] = perf_counter() - t0
                else:
                    targets = layer_targets(spec.bathymetry)
                    before = originals(targets)
                    try:
                        with traced(tracer, targets):
                            t0 = perf_counter()
                            result = simulate(spec, init, mode, crit)
                            record["wall_s"] = perf_counter() - t0
                    finally:
                        left = unrestored(targets, before)
            except (PositivityError, EllipticSolveError) as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["result"] = result
                record["loop_s"] = result.loop_time
            steal1 = steal_ticks()
        if left:
            record["error"] = f"not restored after the trace: {left}"
        record["steal_ticks"] = None if None in (steal0, steal1) else steal1 - steal0
        record["probes"] = len(host.probes)
        record["scale"] = host.scale
        cache_after = ldg.cache_info()
        record["ldg_hits"] = cache_after.hits - cache_before.hits
        record["ldg_misses"] = cache_after.misses - cache_before.misses
        self.runs.append(record)
        return record

    def check(self, rec: dict) -> None:
        """Apply the correctness gate to one run.

        Adaptive runs are compared against `global_result`, and their
        adaptive_rmse_vs_global_m is recorded.
        """
        from workloads import adaptive_rmse_vs_global, check_run

        mode = rec["mode"]
        if rec["error"] is not None:
            problems = [rec["error"]]
        else:
            problems = check_run(self.workload, rec["spec"], rec["initial"],
                                 mode, rec["result"], self.global_result)
        rec["ok"] = not problems
        self.failures.extend(f"{rec['label']} {mode}: {p}" for p in problems)
        if rec["ok"] and mode == "adaptive":
            rec["rmse"] = adaptive_rmse_vs_global(rec["spec"], rec["result"],
                                                  self.global_result)
        if rec["ok"] and mode == "global" and self.global_result is None:
            self.global_result = rec["result"]

    def rounds(self, seed: int, budget_s: float, min_rounds: int) -> list[dict]:
        """Interleaved rounds of one run per mode until the budget is spent.

        The first round runs the modes in a fixed order and the process's
        peak memory is read after it; the seed fixes the order of the modes
        in every later round.  Each run is checked as soon as it ends, and
        its result is dropped.  Returns {mode: record} per round.
        """
        rng = random.Random(seed)
        deadline = perf_counter() + budget_s
        done = []
        while True:
            start = perf_counter()
            order = list(MODES)
            if done:
                rng.shuffle(order)
            records = {}
            for mode in order:
                rec = records[mode] = self.run(mode, f"round{len(done)}")
                self.check(rec)
                rec["result"] = rec["spec"] = rec["initial"] = None
            if not done:
                self.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            done.append(records)
            took = perf_counter() - start
            if len(done) >= min_rounds and perf_counter() + took > deadline:
                return done

    def summary(self) -> list[dict]:
        keys = ("label", "mode", "wall_s", "loop_s", "probes", "scale", "steal_ticks",
                "ldg_hits", "ldg_misses", "ok", "error")
        return [{k: rec.get(k) for k in keys} for rec in self.runs]


def scaled_median(records: list[dict], value) -> float | None:
    """Median of value(record) over the successful records, each scaled to
    reference host speed."""
    ok = [rec for rec in records if rec["ok"]]
    if not ok:
        return None
    return statistics.median(value(rec) * rec["scale"] for rec in ok)


def end_to_end(session: Session, rounds: list[dict]) -> tuple[dict, dict]:
    """(scaled metrics, unscaled medians of the run times)."""
    metrics, raw = {}, {}
    for mode in MODES:
        recs = [r[mode] for r in rounds]
        metrics[f"{mode}_run_s"] = (scaled_median(recs, lambda r: r["wall_s"]), "s")
        walls = [rec["wall_s"] for rec in recs if rec["ok"]]
        raw[f"{mode}_run_s"] = statistics.median(walls) if walls else None
    metrics["peak_rss_mib"] = (session.peak_rss_kib / 1024.0, "MiB")
    values = {r["adaptive"]["rmse"] for r in rounds if "rmse" in r["adaptive"]}
    if len(values) > 1:
        session.failures.append(
            f"adaptive_rmse_vs_global_m differs between rounds: {sorted(values)}")
    metrics["adaptive_rmse_vs_global_m"] = (min(values) if values else None, "m")
    return metrics, raw


def per_layer(session: Session, rounds: list[dict], traced_runs: dict) -> dict:
    """Per-layer metrics: traced runs for the layers, untraced for the driver."""
    import layers

    metrics = layers.metrics(traced_runs)
    for mode in MODES:
        recs = [r[mode] for r in rounds]
        metrics[f"driver.loop_s.{mode}"] = (scaled_median(recs, lambda r: r["loop_s"]), "s")
        metrics[f"driver.bookkeeping_s.{mode}"] = (
            scaled_median(recs, lambda r: r["wall_s"] - r["loop_s"]), "s")
    ratios = [(r["adaptive"]["loop_s"] * r["adaptive"]["scale"])
              / (r["global"]["loop_s"] * r["global"]["scale"])
              for r in rounds if r["adaptive"]["ok"] and r["global"]["ok"]]
    metrics["adaptivity.local_over_global"] = (
        statistics.median(ratios) if ratios else None, "ratio")
    untraced = scaled_median([r["adaptive"] for r in rounds], lambda r: r["wall_s"])
    traced_ad = traced_runs["adaptive"]["record"]
    overhead = None
    if untraced and traced_ad["ok"]:
        overhead = traced_ad["wall_s"] * traced_ad["scale"] / untraced - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def traced_pass(session: Session) -> dict:
    """One traced run per mode, checked like the untraced ones."""
    from tracer import ROOT as ROOT_SPAN, Tracer

    out = {}
    for mode in MODES:
        tracer = Tracer()
        out[mode] = {"record": session.run(mode, "traced", tracer), "tracer": tracer}
        session.check(out[mode]["record"])
    for mode, entry in out.items():
        rec, tracer = entry["record"], entry["tracer"]
        if not rec["ok"]:
            continue
        in_loop = tracer.root_time.get(ROOT_SPAN, 0.0)
        outside = sum(t for name, t in tracer.root_time.items() if name != ROOT_SPAN)
        self_sum = sum(s.self_time for s in tracer.layers.values()) - outside
        loop = rec["loop_s"]
        if abs(self_sum - in_loop) > 1e-9 * max(loop, 1.0) \
                or not 0.0 <= loop - in_loop <= SELF_TIME_TOLERANCE * loop:
            rec["ok"] = False
            session.failures.append(
                f"traced {mode}: span self times {self_sum:.6f} s do not sum to "
                f"the traced loop time {loop:.6f} s within {SELF_TIME_TOLERANCE:.0%}")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import machine

    session = Session(name)
    session.warm_up()
    raw = {}
    if trace:
        rounds = session.rounds(seed, UNTRACED_SHARE * seconds, 1)
        metrics = per_layer(session, rounds, traced_pass(session))
    else:
        rounds = session.rounds(seed, seconds, MIN_ROUNDS)
        metrics, raw = end_to_end(session, rounds)
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        session.failures.append(
            f"metrics not measured (no successful run, or a traced layer saw no call): {missing}")
    return {
        "env": machine.record(ROOT),
        "runs": session.summary(),
        "attempted": len(session.runs),
        "failed": sum(1 for rec in session.runs if not rec.get("ok")),
        "failures": session.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": raw,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.action == "setup":
        out = setup_probe(args.workload)
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
