"""Self-tests of the benchmark:  python3 -m pytest perfbench -q

They check that tracing leaves the solver as it found it, that span self
times account for the traced loop time, that every count metric repeats
exactly, that a layer the tracer did not see is reported as not measured,
that the correctness gate rejects bad runs (a skipped pressure correction
among them), and that the command honours its output contract.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import tracer
from tracer import ROOT as ROOT_SPAN, Tracer, layer_targets, originals, traced
from worker import SELF_TIME_TOLERANCE, Session, measure, traced_pass
from workloads import WORKLOADS, adaptive_rmse_vs_global, check_run

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
# per-layer metrics that are counts of work, not times: they must repeat
EXACT_UNITS = {"count", "B"}
EXACT_RATIOS = {"adaptivity.mask_fraction_mean", "adaptivity.corrected_step_ratio",
                "corrector.ldg_template.hit_ratio"}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def two_passes(request):
    session = Session(request.param)
    spec, _ = session.workload.build()
    before = originals(layer_targets(spec.bathymetry))
    passes = [traced_pass(session) for _ in range(2)]
    return session, passes, before


def test_wrapped_attributes_are_original_after_trace(two_passes):
    session, passes, before = two_passes
    assert session.failures == []
    spec = passes[0]["global"]["record"]["spec"]
    after = originals(layer_targets(spec.bathymetry))
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))


def test_attributes_restored_when_the_run_raises():
    spec, _ = WORKLOADS["whittaker_slide"].build()
    targets = layer_targets(spec.bathymetry)
    before = originals(targets)
    with pytest.raises(RuntimeError):
        with traced(Tracer(), targets):
            raise RuntimeError("interrupted run")
    assert all(a is b for a, b in zip(originals(targets), before))


def test_self_times_sum_to_traced_loop_time(two_passes):
    _, passes, _ = two_passes
    for mode, entry in passes[0].items():
        tracer, loop = entry["tracer"], entry["record"]["loop_s"]
        in_loop = tracer.root_time[ROOT_SPAN]
        outside = sum(t for name, t in tracer.root_time.items() if name != ROOT_SPAN)
        self_sum = sum(s.self_time for s in tracer.layers.values()) - outside
        assert math.isclose(self_sum, in_loop, rel_tol=1e-9), mode
        assert 0.0 <= loop - in_loop <= SELF_TIME_TOLERANCE * loop, mode


def test_count_metrics_repeat_exactly(two_passes):
    _, passes, _ = two_passes
    first, second = (layers.metrics(p) for p in passes)
    assert first.keys() == second.keys() and first
    exact = [name for name, (_, unit) in first.items()
             if unit in EXACT_UNITS or name in EXACT_RATIOS]
    assert len(exact) >= 10
    for name in exact:
        assert first[name] == second[name], name
    rmse = [adaptive_rmse_vs_global(p["adaptive"]["record"]["spec"],
                                    p["adaptive"]["record"]["result"],
                                    p["global"]["record"]["result"]) for p in passes]
    assert rmse[0] == rmse[1] > 0.0


def test_gate_rejects_non_finite_and_inaccurate_runs(two_passes):
    from nhswe.grid import FlowState, NodalField

    session, passes, _ = two_passes
    rec = passes[0]["adaptive"]["record"]
    ref = passes[0]["global"]["record"]["result"]
    result, spec = rec["result"], rec["spec"]
    assert check_run(session.workload, spec, rec["initial"], "adaptive", result, ref) == []

    def with_h(values):
        state = result.final_state
        bad = FlowState._wrap(NodalField._wrap(spec.grid, values), state.hu,
                              state.hw, state.time)
        return type(result)(**{**result.__dict__, "final_state": bad})

    h = result.final_state.h.values
    nan = h.copy()
    nan[3, 0] = np.nan
    assert check_run(session.workload, spec, rec["initial"], "adaptive",
                     with_h(nan), ref) == ["non-finite h"]
    # a run whose surface is wrong everywhere must fail its accuracy check;
    # hammack checks gauges, so its gauge series are perturbed as well
    wrong = with_h(1.5 * h)
    wrong.gauge_eta = result.gauge_eta[::-1].copy()
    assert check_run(session.workload, spec, rec["initial"], "adaptive",
                     wrong, ref) != []


def test_a_bypassed_layer_is_not_measured(monkeypatch):
    # as if the solver reached dgbsv through a name the tracer does not wrap
    every_target = tracer.layer_targets
    monkeypatch.setattr(tracer, "layer_targets", lambda bathymetry: [
        t for t in every_target(bathymetry) if t[1] != "_GBSV"])
    out = measure("whittaker_slide", seed=0, seconds=0.1, trace=True)
    unmeasured = {name for name, m in out["metrics"].items() if m["value"] is None}
    assert unmeasured == {f"corrector.gbsv.{q}.{mode}" for q in ("us", "ns_per_unknown")
                          for mode in layers.CORRECTED_MODES} | {
        f"corrector.{q}_per_step.{mode}" for q in ("unknowns", "band_bytes")
        for mode in layers.CORRECTED_MODES}
    assert any("not measured" in f for f in out["failures"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_rejects_a_skipped_correction(name, monkeypatch):
    from nhswe import adaptivity
    from nhswe.driver import simulate

    correct = adaptivity.apply_correction

    def predictor_only(predictor, *args, **kwargs):
        return predictor, correct(predictor, *args, **kwargs)[1]

    monkeypatch.setattr(adaptivity, "apply_correction", predictor_only)
    workload = WORKLOADS[name]
    runs = {}
    for mode, crit in (("global", None), ("adaptive", workload.criterion)):
        spec, init = workload.build()
        runs[mode] = spec, init, simulate(spec, init, mode, crit)
    for mode, (spec, init, result) in runs.items():
        failures = check_run(workload, spec, init, mode, result, runs["global"][2])
        assert any(f.startswith("reference:") for f in failures), (mode, failures)


def run_command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_fails_without_the_solver_source(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(tmp_path, "--workload", "whittaker_slide", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    proc = run_command(REPO, "--workload", "whittaker_slide", "--seed", "3",
                       "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = [m["name"] for m in DECLARED[kind]]
    assert list(result["metrics"]) == names
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    assert set(names) | {"failed_runs"} <= printed
