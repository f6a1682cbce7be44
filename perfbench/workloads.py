"""Benchmark workloads: scenario inputs and the correctness gate of every run.

Each workload puts most of one layer's work in one place and little in
another, so that a change to a layer shows on one workload and not on the
others:

* whittaker_slide -- 200 elements, sloped moving bump: the fixed per-step
  cost regime (numpy dispatch dominates, dgbsv is a few percent of an
  adaptive step).  The only workload with d_x != 0, so the only one that runs
  the sloped branches of the corrector and the full six-channel bottom sample.
* hammack_plate -- 1000 elements, moving plate with a bottom jump at an
  element interface, wall and absorbing ends, four gauges: the multi-range
  regime (up to 6 ranges per step, frequent misses of the LDG template
  cache) and the only one running the hydrostatic-reconstruction flux branch.
* solitary_20k -- 20000 elements on a flat bottom between walls: the
  per-node regime (a global step is dominated by the banded fill and dgbsv)
  and the memory case (one O(n) cached template per distinct range tuple).

The inputs are deterministic; the thresholds are the published acceptance
thresholds, unchanged.  Those thresholds cannot fail on their own when a
run is short: in 30 steps the solitary wave moves about 0.3 m, so even the
initial state meets them, and the hammack and whittaker checks only compare
adaptive with global runs.  Every run is therefore also compared with the
final state the seed solver reached on the same inputs (`reference.npz`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from nhswe.adaptivity import Criterion
from nhswe.driver import RunResult
from nhswe.metrics import SeriesPair, pearson, rmse
from nhswe.scenarios import ScenarioSpec, build_scenario, build_solitary, solitary_exact

# a gauge whose global series peaks below this share of the largest gauge
# peak has only round-off in it: the wave has not reached it yet
UNREACHED_GAUGE_SHARE = 1e-8

REFERENCE = Path(__file__).with_name("reference.npz")
FIELDS = ("h", "hu", "hw")
# nodes per field kept in the reference, evenly spaced over the grid
REFERENCE_SAMPLES = 1024
# a run's final field may differ from the reference of its mode by this
# share of the field's nonhydrostatic signature, the distance between the
# global and hydrostatic references.  Round-off in the inputs moves a run by
# about 1e-8 of it (checked with a 1e-13 relative perturbation of h); a
# correction that returns the predictor unchanged moves it by 1.0.
REFERENCE_TOLERANCE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], tuple]
    criterion: Criterion
    # check(spec, initial, mode, result, global_result) -> list of failures
    check: Callable[..., list]


def finite_fields(result: RunResult) -> list[str]:
    state = result.final_state
    bad = [name for name, values in (("h", state.h.values), ("hu", state.hu.values),
                                     ("hw", state.hw.values),
                                     ("gauges", result.gauge_eta))
           if not np.all(np.isfinite(values))]
    return [f"non-finite {name}" for name in bad]


def final_fields(result: RunResult) -> dict[str, np.ndarray]:
    """The final h, hu and hw at the reference sample nodes."""
    state = result.final_state
    out = {}
    for field in FIELDS:
        values = getattr(state, field).values.ravel()
        index = np.linspace(0, values.size - 1, min(values.size, REFERENCE_SAMPLES))
        out[field] = values[index.round().astype(int)]
    return out


@lru_cache(maxsize=None)
def reference() -> dict[str, np.ndarray]:
    with np.load(REFERENCE) as data:
        return {key: data[key] for key in data.files}


def reference_key(workload: str, mode: str, field: str) -> str:
    return f"{workload}.{mode}.{field}"


def check_reference(workload: str, mode: str, result: RunResult) -> list[str]:
    """Failures of the comparison with the seed solver's final state."""
    ref = reference()
    failures = []
    for field, values in final_fields(result).items():
        expected = ref[reference_key(workload, mode, field)]
        if values.shape != expected.shape:
            failures.append(f"reference: {field} has {values.size} samples, "
                            f"not {expected.size}")
            continue
        signature = np.linalg.norm(ref[reference_key(workload, "global", field)]
                                   - ref[reference_key(workload, "hydrostatic", field)])
        distance = np.linalg.norm(values - expected)
        if not distance <= REFERENCE_TOLERANCE * signature:
            failures.append(f"reference: |{field} - seed {field}| = {distance:.4g} > "
                            f"{REFERENCE_TOLERANCE} x nonhydrostatic signature "
                            f"{signature:.4g}")
    return failures


def surface(spec: ScenarioSpec, result: RunResult) -> np.ndarray:
    state = result.final_state
    d = spec.bathymetry.depth(spec.grid.sample_nodes, state.time)
    return state.h.values - d


def adaptive_rmse_vs_global(spec: ScenarioSpec, adaptive: RunResult,
                            global_: RunResult) -> float:
    """RMSE over all nodes of the final adaptive minus global elevation."""
    diff = surface(spec, adaptive) - surface(spec, global_)
    return float(np.sqrt(np.mean(diff * diff)))


def _check_solitary(spec, initial, mode, result, global_result) -> list[str]:
    failures = []
    w = spec.grid.mass.sum(axis=0)
    m0 = float(np.sum(initial.h.values @ w))
    m1 = float(np.sum(result.final_state.h.values @ w))
    drift = abs(m1 - m0) / m0
    if drift > 1e-10:
        failures.append(f"relative mass drift {drift:.3e} > 1e-10")
    if mode != "hydrostatic":
        d = spec.bathymetry.h0
        eta_exact, _ = solitary_exact(spec.grid.nodes, result.final_state.time,
                                      d=d, x0=spec.grid.x_right / 4.0)
        eta = result.final_state.h.values - d
        pair = SeriesPair(eta_exact.ravel(), eta.ravel())
        err, corr = rmse(pair), pearson(pair)
        if not err <= 0.02:
            failures.append(f"RMSE vs solitary_exact {err:.4g} m > 0.02 m")
        if not corr >= 0.999:
            failures.append(f"Pearson vs solitary_exact {corr:.6f} < 0.999")
    return failures


def _check_hammack(spec, initial, mode, result, global_result) -> list[str]:
    if mode != "adaptive":
        return []
    reached_scale = np.abs(global_result.gauge_eta).max()
    failures = []
    for k, x in enumerate(spec.gauges):
        ref = global_result.gauge_eta[:, k]
        if np.abs(ref).max() <= UNREACHED_GAUGE_SHARE * reached_scale:
            continue   # not reached yet: correlation not applicable
        corr = pearson(SeriesPair(ref, result.gauge_eta[:, k]))
        if not corr >= 0.99:
            failures.append(f"gauge x={x:.3f}: Pearson vs global {corr:.5f} < 0.99")
    return failures


def _check_whittaker(spec, initial, mode, result, global_result) -> list[str]:
    if mode != "adaptive":
        return []
    eta_g = surface(spec, global_result)
    eta_a = surface(spec, result)
    l2 = float(np.sqrt(np.mean((eta_g - eta_a) ** 2)))
    bound = 0.10 * float(np.abs(eta_g).max())
    if not l2 <= bound:
        return [f"snapshot L2 vs global {l2:.4g} > 0.10 max|eta_global| = {bound:.4g}"]
    return []


WORKLOADS = {
    w.name: w for w in (
        Workload("whittaker_slide",
                 lambda: build_scenario("whittaker"),
                 Criterion("eta_over_d", 1e-3, enlarge=True),
                 _check_whittaker),
        # t_end 6 s of the published 40 s keeps every step with 6 ranges
        # (t = 3.0 .. 5.4 s) at a sixth of the cost
        Workload("hammack_plate",
                 lambda: build_scenario("hammack_up", t_end=6.0),
                 Criterion("eta_over_d", 1e-3),
                 _check_hammack),
        Workload("solitary_20k",
                 lambda: build_solitary(n_elements=20000, dt=0.001, t_end=0.03),
                 Criterion("eta_over_d", 1e-3),
                 _check_solitary),
    )
}


def check_run(workload: Workload, spec, initial, mode: str, result: RunResult,
              global_result: RunResult | None) -> list[str]:
    """Every failed correctness check of one run; empty when it passed."""
    failures = finite_fields(result)
    if failures:
        return failures
    if mode == "adaptive" and global_result is None:
        return ["no successful global run to compare against"]
    return (check_reference(workload.name, mode, result)
            + workload.check(spec, initial, mode, result, global_result))
