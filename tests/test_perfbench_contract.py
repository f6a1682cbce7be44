"""The benchmark's trace contract, checked in the solver's own suite.

`perfbench/` traces the solver by replacing module and class attributes
with timing wrappers, and clears the corrector's template caches before
every run.  Its self-tests run only under `python3 -m pytest perfbench`, so
these tests guard, on every suite run, that each attribute it wraps exists,
that a step still takes the arguments it passes, that the caches it clears
are still `lru_cache` functions, and that a traced run reaches every layer
it reports.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nhswe import corrector
from nhswe.adaptivity import Criterion, adaptive_step
from nhswe.driver import simulate
from nhswe.scenarios import build_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracer():
    return _import_perfbench("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _import_perfbench("workloads")


@pytest.mark.parametrize("scenario", ["solitary", "hammack_up", "whittaker"])
def test_every_traced_attribute_exists(tracer, scenario):
    spec, _ = build_scenario(scenario)
    for owner, attr, name, _ in tracer.layer_targets(spec.bathymetry):
        # classes are read through their own dict, as the tracer reads them
        present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert present, f"{name}: {getattr(owner, '__name__', owner)}.{attr} is gone"


@pytest.mark.parametrize("mode", ["hydrostatic", "global", "adaptive"])
def test_a_step_takes_the_arguments_the_harness_passes(workloads, mode):
    # the harness's set-up probe and warm-up take one step of every workload
    # so: the workload's criterion in every mode, and no bottom sample
    for workload in workloads.WORKLOADS.values():
        spec, init = workload.build()
        result = adaptive_step(init, spec.dt, spec.bathymetry, spec.bcs, mode=mode,
                               crit=workload.criterion)
        assert result.state.time == pytest.approx(spec.dt)


def test_cleared_caches_are_lru_caches():
    for cache in (corrector._ldg_template, corrector._block_template):
        assert callable(cache.cache_clear) and callable(cache.cache_info)


def test_a_traced_run_reaches_every_layer(tracer):
    # the plate moves from the first step, so an adaptive run of a few steps
    # flags elements and runs the whole correction
    spec, init = build_scenario("hammack_up", t_end=0.05)
    targets = tracer.layer_targets(spec.bathymetry)
    before = tracer.originals(targets)
    names = {name for _, _, name, _ in targets}
    for mode, crit in (("global", None), ("adaptive", Criterion("eta_over_d", 1e-3))):
        with tracer.traced(tracer.Tracer(), targets) as trace:
            simulate(spec, init, mode, crit)
        seen = {name for name, stats in trace.layers.items() if stats.calls}
        # a global step flags every element without evaluating the criterion
        expected = names - {"adaptivity.evaluate_criterion"} if mode == "global" else names
        assert expected <= seen, f"{mode}: no call recorded for {sorted(expected - seen)}"
        assert tracer.unrestored(targets, before) == []


@pytest.mark.parametrize("scenario", ["solitary", "whittaker"])
def test_a_traced_run_samples_the_bottom_once_per_step(tracer, scenario):
    # the flat bottom's evaluation is reached too, on its empty window, so
    # the benchmark measures it on every workload
    spec, init = build_scenario(scenario)
    spec = replace(spec, t_end=5 * spec.dt)
    targets = tracer.layer_targets(spec.bathymetry)
    with tracer.traced(tracer.Tracer(), targets) as trace:
        simulate(spec, init, "hydrostatic")
    for name in ("bathymetry.sample", "bathymetry._sample"):
        assert trace.layers[name].calls == spec.n_steps + 1, name
