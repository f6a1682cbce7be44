"""Per-layer metrics computed from one traced run per mode.

Names follow `<module>.<layer>.<quantity>`.  Layers whose work differs by
mode carry the mode as a last component (`.global`, `.adaptive`,
`.hydrostatic`).  The predictor does the same work in every mode, so its
metrics pool the three traced runs; the flag criterion and the template
cache run only in adaptive mode.  `.us` is inclusive time per call,
`.self_us` excludes the time of traced child layers.  Times are scaled to
reference host speed by the host probes around each traced run.

Every layer reported for a mode must run in that mode.  A layer that
recorded no call there was bypassed, most likely because the solver now
reaches it through a name the tracer does not replace; its metrics are then
None, which the benchmark reports as not measured, never as 0.
"""

from __future__ import annotations

CORRECTED_MODES = ("global", "adaptive")


def _calls(tracer, name: str) -> int:
    stats = tracer.layers.get(name)
    return stats.calls if stats else 0


def _per_step(count: float, steps: int) -> float | None:
    """count / steps, or None when nothing was counted."""
    return count / steps if count else None


def _per_call_us(entries, name: str, inclusive: bool = True) -> float | None:
    """Mean µs per call over traced runs, each scaled to reference speed."""
    calls = sum(_calls(e["tracer"], name) for e in entries)
    if not calls:
        return None
    seconds = 0.0
    for e in entries:
        stats = e["tracer"].layers.get(name)
        if stats:
            seconds += (stats.total if inclusive else stats.self_time) * e["record"]["scale"]
    return 1e6 * seconds / calls


def metrics(traced_runs: dict) -> dict:
    """{name: (value, unit)} from {mode: {"record": ..., "tracer": ...}}."""
    ok = {mode: entry for mode, entry in traced_runs.items() if entry["record"]["ok"]}
    out: dict[str, tuple] = {}
    if len(ok) != len(traced_runs):
        return out

    pooled = list(ok.values())
    spec = ok["global"]["record"]["spec"]
    steps = spec.n_steps
    nodes = spec.grid.n_nodes

    out["hydrostatic.rhs_operator.us"] = (_per_call_us(pooled, "hydrostatic.rhs_operator"), "us")
    heun_us = _per_call_us(pooled, "hydrostatic.heun_step")
    out["hydrostatic.heun_step.us"] = (heun_us, "us")
    out["hydrostatic.heun_step.self_us"] = (
        _per_call_us(pooled, "hydrostatic.heun_step", inclusive=False), "us")
    out["hydrostatic.ns_per_node"] = (
        None if heun_us is None else 1e3 * heun_us / nodes, "ns")

    ad = ok["adaptive"]
    result = ad["record"]["result"]
    ranges = [len(r) for _, _, r in result.mask_history]
    out["adaptivity.evaluate_criterion.us"] = (
        _per_call_us([ad], "adaptivity.evaluate_criterion"), "us")
    out["adaptivity.adaptive_step.self_us"] = (
        _per_call_us([ad], "adaptivity.adaptive_step", inclusive=False), "us")
    out["adaptivity.mask_fraction_mean"] = (result.mask_fraction_mean, "ratio")
    out["adaptivity.ranges_per_step_mean"] = (sum(ranges) / len(ranges), "count")
    out["adaptivity.ranges_per_step_max"] = (max(ranges), "count")
    out["adaptivity.corrected_step_ratio"] = (
        sum(1 for n in ranges if n) / len(ranges), "ratio")
    hits, misses = ad["record"]["ldg_hits"], ad["record"]["ldg_misses"]
    out["corrector.ldg_template.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else None, "ratio")
    out["corrector.ldg_template.us"] = (
        _per_call_us([ad], "corrector.ldg_template"), "us")

    for mode in CORRECTED_MODES:
        tr = ok[mode]["tracer"]
        one = [ok[mode]]
        out[f"adaptivity.apply_correction.us.{mode}"] = (
            _per_call_us(one, "adaptivity.apply_correction"), "us")
        out[f"corrector.assemble_coefficients.us.{mode}"] = (
            _per_call_us(one, "corrector.assemble_coefficients"), "us")
        out[f"corrector.solve_on_ranges.self_us.{mode}"] = (
            _per_call_us(one, "corrector.solve_on_ranges", inclusive=False), "us")
        out[f"corrector.gbsv.us.{mode}"] = (_per_call_us(one, "corrector.gbsv"), "us")
        unknowns = tr.counters.get("gbsv.unknowns", 0.0)
        # unknowns are counted by the gbsv wrapper, so they imply its span
        out[f"corrector.gbsv.ns_per_unknown.{mode}"] = (
            1e9 * tr.layers["corrector.gbsv"].total * ok[mode]["record"]["scale"] / unknowns
            if unknowns else None, "ns")
        out[f"corrector.residual.us.{mode}"] = (_per_call_us(one, "corrector.residual"), "us")
        out[f"corrector.correct_momentum.us.{mode}"] = (
            _per_call_us(one, "corrector.correct_momentum"), "us")
        out[f"corrector.unknowns_per_step.{mode}"] = (_per_step(unknowns, steps), "count")
        # computed from the gbsv work-array shape, not a measured traffic
        out[f"corrector.band_bytes_per_step.{mode}"] = (
            _per_step(tr.counters.get("gbsv.band_bytes", 0.0), steps), "B")
        out[f"grid.derivative_values.calls_per_step.{mode}"] = (
            _per_step(_calls(tr, "grid.derivative_values"), steps), "count")
        out[f"grid.derivative_values.us.{mode}"] = (
            _per_call_us(one, "grid.derivative_values"), "us")

    for mode in ok:
        tr = ok[mode]["tracer"]
        sample_calls = _calls(tr, "bathymetry.sample")
        evaluated = _calls(tr, "bathymetry._sample")
        out[f"bathymetry.sample.calls_per_step.{mode}"] = (
            _per_step(sample_calls, steps), "count")
        out[f"bathymetry._sample.calls_per_step.{mode}"] = (
            _per_step(evaluated, steps), "count")
        out[f"bathymetry.memo_hit_ratio.{mode}"] = (
            1.0 - evaluated / sample_calls if sample_calls and evaluated else None, "ratio")
        out[f"bathymetry._sample.us.{mode}"] = (
            _per_call_us([ok[mode]], "bathymetry._sample"), "us")
    return out
