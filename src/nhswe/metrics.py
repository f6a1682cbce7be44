"""Error metrics and run reports: RMSE, Pearson correlation, wall-time ratios."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class DegenerateSeriesError(ValueError):
    """Correlation is undefined for a zero-variance series."""


@dataclass(frozen=True)
class SeriesPair:
    reference: np.ndarray
    candidate: np.ndarray

    def __post_init__(self):
        ref = np.asarray(self.reference, dtype=float)
        cand = np.asarray(self.candidate, dtype=float)
        if ref.shape != cand.shape or ref.ndim != 1:
            raise ValueError(f"series shapes differ: {ref.shape} vs {cand.shape}")
        if ref.size < 2:
            raise ValueError("need at least two samples")
        if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(cand))):
            raise ValueError("series contain non-finite entries")
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "candidate", cand)


def rmse(pair: SeriesPair) -> float:
    diff = pair.candidate - pair.reference
    return float(np.sqrt(np.mean(diff * diff)))


def _deviations(values: np.ndarray) -> np.ndarray:
    """Deviations from the mean, scaled to a largest magnitude of 1.

    A second centring removes what rounding left of a large mean, and the
    scaling keeps the squares of tiny deviations out of the subnormal range,
    where they would lose their precision; correlation ignores the scale.
    """
    dev = values - values.mean()
    dev -= dev.mean()
    peak = np.abs(dev).max()
    return dev / peak if peak > 0.0 else dev


def pearson(pair: SeriesPair) -> float:
    ref = _deviations(pair.reference)
    cand = _deviations(pair.candidate)
    denom = np.sqrt(np.sum(ref * ref) * np.sum(cand * cand))
    if denom == 0.0:
        raise DegenerateSeriesError("zero-variance series: correlation undefined")
    return float(np.clip(np.sum(ref * cand) / denom, -1.0, 1.0))


def aligned_pair(ref_t: np.ndarray, ref_v: np.ndarray,
                 cand_t: np.ndarray, cand_v: np.ndarray) -> SeriesPair:
    """Linearly interpolate the candidate onto the reference sampling."""
    ref_t = np.asarray(ref_t, dtype=float)
    cand_t = np.asarray(cand_t, dtype=float)
    lo, hi = cand_t.min(), cand_t.max()
    keep = (ref_t >= lo) & (ref_t <= hi)
    if keep.sum() < 2:
        raise ValueError("series samplings do not overlap")
    cand_on_ref = np.interp(ref_t[keep], cand_t, np.asarray(cand_v, dtype=float))
    return SeriesPair(np.asarray(ref_v, dtype=float)[keep], cand_on_ref)


@dataclass
class RunReport:
    """Configuration echo plus the per-run accuracy and timing summary."""

    config: dict
    loop_time: float
    mask_fraction_mean: float
    gauge_rmse: dict = field(default_factory=dict)
    gauge_r: dict = field(default_factory=dict)
    time_ratio: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "loop_time_s": self.loop_time,
            "mask_fraction_mean": self.mask_fraction_mean,
            "gauge_rmse": self.gauge_rmse,
            "gauge_r": self.gauge_r,
        }
        if self.time_ratio is not None:
            doc["time_ratio_local_over_global"] = self.time_ratio
        doc.update(self.extra)
        return json.dumps(doc, indent=2, sort_keys=True)


_MATCH_KEYS = ("scenario", "dt", "n_elements", "poly_order", "t_end")


def time_ratio(local_report: RunReport, global_report: RunReport) -> float:
    """Stepping-loop wall time of the adaptive run over the global run's.

    Only meaningful for matched configurations measured in one process.
    """
    for key in _MATCH_KEYS:
        a = local_report.config.get(key)
        b = global_report.config.get(key)
        if a != b:
            raise ValueError(f"mismatched run configs: {key}={a!r} vs {b!r}")
    if global_report.loop_time <= 0:
        raise ValueError("global run has no positive loop time")
    return local_report.loop_time / global_report.loop_time
