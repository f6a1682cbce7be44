"""Metric definitions against hand-computed values and invariance properties."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from nhswe.metrics import (DegenerateSeriesError, RunReport, SeriesPair,
                           aligned_pair, pearson, rmse, time_ratio)

finite = st.floats(-1e6, 1e6, allow_nan=False)


def test_rmse_hand_values():
    assert rmse(SeriesPair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == 0.0
    assert rmse(SeriesPair([0.0, 0.0], [0.01, 0.01])) == pytest.approx(0.01)
    assert rmse(SeriesPair([1, 2, 3], [1, 2, 5])) == pytest.approx(np.sqrt(4.0 / 3.0))


def test_rmse_symmetry():
    a = np.array([0.1, -0.4, 2.0, 5.0])
    b = np.array([0.0, 1.0, 2.5, 4.0])
    assert rmse(SeriesPair(a, b)) == pytest.approx(rmse(SeriesPair(b, a)))


def test_pearson_hand_values():
    a = np.array([1.0, 2.0, 3.0])
    assert pearson(SeriesPair(a, a)) == pytest.approx(1.0)
    assert pearson(SeriesPair(a, -a)) == pytest.approx(-1.0)
    assert pearson(SeriesPair(a, np.array([1.0, 2.0, 4.0]))) == pytest.approx(
        0.9820, abs=1e-4)


def test_pearson_degenerate_is_an_error():
    with pytest.raises(DegenerateSeriesError):
        pearson(SeriesPair([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def test_series_pair_validation():
    with pytest.raises(ValueError):
        SeriesPair([1.0], [1.0])
    with pytest.raises(ValueError):
        SeriesPair([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SeriesPair([1.0, np.nan], [1.0, 2.0])


@given(xs=st.lists(finite, min_size=3, max_size=30),
       a=st.floats(0.1, 50.0), b=finite)
def test_pearson_affine_invariance(xs, a, b):
    vals = np.array(xs)
    mapped = a * vals + b
    # the map rounds each value by up to an ulp of a x and of a x + b, which
    # can flatten deviations below ulp(b) and so reshape the series; keep the
    # series whose spread those roundings cannot move at the asserted 1e-9
    rounding = np.spacing(np.abs(a * vals).max()) + np.spacing(np.abs(mapped).max())
    assume(rounding * np.sqrt(vals.size) <= 1e-11 * a * np.linalg.norm(vals - vals.mean()))
    other = np.sin(np.arange(len(vals)))   # fixed companion with variance
    base = pearson(SeriesPair(other, vals))
    scaled = pearson(SeriesPair(other, mapped))
    assert scaled == pytest.approx(base, abs=1e-9)


@given(st.lists(finite, min_size=2, max_size=30))
def test_rmse_zero_iff_equal(xs):
    vals = np.array(xs)
    assert rmse(SeriesPair(vals, vals)) == 0.0
    assert rmse(SeriesPair(vals, vals + 1.0)) == pytest.approx(1.0)


def test_aligned_pair_interpolation():
    ref_t = np.array([0.0, 1.0, 2.0, 3.0])
    ref_v = np.array([0.0, 1.0, 2.0, 3.0])
    cand_t = np.array([0.0, 2.0])
    cand_v = np.array([0.0, 4.0])          # slope 2 on the candidate clock
    pair = aligned_pair(ref_t, ref_v, cand_t, cand_v)
    assert np.allclose(pair.reference, [0.0, 1.0, 2.0])
    assert np.allclose(pair.candidate, [0.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="overlap"):
        aligned_pair(ref_t, ref_v, np.array([10.0, 11.0]), np.array([0.0, 0.0]))


def test_time_ratio_and_config_matching():
    cfg = {"scenario": "solitary", "dt": 0.1, "n_elements": 200,
           "poly_order": 1, "t_end": 30.0}
    local = RunReport(config=cfg, loop_time=1.0, mask_fraction_mean=0.2)
    glob = RunReport(config=dict(cfg), loop_time=4.0, mask_fraction_mean=1.0)
    assert time_ratio(local, glob) == pytest.approx(0.25)
    assert time_ratio(glob, glob) == pytest.approx(1.0)
    other = RunReport(config={**cfg, "dt": 0.05}, loop_time=4.0,
                      mask_fraction_mean=1.0)
    with pytest.raises(ValueError, match="dt"):
        time_ratio(local, other)
    with pytest.raises(ValueError):
        time_ratio(local, RunReport(config=dict(cfg), loop_time=0.0,
                                    mask_fraction_mean=1.0))


def test_run_report_json_round_trip():
    import json
    report = RunReport(config={"scenario": "solitary"}, loop_time=1.5,
                       mask_fraction_mean=0.3, gauge_rmse={"eta@1": 0.01},
                       gauge_r={"eta@1": 0.999}, time_ratio=0.4,
                       extra={"note": 1})
    doc = json.loads(report.to_json())
    assert doc["config"]["scenario"] == "solitary"
    assert doc["time_ratio_local_over_global"] == 0.4
    assert doc["gauge_rmse"]["eta@1"] == 0.01
    assert doc["note"] == 1
