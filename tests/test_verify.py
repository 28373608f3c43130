import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from spherecast import metric_weights
from spherecast.container import ContainerError, write_container
from spherecast.grid import FieldSeries
from spherecast.preprocess import Climatology
from spherecast.verify import (ForecastSet, acc, acc_field,
                               average_correlations, bootstrap_mean,
                               correlation_difference, read_correlation_csv,
                               rmse, rmse_field, score_records,
                               skill_relation_check, spatial_correlation,
                               weighted_mean, write_correlation_csv)
from conftest import as_container

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
HOURS = [0, 6, 12, 18]


def constant_climatology(grid, keys, value=0.0):
    data = {key: np.full((365, 4) + grid.shape, value) for key in keys}
    return Climatology(grid=grid, hours=HOURS, window_days=61, std_days=10.0,
                       data=data)


def build_set(directory, grid, target_vals, forecast_fn, n_init=4, n_lead=3,
              step_hours=6, variable="T", clim_value=0.0, dtype="f64"):
    """target_vals: array [n_times, ...]; forecast_fn(t_i_idx, lead_idx)
    -> field.

    Each init's forecast is written to directory/init_<i>.gvf, tagged with
    its init time as rollout.run_rollout_to_dir tags it, and the target
    to a file beside directory (f64 files hold any values exactly); the
    climatology stays in memory.
    """
    n_times = n_init + n_lead
    times = [T0 + timedelta(hours=step_hours * k) for k in range(n_times)]
    key = (variable, "single")
    target = as_container(directory.parent, FieldSeries(
        grid, variable, "single", times, target_vals))
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_init):
        t_i = times[i]
        vtimes = [t_i + timedelta(hours=step_hours * k)
                  for k in range(n_lead + 1)]
        vals = np.stack([forecast_fn(i, k) for k in range(n_lead + 1)])
        paths.append(directory / f"init_{i}.gvf")
        write_container([FieldSeries(grid, variable, "single", vtimes, vals)],
                        paths[-1], dtype=dtype,
                        attrs={"init_time": f"{t_i:%Y-%m-%dT%H:%M:%SZ}"})
    clim = constant_climatology(grid, [key], clim_value)
    return ForecastSet(paths, target, climatology=clim)


def test_perfect_forecast_zero_rmse(tmp_path, grid16):
    rng = np.random.default_rng(0)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    for lead in (0, 6, 12, 18):
        s = rmse(fs, "T", lead_hours=lead, n_boot=50, seed=1)
        assert np.all(s.values == 0.0)
        assert s.summary.mean == 0.0
        assert s.summary.ci_low == 0.0 and s.summary.ci_high == 0.0


def test_uniform_bias_gives_exact_rmse(tmp_path, grid16):
    rng = np.random.default_rng(1)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    c = -1.75
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k] + c)
    s = rmse(fs, "T", lead_hours=6, n_boot=10, seed=2)
    np.testing.assert_allclose(s.values, abs(c), atol=1e-12)


def test_rmse_matches_double_loop_oracle(tmp_path, grid16):
    rng = np.random.default_rng(2)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fvals = rng.normal(size=(4, 4) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: fvals[i, k])
    w = metric_weights(grid16)
    lead = 12
    s = rmse(fs, "T", lead_hours=lead, n_boot=10, seed=3)
    for idx, t_i in enumerate(fs.init_times):
        i = fs.init_times.index(t_i)
        total = 0.0
        for a in range(grid16.n_lat):
            for b in range(grid16.n_lon):
                d = fvals[i, 2, a, b] - target_vals[i + 2, a, b]
                total += w[a] * d * d
        expect = np.sqrt(total / (grid16.n_lat * grid16.n_lon))
        assert abs(s.values[idx] - expect) < 1e-12


def test_rmse_scale_covariance(grid16):
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid16.shape)
    o = rng.normal(size=grid16.shape)
    w = metric_weights(grid16)
    base = rmse_field(f, o, w)
    for a, b in ((2.0, 1.0), (-3.0, 0.5), (0.25, -4.0)):
        got = rmse_field(a * f + b, a * o + b, w)
        assert abs(got - abs(a) * base) <= 1e-12 * max(1.0, abs(a) * base)


def test_acc_perfect_and_anti_correlated(tmp_path, grid16):
    rng = np.random.default_rng(4)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    s = acc(fs, "T", lead_hours=6, n_boot=10, seed=4)
    np.testing.assert_allclose(s.values, 1.0, atol=1e-12)

    fs_anti = build_set(tmp_path / "anti", grid16, target_vals,
                        lambda i, k: -target_vals[i + k])
    s = acc(fs_anti, "T", lead_hours=6, n_boot=10, seed=4)
    np.testing.assert_allclose(s.values, -1.0, atol=1e-12)


def test_acc_weighted_orthogonal_pair(grid16):
    # build F' orthogonal to O' under the weighted inner product
    rng = np.random.default_rng(5)
    w = metric_weights(grid16)
    o = rng.normal(size=grid16.shape)
    raw = rng.normal(size=grid16.shape)
    proj = weighted_mean(raw * o, w) / weighted_mean(o * o, w)
    f = raw - proj * o
    assert abs(weighted_mean(f * o, w)) < 1e-12
    assert abs(acc_field(f, o, w)) < 1e-12


def test_acc_scale_invariance(grid16):
    rng = np.random.default_rng(6)
    w = metric_weights(grid16)
    f = rng.normal(size=grid16.shape)
    o = 0.5 * f + rng.normal(size=grid16.shape)
    base = acc_field(f, o, w)
    for a in (2.0, 17.5, 1e-3):
        assert abs(acc_field(a * f, a * o, w) - base) < 1e-12


def test_acc_requires_climatology(tmp_path, grid16):
    rng = np.random.default_rng(7)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    fs.climatology = None
    with pytest.raises(ValueError, match="climatology"):
        acc(fs, "T", lead_hours=6)


def test_skill_relation_perfect_and_climatology_forecast(tmp_path, grid16):
    rng = np.random.default_rng(8)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    # perfect forecast: ratio 0, ACC 1, residual 0
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    r = skill_relation_check(fs, "T", lead_hours=6)
    np.testing.assert_allclose(r.skill_score, 1.0, atol=1e-12)
    np.testing.assert_allclose(r.acc, 1.0, atol=1e-12)
    np.testing.assert_allclose(r.residual, 0.0, atol=1e-12)

    # climatology forecast (C = 0 here): MSE ratio 1, ACC 0; the relation's
    # matched-variance premise fails (Var F' = 0), so the residual sits at
    # its breakdown value +1 rather than 0
    fs_clim = build_set(tmp_path / "clim", grid16, target_vals,
                        lambda i, k: np.zeros(grid16.shape))
    r = skill_relation_check(fs_clim, "T", lead_hours=6)
    np.testing.assert_allclose(r.skill_score, 0.0, atol=1e-12)
    np.testing.assert_allclose(r.acc, 0.0, atol=1e-12)
    np.testing.assert_allclose(r.residual, 1.0, atol=1e-12)
    np.testing.assert_allclose(r.printed_residual, 2.0, atol=1e-12)


def test_skill_relation_variance_matched_monte_carlo(grid16):
    rng = np.random.default_rng(9)
    w = metric_weights(grid16)
    residuals = []
    for _ in range(100):
        o = rng.normal(size=grid16.shape)
        o = o - weighted_mean(o, w)
        f = 0.7 * o + 0.5 * rng.normal(size=grid16.shape)
        f = f - weighted_mean(f, w)
        f *= np.sqrt(weighted_mean(o * o, w) / weighted_mean(f * f, w))
        mse_f = weighted_mean((f - o) ** 2, w)
        mse_c = weighted_mean(o * o, w)
        a = acc_field(f, o, w)
        residuals.append((1.0 - mse_f / mse_c) - (2.0 * a - 1.0))
    assert abs(np.mean(residuals)) <= 0.05


def test_bootstrap_deterministic_and_b1():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    a = bootstrap_mean(vals, n_boot=200, seed=7)
    b = bootstrap_mean(vals, n_boot=200, seed=7)
    assert a == b
    c = bootstrap_mean(vals, n_boot=200, seed=8)
    assert c != a

    one = bootstrap_mean(vals, n_boot=1, seed=3)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 4, size=(1, 4))
    expect = vals[idx].mean()
    assert one.mean == expect
    assert one.ci_low == expect and one.ci_high == expect
    assert one.sample_mean == 2.5


def test_bootstrap_ci_brackets_mean():
    rng = np.random.default_rng(10)
    vals = rng.normal(size=50)
    s = bootstrap_mean(vals, n_boot=1000, seed=11)
    assert s.ci_low <= s.mean <= s.ci_high
    assert s.ci_low <= s.sample_mean <= s.ci_high
    assert s.n == 50 and s.n_boot == 1000


def test_bootstrap_mean_stays_inside_ci_for_degenerate_samples():
    # one init, or identical values: all resampled means agree, and their
    # average used to land an ulp outside the percentile interval
    rng = np.random.default_rng(21)
    for seed in range(300):
        x = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
        for vals in (np.array([x]), np.full(7, x)):
            s = bootstrap_mean(vals, n_boot=1000, seed=seed)
            assert s.ci_low <= s.mean <= s.ci_high, (x, seed, vals.size)


def test_bootstrap_mean_is_average_of_resampled_means():
    vals = np.random.default_rng(22).normal(size=30)
    s = bootstrap_mean(vals, n_boot=500, seed=3)
    idx = np.random.default_rng(3).integers(0, 30, size=(500, 30))
    assert s.mean == float(vals[idx].mean(axis=1).mean())


def test_load_forecast_set_names_file_init_and_variable(tmp_path, grid16):
    from spherecast.verify import load_forecast_set
    rng = np.random.default_rng(23)
    target_vals = rng.normal(size=(5,) + grid16.shape)
    bad = target_vals.copy()
    bad[2, 2, 3] = np.nan

    def forecast(i, k):
        return (bad if i == 1 else target_vals)[i + k]

    target_path = tmp_path / "target.gvf"
    write_container({("T", "single"): FieldSeries(
        grid16, "T", "single", [T0 + timedelta(hours=6 * k) for k in range(5)],
        target_vals)}, target_path, dtype="f64")
    # the values are checked where they are scored, not by ForecastSet
    fs = build_set(tmp_path / "fc", grid16, target_vals, forecast, n_init=2)
    with pytest.raises(ValueError) as exc:
        rmse(fs, "T", lead_hours=6, n_boot=10)
    msg = str(exc.value)
    assert str(tmp_path / "fc" / "init_1.gvf") in msg
    assert (T0 + timedelta(hours=6)).isoformat() in msg
    assert "non-finite" in msg and "T (single)" in msg
    fs = load_forecast_set(tmp_path / "fc", target_path)
    with pytest.raises(ValueError) as again:
        rmse(fs, "T", lead_hours=6, n_boot=10)
    assert str(again.value) == msg


def test_forecast_set_names_the_file_of_a_bad_init_time(tmp_path, grid16):
    rng = np.random.default_rng(29)
    target_vals = rng.normal(size=(5,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k], n_init=2)
    bad = tmp_path / "bad.gvf"
    write_container([fs.forecast(T0).series("T")], bad,
                    attrs={"init_time": "2020-1-1"})
    with pytest.raises(ContainerError) as exc:
        ForecastSet([bad], fs.target)
    assert str(exc.value).startswith(f"{bad}: attrs init_time: '2020-1-1' ")


def test_forecast_set_rejects_uncovered_and_non_finite_target(tmp_path,
                                                              grid16):
    rng = np.random.default_rng(24)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    times = fs.target.times
    short = as_container(tmp_path, FieldSeries(grid16, "T", "single",
                                               times[:-1], target_vals[:-1]))
    paths = list(fs.forecasts.values())
    with pytest.raises(ValueError, match="does not cover"):
        ForecastSet(paths, short)
    bad = target_vals.copy()
    bad[5, 0, 0] = np.inf
    nan_target = as_container(tmp_path, FieldSeries(grid16, "T", "single",
                                                    times, bad))
    # the values are checked where they are scored, not by ForecastSet
    nan_set = ForecastSet(paths, nan_target)
    with pytest.raises(ValueError, match=re.escape(
            f"{nan_target.path}: non-finite target T")):
        rmse(nan_set, "T", lead_hours=18, n_boot=10)
    # a target row no forecast verifies against is not inspected
    extra = np.concatenate([target_vals, np.full((1,) + grid16.shape, np.nan)])
    extra_set = ForecastSet(paths, as_container(tmp_path, FieldSeries(
        grid16, "T", "single", times + [times[-1] + timedelta(hours=6)],
        extra)))
    for lead in (0, 6, 12, 18):
        rmse(extra_set, "T", lead_hours=lead, n_boot=10)


def test_no_matched_pairs_raises(tmp_path, grid16):
    rng = np.random.default_rng(12)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    with pytest.raises(ValueError, match="no matched"):
        rmse(fs, "T", lead_hours=999)
    with pytest.raises(ValueError, match="no matched"):
        rmse(fs, "missing", lead_hours=0)


def test_a_score_reads_and_checks_only_its_variable(tmp_path, grid16):
    # every variable of the set used to be read, and checked, whichever
    # the scores named
    rng = np.random.default_rng(13)
    times = [T0 + timedelta(hours=6 * k) for k in range(4)]
    t_vals, q_vals = rng.normal(size=(2, 4) + grid16.shape)
    target = as_container(tmp_path, FieldSeries(grid16, "T", "single", times,
                                                t_vals),
                          FieldSeries(grid16, "Q", "single", times, q_vals))
    q_vals[1, 2, 3] = np.nan
    forecast = tmp_path / "init.gvf"
    write_container([FieldSeries(grid16, "T", "single", times, t_vals),
                     FieldSeries(grid16, "Q", "single", times, q_vals)],
                    forecast, dtype="f64",
                    attrs={"init_time": f"{T0:%Y-%m-%dT%H:%M:%SZ}"})
    fs = ForecastSet([forecast], target)
    assert rmse(fs, "T", lead_hours=6, n_boot=5).values.tolist() == [0.0]
    with pytest.raises(ValueError, match=re.escape(
            f"{forecast}: non-finite forecast Q (single) at "
            f"{times[1].isoformat()} (init {T0.isoformat()})")):
        rmse(fs, "Q", lead_hours=6, n_boot=5)


def _labels(names, level="single"):
    return [(name, level) for name in names]


def test_spatial_correlation_basics(grid16):
    rng = np.random.default_rng(13)
    a = rng.normal(size=grid16.shape)
    c = rng.normal(size=grid16.shape)
    m = spatial_correlation(np.stack([a, -a, c]), _labels("TUQ", "L1"),
                            grid16)
    assert m.entry(("T", "L1"), ("T", "L1")) == 1.0
    assert abs(m.entry(("T", "L1"), ("U", "L1")) + 1.0) < 1e-12
    np.testing.assert_allclose(m.values, m.values.T, atol=1e-15)
    assert np.all(np.abs(m.values) <= 1.0 + 1e-12)


def test_spatial_correlation_independent_fields_small(grid64):
    rng = np.random.default_rng(14)
    values = np.stack([rng.normal(size=grid64.shape) for _ in "TU"])
    m = spatial_correlation(values, _labels("TU"), grid64)
    # 8192 independent points: |r| stays well under 0.05
    assert abs(m.entry(("T", "single"), ("U", "single"))) < 0.05


def test_spatial_correlation_zero_variance_named(grid16):
    values = np.stack([np.full(grid16.shape, 2.0),
                       np.arange(grid16.n_lat * grid16.n_lon,
                                 dtype=float).reshape(grid16.shape)])
    with pytest.raises(ValueError, match="T"):
        spatial_correlation(values, _labels("TU"), grid16)


def test_spatial_correlation_checks_its_shape(grid16):
    values = np.zeros((3,) + grid16.shape)
    with pytest.raises(ValueError, match="2 fields"):
        spatial_correlation(values, _labels("TU"), grid16)
    with pytest.raises(ValueError, match="at least 2"):
        spatial_correlation(values[:1], _labels("T"), grid16)


def test_spatial_correlation_matches_corrcoef(grid16):
    rng = np.random.default_rng(15)
    values = np.stack([rng.normal(size=grid16.shape) for _ in "TUV"])
    m = spatial_correlation(values, _labels("TUV"), grid16)
    ref = np.corrcoef(values.reshape(3, -1))
    np.testing.assert_allclose(m.values, ref, atol=1e-12)


def test_spatial_correlation_of_f32_equals_its_float64_copy(grid16):
    values = np.random.default_rng(21).normal(
        size=(3,) + grid16.shape).astype(np.float32)
    for weighted in (False, True):
        assert np.array_equal(
            spatial_correlation(values, _labels("TUV"), grid16,
                                weighted=weighted).values,
            spatial_correlation(values.astype(np.float64), _labels("TUV"),
                                grid16, weighted=weighted).values)


def test_weighted_correlation_flag(grid16):
    rng = np.random.default_rng(16)
    values = np.stack([rng.normal(size=grid16.shape) for _ in "TU"])
    unw = spatial_correlation(values, _labels("TU"), grid16)
    wgt = spatial_correlation(values, _labels("TU"), grid16, weighted=True)
    assert unw.values[0, 1] != wgt.values[0, 1]
    assert abs(wgt.values[0, 1]) <= 1.0


def test_correlation_difference(grid16):
    rng = np.random.default_rng(17)
    values = np.stack([rng.normal(size=grid16.shape) for _ in "TUV"])
    m = spatial_correlation(values, _labels("TUV"), grid16)
    assert np.all(correlation_difference(m, m) == 0.0)

    other_values = values.copy()
    other_values[2] = rng.normal(size=grid16.shape)
    other = spatial_correlation(other_values, _labels("TUV"), grid16)
    d = correlation_difference(m, other)
    np.testing.assert_allclose(d, m.values - other.values
                               - np.diag(np.diag(m.values - other.values)),
                               atol=1e-15)
    assert np.all(np.diag(d) == 0.0)
    # only entries touching the perturbed field differ
    perturbed = spatial_correlation(values, _labels("TUV"), grid16)
    pv = perturbed.values.copy()
    pv[0, 1] += 0.01
    pv[1, 0] += 0.01
    d2 = correlation_difference(CorrelationMatrix_like(m.labels, pv), m)
    nz = np.nonzero(d2)
    assert set(zip(*nz)) == {(0, 1), (1, 0)}


def CorrelationMatrix_like(labels, values):
    from spherecast.verify import CorrelationMatrix
    return CorrelationMatrix(labels=labels, values=values)


def test_average_correlations(grid16):
    rng = np.random.default_rng(18)
    mats = []
    for _ in range(3):
        values = np.stack([rng.normal(size=grid16.shape) for _ in "TU"])
        mats.append(spatial_correlation(values, _labels("TU"), grid16))
    mean = average_correlations(mats)
    expect = np.mean([m.values for m in mats], axis=0)
    assert abs(mean.values[0, 1] - expect[0, 1]) < 1e-15
    assert mean.values[0, 0] == 1.0


def test_correlation_csv_round_trip(tmp_path, grid16):
    rng = np.random.default_rng(19)
    values = np.stack([rng.normal(size=grid16.shape) for _ in "TUQ"])
    m = spatial_correlation(values, _labels("TUQ", "L2"), grid16)
    path = tmp_path / "corr.csv"
    write_correlation_csv(m, path)
    back = read_correlation_csv(path)
    assert back.labels == m.labels
    np.testing.assert_allclose(back.values, m.values, atol=1e-9)


def test_score_records_from_series(tmp_path, grid16):
    rng = np.random.default_rng(20)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k] + 1.0)
    s = rmse(fs, "T", lead_hours=6, n_boot=100, seed=5)
    rec = score_records([s])[0]
    assert rec.variable == "T"
    assert rec.metric == "rmse"
    assert rec.lead_hours == 6
    assert rec.n_inits == 4
    assert rec.ci_low <= rec.value <= rec.ci_high


def test_forecast_set_scores_equal_per_field_scores(tmp_path, grid16):
    from spherecast.verify import load_forecast_set, score_cells
    rng = np.random.default_rng(25)
    # f32-representable, so the f32 files hold the values exactly
    target_vals = rng.normal(size=(9,) + grid16.shape).astype(np.float32)
    noise = rng.normal(size=(5, 5) + grid16.shape).astype(np.float32)
    fvals = target_vals[np.arange(5)[:, None] + np.arange(5)] + noise * \
        np.arange(5.0, dtype=np.float32)[:, None, None]
    fs = build_set(tmp_path / "fc", grid16, target_vals.astype(np.float64),
                   lambda i, k: fvals[i, k], n_init=5, n_lead=4,
                   clim_value=0.25, dtype="f32")
    target_path, clim_path = tmp_path / "target.gvf", tmp_path / "clim.gvf"
    write_container([fs.target.series("T")], target_path, dtype="f32")
    fs.climatology.to_container(clim_path)
    disk = load_forecast_set(tmp_path / "fc", target_path,
                             climatology_path=clim_path)
    assert disk.forecasts == fs.forecasts
    assert (disk.keys, disk.lead_hours()) == (fs.keys, fs.lead_hours())

    cells = [(("T", "single"), lead) for lead in fs.lead_hours()]
    seed = lambda key, lead, metric: 1000 * lead + len(metric)
    scored = score_cells(disk, ["rmse", "acc"], cells, n_boot=50, seed=seed)
    assert len(scored) == 2 * len(cells)
    w = metric_weights(grid16)
    for s in scored:
        k = s.lead_hours // 6
        f = fvals[:, k].astype(np.float64)
        o = target_vals[k:k + 5].astype(np.float64)
        expect = np.array([rmse_field(*pair, w) if s.metric == "rmse"
                           else acc_field(pair[0] - 0.25, pair[1] - 0.25, w)
                           for pair in zip(f, o)])
        assert s.init_times == fs.init_times
        assert s.values.tobytes() == expect.tobytes()
        assert s.summary == bootstrap_mean(expect, 50,
                                           seed(None, s.lead_hours, s.metric))
        # the one-cell functions run the same pass
        fn = rmse if s.metric == "rmse" else acc
        one = fn(disk, "T", lead_hours=s.lead_hours, n_boot=50,
                 seed=seed(None, s.lead_hours, s.metric))
        assert one.values.tobytes() == s.values.tobytes()
        assert one.summary == s.summary
    for lead in fs.lead_hours():
        x = skill_relation_check(fs, "T", lead_hours=lead)
        y = skill_relation_check(disk, "T", lead_hours=lead)
        assert x.skill_score.tobytes() == y.skill_score.tobytes()
        acc_values = next(s.values for s in scored
                          if s.metric == "acc" and s.lead_hours == lead)
        assert x.acc.tobytes() == y.acc.tobytes() == acc_values.tobytes()


def test_verify_opens_each_forecast_file_twice(tmp_path, grid16,
                                               monkeypatch):
    """Once to check it and read its init time, once to score it."""
    from spherecast import container
    from spherecast.cli import main
    rng = np.random.default_rng(27)
    target_vals = rng.normal(size=(8,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k] + rng.normal(), n_init=5,
                   dtype="f32")
    target_path, clim_path = tmp_path / "target.gvf", tmp_path / "clim.gvf"
    write_container([fs.target.series("T")], target_path, dtype="f32")
    fs.climatology.to_container(clim_path)
    paths = list(fs.forecasts.values())
    opened = []
    real_init = container.Container.__init__

    def counting_init(self, path):
        opened.append(Path(path))
        real_init(self, path)

    monkeypatch.setattr(container.Container, "__init__", counting_init)
    assert main(["verify", "--forecast-dir", str(tmp_path / "fc"),
                 "--target", str(target_path), "--climatology", str(clim_path),
                 "--bootstrap", "10", "--output",
                 str(tmp_path / "scores.csv")]) == 0
    assert {p: opened.count(p) for p in paths} == {p: 2 for p in paths}
    assert len(opened) == 2 * len(paths) + 2  # and target and climatology


def test_score_cells_repeats_a_repeated_metric_or_cell(tmp_path, grid16):
    from spherecast.verify import score_cells
    rng = np.random.default_rng(26)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k] + 0.1 * k)
    cell = (("T", "single"), 6)
    once = score_cells(fs, ["rmse"], [cell], n_boot=20)[0]
    twice = score_cells(fs, ["rmse", "rmse"], [cell, cell], n_boot=20)
    assert len(twice) == 4
    for s in twice:
        assert s.values.tobytes() == once.values.tobytes()
        assert s.summary == once.summary
        assert s.summary.n == 4
    with pytest.raises(ValueError, match="unknown metric 'mae'"):
        score_cells(fs, ["rmse", "mae"], [cell])


def test_forecast_set_names_an_in_memory_climatology_on_another_grid(
        tmp_path, grid16, grid32):
    rng = np.random.default_rng(25)
    target_vals = rng.normal(size=(7,) + grid16.shape)
    fs = build_set(tmp_path / "fc", grid16, target_vals,
                   lambda i, k: target_vals[i + k])
    paths = list(fs.forecasts.values())
    with pytest.raises(ValueError, match=re.escape(
            "climatology: grid gaussian 32x64, expected gaussian 16x32")):
        ForecastSet(paths, fs.target, constant_climatology(
            grid32, [("T", "single")]))
    with pytest.raises(ValueError, match=re.escape(
            "climatology: no variable T (single)")):
        ForecastSet(paths, fs.target, constant_climatology(
            grid16, [("Q", "single")]))
