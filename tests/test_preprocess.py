import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from spherecast.container import read_container
from spherecast.grid import FieldSeries
from spherecast.preprocess import (Climatology, NormStats,
                                   clamp_nonnegative_values,
                                   compute_climatology, compute_norm_stats,
                                   compute_residual_coeff, compute_stats,
                                   day_of_year_365, denormalize, normalize)
from conftest import as_container, make_series

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def test_constant_field_zero_variance_rejected(tmp_path, grid16):
    series = make_series(grid16, n_time=3,
                         values=np.full((3,) + grid16.shape, 4.2))
    with pytest.raises(ValueError, match="T"):
        compute_stats(as_container(tmp_path, series))


def test_alternating_plus_minus_one(tmp_path, grid16):
    vals = np.ones((4,) + grid16.shape)
    vals[::2] *= -1
    series = make_series(grid16, values=vals)
    stats = compute_stats(as_container(tmp_path, series))
    e = stats.entry("T", "single")
    assert abs(e.mu) < 1e-15
    assert abs(e.sigma - 1.0) < 1e-15


def test_streaming_matches_two_pass(tmp_path, grid16):
    series_map = {("T", "L3"): make_series(grid16, "T", "L3", n_time=10, seed=1),
                  ("Q", "L3"): make_series(grid16, "Q", "L3", n_time=10, seed=2)}
    stats = compute_stats(as_container(tmp_path, *series_map.values()))
    for key, series in series_map.items():
        flat = series.values.reshape(-1)
        mu_ref = flat.mean()
        sigma_ref = flat.std()
        e = stats.entry(*key)
        assert abs(e.mu - mu_ref) <= 1e-10 * max(1.0, abs(mu_ref))
        assert abs(e.sigma - sigma_ref) <= 1e-10 * sigma_ref


def test_stats_period_selection(tmp_path, grid16):
    series = make_series(grid16, n_time=8, seed=3)
    sub = (series.times[2], series.times[5])
    stats = compute_stats(as_container(tmp_path, series), period=sub)
    flat = series.values[2:6].reshape(-1)
    e = stats.entry("T", "single")
    assert abs(e.mu - flat.mean()) < 1e-12
    assert abs(e.sigma - flat.std()) < 1e-12


def test_a_value_outside_the_stats_period_is_named_by_its_time(tmp_path,
                                                              grid16):
    # the moments read only the period, and the tendency's NaN used to be
    # "zero or non-finite tendency std", with no time
    values = np.random.default_rng(7).normal(size=(8,) + grid16.shape)
    values[6, 3, 5] = np.nan
    series = make_series(grid16, n_time=8, values=values)
    c = as_container(tmp_path, series)
    with pytest.raises(ValueError, match=re.escape(
            f"{c.path}: non-finite values in T (single) at "
            f"{series.times[6].isoformat()}")):
        compute_norm_stats(c, period=(series.times[0], series.times[3]))


def test_xi_single_variable_is_one(tmp_path, grid16):
    c = as_container(tmp_path, make_series(grid16, n_time=6, seed=4))
    stats = compute_residual_coeff(c, compute_stats(c))
    assert abs(stats.entry("T", "single").xi - 1.0) < 1e-12


def test_xi_two_variables_geometric_identity(tmp_path, grid16):
    m = {("T", "single"): make_series(grid16, "T", n_time=6, seed=5),
         ("Q", "single"): make_series(grid16, "Q", n_time=6, seed=6)}
    c = as_container(tmp_path, *m.values())
    stats = compute_residual_coeff(c, compute_stats(c))

    # direct tendency stds
    def tend_std(series, e):
        tp = (series.values - e.mu) / e.sigma
        return np.sqrt(np.mean(np.diff(tp, axis=0) ** 2))

    a = tend_std(m[("T", "single")], stats.entry("T", "single"))
    b = tend_std(m[("Q", "single")], stats.entry("Q", "single"))
    assert abs(stats.entry("T", "single").xi - np.sqrt(a / b)) < 1e-12
    assert abs(stats.entry("Q", "single").xi - np.sqrt(b / a)) < 1e-12
    prod = stats.entry("T", "single").xi * stats.entry("Q", "single").xi
    assert abs(prod - 1.0) < 1e-10


def test_xi_matches_direct_oracle_three_variables(tmp_path, grid16):
    m = {("T", "L1"): make_series(grid16, "T", "L1", n_time=100, seed=7),
         ("U", "L1"): make_series(grid16, "U", "L1", n_time=100, seed=8),
         ("Q", "L1"): make_series(grid16, "Q", "L1", n_time=100, seed=9)}
    c = as_container(tmp_path, *m.values())
    stats = compute_residual_coeff(c, compute_stats(c))

    # brute-force oracle straight from the definitions
    sds = {}
    for key, series in m.items():
        flat = series.values.reshape(len(series), -1)
        mu = flat.mean()
        sigma = flat.std()
        tp = (flat - mu) / sigma
        dtp = tp[1:] - tp[:-1]
        sds[key] = np.sqrt((dtp ** 2).mean())
    gmean = np.exp(np.mean(np.log(list(sds.values()))))
    for key in m:
        assert abs(stats.entry(*key).xi - sds[key] / gmean) < 1e-12
    prod = np.prod([stats.entry(*k).xi for k in m])
    assert abs(prod - 1.0) < 1e-10


def test_xi_literal_denominator_mode(tmp_path, grid16):
    # under the literal reading the denominator is gmean of std(T') = 1,
    # so xi reduces to the unscaled tendency std
    m = {("T", "single"): make_series(grid16, "T", n_time=20, seed=10),
         ("Q", "single"): make_series(grid16, "Q", n_time=20, seed=11)}
    c = as_container(tmp_path, *m.values())
    base = compute_stats(c)
    lit = compute_residual_coeff(c, base, denominator="standardized")
    for key, series in m.items():
        e = base.entry(*key)
        tp = (series.values - e.mu) / e.sigma
        sd = np.sqrt(np.mean(np.diff(tp, axis=0) ** 2))
        assert abs(lit.entry(*key).xi - sd) < 1e-10


def test_residual_requires_two_steps(tmp_path, grid16):
    c = as_container(tmp_path, make_series(grid16, n_time=1))
    stats = NormStats(entries={("T", "single"): __import__(
        "spherecast.preprocess", fromlist=["StatEntry"]).StatEntry(0.0, 1.0)})
    with pytest.raises(ValueError, match="2 time steps"):
        compute_residual_coeff(c, stats)


def test_stats_name_the_file_of_an_uneven_time_axis(tmp_path, grid16):
    # the tendency assumes one step; the other stages take any increasing axis
    times = [T0 + timedelta(hours=h) for h in (0, 6, 18)]
    c = as_container(tmp_path, FieldSeries(grid16, "T", "single", times,
                                           np.arange(3.0)[:, None, None]
                                           * np.ones(grid16.shape)))
    for fn in (compute_stats, compute_norm_stats,
               lambda c: compute_residual_coeff(c, NormStats())):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(c.path))}: time step "
                                 "must be constant$"):
            fn(c)
    assert compute_stats(as_container(
        tmp_path, make_series(grid16, n_time=3, step_hours=1))).step_hours == 1


def test_normalize_at_mean_gives_zeros(tmp_path, grid16):
    stats = compute_stats(as_container(tmp_path, make_series(grid16, seed=12)))
    e = stats.entry("T", "single")
    out = normalize(np.full(grid16.shape, e.mu), stats, "T", "single")
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalize_with_unit_xi_is_zscore(tmp_path, grid16):
    series = make_series(grid16, seed=13)
    stats = compute_stats(as_container(tmp_path, series))
    e = stats.entry("T", "single")
    assert e.xi == 1.0
    f = series.values[0]
    out = normalize(f, stats, "T", "single")
    np.testing.assert_allclose(out, (f - e.mu) / e.sigma, rtol=1e-15)


def test_normalize_denormalize_round_trip(tmp_path, grid16):
    c = as_container(tmp_path, make_series(grid16, n_time=6, seed=14),
                     make_series(grid16, "Q", n_time=6, seed=15))
    stats = compute_residual_coeff(c, compute_stats(c))
    rng = np.random.default_rng(16)
    f = 100.0 * rng.normal(size=grid16.shape)
    back = denormalize(normalize(f, stats, "T", "single"), stats, "T",
                       "single")
    np.testing.assert_allclose(back, f, rtol=1e-12)

    e = stats.entry("T", "single")
    np.testing.assert_allclose(
        denormalize(np.zeros(grid16.shape), stats, "T", "single"), e.mu,
        rtol=1e-15)
    np.testing.assert_allclose(
        denormalize(np.ones(grid16.shape), stats, "T", "single"),
        e.mu + e.xi * e.sigma, rtol=1e-15)


def test_series_normalize_matches_per_field_bitwise(tmp_path, grid16):
    c = as_container(tmp_path, make_series(grid16, n_time=5, seed=18),
                     make_series(grid16, "Q", n_time=5, seed=19))
    stats = compute_residual_coeff(c, compute_stats(c))
    values = c.values(slice(None), "T")
    for transform in (normalize, denormalize):
        whole = transform(values, stats, "T", "single")
        assert whole.shape == values.shape
        for i in range(len(values)):
            one = transform(values[i], stats, "T", "single")
            assert np.array_equal(whole[i], one)


def test_missing_stats_entry(tmp_path, grid16):
    stats = compute_stats(as_container(tmp_path, make_series(grid16, seed=17)))
    with pytest.raises(KeyError, match="Z500"):
        normalize(np.zeros(grid16.shape), stats, "Z500", "single")


def test_clamp_all_negative(grid16):
    out = clamp_nonnegative_values(np.full(grid16.shape, -1.0))
    assert np.all(out == 1e-8)


def test_clamp_identity_above_floor(grid16):
    rng = np.random.default_rng(18)
    vals = np.abs(rng.normal(size=grid16.shape)) + 1e-8
    assert np.array_equal(clamp_nonnegative_values(vals), vals)


def test_clamp_modified_count_matches_scan(grid16):
    rng = np.random.default_rng(19)
    vals = rng.normal(size=grid16.shape) * 1e-7
    out = clamp_nonnegative_values(vals)
    modified = np.sum(out != vals)
    assert modified == np.sum(vals < 1e-8)
    # untouched cells keep their exact bits
    keep = vals >= 1e-8
    assert np.array_equal(out[keep], vals[keep])


def test_clamp_idempotent_and_monotone(grid16):
    rng = np.random.default_rng(20)
    x = rng.normal(size=grid16.shape) * 1e-7
    y = x + np.abs(rng.normal(size=grid16.shape)) * 1e-8
    once = clamp_nonnegative_values(x)
    twice = clamp_nonnegative_values(once)
    assert np.array_equal(once, twice)
    assert np.all(clamp_nonnegative_values(x) <= clamp_nonnegative_values(y))


def test_clamp_variable_filter(grid16):
    """A clamp step restricted to Q leaves T's bits alone."""
    from spherecast.rollout import PipelineStep, apply_postprocessing
    state = {("T", "single"): np.full(grid16.shape, -1.0),
             ("Q", "single"): np.full(grid16.shape, -1.0)}
    step = PipelineStep("clamp_nonnegative", variables=["Q"])
    apply_postprocessing(state, [step], grid16)
    assert np.all(state[("T", "single")] == -1.0)
    assert np.all(state[("Q", "single")] == 1e-8)


def _hourly6_series(grid, n_days, fn, start=datetime(2019, 1, 1, tzinfo=timezone.utc)):
    times = [start + timedelta(hours=6 * k) for k in range(4 * n_days)]
    vals = np.stack([np.full(grid.shape, fn(t)) for t in times])
    return FieldSeries(grid, "T", "single", times, vals)


def test_day_of_year_365_leap_mapping():
    assert day_of_year_365(datetime(2020, 2, 28, tzinfo=timezone.utc)) == 59
    assert day_of_year_365(datetime(2020, 2, 29, tzinfo=timezone.utc)) == 59
    assert day_of_year_365(datetime(2020, 3, 1, tzinfo=timezone.utc)) == 60
    assert day_of_year_365(datetime(2019, 3, 1, tzinfo=timezone.utc)) == 60
    assert day_of_year_365(datetime(2020, 12, 31, tzinfo=timezone.utc)) == 365


def test_climatology_constant_data(tmp_path, grid16):
    series = _hourly6_series(grid16, 730, lambda t: 7.25)
    clim = compute_climatology(as_container(tmp_path, series))
    assert clim.hours == [0, 6, 12, 18]
    arr = clim.data[("T", "single")]
    np.testing.assert_allclose(arr, 7.25, rtol=1e-14)


def test_climatology_delta_limit_reproduces_sinusoid(tmp_path, grid16):
    # with a vanishing Gaussian width, only same-day samples contribute
    fn = lambda t: np.sin(2 * np.pi * day_of_year_365(t) / 365.0)
    series = _hourly6_series(grid16, 730, fn)
    clim = compute_climatology(as_container(tmp_path, series),
                               gaussian_std_days=1e-4)
    for d in (1, 91, 180, 270, 365):
        when = datetime(2019, 1, 1, tzinfo=timezone.utc) + timedelta(days=d - 1)
        got = clim.values("T", "single", when)[0, 0]
        assert abs(got - np.sin(2 * np.pi * d / 365.0)) < 1e-12


def _check_windowed_oracle(tmp_path, grid16, drop=None):
    """The climatology of 2 years of 6-hourly noise, but for time row drop,
    against a direct weighted sum over its windows."""
    rng = np.random.default_rng(21)
    start = datetime(2019, 1, 1, tzinfo=timezone.utc)
    times = [start + timedelta(hours=6 * k) for k in range(4 * 730)
             if k != drop]
    vals = rng.normal(size=(len(times),) + grid16.shape)
    series = FieldSeries(grid16, "T", "single", times, vals)
    s_days = 10.0
    clim = compute_climatology(as_container(tmp_path, series),
                               gaussian_std_days=s_days)

    doys = np.array([day_of_year_365(t) for t in times])
    hours = np.array([t.hour for t in times])
    for d, h in [(1, 0), (60, 6), (183, 12), (359, 18), (365, 0)]:
        dd = np.abs(doys - d)
        dd = np.minimum(dd, 365 - dd)
        sel = (hours == h) & (dd <= 30)
        w = np.exp(-dd[sel] ** 2 / (2 * s_days ** 2))
        w = w / w.sum()
        expect = np.tensordot(w, vals[sel], axes=(0, 0))
        got = clim.data[("T", "single")][d - 1, clim.hours.index(h)]
        np.testing.assert_allclose(got, expect, atol=1e-12)


def test_climatology_matches_windowed_oracle(tmp_path, grid16):
    _check_windowed_oracle(tmp_path, grid16)


def test_climatology_takes_an_uneven_time_axis(tmp_path, grid16):
    # without day 60's 06Z row the step is uneven, and bin (60, 6) loses a
    # sample; the climatology used to refuse such an axis
    _check_windowed_oracle(tmp_path, grid16, drop=59 * 4 + 1)


def test_climatology_missing_window_listed(tmp_path, grid16):
    # half a year of data cannot cover the far side of the calendar
    c = as_container(tmp_path, _hourly6_series(grid16, 60, lambda t: 1.0))
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(str(c.path))}: .*\(91, 0\)"):
        compute_climatology(c)


def test_climatology_container_round_trip(tmp_path, grid16):
    series = _hourly6_series(grid16, 730, lambda t: day_of_year_365(t) * 1.0)
    clim = compute_climatology(as_container(tmp_path, series))
    path = tmp_path / "clim.gvf"
    clim.to_container(path)
    back = Climatology.from_container(path)
    assert back.hours == clim.hours
    assert back.window_days == clim.window_days
    assert back.std_days == clim.std_days
    key = ("T", "single")
    np.testing.assert_allclose(
        back.read(slice(None), key).reshape(clim.data[key].shape),
        clim.data[key], rtol=1e-15)


def test_normstats_json_round_trip(tmp_path, grid16):
    c = as_container(tmp_path, make_series(grid16, "T", "L1", n_time=5, seed=22),
                     make_series(grid16, "Q", n_time=5, seed=23))
    stats = compute_residual_coeff(c, compute_stats(c))
    path = tmp_path / "stats.json"
    stats.to_json(path)
    back = NormStats.from_json(path)
    assert back.entries == stats.entries
    assert back.denominator == stats.denominator


@pytest.mark.parametrize("denominator", ["tendency", "standardized", None])
def test_one_pass_stats_from_f32_views_match_two_passes(tmp_path, grid16,
                                                        denominator):
    from spherecast.container import container_writer, write_container
    src = [make_series(grid16, name, "single", n_time=9, seed=seed)
           for seed, name in enumerate(("T", "Q", "U"), 40)]
    path = tmp_path / "in.gvf"
    write_container(src, path, dtype="f32")
    c = read_container(path)
    copies = as_container(tmp_path, *(c.series(*key) for key in c.keys))
    expect = compute_stats(copies)
    if denominator is not None:
        expect = compute_residual_coeff(copies, expect, denominator)
    # the f32 file's map gives its float64 copies' numbers
    got = compute_norm_stats(c, denominator)
    assert got.entries == expect.entries
    assert (got.step_hours, got.denominator) == (expect.step_hours,
                                                 expect.denominator)
    assert compute_stats(c).entries == compute_stats(copies).entries
    with container_writer(tmp_path / "none.gvf", grid16, [], [T0]):
        pass
    with pytest.raises(ValueError, match="none.gvf: no variables"):
        compute_norm_stats(read_container(tmp_path / "none.gvf"))


def test_climatology_from_f32_views_matches_float64_copies(tmp_path, grid16):
    from spherecast.container import write_container
    fn = lambda t: np.cos(2 * np.pi * day_of_year_365(t) / 365.0)
    src = [_hourly6_series(grid16, 400, fn, start=T0),
           make_series(grid16, "Q", n_time=4 * 400, seed=43)]
    path = tmp_path / "in.gvf"
    write_container(src, path, dtype="f32")
    c = read_container(path)
    expect = compute_climatology(
        as_container(tmp_path, *(c.series(*key) for key in c.keys)))
    got = compute_climatology(c)
    assert got.hours == expect.hours and list(got.data) == list(expect.data)
    for key in c.keys:
        assert got.data[key].tobytes() == expect.data[key].tobytes()


def test_climatology_from_container_reads_bins_from_the_file(tmp_path,
                                                            grid16):
    series = _hourly6_series(grid16, 730, lambda t: day_of_year_365(t) * 1.0)
    clim = compute_climatology(as_container(tmp_path, series))
    path = tmp_path / "clim.gvf"
    clim.to_container(path, dtype="f32")
    back = Climatology.from_container(path)
    # no copy of the file: each bin is read from it when it is looked up
    assert back.data == {} and back.container.path == path
    assert back.keys == [("T", "single")]
    when = datetime(2021, 3, 5, 12, tzinfo=timezone.utc)
    got = back.values("T", "single", when)
    assert got.dtype == np.float64
    assert got.tobytes() == clim.values("T", "single", when).astype(
        np.float32).astype(np.float64).tobytes()


# ---- blocked stats and climatology: the bits of whole-array numpy and BLAS


@pytest.mark.parametrize("shape", [(1,), (5,), (7,), (8,), (9,), (127,),
                                   (129,), (1000,), (4099,), (37, 7, 14),
                                   (1000, 33, 17)])
@pytest.mark.parametrize("leaf", [128, 200, 4096])
def test_blocked_pairwise_sum_is_numpys_bit_for_bit(shape, leaf):
    from spherecast.preprocess import _pairwise_sum
    x = np.random.default_rng(len(shape) + shape[0]).normal(
        size=shape) * 1e3 + 1e6 / 3
    flat, n, asked = x.reshape(-1), x.size, []

    def fill(start, stop, of=None):
        asked.append(stop - start)
        part = flat[start:stop].copy()
        return part if of is None else (part - of) ** 2

    total = _pairwise_sum(fill, 0, n, leaf)
    assert max(asked) <= leaf and sum(asked) == n
    assert total == np.add.reduce(flat)
    mean = total / n
    assert mean == np.mean(x)
    assert np.sqrt(_pairwise_sum(lambda a, b: fill(a, b, mean), 0, n, leaf)
                   / n) == np.std(x)


def _whole_norm_stats(c, denominator):
    """compute_norm_stats's numbers from whole float64 series: np.std of
    T' and np.mean of its squared one-step tendency, each over the whole
    series."""
    from spherecast.preprocess import _rescaled
    stats = compute_stats(c)
    spreads = {}
    for key in c.keys:
        e = stats.entry(*key)
        tprime = (c.read(slice(None), key) - e.mu) / e.sigma
        tend = float(np.sqrt(np.mean(np.diff(tprime, axis=0) ** 2)))
        spreads[key] = tend, (float(tprime.std())
                              if denominator == "standardized" else tend)
    return _rescaled(stats, spreads, denominator)


def _whole_climatology(c, window_days=61, std_days=10.0):
    """The climatology of every variable of c as one product, per hour of
    day, of the whole [365, samples] window weights and [samples, cells]
    samples."""
    doys = np.array([day_of_year_365(t) for t in c.times])
    at = np.array([t.hour for t in c.times])
    hours = sorted(set(at.tolist()))
    data = {}
    for key in c.keys:
        values = c.read(slice(None), key).reshape(len(c.times), -1)
        data[key] = np.empty((365, len(hours)) + c.grid.shape)
        for hi, h in enumerate(hours):
            idx = np.nonzero(at == h)[0]
            dd = np.abs(np.arange(1, 366)[:, None] - doys[idx][None, :])
            dd = np.minimum(dd, 365 - dd)
            w = np.exp(-dd.astype(float) ** 2 / (2.0 * std_days ** 2))
            w[dd > window_days // 2] = 0.0
            w /= w.sum(axis=1)[:, None]
            data[key][:, hi] = (w @ values[idx]).reshape((365,) + c.grid.shape)
    return Climatology(grid=c.grid, hours=hours, window_days=window_days,
                       std_days=std_days, data=data,
                       units={(n, l): u for n, l, u in c.variables})


def _noise_input(path, grid, n_time, step_hours, names=("T", "Q"), seed=5):
    from spherecast.container import write_container
    rng = np.random.default_rng(seed)
    times = [T0 + timedelta(hours=step_hours * k) for k in range(n_time)]
    write_container([FieldSeries(grid, name, "single", times,
                                 rng.normal(size=(n_time,) + grid.shape)
                                 * (1 + j) + 10 * j)
                     for j, name in enumerate(names)], path, dtype="f32")
    return read_container(path)


def test_blocked_stats_and_climatology_bytes_equal_whole_array_ones(
        tmp_path, monkeypatch):
    # a 7x14 grid, 98 cells, is no multiple of 8: the blocks of the stats
    # (512 values with the block shrunk to 4 kB) start mid-row, and the
    # climatology is one product per hour, as it is on any such grid
    from spherecast import container
    from spherecast.cli import main
    from spherecast.grid import make_equiangular_grid
    grid = make_equiangular_grid(7, 14)
    inp = tmp_path / "in.gvf"
    c = _noise_input(inp, grid, 1460, 6)
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4096)
    for denominator in ("tendency", "standardized"):
        got, expect = tmp_path / "stats.json", tmp_path / "expect.json"
        assert main(["stats", "--input", str(inp), "--output", str(got),
                     "--denominator", denominator]) == 0
        _whole_norm_stats(c, denominator).to_json(expect)
        assert got.read_bytes() == expect.read_bytes(), denominator
    got, expect = tmp_path / "clim.gvf", tmp_path / "expect.gvf"
    assert main(["climatology", "--input", str(inp), "--output", str(got)]) == 0
    _whole_climatology(c).to_container(expect)
    assert got.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize("n_lat, n_time, step_hours, chunks", [
    (32, 1460, 6, 4 * 2),      # 2048 cells: 2 chunks of cells per hour
    (16, 1460, 24, 3 * 2),     # 4 years daily: 3 x 2 chunks of days, cells
])
def test_chunked_climatology_equals_the_whole_product(
        tmp_path, n_lat, n_time, step_hours, chunks):
    # the chunks are made from the block (2 MiB) and the input: on a grid
    # of a multiple of 8 cells, each chunk of days starts at a multiple of
    # 16 and each chunk of cells at a multiple of 8, and OpenBLAS gives
    # every entry the bits of the whole product
    from spherecast.grid import make_gaussian_grid
    from spherecast.preprocess import climatology_bins
    c = _noise_input(tmp_path / "in.gvf", make_gaussian_grid(n_lat, 2 * n_lat),
                     n_time, step_hours, names=("T",))
    assert sum(1 for _ in climatology_bins(c)) == chunks
    got, expect = compute_climatology(c), _whole_climatology(c)
    assert got.hours == expect.hours
    assert got.data[("T", "single")].tobytes() == expect.data[
        ("T", "single")].tobytes()


def _traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stats_and_climatology_hold_a_few_blocks_for_any_time_axis(
        tmp_path, monkeypatch):
    # with the block shrunk to 256 kB, the [365, samples] window weights
    # of a daily year are 4 blocks and of four years 17; the stats and the
    # climatology each hold a few blocks for either, where both used to
    # hold the whole series and the climatology all its weights
    from spherecast import container
    from spherecast.grid import make_gaussian_grid
    from spherecast.preprocess import climatology_bins
    grid = make_gaussian_grid(8, 16)
    block = 1 << 18
    monkeypatch.setattr(container, "_BLOCK_BYTES", block)
    peaks = []
    for years in (1, 4):
        c = _noise_input(tmp_path / f"{years}.gvf", grid, 365 * years, 24)
        peaks.append((
            _traced_peak(lambda: compute_norm_stats(c, "standardized")),
            _traced_peak(lambda: [None for _ in climatology_bins(c)])))
    (stats, bins), (stats4, bins4) = peaks
    assert stats < 3 * block and bins < 8 * block, peaks
    assert stats4 < 1.1 * stats and bins4 < 1.1 * bins, peaks
