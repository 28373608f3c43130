"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines and timings inline).  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import json
import sys
import time
from datetime import datetime, timedelta, timezone

import numpy as np

from spherecast import make_gaussian_grid, metric_weights
from spherecast.cli import main
from spherecast.container import read_container, read_scores, write_container
from spherecast.filters import (DiffusionSpec, diffuse_values,
                                diffusion_stability_bound)
from spherecast.grid import FieldSeries
from spherecast.padding import PadSpec, pad, unpad
from spherecast.preprocess import (Climatology, clamp_nonnegative_values,
                                   compute_residual_coeff, compute_stats,
                                   denormalize, normalize)
from spherecast.rollout import RolloutPlan, run_rollout_to_dir
from spherecast.sht import (HarmonicCoeffs, SphericalHarmonicTransform,
                            zonal_power_spectrum)
from spherecast.solar import (SolarConfig, accumulated_irradiance,
                              instantaneous_irradiance, solar_constant_at,
                              sun_ephemeris)
from spherecast.verify import acc_field, rmse_field, weighted_mean
from conftest import as_container

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
UTC = timezone.utc


def _report(n, text):
    print(f"criterion {n:>2} PASS: {text}")


def _random_band_limited(transform, l_max, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    for l in range(l_max + 1):
        a[l, 0] = rng.normal()
        for m in range(1, l + 1):
            a[l, m] = rng.normal() + 1j * rng.normal()
    return transform.synthesize(HarmonicCoeffs(a, l_max))


def test_criterion_01_sht_round_trip_100_fields():
    grid = make_gaussian_grid(64, 128)
    t = SphericalHarmonicTransform(grid, 63)
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        f = _random_band_limited(t, 63, seed)
        back = t.synthesize(t.analyze(f))
        worst = max(worst, float(np.abs(back - f).max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"round-trip max-abs {worst}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _report(1, f"100 round trips, max-abs {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_parseval_100_fields():
    grid = make_gaussian_grid(64, 128)
    t = SphericalHarmonicTransform(grid, 63)
    worst = 0.0
    for seed in range(100):
        f = _random_band_limited(t, 63, seed)
        total = zonal_power_spectrum(f, 63, grid).power.sum()
        wmean_sq = float(np.sum(grid.quad_weights[:, None] * f * f)
                         / (2.0 * grid.n_lon))
        rel = abs(total - 4.0 * np.pi * wmean_sq) / total
        worst = max(worst, rel)
    assert worst <= 1e-10, f"Parseval relative error {worst}"
    _report(2, f"Parseval relative error <= {worst:.2e}")


def test_criterion_03_diffusion_eigen_decay():
    grid = make_gaussian_grid(24, 48)
    nu_dt = diffusion_stability_bound(grid)
    steps = 10
    t = SphericalHarmonicTransform(grid, grid.n_lat - 1)
    worst_decay = 0.0
    worst_mean = 0.0
    for l in (2, 5, 10):
        for m in (0, l // 2, l):
            a = np.zeros((grid.n_lat, grid.n_lat), dtype=complex)
            a[l, m] = 1.0
            f = t.synthesize(HarmonicCoeffs(a, grid.n_lat - 1)) + 1.0
            out = diffuse_values(f, grid, DiffusionSpec(nu_dt=nu_dt,
                                                        steps=steps))
            measured = abs(t.analyze(out).values[l, m])
            predicted = (1.0 - nu_dt * l * (l + 1)) ** steps
            worst_decay = max(worst_decay, abs(measured / predicted - 1.0))
            mean_before = weighted_mean(f, grid.quad_weights) / np.mean(
                grid.quad_weights)
            mean_after = weighted_mean(out, grid.quad_weights) / np.mean(
                grid.quad_weights)
            worst_mean = max(worst_mean, abs(mean_after - mean_before)
                             / abs(mean_before))
    assert worst_decay <= 0.05, f"eigen-decay deviation {worst_decay}"
    assert worst_mean <= 1e-10, f"global-mean drift {worst_mean}"
    _report(3, f"decay deviation <= {worst_decay:.2%}, "
               f"mean drift <= {worst_mean:.1e}")


def test_criterion_04_verification_identities():
    grid = make_gaussian_grid(32, 64)
    w = metric_weights(grid)
    rng = np.random.default_rng(0)
    o = rng.normal(size=grid.shape)
    assert rmse_field(o, o, w) == 0.0
    assert acc_field(o, o, w) == 1.0
    c = 0.375
    assert abs(rmse_field(o + c, o, w) - c) <= 1e-12
    assert abs(acc_field(-o, o, w) + 1.0) <= 1e-12
    _report(4, "F=O -> RMSE 0 / ACC 1; F=O+c -> RMSE |c|; F'=-O' -> ACC -1")


def test_criterion_05_skill_relation_variance_matched():
    grid = make_gaussian_grid(32, 64)
    w = metric_weights(grid)
    rng = np.random.default_rng(1)
    residuals = []
    for _ in range(100):
        o = rng.normal(size=grid.shape)
        o = o - weighted_mean(o, w)
        f = 0.6 * o + 0.6 * rng.normal(size=grid.shape)
        f = f - weighted_mean(f, w)
        f *= np.sqrt(weighted_mean(o * o, w) / weighted_mean(f * f, w))
        mse_f = weighted_mean((f - o) ** 2, w)
        mse_c = weighted_mean(o * o, w)
        r = (1.0 - mse_f / mse_c) - (2.0 * acc_field(f, o, w) - 1.0)
        residuals.append(r)
    mean_abs = abs(float(np.mean(residuals)))
    assert mean_abs <= 0.05, f"mean skill-relation residual {mean_abs}"
    _report(5, f"|mean residual| = {mean_abs:.2e} over 100 matched pairs")


def test_criterion_06_residual_normalization(tmp_path):
    grid = make_gaussian_grid(16, 32)
    rng = np.random.default_rng(2)
    series_map = {}
    for i, (var, scale) in enumerate((("T", 30.0), ("U", 12.0), ("Q", 1e-3))):
        vals = scale * rng.normal(size=(100,) + grid.shape).cumsum(axis=0) * 0.1
        times = [T0 + timedelta(hours=6 * k) for k in range(100)]
        series_map[(var, "single")] = FieldSeries(grid, var, "single", times,
                                                  vals)
    c = as_container(tmp_path, *series_map.values())
    stats = compute_residual_coeff(c, compute_stats(c))

    prod = np.prod([stats.entry(*k).xi for k in series_map])
    assert abs(prod - 1.0) <= 1e-10

    f = 50.0 * rng.normal(size=grid.shape)
    back = denormalize(normalize(f, stats, "T", "single"), stats, "T", "single")
    rel = np.abs(back - f) / np.maximum(np.abs(f), 1e-30)
    assert rel.max() <= 1e-12

    # direct one-pass oracle for the standardized-tendency definition
    sds = {}
    for key, series in series_map.items():
        flat = series.values.reshape(len(series), -1)
        tp = (flat - flat.mean()) / flat.std()
        sds[key] = np.sqrt((np.diff(tp, axis=0) ** 2).mean())
    gmean = np.exp(np.mean(np.log(list(sds.values()))))
    for key in series_map:
        assert abs(stats.entry(*key).xi - sds[key] / gmean) <= 1e-12
    _report(6, f"xi product = 1 within {abs(prod - 1.0):.1e}; round trip and "
               "oracle within tolerance")


def test_criterion_07_solar_forcing():
    cfg = SolarConfig()
    # subsolar irradiance = G_SC / d^2
    t = datetime(2020, 6, 1, 10, 0, tzinfo=UTC)
    decl, eot, dist = sun_ephemeris(t)
    lon = (720.0 - 600.0 - eot) / 4.0
    got = instantaneous_irradiance(t, np.degrees(decl), lon, cfg)
    expect = solar_constant_at(t, cfg) / dist ** 2
    assert abs(got - expect) / expect <= 1e-9

    # equatorial daily accumulation on the equinox
    grid = make_gaussian_grid(64, 128)
    day0 = datetime(2020, 3, 20, 0, 0, tzinfo=UTC)
    total = np.zeros(grid.shape)
    daily = []
    for k in range(4):
        f = accumulated_irradiance(day0 + timedelta(hours=6 * k), 6, grid, cfg)
        assert np.all(f >= 0.0)
        daily.append(f)
        total += f
    i_eq = int(np.argmin(np.abs(grid.latitudes)))
    _, _, d_noon = sun_ephemeris(day0 + timedelta(hours=12))
    analytic = 86400.0 * 1361.0 / (np.pi * d_noon ** 2) \
        * np.cos(np.radians(grid.latitudes[i_eq]))
    rel = abs(total[i_eq].mean() - analytic) / analytic
    assert rel <= 0.02, f"daily accumulation off by {rel:.3%}"

    # 6-hour window equals the sum of its six 1-hour windows, bit-exact
    hours = [accumulated_irradiance(day0 + timedelta(hours=k), 1, grid, cfg)
             for k in range(6)]
    summed = hours[0]
    for f in hours[1:]:
        summed = summed + f
    assert np.array_equal(daily[0], summed)
    _report(7, f"subsolar exact, daily accumulation within {rel:.2%}, "
               "windows additive bit-exact, non-negative")


def test_criterion_08_padding():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n_lat = int(rng.integers(2, 10))
        n_lon = int(rng.integers(2, 8)) * 2
        f = rng.normal(size=(n_lat, n_lon))
        spec = PadSpec(pad_ns=int(rng.integers(0, n_lat + 1)),
                       pad_ew=int(rng.integers(0, n_lon // 2 + 1)))
        assert np.array_equal(unpad(pad(f, spec), spec), f)

    f = rng.normal(size=(64, 128))
    out = pad(f, PadSpec(pad_ns=0, pad_ew=2))
    assert np.array_equal(out[:, 1] - out[:, 2], f[:, 127] - f[:, 0])

    ids = np.arange(64 * 128, dtype=float).reshape(64, 128)
    for pad_ns in (1, 2, 40):
        spec = PadSpec(pad_ns=pad_ns, pad_ew=0)
        out = pad(ids, spec)
        for r in range(pad_ns):
            for c in range(0, 128, 11):
                assert out[r, c] == ids[pad_ns - 1 - r, (c - 64) % 128]
                assert out[64 + pad_ns + r, c] == ids[63 - r, (c - 64) % 128]
    _report(8, "1000 bit-exact round trips; seam and pole provenance exact")


def test_criterion_09_clamp():
    grid = make_gaussian_grid(16, 32)
    rng = np.random.default_rng(4)
    f = rng.normal(size=grid.shape) * 1e-7
    once = clamp_nonnegative_values(f)
    assert once.min() >= 1e-8
    assert np.array_equal(clamp_nonnegative_values(once), once)
    _report(9, "clamp floor exact at 1e-8 and idempotent")


def test_criterion_10_rollout_protocol_and_cli(tmp_path):
    # identity external command == persistence, bit-exact over 40 steps
    grid_small = make_gaussian_grid(16, 32)
    script = tmp_path / "identity.py"
    script.write_text(
        "import argparse, shutil\n"
        "p = argparse.ArgumentParser()\n"
        "p.add_argument('--in', dest='inp')\n"
        "p.add_argument('--out')\n"
        "p.add_argument('--step-hours')\n"
        "a = p.parse_args()\n"
        "shutil.copy(a.inp, a.out)\n")
    rng = np.random.default_rng(5)
    n_time = 41
    vals = rng.normal(size=(n_time,) + grid_small.shape).astype(np.float32)
    times = [T0 + timedelta(hours=6 * k) for k in range(n_time)]
    states = as_container(tmp_path, FieldSeries(grid_small, "T", "single",
                                                times, vals.astype(np.float64)))
    [per] = run_rollout_to_dir(RolloutPlan(init_times=[T0], step_hours=6,
                                           max_lead_hours=240), states,
                               tmp_path / "persistence")
    [ext] = run_rollout_to_dir(RolloutPlan(init_times=[T0], step_hours=6,
                                           max_lead_hours=240,
                                           forecaster="external",
                                           external_command=[sys.executable,
                                                             str(script)]),
                               states, tmp_path / "external")
    assert len(read_container(per).times) == 41
    assert ext.read_bytes() == per.read_bytes()

    # end-to-end CLI pipeline: 64x128, 40 leads, 100 initializations
    start = time.monotonic()
    grid = make_gaussian_grid(64, 128)
    n_target = 141
    tvals = rng.normal(size=(n_target,) + grid.shape).astype(np.float32)
    ttimes = [T0 + timedelta(hours=6 * k) for k in range(n_target)]
    target = {("T", "single"): FieldSeries(grid, "T", "single", ttimes,
                                           tvals.astype(np.float64))}
    target_path = tmp_path / "target.gvf"
    write_container(target, target_path, dtype="f32")
    clim = Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                       std_days=10.0,
                       data={("T", "single"):
                             np.zeros((365, 4) + grid.shape)})
    clim_path = tmp_path / "clim.gvf"
    clim.to_container(clim_path, dtype="f32")
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T00:00:00,100,6",
                 "--step-hours", "6", "--max-lead-hours", "240"]) == 0
    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(fc_dir),
                 "--target", str(target_path),
                 "--climatology", str(clim_path),
                 "--output", str(scores), "--bootstrap", "1000",
                 "--seed", "0"]) == 0
    elapsed = time.monotonic() - start
    records = read_scores(scores)
    lead0 = {r.metric: r for r in records if r.lead_hours == 0}
    assert lead0["rmse"].value == 0.0
    assert abs(lead0["acc"].value - 1.0) <= 1e-12
    assert lead0["rmse"].n_inits == 100
    assert len({r.lead_hours for r in records}) == 41
    assert elapsed < 300.0, f"end-to-end pipeline took {elapsed:.0f}s"
    _report(10, f"identity protocol bit-exact over 40 steps; CLI pipeline "
                f"RMSE 0 / ACC 1 at lead 0 in {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path):
    grid = make_gaussian_grid(16, 32)
    rng = np.random.default_rng(6)
    n_time = 10
    vals = rng.normal(size=(n_time,) + grid.shape).astype(np.float32)
    times = [T0 + timedelta(hours=6 * k) for k in range(n_time)]
    target = {("T", "single"): FieldSeries(grid, "T", "single", times,
                                           vals.astype(np.float64))}
    target_path = tmp_path / "target.gvf"
    write_container(target, target_path, dtype="f32")
    clim = Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                       std_days=10.0,
                       data={("T", "single"): np.zeros((365, 4) + grid.shape)})
    clim_path = tmp_path / "clim.gvf"
    clim.to_container(clim_path)
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T00:00:00,4,6",
                 "--step-hours", "6", "--max-lead-hours", "24"]) == 0
    cfg = {"forecast_dir": str(fc_dir), "target": str(target_path),
           "climatology": str(clim_path), "bootstrap": 500, "seed": 123}
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(cfg))
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["verify", "--config", str(cfg_path), "--output", str(s1)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--output", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert (tmp_path / "s1.csv.manifest.json").exists()
    _report(11, "two identical CLI runs produced byte-identical score files")
