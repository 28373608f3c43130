import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from spherecast import make_equiangular_grid, make_gaussian_grid
from spherecast import solar
from spherecast.solar import (SolarConfig, accumulated_irradiance,
                              instantaneous_irradiance, irradiance_from_geometry,
                              read_gsc_csv, solar_constant_at, solar_geometry,
                              sun_ephemeris)
from spherecast.grid import GridSpec
from conftest import stacked_window

UTC = timezone.utc


def aa_zenith(t, lat_deg, lon_deg):
    """Independent oracle: Astronomical Almanac low-precision sun position.

    Good to ~0.01 deg between 1950 and 2050; distinct series from the
    NOAA-style formulation under test.
    """
    t = t.astimezone(UTC)
    # Julian date
    y, m = t.year, t.month
    d = t.day + (t.hour + t.minute / 60 + t.second / 3600) / 24.0
    if m <= 2:
        y -= 1
        m += 12
    a = y // 100
    jd = int(365.25 * (y + 4716)) + int(30.6001 * (m + 1)) + d + 2 - a + a // 4 - 1524.5
    n = jd - 2451545.0
    L = (280.460 + 0.9856474 * n) % 360.0
    g = np.radians((357.528 + 0.9856003 * n) % 360.0)
    lam = np.radians((L + 1.915 * np.sin(g) + 0.020 * np.sin(2 * g)) % 360.0)
    eps = np.radians(23.439 - 0.0000004 * n)
    alpha = np.degrees(np.arctan2(np.cos(eps) * np.sin(lam), np.cos(lam))) % 360.0
    decl = np.arcsin(np.sin(eps) * np.sin(lam))
    # Greenwich mean sidereal time (deg)
    gmst = (280.46061837 + 360.98564736629 * n) % 360.0
    ha = np.radians((gmst + lon_deg - alpha + 180.0) % 360.0 - 180.0)
    phi = np.radians(lat_deg)
    cosz = np.sin(phi) * np.sin(decl) + np.cos(phi) * np.cos(decl) * np.cos(ha)
    return np.degrees(np.arccos(np.clip(cosz, -1, 1)))


def test_constant_table_interpolation_midpoint():
    cfg = SolarConfig(gsc_table={1990: 1365.0, 1991: 1367.0})
    # exact fractional-year midpoint of 1990
    t = datetime(1979, 1, 1, tzinfo=UTC) + timedelta(days=(11.5) * 365.2425)
    got = solar_constant_at(t, cfg)
    assert abs(got - 1366.0) < 1e-9
    # quarter point
    t = datetime(1979, 1, 1, tzinfo=UTC) + timedelta(days=(11.25) * 365.2425)
    assert abs(solar_constant_at(t, cfg) - 1365.5) < 1e-9


def test_cycle_mapping_1996_and_beyond():
    table = {y: 1360.0 + (y - 1979) for y in range(1979, 1996)}
    cfg = SolarConfig(gsc_table=table)
    assert cfg.annual_value(1996) == table[1983]
    assert cfg.annual_value(2009) == table[1983]

    # modular-arithmetic oracle over the repeating cycle
    for year in range(1996, 2060):
        mapped = 1983 + (year - 1983) % 13
        assert cfg.annual_value(year) == table[mapped], year


def test_time_before_table_start_rejected():
    cfg = SolarConfig(gsc_table={1990: 1365.0, 1991: 1367.0})
    with pytest.raises(ValueError, match="precede"):
        solar_constant_at(datetime(1985, 6, 1, tzinfo=UTC), cfg)


def test_gsc_table_validation():
    with pytest.raises(ValueError, match="contiguous"):
        SolarConfig(gsc_table={1990: 1365.0, 1992: 1367.0})
    with pytest.raises(ValueError, match="plausible"):
        SolarConfig(gsc_table={1990: 900.0})


def test_default_config_constant():
    assert solar_constant_at(datetime(2015, 7, 1, tzinfo=UTC)) == 1361.0


def test_read_gsc_csv(tmp_path):
    path = tmp_path / "gsc.csv"
    path.write_text("year,value\n1990,1365.0\n1991,1367.5\n")
    assert read_gsc_csv(path) == {1990: 1365.0, 1991: 1367.5}


def test_subsolar_point_zenith_zero():
    t = datetime(1997, 8, 7, 9, 30, tzinfo=UTC)
    decl, eot, dist = sun_ephemeris(t)
    lat = np.degrees(decl)
    minutes = 9 * 60 + 30
    lon = (720.0 - minutes - eot) / 4.0
    geo = solar_geometry(t, lat, lon)
    assert abs(geo.hour_angle) < 1e-9
    assert geo.zenith < 1e-5


def test_antipode_zenith_pi():
    t = datetime(2003, 2, 11, 14, 0, tzinfo=UTC)
    decl, eot, dist = sun_ephemeris(t)
    minutes = 14 * 60
    lon = (720.0 - minutes - eot) / 4.0
    geo = solar_geometry(t, -np.degrees(decl), (lon + 180.0) % 360.0)
    assert geo.zenith > np.pi - 1e-5


def test_equinox_noon_at_equator():
    # published March 2020 equinox instant: declination crosses zero
    t = datetime(2020, 3, 20, 3, 49, 36, tzinfo=UTC)
    decl, eot, dist = sun_ephemeris(t)
    assert abs(np.degrees(decl)) < 0.01
    minutes = 3 * 60 + 49 + 36 / 60
    subsolar_lon = ((720.0 - minutes - eot) / 4.0) % 360.0
    geo = solar_geometry(t, 0.0, subsolar_lon)
    assert np.degrees(geo.zenith) < 0.5


def test_solstice_declination_and_distance_anchors():
    # June solstice 2000-06-21 01:48 UTC; obliquity 23.437 deg
    decl, _, _ = sun_ephemeris(datetime(2000, 6, 21, 1, 48, tzinfo=UTC))
    assert abs(np.degrees(decl) - 23.437) < 0.01
    # perihelion / aphelion distances
    _, _, d_jan = sun_ephemeris(datetime(2020, 1, 5, 8, 0, tzinfo=UTC))
    _, _, d_jul = sun_ephemeris(datetime(2020, 7, 4, 12, 0, tzinfo=UTC))
    assert abs(d_jan - 0.9833) < 1e-3
    assert abs(d_jul - 1.0167) < 1e-3


def test_zenith_against_almanac_oracle():
    rng = np.random.default_rng(42)
    t0 = datetime(1979, 1, 1, tzinfo=UTC)
    span = (datetime(2030, 12, 31, tzinfo=UTC) - t0).total_seconds()
    worst = 0.0
    for _ in range(200):
        t = t0 + timedelta(seconds=float(rng.uniform(0, span)))
        lat = float(rng.uniform(-89, 89))
        lon = float(rng.uniform(0, 360))
        ours = np.degrees(solar_geometry(t, lat, lon).zenith)
        ref = aa_zenith(t, lat, lon)
        worst = max(worst, abs(ours - ref))
    assert worst < 0.3, f"worst zenith deviation {worst} deg"


def test_irradiance_night_side_zero():
    assert irradiance_from_geometry(1361.0, 1.0, np.radians(100.0)) == 0.0
    # local midnight somewhere mid-latitude
    val = instantaneous_irradiance(datetime(2020, 6, 1, 0, 0, tzinfo=UTC),
                                   45.0, 0.0)
    assert val == 0.0


def test_irradiance_overhead_and_sixty_degrees():
    assert irradiance_from_geometry(1361.0, 1.0, 0.0) == 1361.0
    got = irradiance_from_geometry(1361.0, 1.0, np.pi / 3.0)
    assert abs(got - 1361.0 / 2.0) < 1e-9
    assert irradiance_from_geometry(1361.0, 0.99, 0.0) == 1361.0 / 0.99 ** 2


def test_polar_night_window_is_zero():
    grid = make_gaussian_grid(32, 64)
    f = accumulated_irradiance(datetime(2020, 12, 21, 0, 0, tzinfo=UTC), 6, grid)
    polar = np.abs(grid.latitudes) > 80.0
    north = grid.latitudes > 80.0
    assert f.dtype == np.float64 and f.shape == grid.shape
    assert np.all(f[north] == 0.0)


def test_equatorial_equinox_daily_total_matches_closed_form():
    grid = make_gaussian_grid(16, 32)
    cfg = SolarConfig()
    start = datetime(2020, 3, 20, 0, 0, tzinfo=UTC)
    total = np.zeros(grid.shape)
    for k in range(4):
        total += accumulated_irradiance(start + timedelta(hours=6 * k), 6,
                                        grid, cfg)
    i_eq = np.argmin(np.abs(grid.latitudes))
    _, _, dist = sun_ephemeris(start + timedelta(hours=12))
    expect = 86400.0 * 1361.0 / (np.pi * dist * dist) \
        * np.cos(np.radians(grid.latitudes[i_eq]))
    got = total[i_eq].mean()
    assert abs(got - expect) / expect < 0.02


def test_six_hour_window_equals_sum_of_hourly_bit_exact():
    grid = make_gaussian_grid(8, 16)
    cfg = SolarConfig()
    start = datetime(2020, 5, 4, 6, 0, tzinfo=UTC)
    six = accumulated_irradiance(start, 6, grid, cfg)
    hourly = [accumulated_irradiance(start + timedelta(hours=k), 1, grid, cfg)
              for k in range(6)]
    total = hourly[0]
    for f in hourly[1:]:
        total = total + f
    assert np.array_equal(six, total)


def test_irradiance_nonnegative_full_day():
    grid = make_gaussian_grid(16, 32)
    start = datetime(2020, 9, 10, 0, 0, tzinfo=UTC)
    for k in range(4):
        f = accumulated_irradiance(start + timedelta(hours=6 * k), 6, grid)
        assert np.all(f >= 0.0)


def test_hemispheric_symmetry_at_equinox():
    # at the equinox instant the N/S mirror-cell asymmetry is bounded by
    # the residual declination: |dI| <= 2 G sin|decl| / d^2
    grid = make_gaussian_grid(16, 32)
    t = datetime(2020, 3, 20, 3, 49, 36, tzinfo=UTC)
    decl, _, dist = sun_ephemeris(t)
    vals = np.zeros(grid.shape)
    for i, lat in enumerate(grid.latitudes):
        for j, lon in enumerate(grid.longitudes):
            vals[i, j] = instantaneous_irradiance(t, lat, lon)
    asym = np.abs(vals - vals[::-1])
    bound = 2.0 * 1361.0 * abs(np.sin(decl)) / dist ** 2 + 1e-9
    assert asym.max() <= bound


def test_global_daily_mean_quarter_solar_constant():
    grid = make_gaussian_grid(16, 32)
    start = datetime(2020, 3, 18, 0, 0, tzinfo=UTC)
    total = np.zeros(grid.shape)
    for k in range(4):
        total += accumulated_irradiance(start + timedelta(hours=6 * k), 6,
                                        grid)
    mean_power = total / 86400.0
    w = grid.quad_weights
    global_mean = float(np.sum(w[:, None] * mean_power) / (2.0 * grid.n_lon))
    _, _, dist = sun_ephemeris(start + timedelta(hours=12))
    expect = 1361.0 / (4.0 * dist * dist)
    assert abs(global_mean - expect) / expect < 0.01


def scalar_ephemeris(t):
    """The NOAA series on Python floats, one time per call: the form the
    array ephemeris must reproduce bit for bit."""
    y, m = t.year, t.month
    d = (t.day + t.hour / 24.0 + t.minute / 1440.0 + t.second / 86400.0
         + t.microsecond / 86400e6)
    if m <= 2:
        y -= 1
        m += 12
    a = y // 100
    b = 2 - a + a // 4
    jd = int(365.25 * (y + 4716)) + int(30.6001 * (m + 1)) + d + b - 1524.5
    jc = (jd - 2451545.0) / 36525.0
    gml = (280.46646 + jc * (36000.76983 + jc * 0.0003032)) % 360.0
    gma = 357.52911 + jc * (35999.05029 - 0.0001537 * jc)
    ecc = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)
    gma_r = np.radians(gma)
    ctr = (np.sin(gma_r) * (1.914602 - jc * (0.004817 + 0.000014 * jc))
           + np.sin(2 * gma_r) * (0.019993 - 0.000101 * jc)
           + np.sin(3 * gma_r) * 0.000289)
    stl = gml + ctr
    sta = gma + ctr
    dist = (1.000001018 * (1 - ecc * ecc)) / (1 + ecc * np.cos(np.radians(sta)))
    omega = 125.04 - 1934.136 * jc
    sal = stl - 0.00569 - 0.00478 * np.sin(np.radians(omega))
    seconds = 21.448 - jc * (46.815 + jc * (0.00059 - jc * 0.001813))
    moe = 23.0 + (26.0 + seconds / 60.0) / 60.0
    obliq = moe + 0.00256 * np.cos(np.radians(omega))
    obliq_r = np.radians(obliq)
    decl = np.arcsin(np.sin(obliq_r) * np.sin(np.radians(sal)))
    vary = np.tan(obliq_r / 2.0) ** 2
    gml_r = np.radians(gml)
    eot = 4.0 * np.degrees(
        vary * np.sin(2 * gml_r)
        - 2 * ecc * np.sin(gma_r)
        + 4 * ecc * vary * np.sin(gma_r) * np.cos(2 * gml_r)
        - 0.5 * vary * vary * np.sin(4 * gml_r)
        - 1.25 * ecc * ecc * np.sin(2 * gma_r))
    return float(decl), float(eot), float(dist)


GSC_TABLE = {y: 1360.0 + 0.25 * (y - 1979) for y in range(1979, 1996)}


# (shape of a Gaussian grid, or the grid, start, hours, table)
WINDOW_CASES = [
    ((16, 32), datetime(2020, 5, 4, 6, tzinfo=UTC), 6, None),
    ((8, 16), datetime(2003, 2, 11, 14, tzinfo=UTC), 1, None),
    # fractional year 2022.0 falls at 2021-12-31 10:15:36 UTC, inside the
    # window, where the cycle wraps from table year 1995 to 1983
    ((16, 32), datetime(2021, 12, 31, 6, tzinfo=UTC), 6, GSC_TABLE),
    ((64, 1280), datetime(2021, 6, 1, tzinfo=UTC), 6, None),
    ((64, 1280), datetime(2021, 6, 1, 18, tzinfo=UTC), 1, GSC_TABLE),
    # shifted longitudes put arcs across column 0 at other hours; the
    # solstices give whole rows of polar day and skipped rows of polar
    # night
    (make_gaussian_grid(32, 64, lon_origin=97.5),
     datetime(2021, 12, 21, 9, tzinfo=UTC), 6, None),
    (make_equiangular_grid(15, 36, lon_origin=-101.0),
     datetime(2021, 6, 21, 13, 17, tzinfo=UTC), 1, GSC_TABLE),
]


@pytest.mark.parametrize("shape,start,hours,table", WINDOW_CASES)
def test_blocked_window_matches_minute_stack_byte_for_byte(shape, start, hours,
                                                            table):
    grid = shape if isinstance(shape, GridSpec) else make_gaussian_grid(*shape)
    cfg = SolarConfig(gsc_table=table)
    got = accumulated_irradiance(start, hours, grid, cfg)
    expect = stacked_window(start, hours, grid, cfg)
    assert got.tobytes() == expect.tobytes()


def _hour_terms(grid, start):
    """The (60, n_lat) sin_sin and cos_cos and (60, n_lon) cos(hour
    angle) of the hour from start, as accumulated_irradiance makes them."""
    times = [start + timedelta(minutes=k) for k in range(60)]
    decl, eot, _ = sun_ephemeris(times)
    phi = np.radians(grid.latitudes)
    return (np.sin(phi)[None, :] * np.sin(decl)[:, None],
            np.cos(phi)[None, :] * np.cos(decl)[:, None],
            np.cos(solar._hour_angle(times, grid.longitudes, eot)))


def test_window_fixtures_reach_wrapping_arcs_dark_and_lit_rows_and_a_year_crossing():
    seen = set()
    for shape, start, hours, _ in WINDOW_CASES:
        grid = (shape if isinstance(shape, GridSpec)
                else make_gaussian_grid(*shape))
        n = grid.n_lon
        for h in range(hours):
            sin_sin, cos_cos, cos_ha = _hour_terms(
                grid, start + timedelta(hours=h))
            cosz = sin_sin[:, :, None] + cos_cos[:, :, None] * cos_ha[:, None]
            arcs = {i: (j, width) for i, _, j, width
                    in solar._sunlit_arcs(sin_sin, cos_cos, cos_ha, 1)}
            for i in range(grid.n_lat):
                if i not in arcs:
                    assert np.all(cosz[:, i] <= 0.0)
                    seen.add("dark")
                elif arcs[i][1] == n and np.all(cosz[:, i] > 0.0):
                    seen.add("lit")
                elif sum(arcs[i]) > n:
                    seen.add("wraps")
        years = {int(solar._fractional_year(t))
                 for t in (start, start + timedelta(hours=hours))}
        if len(years) == 2:
            seen.add("new year")
    assert seen == {"dark", "lit", "wraps", "new year"}


@pytest.mark.parametrize("rows", [1, 7])
def test_sunlit_arcs_leave_out_only_night(rows):
    # every (minute, row, column) outside the arcs is <= 0, and a row's
    # arc is no wider than the night allows, on a grid fine enough to
    # show it; groups of rows share the union of their rows' arcs
    grid = make_gaussian_grid(96, 192, lon_origin=11.0)
    for start in (datetime(2021, 3, 20, 9, 40, tzinfo=UTC),
                  datetime(2021, 12, 21, 23, 5, tzinfo=UTC)):
        sin_sin, cos_cos, cos_ha = _hour_terms(grid, start)
        cosz = sin_sin[:, :, None] + cos_cos[:, :, None] * cos_ha[:, None]
        inside = np.zeros(grid.shape, dtype=bool)
        for r0, r1, j, width in solar._sunlit_arcs(sin_sin, cos_cos, cos_ha,
                                                   rows):
            assert r1 - r0 == min(rows, grid.n_lat - r0) and r0 % rows == 0
            inside[r0:r1, (j + np.arange(width)) % grid.n_lon] = True
        assert np.all(cosz[:, ~inside] <= 0.0)
        lit = (cosz > 0.0).any(axis=0)
        assert np.all(inside[lit])
        if rows == 1:  # a column of margin at most on each side
            assert inside.sum() <= lit.sum() + 2 * grid.n_lat


def test_array_ephemeris_equals_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(2024)
    t0 = datetime(1979, 1, 1, tzinfo=UTC)
    n_minutes = int((datetime(2031, 1, 1, tzinfo=UTC) - t0).total_seconds()
                    // 60)
    times = [t0 + timedelta(minutes=int(k))
             for k in rng.integers(0, n_minutes, 10_000)]
    decl, eot, dist = sun_ephemeris(times)
    assert decl.shape == eot.shape == dist.shape == (len(times),)
    got = list(zip(decl.tolist(), eot.tolist(), dist.tolist()))
    assert got == [sun_ephemeris(t) for t in times]
    assert got == [scalar_ephemeris(t) for t in times]


def test_n320_six_hour_window_allocates_under_100_mb():
    # sixty stacked 640x1280 float64 minute grids alone are 393 MB
    grid = make_gaussian_grid(640, 1280)
    tracemalloc.start()
    try:
        f = accumulated_irradiance(datetime(2021, 6, 1, tzinfo=UTC), 6, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    assert np.all(f >= 0.0) and f.max() > 1e7


# The byte gate of `spherecast solar`: (file name, grid, start, windows,
# window hours, dtype).  The Gaussian 32x64 windows run from 2021-12-30
# 12Z across the year's end, in southern polar day; the N320 window is the
# benchmark's, in float64, which also fixes the bits of its float32 cast.
SOLAR_RUNS = [
    (f"{grid.split(':')[0]}_{dtype}.gvf", grid, start, windows, hours, dtype)
    for grid, start, windows, hours in [
        ("gaussian:32x64", "2021-12-30T12:00:00", 8, 6),
        ("equiangular:16x32", "2021-03-20T03:00:00", 4, 1)]
    for dtype in ("f32", "f64")] + [
    ("n320_f64.gvf", "gaussian:640x1280", "2021-06-01T00:00:00", 1, 6, "f64")]


def _solar_digests(tmp):
    import hashlib
    from spherecast.cli import main
    digests = {}
    for name, grid, start, windows, hours, dtype in SOLAR_RUNS:
        out = tmp / name
        assert main(["solar", "--grid", grid, "--start", start,
                     "--windows", str(windows), "--window-hours", str(hours),
                     "--dtype", dtype, "--output", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_solar_outputs_match_committed_digests(tmp_path):
    import json
    from pathlib import Path
    want = json.loads((Path(__file__).parent / "data"
                       / "solar_digests.json").read_text())
    got = _solar_digests(tmp_path)
    assert set(want["sha256"]) == set(got)
    differ = sorted(name for name in got if got[name] != want["sha256"][name])
    assert not differ, (
        f"{', '.join(differ)} differ from tests/data/solar_digests.json "
        f"(made with numpy {want['numpy']}; this is numpy {np.__version__})")
