"""Top-of-atmosphere solar irradiance forcing.

Instantaneous irradiance is max(G_SC * (1/d)^2 * cos(zenith), 0) in W m-2.
The annual solar "constant" G_SC is linearly interpolated between annual
table values on a 365.2425-day Gregorian year; years past the table are
mapped onto a repeating 13-year cycle starting 1983.  Sun geometry
(declination, equation of time, earth-sun distance) uses the NOAA solar
calculator series (truncated Meeus), accurate to well under 0.3 deg in
zenith for 1979-2030; full SPA precision is unnecessary for a gridded
forcing field.  Forcing windows are accumulated minute by minute
(left-endpoint sampling, 60 s each) into J m-2 and labeled by the window
ending time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .grid import GridSpec, ensure_utc, small_ufunc_buffer

__all__ = [
    "SolarConfig",
    "SolarGeometry",
    "solar_constant_at",
    "solar_geometry",
    "sun_ephemeris",
    "instantaneous_irradiance",
    "irradiance_from_geometry",
    "accumulated_irradiance",
    "read_gsc_csv",
]

GREGORIAN_YEAR_DAYS = 365.2425
DEFAULT_GSC = 1361.0  # W m-2, used for every year when no table is supplied
GSC_CYCLE_START = 1983  # years past the table repeat this 13-year cycle
GSC_CYCLE_YEARS = 13
MINUTE_SECONDS = 60.0   # each minute sample stands for 60 s of the window

_EPOCH = datetime(1979, 1, 1, tzinfo=timezone.utc)


@dataclass
class SolarConfig:
    """Annual solar-constant table; None gives DEFAULT_GSC every year."""

    gsc_table: dict[int, float] | None = None

    def __post_init__(self):
        if self.gsc_table is not None:
            years = sorted(self.gsc_table)
            if not years:
                raise ValueError("gsc_table must not be empty")
            if years != list(range(years[0], years[-1] + 1)):
                raise ValueError("gsc_table years must be contiguous")
            for y, g in self.gsc_table.items():
                if not 1300.0 <= g <= 1450.0:
                    raise ValueError(
                        f"gsc_table[{y}] = {g} outside plausible range "
                        "[1300, 1450] W m-2")

    def annual_value(self, year: int) -> float:
        """G_SC for a calendar year, applying the repeating cycle."""
        if self.gsc_table is None:
            return DEFAULT_GSC
        years = sorted(self.gsc_table)
        if year in self.gsc_table:
            return self.gsc_table[year]
        if year < years[0]:
            raise ValueError(
                f"year {year} precedes the solar-constant table "
                f"(starts {years[0]})")
        mapped = GSC_CYCLE_START + (year - GSC_CYCLE_START) % GSC_CYCLE_YEARS
        if mapped not in self.gsc_table:
            raise ValueError(
                f"cycle year {mapped} (for {year}) missing from gsc_table")
        return self.gsc_table[mapped]


@dataclass(frozen=True)
class SolarGeometry:
    """Sun position terms for one time: angles in radians, distance in au."""

    declination: float
    hour_angle: float
    earth_sun_distance: float
    zenith: float

    def __post_init__(self):
        if not (0.98 <= self.earth_sun_distance <= 1.02):
            raise ValueError(
                f"earth-sun distance {self.earth_sun_distance} au outside "
                "[0.98, 1.02]")
        if not (0.0 <= self.zenith <= np.pi):
            raise ValueError(f"zenith {self.zenith} outside [0, pi]")


def read_gsc_csv(path) -> dict[int, float]:
    """Load an annual solar-constant table from a (year,value) CSV; a
    malformed row raises ValueError naming the file and its line."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() in ("year", ""):
                continue
            try:
                table[int(row[0])] = float(row[1])
            except (ValueError, IndexError):
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected year,value, "
                    f"got {','.join(row)!r}") from None
    return table


def _fractional_year(t: datetime) -> float:
    """Years since 1979-01-01 on a fixed-length Gregorian year."""
    seconds = (ensure_utc(t) - _EPOCH).total_seconds()
    return 1979.0 + seconds / (86400.0 * GREGORIAN_YEAR_DAYS)


def solar_constant_at(t: datetime, config: SolarConfig | None = None) -> float:
    """Annual G_SC linearly interpolated at time t (W m-2)."""
    config = config or SolarConfig()
    yf = _fractional_year(t)
    y0 = int(np.floor(yf))
    frac = yf - y0
    g0 = config.annual_value(y0)
    g1 = config.annual_value(y0 + 1)
    return g0 + frac * (g1 - g0)


def _utc_parts(times) -> dict[str, np.ndarray]:
    """Calendar and clock fields of UTC datetimes as integer arrays."""
    times = [ensure_utc(t) for t in times]
    return {name: np.array([getattr(t, name) for t in times], dtype=np.int64)
            for name in ("year", "month", "day", "hour", "minute", "second",
                         "microsecond")}


def sun_ephemeris(t):
    """Declination (rad), equation of time (min), earth-sun distance (au).

    NOAA solar calculator series: geometric mean longitude and anomaly in
    Julian centuries from J2000, equation of center, apparent longitude
    and mean obliquity.  Declination is good to ~0.01 deg over the
    supported decades.  t is a datetime, giving three floats, or a
    sequence of datetimes, giving three arrays over the sequence.
    """
    scalar = isinstance(t, datetime)
    p = _utc_parts([t] if scalar else t)
    # Julian date (valid for Gregorian dates; no Julian-calendar branch)
    d = (p["day"] + p["hour"] / 24.0 + p["minute"] / 1440.0
         + p["second"] / 86400.0 + p["microsecond"] / 86400e6)
    early = p["month"] <= 2
    y = np.where(early, p["year"] - 1, p["year"])
    m = np.where(early, p["month"] + 12, p["month"])
    a = y // 100
    b = 2 - a + a // 4
    jd = ((365.25 * (y + 4716)).astype(np.int64)
          + (30.6001 * (m + 1)).astype(np.int64) + d + b - 1524.5)
    jc = (jd - 2451545.0) / 36525.0

    # geometric mean longitude and anomaly of the sun (deg)
    gml = (280.46646 + jc * (36000.76983 + jc * 0.0003032)) % 360.0
    gma = 357.52911 + jc * (35999.05029 - 0.0001537 * jc)
    ecc = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)

    gma_r = np.radians(gma)
    # equation of center (deg)
    ctr = (np.sin(gma_r) * (1.914602 - jc * (0.004817 + 0.000014 * jc))
           + np.sin(2 * gma_r) * (0.019993 - 0.000101 * jc)
           + np.sin(3 * gma_r) * 0.000289)
    stl = gml + ctr            # true longitude (deg)
    sta = gma + ctr            # true anomaly (deg)

    # earth-sun distance (au)
    dist = (1.000001018 * (1 - ecc * ecc)) / (1 + ecc * np.cos(np.radians(sta)))

    # apparent longitude, corrected for nutation/aberration (deg)
    omega = 125.04 - 1934.136 * jc
    sal = stl - 0.00569 - 0.00478 * np.sin(np.radians(omega))

    # mean obliquity of the ecliptic plus nutation correction (deg)
    seconds = 21.448 - jc * (46.815 + jc * (0.00059 - jc * 0.001813))
    moe = 23.0 + (26.0 + seconds / 60.0) / 60.0
    obliq = moe + 0.00256 * np.cos(np.radians(omega))

    obliq_r = np.radians(obliq)
    sal_r = np.radians(sal)
    decl = np.arcsin(np.sin(obliq_r) * np.sin(sal_r))

    # equation of time (minutes); the square is libm pow, element by
    # element: numpy's array power and square differ from it in the last
    # bit for some times
    vary = np.array([math.pow(v, 2.0) for v in np.tan(obliq_r / 2.0).tolist()])
    gml_r = np.radians(gml)
    eot = 4.0 * np.degrees(
        vary * np.sin(2 * gml_r)
        - 2 * ecc * np.sin(gma_r)
        + 4 * ecc * vary * np.sin(gma_r) * np.cos(2 * gml_r)
        - 0.5 * vary * vary * np.sin(4 * gml_r)
        - 1.25 * ecc * ecc * np.sin(2 * gma_r))
    if scalar:
        return float(decl[0]), float(eot[0]), float(dist[0])
    return decl, eot, dist


def _hour_angle(times, lon, eot_minutes) -> np.ndarray:
    """Hour angle (rad) from true solar time, shape (times, lon).

    lon is in degrees east; eot_minutes holds one equation of time per
    time.
    """
    p = _utc_parts(times)
    utc_minutes = (p["hour"] * 60.0 + p["minute"] + p["second"] / 60.0
                   + p["microsecond"] / 6e7)
    tst = ((utc_minutes + np.asarray(eot_minutes, dtype=float))[:, None]
           + 4.0 * np.asarray(lon, dtype=float)[None, :])
    ha_deg = tst / 4.0 - 180.0
    return np.radians((ha_deg + 180.0) % 360.0 - 180.0)


def solar_geometry(t: datetime, lat: float, lon: float) -> SolarGeometry:
    """Sun geometry at one time and location; lat/lon in degrees."""
    if abs(lat) > 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    decl, eot, dist = sun_ephemeris(t)
    ha = float(_hour_angle([t], [lon], [eot])[0, 0])
    phi = np.radians(lat)
    cosz = (np.sin(phi) * np.sin(decl)
            + np.cos(phi) * np.cos(decl) * np.cos(ha))
    zen = float(np.arccos(np.clip(cosz, -1.0, 1.0)))
    return SolarGeometry(declination=decl, hour_angle=ha,
                         earth_sun_distance=dist, zenith=zen)


def irradiance_from_geometry(gsc: float, distance_au: float,
                             zenith: float) -> float:
    """max(G_SC * (1/d)^2 * cos(zenith), 0) in W m-2."""
    return max(gsc * np.cos(zenith) / (distance_au * distance_au), 0.0)


def instantaneous_irradiance(t: datetime, lat: float, lon: float,
                             config: SolarConfig | None = None) -> float:
    """Instantaneous top-of-atmosphere irradiance at one point (W m-2)."""
    geo = solar_geometry(t, lat, lon)
    gsc = solar_constant_at(t, config)
    return irradiance_from_geometry(gsc, geo.earth_sun_distance, geo.zenith)


# a column is skipped in an hour only where cos(hour angle) stays below
# -sin_sin / cos_cos by this much, relative, at every minute of it
_DARK_MARGIN = 1e-12
# latitude rows are summed in groups of about this many cells per minute
# (one row of a wider grid): two N320 rows, whose 60 minutes are a 1.2 MB
# block, and twenty N32 rows, which share the Python work of one call
_ROW_CELLS = 2560


def _sunlit_arcs(sin_sin, cos_cos, cos_ha, rows):
    """(first row, end row, first column, width) of each group of `rows`
    latitude rows that the sun can light in one hour, from the hour's
    (60, n_lat) sun terms and its (60, n_lon) cos(hour angle): outside
    the group's arc of columns, wrapping past column 0 when first + width
    > n_lon, each of its rows' 60 minutes is surely <= 0.  A group with
    no lit column is left out.

    A column can be lit only where its largest cos(hour angle) of the
    hour exceeds the smallest -sin_sin / cos_cos of the row, less a
    margin far above their rounding.  Those columns form one arc, since
    the largest cos over an hour of hour angles falls away from noon on
    both sides, and so do a group's, as its rows' arcs share that noon;
    a group whose columns do not, or with cos_cos <= 0 in a row, is
    given whole.  An arc is at least two columns wide, so that the sum
    over minutes of a (60, rows, width) block is a sum of its (rows,
    width) planes in order (numpy sums a lone column pairwise)."""
    n_lat, n = cos_cos.shape[1], cos_ha.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = -sin_sin / cos_cos
    dusk = ratio.min(axis=0) - _DARK_MARGIN * (1.0 + np.abs(ratio).max(axis=0))
    lit = cos_ha.max(axis=0) > dusk[:, None]                  # (n_lat, n_lon)
    lit[(cos_cos <= 0.0).any(axis=0)] = True
    starts = np.arange(0, n_lat, rows)
    lit = np.logical_or.reduceat(lit, starts, axis=0)        # (groups, n_lon)
    before = np.roll(lit, 1, axis=1)
    rise, fall = lit & ~before, before & ~lit
    arcs = rise.sum(axis=1)
    whole = (arcs > 1) | lit.all(axis=1)
    first = rise.argmax(axis=1)
    width = np.maximum((fall.argmax(axis=1) - first) % n, 2)
    for r, w, a, j, k in zip(starts.tolist(), whole.tolist(), arcs.tolist(),
                             first.tolist(), width.tolist()):
        if w:
            yield r, min(r + rows, n_lat), 0, n
        elif a:
            yield r, min(r + rows, n_lat), j, k


def accumulated_irradiance(window_start: datetime, window_hours: int,
                           grid: GridSpec,
                           config: SolarConfig | None = None) -> np.ndarray:
    """Accumulated irradiance over [start, start + window_hours) in J m-2,
    as a float64 (n_lat, n_lon) array, which belongs to the window's end.

    Sampled at each minute start and summed hour by hour, so a 6-hour
    window equals the sum of its six 1-hour windows bit-exactly.

    The sun terms are tabulated once per window: sin(lat) sin(decl) and
    cos(lat) cos(decl) per (minute, latitude), cos(hour angle) per
    (minute, longitude) and G_SC / d^2 per minute.  Each hour is then
    built a group of latitude rows at a time (_ROW_CELLS) over the
    group's sunlit arc of columns (_sunlit_arcs) only: the arc's 60
    minutes as one (60, rows, width) block, summed over minutes from
    minute 0 on, scaled to J m-2 and added into the window, hour by hour
    in order.  The rest of the rows is night at every minute of the hour
    and adds zeros, so it is skipped.
    """
    if window_hours not in (1, 6):
        raise ValueError(f"window_hours must be 1 or 6, got {window_hours}")
    config = config or SolarConfig()
    window_start = ensure_utc(window_start)
    times = [window_start + timedelta(minutes=k)
             for k in range(60 * window_hours)]
    decl, eot, dist = sun_ephemeris(times)
    gsc = np.array([solar_constant_at(t, config) for t in times])
    phi = np.radians(grid.latitudes)
    sin_sin = np.sin(phi)[None, :] * np.sin(decl)[:, None]    # (min, n_lat)
    cos_cos = np.cos(phi)[None, :] * np.cos(decl)[:, None]    # (min, n_lat)
    cos_ha = np.cos(_hour_angle(times, grid.longitudes, eot))  # (min, n_lon)
    scale = gsc / (dist * dist)                               # (min,)

    n = grid.n_lon
    rows = max(1, _ROW_CELLS // n)
    total = np.zeros(grid.shape)
    table = np.empty((60, 2 * n))   # the hour's cos_ha twice: arcs that wrap
    block = np.empty(60 * rows * n)
    hour_sum = np.empty(rows * n)
    with small_ufunc_buffer():  # (60, rows, 1) by (60, 1, width) products
        for h in range(window_hours):
            hour = slice(60 * h, 60 * (h + 1))
            table[:, :n] = table[:, n:] = cos_ha[hour]
            for r0, r1, j, width in _sunlit_arcs(
                    sin_sin[hour], cos_cos[hour], cos_ha[hour], rows):
                lat, shape = slice(r0, r1), (r1 - r0, width)
                x = block[:60 * math.prod(shape)].reshape((60,) + shape)
                np.multiply(cos_cos[hour, lat, None],
                            table[:, None, j:j + width], out=x)
                np.add(sin_sin[hour, lat, None], x, out=x)
                np.multiply(scale[hour, None, None], x, out=x)
                np.maximum(x, 0.0, out=x)
                s = np.add.reduce(x, axis=0, out=hour_sum[:math.prod(
                    shape)].reshape(shape))
                np.multiply(s, MINUTE_SECONDS, out=s)
                head = min(width, n - j)
                for cols, part in ((slice(j, j + head), s[:, :head]),
                                   (slice(0, width - head), s[:, head:])):
                    if h == 0:
                        total[lat, cols] = part
                    else:
                        np.add(total[lat, cols], part, out=total[lat, cols])
    return total
