"""Normalization statistics, residual rescaling, and climatology.

Each variable-level is standardized by its training-period mean and
standard deviation, then rescaled by a residual coefficient xi: the
standard deviation of the one-step tendency of the standardized series,
divided by the geometric mean of those tendency standard deviations over
all variable-levels.  The product of xi over all variable-levels is 1 by
construction.  Statistics are plain (unweighted) spatio-temporal moments.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .container import released_blocks
from .grid import FieldSeries, GridSpec, default_units, ensure_utc

__all__ = [
    "StatEntry",
    "NormStats",
    "Climatology",
    "climatology_writer",
    "compute_stats",
    "compute_residual_coeff",
    "compute_norm_stats",
    "normalize",
    "denormalize",
    "clamp_nonnegative_values",
    "climatology_bins",
    "compute_climatology",
    "day_of_year_365",
]


@dataclass
class StatEntry:
    mu: float
    sigma: float
    xi: float = 1.0


@dataclass
class NormStats:
    """Per (variable, level) mean, std, and residual coefficient."""

    entries: dict[tuple[str, str], StatEntry] = dc_field(default_factory=dict)
    step_hours: float | None = None
    period: tuple[str, str] | None = None
    denominator: str = "tendency"

    def entry(self, variable: str, level: str) -> StatEntry:
        try:
            return self.entries[(variable, level)]
        except KeyError:
            raise KeyError(
                f"no normalization stats for {variable!r} level {level!r}"
            ) from None

    def to_json(self, path) -> None:
        from .container import atomic_write
        doc = {
            "step_hours": self.step_hours,
            "period": list(self.period) if self.period else None,
            "denominator": self.denominator,
            "entries": {
                f"{v}|{l}": {"mu": e.mu, "sigma": e.sigma, "xi": e.xi}
                for (v, l), e in sorted(self.entries.items())
            },
        }
        _stat_entries(doc)  # write only what from_json loads
        with atomic_write(path) as fh:
            fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")

    @classmethod
    def from_json(cls, path) -> "NormStats":
        """Load a stats file; ValueError names the file and a bad key."""
        try:
            doc = json.loads(Path(path).read_text())
            entries = _stat_entries(doc)
            period = doc.get("period")
            if period is not None and not (
                    isinstance(period, list) and len(period) == 2
                    and all(isinstance(t, str) for t in period)):
                raise ValueError("period must be null or a list of two time "
                                 f"strings, got {json.dumps(period)}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls(entries=entries, step_hours=doc.get("step_hours"),
                   period=tuple(period) if period else None,
                   denominator=doc.get("denominator", "tendency"))


def _stat_entries(doc) -> dict[tuple[str, str], StatEntry]:
    """The entries of a stats document: an object whose "entries" map each
    "variable|level" to a finite mu and a finite, positive sigma and xi."""
    if not (isinstance(doc, dict) and isinstance(doc.get("entries"), dict)):
        raise ValueError("not a JSON object with an 'entries' object")
    entries = {}
    for key, e in doc["entries"].items():
        for name in ("mu", "sigma", "xi"):
            value = e.get(name) if isinstance(e, dict) else e
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not np.isfinite(value) or (name != "mu" and value <= 0)):
                raise ValueError(f"entry {key!r}: {name} must be a finite"
                                 f"{'' if name == 'mu' else ', positive'} "
                                 f"number, got {value!r}")
        v, _, l = key.partition("|")
        entries[(v, l)] = StatEntry(mu=e["mu"], sigma=e["sigma"], xi=e["xi"])
    return entries


def _merge_moments(n_a, mean_a, m2_a, n_b, mean_b, m2_b):
    # Chan/Welford pairwise merge of (count, mean, sum of squared deviations)
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * n_b / n
    m2 = m2_a + m2_b + delta * delta * n_a * n_b / n
    return n, mean, m2


def _streaming_moments(values, rows):
    """(count, mean, sum of squared deviations) of the given ascending
    rows of values, merged one row at a time, each taken in float64; the
    map under values is released after each block of rows."""
    n, mean, m2 = 0, 0.0, 0.0
    for block in released_blocks(values, rows):
        for i in rows[block]:
            chunk = np.asarray(values[i], dtype=np.float64)
            nb = chunk.size
            mb = float(chunk.mean())
            m2b = float(((chunk - mb) ** 2).sum())
            n, mean, m2 = _merge_moments(n, mean, m2, nb, mb, m2b)
    return n, mean, m2


def _keyed(series_map):
    """(key, FieldSeries) pairs of a {key: FieldSeries} mapping, or of an
    iterable of FieldSeries, which is then taken one series at a time."""
    if isinstance(series_map, Mapping):
        return iter(series_map.items())
    return ((s.key, s) for s in series_map)


def _stat_entry(key, series: FieldSeries, period) -> StatEntry:
    rows = np.arange(len(series))
    if period is not None:
        t0, t1 = (ensure_utc(period[0]), ensure_utc(period[1]))
        rows = np.array([i for i, t in enumerate(series.times)
                         if t0 <= t <= t1], dtype=np.intp)
        if not len(rows):
            raise ValueError(
                f"{key[0]} ({key[1]}): no samples in requested period")
    n, mean, m2 = _streaming_moments(series.values, rows)
    sigma = float(np.sqrt(m2 / n))
    # rounding noise of an exactly constant field shows up as sigma ~
    # eps * |mean|; reject that as zero variance too, and NaN or inf moments
    if not 1e-14 * abs(mean) < sigma < np.inf:
        raise ValueError(f"{key[0]} ({key[1]}): zero variance or non-finite "
                         "values over the period; cannot standardize")
    return StatEntry(mu=mean, sigma=sigma)


def compute_stats(series_map, period: tuple[datetime, datetime] | None = None
                  ) -> NormStats:
    """Mean and standard deviation per variable-level over a period.

    series_map is a {(variable, level): FieldSeries} mapping or an
    iterable of FieldSeries.  Moments pool every grid point and time step;
    accumulation is a numerically stable streaming merge over time rows,
    each taken in float64, matching a two-pass computation to better than
    1e-10 relative.  Zero variance is an error.
    """
    return compute_norm_stats(series_map, denominator=None, period=period)


def _check_denominator(denominator: str) -> None:
    if denominator not in ("tendency", "standardized"):
        raise ValueError(
            f"denominator must be 'tendency' or 'standardized', got {denominator!r}")


def _spreads(key, series: FieldSeries, e: StatEntry,
             denominator: str) -> tuple[float, float]:
    """(std of the one-step tendency of T' = (T - mu)/sigma, the std xi is
    scaled by: that same one, or std(T') for "standardized"), with T
    copied to float64 a block of rows at a time, the map under it
    released after each, and the tendency made in place."""
    if len(series) < 2:
        raise ValueError(
            f"{key[0]} ({key[1]}): need at least 2 time steps for the "
            "tendency, got {0}".format(len(series)))
    tprime = np.empty(series.values.shape)  # scaled in place
    for block in released_blocks(series.values, range(len(series))):
        tprime[block] = series.values[block]
    tprime -= e.mu
    tprime /= e.sigma
    ref = float(tprime.std()) if denominator == "standardized" else None
    dt = tprime[:-1]  # row i becomes row i + 1 - row i, as np.diff gives
    for i in range(len(dt)):
        np.subtract(tprime[i + 1], tprime[i], out=dt[i])
    dt *= dt
    tend = float(np.sqrt(np.mean(dt)))
    if not 0.0 < tend < np.inf:
        raise ValueError(f"{key[0]} ({key[1]}): zero or non-finite tendency std")
    return tend, tend if ref is None else ref


def _rescaled(stats: NormStats, spreads: dict, denominator: str) -> NormStats:
    """A copy of stats with xi = tendency std / gmean of the reference
    stds, for each key of spreads ({key: _spreads(...)})."""
    log_vals = np.log(np.array([ref for _, ref in spreads.values()]))
    gmean = float(np.exp(log_vals.mean()))
    out = NormStats(step_hours=stats.step_hours, period=stats.period,
                    denominator=denominator)
    for key, (tend, _) in spreads.items():
        e = stats.entry(*key)
        out.entries[key] = StatEntry(mu=e.mu, sigma=e.sigma, xi=tend / gmean)
    # carry over entries not present in this collection
    for key, e in stats.entries.items():
        out.entries.setdefault(key, StatEntry(mu=e.mu, sigma=e.sigma, xi=e.xi))
    return out


def compute_residual_coeff(series_map, stats: NormStats,
                           denominator: str = "tendency") -> NormStats:
    """Fill the residual coefficients xi into a copy of stats.

    The standardized series T' = (T - mu)/sigma is differenced one step at
    the dataset resolution; xi is std(dT') rescaled by the geometric mean
    across variable-levels.  denominator="tendency" (default) divides by
    gmean of the tendency stds; "standardized" divides by gmean of the
    stds of T' themselves (which are 1 when stats come from the same
    period, so xi then reduces to std(dT') unscaled).  series_map is as
    for compute_stats.
    """
    _check_denominator(denominator)
    return _rescaled(stats, {
        key: _spreads(key, series, stats.entry(*key), denominator)
        for key, series in _keyed(series_map)}, denominator)


def compute_norm_stats(series_map, denominator: str | None = "tendency",
                       period: tuple[datetime, datetime] | None = None
                       ) -> NormStats:
    """compute_stats and then, unless denominator is None,
    compute_residual_coeff with that denominator, in one pass that takes
    each series once.  period limits the moments only; the tendencies
    span every time, as in compute_residual_coeff."""
    if denominator is not None:
        _check_denominator(denominator)
    stats, spreads = NormStats(), {}
    for key, series in _keyed(series_map):
        e = stats.entries[key] = _stat_entry(key, series, period)
        if stats.step_hours is None:
            stats.step_hours = series.step_hours
        if denominator is not None:
            spreads[key] = _spreads(key, series, e, denominator)
    if not stats.entries:
        raise ValueError("empty series collection")
    if period is not None:
        stats.period = (ensure_utc(period[0]).isoformat(),
                        ensure_utc(period[1]).isoformat())
    return stats if denominator is None else _rescaled(stats, spreads,
                                                       denominator)


def normalize(values: np.ndarray, stats: NormStats, variable: str, level: str,
              out: np.ndarray | None = None) -> np.ndarray:
    """T'' = (T - mu) / (xi * sigma) of (variable, level)'s values,
    dimensionless.

    The result goes to out, an array of values' shape that may be values
    itself, or to a new array."""
    e = stats.entry(variable, level)
    values = np.subtract(values, e.mu, out=out)
    values /= e.xi * e.sigma
    return values


def denormalize(values: np.ndarray, stats: NormStats, variable: str,
                level: str, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of normalize, to within a few ulp of |T| + |mu|:
    T = T'' * xi * sigma + mu; out as there."""
    e = stats.entry(variable, level)
    values = np.multiply(values, e.xi * e.sigma, out=out)
    values += e.mu
    return values


def clamp_nonnegative_values(values: np.ndarray, floor: float = 1e-8,
                             out: np.ndarray | None = None) -> np.ndarray:
    """values with every entry below floor replaced by exactly floor.

    Intended for de-normalized specific humidity, whose raw model output
    can go negative; idempotent and monotone.  The result goes to out, an
    array of values' shape that may be values itself, or to a new array
    of values' dtype promoted with floor's."""
    if out is None:
        out = np.array(values, dtype=np.result_type(values, floor))
    elif out is not values:
        np.copyto(out, values)
    np.copyto(out, floor, where=out < floor)
    return out


def day_of_year_365(t: datetime) -> int:
    """Day of year on a 365-day calendar; Feb 29 maps to Feb 28's bin."""
    doy = t.timetuple().tm_yday
    year = t.year
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if leap and doy >= 60:
        doy -= 1
    return doy


@dataclass
class Climatology:
    """Sliding-window mean fields indexed by (day-of-year, hour-of-day).

    data maps (variable, level) to an array [365, n_hours, n_lat, n_lon]
    (from_container leaves each one a view of the file's map, in the
    file's dtype; values() returns float64 either way); hours lists the
    hours-of-day present (e.g. [0, 6, 12, 18] for 6-hourly data).
    Windows are window_days wide, Gaussian-weighted with std_days,
    weights renormalized to sum 1.  units maps (variable, level) to the
    units of its input; a key without one gets its variable's default.
    """

    grid: GridSpec
    hours: list[int]
    window_days: int
    std_days: float
    data: dict[tuple[str, str], np.ndarray]
    units: dict[tuple[str, str], str] = dc_field(default_factory=dict)

    def row(self, when: datetime) -> int:
        """when's bin as a row of data viewed as (365 * len(hours), ...)."""
        when = ensure_utc(when)
        if when.hour not in self.hours:
            raise KeyError(
                f"climatology has no hour-of-day bin for {when.hour:02d}Z "
                f"(available: {self.hours})")
        return ((day_of_year_365(when) - 1) * len(self.hours)
                + self.hours.index(when.hour))

    def values(self, variable: str, level: str, when: datetime) -> np.ndarray:
        return np.asarray(self.data[(variable, level)][
            divmod(self.row(when), len(self.hours))], dtype=np.float64)

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(self.data.keys())

    def to_container(self, path, dtype: str = "f64") -> None:
        """Store climatology fields as a GVF1 container on a pseudo-year
        axis (see climatology_writer)."""
        variables = [(name, level, self.units.get((name, level),
                                                  default_units(name)))
                     for name, level in self.data]
        with climatology_writer(path, self.grid, variables, self.hours,
                                self.window_days, self.std_days,
                                dtype=dtype) as put:
            for j, arr in enumerate(self.data.values()):
                for hi in range(len(self.hours)):
                    put(j, hi, arr[:, hi])

    @classmethod
    def from_container(cls, path) -> "Climatology":
        from .container import read_container

        c = read_container(path)
        meta = c.attrs.get("climatology")
        if meta is None:
            raise ValueError(f"{path}: container has no climatology attrs")
        hours = [int(h) for h in meta["hours"]]
        n_h = len(hours)
        if len(c.times) != 365 * n_h:
            raise ValueError(
                f"{path}: expected {365 * n_h} climatology bins, "
                f"got {len(c.times)}")
        # the file's read-only map: a bin is read when it is looked up
        data = {(name, level): c.view(name, level).values.reshape(
                    (365, n_h) + c.grid.shape)
                for name, level, _units in c.variables}
        return cls(grid=c.grid, hours=hours,
                   window_days=int(meta["window_days"]),
                   std_days=float(meta["std_days"]), data=data,
                   units={(name, level): units
                          for name, level, units in c.variables})


@contextmanager
def climatology_writer(path, grid: GridSpec, variables, hours: list[int],
                       window_days: int, std_days: float, dtype: str = "f64"):
    """Write a climatology as a GVF1 container on a pseudo-year axis.

    Bins map to timestamps in 1995 (non-leap): day d, hour h becomes
    1995-01-01 + (d-1) days + h hours, so bin (d, hours[hi]) is time row
    (d-1) * len(hours) + hi.  variables lists (name, level, units) in file
    order.  Yields put(j, hi, means), which writes the (365, n_lat, n_lon)
    means of variable j at hours[hi] to their rows in place; the file
    appears at path once every bin of every variable is written.
    """
    from .container import container_writer

    t0 = datetime(1995, 1, 1, tzinfo=timezone.utc)
    times = [t0 + timedelta(days=d, hours=h)
             for d in range(365) for h in hours]
    attrs = {"climatology": {"window_days": window_days,
                             "std_days": std_days, "hours": hours}}
    with container_writer(path, grid, variables, times, dtype=dtype,
                          attrs=attrs) as write:
        yield lambda j, hi, means: write.at(
            range(hi, len(times), len(hours)), j, means)


def _circular_day_distance(d1, d2, period: int = 365):
    d = np.abs(np.asarray(d1) - np.asarray(d2))
    return np.minimum(d, period - d)


def climatology_bins(series_map, window_days: int = 61,
                     gaussian_std_days: float = 10.0):
    """Day-of-year/hour-of-day climatology with Gaussian-weighted windows,
    one (variable, hour of day) at a time.

    For each (day d, hour h) the climatology is the weighted mean over all
    samples at hour h whose circular day-of-year distance from d is at
    most window_days//2, with weights exp(-dd^2 / (2 s^2)), s in days,
    renormalized to sum 1.  Bins with no samples raise, listing (d, h),
    before anything is yielded, and so does an input with no times.
    series_map is a {(variable, level): FieldSeries} mapping or an
    iterable of FieldSeries, taken one series at a time; each hour's
    window samples are gathered into one float64 buffer a block of rows
    at a time, the map under them released after each; a non-finite
    sample raises ValueError naming its variable and time.  Yields
    (series, hours, hi, means):
    hours lists the hours of day present, and means is the (365, n_lat,
    n_lon) float64 climatology of series at hours[hi] for days 1..365.
    """
    if window_days < 1 or window_days % 2 == 0:
        raise ValueError(f"window_days must be odd and positive, got {window_days}")
    if gaussian_std_days <= 0:
        raise ValueError("gaussian_std_days must be positive")
    grid = times = None
    for key, series in _keyed(series_map):
        if grid is None:
            grid, times = series.grid, series.times
            if not times:
                raise ValueError(f"{key}: climatology input has no times")
            hours, weights = _window_weights(times, window_days // 2,
                                             gaussian_std_days)
            samples = np.empty((max(len(idx) for idx, _ in weights.values()),
                                grid.n_lat * grid.n_lon))
        elif series.grid != grid:
            raise ValueError(f"{key}: climatology inputs must share one grid")
        elif series.times != times:
            raise ValueError(
                f"{key}: climatology inputs must share one time axis")
        flat = series.values.reshape(len(series), -1)
        for hi, h in enumerate(hours):
            idx, w = weights[h]
            for block in released_blocks(flat, idx):
                gathered = samples[block]
                gathered[...] = flat[idx[block]]
                finite = np.isfinite(gathered).all(axis=1)
                if not finite.all():
                    when = times[idx[block][np.argmin(finite)]]
                    raise ValueError(f"non-finite values in {key[0]} "
                                     f"({key[1]}) at {when.isoformat()}")
            # nothing here keeps a yielded bin set once the caller drops it
            yield series, hours, hi, (
                w @ samples[:len(idx)]).reshape((365,) + grid.shape)
        del series, flat  # before the next series is taken
    if grid is None:
        raise ValueError("empty series collection")


def compute_climatology(series_map, window_days: int = 61,
                        gaussian_std_days: float = 10.0) -> Climatology:
    """The climatology_bins of every series, gathered into a Climatology
    that keeps each series' units."""
    data, units = {}, {}
    for series, hours, hi, means in climatology_bins(
            series_map, window_days, gaussian_std_days):
        if hi == 0:
            data[series.key] = np.empty((365, len(hours)) + series.grid.shape)
            units[series.key] = series.units
        data[series.key][:, hi] = means
    return Climatology(grid=series.grid, hours=hours, window_days=window_days,
                       std_days=gaussian_std_days, data=data, units=units)


def _window_weights(times: list[datetime], half: int, std_days: float):
    """hours present in times, and per hour (sample rows at that hour,
    [365 days, samples] Gaussian window weights summing to 1 per day)."""
    hours = sorted({t.hour for t in times})
    doys = np.array([day_of_year_365(t) for t in times])
    t_hours = np.array([t.hour for t in times])
    weights = {}
    missing = []
    for h in hours:
        idx = np.nonzero(t_hours == h)[0]
        dd = _circular_day_distance(np.arange(1, 366)[:, None], doys[idx][None, :])
        w = np.exp(-dd.astype(float) ** 2 / (2.0 * std_days ** 2))
        w[dd > half] = 0.0
        sums = w.sum(axis=1)
        empty = np.nonzero(sums == 0)[0]
        missing.extend((int(d + 1), h) for d in empty)
        sums[sums == 0] = 1.0
        weights[h] = (idx, w / sums[:, None])
    if missing:
        raise ValueError(
            "climatology windows without samples at (day, hour): "
            + ", ".join(str(m) for m in missing[:20])
            + ("..." if len(missing) > 20 else ""))
    return hours, weights
