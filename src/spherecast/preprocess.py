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
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .container import (Container, ContainerError, atomic_write,
                        container_writer, first_non_finite, read_container,
                        release, released_blocks)
from .grid import GridSpec, default_units, ensure_utc

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
    """Per (variable, level) mean, std, and residual coefficient; path is
    the file from_json read, or None."""

    entries: dict[tuple[str, str], StatEntry] = dc_field(default_factory=dict)
    step_hours: float | None = None
    period: tuple[str, str] | None = None
    denominator: str = "tendency"
    path: Path | None = None

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(self.entries)

    def entry(self, variable: str, level: str) -> StatEntry:
        try:
            return self.entries[(variable, level)]
        except KeyError:
            raise KeyError(
                f"no normalization stats for {variable!r} level {level!r}"
            ) from None

    def to_json(self, path) -> None:
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
                   denominator=doc.get("denominator", "tendency"),
                   path=Path(path))


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


def _stat_entry(c: Container, key, rows) -> StatEntry:
    n, mean, m2 = _streaming_moments(c.view(*key), rows)
    sigma = float(np.sqrt(m2 / n))
    # rounding noise of an exactly constant field shows up as sigma ~
    # eps * |mean|; reject that as zero variance too, and NaN or inf moments
    if not 1e-14 * abs(mean) < sigma < np.inf:
        raise ValueError(f"{c.path}: {key[0]} ({key[1]}): zero variance or "
                         "non-finite values over the period; cannot "
                         "standardize")
    return StatEntry(mu=mean, sigma=sigma)


def compute_stats(c: Container, period: tuple[datetime, datetime] | None = None
                  ) -> NormStats:
    """Mean and standard deviation of each variable-level of container c
    over a period.

    Moments pool every grid point and time step; accumulation is a
    numerically stable streaming merge over time rows, each taken in
    float64, matching a two-pass computation to better than 1e-10
    relative.  Zero variance is an error.
    """
    return compute_norm_stats(c, denominator=None, period=period)


def _check_denominator(denominator: str) -> None:
    if denominator not in ("tendency", "standardized"):
        raise ValueError(
            f"denominator must be 'tendency' or 'standardized', got {denominator!r}")


def _spreads(c: Container, key, e: StatEntry,
             denominator: str) -> tuple[float, float]:
    """(std of the one-step tendency of T' = (T - mu)/sigma, the std xi is
    scaled by: that same one, or std(T') for "standardized"), with T, key's
    values in c, copied to float64 a block of rows at a time, the map
    under it released after each, and the tendency made in place."""
    values = c.view(*key)
    if len(values) < 2:
        raise ValueError(
            f"{c.path}: {key[0]} ({key[1]}): need at least 2 time steps for "
            f"the tendency, got {len(values)}")
    tprime = np.empty(values.shape)  # scaled in place
    for block in released_blocks(values, range(len(values))):
        tprime[block] = values[block]
    tprime -= e.mu
    tprime /= e.sigma
    ref = float(tprime.std()) if denominator == "standardized" else None
    dt = tprime[:-1]  # row i becomes row i + 1 - row i, as np.diff gives
    for i in range(len(dt)):
        np.subtract(tprime[i + 1], tprime[i], out=dt[i])
    dt *= dt
    tend = float(np.sqrt(np.mean(dt)))
    if not 0.0 < tend < np.inf:
        raise ValueError(f"{c.path}: {key[0]} ({key[1]}): zero or non-finite "
                         "tendency std")
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


def _step_hours(c: Container) -> float | None:
    """The one step of c's time axis in hours (None for fewer than two
    times); ValueError naming the file if the step is not constant, since
    the tendency is taken one row at a time."""
    steps = {t1 - t0 for t0, t1 in zip(c.times, c.times[1:])}
    if len(steps) > 1:
        raise ValueError(f"{c.path}: time step must be constant")
    return steps.pop().total_seconds() / 3600.0 if steps else None


def compute_residual_coeff(c: Container, stats: NormStats,
                           denominator: str = "tendency") -> NormStats:
    """Fill the residual coefficients xi of container c's variable-levels
    into a copy of stats.

    The standardized series T' = (T - mu)/sigma is differenced one step at
    the dataset resolution; xi is std(dT') rescaled by the geometric mean
    across variable-levels.  denominator="tendency" (default) divides by
    gmean of the tendency stds; "standardized" divides by gmean of the
    stds of T' themselves (which are 1 when stats come from the same
    period, so xi then reduces to std(dT') unscaled).
    """
    _check_denominator(denominator)
    _step_hours(c)
    return _rescaled(stats, {
        key: _spreads(c, key, stats.entry(*key), denominator)
        for key in c.keys}, denominator)


def compute_norm_stats(c: Container, denominator: str | None = "tendency",
                       period: tuple[datetime, datetime] | None = None
                       ) -> NormStats:
    """compute_stats and then, unless denominator is None,
    compute_residual_coeff with that denominator, in one pass that takes
    each variable of container c once.  period limits the moments only;
    the tendencies span every time, as in compute_residual_coeff.  The
    time step must be constant; stats.step_hours records it."""
    if denominator is not None:
        _check_denominator(denominator)
    if not (c.times and c.keys):
        raise ValueError(f"{c.path}: no {'times' if c.keys else 'variables'}")
    stats = NormStats(step_hours=_step_hours(c))
    rows = np.arange(len(c.times))
    if period is not None:
        t0, t1 = ensure_utc(period[0]), ensure_utc(period[1])
        rows = np.array([i for i, t in enumerate(c.times) if t0 <= t <= t1],
                        dtype=np.intp)
        if not len(rows):
            raise ValueError(f"{c.path}: no samples in requested period")
        stats.period = (t0.isoformat(), t1.isoformat())
    spreads = {}
    for key in c.keys:
        e = stats.entries[key] = _stat_entry(c, key, rows)
        if denominator is not None:
            spreads[key] = _spreads(c, key, e, denominator)
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
    path is the file from_container read, or None.
    """

    grid: GridSpec
    hours: list[int]
    window_days: int
    std_days: float
    data: dict[tuple[str, str], np.ndarray]
    units: dict[tuple[str, str], str] = dc_field(default_factory=dict)
    path: Path | None = None

    def row(self, when: datetime) -> int:
        """when's bin as a row of data viewed as (365 * len(hours), ...)."""
        when = ensure_utc(when)
        if when.hour not in self.hours:
            raise KeyError(
                f"{self.path or 'climatology'}: no hour-of-day bin for "
                f"{when.hour:02d}Z (available: {self.hours})")
        return ((day_of_year_365(when) - 1) * len(self.hours)
                + self.hours.index(when.hour))

    def values(self, variable: str, level: str, when: datetime) -> np.ndarray:
        return np.asarray(self.data[(variable, level)][
            divmod(self.row(when), len(self.hours))], dtype=np.float64)

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(self.data.keys())

    def check_finite(self, keys, times) -> None:
        """Raise ValueError, naming the file, the variable and the bin,
        unless the bins of times are finite in each of keys
        (first_non_finite)."""
        rows = np.unique([self.row(t) for t in times])
        for key in keys:
            bad = first_non_finite(
                self.data[key].reshape((-1,) + self.grid.shape), rows)
            if bad:
                day, hi = divmod(bad[0], len(self.hours))
                raise ValueError(
                    f"{self.path or 'climatology'}: non-finite climatology "
                    f"{key[0]} ({key[1]}) at day {day + 1}, "
                    f"{self.hours[hi]:02d}Z")

    def release(self) -> None:
        """Release the map under each variable's bins."""
        for values in self.data.values():
            release(values)

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
        """The climatology a climatology_writer file holds, its bins left
        views of the file's map.  ContainerError names the file and the
        key of a malformed attrs["climatology"] block."""
        c = read_container(path)
        meta = c.attrs.get("climatology")
        if meta is None:
            raise ValueError(f"{path}: container has no climatology attrs")
        _check_climatology_attrs(meta, path)
        hours, n_h = meta["hours"], len(meta["hours"])
        if len(c.times) != 365 * n_h:
            raise ValueError(
                f"{path}: expected {365 * n_h} climatology bins, "
                f"got {len(c.times)}")
        # the file's read-only map: a bin is read when it is looked up
        data = {(name, level): c.view(name, level).reshape(
                    (365, n_h) + c.grid.shape)
                for name, level, _units in c.variables}
        return cls(grid=c.grid, hours=hours,
                   window_days=meta["window_days"],
                   std_days=float(meta["std_days"]), data=data,
                   units={(name, level): units
                          for name, level, units in c.variables},
                   path=c.path)


def _check_climatology_attrs(meta, path) -> None:
    """ContainerError naming path and the key unless meta is an object
    with an integer window_days, a numeric std_days and a list of distinct
    integer hours in 0-23."""
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: attrs climatology is not a JSON "
                             f"object, got {json.dumps(meta)}")
    for key, what, ok in (
            ("window_days", "an integer", lambda v: type(v) is int),
            ("std_days", "a number", lambda v: type(v) in (int, float)),
            ("hours", "a list of distinct integer hours in 0-23",
             lambda v: isinstance(v, list)
             and all(type(h) is int and 0 <= h <= 23 for h in v)
             and len(set(v)) == len(v))):
        if key not in meta or not ok(meta[key]):
            got = (f"got {json.dumps(meta[key])}" if key in meta
                   else "it is missing")
            raise ContainerError(
                f"{path}: attrs climatology {key!r} must be {what}; {got}")


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


def climatology_bins(c: Container, window_days: int = 61,
                     gaussian_std_days: float = 10.0):
    """Day-of-year/hour-of-day climatology of container c with
    Gaussian-weighted windows, one (variable, hour of day) at a time.

    For each (day d, hour h) the climatology is the weighted mean over all
    samples at hour h whose circular day-of-year distance from d is at
    most window_days//2, with weights exp(-dd^2 / (2 s^2)), s in days,
    renormalized to sum 1.  Bins with no samples raise, listing (d, h),
    before anything is yielded, and so does an input with no times.  Each
    hour's window samples are gathered into one float64 buffer a block of
    rows at a time, the map under them released after each; a non-finite
    sample raises ValueError naming the file, its variable and its time.
    Yields (j, hours, hi, means): j is the variable's index in c.keys,
    hours lists the hours of day present, and means is the (365, n_lat,
    n_lon) float64 climatology of variable j at hours[hi] for days 1..365.
    """
    if window_days < 1 or window_days % 2 == 0:
        raise ValueError(f"window_days must be odd and positive, got {window_days}")
    if gaussian_std_days <= 0:
        raise ValueError("gaussian_std_days must be positive")
    if not (c.times and c.keys):
        raise ValueError(f"{c.path}: climatology input has no "
                         f"{'times' if c.keys else 'variables'}")
    hours, weights = _window_weights(c, window_days // 2, gaussian_std_days)
    samples = np.empty((max(len(idx) for idx, _ in weights.values()),
                        c.grid.n_lat * c.grid.n_lon))
    for j, key in enumerate(c.keys):
        flat = c.view(*key).reshape(len(c.times), -1)
        for hi, h in enumerate(hours):
            idx, w = weights[h]
            for block in released_blocks(flat, idx):
                gathered = samples[block]
                gathered[...] = flat[idx[block]]
                finite = np.isfinite(gathered).all(axis=1)
                if not finite.all():
                    when = c.times[idx[block][np.argmin(finite)]]
                    raise ValueError(f"{c.path}: non-finite values in "
                                     f"{key[0]} ({key[1]}) at "
                                     f"{when.isoformat()}")
            # nothing here keeps a yielded bin set once the caller drops it
            yield j, hours, hi, (
                w @ samples[:len(idx)]).reshape((365,) + c.grid.shape)


def compute_climatology(c: Container, window_days: int = 61,
                        gaussian_std_days: float = 10.0) -> Climatology:
    """The climatology_bins of every variable of container c, gathered
    into a Climatology that keeps each variable's units."""
    data = {}
    for j, hours, hi, means in climatology_bins(c, window_days,
                                                gaussian_std_days):
        if hi == 0:
            data[c.keys[j]] = np.empty((365, len(hours)) + c.grid.shape)
        data[c.keys[j]][:, hi] = means
    return Climatology(grid=c.grid, hours=hours, window_days=window_days,
                       std_days=gaussian_std_days, data=data,
                       units={(name, level): units
                              for name, level, units in c.variables})


def _window_weights(c: Container, half: int, std_days: float):
    """hours present in c.times, and per hour (sample rows at that hour,
    [365 days, samples] Gaussian window weights summing to 1 per day)."""
    hours = sorted({t.hour for t in c.times})
    doys = np.array([day_of_year_365(t) for t in c.times])
    t_hours = np.array([t.hour for t in c.times])
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
            f"{c.path}: climatology windows without samples at (day, hour): "
            + ", ".join(str(m) for m in missing[:20])
            + ("..." if len(missing) > 20 else ""))
    return hours, weights
