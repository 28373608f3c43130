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

from . import container
from .container import (Container, ContainerError, atomic_write,
                        check_finite, check_nonempty, check_rows,
                        container_writer, read_container)
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


def _moments(c: Container, rows) -> dict:
    """{key: (count, mean, squared deviations)} of each variable in c at
    ascending time rows, merged a float64 field at a time from blocks
    (container._BLOCK_BYTES) of whole rows; a non-finite mean is checked."""
    merged = dict.fromkeys(c.keys, (0, 0.0, 0.0))
    step = max(1, container._BLOCK_BYTES // (
        8 * len(c.keys) * c.grid.n_lat * c.grid.n_lon))
    into = np.empty((min(len(rows), step), len(c.keys)) + c.grid.shape)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        for i, fields in zip(part, c.read(part, out=into[:len(part)])):
            for key, chunk in zip(c.keys, fields):
                mb = float(chunk.mean())
                if not np.isfinite(mb):
                    check_finite(c.path, "values in", chunk[None], [key],
                                 [c.times[i]])
                m2b = float(((chunk - mb) ** 2).sum())
                merged[key] = _merge_moments(*merged[key], chunk.size, mb,
                                             m2b)
    return merged


def compute_stats(c: Container, period: tuple[datetime, datetime] | None = None
                  ) -> NormStats:
    """Mean and standard deviation of each variable-level of container c
    over a period.

    Moments pool every grid point and time step; accumulation is a
    numerically stable streaming merge over time rows, each taken in
    float64, matching a two-pass computation to better than 1e-10
    relative.  Zero variance is an error, and so is a NaN or inf.  The
    time step must be constant; stats.step_hours records it.
    """
    check_nonempty(c)
    stats = NormStats(step_hours=_step_hours(c))
    rows = np.arange(len(c.times))
    if period is not None:
        t0, t1 = ensure_utc(period[0]), ensure_utc(period[1])
        rows = np.array([i for i, t in enumerate(c.times) if t0 <= t <= t1],
                        dtype=np.intp)
        if not len(rows):
            raise ValueError(f"{c.path}: no samples in requested period")
        stats.period = (t0.isoformat(), t1.isoformat())
    for key, (n, mean, m2) in _moments(c, rows).items():
        sigma = float(np.sqrt(m2 / n))
        # rounding noise of an exactly constant field shows up as sigma ~
        # eps * |mean|; reject that as zero variance too, and finite
        # values whose moments overflow
        if not 1e-14 * abs(mean) < sigma < np.inf:
            raise ValueError(f"{c.path}: {key[0]} ({key[1]}): zero "
                             "variance, or moments beyond the float64 "
                             "range, over the period; cannot standardize")
        stats.entries[key] = StatEntry(mu=mean, sigma=sigma)
    return stats


def _check_denominator(denominator: str) -> None:
    if denominator not in ("tendency", "standardized"):
        raise ValueError(
            f"denominator must be 'tendency' or 'standardized', got {denominator!r}")


def _pairwise_sum(fill, start: int, stop: int, leaf: int) -> np.float64:
    """np.add.reduce of the float64 values start..stop of a flat array,
    bit for bit, with at most leaf (>= 128) of them made at once by
    fill(start, stop).

    numpy sums a contiguous array pairwise (Higham 1993): a range of more
    than 128 values splits at n2 = n//2 - (n//2) % 8 and its two halves
    are summed apart and then added.  This recursion takes the same
    splits until a range fits leaf, and np.add.reduce sums that range
    with numpy's own splits."""
    if stop - start <= leaf:
        return np.add.reduce(fill(start, stop))
    half = (stop - start) // 2
    mid = start + half - half % 8
    return (_pairwise_sum(fill, start, mid, leaf)
            + _pairwise_sum(fill, mid, stop, leaf))


def _read_span(c: Container, key, start: int, stop: int, out) -> np.ndarray:
    """out[:stop - start], set to the float64 values of cells start..stop
    of key's values in c flattened row after row, a read per row."""
    width, out = c.grid.n_lat * c.grid.n_lon, out[:stop - start]
    for r in range(start // width, -(-stop // width)):
        lo, hi = max(start, r * width), min(stop, (r + 1) * width)
        c.read(r, key, out[lo - start:hi - start],
               slice(lo - r * width, hi - r * width))
    return out


def _spreads(c: Container, key, e: StatEntry,
             denominator: str) -> tuple[float, float]:
    """(std of the one-step tendency of T' = (T - mu)/sigma, the std xi is
    scaled by: that same one, or std(T') for "standardized"), with T,
    key's values in c.  Each std has the bits np.std of the whole float64
    series would give, but T' is read a block (container._BLOCK_BYTES) of
    cells (and a row more for the tendency) at a time for _pairwise_sum,
    into two reused buffers.  A non-finite tendency std names the first
    time that holds a NaN or inf, if one does (check_rows)."""
    if len(c.times) < 2:
        raise ValueError(
            f"{c.path}: {key[0]} ({key[1]}): need at least 2 time steps for "
            f"the tendency, got {len(c.times)}")
    width = c.grid.n_lat * c.grid.n_lon
    n = len(c.times) * width
    leaf = max(128, container._BLOCK_BYTES // 8)
    series, out = np.empty(min(leaf, n) + width), np.empty(min(leaf, n))

    def standardized(start, stop):
        values = _read_span(c, key, start, stop, series)
        values -= e.mu
        values /= e.sigma
        return values

    def tendency(start, stop):  # as np.diff along time gives, squared
        both = standardized(start, stop + width)
        diff = np.subtract(both[width:], both[:stop - start],
                           out=out[:stop - start])
        diff *= diff
        return diff

    def deviations(start, stop):
        values = standardized(start, stop)
        values -= mean
        values *= values
        return values

    tend = float(np.sqrt(_pairwise_sum(tendency, 0, n - width, leaf)
                         / (n - width)))
    if not 0.0 < tend < np.inf:
        if not np.isfinite(tend):
            check_rows(c, "values in", c.times, keys=[key])
        raise ValueError(f"{c.path}: {key[0]} ({key[1]}): zero or non-finite "
                         "tendency std")
    if denominator != "standardized":
        return tend, tend
    mean = _pairwise_sum(standardized, 0, n, leaf) / n
    return tend, float(np.sqrt(_pairwise_sum(deviations, 0, n, leaf) / n))


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
    compute_residual_coeff with that denominator.  period limits the
    moments only; the tendencies span every time."""
    stats = compute_stats(c, period)
    return (stats if denominator is None
            else compute_residual_coeff(c, stats, denominator))


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

    data maps (variable, level) to an array [365, n_hours, n_lat, n_lon];
    from_container leaves data empty and the bins in the file, container,
    which read() copies them from.  hours lists the hours-of-day present
    (e.g. [0, 6, 12, 18] for 6-hourly data).  Windows are window_days
    wide, Gaussian-weighted with std_days, weights renormalized to sum 1.
    units maps (variable, level) to the units of its input; a key without
    one gets its variable's default.  path is the file from_container
    read, or None.
    """

    grid: GridSpec
    hours: list[int]
    window_days: int
    std_days: float
    data: dict[tuple[str, str], np.ndarray]
    units: dict[tuple[str, str], str] = dc_field(default_factory=dict)
    path: Path | None = None
    container: Container | None = None

    def row(self, when: datetime) -> int:
        """when's bin as a row of data viewed as (365 * len(hours), ...)."""
        when = ensure_utc(when)
        if when.hour not in self.hours:
            raise KeyError(
                f"{self.path or 'climatology'}: no hour-of-day bin for "
                f"{when.hour:02d}Z (available: {self.hours})")
        return ((day_of_year_365(when) - 1) * len(self.hours)
                + self.hours.index(when.hour))

    def read(self, rows, key=None, out=None) -> np.ndarray:
        """Bins at rows (of row()) of key, or of every key, as
        Container.read gives time rows: from the file, if there is one,
        else from data."""
        if self.container is not None:
            return self.container.read(rows, key, out)
        bins = [self.data[k].reshape((-1,) + self.grid.shape)[rows]
                for k in ([key] if key else self.data)]
        bins = bins[0] if key else np.stack(bins, axis=-3)
        out = np.empty(np.shape(bins)) if out is None else out
        np.copyto(out, bins)
        return out

    def values(self, variable: str, level: str, when: datetime) -> np.ndarray:
        return self.read(self.row(when), (variable, level))

    @property
    def keys(self) -> list[tuple[str, str]]:
        return self.container.keys if self.container else list(self.data)

    @property
    def dtype(self) -> np.dtype:  # of the file's bins, float64 for data
        return self.container.dtype if self.container else np.dtype("f8")

    def check_finite(self, keys, times) -> None:
        """check_rows of the bins of times in each of keys: the error
        names the file, the variable and the bin."""
        bins = [f"day {d + 1}, {h:02d}Z" for d in range(365)
                for h in self.hours]
        check_rows(self, "climatology", bins,
                   np.unique([self.row(t) for t in times]), keys)

    def to_container(self, path, dtype: str = "f64") -> None:
        """Store climatology fields as a GVF1 container on a pseudo-year
        axis (see climatology_writer), read and written a bin at a time."""
        variables = [(name, level, self.units.get((name, level),
                                                  default_units(name)))
                     for name, level in self.keys]
        with climatology_writer(path, self.grid, variables, self.hours,
                                self.window_days, self.std_days,
                                dtype=dtype) as put:
            for j, key in enumerate(self.keys):
                for row in range(365 * len(self.hours)):
                    day, hi = divmod(row, len(self.hours))
                    put(j, hi, self.read([row], key), slice(day, day + 1))

    @classmethod
    def from_container(cls, path) -> "Climatology":
        """The climatology a climatology_writer file holds, its bins left
        in the file.  ContainerError names the file, and the key of a
        malformed attrs["climatology"] block, if it has none or a
        malformed one."""
        c = read_container(path)
        meta = c.attrs.get("climatology")
        if meta is None:
            raise ContainerError(
                f"{path}: container has no climatology attrs")
        _check_climatology_attrs(meta, path)
        hours, n_h = meta["hours"], len(meta["hours"])
        if len(c.times) != 365 * n_h:
            raise ValueError(
                f"{path}: expected {365 * n_h} climatology bins, "
                f"got {len(c.times)}")
        return cls(grid=c.grid, hours=hours,
                   window_days=meta["window_days"],
                   std_days=float(meta["std_days"]), data={},
                   units={(name, level): units
                          for name, level, units in c.variables},
                   path=c.path, container=c)


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
    order.  Yields put(j, hi, means, days=slice(0, 365), start=0), which
    writes means[k], the mean of variable j at hours[hi] on the k-th day
    of days (day 1 is 0), to its row in place: an (n_lat, n_lon) field,
    or a run of its cells from flat cell start on.  The file appears at
    path once every bin of every variable is written.
    """
    t0 = datetime(1995, 1, 1, tzinfo=timezone.utc)
    times = [t0 + timedelta(days=d, hours=h)
             for d in range(365) for h in hours]
    attrs = {"climatology": {"window_days": window_days,
                             "std_days": std_days, "hours": hours}}
    with container_writer(path, grid, variables, times, dtype=dtype,
                          attrs=attrs) as write:
        yield lambda j, hi, means, days=slice(0, 365), start=0: write.at(
            range(hi, len(times), len(hours))[days], j, means, start)


def _circular_day_distance(d1, d2, period: int = 365):
    d = np.abs(np.asarray(d1) - np.asarray(d2))
    return np.minimum(d, period - d, out=d)


def climatology_bins(c: Container, window_days: int = 61,
                     gaussian_std_days: float = 10.0):
    """Day-of-year/hour-of-day climatology of container c with
    Gaussian-weighted windows, one (variable, hour of day) at a time, a
    chunk of days and of grid cells at a time.

    For each (day d, hour h) the climatology is the weighted mean over all
    samples at hour h whose circular day-of-year distance from d is at
    most window_days//2, with weights exp(-dd^2 / (2 s^2)), s in days,
    renormalized to sum 1.  Bins with no samples raise, listing (d, h),
    before anything is yielded, and so does an input with no times.

    The means are one matrix product of the [365 days, samples] weights
    and the [samples, cells] samples of a variable at an hour, taken in
    chunks (_climatology_chunks) that each hold a block or two
    (container._BLOCK_BYTES) of float64, however long the time axis: the
    samples a chunk of cells at a time, read from the file straight into
    one buffer (Container.read), and for each the weights a chunk of
    days at a time.  Each chunk of samples is checked for NaN or inf
    (container.check_finite).

    Yields (j, hours, hi, days, cells, means): j is the variable's index
    in c.keys, hours lists the hours of day present, days is a slice of
    range(365) (day 1 is 0), cells a slice of the flattened grid, and
    means the (days, cells) float64 climatology of variable j at
    hours[hi] there.
    """
    if window_days < 1 or window_days % 2 == 0:
        raise ValueError(f"window_days must be odd and positive, got {window_days}")
    if gaussian_std_days <= 0:
        raise ValueError("gaussian_std_days must be positive")
    if not (c.times and c.keys):
        raise ValueError(f"{c.path}: climatology input has no "
                         f"{'times' if c.keys else 'variables'}")
    half = window_days // 2
    hours, samples = _hour_samples(c, half, gaussian_std_days)
    for j, key in enumerate(c.keys):
        for hi, (idx, doys) in enumerate(samples):
            times = [c.times[i] for i in idx]  # of gathered's rows
            day_chunks, cell_chunks = _climatology_chunks(
                len(idx), c.grid.n_lat * c.grid.n_lon)
            width = max(s.stop - s.start for s in cell_chunks)
            buffer = np.empty(len(idx) * width)
            w = None  # made once if it is one chunk of days
            for cells in cell_chunks:
                gathered = c.read(idx, key, buffer[:len(idx) * (
                    cells.stop - cells.start)].reshape(len(idx), -1), cells)
                check_finite(c.path, "values in", gathered, [key], times)
                for days in day_chunks:
                    if w is None or len(day_chunks) > 1:
                        w = _window_weights(doys, days, half,
                                            gaussian_std_days)
                    yield j, hours, hi, days, cells, w @ gathered


def _spans(n: int, width: int, align: int) -> list[slice]:
    """range(n) as the fewest slices of at most width (a multiple of
    align) elements, of near-equal length, each starting at a multiple of
    align."""
    step = -(-n // -(-n // width))
    step += -step % align
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _climatology_chunks(n_samples: int, n_cells: int):
    """(day chunks, cell chunks) of the product of [365, n_samples]
    weights and [n_samples, n_cells] samples, as slices: each chunk of
    weights holds about a block (container._BLOCK_BYTES) of float64 or
    less, and each chunk of samples and of their product about two.  At
    one block the runs of cells read and written, a syscall each, cost
    more than the product (0.5 s against 0.4 s for a 6-hourly year of
    three variables at 64x128).

    The chunks keep OpenBLAS's bits: with every chunk's product far above
    its small-matrix and single-thread sizes, a product of chunks that
    start at multiples of 16 days and of 8 cells equals the whole
    product's entries, but only on a grid of a multiple of 8 cells; on any
    other, the last few cells' sums depend on how OpenBLAS splits the
    whole product, so it is not split."""
    block = container._BLOCK_BYTES // 8
    if n_cells % 8:
        return [slice(0, 365)], [slice(0, n_cells)]
    days = 365 if 365 * n_samples <= block else max(
        16, block // n_samples // 16 * 16)
    cells = max(8, 2 * block // max(n_samples, days) // 8 * 8)
    return _spans(365, days, 16), _spans(n_cells, cells, 8)


def compute_climatology(c: Container, window_days: int = 61,
                        gaussian_std_days: float = 10.0) -> Climatology:
    """The climatology_bins of every variable of container c, gathered
    into a Climatology that keeps each variable's units."""
    data = {}
    for j, hours, hi, days, cells, means in climatology_bins(
            c, window_days, gaussian_std_days):
        if c.keys[j] not in data:
            data[c.keys[j]] = np.empty((365, len(hours)) + c.grid.shape)
        data[c.keys[j]].reshape(365, len(hours), -1)[days, hi, cells] = means
    return Climatology(grid=c.grid, hours=hours, window_days=window_days,
                       std_days=gaussian_std_days, data=data,
                       units={(name, level): units
                              for name, level, units in c.variables})


def _hour_samples(c: Container, half: int, std_days: float):
    """hours present in c.times, and per hour (its time rows, their days
    of year); ValueError, naming the file, listing the (day, hour) bins
    whose window weights are all 0: no sample is within half a window,
    or the nearest one's weight underflows."""
    hours = sorted({t.hour for t in c.times})
    doys = np.array([day_of_year_365(t) for t in c.times])
    t_hours = np.array([t.hour for t in c.times])
    samples, missing = [], []
    for h in hours:
        idx = np.nonzero(t_hours == h)[0]
        samples.append((idx, doys[idx]))
        present = np.zeros(365, dtype=bool)
        present[doys[idx] - 1] = True
        nearest = np.full(365, half + 1)  # circular distance, up to half
        for k in range(half, -1, -1):
            nearest[np.roll(present, k) | np.roll(present, -k)] = k
        empty = (nearest > half) | (np.exp(
            -nearest.astype(float) ** 2 / (2.0 * std_days ** 2)) == 0)
        missing.extend((int(d + 1), h) for d in np.nonzero(empty)[0])
    if missing:
        raise ValueError(
            f"{c.path}: climatology windows without samples at (day, hour): "
            + ", ".join(str(m) for m in missing[:20])
            + ("..." if len(missing) > 20 else ""))
    return hours, samples


def _window_weights(doys, days: slice, half: int, std_days: float):
    """[days, samples] Gaussian window weights, summing to 1 per day, of
    samples on days of year doys, for days, a slice of range(365); made
    in place, a few of its arrays at a time."""
    dd = _circular_day_distance(np.arange(days.start + 1, days.stop + 1)[:, None],
                                doys[None, :])
    far = dd > half
    w = dd.astype(float)
    del dd
    np.square(w, out=w)
    np.negative(w, out=w)
    w /= 2.0 * std_days ** 2
    np.exp(w, out=w)
    w[far] = 0.0
    w /= w.sum(axis=1)[:, None]
    return w
