"""GVF1 gridded-data container and score-table output formats.

A GVF1 file is an 8-byte little-endian header length, a UTF-8 JSON header
(newline-terminated) and a contiguous little-endian float payload ordered
time-major, then variable, then latitude (north to south), then longitude.
The format is dependency-free and round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .grid import (
    FieldSeries,
    GridSpec,
    ensure_utc,
    make_equiangular_grid,
    make_gaussian_grid,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "ContainerError",
    "Container",
    "atomic_write",
    "check_agreement",
    "check_finite",
    "check_nonempty",
    "check_rows",
    "container_writer",
    "read_keys",
    "ScoreRecord",
    "read_container",
    "write_container",
    "write_scores",
    "read_scores",
]

MAGIC = "GVF1"
VERSION = 1

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class ContainerError(IOError):
    """Structural problem in a GVF1 file (magic, dtype, truncation...)."""


def _format_time(t: datetime) -> str:
    return ensure_utc(t).strftime("%Y-%m-%dT%H:%M:%SZ")


_TIME = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
                   r"T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


def _parse_time(s: str) -> datetime:
    """The UTC time of a string in the one form _format_time writes."""
    match = _TIME.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"{s!r} is not a YYYY-MM-DDTHH:MM:SSZ time")
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


def _grid_to_json(grid: GridSpec) -> dict:
    return {"kind": grid.kind, "n_lat": grid.n_lat, "n_lon": grid.n_lon,
            "lon_origin": grid.lon_origin}


def _grid_size(spec: dict, path: Path) -> tuple[int, int]:
    """(n_lat, n_lon) of a header's grid object, each a positive JSON
    integer."""
    if not isinstance(spec, dict):
        raise ContainerError(f"{path}: header grid is not a JSON object")
    size = spec["n_lat"], spec["n_lon"]
    if not all(type(n) is int and n > 0 for n in size):
        raise ContainerError(f"{path}: invalid header: grid n_lat and n_lon "
                             f"must be positive integers, got {size[0]!r} "
                             f"and {size[1]!r}")
    return size


# latitudes of the largest gaussian grid a header may declare: its
# Gauss-Legendre nodes take O(n_lat ** 2) to find (0.14 s at 2048), and a
# header-only file has no payload to bound them
_MAX_GAUSSIAN_LAT = 2048


def _grid_from_json(spec: dict, path: Path) -> GridSpec:
    kind = spec.get("kind")
    if kind == "gaussian" and spec["n_lat"] > _MAX_GAUSSIAN_LAT:
        raise ContainerError(
            f"{path}: invalid header: a gaussian grid may have at most "
            f"{_MAX_GAUSSIAN_LAT} latitudes, got {spec['n_lat']}")
    if kind == "gaussian":
        return make_gaussian_grid(spec["n_lat"], spec["n_lon"],
                                  lon_origin=spec.get("lon_origin", 0.0))
    if kind == "equiangular":
        return make_equiangular_grid(spec["n_lat"], spec["n_lon"],
                                     lon_origin=spec.get("lon_origin", 0.0))
    raise ContainerError(f"{path}: unknown grid kind {kind!r} in header")


class Container:
    """Lazy reader over one GVF1 file.

    The header is validated up front (magic, version, dtype, payload
    length); read() copies time rows of the payload with os.preadv into
    an array the caller holds, so nothing of the file is mapped or kept.
    The file stays open, as one descriptor, until the Container is
    collected.  Multiple readers on one file are safe.
    """

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.exists():
            raise ContainerError(f"{self.path}: no such file")
        self._fd = os.open(self.path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)
        size = os.fstat(self._fd).st_size
        if size < 8:
            raise ContainerError(
                f"{self.path}: file too short for header length prefix "
                f"({size} < 8 bytes)")
        header_len = int.from_bytes(os.pread(self._fd, 8, 0), "little")
        if size < 8 + header_len:
            raise ContainerError(
                f"{self.path}: declared header length {header_len} "
                f"exceeds file size {size}")
        raw = os.pread(self._fd, header_len, 8)
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"{self.path}: malformed header JSON: {exc}")
        if not isinstance(header, dict):
            raise ContainerError(f"{self.path}: header is not a JSON object")
        if header.get("magic") != MAGIC:
            raise ContainerError(
                f"{self.path}: magic mismatch: expected {MAGIC!r}, "
                f"got {header.get('magic')!r}")
        if header.get("version") != VERSION:
            raise ContainerError(
                f"{self.path}: unsupported version {header.get('version')!r}")
        if not (isinstance(header.get("dtype"), str)
                and header["dtype"] in _DTYPES):
            raise ContainerError(
                f"{self.path}: unsupported dtype {header.get('dtype')!r}")

        self.header = header
        self.dtype = _DTYPES[header["dtype"]]
        self.dtype_name = header["dtype"]
        try:
            n_lat, n_lon = _grid_size(header["grid"], self.path)
            self.times = [_parse_time(s) for s in header["time_axis"]]
            self.variables = [(v["name"], v.get("level", "single"),
                               v.get("units", "1"))
                              for v in header["variables"]]
        except KeyError as exc:
            raise ContainerError(f"{self.path}: header lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ContainerError(f"{self.path}: invalid header: {exc}") from None
        self.attrs = header.get("attrs", {})
        if not isinstance(self.attrs, dict):
            raise ContainerError(
                f"{self.path}: header attrs is not a JSON object")

        if not all(isinstance(part, str) for variable in self.variables
                   for part in variable):
            raise ContainerError(f"{self.path}: a variable's name, level or "
                                 "units is not a string")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ContainerError(
                f"{self.path}: time axis is not strictly increasing")
        keys = [(n, l) for n, l, _ in self.variables]
        if len(set(keys)) != len(keys):
            raise ContainerError(
                f"{self.path}: duplicate (variable, level) in header")

        # the payload size is checked before the grid, whose Gauss-Legendre
        # nodes cost O(n_lat ** 2) to find, is built
        self._offset = 8 + header_len
        n_time, n_var = len(self.times), len(self.variables)
        expected = (self._offset
                    + n_time * n_var * n_lat * n_lon * self.dtype.itemsize)
        if size != expected:
            raise ContainerError(
                f"{self.path}: payload truncated or padded: file is "
                f"{size} bytes, expected {expected} for {n_time} times x "
                f"{n_var} variables x n_lat {n_lat} x n_lon {n_lon} "
                f"(payload starts at offset {self._offset})")
        try:
            self.grid = _grid_from_json(header["grid"], self.path)
        except (TypeError, ValueError) as exc:
            raise ContainerError(
                f"{self.path}: invalid header: {exc}") from None
        self._stride = n_var * n_lat * n_lon * self.dtype.itemsize
        self._stage = np.empty(0, dtype=self.dtype)  # see read

    @property
    def keys(self) -> list[tuple[str, str]]:
        return [(n, l) for n, l, _ in self.variables]

    @property
    def init_time(self) -> datetime | None:
        """attrs["init_time"], with which a rollout tags each forecast
        container, or None if there is none."""
        text = self.attrs.get("init_time")
        try:
            return _parse_time(text) if text else None
        except ValueError as exc:
            raise ContainerError(
                f"{self.path}: attrs init_time: {exc}") from None

    def index(self, variable: str, level: str = "single") -> int:
        """Position of (variable, level) in the variable list."""
        try:
            return self.keys.index((variable, level))
        except ValueError:
            raise KeyError(
                f"{self.path}: variable {variable!r} level {level!r} "
                "not in container") from None

    def read(self, rows, key=None, out=None, cells=None) -> np.ndarray:
        """Time rows (an index, a slice or a sequence of indices) of key,
        or of every variable, or cells (a slice of step 1 of the flat
        grid) of key's fields, copied into out (a new float64 array by
        default): ([rows,] [variable,] n_lat, n_lon) or ([rows,] cells).
        Each row of key, or run of consecutive rows of every variable, is
        one os.preadv straight into an out C-contiguous in the file's
        dtype.  Any other out is filled through one reused staging array
        of the file's dtype of at most _CAST_BYTES, and cast: as many
        whole rows as fit, or a row larger than that in runs of whole
        fields, lines or cells (_runs), each one os.preadv.  A short read
        raises ContainerError naming the file and the row."""
        one = isinstance(rows, (int, np.integer))
        if one or isinstance(rows, slice):
            rows = range(len(self.times))[rows]
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        if len(rows) and not 0 <= rows.min() <= rows.max() < len(self.times):
            raise IndexError(f"{self.path}: time rows {rows.min()}.."
                             f"{rows.max()} outside 0..{len(self.times) - 1}")
        rows = rows.tolist()
        first = self._offset
        if key is None:
            shape = (len(self.variables),) + self.grid.shape
        else:
            n_cells = self.grid.n_lat * self.grid.n_lon
            span = range(n_cells)[cells or slice(None)]
            first += (self.index(*key) * n_cells + span.start) * (
                self.dtype.itemsize)
            shape = self.grid.shape if cells is None else (len(span),)
        if out is None:
            out = np.empty(shape if one else (len(rows),) + shape)
        into = out[None] if one else out  # a view with a row axis
        if into.shape != (len(rows),) + shape:
            raise ValueError(f"{self.path}: out has shape {out.shape}, not "
                             f"{shape if one else (len(rows),) + shape}")
        if out.dtype == self.dtype and out.flags.c_contiguous:
            self._pread(rows, first, into)
            return out
        size = math.prod(shape)
        cap = max(1, _CAST_BYTES // self.dtype.itemsize)
        if len(self._stage) < min(cap, len(rows) * size):
            self._stage = np.empty(min(cap, len(rows) * size), self.dtype)
        for start, index in _runs(into.shape, cap):
            dest = into[index]
            if len(index) == 1:  # whole rows
                part, cell = rows[index[0]], 0
            else:  # a run of one row's cells
                part, cell = rows[index[0]:index[0] + 1], start % size
            dest[...] = self._pread(
                part, first + cell * self.dtype.itemsize,
                self._stage[:dest.size].reshape(dest.shape))
        return out

    def _pread(self, rows, first: int, dest: np.ndarray) -> np.ndarray:
        """dest, C-contiguous in the file's dtype, with its i-th of
        len(rows) equal parts read from the bytes at first + rows[i] *
        stride, rows a list of ints; rows that lie end to end in the file
        (whole rows of every variable) go in one preadv."""
        mem = dest.reshape(-1).view(np.uint8)
        unit = len(mem) // max(1, len(rows))
        cuts = ([i for i in range(1, len(rows)) if rows[i] != rows[i - 1] + 1]
                if unit == self._stride else range(1, len(rows)))
        bounds = [0, *cuts, len(rows)] if rows else []
        for start, stop in zip(bounds, bounds[1:]):
            lo, hi = start * unit, stop * unit
            at = first + rows[start] * self._stride - lo  # of mem[0]
            while lo < hi:
                got = os.preadv(self._fd, [mem[lo:hi]], at + lo)
                if not got:
                    raise ContainerError(
                        f"{self.path}: short read at time row "
                        f"{rows[start] + (lo - start * unit) // unit}")
                lo += got
        return dest

    def values(self, time_index, variable: str, level: str = "single"):
        """The float64 read of time_index of one variable."""
        return self.read(time_index, (variable, level))

    def series(self, variable: str, level: str = "single") -> FieldSeries:
        """Every time of one variable as a float64 FieldSeries (read)."""
        j = self.index(variable, level)
        return FieldSeries(self.grid, variable, level, self.times,
                           self.read(slice(None), (variable, level)),
                           units=self.variables[j][2])


def _grid_name(grid: GridSpec) -> str:
    origin = f" from lon {grid.lon_origin:g}" if grid.lon_origin else ""
    return f"{grid.kind} {grid.n_lat}x{grid.n_lon}{origin}"


def check_agreement(other, keys, grid: GridSpec | None = None,
                    exact: bool = False) -> None:
    """Raise ValueError unless other, the second file a stage reads (a
    Container, a Climatology or NormStats), is on grid, if one is given,
    and holds every (variable, level) of keys, those the first file needs
    from it; with exact, it may hold no others.  The error names other's
    file (its type when it has no path) and the two grids or the first
    key that differs.  Only headers are compared."""
    where = other.path or type(other).__name__.lower()
    if grid is not None and other.grid != grid:
        raise ValueError(f"{where}: grid {_grid_name(other.grid)}, expected "
                         f"{_grid_name(grid)}")
    keys, theirs = list(keys), other.keys
    absent = ([("no", k) for k in keys if k not in theirs]
              + [("unexpected", k) for k in theirs if exact and k not in keys])
    if absent:
        word, (name, level) = absent[0]
        raise ValueError(f"{where}: {word} variable {name} ({level})")


# bytes of one block: a stage reads at most this much of a file at once,
# as float64 (cli._row_blocks) or in the file's dtype (check_rows)
_BLOCK_BYTES = 1 << 21

# bytes of the one buffer through which Container.read casts what it reads
# and a writer casts what it writes, whatever the size of a row or field
_CAST_BYTES = 1 << 18


def _runs(shape, cap: int):
    """(first flat cell, index) of each run of an array of shape, in C
    order: the whole array if it fits in cap cells, else as many whole
    items as fit of the outermost axis whose items fit (on the last axis
    an item is a cell).  Each run is one contiguous span of the flat
    cells."""
    inner = math.prod(shape)
    if inner <= cap:
        if inner:
            yield 0, (slice(None),)
        return
    for axis, n in enumerate(shape):
        inner //= n
        if inner <= cap:
            break
    k = min(n, cap // inner)  # items of axis per run
    for i, outer in enumerate(np.ndindex(*shape[:axis])):
        for a in range(0, n, k):
            yield (i * n + a) * inner, outer + (slice(a, a + k),)


def check_finite(where, what: str, values, keys, when, rows=None) -> None:
    """Raise ValueError, `<where>: non-finite <what> <name> (<level>) at
    <when[row]>` (a datetime in isoformat), at the first of rows (default
    all) of values, a (time, [variable,] n_lat, n_lon) stack of keys,
    that holds a NaN or inf.  Each run of consecutive rows is checked in
    one call."""
    rows = np.asarray(range(len(values)) if rows is None else rows,
                      dtype=np.intp)
    if not (len(rows) and keys):
        return
    for run in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1):
        finite = np.isfinite(values[run[0]:run[-1] + 1]).reshape(
            len(run), len(keys), -1).all(axis=-1)  # (row, variable)
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), len(keys))
            label, (name, level) = when[run[i]], keys[j]
            if isinstance(label, datetime):
                label = label.isoformat()
            raise ValueError(f"{where}: non-finite {what} {name} "
                             f"({level}) at {label}")


def check_rows(source, what: str, when, rows=None, keys=None) -> None:
    """check_finite of source's (a Container's or a Climatology's) time
    rows (default all) of keys (default all), labelled by when[row], read
    a block (_BLOCK_BYTES) at a time into one array of source's dtype: a
    value is finite in it exactly when it is in float64."""
    keys = source.keys if keys is None else list(keys)
    rows = np.arange(len(when)) if rows is None else np.asarray(rows)
    if not (len(rows) and keys):
        return
    shape = (len(keys),) + source.grid.shape
    step = min(len(rows), max(1, _BLOCK_BYTES // (
        math.prod(shape) * source.dtype.itemsize)))
    into = np.empty((step,) + shape, source.dtype)
    where = source.path or type(source).__name__.lower()
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        check_finite(where, what, read_keys(source, part, keys,
                                            into[:len(part)]),
                     keys, [when[row] for row in part])


def read_keys(source, rows, keys, out) -> np.ndarray:
    """out, a ([rows,] keys, n_lat, n_lon) stack, set to source's (as in
    check_rows) rows of keys: one read when source holds just keys, in
    that order, else one per key."""
    if list(keys) == source.keys:
        return source.read(rows, None, out)
    for j, key in enumerate(keys):
        source.read(rows, key, out[..., j, :, :])
    return out


def check_nonempty(c: Container, times: bool = True) -> None:
    """ValueError naming c's file unless it has a variable (and a time)."""
    if not (c.keys and (c.times or not times)):
        raise ValueError(f"{c.path}: no {'times' if c.keys else 'variables'}")


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a new temp file beside path for writing (mode "w" or "wb");
    when the block ends it replaces path.  If the block fails the temp
    file is removed and whatever was at path is left untouched, so no
    reader ever sees a partial file."""
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path) -> Container:
    """Open a GVF1 file; header is validated before any payload access."""
    return Container(path)


class _Writer:
    """The write calls that container_writer yields; see there."""

    def __init__(self, fh, path, grid: GridSpec, variables, times,
                 np_dtype, offset: int):
        self._fh, self._path, self._grid = fh, path, grid
        self._variables, self._times = variables, times
        self._dtype, self._offset = np_dtype, offset
        self._size = grid.n_lat * grid.n_lon
        self._filled = np.zeros((len(times), len(variables)), dtype=np.intp)
        self._next = 0
        self._buf = np.empty(0, dtype=np_dtype)  # see _cast

    def _cast(self, values, row: int, j: int) -> np.ndarray:
        """values, a run (_runs) of at most _CAST_BYTES of the file's
        dtype of a field of variable j at time row, cast to that dtype in
        one buffer that the next cast overwrites; a finite float64 value
        that becomes inf in an f32 cast raises (at() calls this with
        numpy's overflow warning off)."""
        if len(self._buf) < values.size:
            self._buf = np.empty(values.size, self._dtype)
        out = self._buf[:values.size].reshape(values.shape)
        np.copyto(out, values, casting="unsafe")
        if (values.dtype != np.float64 or self._dtype.itemsize == 8
                or math.isfinite(out.max()) and math.isfinite(out.min())):
            return out
        # an inf or a NaN: an overflow if a finite value became inf
        inf = np.isinf(out)
        if inf.any() and np.isfinite(values[inf]).any():
            name, level, _ = self._variables[j]
            raise ValueError(
                f"{self._path}: {name} ({level}) at "
                f"{_format_time(self._times[row])}: finite values beyond "
                "the f32 range")
        return out

    def __call__(self, block) -> None:
        """Write block, one (k, n_lat, n_lon) array per variable in file
        order, as the next k time rows."""
        block = [np.asarray(values) for values in block]
        k = len(block[0]) if block else 0
        if (len(block) != len(self._variables)
                or any(v.shape != (k,) + self._grid.shape for v in block)):
            raise ValueError(
                f"{self._path}: a block needs one (k, {self._grid.n_lat}, "
                f"{self._grid.n_lon}) array per variable "
                f"({len(self._variables)}), got shapes "
                f"{[v.shape for v in block]}")
        if self._next + k > len(self._times):
            raise ValueError(
                f"{self._path}: more than {len(self._times)} time rows written")
        for j, values in enumerate(block):
            self.at(range(self._next, self._next + k), j, values)
        self._next += k

    def at(self, rows, j: int, values, start: int = 0) -> None:
        """Write values[i], an (n_lat, n_lon) field of variable j or, from
        flat cell start of that field on, a 1-D run of its cells, at time
        row rows[i], in place, for each i."""
        values = np.asarray(values)
        if len(rows) != len(values):
            raise ValueError(
                f"{self._path}: {len(rows)} rows for {len(values)} fields")
        if not (0 <= j < len(self._variables)
                and all(0 <= row < len(self._times) for row in rows)):
            raise ValueError(
                f"{self._path}: no cell for variable {j} at rows {rows}")
        shape = values.shape[1:]
        if not (shape == self._grid.shape and start == 0
                or len(shape) == 1 and 0 <= start
                and start + shape[0] <= self._size):
            raise ValueError(f"{self._path}: a field needs shape "
                             f"{self._grid.shape}, or a run of at most "
                             f"{self._size} cells from cell {start}, got "
                             f"{shape}")
        size = self._dtype.itemsize
        field = self._offset + (j * self._size + start) * size
        stride = len(self._variables) * self._size * size
        cap = max(1, _CAST_BYTES // size)
        with np.errstate(over="ignore"):  # _cast raises on an f32 overflow
            for row, cells in zip(rows, values):
                self._fh.seek(field + row * stride)
                if cells.dtype == self._dtype and cells.flags.c_contiguous:
                    self._fh.write(cells)
                    continue
                for _, index in _runs(cells.shape, cap):
                    self._fh.write(self._cast(cells[index], row, j))
        self._filled[list(rows), j] += math.prod(shape)

    def check_complete(self) -> None:
        """Raise, naming the first one, unless every cell is written
        (runs of cells are taken to be written once each)."""
        done = self._filled >= self._size
        rows = done.all(axis=1)
        if not rows.all():
            row = int(np.argmin(rows))
            name, level, _ = self._variables[int(np.argmin(done[row]))]
            raise ValueError(
                f"{self._path}: {int(rows.sum())} of {len(self._times)} time "
                f"rows written; {name} ({level}) at "
                f"{_format_time(self._times[row])} is not")


@contextmanager
def container_writer(path, grid: GridSpec, variables, times,
                     dtype: str = "f32", attrs: dict | None = None):
    """Write a GVF1 file a block or a bin at a time.

    variables lists (name, level, units) in file order.  Yields a writer
    with two calls: write(block), where block holds, per variable in that
    order, a (k, n_lat, n_lon) array for the next k times, and
    write.at(rows, j, values, start=0), which puts values[i] of variable j
    at time row rows[i] wherever that row lies in the file: a whole field,
    or a run of cells from flat cell start on.  Each field is written as
    it comes, so no more than one block is ever held; one that is not
    C-contiguous in dtype is cast in runs of at most _CAST_BYTES through
    one buffer, and a finite float64 value beyond the f32 range raises
    ValueError naming the variable and time.  The file appears at path
    only once every (time, variable) cell is written.
    """
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "grid": _grid_to_json(grid),
        "variables": [{"name": name, "level": level, "units": units}
                      for name, level, units in variables],
        "time_axis": [_format_time(t) for t in times],
        "dtype": dtype,
        "attrs": attrs or {},
    }
    raw = (json.dumps(header, sort_keys=False) + "\n").encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(len(raw).to_bytes(8, "little"))
        fh.write(raw)
        writer = _Writer(fh, path, grid, list(variables), list(times),
                         _DTYPES[dtype], 8 + len(raw))
        yield writer
        writer.check_complete()


def write_container(series_map, path, dtype: str = "f32",
                    attrs: dict | None = None) -> None:
    """Write FieldSeries sharing one grid and time axis to a GVF1 file.

    series_map: mapping (variable, level) -> FieldSeries, or a list of
    FieldSeries.  Variable order in the file follows the input order.
    The payload is written one time row at a time.
    """
    if isinstance(series_map, dict):
        series_list = list(series_map.values())
    else:
        series_list = list(series_map)
    if not series_list:
        raise ValueError("nothing to write: empty series collection")
    grid = series_list[0].grid
    times = series_list[0].times
    for s in series_list[1:]:
        if s.grid != grid:
            raise ValueError(
                f"mixed grids: {s.variable} ({s.level}) is on a different grid")
        if s.times != times:
            raise ValueError(
                f"mixed time axes: {s.variable} ({s.level}) differs")
    variables = [(s.variable, s.level, s.units) for s in series_list]
    with container_writer(path, grid, variables, times, dtype=dtype,
                          attrs=attrs) as write:
        write([s.values for s in series_list])


@dataclass(frozen=True)
class ScoreRecord:
    """One verification score: (variable, lead, metric) with bootstrap CI."""

    variable: str
    lead_hours: int
    metric: str
    value: float
    ci_low: float
    ci_high: float
    n_inits: int

    def __post_init__(self):
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValueError(
                f"{self.variable} {self.metric} at {self.lead_hours}h: "
                f"value {self.value} outside CI [{self.ci_low}, {self.ci_high}]")


_SCORE_COLUMNS = ["variable", "lead_hours", "metric", "value", "ci_low",
                  "ci_high", "n_inits"]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_scores(records, path, format: str = "csv") -> None:
    """Write score records sorted by (variable, lead_hours, metric).

    CSV columns are exactly variable,lead_hours,metric,value,ci_low,
    ci_high,n_inits with floats at 9 significant digits; jsonl writes one
    record object per line in the same order.
    """
    records = sorted(records, key=lambda r: (r.variable, r.lead_hours, r.metric))
    if not records:
        raise ValueError("no score records to write")
    if format == "csv":
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_SCORE_COLUMNS)
            for r in records:
                writer.writerow([r.variable, r.lead_hours, r.metric,
                                 _fmt(r.value), _fmt(r.ci_low), _fmt(r.ci_high),
                                 r.n_inits])
    elif format == "jsonl":
        with atomic_write(path) as fh:
            for r in records:
                fh.write(json.dumps({
                    "variable": r.variable, "lead_hours": r.lead_hours,
                    "metric": r.metric, "value": float(_fmt(r.value)),
                    "ci_low": float(_fmt(r.ci_low)),
                    "ci_high": float(_fmt(r.ci_high)),
                    "n_inits": r.n_inits}) + "\n")
    else:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")


def read_scores(path, format: str = "csv") -> list[ScoreRecord]:
    """Parse a score file written by write_scores."""
    path = Path(path)
    out = []
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != _SCORE_COLUMNS:
                raise ContainerError(
                    f"{path}: unexpected score columns {reader.fieldnames}")
            for row in reader:
                out.append(ScoreRecord(
                    variable=row["variable"], lead_hours=int(row["lead_hours"]),
                    metric=row["metric"], value=float(row["value"]),
                    ci_low=float(row["ci_low"]), ci_high=float(row["ci_high"]),
                    n_inits=int(row["n_inits"])))
    elif format == "jsonl":
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                out.append(ScoreRecord(**d))
    else:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")
    return out
