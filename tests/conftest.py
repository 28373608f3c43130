import os
import tempfile
from datetime import datetime, timedelta, timezone
from functools import reduce

import numpy as np
import pytest

from spherecast import make_gaussian_grid, solar
from spherecast.container import read_container, write_container
from spherecast.grid import FieldSeries
from spherecast.solar import solar_constant_at, sun_ephemeris

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


@pytest.fixture(scope="session")
def grid16():
    return make_gaussian_grid(16, 32)


@pytest.fixture(scope="session")
def grid32():
    return make_gaussian_grid(32, 64)


@pytest.fixture(scope="session")
def grid64():
    return make_gaussian_grid(64, 128)


def make_series(grid, variable="T", level="single", n_time=4, step_hours=6,
                seed=0, start=T0, values=None):
    """Random FieldSeries on the given grid, deterministic per seed."""
    rng = np.random.default_rng(seed)
    if values is None:
        values = rng.normal(size=(n_time,) + grid.shape)
    times = [start + timedelta(hours=step_hours * k) for k in range(n_time)]
    return FieldSeries(grid, variable, level, times, values)


def as_container(directory, *series):
    """series, FieldSeries on one grid and time axis, written bit for bit
    to a new f64 GVF1 file in directory, and opened."""
    fd, path = tempfile.mkstemp(suffix=".gvf", dir=directory)
    os.close(fd)
    write_container(series, path, dtype="f64")
    return read_container(path)


def make_spectrum_fixture(path):
    """Deterministic 2-time, 1-variable container for the spectrum golden test.

    Written as f64 so the committed golden values are exact to the
    independent oracle that produced them.
    """
    grid = make_gaussian_grid(16, 32)
    series = make_series(grid, "Z500", "single", n_time=2, seed=2024)
    write_container({series.key: series}, path, dtype="f64")
    return grid, series


def fail_writes_after(monkeypatch, n_writes):
    """Make every file that spherecast.container opens for writing fail
    like a full disk after n_writes successful write calls."""
    from spherecast import container

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes > n_writes:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def seek(self, *args):
            return self.fh.seek(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return fh if "r" in mode else FailingFile(fh)

    monkeypatch.setattr(container, "open", failing_open, raising=False)


def stacked_window(start, window_hours, grid, config):
    """Oracle: one full grid per minute, 60 stacked and summed per hour,
    hours summed in order."""
    def minute_grid(t):
        decl, eot, dist = sun_ephemeris(t)
        gsc = solar_constant_at(t, config)
        utc_minutes = t.hour * 60.0 + t.minute + t.second / 60.0
        tst = utc_minutes + eot + 4.0 * grid.longitudes
        ha = np.radians((tst / 4.0 - 180.0 + 180.0) % 360.0 - 180.0)
        phi = np.radians(grid.latitudes)[:, None]
        cosz = (np.sin(phi) * np.sin(decl)
                + np.cos(phi) * np.cos(decl) * np.cos(ha)[None, :])
        return np.maximum(gsc / (dist * dist) * cosz, 0.0)

    hours = [np.stack([minute_grid(start + timedelta(hours=h, minutes=k))
                       for k in range(60)]).sum(axis=0) * solar.MINUTE_SECONDS
             for h in range(window_hours)]
    return reduce(np.add, hours)
