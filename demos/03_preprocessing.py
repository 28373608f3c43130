#!/usr/bin/env python
# Preprocessing: z-scores, residual normalization, and climatology.
#
# Each variable-level is standardized by training-period moments, then
# rescaled by the residual coefficient xi = std of its standardized
# one-step tendency, geometric-mean-normalized across variables.  Variables
# that vary more in space than in time (think surface pressure) get xi < 1,
# boosting their weight after normalization.

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from spherecast import make_gaussian_grid
from spherecast.container import read_container, write_container
from spherecast.grid import FieldSeries
from spherecast.preprocess import (compute_climatology, compute_residual_coeff,
                                   compute_stats, denormalize, normalize)

# The stages take a GVF1 container; FieldSeries is how arrays held in
# memory get into one.  The directory is removed when the demo exits.
workdir = tempfile.TemporaryDirectory()
tmp = Path(workdir.name)

grid = make_gaussian_grid(16, 32)
t0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
rng = np.random.default_rng(0)

# Two synthetic variables: one fast-evolving, one quasi-static
n = 200
times = [t0 + timedelta(hours=6 * k) for k in range(n)]
fast = rng.normal(size=(n,) + grid.shape) * 5.0 + 280.0
slow_pattern = rng.normal(size=grid.shape) * 900.0
slow = slow_pattern + rng.normal(size=(n,) + grid.shape) * 30.0 + 101325.0

write_container([FieldSeries(grid, "T", "single", times, fast),
                 FieldSeries(grid, "SP", "single", times, slow)],
                tmp / "train.gvf", dtype="f64")
train = read_container(tmp / "train.gvf")

stats = compute_residual_coeff(train, compute_stats(train))
for key in train.keys:
    e = stats.entry(*key)
    print(f"{key[0]:>3}: mu={e.mu:12.2f} sigma={e.sigma:8.2f} xi={e.xi:.4f}")
print("product of xi:", np.prod([stats.entry(*k).xi for k in train.keys]))

# Normalize one field (any (..., n_lat, n_lon) array of T works) and
# invert it
f = train.values(0, "T")
norm = normalize(f, stats, "T", "single")
back = denormalize(norm, stats, "T", "single")
print("normalized field std:", round(norm.std(), 3),
      "| round-trip max error:", np.abs(back - f).max())

# Day-of-year / hour-of-day climatology with a 61-day Gaussian window
two_years = [t0 + timedelta(hours=6 * k) for k in range(4 * 730)]
annual = np.array([-np.cos(2 * np.pi * (t.timetuple().tm_yday / 365.0))
                   for t in two_years])
vals = 280.0 + 10.0 * annual[:, None, None] + \
    rng.normal(size=(len(two_years),) + grid.shape)
write_container([FieldSeries(grid, "T", "single", two_years, vals)],
                tmp / "two_years.gvf", dtype="f64")
clim = compute_climatology(read_container(tmp / "two_years.gvf"),
                           window_days=61, gaussian_std_days=10.0)
jan = clim.values("T", "single", datetime(2020, 1, 15, 0, tzinfo=timezone.utc))
jul = clim.values("T", "single", datetime(2020, 7, 15, 0, tzinfo=timezone.utc))
print("\nclimatology mean: mid-January", round(jan.mean(), 2),
      "K | mid-July", round(jul.mean(), 2), "K")
print("(annual cycle recovered from noisy data; hours:", clim.hours, ")")
