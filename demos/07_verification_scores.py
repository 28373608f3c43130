#!/usr/bin/env python
# Verification: latitude-weighted RMSE and ACC with bootstrap intervals,
# the Murphy skill/ACC consistency check, and spatial correlation matrices.

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from spherecast import make_gaussian_grid
from spherecast.container import read_container, write_container
from spherecast.grid import FieldSeries
from spherecast.preprocess import Climatology
from spherecast.verify import (ForecastSet, acc, rmse,
                               skill_relation_check, spatial_correlation,
                               average_correlations, correlation_difference)

grid = make_gaussian_grid(32, 64)
t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
rng = np.random.default_rng(0)

# Build a toy truth, a damped-forecast model, and a zero climatology
n_init, n_lead = 20, 4
times = [t0 + timedelta(hours=6 * k) for k in range(n_init + n_lead)]
truth = rng.normal(size=(len(times),) + grid.shape)
key = ("Z500", "single")
clim = Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                   std_days=10.0,
                   data={key: np.zeros((365, 4) + grid.shape)})

# The target is a GVF1 container, and one container per initialization,
# tagged with its init time, is the form a forecast takes between a
# rollout and its verification
with tempfile.TemporaryDirectory() as tmp:
    write_container([FieldSeries(grid, "Z500", "single", times, truth)],
                    Path(tmp) / "target.gvf", dtype="f64")
    target = read_container(Path(tmp) / "target.gvf")
    paths = []
    for i in range(n_init):
        vtimes = [times[i] + timedelta(hours=6 * k) for k in range(n_lead + 1)]
        # forecast = damped truth + growing noise, a crude error model
        vals = np.stack([
            (0.95 ** k) * truth[i + k]
            + 0.1 * k * rng.normal(size=grid.shape)
            for k in range(n_lead + 1)])
        paths.append(Path(tmp) / f"init_{i:02d}.gvf")
        write_container([FieldSeries(grid, "Z500", "single", vtimes, vals)],
                        paths[-1], dtype="f64", attrs={
                            "init_time": f"{times[i]:%Y-%m-%dT%H:%M:%SZ}"})

    fs = ForecastSet(paths, target, climatology=clim)

    print("lead   RMSE [95% CI]            ACC [95% CI]")
    for lead in (0, 6, 12, 18, 24):
        r = rmse(fs, "Z500", lead_hours=lead, n_boot=1000, seed=0)
        a = acc(fs, "Z500", lead_hours=lead, n_boot=1000, seed=0)
        print(f"{lead:4d}h  {r.summary.mean:.3f} [{r.summary.ci_low:.3f}, "
              f"{r.summary.ci_high:.3f}]   {a.summary.mean:.3f} "
              f"[{a.summary.ci_low:.3f}, {a.summary.ci_high:.3f}]")

    # The skill score 1 - MSE/MSE_C tracks 2 ACC - 1 when variances match
    rel = skill_relation_check(fs, "Z500", lead_hours=12)
    print("\nskill relation at 12h: mean residual",
          round(float(rel.residual.mean()), 4),
          "(uncorrected arrangement:",
          round(float(rel.printed_residual.mean()), 3), ")")

# Spatial correlation between variables, averaged over times
mats = []
for i in range(5):
    base = rng.normal(size=grid.shape)
    fields = np.stack([base,
                       0.8 * base + 0.6 * rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape)])
    mats.append(spatial_correlation(fields, [("T", "L5"), ("Q", "L5"),
                                             ("U", "L5")], grid))
mean = average_correlations(mats)
print("\nmean spatial correlation matrix over 5 times:")
print(np.round(mean.values, 3))
print("difference from itself (diagonal pinned to 0):")
print(correlation_difference(mean, mean))
