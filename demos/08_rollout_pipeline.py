#!/usr/bin/env python
# The autoregressive rollout harness and the end-to-end file pipeline.
#
# Baseline forecasters (persistence, climatology) run in-process; external
# models plug in through a one-step-per-invocation file protocol:
#
#     cmd --in state.gvf --out next.gvf --step-hours 6
#
# The same flow is scriptable through the command line (spherecast rollout /
# verify); this demo drives it through the Python API plus one CLI call.

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from spherecast import make_gaussian_grid
from spherecast.cli import main
from spherecast.container import read_container, read_scores, write_container
from spherecast.grid import FieldSeries
from spherecast.preprocess import Climatology
from spherecast.rollout import (PipelineStep, RolloutPlan, apply_postprocessing,
                                run_rollout_to_dir)
from spherecast.verify import ForecastSet, acc, rmse

grid = make_gaussian_grid(16, 32)
t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
rng = np.random.default_rng(0)

n_time = 12
times = [t0 + timedelta(hours=6 * k) for k in range(n_time)]
vals = rng.normal(size=(n_time,) + grid.shape).astype(np.float32)
clim = Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                   std_days=10.0,
                   data={("T", "single"): np.zeros((365, 4) + grid.shape)})

# Post-processing pipelines run between autoregressive steps, in place
state = {("Q", "single"): rng.normal(size=grid.shape) * 1e-7}
before = state[("Q", "single")].min()
steps = [PipelineStep(kind="clamp_nonnegative", variables=("Q",)),
         PipelineStep(kind="laplacian_diffuse",
                      params={"nu_dt": 1e-5, "steps": 1})]
apply_postprocessing(state, steps, grid)
print("pipeline [clamp, diffuse]: min before", f"{before:.1e}",
      "after", f"{state[('Q', 'single')].min():.1e}")

# Persistence: the initial state repeated at every lead, bit-identical.
# A rollout writes one container per initialization; verification reads
# them back, in the Python API or through the CLI.  The initial states,
# which also serve as the verifying target, are one GVF1 container.
plan = RolloutPlan(init_times=times[:4], step_hours=6, max_lead_hours=24)
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    target_path = tmp / "target.gvf"
    write_container([FieldSeries(grid, "T", "single", times, vals)],
                    target_path, dtype="f32")
    states = read_container(target_path)
    fc_dir = tmp / "forecasts"
    paths = run_rollout_to_dir(plan, states, fc_dir)
    print("\nwrote", len(paths), "per-initialization forecast containers")

    fs = ForecastSet(paths, states, climatology=clim)
    print("persistence scores by lead:")
    for lead in plan.leads:
        r = rmse(fs, "T", lead_hours=lead, n_boot=200, seed=0)
        a = acc(fs, "T", lead_hours=lead, n_boot=200, seed=0)
        print(f"  {lead:3d}h: RMSE {r.summary.mean:.3f}  "
              f"ACC {a.summary.mean:+.3f}")
    print("(lead 0 is exact by construction: RMSE 0, ACC 1)")

    clim_path = tmp / "clim.gvf"
    clim.to_container(clim_path)
    scores = tmp / "scores.csv"
    code = main(["verify", "--forecast-dir", str(fc_dir),
                 "--target", str(target_path),
                 "--climatology", str(clim_path),
                 "--output", str(scores), "--bootstrap", "500", "--seed", "1"])
    print("CLI verify exit code:", code)
    for rec in read_scores(scores)[:4]:
        print(f"  {rec.variable} {rec.metric:>4} lead {rec.lead_hours:3d}h: "
              f"{rec.value:.4f} [{rec.ci_low:.4f}, {rec.ci_high:.4f}] "
              f"n={rec.n_inits}")
