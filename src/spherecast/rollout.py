"""Autoregressive forecast harness.

Built-in baselines: persistence repeats the initial state at every lead
(bit-identical, no numeric transform touches the values), and climatology
looks up the day-of-year/hour-of-day mean for each valid time.  External
forecasters are driven through a file protocol, one step per invocation:

    cmd --in <state.gvf> --out <next.gvf> --step-hours N

The command must exit 0 and write a GVF1 container on the input grid with
one time step, within _EXTERNAL_TIMEOUT_S; the harness validates the output
header, applies the configured post-processing pipeline, and feeds the
state back in.  An identity command therefore reproduces persistence
bit-exactly (states are written in the dtype they were read in).
"""

from __future__ import annotations

import subprocess
import tempfile
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .container import read_container, write_container, _format_time
from .filters import (DiffusionSpec, PoleFilterSpec, diffuse_values,
                      pole_filter_values)
from .grid import FieldSeries, ensure_utc
from .preprocess import Climatology, clamp_nonnegative_values
from .verify import ForecastSet

__all__ = [
    "RolloutPlan",
    "PipelineStep",
    "run_rollout",
    "run_rollout_to_dir",
    "write_forecast_dir",
    "apply_postprocessing",
    "ExternalForecasterError",
]

FORECASTERS = ("persistence", "climatology", "external")

# Limit on one external step; on expiry only the direct child is killed.
_EXTERNAL_TIMEOUT_S = 3600.0


class ExternalForecasterError(RuntimeError):
    """External command failed or produced an unusable state file."""


@dataclass(frozen=True)
class PipelineStep:
    """One post-processing operator applied between autoregressive steps.

    kind is one of clamp_nonnegative / laplacian_diffuse / pole_filter;
    params feed the operator spec; variables optionally restricts which
    variables are touched.
    """

    kind: str
    params: dict = dc_field(default_factory=dict)
    variables: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("clamp_nonnegative", "laplacian_diffuse",
                             "pole_filter"):
            raise ValueError(f"unknown pipeline step {self.kind!r}")

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.params.items())),
                     self.variables))


@dataclass
class RolloutPlan:
    """Initialization times, step, horizon, and the forecaster to run."""

    init_times: list[datetime]
    step_hours: int
    max_lead_hours: int
    forecaster: str = "persistence"
    external_command: list[str] | None = None
    postprocess: list[PipelineStep] = dc_field(default_factory=list)
    state_dtype: str = "f32"

    def __post_init__(self):
        if self.step_hours not in (1, 6):
            raise ValueError(f"step_hours must be 1 or 6, got {self.step_hours}")
        if self.max_lead_hours % self.step_hours:
            raise ValueError(
                f"max_lead_hours={self.max_lead_hours} not a multiple of "
                f"step_hours={self.step_hours}")
        if self.forecaster not in FORECASTERS:
            raise ValueError(
                f"forecaster must be one of {FORECASTERS}, got "
                f"{self.forecaster!r}")
        if self.forecaster == "external" and not self.external_command:
            raise ValueError("external forecaster requires a command")
        self.init_times = [ensure_utc(t) for t in self.init_times]

    @property
    def n_steps(self) -> int:
        return self.max_lead_hours // self.step_hours

    @property
    def leads(self) -> list[int]:
        return [k * self.step_hours for k in range(self.n_steps + 1)]


def apply_postprocessing(state: dict, pipeline: list[PipelineStep],
                         grid) -> dict:
    """Apply pipeline steps in order to a {(var, level): values} state.

    An empty pipeline returns the state object unchanged (identity, no
    copies), so baselines that configure no post-processing stay
    bit-identical to their inputs.
    """
    if not pipeline:
        return state
    out = dict(state)
    for step in pipeline:
        for key in out:
            if step.variables is not None and key[0] not in step.variables:
                continue
            if step.kind == "clamp_nonnegative":
                out[key] = clamp_nonnegative_values(
                    out[key], step.params.get("floor", 1e-8))
            elif step.kind == "laplacian_diffuse":
                spec = DiffusionSpec(nu_dt=step.params["nu_dt"],
                                     steps=step.params.get("steps", 1))
                out[key] = diffuse_values(out[key], grid, spec)
            elif step.kind == "pole_filter":
                spec = PoleFilterSpec(
                    start_lat=step.params["start_lat"],
                    reference_lat=step.params.get("reference_lat"))
                out[key] = pole_filter_values(out[key], grid, spec)
    return out


def _state_to_series(state: dict, grid, when: datetime, units: dict) -> dict:
    return {key: FieldSeries(grid, key[0], key[1], [when], vals[None],
                             units=units.get(key))
            for key, vals in state.items()}


def _run_external_step(command: list[str], state: dict, grid, when: datetime,
                       step_hours: int, units: dict, dtype: str,
                       workdir: Path) -> dict:
    in_path = workdir / "state_in.gvf"
    out_path = workdir / "state_out.gvf"
    write_container(_state_to_series(state, grid, when, units), in_path,
                    dtype=dtype)
    if out_path.exists():
        out_path.unlink()
    cmd = list(command) + ["--in", str(in_path), "--out", str(out_path),
                           "--step-hours", str(step_hours)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=_EXTERNAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ExternalForecasterError(
            f"external forecaster did not finish within "
            f"{_EXTERNAL_TIMEOUT_S:g} s at {when.isoformat()}") from None
    if proc.returncode != 0:
        last_line = proc.stderr.strip().rpartition("\n")[2]
        raise ExternalForecasterError(
            f"external forecaster exited {proc.returncode} at "
            f"{when.isoformat()}: {last_line[:500]}")
    try:
        c = read_container(out_path)
    except Exception as exc:
        raise ExternalForecasterError(
            f"external forecaster wrote an unreadable state at "
            f"{when.isoformat()}: {exc}") from exc
    if c.grid != grid:
        raise ExternalForecasterError(
            f"external forecaster changed the grid at {when.isoformat()}")
    if len(c.times) != 1:
        raise ExternalForecasterError(
            f"external state must hold exactly 1 time, got {len(c.times)}")
    missing = [k for k in state if k not in c.keys]
    if missing:
        raise ExternalForecasterError(
            f"external state is missing variables: {missing}")
    return {key: c.values(0, key[0], key[1]) for key in state}


def _rollout_one(plan: RolloutPlan, initial_states: dict, grid, units,
                 t_i: datetime, climatology: Climatology | None) -> dict:
    """One initialization -> {(var, level): FieldSeries over all leads}."""
    valid_times = [t_i + timedelta(hours=h) for h in plan.leads]
    if plan.forecaster == "persistence":
        shape = (len(valid_times),) + grid.shape
        stacks = {key: np.broadcast_to(series.values[series.index(t_i)],
                                       shape).copy()
                  for key, series in initial_states.items()}
    elif plan.forecaster == "climatology":
        stacks = {key: np.stack([climatology.values(key[0], key[1], t)
                                 for t in valid_times])
                  for key in initial_states}
    else:
        # external, strictly sequential per step
        state = {key: series.values[series.index(t_i)]
                 for key, series in initial_states.items()}
        trajectory = {key: [state[key]] for key in state}
        with tempfile.TemporaryDirectory(prefix="rollout_") as tmp:
            for when in valid_times[:-1]:
                try:
                    state = _run_external_step(
                        plan.external_command, state, grid, when,
                        plan.step_hours, units, plan.state_dtype, Path(tmp))
                except ExternalForecasterError as exc:
                    raise ExternalForecasterError(
                        f"init {t_i.isoformat()}: {exc}") from exc
                state = apply_postprocessing(state, plan.postprocess, grid)
                for key in trajectory:
                    trajectory[key].append(state[key])
        stacks = {key: np.stack(vals) for key, vals in trajectory.items()}
    return {key: FieldSeries(grid, key[0], key[1], valid_times, stack,
                             units=units[key])
            for key, stack in stacks.items()}


def _forecasts(plan: RolloutPlan, initial_states: dict,
               climatology: Climatology | None):
    """Check the plan against the inputs, then lazily roll out each init.

    Every check runs before the first initialization is rolled out, so a
    bad plan fails before any output exists.  Yields (init time,
    {(var, level): FieldSeries over all leads}) in plan order.
    """
    if plan.forecaster == "climatology" and climatology is None:
        raise ValueError("climatology forecaster requires a climatology")
    if plan.forecaster != "climatology":
        for key, series in initial_states.items():
            for t_i in plan.init_times:
                if not np.isfinite(series.values[series.index(t_i)]).all():
                    raise ValueError(
                        f"non-finite initial state {key[0]} ({key[1]}) at "
                        f"{t_i.isoformat()}")
    grid = next(iter(initial_states.values())).grid
    units = {key: s.units for key, s in initial_states.items()}
    return ((t_i, _rollout_one(plan, initial_states, grid, units, t_i,
                               climatology))
            for t_i in plan.init_times)


def run_rollout(plan: RolloutPlan, initial_states: dict,
                climatology: Climatology | None = None,
                target: dict | None = None) -> ForecastSet:
    """Produce forecasts for every initialization in the plan.

    initial_states maps (variable, level) to a FieldSeries covering every
    init time (for persistence/external this is also the verification
    target unless a separate target mapping is given).  The climatology
    forecaster requires a climatology and emits its (day, hour) field for
    each valid time.  Rollouts are deterministic: no hidden randomness.
    """
    return ForecastSet(dict(_forecasts(plan, initial_states, climatology)),
                       target if target is not None else initial_states,
                       climatology=climatology)


def run_rollout_to_dir(plan: RolloutPlan, initial_states: dict, out_dir,
                       climatology: Climatology | None = None) -> list[Path]:
    """Roll out and write one container per initialization as it finishes.

    Streaming counterpart of run_rollout for long init lists: only one
    initialization is held in memory at a time.  Every init is checked
    against the initial states before the first container is written.
    """
    return _write_inits(_forecasts(plan, initial_states, climatology),
                        out_dir, plan.state_dtype)


def _write_inits(forecasts, out_dir, dtype: str) -> list[Path]:
    """Write (init time, {(var, level): FieldSeries}) pairs one by one."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for t_i, per_key in forecasts:
        paths.append(out_dir / f"init_{t_i.strftime('%Y%m%dT%H%M%SZ')}.gvf")
        write_container(per_key, paths[-1], dtype=dtype,
                        attrs={"init_time": _format_time(t_i)})
    return paths


def write_forecast_dir(fs: ForecastSet, out_dir, dtype: str = "f32") -> list[Path]:
    """Write one GVF1 container per initialization into a directory.

    Files are named init_<YYYYMMDDTHHMMSSZ>.gvf and tag their init time in
    the container attrs, which is how load_forecast_set reassembles them.
    """
    return _write_inits(((t_i, fs.forecasts[t_i]) for t_i in fs.init_times),
                        out_dir, dtype)
