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

import os
import signal
import subprocess
import tempfile
from contextlib import suppress
from dataclasses import MISSING, dataclass, field as dc_field, fields
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .container import (Container, check_agreement, check_nonempty,
                        check_rows, container_writer, read_container,
                        read_keys, _format_time)
from .filters import (DiffusionSpec, PoleFilterSpec, _number, diffuse_values,
                      pole_filter_values)
from .grid import ensure_utc
from .preprocess import Climatology, clamp_nonnegative_values

__all__ = [
    "RolloutPlan",
    "PipelineStep",
    "PostprocessError",
    "run_rollout_to_dir",
    "apply_postprocessing",
    "ExternalForecasterError",
]

FORECASTERS = ("persistence", "climatology", "external")

# Limit on one external step; on expiry its whole process group is killed.
_EXTERNAL_TIMEOUT_S = 3600.0


class ExternalForecasterError(RuntimeError):
    """External command failed or produced an unusable state file."""


class PostprocessError(ValueError):
    """A post-processing step, or a pipeline, that cannot run as given."""


@dataclass(frozen=True)
class _Clamp:
    """The floor of a clamp_nonnegative step."""

    floor: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= _number("floor", self.floor) < np.inf:
            raise ValueError(
                f"floor must be finite and non-negative, got {self.floor!r}")


# step kind -> the spec its params build; the spec's fields are the params
_STEP_SPECS = {"clamp_nonnegative": _Clamp,
               "laplacian_diffuse": DiffusionSpec,
               "pole_filter": PoleFilterSpec}


@dataclass(frozen=True)
class PipelineStep:
    """One post-processing operator applied between autoregressive steps.

    kind is one of clamp_nonnegative / laplacian_diffuse / pole_filter;
    params are the fields of its spec in _STEP_SPECS; variables optionally
    restricts which variables are touched.  The spec is checked and built
    once, here, so a bad step raises PostprocessError when it is made.
    """

    kind: str
    params: dict = dc_field(default_factory=dict)
    variables: tuple[str, ...] | None = None
    spec: object = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec_cls = (_STEP_SPECS.get(self.kind) if isinstance(self.kind, str)
                    else None)
        if spec_cls is None:
            raise PostprocessError(f"unknown pipeline step {self.kind!r}; "
                                   f"choose from {', '.join(_STEP_SPECS)}")
        if not isinstance(self.params, dict):
            raise PostprocessError(f"{self.kind}: params must be an object, "
                                   f"got {self.params!r}")
        required = {f.name: f.default is MISSING for f in fields(spec_cls)}
        bad = ([f"unknown parameter {k!r}" for k in self.params
                if k not in required]
               + [f"missing parameter {k!r}" for k, needed in required.items()
                  if needed and k not in self.params])
        if bad:
            raise PostprocessError(f"{self.kind}: {bad[0]}; its parameters "
                                   f"are {', '.join(required)}")
        try:
            object.__setattr__(self, "spec", spec_cls(**self.params))
        except ValueError as exc:
            raise PostprocessError(f"{self.kind}: {exc}") from None
        if self.variables is not None:
            if not (isinstance(self.variables, (list, tuple))
                    and self.variables
                    and all(isinstance(v, str) for v in self.variables)):
                raise PostprocessError(
                    f"{self.kind}: variables must be a non-empty list of "
                    f"names, got {self.variables!r}")
            object.__setattr__(self, "variables", tuple(self.variables))

    def apply(self, values: np.ndarray, grid,
              out: np.ndarray | None = None) -> np.ndarray:
        """The operator on an (..., n_lat, n_lon) array, each field on its
        own; the result goes to out, which may be values itself, or to a
        new array."""
        if self.kind == "clamp_nonnegative":
            return clamp_nonnegative_values(values, self.spec.floor, out=out)
        if self.kind == "laplacian_diffuse":
            return diffuse_values(values, grid, self.spec, out=out)
        return pole_filter_values(values, grid, self.spec, out=out)


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
        if self.postprocess and self.forecaster != "external":
            raise PostprocessError(
                f"applies to the external forecaster only, not "
                f"{self.forecaster!r}")
        self.init_times = [ensure_utc(t) for t in self.init_times]

    @property
    def n_steps(self) -> int:
        return self.max_lead_hours // self.step_hours

    @property
    def leads(self) -> list[int]:
        return [k * self.step_hours for k in range(self.n_steps + 1)]


def apply_postprocessing(state: dict, pipeline: list[PipelineStep],
                         grid) -> None:
    """Apply pipeline steps in order, in place, to a {(var, level): float64
    array} state; a step with variables touches only their keys."""
    for step in pipeline:
        for key, values in state.items():
            if step.variables is None or key[0] in step.variables:
                step.apply(values, grid, out=values)


def _wait_external(proc: subprocess.Popen, timeout: float) -> str:
    """proc's stderr once it exits within timeout s.  On expiry, or any other
    error, proc's whole process group is killed (proc leads a session of
    its own) and proc is reaped before the error goes on."""
    try:
        return proc.communicate(timeout=timeout)[1]
    except BaseException:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def _run_external_step(command: list[str], state: np.ndarray, variables,
                       grid, when: datetime, step_hours: int, dtype: str,
                       workdir: Path) -> None:
    """One call of the file protocol: state, the (variable, n_lat, n_lon)
    float64 stack of variables ((name, level, units) each), is written as
    the input at when and then overwritten with the command's output."""
    in_path = workdir / "state_in.gvf"
    out_path = workdir / "state_out.gvf"
    # both are new files: renaming over an existing file costs a flush of
    # its data on ext4
    in_path.unlink(missing_ok=True)
    out_path.unlink(missing_ok=True)
    with container_writer(in_path, grid, variables, [when],
                          dtype=dtype) as write:
        write(state[:, None])
    cmd = list(command) + ["--in", str(in_path), "--out", str(out_path),
                           "--step-hours", str(step_hours)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stderr = _wait_external(proc, _EXTERNAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ExternalForecasterError(
            f"external forecaster did not finish within "
            f"{_EXTERNAL_TIMEOUT_S:g} s at {when.isoformat()}") from None
    if proc.returncode != 0:
        last_line = stderr.strip().rpartition("\n")[2]
        raise ExternalForecasterError(
            f"external forecaster exited {proc.returncode} at "
            f"{when.isoformat()}: {last_line[:500]}")
    try:
        c = read_container(out_path)
        check_agreement(c, [(name, level) for name, level, _ in variables],
                        grid)
    except Exception as exc:
        raise ExternalForecasterError(
            f"external forecaster wrote an unreadable or disagreeing state "
            f"at {when.isoformat()}: {exc}") from exc
    if len(c.times) != 1:
        raise ExternalForecasterError(
            f"external state must hold exactly 1 time, got {len(c.times)}")
    read_keys(c, 0, [(name, level) for name, level, _ in variables], state)


def _lead_rows(plan: RolloutPlan, c: Container, row: int | None,
               t_i: datetime, climatology: Climatology | None, state):
    """One initialization's forecast: per lead, in order, state, a float64
    (variable, n_lat, n_lon) stack of c's variables read from c's time row
    `row`, or, for the climatology forecaster (row None), from the bin of
    each valid time.  The one stack is overwritten in place between
    leads, so a consumer must write or copy each row before the next.
    """
    if plan.forecaster == "climatology":
        for h in plan.leads:
            read_keys(climatology, climatology.row(t_i + timedelta(hours=h)),
                      c.keys, state)
            yield state
        return
    read_keys(c, row, c.keys, state)
    yield state
    if plan.forecaster == "persistence":
        for _ in plan.leads[1:]:
            yield state
        return
    # external, strictly sequential per step
    fields = dict(zip(c.keys, state))  # views of the stack
    with tempfile.TemporaryDirectory(prefix="rollout_") as tmp:
        for h in plan.leads[:-1]:
            when = t_i + timedelta(hours=h)
            try:
                _run_external_step(plan.external_command, state, c.variables,
                                   c.grid, when, plan.step_hours,
                                   plan.state_dtype, Path(tmp))
            except ExternalForecasterError as exc:
                raise ExternalForecasterError(
                    f"init {t_i.isoformat()}: {exc}") from exc
            apply_postprocessing(fields, plan.postprocess, c.grid)
            yield state


def _init_rows(plan: RolloutPlan, c: Container) -> list[int]:
    """The time row in c of each init of the plan, after checking that
    every variable is finite there, a block of rows at a time."""
    index = {t: i for i, t in enumerate(c.times)}
    for t_i in plan.init_times:
        if t_i not in index:
            raise KeyError(f"{c.path}: init time {t_i.isoformat()} not in "
                           "its time axis")
    rows = [index[t_i] for t_i in plan.init_times]
    check_rows(c, "initial state", c.times, np.unique(rows))
    return rows


def run_rollout_to_dir(plan: RolloutPlan, c: Container, out_dir,
                       climatology: Climatology | None = None) -> list[Path]:
    """Roll out every initialization in the plan from the initial states
    in container c, and write each one's forecast of c's variables to
    out_dir/init_<YYYYMMDDTHHMMSSZ>.gvf, each lead row as it is made; the
    paths, in plan order.

    Each init's state is c's row at the init time, every variable read at
    once.  The climatology forecaster requires a climatology and emits its
    (day, hour) field for each valid time.  Each container tags its init
    time in attrs["init_time"], which is how verify's ForecastSet reads it
    back.  A climatology must agree with c (check_agreement), and every
    init is checked before the first container is opened: c must hold a
    variable, and the initial states, or the climatology bins of every
    valid time, must be there and be finite, and are read a block at a
    time; a failing init leaves no file, and those before it complete.
    One state stack, made once, holds each lead as it is made, and
    rollouts are deterministic: no hidden randomness.
    """
    check_nonempty(c, times=False)
    if plan.forecaster == "climatology":
        if climatology is None:
            raise ValueError("climatology forecaster requires a climatology")
        check_agreement(climatology, c.keys, c.grid)
        climatology.check_finite(c.keys, [t_i + timedelta(hours=h)
                                          for t_i in plan.init_times
                                          for h in plan.leads])
        rows = [None] * len(plan.init_times)
    else:
        rows = _init_rows(plan, c)
    for n, step in enumerate(plan.postprocess, 1):
        if isinstance(step.spec, DiffusionSpec):
            try:
                step.spec.check_stable(c.grid)
            except ValueError as exc:
                raise ValueError(f"postprocess step {n}: {exc}") from None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, state = [], np.empty((len(c.keys),) + c.grid.shape)
    for t_i, row in zip(plan.init_times, rows):
        paths.append(out_dir / f"init_{t_i.strftime('%Y%m%dT%H%M%SZ')}.gvf")
        with container_writer(paths[-1], c.grid, c.variables,
                              [t_i + timedelta(hours=h) for h in plan.leads],
                              dtype=plan.state_dtype,
                              attrs={"init_time": _format_time(t_i)}) as write:
            for lead in _lead_rows(plan, c, row, t_i, climatology, state):
                write(lead[:, None])
    return paths
