import os
import re
import signal
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecast import make_gaussian_grid, rollout
from spherecast.container import read_container
from spherecast.filters import (DiffusionSpec, PoleFilterSpec, diffuse_values,
                                pole_filter_values)
from spherecast.grid import FieldSeries
from spherecast.preprocess import Climatology, clamp_nonnegative_values
from spherecast.rollout import (ExternalForecasterError, PipelineStep,
                                RolloutPlan, apply_postprocessing,
                                run_rollout_to_dir)
from spherecast.verify import ForecastSet, acc, load_forecast_set, rmse
from conftest import as_container

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
GRID8 = make_gaussian_grid(8, 16)

IDENTITY_SCRIPT = """\
import argparse, shutil
p = argparse.ArgumentParser()
p.add_argument("--in", dest="inp")
p.add_argument("--out")
p.add_argument("--step-hours")
a = p.parse_args()
shutil.copy(a.inp, a.out)
"""

FAILING_SCRIPT = "import sys; sys.exit(7)\n"

# identity, but exits 9 on its FAIL-th call, counted in a file beside it
FAIL_ON_CALL_SCRIPT = """\
import argparse, pathlib, shutil, sys
p = argparse.ArgumentParser()
p.add_argument("--in", dest="inp")
p.add_argument("--out")
p.add_argument("--step-hours")
a = p.parse_args()
count = pathlib.Path(sys.argv[0]).with_suffix(".count")
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
if n == FAIL:
    sys.exit(9)
shutil.copy(a.inp, a.out)
"""

GARBAGE_SCRIPT = """\
import argparse
p = argparse.ArgumentParser()
p.add_argument("--in", dest="inp")
p.add_argument("--out")
p.add_argument("--step-hours")
a = p.parse_args()
open(a.out, "wb").write(b"not a container")
"""


def f32_series(grid, n_time=8, seed=0, variable="T"):
    """Random series whose values are exactly f32-representable."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n_time,) + grid.shape).astype(np.float32)
    times = [T0 + timedelta(hours=6 * k) for k in range(n_time)]
    return FieldSeries(grid, variable, "single", times,
                       vals.astype(np.float64))


def zero_climatology(grid, keys):
    data = {k: np.zeros((365, 4) + grid.shape) for k in keys}
    return Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                       std_days=10.0, data=data)


def rolled_out(plan, states, out_dir, climatology=None) -> ForecastSet:
    """The containers run_rollout_to_dir writes to out_dir, as a
    ForecastSet verified against the initial states' container."""
    return ForecastSet(run_rollout_to_dir(plan, states, out_dir, climatology),
                       states, climatology=climatology)


def test_persistence_repeats_initial_state_bitwise(tmp_path, grid16):
    states = as_container(tmp_path, f32_series(grid16, seed=1))
    plan = RolloutPlan(init_times=[T0, T0 + timedelta(hours=6)],
                       step_hours=6, max_lead_hours=18)
    fs = rolled_out(plan, states, tmp_path / "fc",
                    climatology=zero_climatology(grid16, states.keys))
    assert fs.init_times == plan.init_times
    for t_i in plan.init_times:
        initial = states.values(states.times.index(t_i), "T")
        forecast = fs.forecast(t_i)
        assert len(forecast.times) == 4
        for i in range(4):
            assert np.array_equal(forecast.values(i, "T"), initial)


def test_persistence_scores_at_lead_zero(tmp_path, grid16):
    states = as_container(tmp_path, f32_series(grid16, seed=2))
    plan = RolloutPlan(init_times=[T0, T0 + timedelta(hours=6),
                                   T0 + timedelta(hours=12)],
                       step_hours=6, max_lead_hours=12)
    fs = rolled_out(plan, states, tmp_path / "fc",
                    climatology=zero_climatology(grid16, states.keys))
    r = rmse(fs, "T", lead_hours=0, n_boot=10, seed=0)
    assert np.all(r.values == 0.0)
    a = acc(fs, "T", lead_hours=0, n_boot=10, seed=0)
    np.testing.assert_allclose(a.values, 1.0, atol=1e-12)


def test_climatology_forecaster_emits_climatology_and_zero_acc(tmp_path,
                                                              grid16):
    states = as_container(tmp_path, f32_series(grid16, seed=3))
    rng = np.random.default_rng(4)
    clim = Climatology(grid=grid16, hours=[0, 6, 12, 18], window_days=61,
                       std_days=10.0,
                       data={("T", "single"):
                             rng.normal(size=(365, 4) + grid16.shape)})
    # f64 containers hold the float64 bins exactly
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=12,
                       forecaster="climatology", state_dtype="f64")
    fs = rolled_out(plan, states, tmp_path / "fc", climatology=clim)
    forecast = fs.forecast(T0)
    for i, t in enumerate(forecast.times):
        assert np.array_equal(forecast.values(i, "T"),
                              clim.values("T", "single", t))
    # zero-anomaly forecast correlates to exactly zero by convention
    a = acc(fs, "T", lead_hours=6, n_boot=10, seed=0)
    assert np.all(a.values == 0.0)


def test_external_identity_command_reproduces_persistence(tmp_path, grid16):
    script = tmp_path / "identity.py"
    script.write_text(IDENTITY_SCRIPT)
    states = as_container(tmp_path, f32_series(grid16, n_time=6, seed=5),
                          f32_series(grid16, n_time=6, seed=6, variable="Q"))
    plan_ext = RolloutPlan(
        init_times=[T0], step_hours=6, max_lead_hours=30,
        forecaster="external",
        external_command=[sys.executable, str(script)])
    plan_per = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=30)
    [ext] = run_rollout_to_dir(plan_ext, states, tmp_path / "ext")
    [per] = run_rollout_to_dir(plan_per, states, tmp_path / "per")
    assert ext.name == per.name
    assert ext.read_bytes() == per.read_bytes()


def test_external_rollout_post_processes_the_state_before_each_step(
        tmp_path, grid16):
    script = tmp_path / "identity.py"
    script.write_text(IDENTITY_SCRIPT)
    states = as_container(tmp_path, f32_series(grid16, n_time=4, seed=17),
                          f32_series(grid16, n_time=4, seed=18, variable="Q"))
    steps = [PipelineStep(kind="clamp_nonnegative", params={"floor": 0.5},
                          variables=("Q",)),
             PipelineStep(kind="laplacian_diffuse",
                          params={"nu_dt": 1e-5, "steps": 2}),
             PipelineStep(kind="pole_filter", params={"start_lat": 45})]
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=18,
                       forecaster="external", postprocess=steps,
                       external_command=[sys.executable, str(script)])
    [path] = run_rollout_to_dir(plan, states, tmp_path / "fc")
    forecast = read_container(path)
    # each step's input goes to the forecaster as f32, and comes back;
    # each lead is written as f32
    expect = {key: states.values(0, *key) for key in states.keys}
    for k in range(4):
        expect = {key: values.astype(np.float32).astype(np.float64)
                  for key, values in expect.items()}
        for key, values in expect.items():
            assert forecast.values(k, *key).tobytes() == values.tobytes()
        apply_postprocessing(expect, steps, grid16)


def test_external_nonzero_exit_raises(tmp_path, grid16):
    script = tmp_path / "fail.py"
    script.write_text(FAILING_SCRIPT)
    states = as_container(tmp_path, f32_series(grid16, n_time=2, seed=7))
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                       forecaster="external",
                       external_command=[sys.executable, str(script)])
    with pytest.raises(ExternalForecasterError, match="exited 7"):
        run_rollout_to_dir(plan, states, tmp_path / "fc")


def test_external_malformed_output_raises(tmp_path, grid16):
    script = tmp_path / "garbage.py"
    script.write_text(GARBAGE_SCRIPT)
    states = as_container(tmp_path, f32_series(grid16, n_time=2, seed=8))
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                       forecaster="external",
                       external_command=[sys.executable, str(script)])
    with pytest.raises(ExternalForecasterError, match="unreadable"):
        run_rollout_to_dir(plan, states, tmp_path / "fc")


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _running_in_group(pgid: int) -> list[int]:
    """The running processes whose process group is pgid."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, pgrp = stat.read_text().rpartition(")")[2].split()[:3]
        except OSError:
            continue
        if int(pgrp) == pgid and state != "Z":
            found.append(int(stat.parent.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_timed_out_external_step_leaves_no_process_in_its_group(
        tmp_path, grid16, monkeypatch):
    monkeypatch.setattr(rollout, "_EXTERNAL_TIMEOUT_S", 1.0)
    pids = tmp_path / "pids"
    script = tmp_path / "hang.sh"
    # the shell forks sleep rather than exec'ing it, so killing only the
    # shell would leave sleep running
    script.write_text(f"sleep 7.77 &\necho $$ $! > {pids}\nwait\n")
    states = as_container(tmp_path, f32_series(grid16, n_time=2, seed=8))
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                       forecaster="external",
                       external_command=["sh", str(script)])
    shell = sleep = None
    try:
        with pytest.raises(ExternalForecasterError, match="within 1 s"):
            run_rollout_to_dir(plan, states, tmp_path / "fc")
        shell, sleep = (int(pid) for pid in pids.read_text().split())
        deadline = time.monotonic() + 5.0
        while ((_running(sleep) or _running_in_group(shell))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not _running(sleep)
        assert not _running_in_group(shell)
    finally:
        if sleep is not None and _running(sleep):
            os.kill(sleep, signal.SIGKILL)


def test_missing_initial_state_raises(tmp_path, grid16):
    states = as_container(tmp_path, f32_series(grid16, n_time=2, seed=9))
    plan = RolloutPlan(init_times=[T0 + timedelta(hours=36)], step_hours=6,
                       max_lead_hours=6)
    with pytest.raises(KeyError):
        run_rollout_to_dir(plan, states, tmp_path / "fc")


def test_rollout_to_dir_checks_every_init_before_writing(tmp_path, grid16):
    series = f32_series(grid16, n_time=3, seed=13)
    states = as_container(tmp_path, series)
    plan = RolloutPlan(init_times=[T0, T0 + timedelta(hours=6),
                                   T0 + timedelta(hours=48)],
                       step_hours=6, max_lead_hours=6)
    with pytest.raises(KeyError, match=re.escape(
            f"{states.path}: init time 2020-01-03T00:00:00+00:00 not in")):
        run_rollout_to_dir(plan, states, tmp_path / "fc")
    assert not list(tmp_path.glob("fc/*.gvf"))
    series.values[1, 0, 0] = np.nan
    states = as_container(tmp_path, series)
    plan = RolloutPlan(init_times=[T0, T0 + timedelta(hours=6)],
                       step_hours=6, max_lead_hours=6)
    with pytest.raises(ValueError, match="non-finite initial state T"):
        run_rollout_to_dir(plan, states, tmp_path / "fc")
    assert not list(tmp_path.glob("fc/*.gvf"))


def test_rollout_plan_validation():
    with pytest.raises(ValueError, match="step_hours"):
        RolloutPlan(init_times=[T0], step_hours=3, max_lead_hours=6)
    with pytest.raises(ValueError, match="multiple"):
        RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=10)
    with pytest.raises(ValueError, match="forecaster"):
        RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                    forecaster="magic")
    with pytest.raises(ValueError, match="command"):
        RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                    forecaster="external")
    for forecaster in ("persistence", "climatology"):
        with pytest.raises(ValueError, match=f"only, not {forecaster!r}"):
            RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                        forecaster=forecaster,
                        postprocess=[PipelineStep(kind="clamp_nonnegative")])
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=24)
    assert plan.leads == [0, 6, 12, 18, 24]


def test_apply_postprocessing_empty_is_identity(grid16):
    values = np.ones(grid16.shape)
    state = {("T", "single"): values}
    apply_postprocessing(state, [], grid16)
    assert state == {("T", "single"): values} and (values == 1.0).all()


def test_apply_postprocessing_writes_in_place(grid16):
    rng = np.random.default_rng(14)
    state = {("Q", "single"): rng.normal(size=grid16.shape),
             ("T", "single"): rng.normal(size=(2,) + grid16.shape)}
    arrays = dict(state)
    steps = [PipelineStep(kind="clamp_nonnegative", variables=("Q",)),
             PipelineStep(kind="laplacian_diffuse",
                          params={"nu_dt": 1e-5, "steps": 2}),
             PipelineStep(kind="pole_filter", params={"start_lat": 45})]
    # each step into new arrays, one after the other
    expect = dict(state)
    for step in steps:
        for key, values in expect.items():
            if step.variables is None or key[0] in step.variables:
                expect[key] = step.apply(values, grid16)
    assert all(expect[key] is not arrays[key] for key in state)
    assert apply_postprocessing(state, steps, grid16) is None
    assert all(state[key] is arrays[key]
               and state[key].tobytes() == expect[key].tobytes()
               for key in state)


def test_apply_postprocessing_clamp(grid16):
    rng = np.random.default_rng(10)
    state = {("Q", "single"): rng.normal(size=grid16.shape) * 1e-7,
             ("T", "single"): np.full(grid16.shape, -5.0)}
    steps = [PipelineStep(kind="clamp_nonnegative", variables=("Q",))]
    apply_postprocessing(state, steps, grid16)
    assert state[("Q", "single")].min() >= 1e-8
    assert (state[("T", "single")] == -5.0).all()


def test_postprocessing_clamp_matches_clamp_nonnegative(grid16):
    from spherecast.preprocess import clamp_nonnegative_values
    vals = np.random.default_rng(11).normal(size=grid16.shape) * 1e-7
    step = PipelineStep(kind="clamp_nonnegative", params={"floor": 2e-8})
    state = {("Q", "single"): vals.copy()}
    apply_postprocessing(state, [step], grid16)
    assert np.array_equal(state[("Q", "single")],
                          clamp_nonnegative_values(vals, floor=2e-8))


def test_postprocessing_order_sensitivity(grid16):
    spike = np.zeros(grid16.shape)
    spike[8, 16] = 1.0
    spike[8, 17] = -1.0
    diffuse = PipelineStep(kind="laplacian_diffuse",
                           params={"nu_dt": 1e-5, "steps": 3})
    clamp = PipelineStep(kind="clamp_nonnegative")
    a, b = {("Q", "single"): spike.copy()}, {("Q", "single"): spike.copy()}
    apply_postprocessing(a, [diffuse, clamp], grid16)
    apply_postprocessing(b, [clamp, diffuse], grid16)
    assert not np.array_equal(a[("Q", "single")], b[("Q", "single")])


def test_pipeline_step_validation():
    for kind, params, variables, match in [
            ("sharpen", {}, None, "unknown pipeline step"),
            ("laplacian_diffuse", {}, None, "missing parameter 'nu_dt'"),
            ("clamp_nonnegative", {"floor": "x"}, None, "floor must be"),
            ("laplacian_diffuse", {"nu_dt": 1e-5, "steps": 1.5}, None,
             "steps must be an integer"),
            ("laplacian_diffuse", {"nu_dt": 1e-5, "steps": True}, None,
             "steps must be an integer"),
            ("laplacian_diffuse", {"nu_dt": -1}, None,
             "nu_dt must be non-negative"),
            ("pole_filter", {"start_lat": 60, "bogus": 1}, None,
             "unknown parameter 'bogus'"),
            ("clamp_nonnegative", {}, "QV", "variables must be a")]:
        with pytest.raises(ValueError, match=match):
            PipelineStep(kind=kind, params=params, variables=variables)


PARAM_NAMES = {"clamp_nonnegative": ("floor",),
               "laplacian_diffuse": ("nu_dt", "steps"),
               "pole_filter": ("start_lat", "reference_lat")}


def kernel(kind, values, grid, params):
    """The operator a step of this kind and params stands for, called
    directly."""
    if kind == "clamp_nonnegative":
        return clamp_nonnegative_values(values, params.get("floor", 1e-8))
    if kind == "laplacian_diffuse":
        return diffuse_values(values, grid, DiffusionSpec(
            params["nu_dt"], params.get("steps", 1)))
    return pole_filter_values(values, grid, PoleFilterSpec(
        params["start_lat"], params.get("reference_lat")))


# per parameter: values near its range, in it or not
NEAR_RANGE = {"floor": [0.0, 1e-8, 2e-8, -1e-8, 1e300],
              "nu_dt": [0, 1e-5, 2e-3, -1, 1e300],
              "steps": [0, 1, 3, -1, 1.0],
              "start_lat": [45, 60.0, 89.9, 0, 90],
              "reference_lat": [None, 30.0, 65, 90.5]}
json_values = st.one_of(st.floats(), st.integers(-3, 3), st.booleans(),
                        st.none(), st.text(max_size=3),
                        st.lists(st.integers(-2, 2), max_size=2))


@st.composite
def step_docs(draw):
    """(kind, params, variables): each parameter of the kind is mostly
    given a value near its range, and sometimes any JSON value, a junk
    key or bad variables ride along."""
    kind = draw(st.sampled_from(sorted(PARAM_NAMES)))
    often = st.sampled_from([True, True, True, False])
    params = {name: draw(st.sampled_from(NEAR_RANGE[name]) if draw(often)
                         else json_values)
              for name in PARAM_NAMES[kind] if draw(often)}
    if not draw(often):
        params[draw(st.sampled_from(["bogus", "nu-dt", ""]))] = draw(
            json_values)
    variables = None if draw(often) else draw(st.sampled_from(
        [("Q",), ["Q", "V"], "QV", [], ["Q", 1], [None]]))
    return kind, params, variables


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step_docs())
def test_pipeline_step_is_rejected_or_equals_its_kernel(doc):
    kind, params, variables = doc
    try:
        step = PipelineStep(kind=kind, params=params, variables=variables)
    except ValueError:
        return
    assert set(params) <= set(PARAM_NAMES[kind])
    assert all(type(v) in (int, float) or (k, v) == ("reference_lat", None)
               for k, v in params.items())
    assert variables is None or (variables and all(
        isinstance(v, str) for v in variables))
    values = np.random.default_rng(0).normal(size=GRID8.shape)
    try:
        expect = kernel(kind, values, GRID8, params)
    except ValueError:
        with pytest.raises(ValueError):
            step.apply(values, GRID8)
        return
    assert step.apply(values, GRID8).tobytes() == expect.tobytes()


def test_forecaster_failing_in_the_second_init_leaves_the_first_whole(
        tmp_path, grid16):
    # 3 steps per init: the 5th call is the second step of the second init
    script = tmp_path / "fail_on_call.py"
    script.write_text("FAIL = 5\n" + FAIL_ON_CALL_SCRIPT)
    states = as_container(tmp_path, f32_series(grid16, n_time=4, seed=15),
                          f32_series(grid16, n_time=4, seed=16, variable="Q"))
    second = T0 + timedelta(hours=6)
    plan = RolloutPlan(init_times=[T0, second], step_hours=6,
                       max_lead_hours=18, forecaster="external",
                       external_command=[sys.executable, str(script)])
    out_dir = tmp_path / "fc"
    with pytest.raises(ExternalForecasterError,
                       match=re.escape(f"init {second.isoformat()}: ")
                       + ".*exited 9"):
        run_rollout_to_dir(plan, states, out_dir)
    assert [p.name for p in out_dir.iterdir()] == ["init_20200101T000000Z.gvf"]
    [persistence] = run_rollout_to_dir(
        RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=18), states,
        tmp_path / "persistence")
    assert ((out_dir / persistence.name).read_bytes()
            == persistence.read_bytes())


def test_rollout_to_dir_round_trip(tmp_path, grid16):
    states = as_container(tmp_path, f32_series(grid16, n_time=4, seed=11))
    plan = RolloutPlan(init_times=[T0, T0 + timedelta(hours=6)], step_hours=6,
                       max_lead_hours=12)
    out_dir = tmp_path / "fc"
    paths = run_rollout_to_dir(plan, states, out_dir)
    assert len(paths) == 2
    clim_path = tmp_path / "clim.gvf"
    zero_climatology(grid16, states.keys).to_container(clim_path)
    fs = load_forecast_set(out_dir, states.path, climatology_path=clim_path)
    assert fs.init_times == plan.init_times
    r = rmse(fs, "T", lead_hours=0, n_boot=10, seed=0)
    assert np.all(r.values == 0.0)
    a = acc(fs, "T", lead_hours=0, n_boot=10, seed=0)
    np.testing.assert_allclose(a.values, 1.0, atol=1e-12)


def test_external_timeout_raises_naming_init_and_limit(tmp_path, grid16,
                                                       monkeypatch):
    monkeypatch.setattr(rollout, "_EXTERNAL_TIMEOUT_S", 0.5)
    script = tmp_path / "hang.py"
    script.write_text("import time; time.sleep(30)\n")
    states = as_container(tmp_path, f32_series(grid16, n_time=2, seed=10))
    plan = RolloutPlan(init_times=[T0], step_hours=6, max_lead_hours=6,
                       forecaster="external",
                       external_command=[sys.executable, str(script)])
    with pytest.raises(ExternalForecasterError,
                       match=r"init 2020-01-01T00:00:00\+00:00: .*within 0.5 s"):
        run_rollout_to_dir(plan, states, tmp_path / "fc")
