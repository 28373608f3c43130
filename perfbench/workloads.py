"""The benchmark's workloads: input sizes and the CLI stages each one runs.

Standard library only, because the launching process imports it and must
stay small (a child's peak RSS starts from its parent's at fork).  Every
stage path is relative to the run's work directory, which is the stages'
working directory, so no path handed to the CLI contains a space.
"""

from __future__ import annotations

import json

# Why each workload exists is recorded in BENCHMARK.json; the sizes follow
# the issue that defined the benchmark and are echoed into the run record.
SIZES = {
    "chain_n32": {
        "grid": "gaussian:64x128", "variables": ["Z500", "T850", "Q700"],
        "times": 1460, "step_hours": 6, "start": "2021-01-01T00:00:00",
        "dtype": "f32", "solar_windows": 40, "inits": 100,
        "init_stride_hours": 72, "max_lead_hours": 240,
    },
    "kernels_n320": {
        "grid": "gaussian:640x1280", "variables": ["U500", "V500", "Z500"],
        "times": 2, "step_hours": 6, "start": "2021-06-01T00:00:00",
        "dtype": "f64", "solar_windows": 1, "diffusion_steps": 10,
        "pole_filter_lat": 60, "pad": 40,
    },
    "external_rollout_n160": {
        "grid": "gaussian:320x640", "variables": ["Z500", "T850", "Q700"],
        "times": 43, "step_hours": 6, "start": "2021-03-01T00:00:00",
        "dtype": "f32", "inits": 2, "init_stride_hours": 6,
        "max_lead_hours": 240, "pole_filter_lat": 60,
    },
}

# Units and the (mean, spread) the generator gives each variable; Q700
# is kept positive so the clamp in the external rollout changes nothing.
VARIABLES = {
    "Z500": ("m", 5500.0, 120.0),
    "T850": ("K", 275.0, 12.0),
    "Q700": ("kg kg-1", 0.004, 0.001),
    "U500": ("m s-1", 10.0, 12.0),
    "V500": ("m s-1", 0.0, 8.0),
}

IDENTITY_SCRIPT = "identity.sh"


def grid_shape(workload: str) -> tuple[int, int]:
    dims = SIZES[workload]["grid"].split(":")[1]
    n_lat, n_lon = (int(v) for v in dims.split("x"))
    return n_lat, n_lon


def stages(workload: str, params: dict) -> list[tuple[str, list[str]]]:
    """(stage name, spherecast argv) in run order for one workload.

    params holds what the input generator worked out: the diffusion number
    (half of the grid's stability bound) and the verify seed.
    """
    s = SIZES[workload]
    seed = str(params["seed"])
    if workload == "chain_n32":
        return [
            ("stats", ["stats", "--input", "input.gvf",
                       "--output", "out/stats.json"]),
            ("normalize", ["normalize", "--input", "input.gvf",
                           "--stats", "out/stats.json",
                           "--output", "out/norm.gvf"]),
            ("climatology", ["climatology", "--input", "input.gvf",
                             "--output", "out/clim.gvf"]),
            ("solar", ["solar", "--grid", s["grid"], "--start", s["start"],
                       "--windows", str(s["solar_windows"]),
                       "--window-hours", "6", "--output", "out/solar.gvf"]),
            ("rollout", ["rollout", "--initial-states", "input.gvf",
                         "--output-dir", "out/fc",
                         "--inits", f"{s['start']},{s['inits']},"
                                    f"{s['init_stride_hours']}",
                         "--step-hours", "6",
                         "--max-lead-hours", str(s["max_lead_hours"])]),
            ("verify", ["verify", "--forecast-dir", "out/fc",
                        "--target", "input.gvf",
                        "--climatology", "out/clim.gvf",
                        "--output", "out/scores.csv", "--seed", seed]),
            ("spectrum", ["spectrum", "--input", "out/norm.gvf",
                          "--output", "out/spectrum.csv"]),
        ]
    if workload == "kernels_n320":
        diffuse = f"{params['nu_dt']!r},{s['diffusion_steps']}"
        return [
            ("solar", ["solar", "--grid", s["grid"], "--start", s["start"],
                       "--windows", "1", "--window-hours", "6",
                       "--output", "out/solar.gvf"]),
            ("filter", ["filter", "--input", "input.gvf",
                        "--output", "out/filtered.gvf", "--diffuse", diffuse,
                        "--pole-filter", str(s["pole_filter_lat"])]),
            ("pad", ["pad", "--input", "input.gvf", "--output", "out/padded.gvf",
                     "--pad-ns", str(s["pad"]), "--pad-ew", str(s["pad"])]),
            ("spectrum", ["spectrum", "--input", "input.gvf",
                          "--output", "out/spectrum.csv"]),
        ]
    if workload == "external_rollout_n160":
        postprocess = [
            {"kind": "clamp_nonnegative", "variables": ["Q700"]},
            {"kind": "laplacian_diffuse",
             "params": {"nu_dt": params["nu_dt"], "steps": 1}},
            {"kind": "pole_filter",
             "params": {"start_lat": s["pole_filter_lat"]}},
        ]
        return [
            ("rollout", ["rollout", "--initial-states", "input.gvf",
                         "--output-dir", "out/fc",
                         "--inits", f"{s['start']},{s['inits']},"
                                    f"{s['init_stride_hours']}",
                         "--step-hours", "6",
                         "--max-lead-hours", str(s["max_lead_hours"]),
                         "--forecaster", "external",
                         "--external-cmd", f"sh {IDENTITY_SCRIPT}",
                         "--postprocess", json.dumps(postprocess)]),
            ("verify", ["verify", "--forecast-dir", "out/fc",
                        "--target", "input.gvf", "--metrics", "rmse",
                        "--output", "out/scores.csv", "--seed", seed]),
        ]
    raise KeyError(f"unknown workload {workload!r}")
