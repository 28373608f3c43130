"""Generate one workload's inputs from a seed into a work directory.

Run as a child of run.py so the inputs' memory is gone before any stage
starts.  Writes input.gvf, params.json and, for the external rollout, the
identity forecaster script; prints {"sha256", "params"} as JSON.

    python3 perfbench/gen.py --workload chain_n32 --seed 1 --dir WORKDIR
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import fields  # noqa: E402
import workloads  # noqa: E402

# The identity forecaster of the external protocol:
#   sh identity.sh --in STATE --out NEXT --step-hours N
IDENTITY_SH = 'cp "$2" "$4"\n'


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _start(s: dict) -> datetime:
    return datetime.fromisoformat(s["start"]).replace(tzinfo=timezone.utc)


def _positive(values: np.ndarray) -> np.ndarray:
    # shift by a constant (degree 0) so band-limiting is kept
    return values + max(0.0, 1e-4 - float(values.min()))


def _series(rng, s, n_lat, n_lon, n_modes, phi) -> np.ndarray:
    """(time, var, lat, lon): AR(1) mixtures of band-limited modes plus a
    seasonal and a diurnal pattern, so climatology and ACC see signal."""
    l_max = n_lat - 1
    n_time = s["times"]
    hours = np.arange(n_time) * s["step_hours"]
    out = np.empty((n_time, len(s["variables"]), n_lat, n_lon))
    for j, name in enumerate(s["variables"]):
        _, mean, spread = workloads.VARIABLES[name]
        modes = np.stack([fields.band_limited(rng, n_lat, n_lon, l_max)
                          for _ in range(n_modes + 2)]).reshape(n_modes + 2, -1)
        amp = fields.ar1_series(rng, n_time, n_modes, phi)
        cycles = np.stack([np.cos(2 * np.pi * hours / (365.0 * 24)),
                           np.cos(2 * np.pi * hours / 24.0)], axis=1)
        mix = np.concatenate([amp / np.sqrt(n_modes), cycles], axis=1)
        vals = mean + spread * (mix @ modes).reshape(n_time, n_lat, n_lon)
        out[:, j] = _positive(vals) if name == "Q700" else vals
    return out


def _kernel_fields(rng, s, n_lat, n_lon) -> np.ndarray:
    out = np.empty((s["times"], len(s["variables"]), n_lat, n_lon))
    for t in range(s["times"]):
        for j, name in enumerate(s["variables"]):
            _, mean, spread = workloads.VARIABLES[name]
            out[t, j] = mean + spread * fields.band_limited(
                rng, n_lat, n_lon, n_lat - 1)
    return out


def _half_stability_bound(n_lat: int, n_lon: int) -> float:
    from spherecast.filters import diffusion_stability_bound
    from spherecast.grid import make_gaussian_grid
    return 0.5 * diffusion_stability_bound(make_gaussian_grid(n_lat, n_lon))


def generate(workload: str, seed: int, work: Path) -> dict:
    s = workloads.SIZES[workload]
    n_lat, n_lon = workloads.grid_shape(workload)
    rng = _rng(workload, seed)
    params = {"seed": seed}
    if workload == "kernels_n320":
        values = _kernel_fields(rng, s, n_lat, n_lon)
    else:
        n_modes, phi = (48, 0.95) if workload == "chain_n32" else (16, 0.9)
        values = _series(rng, s, n_lat, n_lon, n_modes, phi)
    if workload != "chain_n32":
        params["nu_dt"] = _half_stability_bound(n_lat, n_lon)
    work.mkdir(parents=True, exist_ok=True)
    times = fields.time_axis(_start(s), s["times"], s["step_hours"])
    variables = [(n, workloads.VARIABLES[n][0]) for n in s["variables"]]
    digest = fields.write_gvf1(work / "input.gvf", values, variables, times,
                               s["dtype"])
    if workload == "external_rollout_n160":
        (work / workloads.IDENTITY_SCRIPT).write_text(IDENTITY_SH)
    (work / "params.json").write_text(json.dumps(params, sort_keys=True) + "\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"sha256": digest, "params": params, "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
