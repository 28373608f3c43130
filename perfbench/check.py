"""Check one repeat's stage outputs against oracles that hold for any seed.

Run as a child of run.py (it needs numpy, the launching process must not):

    python3 perfbench/check.py --workload chain_n32 --dir WORKDIR

Prints {stage: [failure, ...]} as JSON, one entry per stage of the
workload; an empty list means the stage's outputs passed.  The oracles
use no spherecast code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import fields  # noqa: E402
import workloads  # noqa: E402

G_SC = 1361.0          # spherecast's default solar constant, W m-2
WINDOW_S = 6 * 3600.0


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _time(s: str) -> datetime:
    return datetime.strptime(s, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def _global_mean(values: np.ndarray) -> np.ndarray:
    """Quadrature-weighted global mean over the last two axes."""
    _, w = fields.gaussian_nodes(values.shape[-2])
    return np.einsum("i,...i->...", w / 2.0,
                     np.asarray(values, dtype=np.float64).mean(axis=-1))


def _earth_sun_distance(t: datetime) -> float:
    """Astronomical Almanac low-precision series, good to ~1e-5 au."""
    j2000 = datetime(2000, 1, 1, 12, tzinfo=timezone.utc)
    n = (t - j2000).total_seconds() / 86400.0
    g = math.radians(357.529 + 0.98560028 * n)
    return 1.00014 - 0.01671 * math.cos(g) - 0.00014 * math.cos(2 * g)


# ------------------------------------------------------------------ stages

def check_stats(work: Path) -> None:
    doc = json.loads((work / "out/stats.json").read_text())
    header, data = fields.read_gvf1(work / "input.gvf")
    xi = []
    for j, var in enumerate(header["variables"]):
        e = doc["entries"][f"{var['name']}|single"]
        x = np.asarray(data[:, j], dtype=np.float64)
        mu = float(x.mean())
        sigma = float(np.sqrt(((x - mu) ** 2).mean()))
        _require(abs(e["mu"] - mu) <= 1e-10 * (abs(mu) + sigma),
                 f"{var['name']}: mu {e['mu']!r} != two-pass {mu!r}")
        _require(abs(e["sigma"] - sigma) <= 1e-10 * sigma,
                 f"{var['name']}: sigma {e['sigma']!r} != two-pass {sigma!r}")
        xi.append(e["xi"])
    _require(abs(math.prod(xi) - 1.0) <= 1e-12, f"prod(xi) = {math.prod(xi)!r}")


def check_normalize(work: Path) -> None:
    doc = json.loads((work / "out/stats.json").read_text())
    header, data = fields.read_gvf1(work / "input.gvf")
    out_header, out = fields.read_gvf1(work / "out/norm.gvf")
    _require(out.shape == data.shape and out_header["dtype"] == header["dtype"],
             f"normalized shape/dtype {out.shape} {out_header['dtype']}")
    for j, var in enumerate(header["variables"]):
        e = doc["entries"][f"{var['name']}|single"]
        ref = ((np.asarray(data[:, j], dtype=np.float64) - e["mu"])
               / (e["xi"] * e["sigma"])).astype(out.dtype)
        err = np.abs(out[:, j].astype(np.float64) - ref)
        _require(bool(np.all(err <= np.spacing(np.abs(ref)))),
                 f"{var['name']}: normalized values off by more than 1 ulp")


def check_climatology(work: Path) -> None:
    header, data = fields.read_gvf1(work / "input.gvf")
    _, clim = fields.read_gvf1(work / "out/clim.gvf")
    _require(clim.shape == (365 * 4,) + data.shape[1:],
             f"climatology shape {clim.shape}")
    for j, var in enumerate(header["variables"]):
        # every bin is a convex combination of samples
        lo, hi = float(data[:, j].min()), float(data[:, j].max())
        c = clim[:, j]
        _require(bool(np.isfinite(c).all()) and c.min() >= lo - 1e-9 * abs(lo)
                 and c.max() <= hi + 1e-9 * abs(hi),
                 f"{var['name']}: climatology outside the data range")


def check_solar(work: Path, workload: str) -> None:
    s = workloads.SIZES[workload]
    header, data = fields.read_gvf1(work / "out/solar.gvf")
    start = datetime.fromisoformat(s["start"]).replace(tzinfo=timezone.utc)
    _require(len(header["time_axis"]) == s["solar_windows"],
             f"{len(header['time_axis'])} solar windows")
    means = _global_mean(data[:, 0])
    for k, label in enumerate(header["time_axis"]):
        end = start + timedelta(hours=6 * (k + 1))
        _require(_time(label) == end, f"window {k} labelled {label}")
        d = _earth_sun_distance(end - timedelta(hours=3))
        expect = G_SC / (4.0 * d * d) * WINDOW_S
        _require(abs(means[k] / expect - 1.0) <= 1e-3,
                 f"window {k}: global mean {means[k]:.6g} J m-2, "
                 f"expected {expect:.6g}")
    _require(bool((np.asarray(data) >= 0).all()), "negative irradiance")


def _forecasts(work: Path):
    """(init time, header, data) of every forecast container, sorted."""
    out = []
    for p in sorted((work / "out/fc").glob("*.gvf")):
        header, data = fields.read_gvf1(p)
        out.append((_time(header["attrs"]["init_time"]), header, data))
    return out


def _check_rollout_shape(work: Path, workload: str, fcs) -> tuple:
    s = workloads.SIZES[workload]
    header, data = fields.read_gvf1(work / "input.gvf")
    times = [_time(t) for t in header["time_axis"]]
    start = times[0]
    n_lead = s["max_lead_hours"] // 6 + 1
    expect = [start + timedelta(hours=s["init_stride_hours"] * k)
              for k in range(s["inits"])]
    _require([f[0] for f in fcs] == expect, "forecast init times")
    for t_i, fh, fd in fcs:
        _require(fd.shape == (n_lead,) + data.shape[1:],
                 f"{t_i}: forecast shape {fd.shape}")
        _require(fh["dtype"] == header["dtype"], f"{t_i}: dtype {fh['dtype']}")
    return data, times


def check_persistence(work: Path, workload: str) -> None:
    fcs = _forecasts(work)
    data, times = _check_rollout_shape(work, workload, fcs)
    for t_i, _, fd in fcs:
        _require(np.array_equal(fd, np.broadcast_to(data[times.index(t_i)],
                                                    fd.shape)),
                 f"{t_i}: persistence forecast differs from its initial state")


def check_external(work: Path, workload: str) -> None:
    fcs = _forecasts(work)
    data, times = _check_rollout_shape(work, workload, fcs)
    for t_i, _, fd in fcs:
        _require(fd[0].tobytes() == data[times.index(t_i)].tobytes(),
                 f"{t_i}: lead 0 is not the initial state byte for byte")
        means = _global_mean(fd)                           # (lead, var)
        scale = np.abs(np.asarray(fd[0], dtype=np.float64)).mean(axis=(1, 2))
        drift = np.abs(means - means[0]).max(axis=0) / scale
        _require(bool((drift <= 1e-6).all()),
                 f"{t_i}: global mean drifts by {drift.max():.3g} of mean |x|")


def _read_scores(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require(reader.fieldnames == ["variable", "lead_hours", "metric",
                                       "value", "ci_low", "ci_high", "n_inits"],
                 f"score columns {reader.fieldnames}")
        return list(reader)


def check_scores(work: Path, workload: str, metrics: list[str]) -> None:
    s = workloads.SIZES[workload]
    rows = _read_scores(work / "out/scores.csv")
    n_lead = s["max_lead_hours"] // 6 + 1
    _require(len(rows) == len(s["variables"]) * n_lead * len(metrics),
             f"{len(rows)} score rows")
    for r in rows:
        where = f"{r['variable']} {r['metric']} at {r['lead_hours']} h"
        value, lo, hi = (float(r[k]) for k in ("value", "ci_low", "ci_high"))
        _require(lo <= value <= hi, f"{where}: CI [{lo}, {hi}] misses {value}")
        _require(int(r["n_inits"]) == s["inits"], f"{where}: n_inits {r['n_inits']}")
        _require(r["metric"] in metrics, f"{where}: unexpected metric")
        if r["lead_hours"] == "0":
            # persistence and the identity forecaster are exact at lead 0
            want = 0.0 if r["metric"] == "rmse" else 1.0
            _require(abs(value - want) <= 1e-8, f"{where}: {value}, want {want}")


def check_spectrum(work: Path, source: str) -> None:
    header, data = fields.read_gvf1(work / source)
    n_time, n_var, n_lat, _ = data.shape
    l_max = n_lat - 1
    powers: dict[tuple[str, int], dict[int, float]] = {}
    with open(work / "out/spectrum.csv", newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == ["variable", "lead_hours", "m", "power"],
                 "spectrum columns")
        for var, lead, m, p in reader:
            powers.setdefault((var, int(lead)), {})[int(m)] = float(p)
    _require(len(powers) == n_time * n_var, f"{len(powers)} spectra")
    t0 = _time(header["time_axis"][0])
    leads = [int((_time(t) - t0).total_seconds() // 3600)
             for t in header["time_axis"]]
    for j, var in enumerate(header["variables"]):
        oracle = fields.zonal_power_oracle(data[:, j], l_max)   # (time, m)
        for i, lead in enumerate(leads):
            got = powers.get((var["name"], lead), {})
            _require(sorted(got) == list(range(l_max + 1)),
                     f"{var['name']} lead {lead}: wavenumbers")
            err = np.abs(np.array([got[m] for m in range(l_max + 1)]) - oracle[i])
            _require(err.max() <= 1e-6 * oracle[i].sum(),
                     f"{var['name']} lead {lead}: spectrum off the oracle by "
                     f"{err.max() / oracle[i].sum():.3g} of the total power")


def check_filter(work: Path) -> None:
    _, data = fields.read_gvf1(work / "input.gvf")
    _, out = fields.read_gvf1(work / "out/filtered.gvf")
    _require(out.shape == data.shape, f"filtered shape {out.shape}")
    before, after = _global_mean(data), _global_mean(out)
    scale = np.abs(np.asarray(data)).mean(axis=(2, 3))
    _require(bool((np.abs(after - before) <= 1e-10 * scale).all()),
             "filter does not conserve the global mean")
    _require(not np.array_equal(out, data), "filter changed nothing")


def check_pad(work: Path, width: int) -> None:
    _, data = fields.read_gvf1(work / "input.gvf")
    _, out = fields.read_gvf1(work / "out/padded.gvf")
    n_lat, n_lon = data.shape[2:]
    _require(out.shape == data.shape[:2] + (n_lat + 2 * width, n_lon + 2 * width),
             f"padded shape {out.shape}")
    interior = out[:, :, width:width + n_lat, width:width + n_lon]
    _require(np.array_equal(interior, data), "padded interior differs")
    # the row beyond the north pole mirrors row 0, rotated by 180 degrees
    ghost = out[:, :, width - 1, width:width + n_lon]
    _require(np.array_equal(ghost, np.roll(data[:, :, 0], n_lon // 2, axis=-1)),
             "north ghost row is not the rotated polar row")


CHECKS = {
    "chain_n32": {
        "stats": check_stats,
        "normalize": check_normalize,
        "climatology": check_climatology,
        "solar": lambda w: check_solar(w, "chain_n32"),
        "rollout": lambda w: check_persistence(w, "chain_n32"),
        "verify": lambda w: check_scores(w, "chain_n32", ["acc", "rmse"]),
        "spectrum": lambda w: check_spectrum(w, "out/norm.gvf"),
    },
    "kernels_n320": {
        "solar": lambda w: check_solar(w, "kernels_n320"),
        "filter": check_filter,
        "pad": lambda w: check_pad(w, workloads.SIZES["kernels_n320"]["pad"]),
        "spectrum": lambda w: check_spectrum(w, "input.gvf"),
    },
    "external_rollout_n160": {
        "rollout": lambda w: check_external(w, "external_rollout_n160"),
        "verify": lambda w: check_scores(w, "external_rollout_n160", ["rmse"]),
    },
}


def run_checks(workload: str, work: Path) -> dict[str, list[str]]:
    failures = {}
    for stage, check in CHECKS[workload].items():
        try:
            check(work)
            failures[stage] = []
        except CheckFailed as exc:
            failures[stage] = [str(exc)]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # a missing or malformed output is a failed check, not a crash
            failures[stage] = [f"{type(exc).__name__}: {exc}"]
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--dir", required=True, type=Path)
    args = ap.parse_args(argv)
    print(json.dumps(run_checks(args.workload, args.dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
