"""Command-line interface: one executable, one subcommand per pipeline stage.

Parameters come from a JSON config file (--config) with individual flags
overriding it; unknown config keys are rejected.  The effective parameter
set is echoed to a .manifest.json next to the primary output so a run can
be reproduced exactly.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric/validation error.  Identical config and seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from datetime import timedelta
from pathlib import Path

import numpy as np

from . import container as cio
from .container import ContainerError, read_container, write_container
from .filters import DiffusionSpec, PoleFilterSpec, diffuse_values, pole_filter_values
from .grid import FieldSeries, make_equiangular_grid, make_gaussian_grid
from .padding import PadSpec, pad
from .preprocess import (Climatology, NormStats, compute_climatology,
                         compute_residual_coeff, compute_stats, denormalize,
                         normalize)
from .rollout import (ExternalForecasterError, PipelineStep, RolloutPlan,
                      run_rollout_to_dir)
from .sht import (kinetic_energy_spectrum, potential_temperature_energy_spectrum,
                  stack_slices, zonal_power_spectrum)
from .solar import SolarConfig, accumulated_irradiance, read_gsc_csv
from .verify import (acc, load_forecast_set, rmse, score_records,
                     average_correlations, correlation_difference,
                     spatial_correlation, write_correlation_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_grid(spec: str):
    kind, _, dims = spec.partition(":")
    try:
        n_lat, n_lon = (int(x) for x in dims.lower().split("x"))
    except ValueError:
        raise UsageError(
            f"grid must look like 'gaussian:64x128', got {spec!r}") from None
    if kind == "gaussian":
        return make_gaussian_grid(n_lat, n_lon)
    if kind == "equiangular":
        return make_equiangular_grid(n_lat, n_lon)
    raise UsageError(f"unknown grid kind {kind!r}")


def _parse_time_arg(s: str, flag: str):
    """A UTC time given as YYYY-MM-DDTHH:MM:SS, with or without a Z."""
    try:
        return cio._parse_time(s if s.endswith("Z") else s + "Z")
    except ValueError:
        raise UsageError(f"{flag}: {s!r} is not a UTC time; use the form "
                         "YYYY-MM-DDTHH:MM:SS[Z]") from None


def _task_seed(master: int, tag: str) -> int:
    return int(np.random.SeedSequence(
        [master, zlib.crc32(tag.encode())]).generate_state(1)[0])


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    provided = {k: v for k, v in vars(args).items()
                if k not in ("func", "config", "subcommand") and v is not None}
    effective = dict(parser_defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ContainerError(f"{config_path}: config file not found")
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}: config is not valid JSON: {exc}")
        unknown = sorted(set(doc) - set(parser_defaults))
        if unknown:
            raise ValueError(
                f"{config_path}: unknown config keys {unknown}; "
                f"known keys: {sorted(parser_defaults)}")
        effective.update(doc)
    effective.update(provided)
    return effective


def _write_manifest(primary_output, subcommand: str, effective: dict) -> None:
    path = Path(str(primary_output) + ".manifest.json")
    doc = {"subcommand": subcommand,
           "config": {k: effective[k] for k in sorted(effective)}}
    with cio.atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------- handlers

def _cmd_stats(cfg):
    c = read_container(cfg["input"])
    series_map = c.to_dict()
    stats = compute_stats(series_map)
    if cfg["residual"]:
        stats = compute_residual_coeff(series_map, stats,
                                       denominator=cfg["denominator"])
    stats.to_json(cfg["output"])
    _write_manifest(cfg["output"], "stats", cfg)
    return EXIT_OK


def _finite(c, values, variable: str, level: str):
    """values, after checking they are finite; the error names the file."""
    if not np.isfinite(values).all():
        raise ValueError(f"{c.path}: non-finite values in {variable} ({level})")
    return values


def _apply_per_series(cfg, subcommand, transform):
    c = read_container(cfg["input"])
    stats = NormStats.from_json(cfg["stats"])
    out = {}
    for key, series in c.to_dict().items():
        _finite(c, series.values, *key)
        out[key] = transform(series, stats)
    dtype = cfg["dtype"] or c.dtype_name
    write_container(out, cfg["output"], dtype=dtype, attrs=c.attrs)
    _write_manifest(cfg["output"], subcommand, cfg)
    return EXIT_OK


def _cmd_normalize(cfg):
    return _apply_per_series(cfg, "normalize", normalize)


def _cmd_denormalize(cfg):
    return _apply_per_series(cfg, "denormalize", denormalize)


def _cmd_climatology(cfg):
    c = read_container(cfg["input"])
    clim = compute_climatology(c.to_dict(), window_days=cfg["window_days"],
                               gaussian_std_days=cfg["std_days"])
    clim.to_container(cfg["output"], dtype=cfg["dtype"] or "f64")
    _write_manifest(cfg["output"], "climatology", cfg)
    return EXIT_OK


def _cmd_solar(cfg):
    if cfg["windows"] < 1:
        raise UsageError(f"--windows must be at least 1, got {cfg['windows']}")
    start = _parse_time_arg(cfg["start"], "--start")
    grid = _parse_grid(cfg["grid"])
    table = read_gsc_csv(cfg["gsc_csv"]) if cfg["gsc_csv"] else None
    config = SolarConfig(gsc_table=table)
    fields = []
    for k in range(cfg["windows"]):
        fields.append(accumulated_irradiance(
            start + timedelta(hours=k * cfg["window_hours"]),
            cfg["window_hours"], grid, config))
    series = FieldSeries.from_fields(fields)
    write_container({series.key: series}, cfg["output"],
                    dtype=cfg["dtype"] or "f32",
                    attrs={"window_hours": cfg["window_hours"]})
    _write_manifest(cfg["output"], "solar", cfg)
    return EXIT_OK


def _cmd_pad(cfg):
    c = read_container(cfg["input"])
    spec = PadSpec(pad_ns=cfg["pad_ns"], pad_ew=cfg["pad_ew"], mode=cfg["mode"])
    pseudo = make_equiangular_grid(c.grid.n_lat + 2 * spec.pad_ns,
                                   c.grid.n_lon + 2 * spec.pad_ew)
    out = {}
    for key, series in c.to_dict().items():
        padded = np.stack([pad(series.values[i], spec)
                           for i in range(len(series))])
        out[key] = FieldSeries(pseudo, key[0], key[1], series.times, padded,
                               units=series.units)
    attrs = dict(c.attrs)
    attrs["padding"] = {"pad_ns": spec.pad_ns, "pad_ew": spec.pad_ew,
                        "mode": spec.mode,
                        "interior_grid": {"kind": c.grid.kind,
                                          "n_lat": c.grid.n_lat,
                                          "n_lon": c.grid.n_lon}}
    write_container(out, cfg["output"], dtype=cfg["dtype"] or c.dtype_name,
                    attrs=attrs)
    _write_manifest(cfg["output"], "pad", cfg)
    return EXIT_OK


def _cmd_filter(cfg):
    if not cfg["diffuse"] and not cfg["pole_filter"]:
        raise UsageError("filter needs --diffuse and/or --pole-filter")
    c = read_container(cfg["input"])
    diffuse_spec = None
    if cfg["diffuse"]:
        nu_dt, steps = cfg["diffuse"].split(",")
        diffuse_spec = DiffusionSpec(nu_dt=float(nu_dt), steps=int(steps))
    pole_spec = None
    if cfg["pole_filter"]:
        parts = [float(x) for x in str(cfg["pole_filter"]).split(",")]
        pole_spec = PoleFilterSpec(start_lat=parts[0],
                                   reference_lat=parts[1] if len(parts) > 1 else None)
    out = {}
    for key, series in c.to_dict().items():
        vals = series.values.copy()
        for i in range(len(series)):
            if diffuse_spec:
                vals[i] = diffuse_values(vals[i], c.grid, diffuse_spec)
            if pole_spec:
                vals[i] = pole_filter_values(vals[i], c.grid, pole_spec)
        out[key] = FieldSeries(c.grid, key[0], key[1], series.times, vals,
                               units=series.units)
    write_container(out, cfg["output"], dtype=cfg["dtype"] or c.dtype_name,
                    attrs=c.attrs)
    _write_manifest(cfg["output"], "filter", cfg)
    return EXIT_OK


def _spectrum_rows(cfg, c):
    l_max = cfg["l_max"] or min(c.grid.n_lat - 1, (c.grid.n_lon - 1) // 2)
    init = c.attrs.get("init_time")
    t0 = cio._parse_time(init) if init else c.times[0]
    leads = [int((t - t0).total_seconds() // 3600) for t in c.times]

    def read(times, name, lev=cfg["level"]):
        return _finite(c, c.values(times, name, lev), name, lev)

    def spectra(times):
        """(tag, SpectrumResult) for a stack of times, one transform call
        per variable."""
        if cfg["kind"] == "kinetic":
            yield "KE", kinetic_energy_spectrum(
                read(times, cfg["u_var"]), read(times, cfg["v_var"]), l_max,
                half=not cfg["no_half"], grid=c.grid)
        elif cfg["kind"] == "theta":
            yield "theta", potential_temperature_energy_spectrum(
                read(times, cfg["t_var"]), l_max,
                pressure_hpa=cfg["pressure"], grid=c.grid)
        else:
            for name, lev, _units in c.variables:
                yield (name if lev == "single" else f"{name}|{lev}",
                       zonal_power_spectrum(read(times, name, lev), l_max,
                                            c.grid))

    return [(tag, lead, m, p)
            for times in stack_slices(len(leads), c.grid)
            for tag, spec in spectra(times)
            for lead, power in zip(leads[times], spec.power)
            for m, p in enumerate(power)]


def _cmd_spectrum(cfg):
    c = read_container(cfg["input"])
    rows = _spectrum_rows(cfg, c)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with cio.atomic_write(cfg["output"], newline="") as fh:
        fh.write("variable,lead_hours,m,power\n")
        for var, lead, m, p in rows:
            fh.write(f"{var},{lead},{m},{cio._fmt(p)}\n")
    _write_manifest(cfg["output"], "spectrum", cfg)
    return EXIT_OK


def _cmd_verify(cfg):
    fs = load_forecast_set(cfg["forecast_dir"], cfg["target"],
                           climatology_path=cfg["climatology"])
    metrics = [m.strip() for m in cfg["metrics"].split(",") if m.strip()]
    for m in metrics:
        if m not in ("rmse", "acc"):
            raise ValueError(f"unknown metric {m!r}: choose from rmse, acc")
    if "acc" in metrics and fs.climatology is None:
        raise ValueError("acc requires --climatology")
    leads = fs.lead_hours()
    series = []
    for key in fs.keys:
        for lead in leads:
            for metric in metrics:
                tag = f"{key[0]}|{key[1]}|{lead}|{metric}"
                fn = rmse if metric == "rmse" else acc
                series.append(fn(fs, key[0], level=key[1], lead_hours=lead,
                                 n_boot=cfg["bootstrap"],
                                 seed=_task_seed(cfg["seed"], tag)))
    records = score_records(series)
    cio.write_scores(records, cfg["output"], format=cfg["format"])
    _write_manifest(cfg["output"], "verify", cfg)
    return EXIT_OK


def _mean_correlation(path, weighted):
    """Correlation matrix of a container's variables, averaged over times."""
    c = read_container(path)
    return average_correlations([
        spatial_correlation([c.field(i, name, level)
                             for name, level, _ in c.variables],
                            weighted=weighted)
        for i in range(len(c.times))])


def _cmd_correlate(cfg):
    mean = _mean_correlation(cfg["input"], cfg["weighted"])
    write_correlation_csv(mean, cfg["output"])
    if cfg["reference"]:
        ref = _mean_correlation(cfg["reference"], cfg["weighted"])
        diff = correlation_difference(mean, ref)
        diff_path = cfg["difference_output"] or str(cfg["output"]) + ".diff.csv"
        write_correlation_csv(mean, diff_path, values=diff)
    _write_manifest(cfg["output"], "correlate", cfg)
    return EXIT_OK


def _cmd_rollout(cfg):
    c = read_container(cfg["initial_states"])
    states = c.to_dict()
    if cfg["init_times"]:
        inits = [_parse_time_arg(s.strip(), "--init-times")
                 for s in cfg["init_times"].split(",")]
    else:
        start, count, stride = cfg["inits"].split(",")
        t0 = _parse_time_arg(start.strip(), "--inits")
        inits = [t0 + timedelta(hours=int(stride) * k)
                 for k in range(int(count))]
    postprocess = []
    for step in json.loads(cfg["postprocess"] or "[]"):
        postprocess.append(PipelineStep(
            kind=step["kind"], params=step.get("params", {}),
            variables=tuple(step["variables"]) if step.get("variables") else None))
    plan = RolloutPlan(
        init_times=inits, step_hours=cfg["step_hours"],
        max_lead_hours=cfg["max_lead_hours"], forecaster=cfg["forecaster"],
        external_command=(cfg["external_cmd"].split() if cfg["external_cmd"]
                          else None),
        postprocess=postprocess,
        state_dtype=cfg["dtype"] or c.dtype_name)
    clim = (Climatology.from_container(cfg["climatology"])
            if cfg["climatology"] else None)
    run_rollout_to_dir(plan, states, cfg["output_dir"], climatology=clim)
    _write_manifest(Path(cfg["output_dir"]) / "rollout", "rollout", cfg)
    return EXIT_OK


# ----------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="spherecast",
                     description="Global gridded-field pipeline toolkit")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, prog=f"spherecast {name}")
        p.set_defaults(func=handler)
        p.add_argument("--config", help="JSON config file; flags override it")
        return p

    p = add("stats", _cmd_stats, "compute normalization statistics")
    p.add_argument("--input", help="input GVF1 container")
    p.add_argument("--output", help="output stats JSON")
    p.add_argument("--residual", action="store_true", default=None,
                   help="also compute residual coefficients (default)")
    p.add_argument("--no-residual", dest="residual", action="store_false",
                   help="skip residual coefficients")
    p.add_argument("--denominator", choices=["tendency", "standardized"],
                   default=None, help="residual rescaling denominator")

    for name, handler in (("normalize", _cmd_normalize),
                          ("denormalize", _cmd_denormalize)):
        p = add(name, handler, f"{name} a container with given stats")
        p.add_argument("--input")
        p.add_argument("--stats", help="stats JSON from the stats subcommand")
        p.add_argument("--output")
        p.add_argument("--dtype", choices=["f32", "f64"], default=None)

    p = add("climatology", _cmd_climatology,
            "compute day-of-year/hour-of-day climatology")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--window-days", type=int, default=None)
    p.add_argument("--std-days", type=float, default=None)
    p.add_argument("--dtype", choices=["f32", "f64"], default=None)

    p = add("solar", _cmd_solar, "generate accumulated solar forcing")
    p.add_argument("--grid", help="e.g. gaussian:64x128")
    p.add_argument("--start", help="first window start, ISO UTC")
    p.add_argument("--windows", type=int, default=None, help="window count")
    p.add_argument("--window-hours", type=int, choices=[1, 6], default=None)
    p.add_argument("--gsc-csv", default=None,
                   help="year,value CSV of annual solar constants")
    p.add_argument("--output")
    p.add_argument("--dtype", choices=["f32", "f64"], default=None)

    p = add("pad", _cmd_pad, "emit padded arrays for debugging")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--pad-ns", type=int, default=None)
    p.add_argument("--pad-ew", type=int, default=None)
    p.add_argument("--mode", choices=["rotate_reflect", "reflect_only"],
                   default=None)
    p.add_argument("--dtype", choices=["f32", "f64"], default=None)

    p = add("filter", _cmd_filter, "smooth fields (diffusion/pole filter)")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--diffuse", default=None, metavar="NU_DT,STEPS")
    p.add_argument("--pole-filter", default=None, metavar="START_LAT[,REF_LAT]")
    p.add_argument("--dtype", choices=["f32", "f64"], default=None)

    p = add("spectrum", _cmd_spectrum, "zonal-wavenumber energy spectra")
    p.add_argument("--input")
    p.add_argument("--output", help="CSV: variable,lead_hours,m,power")
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--kind", choices=["power", "kinetic", "theta"], default=None)
    p.add_argument("--u-var", default=None)
    p.add_argument("--v-var", default=None)
    p.add_argument("--t-var", default=None)
    p.add_argument("--level", default=None)
    p.add_argument("--pressure", type=float, default=None, help="hPa for theta")
    p.add_argument("--no-half", action="store_true", default=None,
                   help="drop the 1/2 factor in kinetic energy")

    p = add("verify", _cmd_verify, "score forecasts against a target")
    p.add_argument("--forecast-dir", help="directory of per-init containers")
    p.add_argument("--target", help="verification target container")
    p.add_argument("--climatology", default=None, help="climatology container")
    p.add_argument("--metrics", default=None, help="comma list: rmse,acc")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="bootstrap resamples (default 1000)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="score file")
    p.add_argument("--format", choices=["csv", "jsonl"], default=None)

    p = add("correlate", _cmd_correlate, "cross-variable spatial correlation")
    p.add_argument("--input")
    p.add_argument("--reference", default=None,
                   help="optional reference container for a difference matrix")
    p.add_argument("--output")
    p.add_argument("--difference-output", default=None)
    p.add_argument("--weighted", action="store_true", default=None)

    p = add("rollout", _cmd_rollout, "run baseline or external forecasters")
    p.add_argument("--initial-states", help="container of initial conditions")
    p.add_argument("--output-dir")
    p.add_argument("--inits", default=None, metavar="START,COUNT,STRIDE_HOURS")
    p.add_argument("--init-times", default=None, help="comma list of ISO times")
    p.add_argument("--step-hours", type=int, choices=[1, 6], default=None)
    p.add_argument("--max-lead-hours", type=int, default=None)
    p.add_argument("--forecaster",
                   choices=["persistence", "climatology", "external"],
                   default=None)
    p.add_argument("--external-cmd", default=None,
                   help="command prefix for the external protocol")
    p.add_argument("--climatology", default=None)
    p.add_argument("--postprocess", default=None,
                   help='JSON list of {"kind", "params", "variables"} steps')
    p.add_argument("--dtype", choices=["f32", "f64"], default=None)

    return parser


_DEFAULTS = {
    "stats": {"input": None, "output": None, "residual": True,
              "denominator": "tendency"},
    "normalize": {"input": None, "stats": None, "output": None, "dtype": None},
    "denormalize": {"input": None, "stats": None, "output": None, "dtype": None},
    "climatology": {"input": None, "output": None, "window_days": 61,
                    "std_days": 10.0, "dtype": None},
    "solar": {"grid": None, "start": None, "windows": 1, "window_hours": 6,
              "gsc_csv": None, "output": None, "dtype": None},
    "pad": {"input": None, "output": None, "pad_ns": 0, "pad_ew": 0,
            "mode": "rotate_reflect", "dtype": None},
    "filter": {"input": None, "output": None, "diffuse": None,
               "pole_filter": None, "dtype": None},
    "spectrum": {"input": None, "output": None, "l_max": None, "kind": "power",
                 "u_var": "U500", "v_var": "V500", "t_var": "T500",
                 "level": "single", "pressure": 500.0, "no_half": False},
    "verify": {"forecast_dir": None, "target": None, "climatology": None,
               "metrics": "rmse,acc", "bootstrap": 1000, "seed": 0,
               "output": None, "format": "csv"},
    "correlate": {"input": None, "reference": None, "output": None,
                  "difference_output": None, "weighted": False},
    "rollout": {"initial_states": None, "output_dir": None, "inits": None,
                "init_times": None, "step_hours": 6, "max_lead_hours": 240,
                "forecaster": "persistence", "external_cmd": None,
                "climatology": None, "postprocess": None, "dtype": None},
}

_REQUIRED = {
    "stats": ["input", "output"],
    "normalize": ["input", "stats", "output"],
    "denormalize": ["input", "stats", "output"],
    "climatology": ["input", "output"],
    "solar": ["grid", "start", "output"],
    "pad": ["input", "output"],
    "filter": ["input", "output"],
    "spectrum": ["input", "output"],
    "verify": ["forecast_dir", "target", "output"],
    "correlate": ["input", "output"],
    "rollout": ["initial_states", "output_dir"],
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "subcommand", None) is None:
            raise UsageError("a subcommand is required")
        sub = args.subcommand
        cfg = _merge_config(args, _DEFAULTS[sub])
        missing = [k for k in _REQUIRED[sub] if cfg.get(k) is None]
        if missing:
            raise UsageError(
                f"{sub}: missing required parameters "
                + ", ".join("--" + m.replace("_", "-") for m in missing))
        if sub == "rollout" and not (cfg["inits"] or cfg["init_times"]):
            raise UsageError("rollout: provide --inits or --init-times")
        return args.func(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ContainerError, ExternalForecasterError, FileNotFoundError,
            KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"data error: {msg}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
