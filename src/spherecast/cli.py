"""Command-line interface: one executable, one subcommand per pipeline stage.

Parameters come from a JSON config file (--config) with individual flags
overriding it; unknown config keys, and values the flag could not have
given, are rejected.  The effective parameter
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
from typing import NamedTuple

import numpy as np

from . import container as cio
from .container import (ContainerError, check_agreement, check_finite,
                        check_nonempty, container_writer, read_container,
                        read_keys)
from .grid import default_units, make_equiangular_grid, make_gaussian_grid
from .padding import PadSpec, pad
from .preprocess import (Climatology, NormStats, climatology_bins,
                         climatology_writer, compute_norm_stats, denormalize,
                         normalize)
from .rollout import (ExternalForecasterError, PipelineStep,
                      PostprocessError, RolloutPlan, apply_postprocessing,
                      run_rollout_to_dir)
from .sht import (kinetic_energy_spectrum, potential_temperature_energy_spectrum,
                  zonal_power_spectrum)
from .solar import SolarConfig, accumulated_irradiance, read_gsc_csv
from .verify import (check_metrics, load_forecast_set, score_cells,
                     score_records, average_correlations,
                     correlation_difference, spatial_correlation,
                     write_correlation_csv)

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


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; unknown config keys, and
    values that are neither null (unset) nor one the flag could give, are
    rejected."""
    _, _, params = _COMMANDS[args.subcommand]
    parser_defaults = _DEFAULTS[args.subcommand]
    provided = {k: v for k, v in vars(args).items()
                if k in parser_defaults and v is not None}
    effective = dict(parser_defaults)
    config_path = args.config
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ContainerError(f"{config_path}: config file not found")
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}: config is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ValueError(f"{config_path}: config is not a JSON object")
        unknown = sorted(set(doc) - set(parser_defaults))
        if unknown:
            raise ValueError(
                f"{config_path}: unknown config keys {unknown}; "
                f"known keys: {sorted(parser_defaults)}")
        for prm in params:
            value = doc.get(prm.name)
            if isinstance(prm.kind, list):
                expected = f"one of {json.dumps(prm.kind)}"
                ok = any(type(value) is type(c) and value == c
                         for c in prm.kind)
            else:
                types, expected = _JSON_KINDS[prm.kind]
                ok = type(value) in types
            if value is not None and not ok:
                raise ValueError(f"{config_path}: config key {prm.name!r} "
                                 f"must be {expected}, got {json.dumps(value)}")
        effective.update((k, v) for k, v in doc.items() if v is not None)
    effective.update(provided)
    return effective


def _write_manifest(subcommand: str, cfg: dict) -> None:
    primary = (Path(cfg["output_dir"]) / "rollout" if "output_dir" in cfg
               else cfg["output"])
    doc = {"subcommand": subcommand,
           "config": {k: cfg[k] for k in sorted(cfg)}}
    with cio.atomic_write(Path(str(primary) + ".manifest.json")) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parts(cfg, name: str, *types, required: int | None = None) -> list:
    """The comma-separated parts of cfg[name], each through its type, of
    which the first `required` (default: all) must be there."""
    text = cfg[name]
    parts = [p.strip() for p in text.split(",")]
    if (required or len(types)) <= len(parts) <= len(types):
        try:
            return [t(p) for t, p in zip(types, parts)]
        except ValueError:
            pass
    raise UsageError(f"--{name.replace('_', '-')}: {text!r} is not of the "
                     f"form {_FORMS[name]}")


# ---------------------------------------------------------------- handlers

def _cmd_stats(cfg):
    if not cfg["residual"] and (cfg["denominator"]
                                != _DEFAULTS["stats"]["denominator"]):
        raise UsageError("--denominator applies to the residual "
                         "coefficients, which --no-residual turns off")
    stats = compute_norm_stats(
        read_container(cfg["input"]),
        denominator=cfg["denominator"] if cfg["residual"] else None)
    stats.to_json(cfg["output"])


# fields in one spectrum pass at the least, whatever their size: each
# transform call reruns the Legendre recurrence, which costs about as much
# as the matmuls of four fields
_MIN_FIELDS = 8


def _row_blocks(c, n_keys: int, min_fields: int = 1, even: bool = False):
    """Slices of c's time rows, each as many rows of n_keys variables as
    fit one block (container._BLOCK_BYTES) of float64, and at least enough
    for min_fields fields (an odd field count rounded up to an even one
    with even), the last cut at the end of the time axis; an empty time
    axis gives one empty slice."""
    check_nonempty(c, times=False)
    n = max(1, cio._BLOCK_BYTES // (8 * n_keys * c.grid.n_lat
                                    * c.grid.n_lon),
            -(-min_fields // n_keys))
    if even:
        n += n * n_keys % 2
    return [slice(start, min(start + n, len(c.times)))
            for start in range(0, max(len(c.times), 1), n)]


def _map_rows(cfg, c, transform, grid=None, units=None, attrs=None):
    """Write cfg["output"], its header (c's, but for any grid, units, attrs
    or --dtype given) fixed first, then block of time rows by block: each
    variable's rows, read and checked into one float64 (rows, n_lat,
    n_lon) array made for the call, through transform(values, (variable,
    level)), which may overwrite values."""
    blocks = _row_blocks(c, len(c.keys))
    into = np.empty((blocks[0].stop,) + c.grid.shape)
    with container_writer(cfg["output"], grid or c.grid,
                          [(name, lev, units or u)
                           for name, lev, u in c.variables],
                          c.times, dtype=cfg["dtype"] or c.dtype_name,
                          attrs=c.attrs if attrs is None else attrs) as write:
        for rows in blocks:
            for j, key in enumerate(c.keys):
                values = c.read(rows, key, into[:rows.stop - rows.start])
                check_finite(c.path, "values in", values, [key], c.times[rows])
                write.at(range(rows.start, rows.stop), j,
                         transform(values, key))


def _cmd_normalize(cfg):
    c = read_container(cfg["input"])
    stats = NormStats.from_json(cfg["stats"])
    check_agreement(stats, c.keys)
    _map_rows(cfg, c, lambda values, key: normalize(values, stats, *key,
                                                    out=values), units="1")


def _cmd_denormalize(cfg):
    c = read_container(cfg["input"])
    stats = NormStats.from_json(cfg["stats"])
    check_agreement(stats, c.keys)
    _map_rows(cfg, c, lambda values, key: denormalize(values, stats, *key,
                                                      out=values))


def _cmd_climatology(cfg):
    """Each chunk of bins is written to its rows as it is made."""
    c = read_container(cfg["input"])
    bins = climatology_bins(c, window_days=cfg["window_days"],
                            gaussian_std_days=cfg["std_days"])
    j, hours, hi, days, cells, means = next(bins)
    with climatology_writer(cfg["output"], c.grid, c.variables, hours,
                            cfg["window_days"], cfg["std_days"],
                            dtype=cfg["dtype"] or "f64") as put:
        put(j, hi, means, days, cells.start)
        del means  # before the next chunk is made
        for j, _, hi, days, cells, means in bins:
            put(j, hi, means, days, cells.start)
            del means


def _cmd_solar(cfg):
    if cfg["windows"] < 1:
        raise UsageError(f"--windows must be at least 1, got {cfg['windows']}")
    start = _parse_time_arg(cfg["start"], "--start")
    grid = _parse_grid(cfg["grid"])
    config = SolarConfig(gsc_table=read_gsc_csv(cfg["gsc_csv"])
                         if cfg["gsc_csv"] else None)
    hours = cfg["window_hours"]
    starts = [start + timedelta(hours=k * hours) for k in range(cfg["windows"])]
    with container_writer(cfg["output"], grid,
                          [("Is", "single", default_units("Is"))],
                          [t + timedelta(hours=hours) for t in starts],
                          dtype=cfg["dtype"] or "f32",
                          attrs={"window_hours": hours}) as write:
        for t in starts:  # each window is written as soon as it is made
            write([accumulated_irradiance(t, hours, grid, config)[None]])


def _cmd_pad(cfg):
    c = read_container(cfg["input"])
    spec = PadSpec(pad_ns=cfg["pad_ns"], pad_ew=cfg["pad_ew"], mode=cfg["mode"])
    pseudo = make_equiangular_grid(c.grid.n_lat + 2 * spec.pad_ns,
                                   c.grid.n_lon + 2 * spec.pad_ew)
    padding = {"pad_ns": spec.pad_ns, "pad_ew": spec.pad_ew, "mode": spec.mode,
               "interior_grid": {"kind": c.grid.kind, "n_lat": c.grid.n_lat,
                                 "n_lon": c.grid.n_lon}}
    _map_rows(cfg, c, lambda values, key: pad(values, spec), grid=pseudo,
              attrs={**c.attrs, "padding": padding})


def _cmd_filter(cfg):
    steps = []
    if cfg["diffuse"]:
        nu_dt, n = _parts(cfg, "diffuse", float, int)
        steps.append(PipelineStep("laplacian_diffuse",
                                  {"nu_dt": nu_dt, "steps": n}))
    if cfg["pole_filter"]:
        lats = _parts(cfg, "pole_filter", float, float, required=1)
        steps.append(PipelineStep("pole_filter", dict(
            zip(("start_lat", "reference_lat"), lats))))
    if not steps:
        raise UsageError("filter needs --diffuse and/or --pole-filter")
    c = read_container(cfg["input"])
    _map_rows(cfg, c, lambda values, key: apply_postprocessing(
        {key: values}, steps, c.grid) or values)  # in place


# the spectrum flags that only some kinds read, and those kinds
_SPECTRUM_FLAGS = {"u_var": ("kinetic",), "v_var": ("kinetic",),
                   "t_var": ("theta",), "level": ("kinetic", "theta"),
                   "pressure": ("theta",), "no_half": ("kinetic",)}


def _cmd_spectrum(cfg):
    """Power per (tag, time, m) in a float64 array, filled a pass of whole
    time rows at a time (one read into an array made once, then one
    transform call over every field read), then written in (tag, lead, m)
    order."""
    kind = cfg["kind"]
    for flag, kinds in _SPECTRUM_FLAGS.items():
        if kind not in kinds and cfg[flag] != _DEFAULTS["spectrum"][flag]:
            raise UsageError(
                f"--{flag.replace('_', '-')} applies to --kind "
                f"{' or '.join(kinds)} only, not {kind!r}")
    c = read_container(cfg["input"])
    t0 = c.init_time
    limit = min(c.grid.n_lat - 1, (c.grid.n_lon - 1) // 2)
    l_max = limit if cfg["l_max"] is None else cfg["l_max"]
    if not 0 <= l_max <= limit:
        raise ValueError(
            f"{c.path}: --l-max {l_max} is out of range: the "
            f"{c.grid.n_lat}x{c.grid.n_lon} grid resolves 0..{limit}")
    if kind == "kinetic":
        keys, tags = [(cfg["u_var"], cfg["level"]),
                      (cfg["v_var"], cfg["level"])], ["KE"]
    elif kind == "theta":
        keys, tags = [(cfg["t_var"], cfg["level"])], ["theta"]
    else:
        keys = c.keys
        tags = [name if lev == "single" else f"{name}|{lev}"
                for name, lev in keys]

    def spectra(fields):
        """(k, tags, l_max + 1) power of one pass of (k, keys, ...) fields."""
        if kind == "kinetic":
            return kinetic_energy_spectrum(
                fields[:, 0], fields[:, 1], l_max, c.grid,
                half=not cfg["no_half"]).power[:, None]
        if kind == "theta":
            return potential_temperature_energy_spectrum(
                fields[:, 0], l_max, c.grid,
                pressure_hpa=cfg["pressure"]).power[:, None]
        return zonal_power_spectrum(fields, l_max, c.grid).power

    power = np.empty((len(c.times), len(tags), l_max + 1))
    # even passes: the transform pads an odd stack with a zero field; read
    # in the file's dtype, which the transform takes to float64 by chunks
    blocks = _row_blocks(c, len(keys), _MIN_FIELDS, even=True)
    into = np.empty((blocks[0].stop, len(keys)) + c.grid.shape, c.dtype)
    for rows in blocks:
        fields = read_keys(c, rows, keys, into[:rows.stop - rows.start])
        for j, key in enumerate(keys):
            check_finite(c.path, "values in", fields[:, j], [key],
                         c.times[rows])
        power[rows] = spectra(fields)

    by_lead = {}
    for i, t in enumerate(c.times):
        t0 = t0 or t  # leads count from the first time without an init_time
        by_lead.setdefault(int((t - t0).total_seconds() // 3600), []).append(i)
    with cio.atomic_write(cfg["output"], newline="") as fh:
        fh.write("variable,lead_hours,m,power\n")
        for j in sorted(range(len(tags)), key=tags.__getitem__):
            for lead in sorted(by_lead):
                # times sharing a lead go m by m, as a sort would put them
                fh.write("".join(
                    f"{tags[j]},{lead},{m},{cio._fmt(p)}\n"
                    for m, ps in enumerate(power[by_lead[lead], j].T.tolist())
                    for p in ps))


def _cmd_verify(cfg):
    if cfg["bootstrap"] < 1:
        raise UsageError(
            f"--bootstrap must be at least 1, got {cfg['bootstrap']}")
    metrics = [m.strip() for m in cfg["metrics"].split(",") if m.strip()]
    check_metrics(metrics)
    if "acc" in metrics and not cfg["climatology"]:
        raise ValueError("acc requires --climatology")
    fs = load_forecast_set(cfg["forecast_dir"], cfg["target"],
                           climatology_path=cfg["climatology"])
    series = score_cells(
        fs, metrics, [(key, lead) for key in fs.keys
                      for lead in fs.lead_hours()],
        n_boot=cfg["bootstrap"],
        seed=lambda key, lead, metric: _task_seed(
            cfg["seed"], f"{key[0]}|{key[1]}|{lead}|{metric}"))
    records = score_records(series)
    cio.write_scores(records, cfg["output"], format=cfg["format"])


def _mean_correlation(c, keys, weighted):
    """Correlation matrix of container c's variables keys, in that order,
    averaged over times; an error names the file."""
    check_nonempty(c)
    fields, matrices = np.empty((len(keys),) + c.grid.shape), []
    for i, t in enumerate(c.times):
        read_keys(c, i, keys, fields)
        check_finite(c.path, "values in", fields[None], keys, [t])
        try:
            matrices.append(spatial_correlation(fields, keys, c.grid,
                                                weighted=weighted))
        except ValueError as exc:
            raise ValueError(f"{c.path} at {t.isoformat()}: {exc}") from None
    return average_correlations(matrices)


def _cmd_correlate(cfg):
    """Both inputs are read and checked before anything is written."""
    if cfg["difference_output"] and not cfg["reference"]:
        raise UsageError("--difference-output applies with --reference only")
    c = read_container(cfg["input"])
    mean = _mean_correlation(c, c.keys, cfg["weighted"])
    outputs = [(cfg["output"], None)]
    if cfg["reference"]:
        ref = read_container(cfg["reference"])
        check_agreement(ref, c.keys)  # a reference may be on another grid
        outputs.append((
            cfg["difference_output"] or str(cfg["output"]) + ".diff.csv",
            correlation_difference(
                mean, _mean_correlation(ref, c.keys, cfg["weighted"]))))
    for path, values in outputs:
        write_correlation_csv(mean, path, values=values)


def _pipeline(text) -> list[PipelineStep]:
    """The steps of a --postprocess JSON list, each checked as it is built."""
    try:
        doc = json.loads(text or "[]")
    except ValueError:
        doc = None
    if not (isinstance(doc, list) and all(
            isinstance(s, dict) and "kind" in s
            and set(s) <= {"kind", "params", "variables"} for s in doc)):
        raise UsageError(f"--postprocess: {text!r} is not a JSON list of "
                         '{"kind", "params", "variables"} objects')
    steps = []
    for n, s in enumerate(doc, 1):
        try:
            steps.append(PipelineStep(**s))
        except PostprocessError as exc:
            raise UsageError(f"--postprocess: step {n}: {exc}") from None
    return steps


def _cmd_rollout(cfg):
    if cfg["init_times"]:
        inits = [_parse_time_arg(s.strip(), "--init-times")
                 for s in cfg["init_times"].split(",")]
    elif cfg["inits"]:
        t0, count, stride = _parts(
            cfg, "inits", lambda s: _parse_time_arg(s, "--inits"), int, int)
        inits = [t0 + timedelta(hours=stride * k) for k in range(count)]
    else:
        raise UsageError("rollout: provide --inits or --init-times")
    postprocess = _pipeline(cfg["postprocess"])
    c = read_container(cfg["initial_states"])
    try:
        plan = RolloutPlan(
            init_times=inits, step_hours=cfg["step_hours"],
            max_lead_hours=cfg["max_lead_hours"], forecaster=cfg["forecaster"],
            external_command=(cfg["external_cmd"].split()
                              if cfg["external_cmd"] else None),
            postprocess=postprocess,
            state_dtype=cfg["dtype"] or c.dtype_name)
    except PostprocessError as exc:
        raise UsageError(f"--postprocess: {exc}") from None
    for flag, forecaster in (("external_cmd", "external"),
                             ("climatology", "climatology")):
        if cfg[flag] and cfg["forecaster"] != forecaster:
            raise UsageError(
                f"--{flag.replace('_', '-')} applies to --forecaster "
                f"{forecaster} only, not {cfg['forecaster']!r}")
    clim = (Climatology.from_container(cfg["climatology"])
            if cfg["climatology"] else None)
    run_rollout_to_dir(plan, c, cfg["output_dir"], climatology=clim)


# ------------------------------------------------------------- parameters

NEEDED = object()
"""The default of a parameter that has none and must be given."""


class Param(NamedTuple):
    """One subcommand parameter, set by the flag --name (with - for _).

    default is its value when not given (None for none), or NEEDED.  kind is
    int, float or str, a list of the allowed values, or bool for a switch;
    a switch that defaults to True also gets --no-name.
    """

    name: str
    default: object
    kind: object
    help: str | None = None
    metavar: str | None = None


_DTYPE = Param("dtype", None, ["f32", "f64"])


def _transform_command(handler, name):
    return (handler, f"{name} a container with given stats", (
        Param("input", NEEDED, str),
        Param("stats", NEEDED, str, "stats JSON from the stats subcommand"),
        Param("output", NEEDED, str),
        _DTYPE))


# subcommand: (handler, help line, parameters)
_COMMANDS = {
    "stats": (_cmd_stats, "compute normalization statistics", (
        Param("input", NEEDED, str, "input GVF1 container"),
        Param("output", NEEDED, str, "output stats JSON"),
        Param("residual", True, bool,
              "also compute residual coefficients (default)"),
        Param("denominator", "tendency", ["tendency", "standardized"],
              "residual rescaling denominator"))),
    "normalize": _transform_command(_cmd_normalize, "normalize"),
    "denormalize": _transform_command(_cmd_denormalize, "denormalize"),
    "climatology": (
        _cmd_climatology, "compute day-of-year/hour-of-day climatology", (
            Param("input", NEEDED, str),
            Param("output", NEEDED, str),
            Param("window_days", 61, int),
            Param("std_days", 10.0, float),
            _DTYPE)),
    "solar": (_cmd_solar, "generate accumulated solar forcing", (
        Param("grid", NEEDED, str, "e.g. gaussian:64x128"),
        Param("start", NEEDED, str, "first window start, ISO UTC"),
        Param("windows", 1, int, "window count"),
        Param("window_hours", 6, [1, 6]),
        Param("gsc_csv", None, str,
              "year,value CSV of annual solar constants"),
        Param("output", NEEDED, str),
        _DTYPE)),
    "pad": (_cmd_pad, "emit padded arrays for debugging", (
        Param("input", NEEDED, str),
        Param("output", NEEDED, str),
        Param("pad_ns", 0, int),
        Param("pad_ew", 0, int),
        Param("mode", "rotate_reflect", ["rotate_reflect", "reflect_only"]),
        _DTYPE)),
    "filter": (_cmd_filter, "smooth fields (diffusion/pole filter)", (
        Param("input", NEEDED, str),
        Param("output", NEEDED, str),
        Param("diffuse", None, str, metavar="NU_DT,STEPS"),
        Param("pole_filter", None, str, metavar="START_LAT[,REF_LAT]"),
        _DTYPE)),
    "spectrum": (_cmd_spectrum, "zonal-wavenumber energy spectra", (
        Param("input", NEEDED, str),
        Param("output", NEEDED, str, "CSV: variable,lead_hours,m,power"),
        Param("l_max", None, int),
        Param("kind", "power", ["power", "kinetic", "theta"]),
        Param("u_var", "U500", str),
        Param("v_var", "V500", str),
        Param("t_var", "T500", str),
        Param("level", "single", str),
        Param("pressure", 500.0, float, "hPa for theta"),
        Param("no_half", False, bool,
              "drop the 1/2 factor in kinetic energy"))),
    "verify": (_cmd_verify, "score forecasts against a target", (
        Param("forecast_dir", NEEDED, str, "directory of per-init containers"),
        Param("target", NEEDED, str, "verification target container"),
        Param("climatology", None, str, "climatology container"),
        Param("metrics", "rmse,acc", str, "comma list: rmse,acc"),
        Param("bootstrap", 1000, int, "bootstrap resamples (default 1000)"),
        Param("seed", 0, int),
        Param("output", NEEDED, str, "score file"),
        Param("format", "csv", ["csv", "jsonl"]))),
    "correlate": (_cmd_correlate, "cross-variable spatial correlation", (
        Param("input", NEEDED, str),
        Param("reference", None, str,
              "optional reference container for a difference matrix"),
        Param("output", NEEDED, str),
        Param("difference_output", None, str),
        Param("weighted", False, bool))),
    "rollout": (_cmd_rollout, "run baseline or external forecasters", (
        Param("initial_states", NEEDED, str, "container of initial conditions"),
        Param("output_dir", NEEDED, str),
        Param("inits", None, str, metavar="START,COUNT,STRIDE_HOURS"),
        Param("init_times", None, str, "comma list of ISO times"),
        Param("step_hours", 6, [1, 6]),
        Param("max_lead_hours", 240, int),
        Param("forecaster", "persistence",
              ["persistence", "climatology", "external"]),
        Param("external_cmd", None, str,
              "command prefix for the external protocol"),
        Param("climatology", None, str),
        Param("postprocess", None, str,
              'JSON list of {"kind", "params", "variables"} steps'),
        _DTYPE)),
}

_DEFAULTS = {name: {p.name: None if p.default is NEEDED else p.default
                    for p in params}
             for name, (_, _, params) in _COMMANDS.items()}

# what _parts quotes when a flag packing several values is malformed
_FORMS = {p.name: p.metavar for _, _, params in _COMMANDS.values()
          for p in params if p.metavar}

# the JSON values each kind of flag accepts from a config file; an int stays
# an int for a float flag, so a replayed manifest keeps its bytes
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "true or false")}


def build_parser() -> _Parser:
    parser = _Parser(prog="spherecast",
                     description="Global gridded-field pipeline toolkit")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (_, help_text, params) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, prog=f"spherecast {name}")
        p.add_argument("--config", help="JSON config file; flags override it")
        for prm in params:
            flag = "--" + prm.name.replace("_", "-")
            if prm.kind is bool:
                p.add_argument(flag, dest=prm.name, action="store_true",
                               default=None, help=prm.help)
                if prm.default:
                    p.add_argument("--no-" + flag[2:], dest=prm.name,
                                   action="store_false", default=None,
                                   help=f"turn {flag} off")
            else:
                choices = prm.kind if isinstance(prm.kind, list) else None
                p.add_argument(flag, choices=choices, help=prm.help,
                               type=type(choices[0]) if choices else prm.kind,
                               metavar=prm.metavar)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        sub = args.subcommand
        if sub is None:
            raise UsageError("a subcommand is required")
        handler, _, params = _COMMANDS[sub]
        cfg = _merge_config(args)
        missing = [p.name for p in params
                   if p.default is NEEDED and cfg[p.name] is None]
        if missing:
            raise UsageError(
                f"{sub}: missing required parameters "
                + ", ".join("--" + m.replace("_", "-") for m in missing))
        handler(cfg)
        _write_manifest(sub, cfg)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ContainerError, ExternalForecasterError, FileNotFoundError,
            KeyError) as exc:
        # a KeyError's str() quotes its message; an OSError's names the path
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"data error: {msg}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
