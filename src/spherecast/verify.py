"""Forecast verification: latitude-weighted RMSE/ACC with bootstrap
intervals, the Murphy skill/ACC consistency check, and cross-variable
spatial correlation.

Scores are computed per initialization time and bootstrapped over the
initialization dimension: B resamples with replacement of the per-init
values, reporting the mean of the resampled means and the 2.5/97.5
percentiles.  Weights are cos(latitude) normalized to unit mean, so a
uniform bias c verifies to RMSE exactly |c|.  ACC subtracts the
day-of-year/hour-of-day climatology and correlates the raw weighted
anomaly products (no further mean removal).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .container import ScoreRecord, atomic_write, read_container, _parse_time
from .grid import Field, GridSpec, ensure_utc, metric_weights
from .preprocess import Climatology

__all__ = [
    "BootstrapSummary",
    "ScoreSeries",
    "SkillRelationResult",
    "CorrelationMatrix",
    "ForecastSet",
    "bootstrap_mean",
    "weighted_mean",
    "rmse",
    "acc",
    "skill_relation_check",
    "spatial_correlation",
    "average_correlations",
    "correlation_difference",
    "score_records",
    "load_forecast_set",
    "write_correlation_csv",
    "read_correlation_csv",
]


@dataclass(frozen=True)
class BootstrapSummary:
    """Percentile bootstrap of a mean over initializations.

    mean is the average of the B resampled means, clamped into
    [ci_low, ci_high] (rounding can put it an ulp outside when the
    resampled means all agree) and deterministic given the seed;
    sample_mean is the plain average of the inputs.
    """

    mean: float
    ci_low: float
    ci_high: float
    sample_mean: float
    n: int
    n_boot: int
    seed: int


def bootstrap_mean(values: np.ndarray, n_boot: int = 1000,
                   seed: int = 0) -> BootstrapSummary:
    """Resample the values with replacement and summarize their mean."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if n_boot < 1:
        raise ValueError("n_boot must be at least 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_boot, n))
    means = values[idx].mean(axis=1)
    lo, hi = (float(q) for q in np.percentile(means, [2.5, 97.5]))
    return BootstrapSummary(mean=min(max(float(means.mean()), lo), hi),
                            ci_low=lo, ci_high=hi,
                            sample_mean=float(values.mean()),
                            n=n, n_boot=n_boot, seed=seed)


@dataclass
class ScoreSeries:
    """Per-initialization values of one metric plus its bootstrap summary."""

    metric: str
    variable: str
    level: str
    lead_hours: int
    init_times: list[datetime]
    values: np.ndarray
    summary: BootstrapSummary


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """(1 / (n_lat n_lon)) sum_ij w_i x_ij with per-latitude weights."""
    return float(np.mean(weights[:, None] * values))


def rmse_field(forecast: np.ndarray, target: np.ndarray,
               weights: np.ndarray) -> float:
    """Latitude-weighted root-mean-square error of one field pair."""
    diff = forecast - target
    return float(np.sqrt(weighted_mean(diff * diff, weights)))


def _safe_ratio(num: float, den: float) -> float:
    # 0/0 -> 0 covers the zero-anomaly (climatology) forecast
    if den == 0.0:
        if num == 0.0:
            return 0.0
        raise ZeroDivisionError("zero weighted variance with nonzero covariance")
    return num / den


def acc_field(f_anom: np.ndarray, o_anom: np.ndarray,
              weights: np.ndarray) -> float:
    """Latitude-weighted anomaly correlation of one field pair."""
    cov = weighted_mean(f_anom * o_anom, weights)
    var_f = weighted_mean(f_anom * f_anom, weights)
    var_o = weighted_mean(o_anom * o_anom, weights)
    return _safe_ratio(cov, float(np.sqrt(var_f) * np.sqrt(var_o)))


class ForecastSet:
    """Forecasts keyed by initialization time, with target and climatology.

    forecasts maps each init time to {(variable, level): FieldSeries}
    whose valid times are init + lead for every lead (lead 0 first);
    target maps (variable, level) to the verifying FieldSeries.  Every
    forecast valid time must be covered by the target, all series must
    share one grid, and every forecast and every target row it verifies
    against must be finite.  sources optionally maps init times to the
    file each forecast came from, for error messages.
    """

    def __init__(self, forecasts: dict[datetime, dict], target: dict,
                 climatology: Climatology | None = None,
                 sources: dict | None = None):
        if not forecasts:
            raise ValueError("no forecast initializations")
        self.forecasts = {ensure_utc(t): fc for t, fc in forecasts.items()}
        self.target = target
        self.climatology = climatology
        self.grid: GridSpec = next(iter(target.values())).grid
        sources = {ensure_utc(t): f"{p}: " for t, p in (sources or {}).items()}
        used = {key: set() for key in target}
        for t_i, fc in self.forecasts.items():
            for key, series in fc.items():
                where = (f"{sources.get(t_i, '')}init {t_i.isoformat()}: "
                         f"{key[0]} ({key[1]})")
                if series.grid != self.grid:
                    raise ValueError(f"{where}: forecast is on a different "
                                     "grid than the target")
                if key not in target:
                    raise ValueError(f"{where}: target has no such series")
                rows = [target[key].time_index.get(t) for t in series.times]
                if None in rows:
                    raise ValueError(
                        f"{where}: target does not cover forecast valid time "
                        f"{series.times[rows.index(None)].isoformat()}")
                used[key].update(rows)
                if not np.isfinite(series.values).all():
                    raise ValueError(f"{where}: non-finite forecast values")
        for key, rows in used.items():
            for i in sorted(rows):
                if not np.isfinite(target[key].values[i]).all():
                    raise ValueError(
                        f"non-finite target {key[0]} ({key[1]}) at "
                        f"{target[key].times[i].isoformat()}")
        self.weights = metric_weights(self.grid)

    @property
    def init_times(self) -> list[datetime]:
        return sorted(self.forecasts)

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(next(iter(self.forecasts.values())).keys())

    def lead_hours(self) -> list[int]:
        """Lead hours available in every initialization."""
        leads = None
        for t_i, fc in self.forecasts.items():
            series = next(iter(fc.values()))
            these = {int((t - t_i).total_seconds() // 3600) for t in series.times}
            leads = these if leads is None else (leads & these)
        return sorted(leads)

    def forecast_values(self, t_i: datetime, key, lead_hours: int) -> np.ndarray:
        t_i = ensure_utc(t_i)
        series = self.forecasts[t_i][key]
        return series.values[series.index(t_i + timedelta(hours=lead_hours))]

    def target_values(self, when: datetime, key) -> np.ndarray:
        series = self.target[key]
        return series.values[series.index(when)]

    def climatology_values(self, when: datetime, key) -> np.ndarray:
        if self.climatology is None:
            raise ValueError("no climatology attached to this forecast set")
        return self.climatology.values(key[0], key[1], when)


def _per_init(fs: ForecastSet, variable: str, level: str, lead_hours: int,
              fn) -> tuple[list[datetime], np.ndarray]:
    """fn(forecast, target, valid time) for every init that reaches the lead."""
    key = (variable, level)
    inits, vals = [], []
    for t_i in fs.init_times:
        series = fs.forecasts[t_i].get(key)
        when = t_i + timedelta(hours=lead_hours)
        if series is None or when not in series.time_index:
            continue
        vals.append(fn(fs.forecast_values(t_i, key, lead_hours),
                       fs.target_values(when, key), when))
        inits.append(t_i)
    if not inits:
        raise ValueError(
            f"no matched forecast/target pairs for {variable} ({level}) "
            f"at lead {lead_hours} h")
    return inits, np.array(vals)


def rmse(fs: ForecastSet, variable: str, level: str = "single",
         lead_hours: int = 0, n_boot: int = 1000, seed: int = 0) -> ScoreSeries:
    """Latitude-weighted RMSE per initialization, bootstrapped over inits."""
    inits, vals = _per_init(fs, variable, level, lead_hours,
                            lambda f, o, when: rmse_field(f, o, fs.weights))
    return ScoreSeries("rmse", variable, level, lead_hours, inits, vals,
                       bootstrap_mean(vals, n_boot, seed))


def acc(fs: ForecastSet, variable: str, level: str = "single",
        lead_hours: int = 0, n_boot: int = 1000, seed: int = 0) -> ScoreSeries:
    """Anomaly correlation per initialization, bootstrapped over inits."""
    def one(f, o, when):
        c = fs.climatology_values(when, (variable, level))
        return acc_field(f - c, o - c, fs.weights)
    inits, vals = _per_init(fs, variable, level, lead_hours, one)
    return ScoreSeries("acc", variable, level, lead_hours, inits, vals,
                       bootstrap_mean(vals, n_boot, seed))


@dataclass
class SkillRelationResult:
    """Per-initialization pieces of the skill-score/ACC relation.

    residual = (1 - MSE(F,O)/MSE(C,O)) - (2 ACC - 1); it vanishes when the
    weighted anomaly variances match and the anomaly means are near zero.
    printed_residual keeps the uncorrected arrangement with the MSE ratio
    on the left for inspection.
    """

    variable: str
    level: str
    lead_hours: int
    init_times: list[datetime]
    skill_score: np.ndarray
    acc: np.ndarray
    residual: np.ndarray
    printed_residual: np.ndarray


def skill_relation_check(fs: ForecastSet, variable: str, level: str = "single",
                         lead_hours: int = 0) -> SkillRelationResult:
    """Compare 1 - MSE/MSE_C against 2 ACC - 1 per initialization."""
    def one(f, o, when):
        c = fs.climatology_values(when, (variable, level))
        mse_f = weighted_mean((f - o) ** 2, fs.weights)
        mse_c = weighted_mean((c - o) ** 2, fs.weights)
        if mse_c == 0.0:
            raise ZeroDivisionError(
                f"MSE of the climatology reference is zero for {variable} "
                f"({level}) at {when.isoformat()}")
        return (1.0 - mse_f / mse_c,
                acc_field(f - c, o - c, fs.weights))

    inits, pairs = _per_init(fs, variable, level, lead_hours, one)
    skills = pairs[:, 0]
    accs = pairs[:, 1]
    return SkillRelationResult(
        variable=variable, level=level, lead_hours=lead_hours,
        init_times=inits, skill_score=skills, acc=accs,
        residual=skills - (2.0 * accs - 1.0),
        printed_residual=(1.0 - skills) - (2.0 * accs - 1.0))


@dataclass
class CorrelationMatrix:
    """Pearson correlations between flattened variable-level fields."""

    labels: list[tuple[str, str]]
    values: np.ndarray

    def __post_init__(self):
        k = len(self.labels)
        if self.values.shape != (k, k):
            raise ValueError("correlation matrix shape mismatch")

    def entry(self, a: tuple[str, str], b: tuple[str, str]) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def spatial_correlation(fields: list[Field],
                        weighted: bool = False) -> CorrelationMatrix:
    """Pearson r between every pair of fields on flattened grid points.

    Unweighted by default; weighted=True uses cos(latitude) weights in the
    means, covariances and variances.
    """
    if len(fields) < 2:
        raise ValueError("need at least 2 variable-levels to correlate")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("all fields must share one grid")
    labels = [f.key for f in fields]
    data = np.stack([f.values.reshape(-1) for f in fields])
    if weighted:
        w = np.repeat(metric_weights(grid), grid.n_lon)
        w = w / w.sum()
        mean = data @ w
        centered = data - mean[:, None]
        cov = (centered * w) @ centered.T
    else:
        centered = data - data.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / data.shape[1]
    std = np.sqrt(np.diag(cov))
    zero = np.nonzero(std == 0)[0]
    if zero.size:
        bad = ", ".join(f"{labels[i][0]} ({labels[i][1]})" for i in zero)
        raise ValueError(f"zero spatial variance for {bad}")
    corr = cov / std[:, None] / std[None, :]
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(labels=labels, values=corr)


def average_correlations(matrices: list[CorrelationMatrix]) -> CorrelationMatrix:
    """Elementwise mean of correlation matrices over initializations."""
    if not matrices:
        raise ValueError("no matrices to average")
    labels = matrices[0].labels
    for m in matrices[1:]:
        if m.labels != labels:
            raise ValueError("correlation matrices index different fields")
    mean = np.mean([m.values for m in matrices], axis=0)
    np.fill_diagonal(mean, 1.0)
    return CorrelationMatrix(labels=labels, values=mean)


def correlation_difference(forecast: CorrelationMatrix,
                           reference: CorrelationMatrix) -> np.ndarray:
    """Elementwise forecast minus reference; diagonal exactly zero."""
    if forecast.labels != reference.labels:
        raise ValueError("correlation matrices index different fields")
    diff = forecast.values - reference.values
    np.fill_diagonal(diff, 0.0)
    return diff


def write_correlation_csv(matrix: CorrelationMatrix, path,
                          values: np.ndarray | None = None) -> None:
    """Square CSV with (variable, level) headers; values override for
    difference matrices."""
    vals = matrix.values if values is None else values
    names = [f"{v}|{l}" for v, l in matrix.labels]
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable|level"] + names)
        for name, row in zip(names, vals):
            writer.writerow([name] + [f"{x:.9g}" for x in row])


def read_correlation_csv(path) -> CorrelationMatrix:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    labels = []
    for n in names:
        v, _, l = n.partition("|")
        labels.append((v, l))
    values = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    return CorrelationMatrix(labels=labels, values=values)


def score_records(series_list: list[ScoreSeries]) -> list[ScoreRecord]:
    """Convert score series to writable records (variable tagged by level)."""
    out = []
    for s in series_list:
        name = s.variable if s.level == "single" else f"{s.variable}|{s.level}"
        out.append(ScoreRecord(
            variable=name, lead_hours=s.lead_hours, metric=s.metric,
            value=s.summary.mean, ci_low=s.summary.ci_low,
            ci_high=s.summary.ci_high, n_inits=s.summary.n))
    return out


def load_forecast_set(forecast_paths, target_path,
                      climatology_path=None) -> ForecastSet:
    """Assemble a ForecastSet from per-initialization GVF1 containers.

    forecast_paths may be a directory (every *.gvf file inside) or an
    iterable of paths.  Each container carries its init time in
    attrs["init_time"]; missing attrs fall back to the first valid time.
    """
    forecast_paths = Path(forecast_paths) if isinstance(forecast_paths, (str, Path)) \
        else forecast_paths
    if isinstance(forecast_paths, Path):
        if not forecast_paths.is_dir():
            raise ValueError(f"{forecast_paths}: not a forecast directory")
        paths = sorted(forecast_paths.glob("*.gvf"))
        if not paths:
            raise ValueError(f"{forecast_paths}: no .gvf forecast files")
    else:
        paths = [Path(p) for p in forecast_paths]
    forecasts, sources = {}, {}
    for p in paths:
        c = read_container(p)
        init_iso = c.attrs.get("init_time")
        t_i = _parse_time(init_iso) if init_iso else c.times[0]
        forecasts[t_i] = c.to_dict()
        sources[t_i] = p
    target = read_container(target_path).to_dict()
    clim = (Climatology.from_container(climatology_path)
            if climatology_path else None)
    return ForecastSet(forecasts, target, climatology=clim, sources=sources)
