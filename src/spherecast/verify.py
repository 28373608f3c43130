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

from . import container
from .container import (Container, ScoreRecord, atomic_write,
                        check_agreement, check_finite, check_nonempty,
                        read_container, read_keys)
from .grid import GridSpec, ensure_utc, metric_weights
from .preprocess import Climatology

__all__ = [
    "BootstrapSummary",
    "ScoreSeries",
    "SkillRelationResult",
    "CorrelationMatrix",
    "ForecastSet",
    "METRICS",
    "bootstrap_mean",
    "weighted_mean",
    "rmse",
    "acc",
    "skill_relation_check",
    "check_metrics",
    "score_cells",
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


def weighted_mean(values: np.ndarray, weights: np.ndarray,
                  out: np.ndarray | None = None):
    """(1 / (n_lat n_lon)) sum_ij w_i x_ij with per-latitude weights, of
    one field (a float) or of each field of a (..., n_lat, n_lon) stack.
    The weighted values go to out, a float64 array of values' shape that
    may be values itself, or to a new array."""
    return np.mean(np.multiply(weights[:, None], values, out=out),
                   axis=(-2, -1))


def _mse(a: np.ndarray, b: np.ndarray, weights: np.ndarray, out=None):
    """Latitude-weighted mean square difference, as weighted_mean."""
    diff = np.subtract(a, b, out=out)
    return weighted_mean(np.square(diff, out=diff), weights, out=diff)


def rmse_field(forecast: np.ndarray, target: np.ndarray,
               weights: np.ndarray, out: np.ndarray | None = None):
    """Latitude-weighted root-mean-square error of a field pair, or of
    each pair of two stacks; out, if given, is a float64 array of their
    shape, neither of them, that takes the intermediates."""
    return np.sqrt(_mse(forecast, target, weights, out=out))


def _safe_ratio(num, den):
    # elementwise; 0/0 -> 0 covers the zero-anomaly (climatology) forecast
    zero = den == 0.0
    if np.any(zero & (num != 0.0)):
        raise ZeroDivisionError("zero weighted variance with nonzero covariance")
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=~zero)[()]


def acc_field(f_anom: np.ndarray, o_anom: np.ndarray,
              weights: np.ndarray, out: np.ndarray | None = None):
    """Latitude-weighted anomaly correlation of a field pair, or of each
    pair of two stacks; out as for rmse_field."""
    prod = np.multiply(f_anom, o_anom, out=out)
    cov = weighted_mean(prod, weights, out=prod)
    var_f = weighted_mean(np.square(f_anom, out=prod), weights, out=prod)
    var_o = weighted_mean(np.square(o_anom, out=prod), weights, out=prod)
    return _safe_ratio(cov, np.sqrt(var_f) * np.sqrt(var_o))


class ForecastSet:
    """Per-initialization forecast containers, with target and climatology.

    forecasts is a sequence of paths of GVF1 containers, one per init, as
    rollout.run_rollout_to_dir writes them (see forecast()); a file is
    opened only while its header is checked or its init scored.  Valid
    times are init + lead for every lead (lead 0 first); target is the
    Container of the verifying fields, whose time axis is indexed once
    (target_rows).  Each forecast must agree (check_agreement) with the
    first one on grid and variables, and so must the target and the
    climatology.  No two files may hold one init, and every forecast
    valid time must be covered by the target; an error about a forecast
    names its file.  Only headers are read here: each value is checked
    in the read that scores it (_per_init).
    """

    def __init__(self, forecasts, target: Container,
                 climatology: Climatology | None = None):
        paths = [Path(p) for p in forecasts]
        if not paths:
            raise ValueError("no forecast initializations")
        self.forecasts = {}
        self.target = target
        self.target_rows = {t: i for i, t in enumerate(target.times)}
        self.climatology = climatology
        self.grid: GridSpec = target.grid
        self._leads, self._keys = {}, None
        for path in paths:
            fc = read_container(path)
            check_nonempty(fc)
            if self._keys is None:  # the first forecast, once
                self._keys = fc.keys
                check_agreement(target, fc.keys, fc.grid)
                if climatology is not None:
                    check_agreement(climatology, fc.keys, fc.grid)
            check_agreement(fc, self._keys, self.grid, exact=True)
            t_i = fc.init_time or fc.times[0]
            if t_i in self.forecasts:
                raise ValueError(f"{self.forecasts[t_i]} and {path} both hold "
                                 f"init {t_i.isoformat()}")
            self.forecasts[t_i] = path
            where = f"{path}: init {t_i.isoformat()}"
            rows = [self.target_rows.get(t) for t in fc.times]
            if None in rows:
                raise ValueError(
                    f"{where}: target does not cover forecast valid time "
                    f"{fc.times[rows.index(None)].isoformat()}")
            self._leads[t_i] = {int((t - t_i).total_seconds() // 3600)
                                for t in fc.times}
        self.weights = metric_weights(self.grid)

    @property
    def init_times(self) -> list[datetime]:
        return sorted(self.forecasts)

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(self._keys)

    def lead_hours(self) -> list[int]:
        """Lead hours available in every initialization."""
        return sorted(set.intersection(*self._leads.values()))

    def forecast(self, t_i: datetime) -> Container:
        """The forecast Container of one init; a container's init time is
        its attrs["init_time"], else its first valid time."""
        return read_container(self.forecasts[ensure_utc(t_i)])


METRICS = ("rmse", "acc")


def _per_init(fs: ForecastSet, cells, metrics
              ) -> dict[tuple, tuple[list[datetime], dict[str, np.ndarray]]]:
    """{(key, lead): (inits, {metric: per-init values})} for every distinct
    cell and metric (of METRICS, or "skill": 1 - MSE / MSE of the
    climatology), over the inits that reach the cell's lead.  One pass
    walks each init's forecast a block (container._BLOCK_BYTES of float64)
    of rows at a time, reads them, their target rows and their climatology
    bins, of every variable scored at once, into stacks made for the pass,
    checks each as it is read (check_finite), and scores each variable's
    rows as one stack (_score_rows)."""
    metrics = list(dict.fromkeys(metrics))
    found = {cell: ([], {m: [] for m in metrics}) for cell in cells}
    clim = any(m != "rmse" for m in metrics)
    if clim:
        if fs.climatology is None:
            raise ValueError("no climatology attached to this forecast set")
    # every variable is read at once, or, if a row of them passes a block,
    # one at a time, so that each is scored while it is in cache
    keys = [key for key in fs.keys if key in {k for k, _ in found}]
    cells = fs.grid.n_lat * fs.grid.n_lon
    width = max(1, min(len(keys), container._BLOCK_BYTES // (8 * cells)))
    groups = [keys[g:g + width] for g in range(0, len(keys), width)]
    step = max(1, container._BLOCK_BYTES // (8 * width * cells))
    # forecast, target, climatology; and the intermediates of one variable
    stacks = np.empty((2 + clim, step, width) + fs.grid.shape)
    tmp = np.empty((step,) + fs.grid.shape)
    for t_i in fs.init_times:
        fc = fs.forecast(t_i)
        rows = {t: i for i, t in enumerate(fc.times)}
        reached = {}  # forecast row -> {key: the cell that row of key verifies}
        for (key, lead), cell in found.items():
            row = rows.get(t_i + timedelta(hours=lead))
            if row is not None:
                reached.setdefault(row, {})[key] = cell
        run_rows = sorted(reached)
        for start in range(0, len(run_rows), step):
            run = run_rows[start:start + step]
            whens = [fc.times[row] for row in run]
            at = [(fc, "forecast", run, [f"{t.isoformat()} (init "
                                         f"{t_i.isoformat()})" for t in whens]),
                  (fs.target, "target", [fs.target_rows[t] for t in whens],
                   whens)]
            if clim:
                bins = [fs.climatology.row(t) for t in whens]
                at.append((fs.climatology, "climatology", bins,
                           [fs.climatology.label(b) for b in bins]))
            for group in groups:
                planes = stacks[:, :len(run), :len(group)]
                for (source, what, rows_of, when), plane in zip(at, planes):
                    check_finite(source.path or "climatology", what,
                                 read_keys(source, rows_of, group, plane),
                                 group, when)
                for j, key in enumerate(group):
                    these = [i for i, row in enumerate(run)
                             if key in reached[row]]
                    if not these:
                        continue
                    # a view of every row, else a copy of these
                    pick = slice(None) if len(these) == len(run) else these
                    scores = _score_rows(fs, key, [whens[i] for i in these],
                                         planes[:, pick, j], metrics,
                                         tmp[:len(these)])
                    for n, i in enumerate(these):
                        inits, scored = reached[run[i]][key]
                        inits.append(t_i)
                        for m in metrics:
                            scored[m].append(scores[m][n])
    for (key, lead), (inits, _) in found.items():
        if not inits:
            raise ValueError(
                f"no matched forecast/target pairs for {key[0]} ({key[1]}) "
                f"at lead {lead} h")
    return {cell: (inits, {m: np.array(v) for m, v in values.items()})
            for cell, (inits, values) in found.items()}


def _score_rows(fs: ForecastSet, key, whens, planes, metrics, tmp) -> dict:
    """{metric: one value per row} of planes (f, o[, c]): key's forecast
    rows valid at whens, their target rows and (not for rmse alone) their
    climatology bins; tmp, a float64 stack of their shape, takes the
    intermediates, and the anomalies of acc overwrite f and o."""
    (f, o), w, scores = planes[:2], fs.weights, {}
    if "rmse" in metrics or "skill" in metrics:
        mse_f = _mse(f, o, w, out=tmp)
        scores["rmse"] = np.sqrt(mse_f)
    if all(m == "rmse" for m in metrics):
        return scores
    c = planes[2]
    if "skill" in metrics:
        mse_c = _mse(c, o, w, out=tmp)
        if not mse_c.all():
            raise ZeroDivisionError(
                f"MSE of the climatology reference is zero for {key[0]} "
                f"({key[1]}) at {whens[np.argmin(mse_c)].isoformat()}")
        scores["skill"] = 1.0 - mse_f / mse_c
    if "acc" in metrics:  # last: the anomalies overwrite f and o
        scores["acc"] = acc_field(np.subtract(f, c, out=f),
                                  np.subtract(o, c, out=o), w, out=tmp)
    return scores


def check_metrics(metrics) -> None:
    """Raise ValueError if metrics is empty or names one not in METRICS."""
    if not metrics:
        raise ValueError(f"no metric given: choose from {', '.join(METRICS)}")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(
                f"unknown metric {m!r}: choose from {', '.join(METRICS)}")


def score_cells(fs: ForecastSet, metrics, cells, n_boot: int = 1000,
                seed=lambda key, lead, metric: 0) -> list[ScoreSeries]:
    """A ScoreSeries per metric of METRICS at each (key, lead) cell, in
    the order given; a repeated cell or metric repeats its series.

    Every distinct cell is scored in one pass over the inits (see
    _per_init), then each metric's per-init values are bootstrapped with
    the seed given by seed(key, lead, metric).
    """
    check_metrics(metrics)
    cells = list(cells)
    scored = _per_init(fs, cells, metrics)
    out = []
    for key, lead in cells:
        inits, values = scored[(key, lead)]
        for m in metrics:
            out.append(ScoreSeries(
                m, key[0], key[1], lead, list(inits), values[m],
                bootstrap_mean(values[m], n_boot, seed(key, lead, m))))
    return out


def rmse(fs: ForecastSet, variable: str, level: str = "single",
         lead_hours: int = 0, n_boot: int = 1000, seed: int = 0) -> ScoreSeries:
    """Latitude-weighted RMSE per initialization, bootstrapped over inits."""
    return score_cells(fs, ["rmse"], [((variable, level), lead_hours)],
                       n_boot, lambda *_: seed)[0]


def acc(fs: ForecastSet, variable: str, level: str = "single",
        lead_hours: int = 0, n_boot: int = 1000, seed: int = 0) -> ScoreSeries:
    """Anomaly correlation per initialization, bootstrapped over inits."""
    return score_cells(fs, ["acc"], [((variable, level), lead_hours)],
                       n_boot, lambda *_: seed)[0]


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
    cell = ((variable, level), lead_hours)
    inits, values = _per_init(fs, [cell], ["skill", "acc"])[cell]
    skills, accs = values["skill"], values["acc"]
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


def spatial_correlation(values: np.ndarray, labels: list[tuple[str, str]],
                        grid: GridSpec,
                        weighted: bool = False) -> CorrelationMatrix:
    """Pearson r between every pair of fields of a (k, n_lat, n_lon)
    stack on flattened grid points; labels names the k fields, each by
    its (variable, level).

    Unweighted by default; weighted=True uses cos(latitude) weights in the
    means, covariances and variances.
    """
    labels = list(labels)
    if len(labels) < 2:
        raise ValueError("need at least 2 variable-levels to correlate")
    if np.shape(values) != (len(labels),) + grid.shape:
        raise ValueError(f"values shape {np.shape(values)} does not match "
                         f"{len(labels)} fields on the {grid.shape} grid")
    # a fresh aligned copy: matmul leaves BLAS for a misaligned map view
    data = np.array(values, dtype=np.float64).reshape(len(labels), -1)
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
    """A ForecastSet of the per-initialization GVF1 containers, every
    *.gvf file, in the directory forecast_paths; the forecasts, the target
    and the climatology stay on disk, read as they are checked and scored."""
    directory = Path(forecast_paths)
    if not directory.is_dir():
        raise ValueError(f"{directory}: not a forecast directory")
    paths = sorted(directory.glob("*.gvf"))
    if not paths:
        raise ValueError(f"{directory}: no .gvf forecast files")
    target = read_container(target_path)
    clim = (Climatology.from_container(climatology_path)
            if climatology_path else None)
    return ForecastSet(paths, target, climatology=clim)
