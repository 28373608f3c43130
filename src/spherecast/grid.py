"""Global grid geometry, latitude weights, and the in-memory field model.

Latitudes are always ordered north to south (ERA5 convention); longitudes
are uniform in [0, 360).  Gaussian grids carry the Gauss-Legendre quadrature
weights used by the spectral transform, while verification uses plain
cos(latitude) weights normalized to unit mean.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
import functools
import warnings

import numpy as np

__all__ = [
    "VARIABLES",
    "GridSpec",
    "Field",
    "FieldSeries",
    "make_gaussian_grid",
    "make_equiangular_grid",
    "gauss_legendre",
    "metric_weights",
    "cosine_weights",
    "ensure_utc",
]

# Variable registry: short name -> (long name, units).
VARIABLES = {
    "U": ("zonal wind", "m s-1"),
    "V": ("meridional wind", "m s-1"),
    "T": ("air temperature", "K"),
    "Q": ("specific humidity", "kg kg-1"),
    "SP": ("surface pressure", "Pa"),
    "t2m": ("2-meter temperature", "K"),
    "U500": ("zonal wind at 500 hPa", "m s-1"),
    "V500": ("meridional wind at 500 hPa", "m s-1"),
    "T500": ("air temperature at 500 hPa", "K"),
    "Z500": ("geopotential height at 500 hPa", "m"),
    "Q500": ("specific humidity at 500 hPa", "kg kg-1"),
    "Zsfc": ("geopotential at the surface", "m2 s-2"),
    "LSM": ("land-sea mask", "1"),
    "Is": ("integrated instantaneous solar irradiance", "J m-2"),
}


def default_units(variable: str) -> str:
    """Units for a registered variable, or "1" when unknown."""
    return VARIABLES.get(variable, ("", "1"))[1]


def ensure_utc(t: datetime) -> datetime:
    """Attach UTC to naive datetimes; convert aware ones to UTC."""
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


# numpy's ufunc buffer, in elements, inside small_ufunc_buffer: numpy 2
# buffers a broadcast call such as (rows, 1) by (1, width) whose rows fit
# the buffer, copying them in and out to run several as one loop, which
# made an N320 solar window twice as slow; longer rows run in place
_UFUNC_BUFFER = 64


@contextmanager
def small_ufunc_buffer():
    """Run the block with numpy's ufunc buffer at _UFUNC_BUFFER elements,
    and restore the caller's size (and error state) on the way out.  The
    size changes how numpy copies operands, not what it computes for each
    element, so elementwise results keep their bits."""
    with np.errstate():  # restores the buffer size on the way out
        np.setbufsize(_UFUNC_BUFFER)
        yield


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) from the three-term Legendre recurrence."""
    p_prev, p = np.ones_like(x), x.copy()
    for l in range(2, n + 1):
        p_prev, p = p, ((2 * l - 1) * x * p - (l - 1) * p_prev) / l
    return p, n * (x * p - p_prev) / (x * x - 1.0)


_NEWTON_TOL = 1e-15     # largest Newton step at which the nodes count as found
_NEWTON_MAX_ITER = 100


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton iteration.

    Nodes are returned in descending order (maps to north-to-south
    latitudes via lat = asin(x)).  Newton iteration on the Legendre
    recurrence converges to node accuracy better than 1e-14; weights
    w = 2 / ((1 - x^2) P_n'(x)^2) then sum to 2 to within 1e-12.
    Each n is solved once: later calls return the same two read-only
    arrays (gauss_legendre.__wrapped__ solves afresh).
    """
    if n < 1:
        raise ValueError(f"need at least 1 quadrature node, got {n}")
    k = np.arange(n)
    # Tricomi initial guess: already descending in x
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    # final derivative at the converged nodes
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Geometry of a global latitude-longitude grid.

    latitudes: degrees, north to south; longitudes: degrees in [0, 360),
    uniform step 360/n_lon starting at lon_origin.  quad_weights holds
    Gauss-Legendre weights for kind="gaussian" and is None otherwise.
    """

    n_lat: int
    n_lon: int
    latitudes: np.ndarray
    longitudes: np.ndarray
    kind: str
    quad_weights: np.ndarray | None = None
    lon_origin: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "equiangular"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n_lat < 2:
            raise ValueError(f"n_lat must be >= 2, got {self.n_lat}")
        if self.n_lon < 4 or self.n_lon % 2:
            raise ValueError(f"n_lon must be even and >= 4, got {self.n_lon}")
        if self.latitudes.shape != (self.n_lat,):
            raise ValueError("latitudes shape does not match n_lat")
        if self.longitudes.shape != (self.n_lon,):
            raise ValueError("longitudes shape does not match n_lon")
        if np.any(np.diff(self.latitudes) >= 0):
            raise ValueError("latitudes must be strictly north to south")
        if self.kind == "gaussian":
            if self.quad_weights is None:
                raise ValueError("gaussian grids require quad_weights")
            if abs(self.quad_weights.sum() - 2.0) > 1e-12:
                raise ValueError("quadrature weights must sum to 2")
        elif np.any(np.abs(self.latitudes) >= 90.0):
            raise ValueError("equiangular latitudes must exclude the poles")
        self.latitudes.flags.writeable = False
        self.longitudes.flags.writeable = False
        if self.quad_weights is not None:
            self.quad_weights.flags.writeable = False

    # Construction is deterministic, so identity is (kind, shape, origin).
    def _key(self):
        return (self.kind, self.n_lat, self.n_lon, round(self.lon_origin, 12))

    def __eq__(self, other):
        return isinstance(other, GridSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)


def _uniform_longitudes(n_lon: int, origin: float) -> np.ndarray:
    return (origin + 360.0 * np.arange(n_lon) / n_lon) % 360.0


def make_gaussian_grid(n_lat: int, n_lon: int, lon_origin: float = 0.0) -> GridSpec:
    """Regular Gaussian grid: Gauss-Legendre latitudes, uniform longitudes.

    n_lat must be even (latitude rows come in hemispheric pairs; the
    640 x 1280 grid is the N320 configuration, ~0.28 deg spacing near
    the equator).  n_lon >= 2*n_lat is recommended so zonal resolution
    keeps up with the quadrature degree; a warning is issued otherwise.
    """
    if n_lat < 2 or n_lat % 2:
        raise ValueError(f"n_lat must be even and >= 2, got {n_lat}")
    if n_lon < 4 or n_lon % 2:
        raise ValueError(f"n_lon must be even and >= 4, got {n_lon}")
    if n_lon < 2 * n_lat:
        warnings.warn(
            f"n_lon={n_lon} < 2*n_lat={2 * n_lat}: zonal resolution below "
            "the quadrature degree", stacklevel=2)
    x, w = gauss_legendre(n_lat)
    lats = np.degrees(np.arcsin(x))
    return GridSpec(
        n_lat=n_lat, n_lon=n_lon, latitudes=lats,
        longitudes=_uniform_longitudes(n_lon, lon_origin),
        kind="gaussian", quad_weights=w, lon_origin=lon_origin)


def make_equiangular_grid(n_lat: int, n_lon: int, lon_origin: float = 0.0) -> GridSpec:
    """Equiangular grid on cell centers (poles excluded)."""
    if n_lat < 2:
        raise ValueError(f"n_lat must be >= 2, got {n_lat}")
    if n_lon < 4 or n_lon % 2:
        raise ValueError(f"n_lon must be even and >= 4, got {n_lon}")
    step = 180.0 / n_lat
    lats = 90.0 - step * (np.arange(n_lat) + 0.5)
    return GridSpec(
        n_lat=n_lat, n_lon=n_lon, latitudes=lats,
        longitudes=_uniform_longitudes(n_lon, lon_origin),
        kind="equiangular", lon_origin=lon_origin)


def cosine_weights(latitudes: np.ndarray) -> np.ndarray:
    """cos(latitude) weights rescaled to unit mean.

    Unit-mean weights make a uniform bias c verify to RMSE exactly |c|
    (the WeatherBench2 convention).
    """
    w = np.cos(np.radians(np.asarray(latitudes, dtype=float)))
    return w / w.mean()


def metric_weights(grid: GridSpec) -> np.ndarray:
    """Per-latitude verification weights for a grid, with unit mean."""
    return cosine_weights(grid.latitudes)


@dataclass(frozen=True, eq=False)
class Field:
    """One 2-D global scalar field at a valid time.

    values is an (n_lat, n_lon) array in the variable's physical units.
    NaNs are rejected unless an explicit mask marks them.
    """

    grid: GridSpec
    values: np.ndarray
    variable: str
    level: str = "single"
    valid_time: datetime | None = None
    units: str | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"{self.grid.shape}")
        if self.mask is None and not np.all(np.isfinite(self.values)):
            raise ValueError(
                f"non-finite values in {self.variable} ({self.level}) "
                "without an explicit mask")
        if self.units is None:
            object.__setattr__(self, "units", default_units(self.variable))
        if self.valid_time is not None:
            object.__setattr__(self, "valid_time", ensure_utc(self.valid_time))

    @property
    def key(self) -> tuple[str, str]:
        return (self.variable, self.level)


class FieldSeries:
    """Time-ordered stack of fields for one variable-level on one grid, held
    in memory: what write_container takes and Container.series returns.

    Times must be strictly increasing; values is (time, n_lat, n_lon).
    """

    def __init__(self, grid: GridSpec, variable: str, level: str,
                 times: list[datetime], values: np.ndarray,
                 units: str | None = None):
        times = [ensure_utc(t) for t in times]
        values = np.asarray(values)
        if values.shape != (len(times),) + grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"({len(times)},) + {grid.shape}")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("valid times must be strictly increasing")
        self.grid = grid
        self.variable = variable
        self.level = level
        self.times = times
        self.values = values
        self.units = units if units is not None else default_units(variable)

    @property
    def key(self) -> tuple[str, str]:
        return (self.variable, self.level)

    def __len__(self) -> int:
        return len(self.times)
