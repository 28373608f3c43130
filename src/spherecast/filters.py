"""Post-hoc smoothing: 2nd-order Laplacian diffusion and zonal pole filtering.

Diffusion steps F <- F + nu_dt * lap(F) explicitly, with the
sphere Laplacian discretized in conservative flux form: meridional fluxes
sin(colat) * dF/d(colat) on half levels divided by the latitude cell
measure (the Gaussian quadrature weight), plus periodic centered zonal
differences scaled by 1/cos^2(lat).  The half levels bounding the first
and last rows sit exactly on the poles, where the sin(colat) metric factor
vanishes, so the across-pole flux contributed by the rotated ghost rows of
the padding scheme is identically zero and the quadrature-weighted global
mean is conserved to rounding.

The pole filter low-passes each high-latitude row in zonal wavenumber with
the cutoff m_max(lat) = floor(n_lon/2 * cos(lat) / cos(reference_lat)),
the standard cos-scaled cutoff that equalizes physical zonal resolution
toward the poles.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec

__all__ = [
    "DiffusionSpec",
    "PoleFilterSpec",
    "diffuse_values",
    "pole_filter_values",
    "diffusion_stability_bound",
    "latitude_cell_measures",
]


def _number(name: str, value, kind=numbers.Real, what="a number"):
    """value, if it is a `kind` (a bool never is a number)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


@dataclass(frozen=True)
class DiffusionSpec:
    """Dimensionless diffusion number nu*dt/a^2 per step, and step count."""

    nu_dt: float
    steps: int = 1

    def __post_init__(self):
        if not _number("nu_dt", self.nu_dt) >= 0:
            raise ValueError(f"nu_dt must be non-negative, got {self.nu_dt!r}")
        if _number("steps", self.steps, numbers.Integral, "an integer") < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")

    def check_stable(self, grid: GridSpec) -> None:
        """Raise ValueError if nu_dt exceeds the grid's stability bound."""
        bound = diffusion_stability_bound(grid)
        if self.nu_dt > bound:
            raise ValueError(
                f"nu_dt={self.nu_dt:g} violates the explicit stability bound "
                f"{bound:g} for this grid")


@dataclass(frozen=True)
class PoleFilterSpec:
    """Zonal filtering poleward of start_lat (degrees).

    reference_lat sets the latitude whose cutoff equals the Nyquist
    wavenumber; it defaults to start_lat so the first filtered row passes
    unchanged.
    """

    start_lat: float
    reference_lat: float | None = None

    def __post_init__(self):
        if not (0.0 < _number("start_lat", self.start_lat) < 90.0):
            raise ValueError(
                f"start_lat must be in (0, 90), got {self.start_lat}")
        if self.reference_lat is not None and not (
                0.0 < _number("reference_lat", self.reference_lat) < 90.0):
            raise ValueError(
                f"reference_lat must be in (0, 90), got {self.reference_lat}")

    @property
    def ref(self) -> float:
        return self.start_lat if self.reference_lat is None else self.reference_lat


def latitude_cell_measures(grid: GridSpec) -> np.ndarray:
    """Cell measure per latitude row in x = sin(lat); sums to 2.

    Gaussian grids use their quadrature weights; equiangular grids use the
    exact integral of cos(lat) over the cell bounds.
    """
    if grid.kind == "gaussian":
        return np.asarray(grid.quad_weights, dtype=float)
    theta = np.radians(90.0 - grid.latitudes)
    edges = np.empty(grid.n_lat + 1)
    edges[0] = 0.0
    edges[-1] = np.pi
    edges[1:-1] = 0.5 * (theta[:-1] + theta[1:])
    return np.cos(edges[:-1]) - np.cos(edges[1:])


def diffusion_stability_bound(grid: GridSpec) -> float:
    """Largest admissible nu_dt: 0.2 / max(1/dphi^2, 1/(cos^2(lat) dlon^2))."""
    theta = np.radians(90.0 - grid.latitudes)
    dphi_min = float(np.min(np.abs(np.diff(theta))))
    dlam = 2.0 * np.pi / grid.n_lon
    cos_min = float(np.min(np.sin(theta)))
    return 0.2 / max(1.0 / dphi_min ** 2, 1.0 / (cos_min * dlam) ** 2)


# bytes of float64 rows of one field in a latitude band of a diffusion
# sweep; each of the sweep's three scratch arrays is about this size
_BAND_BYTES = 1 << 18


def _into(values, out) -> np.ndarray:
    """out holding values (copied in unless out is values), or a new
    float64 copy of values when out is None."""
    if out is None:
        return np.array(values, dtype=np.float64)
    if (out.dtype != np.float64 or out.shape != np.shape(values)
            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"{np.shape(values)}, got {out.dtype} {out.shape}")
    if out is not values:
        np.copyto(out, values)
    return out


def diffuse_values(values: np.ndarray, grid: GridSpec, spec: DiffusionSpec,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Run explicit diffusion steps on each (n_lat, n_lon) field of a stack.

    The result goes to out, a C-contiguous float64 array of values' shape
    that may be values itself, or to a new array.  Each step sweeps a
    field's latitude bands of about _BAND_BYTES north to south and
    overwrites them in place: a band needs the old row just south of it,
    which is not yet overwritten, and the meridional flux through its
    northern half level, which the band before it computed from old rows
    and hands on.  So only band-sized scratch is made, whatever the
    stack's size, and every operation runs on contiguous rows.
    """
    spec.check_stable(grid)
    f = _into(values, out)
    if spec.steps == 0 or spec.nu_dt == 0.0:
        return f

    theta = np.radians(90.0 - grid.latitudes)          # colatitude, increasing
    measures = latitude_cell_measures(grid)
    half_sin = np.sin(0.5 * (theta[:-1] + theta[1:]))  # interior half levels
    dtheta = np.diff(theta)
    dlam = 2.0 * np.pi / grid.n_lon
    zonal_scale = np.sin(theta) ** 2 * dlam ** 2

    n_lat, n_lon = grid.shape
    rows = min(n_lat, max(1, _BAND_BYTES // (8 * n_lon)))
    flux = np.empty((rows + 1, n_lon))
    zonal = np.empty((rows, n_lon))
    work = np.empty((rows, n_lon))
    for field in f.reshape((-1,) + grid.shape):
        for _ in range(spec.steps):
            # polar half levels stay zero because sin(colat) vanishes
            # there, killing the ghost-row contribution
            flux[0] = 0.0
            for a in range(0, n_lat, rows):
                b = min(a + rows, n_lat)
                band, fl, z, w = field[a:b], flux[:b - a + 1], \
                    zonal[:b - a], work[:b - a]
                # fluxes through half levels a+1 .. b, from old rows; the
                # one south of the last row is zero
                c = min(b, n_lat - 1)
                d = fl[1:c - a + 1]
                np.subtract(field[a + 1:c + 1], field[a:c], out=d)
                d *= half_sin[a:c, None]
                d /= dtheta[a:c, None]
                fl[c - a + 1:] = 0.0
                # (f[i+1] - 2 f[i]) + f[i-1], periodic in longitude: along
                # the flattened band, then the two wrapping columns again
                bf, zf = band.reshape(-1), z.reshape(-1)
                np.multiply(band, 2.0, out=w)
                np.subtract(bf[1:], w.reshape(-1)[:-1], out=zf[:-1])
                zf[1:] += bf[:-1]
                np.subtract(band[:, 0], w[:, -1], out=z[:, -1])
                z[:, -1] += band[:, -2]
                np.subtract(band[:, 1], w[:, 0], out=z[:, 0])
                z[:, 0] += band[:, -1]
                z /= zonal_scale[a:b, None]
                np.subtract(fl[1:], fl[:-1], out=w)
                w /= measures[a:b, None]
                w += z
                w *= spec.nu_dt
                band += w
                fl[0] = fl[-1]
    return f


@lru_cache(maxsize=8)
def _pole_caps(grid: GridSpec, spec: PoleFilterSpec) -> tuple:
    """(rows, cut) for each run of consecutive rows the pole filter
    transforms (the two polar caps): a slice of latitudes and the
    read-only (rows, n_lon // 2 + 1) mask of the wavenumbers it zeroes."""
    nyquist = grid.n_lon // 2
    m_max = np.floor(nyquist * np.cos(np.radians(grid.latitudes))
                     / np.cos(np.radians(spec.ref)))
    # rows the cutoff leaves whole skip the transform and keep their bits
    rows = np.flatnonzero((np.abs(grid.latitudes) >= spec.start_lat)
                          & (m_max < nyquist))
    caps = []
    for run in np.split(rows, np.flatnonzero(np.diff(rows) > 1) + 1):
        if run.size:
            cut = np.arange(nyquist + 1) > m_max[run, None]
            cut.flags.writeable = False
            caps.append((slice(run[0], run[-1] + 1), cut))
    return tuple(caps)


def pole_filter_values(values: np.ndarray, grid: GridSpec,
                       spec: PoleFilterSpec,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Zonally low-pass rows poleward of start_lat of each field of a stack.

    The result goes to out, a float64 array of values' shape that may be
    values itself, or to a new array.  Each polar cap is transformed as
    one contiguous slice of rows."""
    f = _into(values, out)
    for rows, cut in _pole_caps(grid, spec):
        coeffs = np.fft.rfft(f[..., rows, :])
        coeffs[..., cut] = 0.0
        np.fft.irfft(coeffs, n=grid.n_lon, out=f[..., rows, :])
    return f
