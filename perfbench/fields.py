"""Seeded band-limited fields and the GVF1 writer the benchmark uses for its inputs.

Nothing here imports spherecast: inputs are written by the benchmark's own
GVF1 writer, and the spectrum oracle needs only an FFT and Gauss-Legendre
quadrature, so a defect in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timedelta, timezone

import numpy as np
from numpy.polynomial import legendre

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def gaussian_nodes(n_lat: int):
    """Gauss-Legendre nodes x = sin(lat) and weights, north to south."""
    x, w = legendre.leggauss(n_lat)
    return x[::-1].copy(), w[::-1].copy()


def band_limited(rng: np.random.Generator, n_lat: int, n_lon: int,
                 l_max: int, slope: float = 1.0) -> np.ndarray:
    """A random real field on the Gaussian grid with no degree above l_max.

    The order-m part of a degree-<=l_max field is cos(lat)^m times a
    polynomial in x of degree <= l_max - m, so each order is built from
    Legendre polynomials and the field stays exactly band-limited.
    Returns an (n_lat, n_lon) array with unit standard deviation.
    """
    x, _ = gaussian_nodes(n_lat)
    s = np.sqrt(1.0 - x * x)
    vander = legendre.legvander(x, l_max)                  # (lat, k)
    k = np.arange(l_max + 1)
    m = np.arange(l_max + 1)
    amp = (1.0 + m[None, :] + k[:, None]) ** -slope       # (k, m)
    amp[k[:, None] > l_max - m[None, :]] = 0.0
    coef = rng.standard_normal((2, l_max + 1, l_max + 1)) * amp
    with np.errstate(under="ignore"):
        taper = s[:, None] ** m[None, :]                   # (lat, m)
    spec = np.zeros((n_lat, n_lon // 2 + 1), dtype=np.complex128)
    spec[:, :l_max + 1] = taper * ((vander @ coef[0]) + 1j * (vander @ coef[1]))
    spec[:, 0] = spec[:, 0].real
    field = np.fft.irfft(spec, n=n_lon, axis=1)
    return field / field.std()


def zonal_power_oracle(values: np.ndarray, l_max: int) -> np.ndarray:
    """P(m) = 2 pi sum_i w_i |g_m(x_i)|^2, doubled for m > 0.

    values is (..., n_lat, n_lon) on a Gaussian grid, north to south;
    g_m is the m-th zonal Fourier coefficient of each latitude row.  For
    a field band-limited to l_max this equals sum_l |a_lm|^2 exactly.
    """
    n_lat, n_lon = values.shape[-2:]
    _, w = gaussian_nodes(n_lat)
    g = np.fft.rfft(np.asarray(values, dtype=np.float64), axis=-1)[..., :l_max + 1]
    g /= n_lon
    power = 2.0 * np.pi * np.einsum("i,...im->...m", w, np.abs(g) ** 2)
    power[..., 1:] *= 2.0
    return power


def ar1_series(rng: np.random.Generator, n_time: int, n_modes: int,
               phi: float) -> np.ndarray:
    """(n_time, n_modes) unit-variance AR(1) mode amplitudes."""
    out = np.empty((n_time, n_modes))
    out[0] = rng.standard_normal(n_modes)
    innov = rng.standard_normal((n_time, n_modes)) * np.sqrt(1.0 - phi * phi)
    for t in range(1, n_time):
        out[t] = phi * out[t - 1] + innov[t]
    return out


def time_axis(start: datetime, n_time: int, step_hours: int) -> list[datetime]:
    return [start + timedelta(hours=step_hours * k) for k in range(n_time)]


def iso(t: datetime) -> str:
    return t.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_gvf1(path, values: np.ndarray, variables: list[tuple[str, str]],
               times: list[datetime], dtype: str) -> str:
    """Write a (time, var, lat, lon) array as GVF1; returns its sha256."""
    n_time, n_var, n_lat, n_lon = values.shape
    header = {
        "magic": "GVF1", "version": 1,
        "grid": {"kind": "gaussian", "n_lat": n_lat, "n_lon": n_lon,
                 "lon_origin": 0.0},
        "variables": [{"name": n, "level": "single", "units": u}
                      for n, u in variables],
        "time_axis": [iso(t) for t in times],
        "dtype": dtype, "attrs": {},
    }
    raw = (json.dumps(header) + "\n").encode()
    payload = np.ascontiguousarray(values, dtype=_DTYPES[dtype]).tobytes()
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (len(raw).to_bytes(8, "little"), raw, payload):
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


def read_gvf1(path):
    """(header, memmapped (time, var, lat, lon) array) of a GVF1 file."""
    with open(path, "rb") as fh:
        n = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(n))
    n_time, n_var = len(header["time_axis"]), len(header["variables"])
    shape = (n_time, n_var, header["grid"]["n_lat"], header["grid"]["n_lon"])
    data = np.memmap(path, dtype=_DTYPES[header["dtype"]], mode="r",
                     offset=8 + n, shape=shape)
    return header, data
