"""Spherical-harmonic analysis/synthesis and energy-spectrum diagnostics.

Transforms use the classic split: an FFT around each latitude circle
followed by Gauss-Legendre quadrature against orthonormalized associated
Legendre functions.  Coefficients follow the orthonormal complex
convention with the Condon-Shortley phase, stored for m >= 0 only (real
fields), so a constant field c has a[0,0] = c * sqrt(4 pi).  With
l_max <= n_lat - 1 and 2*l_max + 1 <= n_lon the quadrature is exact for
band-limited fields and analyze/synthesize round-trip to rounding.

The Legendre functions are built by the standard stable three-term
recurrence in degree at fixed order, seeded along the diagonal with the
sin(colat) factor folded into each step so no intermediate under- or
overflows occur; normalized values stay O(1) up to degree 2048 and beyond.
As in SHTns (Schaeffer 2013) and libsharp (Reinecke & Seljebotn 2013) the
transforms generate them one degree at a time on the northern nodes and
fold in the southern ones by symmetry, so no table need be stored; a
transform keeps only a small one (at most _TABLE_BYTES, as at N32), so
that a run of transforms does not rerun the recurrence.

The spectrum diagnostic is per zonal wavenumber: P(m) sums |a_l^m|^2 over
all degrees l >= m, with m > 0 counted twice (the +/-m pair of a real
field), so sum_m P(m) equals the 4 pi-weighted mean square of the field.
It is summed a chunk of degrees at a time inside the degree loop, as in
SHTns, so no coefficient array is held: the bits are those of summing
|a|^2 of analyze's coefficients over l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec

# bytes of float64 fields, and of their complex Fourier rows, made at
# once in an analysis
_FFT_BYTES = 1 << 21
# bytes of work arrays a transform keeps from one pass to the next of as
# many fields; a pass that needs more makes its own
_KEEP_BYTES = 1 << 23
# bytes of coefficient rows of a power spectrum made at once
_DEGREE_BYTES = 1 << 21
# bytes of the m <= l Legendre rows a transform keeps; larger ones stream
_TABLE_BYTES = 1 << 21

__all__ = [
    "HarmonicCoeffs",
    "SpectrumResult",
    "SphericalHarmonicTransform",
    "plegendre_table",
    "plegendre_max_abs",
    "analyze",
    "synthesize",
    "zonal_power_spectrum",
    "kinetic_energy_spectrum",
    "potential_temperature_energy_spectrum",
    "DRY_AIR_KAPPA",
]

DRY_AIR_KAPPA = 0.2854  # R/c_p for dry air, used for potential temperature


@dataclass(frozen=True, eq=False)
class HarmonicCoeffs:
    """Triangular complex coefficients a[l, m] for 0 <= m <= l <= l_max,
    for one field or, with leading axes, a stack of them."""

    values: np.ndarray   # complex, shape (..., l_max + 1, l_max + 1), zero for m > l
    l_max: int

    def __post_init__(self):
        if self.values.shape[-2:] != (self.l_max + 1, self.l_max + 1):
            raise ValueError("coefficient array must be (..., l_max+1, l_max+1)")

    def __getitem__(self, lm):
        l, m = lm
        return self.values[..., l, m]


@dataclass
class SpectrumResult:
    """Power per zonal wavenumber m (last axis) for one field and lead
    window, or for each field of a stack."""

    power: np.ndarray

    def __post_init__(self):
        if np.any(self.power < 0):
            raise ValueError("spectrum power must be non-negative")


def _legendre_rows(x: np.ndarray, l_max: int):
    """Yield (l, P_l) for l = 0..l_max, where P_l[m, i] = P[l, m, i], m <= l.

    The one recurrence behind every Legendre value in this module: the
    diagonal seeded with sin(colat) folded into each step, the first
    subdiagonal, then the three-term recurrence in l, vectorized over m.
    Only three degrees are held, the oldest also as scratch, so memory
    is O(l_max n); each P_l is a view that later degrees overwrite.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    sx = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    prev2, prev1, row = (np.zeros((l_max + 1, x.size)) for _ in range(3))
    prev1[0] = 1.0 / np.sqrt(4.0 * np.pi)
    yield 0, prev1[:1]
    for l in range(1, l_max + 1):
        if l >= 2:
            k = l - 1
            m = np.arange(0, k, dtype=np.float64)
            alpha = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            beta = np.sqrt(((2.0 * l + 1.0) * (l + m - 1.0) * (l - m - 1.0))
                           / ((2.0 * l - 3.0) * (l + m) * (l - m)))
            np.multiply(alpha[:, None], x[None, :], out=row[:k])
            row[:k] *= prev1[:k]
            prev2[:k] *= beta[:, None]  # l-2 is not needed after this
            row[:k] -= prev2[:k]
        row[l - 1] = np.sqrt(2.0 * l + 1.0) * x * prev1[l - 1]
        row[l] = -np.sqrt((2 * l + 1) / (2.0 * l)) * sx * prev1[l - 1]
        prev2, prev1, row = prev1, row, prev2
        yield l, prev1[:l + 1]


def plegendre_table(x: np.ndarray, l_max: int) -> np.ndarray:
    """Orthonormalized associated Legendre functions on nodes x = sin(lat).

    P[l, m, i] is the latitude part of the orthonormal spherical harmonic
    (the harmonic is P[l,m] * exp(i m lon)), so
    int_{-1}^{1} P[l,m] P[l',m] dx = delta(l,l') / (2 pi), the
    Condon-Shortley phase is included, and P[0,0] = 1/sqrt(4 pi).
    The dense (l_max+1)^2 n table is for inspection and tests; the
    transforms stream the same rows instead of storing them.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    P = np.zeros((l_max + 1, l_max + 1, x.size))
    for l, row in _legendre_rows(x, l_max):
        P[l, :l + 1] = row
    return P


def plegendre_max_abs(x: np.ndarray, l_max: int) -> float:
    """Max |P| over all l <= l_max, m <= l at nodes x, computed streaming.

    Diagnostic for recurrence stability at high degree without storing the
    full (l_max+1)^2 table.
    """
    return max(float(np.max(np.abs(row))) for _, row in _legendre_rows(x, l_max))


class SphericalHarmonicTransform:
    """Transform between a Gaussian grid and coefficients, for one field
    or a stack of them.

    Legendre values come from _legendre_rows on the northern nodes only,
    and the southern rows follow from P(-x) = (-1)^(l+m) P(x).  When
    their m <= l rows take at most _TABLE_BYTES (0.5 MB at N32) the
    transform keeps copies of them; larger ones (1 GB at N320) are
    streamed a degree at a time on every call.  The FFT rows of each
    mirrored latitude pair are folded into their sum and difference, so
    every degree is one real-by-complex matmul per order m over half the
    latitudes, shared by all fields of the stack.  Direct (non-fast)
    Legendre transform: O(l_max^2 n_lat) work per field, O(l_max n_lat)
    memory per pass beside the fold of its fields and the coefficients.
    The fields come a chunk at a time from a fill (_fold), so a pass
    never holds them whole: an array's are copied, and a reader can
    read them from a file straight into the chunk (power_spectrum_of);
    the power spectrum holds no coefficient array, only a chunk of
    degrees.
    """

    def __init__(self, grid: GridSpec, l_max: int):
        if grid.kind != "gaussian":
            raise ValueError(
                "spherical harmonic transforms require a gaussian grid, "
                f"got {grid.kind!r}")
        if l_max < 0:
            raise ValueError("l_max must be non-negative")
        if l_max > grid.n_lat - 1:
            raise ValueError(
                f"l_max={l_max} too large: quadrature exactness needs "
                f"l_max <= n_lat - 1 = {grid.n_lat - 1}")
        if 2 * l_max + 1 > grid.n_lon:
            raise ValueError(
                f"l_max={l_max} unresolvable in longitude: need "
                f"2*l_max + 1 <= n_lon = {grid.n_lon}")
        self.grid = grid
        self.l_max = l_max
        self._half = grid.n_lat // 2
        self._x = np.sin(np.radians(grid.latitudes[:self._half]))  # north
        self._weights = np.asarray(grid.quad_weights, dtype=np.float64)
        m = np.arange(l_max + 1)
        lam0 = np.radians(grid.lon_origin)
        self._phase = np.exp(-1j * m * lam0)                   # analysis
        self._sign = np.where(m % 2, -1.0, 1.0)                # (-1)^m
        self._n_lon = grid.n_lon
        self._kept = {}  # stack size -> work arrays, see _work
        self._table = None
        if 4 * (l_max + 1) * (l_max + 2) * self._half <= _TABLE_BYTES:
            self._table = [p.copy() for _, p in self._rows()]

    def _rows(self):
        """(l, P_l) of _legendre_rows on the northern nodes, from the
        kept table when there is one."""
        if self._table is not None:
            return enumerate(self._table)
        return _legendre_rows(self._x, self.l_max)

    def _work(self, n: int, coeffs: int) -> tuple[dict, bool]:
        """(work arrays of a pass over n fields, whether to keep them):
        "fold" for _fold, and "scratch", float64 that holds a chunk of
        fields and a band of their Fourier rows in _fold, then `coeffs`
        floats of coefficient rows.  When the two take at most
        _KEEP_BYTES they are those the last pass over n fields kept, so a
        run of passes over a file makes them once; they are out of the
        transform during a pass, so passes at once never share them, and
        a pass that fails drops them.  Otherwise scratch holds only the
        chunk, and the pass makes its coefficient rows apart once fold is
        filled."""
        size, h = self.l_max + 1, self._half
        fold = (2, size, h, n + n % 2)
        step, band = self._fft_chunk(n)
        chunk = step * (self.grid.n_lat * self._n_lon
                        + 4 * band * (self._n_lon // 2 + 1))
        scratch = max(coeffs, chunk)
        keep = 16 * math.prod(fold) + 8 * scratch <= _KEEP_BYTES
        work = self._kept.pop(n, None) if keep else None
        if work is None or len(work["scratch"]) < scratch:
            work = {"fold": np.zeros(fold, dtype=np.complex128),
                    "scratch": np.empty(scratch if keep else chunk)}
        return work, keep

    def _fft_chunk(self, n: int) -> tuple[int, int]:
        """(fields of n filled at once, latitude pairs of them Fourier
        transformed at once): _FFT_BYTES of float64 fields and as many of
        their complex Fourier rows, at least one field and one pair."""
        step = max(1, min(n, _FFT_BYTES // (8 * self.grid.n_lat
                                            * self._n_lon)))
        return step, max(1, min(self._half, _FFT_BYTES // (
            32 * step * (self._n_lon // 2 + 1))))

    def _fold(self, fill, n: int, work: dict) -> np.ndarray:
        """fold[p][m, i, b] of n fields: each mirrored latitude pair's
        Fourier sum where l+m is even and difference where it is odd, for
        degrees l of parity p, read as reals so that the matmul is
        real-by-complex.  fill(b, x) sets x, a float64 (k, n_lat, n_lon)
        chunk of work["scratch"], to fields b..b+k-1 (_fft_chunk); their
        latitude pairs are then Fourier transformed a band at a time, so
        a pass holds its fold and one chunk, never its fields whole.
        An odd stack gets a zero field: the BLAS kernels then see whole
        groups of four real columns, so with OpenBLAS no field's sums
        depend on the others in the stack and any split of a stack into
        calls gives the same bits."""
        size, h = self.l_max + 1, self._half
        fold, scratch = work["fold"], work["scratch"]
        step, band = self._fft_chunk(n)
        cells = step * self.grid.n_lat * self._n_lon
        fields = scratch[:cells].reshape((step,) + self.grid.shape)
        fourier = scratch[cells:cells + 4 * step * band * (
            self._n_lon // 2 + 1)].view(np.complex128).reshape(
                step, 2 * band, -1)
        weights = self._weights[::-1]  # of the southern rows, mirrored
        for b in range(0, n, step):
            chunk = slice(b, min(b + step, n))
            x = fields[:chunk.stop - b]
            fill(b, x)
            for a in range(0, h, band):
                lat = slice(a, min(a + band, h))
                k = lat.stop - a
                north = np.fft.rfft(x[:, lat], axis=-1,
                                    out=fourier[:len(x), :k])[..., :size]
                north *= self._weights[lat, None]
                south = np.fft.rfft(x[:, ::-1][:, lat], axis=-1,
                                    out=fourier[:len(x), k:2 * k])[..., :size]
                south *= weights[lat, None]
                north = north.transpose(2, 1, 0)               # (m, i, b)
                odd = fold[1, :, lat, chunk]
                np.multiply(south.transpose(2, 1, 0),
                            self._sign[:, None, None], out=odd)
                np.add(north, odd, out=fold[0, :, lat, chunk])
                np.subtract(north, odd, out=odd)
        return fold.view(np.float64)

    def _fields(self, values) -> tuple[tuple, np.ndarray]:
        """(stack shape, values as (b, n_lat, n_lon) fields)."""
        values = np.asarray(values)
        if values.shape[-2:] != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"{self.grid.shape}")
        return values.shape[:-2], values.reshape((-1,) + self.grid.shape)

    def _degrees(self, fill, n: int, step: int, spare: int = 0):
        """Yield (rows, spare) for the n fields that fill sets (_fold), a
        chunk of `step` degrees at a time in order of l: rows[l - l0, m,
        2b:2b+2] holds the real and imaginary parts of a[b, l, m] before
        the 2 pi / n_lon scale and the longitude phase, zero for m > l,
        and spare is `spare` further floats of scratch.  Both are work
        arrays that the next chunk overwrites.  The one degree loop of
        analyze and power_spectrum_of."""
        size = self.l_max + 1
        block = step * size * 2 * n
        work, keep = self._work(n, block + spare)
        fold = self._fold(fill, n, work)
        if not keep:
            del work["scratch"]
            work["scratch"] = np.empty(block + spare)
        scratch = work["scratch"]
        rows = scratch[:block].reshape(step, size, 2 * n)
        row = np.empty((size, 1, fold.shape[-1]))
        for l, p in self._rows():
            if l % step == 0:  # m > l, and what the last chunk's reader wrote
                rows[...] = 0.0
            np.matmul(p[:, None, :], fold[l % 2, :l + 1], out=row[:l + 1])
            rows[l % step, :l + 1] = row[:l + 1, 0, :2 * n]
            if l % step == step - 1 or l == self.l_max:
                yield rows[:l % step + 1], scratch[block:block + spare]
        del fold
        if keep:
            self._kept = {n: work}

    def analyze(self, values: np.ndarray) -> HarmonicCoeffs:
        """Values (..., n_lat, n_lon), of any real dtype, ->
        coefficients a[..., l, m]."""
        stack, f = self._fields(values)
        size = self.l_max + 1
        # one chunk of every degree, (l, m, b); the loop has ended and
        # dropped its fold before the copy
        (a, _), = self._degrees(_copier(f), len(f), size)
        a = np.ascontiguousarray(np.moveaxis(a.view(np.complex128), -1, 0))
        a *= 2.0 * np.pi / self._n_lon
        a *= self._phase
        return HarmonicCoeffs(values=a.reshape(stack + (size, size)),
                              l_max=self.l_max)

    def power_spectrum(self, values: np.ndarray) -> np.ndarray:
        """Values (..., n_lat, n_lon), of any real dtype, -> power
        (..., m) = sum over l of |a[..., l, m]|^2, m > 0 doubled."""
        stack, f = self._fields(values)
        return self.power_spectrum_of(_copier(f), len(f)).reshape(
            stack + (self.l_max + 1,))

    def power_spectrum_of(self, fill, n: int) -> np.ndarray:
        """Power (n, m) of the n fields that fill(b, x) sets a chunk at a
        time, x a float64 (k, n_lat, n_lon) work array that is to hold
        fields b..b+k-1 (see _fold); power_spectrum's fill copies them
        from an array, and a reader's can read them from a file.

        Each chunk of _DEGREE_BYTES of degrees goes through analyze's
        operations (stack axis first, scale, phase, abs, square) and is
        added to the power in order of l, so the bits are those of
        summing analyze's |a|^2 over l, without its coefficients."""
        size = self.l_max + 1
        step = min(size, max(1, _DEGREE_BYTES // (16 * size * max(n, 1))))
        power = np.zeros((n, size))
        for rows, spare in self._degrees(fill, n, step, 2 * n * step * size):
            k = len(rows)
            c = spare[:2 * n * k * size].view(np.complex128).reshape(
                n, k, size)
            np.copyto(c, np.moveaxis(rows.view(np.complex128), -1, 0))
            c *= 2.0 * np.pi / self._n_lon
            c *= self._phase
            mag = np.abs(c, out=rows.reshape(-1)[:n * k * size].reshape(
                n, k, size))
            np.square(mag, out=mag)
            mag[:, 0] += power        # ((P + |a_l0|^2) + |a_l0+1|^2) + ...
            np.sum(mag, axis=-2, out=power)
        power[:, 1:] *= 2.0
        return power

    def synthesize(self, coeffs: HarmonicCoeffs) -> np.ndarray:
        """Coefficients (..., l, m) -> field values (..., n_lat, n_lon);
        inverse of analyze."""
        if coeffs.l_max != self.l_max:
            raise ValueError(
                f"coefficient truncation {coeffs.l_max} does not match "
                f"transform l_max {self.l_max}")
        size, h = self.l_max + 1, self._half
        a = coeffs.values * np.conj(self._phase)
        stack = a.shape[:-2]
        a = a.reshape((-1, size, size))
        n = a.shape[0]
        a = np.ascontiguousarray(np.moveaxis(a, 0, -1)).view(np.float64)
        # acc[p][m, i, b]: sum over degrees of parity p of P[l, m, i] a[l, m]
        acc = np.zeros((2, size, h, 2 * n))
        for l, p in self._rows():
            acc[l % 2, :l + 1] += p[:, :, None] * a[l, :l + 1, None, :]
        north = (acc[0] + acc[1]).view(np.complex128)
        south = ((acc[0] - acc[1])
                 * self._sign[:, None, None]).view(np.complex128)
        spec = np.zeros((n, self.grid.n_lat, self._n_lon // 2 + 1),
                        dtype=np.complex128)
        spec[:, :h, :size] = north.transpose(2, 1, 0)
        spec[:, h:, :size] = south.transpose(2, 1, 0)[:, ::-1]
        out = np.fft.irfft(spec, n=self._n_lon, axis=-1) * self._n_lon
        return out.reshape(stack + self.grid.shape)


def _copier(*stacks: np.ndarray):
    """The fill of _fold that copies fields of (b, n_lat, n_lon) stacks,
    of any real dtype, to float64: the fields of each stack in turn."""
    def fill(b, x):
        for f in stacks:
            part = f[b:b + len(x)]
            np.copyto(x[:len(part)], part)
            x, b = x[len(part):], max(0, b - len(f))
    return fill


@lru_cache(maxsize=8)
def _cached_transform(grid: GridSpec, l_max: int) -> SphericalHarmonicTransform:
    return SphericalHarmonicTransform(grid, l_max)


def analyze(values: np.ndarray, l_max: int, grid: GridSpec) -> HarmonicCoeffs:
    """Analyze a field, or a (..., n_lat, n_lon) stack of them, on grid up
    to degree l_max."""
    return _cached_transform(grid, l_max).analyze(values)


def synthesize(coeffs: HarmonicCoeffs, grid: GridSpec) -> np.ndarray:
    """Evaluate coefficients (or a stack of them) on a Gaussian grid."""
    return _cached_transform(grid, coeffs.l_max).synthesize(coeffs)


def zonal_power_spectrum(values: np.ndarray, l_max: int,
                         grid: GridSpec) -> SpectrumResult:
    """Power per zonal wavenumber: P(m) = sum_{l >= m} |a_l^m|^2.

    m > 0 terms carry multiplicity 2 (the conjugate -m coefficients of a
    real field), so sum_m P(m) satisfies Parseval against the
    quadrature-weighted mean square times 4 pi.  A (..., n_lat, n_lon)
    stack gives one spectrum per field, all from one transform call.
    """
    return SpectrumResult(
        power=_cached_transform(grid, l_max).power_spectrum(values))


def kinetic_energy_spectrum(u: np.ndarray, v: np.ndarray, l_max: int,
                            grid: GridSpec, half: bool = True
                            ) -> SpectrumResult:
    """Kinetic energy spectrum from wind components (m^2 s-2 per m).

    KE(m) = 1/2 [P_u(m) + P_v(m)]; set half=False to drop the 1/2 of the
    specific-kinetic-energy definition (shape is unaffected).  u and v
    are arrays of one shape (one field or a stack) on grid; both go
    through one transform call, which copies u's fields and then v's
    into its work array, so no stack of the two is made.
    """
    transform = _cached_transform(grid, l_max)
    stack, fu = transform._fields(u)
    if np.shape(v) != np.shape(u):
        raise ValueError(f"u shape {np.shape(u)} and v shape {np.shape(v)} "
                         "differ")
    _, fv = transform._fields(v)
    power = transform.power_spectrum_of(_copier(fu, fv), 2 * len(fu))
    pu, pv = power.reshape((2,) + stack + (l_max + 1,))
    scale = 0.5 if half else 1.0
    return SpectrumResult(power=scale * (pu + pv))


def potential_temperature_energy_spectrum(t: np.ndarray, l_max: int,
                                          grid: GridSpec,
                                          pressure_hpa: float = 500.0
                                          ) -> SpectrumResult:
    """Potential temperature energy spectrum (K^2 per m).

    theta = T * (1000 / p)^kappa with the dry-air exponent, then the
    zonal power spectrum of theta.  t is an array (one field or a stack)
    on grid; each chunk of it is copied into the transform's work array
    and scaled there, so no theta array is made.
    """
    transform = _cached_transform(grid, l_max)
    stack, f = transform._fields(t)
    copy, scale = _copier(f), (1000.0 / pressure_hpa) ** DRY_AIR_KAPPA

    def fill(b, x):
        copy(b, x)
        x *= scale

    power = transform.power_spectrum_of(fill, len(f))
    return SpectrumResult(power=power.reshape(stack + (l_max + 1,)))
