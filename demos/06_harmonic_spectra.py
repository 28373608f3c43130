#!/usr/bin/env python
# Spherical-harmonic analysis and zonal-wavenumber energy spectra.
#
# Fields on a Gaussian grid decompose exactly into spherical harmonics up
# to degree n_lat - 1.  The spectrum diagnostic sums squared coefficient
# magnitudes over all degrees at each zonal wavenumber m, which is how the
# effective resolution (and progressive smoothing) of a forecast model is
# usually displayed.

import numpy as np

from spherecast import make_gaussian_grid
from spherecast.sht import (HarmonicCoeffs, SphericalHarmonicTransform,
                            kinetic_energy_spectrum, zonal_power_spectrum,
                            potential_temperature_energy_spectrum)

grid = make_gaussian_grid(64, 128)
t = SphericalHarmonicTransform(grid, 63)

# Round trip: synthesize a band-limited field, analyze it back
rng = np.random.default_rng(0)
a = np.zeros((64, 64), complex)
for l in range(64):
    a[l, 0] = rng.normal() / (1 + l)
    for m in range(1, l + 1):
        a[l, m] = (rng.normal() + 1j * rng.normal()) / (1 + l)
f = t.synthesize(HarmonicCoeffs(a, 63))
back = t.analyze(f)
print("analyze(synthesize(a)) max coefficient error:",
      np.abs(back.values - a).max())

# Parseval: total spectral power equals the weighted mean square times 4 pi
spec = zonal_power_spectrum(f, 63, grid)
wms = float(np.sum(grid.quad_weights[:, None] * f * f) / (2 * grid.n_lon))
print("sum P(m) =", spec.power.sum(), " vs 4 pi <f^2> =", 4 * np.pi * wms)

# A red kinetic-energy spectrum from random winds with a power-law envelope
def red_field(seed, slope=-1.5):
    r = np.random.default_rng(seed)
    c = np.zeros((64, 64), complex)
    for l in range(1, 64):
        amp = float(l) ** slope
        c[l, 0] = amp * r.normal()
        for m in range(1, l + 1):
            c[l, m] = amp * (r.normal() + 1j * r.normal())
    return t.synthesize(HarmonicCoeffs(c, 63))

u, v = red_field(1), red_field(2)
ke = kinetic_energy_spectrum(u, v, 63, grid)
print("\nkinetic energy spectrum (m^2 s-2 per zonal wavenumber):")
for m in (1, 2, 4, 8, 16, 32, 63):
    print(f"  m={m:2d}: {ke.power[m]:.3e}")

# Potential temperature converts T at a pressure level before transforming
temp = 250.0 + red_field(3)
theta = potential_temperature_energy_spectrum(temp, 63, grid,
                                              pressure_hpa=500.0)
print("\npotential temperature spectrum peak at m=0:",
      f"{theta.power[0]:.3e} K^2 (mean theta ~",
      round(250 * 2 ** 0.2854, 1), "K)")
