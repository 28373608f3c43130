#!/usr/bin/env python
# Top-of-atmosphere solar forcing: instantaneous and accumulated irradiance.
#
# Irradiance is G_SC * (1/d)^2 * cos(zenith), floored at zero on the night
# side.  Forcing windows are accumulated minute by minute into J m-2 and
# labeled by their ending time, matching the convention of accumulated
# reanalysis fields.

from datetime import datetime, timedelta, timezone

import numpy as np

from spherecast import make_gaussian_grid
from spherecast.solar import (SolarConfig, accumulated_irradiance,
                              instantaneous_irradiance, solar_constant_at,
                              sun_ephemeris)

UTC = timezone.utc
noon = datetime(2020, 6, 21, 12, 0, tzinfo=UTC)

# Sun geometry for the solstice: declination near the obliquity maximum
decl, eot, dist = sun_ephemeris(noon)
print(f"2020-06-21 12Z: declination {np.degrees(decl):+.3f} deg, "
      f"equation of time {eot:+.2f} min, earth-sun distance {dist:.5f} au")

# Instantaneous values around the globe at one time
for lat, lon, label in [(23.4, 0.0, "subsolar band"),
                        (0.0, 0.0, "equator"),
                        (-60.0, 0.0, "southern winter"),
                        (45.0, 180.0, "night side")]:
    val = instantaneous_irradiance(noon, lat, lon)
    print(f"  I({lat:+6.1f}, {lon:5.1f})  = {val:8.1f} W m-2   ({label})")

# A 6-hour accumulation window on a small Gaussian grid: a float64
# (n_lat, n_lon) array that belongs to the window's ending time
grid = make_gaussian_grid(16, 32)
start = datetime(2020, 3, 20, 6, 0, tzinfo=UTC)
window = accumulated_irradiance(start, 6, grid)
print("\n6-h accumulated irradiance, 2020-03-20 06-12Z (kJ m-2):")
print("  equator row:", np.round(window[8] / 1e3, 0))
print("  window labeled by ending time:",
      (start + timedelta(hours=6)).isoformat())

# 6-hour windows equal the sum of their 1-hour windows bit-exactly
hours = [accumulated_irradiance(start + timedelta(hours=k), 1, grid)
         for k in range(6)]
total = hours[0]
for h in hours[1:]:
    total = total + h
print("additivity bit-exact:", np.array_equal(window, total))

# Annual solar-constant tables interpolate between years; beyond the table
# the 13-year cycle starting 1983 repeats, so 1996 reuses 1983, 2009 again
table = {y: 1360.0 + 0.3 * (y - 1979) for y in range(1979, 1996)}
cfg = SolarConfig(gsc_table=table)
for year in (1985, 1995, 1996, 2009):
    t = datetime(year, 7, 1, tzinfo=UTC)
    print(f"G_SC mid-{year}: {solar_constant_at(t, cfg):.2f} W m-2")
