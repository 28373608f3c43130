import tracemalloc

import numpy as np
import pytest
import scipy.special as sp

from spherecast import make_equiangular_grid, make_gaussian_grid, sht
from spherecast.grid import gauss_legendre
from spherecast.sht import (DRY_AIR_KAPPA, HarmonicCoeffs,
                            SphericalHarmonicTransform, analyze,
                            kinetic_energy_spectrum, plegendre_max_abs,
                            plegendre_table, potential_temperature_energy_spectrum,
                            zonal_power_spectrum)


def random_coeffs(l_max, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    for l in range(l_max + 1):
        a[l, 0] = rng.normal()
        for m in range(1, l + 1):
            a[l, m] = rng.normal() + 1j * rng.normal()
    return HarmonicCoeffs(a, l_max)


def scipy_analyze_oracle(values, grid, l_max):
    """Direct quadrature against scipy's spherical harmonics."""
    theta = np.radians(90.0 - grid.latitudes)
    lam = np.radians(grid.longitudes)
    th, lm = np.meshgrid(theta, lam, indexing="ij")
    a = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    dlam = 2.0 * np.pi / grid.n_lon
    for l in range(l_max + 1):
        for m in range(l + 1):
            y = sp.sph_harm_y(l, m, th, lm)
            a[l, m] = np.sum(grid.quad_weights[:, None] * values
                             * np.conj(y)) * dlam
    return a


def test_constant_field_coefficient(grid64):
    t = SphericalHarmonicTransform(grid64, 63)
    c = -2.25
    a = t.analyze(np.full(grid64.shape, c))
    assert abs(a[0, 0] - c * np.sqrt(4.0 * np.pi)) < 1e-12 * abs(c)
    rest = a.values.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_pure_legendre_mode(grid64):
    x = np.sin(np.radians(grid64.latitudes))
    P = plegendre_table(x, 2)
    f = np.tile(P[2, 0][:, None], (1, grid64.n_lon))
    a = analyze(f, 2, grid64)
    assert abs(a[2, 0] - 1.0) < 1e-12
    rest = a.values.copy()
    rest[2, 0] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_analysis_matches_scipy_oracle():
    grid = make_gaussian_grid(16, 32)
    t = SphericalHarmonicTransform(grid, 10)
    f = t.synthesize(random_coeffs(10, seed=1))
    ours = t.analyze(f).values
    ref = scipy_analyze_oracle(f, grid, 10)
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_single_harmonic_synthesis_matches_scipy():
    grid = make_gaussian_grid(16, 32)
    t = SphericalHarmonicTransform(grid, 8)
    theta = np.radians(90.0 - grid.latitudes)
    lam = np.radians(grid.longitudes)
    th, lm = np.meshgrid(theta, lam, indexing="ij")
    for l, m in ((0, 0), (3, 0), (5, 2), (8, 8)):
        a = np.zeros((9, 9), dtype=complex)
        a[l, m] = 1.0
        f = t.synthesize(HarmonicCoeffs(a, 8))
        y = sp.sph_harm_y(l, m, th, lm)
        expect = y.real if m == 0 else 2.0 * y.real
        np.testing.assert_allclose(f, expect, atol=1e-12)


def test_zero_coefficients_zero_field(grid32):
    t = SphericalHarmonicTransform(grid32, 10)
    f = t.synthesize(HarmonicCoeffs(np.zeros((11, 11), complex), 10))
    assert np.array_equal(f, np.zeros(grid32.shape))


def test_round_trip_band_limited(grid64):
    t = SphericalHarmonicTransform(grid64, 63)
    for seed in range(5):
        coeffs = random_coeffs(63, seed=seed)
        f = t.synthesize(coeffs)
        back = t.analyze(f)
        assert np.abs(back.values - coeffs.values).max() < 1e-10
        f2 = t.synthesize(back)
        assert np.abs(f2 - f).max() < 1e-10


def test_round_trip_across_resolutions():
    for n_lat in (16, 32, 128):
        grid = make_gaussian_grid(n_lat, 2 * n_lat)
        t = SphericalHarmonicTransform(grid, n_lat - 1)
        coeffs = random_coeffs(n_lat - 1, seed=n_lat)
        f = t.synthesize(coeffs)
        assert np.abs(t.analyze(f).values - coeffs.values).max() < 1e-10


def test_round_trip_with_lon_origin():
    grid = make_gaussian_grid(16, 32, lon_origin=10.0)
    t = SphericalHarmonicTransform(grid, 15)
    coeffs = random_coeffs(15, seed=7)
    f = t.synthesize(coeffs)
    assert np.abs(t.analyze(f).values - coeffs.values).max() < 1e-10


def test_round_trip_truncated_with_lon_origin():
    # l_max below n_lat - 1 and a shifted longitude origin, one field and
    # a stack of them
    grid = make_gaussian_grid(32, 64, lon_origin=7.5)
    t = SphericalHarmonicTransform(grid, 20)
    coeffs = [random_coeffs(20, seed=s) for s in (30, 31, 32)]
    for c in coeffs:
        f = t.synthesize(c)
        assert np.abs(t.analyze(f).values - c.values).max() < 1e-10
    stack = HarmonicCoeffs(np.stack([c.values for c in coeffs]), 20)
    back = t.analyze(t.synthesize(stack))
    assert np.abs(back.values - stack.values).max() < 1e-10


def test_stacked_transforms_match_per_field_calls(grid32):
    """A (2, 3, lat, lon) stack against one call per field.  Synthesis is
    bit for bit; analysis agrees to 1e-15 of each field's largest
    coefficient, because the matmul over a wider stack may sum the
    latitudes in another order."""
    t = SphericalHarmonicTransform(grid32, 31)
    rng = np.random.default_rng(14)
    f = rng.normal(size=(2, 3) + grid32.shape)
    stacked = t.analyze(f)
    assert stacked.values.shape == (2, 3, 32, 32)
    back = t.synthesize(stacked)
    assert back.shape == f.shape
    for i in range(2):
        for j in range(3):
            single = t.analyze(f[i, j]).values
            scale = np.abs(single).max()
            assert np.abs(stacked.values[i, j] - single).max() <= 1e-15 * scale
            assert np.array_equal(
                back[i, j],
                t.synthesize(HarmonicCoeffs(stacked.values[i, j], 31)))
    spec = zonal_power_spectrum(f, 31, grid32)
    assert spec.power.shape == (2, 3, 32)
    np.testing.assert_allclose(spec.power[1, 2],
                               zonal_power_spectrum(f[1, 2], 31, grid32).power,
                               rtol=1e-14)


def test_analyze_n320_stores_no_legendre_table():
    # the dense (l_max+1)^2 n_lat float64 table alone would be 2.1 GB
    grid = make_gaussian_grid(640, 1280)
    f = np.random.default_rng(15).normal(size=grid.shape)
    tracemalloc.start()
    try:
        a = SphericalHarmonicTransform(grid, 639).analyze(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20
    mean = np.sum(grid.quad_weights[:, None] * f) / (2.0 * grid.n_lon)
    assert abs(a[0, 0] - mean * np.sqrt(4.0 * np.pi)) < 1e-12


def test_power_spectrum_n320_holds_no_coefficient_array(monkeypatch):
    # analyze holds the 13 MB (l_max+1)^2 coefficient square of two N320
    # fields beside their 13 MB fold; the power path, with a 4 MiB block
    # budget, holds a block of the fold and of the recurrence's rows, one
    # field and a band of its Fourier rows (then a chunk of degrees in the
    # same array) and the 1.6 MB diagonal of the Legendre table
    budget = 4 * 2 ** 20
    monkeypatch.setattr(sht, "_FOLD_BYTES", budget)
    grid = make_gaussian_grid(640, 1280)
    f = np.random.default_rng(16).normal(size=(2,) + grid.shape)
    t = SphericalHarmonicTransform(grid, 639)
    assert len(t._blocks(2)) > 1
    field = 8 * 640 * 1280
    tracemalloc.start()
    try:
        power = t.power_spectrum(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget + field + 4 * 2 ** 20
    # m = 0 holds |a_00|^2 = 4 pi mean^2 and more
    mean = np.sum(grid.quad_weights[:, None] * f, axis=(1, 2)) / (
        2.0 * grid.n_lon)
    assert power.shape == (2, 640)
    assert np.all(power[:, 0] >= 4.0 * np.pi * mean ** 2)


@pytest.mark.parametrize("n", [4, 16])
def test_power_spectrum_holds_its_fold_budget_whatever_the_pass(monkeypatch,
                                                                 n):
    # at 256x512 the fold of 4 fields is 4 MiB and of 16 fields 16 MiB; with
    # a 2 MiB budget each pass folds a block of orders at a time (3 and 9
    # blocks), so both peak at the budget beside a chunk of fields and
    # degrees
    budget = 2 * 2 ** 20
    monkeypatch.setattr(sht, "_FOLD_BYTES", budget)
    grid = make_gaussian_grid(256, 512)
    f = np.random.default_rng(22).normal(size=(n,) + grid.shape)
    t = SphericalHarmonicTransform(grid, 255)
    assert len(t._blocks(n)) == {4: 3, 16: 9}[n]
    field = 8 * 256 * 512
    tracemalloc.start()
    try:
        t.power_spectrum(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget + 2 * field + 4 * 2 ** 20


@pytest.mark.parametrize("shape, n, lon_origin", [
    ((64, 128), 7, 97.5), ((32, 64), 6, -101.0)])
def test_power_spectrum_a_block_of_orders_at_a_time_is_bit_identical(
        monkeypatch, shape, n, lon_origin):
    # 1, 2, 3, 5 and one-order blocks, with the Legendre table kept and
    # streamed: the bits of analyze's |a|^2 summed over l
    grid = make_gaussian_grid(*shape, lon_origin=lon_origin)
    rng = np.random.default_rng(23)
    f = rng.normal(size=(n,) + grid.shape) * 10.0 ** rng.integers(
        -5, 6, size=(n, 1, 1))
    l_max = shape[0] - 1
    want = np.square(np.abs(analyze(f, l_max, grid).values)).sum(-2)
    want[:, 1:] *= 2.0
    per_order = 8 * (shape[0] // 2) * (4 * (n + n % 2) + 3)
    for table in (sht._TABLE_BYTES, 0):
        monkeypatch.setattr(sht, "_TABLE_BYTES", table)
        t = SphericalHarmonicTransform(grid, l_max)
        assert (t._table is None) == (table == 0)
        for count in (1, 2, 3, 5, l_max + 1):
            monkeypatch.setattr(sht, "_FOLD_BYTES",
                                per_order * -(-(l_max + 1) // count))
            assert len(t._blocks(n)) == count
            assert t.power_spectrum(f).tobytes() == want.tobytes(), count


def test_legendre_rows_of_any_order_range_are_the_full_rows():
    # a range starts from the diagonal of its first order; every value is
    # that of the recurrence over all orders, bit for bit
    x, _ = gauss_legendre(50)
    x = x[:25]
    full = {l: p.copy() for l, p in sht._legendre_rows(x, 40)}
    seeds = sht._sectoral(x, 40)
    for m0, m1 in [(0, 1), (0, 41), (1, 2), (3, 9), (7, 8), (20, 41),
                   (39, 40), (40, 41)]:
        for sectoral in (None, seeds):
            degrees = []
            for l, p in sht._legendre_rows(x, 40, (m0, m1), sectoral):
                degrees.append(l)
                assert p.shape == (min(l + 1, m1) - m0, x.size)
                assert p.tobytes() == full[l][m0:m1].tobytes(), (m0, m1, l)
            assert degrees == list(range(m0, 41))


def test_real_field_zonal_coeffs_real(grid32):
    rng = np.random.default_rng(8)
    f = rng.normal(size=grid32.shape)
    a = analyze(f, 31, grid32)
    norm = np.abs(a.values).max()
    assert np.abs(a.values[:, 0].imag).max() <= 1e-12 * norm


def test_parseval(grid64):
    t = SphericalHarmonicTransform(grid64, 63)
    for seed in (3, 4):
        f = t.synthesize(random_coeffs(63, seed=seed))
        spec = zonal_power_spectrum(f, 63, grid64)
        wmean_sq = float(np.sum(grid64.quad_weights[:, None] * f * f)
                         / (2.0 * grid64.n_lon))
        total = spec.power.sum()
        assert abs(total - 4.0 * np.pi * wmean_sq) <= 1e-10 * total


def test_spectrum_constant_field(grid32):
    spec = zonal_power_spectrum(np.full(grid32.shape, 2.0), 10, grid32)
    assert abs(spec.power[0] - 4.0 * np.pi * 4.0) < 1e-10
    assert np.all(spec.power[1:] < 1e-12)


def test_spectrum_zonal_wavenumber_three(grid32):
    lat = np.radians(grid32.latitudes)[:, None]
    lon = np.radians(grid32.longitudes)[None, :]
    f = np.cos(3.0 * lon) * np.cos(lat)
    spec = zonal_power_spectrum(f, 31, grid32)
    assert spec.power[3] > 1e-3
    rest = np.delete(spec.power, 3)
    assert rest.max() < 1e-20 * spec.power[3] + 1e-24


def test_spectrum_nonnegative_and_triangle_bound(grid32):
    rng = np.random.default_rng(9)
    t = SphericalHarmonicTransform(grid32, 31)
    for seed in range(3):
        f = t.synthesize(random_coeffs(31, seed=10 + seed))
        g = t.synthesize(random_coeffs(31, seed=20 + seed))
        pf = zonal_power_spectrum(f, 31, grid32).power
        pg = zonal_power_spectrum(g, 31, grid32).power
        pfg = zonal_power_spectrum(f + g, 31, grid32).power
        assert np.all(pf >= 0) and np.all(pfg >= 0)
        assert np.all(pfg <= 2.0 * (pf + pg) + 1e-12)


def test_legendre_recurrence_stable_high_degree():
    # matched-resolution quadrature nodes for degree 2048, subsampled;
    # normalized values stay finite and below 10
    x, _ = gauss_legendre(2050)
    mx = plegendre_max_abs(x[::16], 2048)
    assert np.isfinite(mx)
    assert mx <= 10.0


def test_plegendre_streaming_matches_table(grid16):
    x = np.sin(np.radians(grid16.latitudes))
    table_max = np.abs(plegendre_table(x, 40)).max()
    stream_max = plegendre_max_abs(x, 40)
    assert abs(table_max - stream_max) < 1e-13


def test_kinetic_energy_constant_u(grid32):
    c = 3.0
    u = np.full(grid32.shape, c)
    v = np.zeros(grid32.shape)
    ke = kinetic_energy_spectrum(u, v, 10, grid32)
    assert abs(ke.power[0] - 0.5 * 4.0 * np.pi * c * c) < 1e-9
    assert np.all(ke.power[1:] < 1e-12)
    no_half = kinetic_energy_spectrum(u, v, 10, grid32, half=False)
    assert abs(no_half.power[0] - 2.0 * ke.power[0]) < 1e-9


def test_kinetic_energy_symmetric_under_swap(grid32):
    rng = np.random.default_rng(11)
    u = rng.normal(size=grid32.shape)
    v = rng.normal(size=grid32.shape)
    a = kinetic_energy_spectrum(u, v, 20, grid32)
    b = kinetic_energy_spectrum(v, u, 20, grid32)
    np.testing.assert_allclose(a.power, b.power, rtol=1e-14)


@pytest.mark.parametrize("kind", ["kinetic", "theta"])
def test_energy_spectra_hold_the_fold_not_a_copy_of_their_input(kind):
    # 8 float64 fields at 256x512, a pass too large to keep: u and v used
    # to be stacked into a copy (and t copied into a theta array) beside
    # the fold; the bits are those of that copy's spectrum
    grid = make_gaussian_grid(256, 512)
    rng = np.random.default_rng(21)
    fields = rng.normal(size=(8,) + grid.shape)
    field, fold = 8 * 256 * 512, 16 * 2 * 256 * 128 * 8
    kappa = (1000.0 / 700.0) ** DRY_AIR_KAPPA
    if kind == "kinetic":
        u, v = fields[:4], fields[4:]
        run = lambda: kinetic_energy_spectrum(u, v, 255, grid)  # noqa: E731
        pu, pv = zonal_power_spectrum(np.stack([u, v]), 255, grid).power
        expect = 0.5 * (pu + pv)
    else:
        t = 250.0 + fields.astype(np.float32)
        run = lambda: potential_temperature_energy_spectrum(  # noqa: E731
            t, 255, grid, pressure_hpa=700.0)
        expect = zonal_power_spectrum(t.astype(np.float64) * kappa, 255,
                                      grid).power
    tracemalloc.start()
    try:
        got = run().power
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= fold + 2 * field + 2 * 2 ** 21
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_solid_body_rotation_zonal_only(grid32):
    u = np.tile(np.cos(np.radians(grid32.latitudes))[:, None],
                (1, grid32.n_lon))
    v = np.zeros(grid32.shape)
    ke = kinetic_energy_spectrum(u, v, 31, grid32)
    assert ke.power[0] > 1e-3
    assert ke.power[1:].max() < 1e-20


def test_theta_spectrum_identity_at_1000_hpa(grid32):
    rng = np.random.default_rng(12)
    t = 250.0 + rng.normal(size=grid32.shape)
    a = potential_temperature_energy_spectrum(t, 20, grid32,
                                              pressure_hpa=1000.0)
    b = zonal_power_spectrum(t, 20, grid32)
    np.testing.assert_allclose(a.power, b.power, rtol=1e-13)


def test_theta_spectrum_constant_250k(grid32):
    t = np.full(grid32.shape, 250.0)
    spec = potential_temperature_energy_spectrum(t, 10, grid32,
                                                 pressure_hpa=500.0)
    theta = 250.0 * 2.0 ** DRY_AIR_KAPPA
    assert abs(spec.power[0] - 4.0 * np.pi * theta ** 2) < 1e-7
    assert np.all(spec.power[1:] < 1e-9)


def test_theta_spectrum_composition_oracle(grid32):
    rng = np.random.default_rng(13)
    vals = 250.0 + 5.0 * rng.normal(size=grid32.shape)
    spec = potential_temperature_energy_spectrum(vals, 25, grid32,
                                                 pressure_hpa=500.0)
    theta = vals * (1000.0 / 500.0) ** DRY_AIR_KAPPA
    ref = zonal_power_spectrum(theta, 25, grid32)
    np.testing.assert_allclose(spec.power, ref.power, rtol=1e-13)


def test_transform_validation(grid32):
    with pytest.raises(ValueError, match="gaussian"):
        SphericalHarmonicTransform(make_equiangular_grid(16, 32), 10)
    with pytest.raises(ValueError, match="l_max"):
        SphericalHarmonicTransform(grid32, 32)
    with pytest.warns(UserWarning):
        narrow = make_gaussian_grid(32, 36)
    with pytest.raises(ValueError, match="longitude"):
        SphericalHarmonicTransform(narrow, 31)
    t = SphericalHarmonicTransform(grid32, 10)
    with pytest.raises(ValueError):
        t.analyze(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="truncation"):
        t.synthesize(HarmonicCoeffs(np.zeros((5, 5), complex), 4))
    with pytest.raises(ValueError, match="l_max"):
        HarmonicCoeffs(np.zeros((2, 5, 4), complex), 4)
