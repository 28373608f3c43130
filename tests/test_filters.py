import numpy as np
import pytest

from spherecast import make_gaussian_grid
from spherecast.filters import (DiffusionSpec, PoleFilterSpec, diffuse_values,
                                diffusion_stability_bound, latitude_cell_measures,
                                pole_filter_values)
from spherecast.sht import HarmonicCoeffs, SphericalHarmonicTransform


def weighted_mean(grid, values):
    return float(np.sum(grid.quad_weights[:, None] * values) / (2 * grid.n_lon))


def test_cell_measures_sum_to_two(grid32):
    assert abs(latitude_cell_measures(grid32).sum() - 2.0) < 1e-12
    from spherecast import make_equiangular_grid
    eq = make_equiangular_grid(17, 36)
    m = latitude_cell_measures(eq)
    assert abs(m.sum() - 2.0) < 1e-12
    assert np.all(m > 0)


def test_constant_field_unchanged(grid32):
    f = np.full(grid32.shape, 3.25)
    out = diffuse_values(f, grid32, DiffusionSpec(nu_dt=1e-5, steps=5))
    np.testing.assert_array_equal(out, f)


def test_zero_steps_identity(grid32):
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid32.shape)
    out = diffuse_values(f, grid32, DiffusionSpec(nu_dt=1e-5, steps=0))
    assert np.array_equal(out, f)


def test_stability_bound_enforced(grid32):
    bound = diffusion_stability_bound(grid32)
    with pytest.raises(ValueError, match=f"{bound:g}"):
        diffuse_values(np.zeros(grid32.shape), grid32,
                       DiffusionSpec(nu_dt=bound * 1.01, steps=1))


def test_eigenmode_decay_matches_heat_kernel():
    # spherical harmonics are near-eigenfunctions of the discrete operator:
    # amplitude decays by (1 - nu_dt l (l+1))^steps
    g = make_gaussian_grid(24, 48)
    nu_dt = diffusion_stability_bound(g)
    t = SphericalHarmonicTransform(g, g.n_lat - 1)
    spec = DiffusionSpec(nu_dt=nu_dt, steps=10)
    for l in (2, 4, 5, 6, 10):
        for m in (0, l // 2, l):
            a = np.zeros((g.n_lat, g.n_lat), complex)
            a[l, m] = 1.0
            f = t.synthesize(HarmonicCoeffs(a, g.n_lat - 1))
            out = diffuse_values(f, g, spec)
            measured = abs(t.analyze(out).values[l, m])
            predicted = (1.0 - nu_dt * l * (l + 1)) ** spec.steps
            assert abs(measured / predicted - 1.0) < 0.05, (l, m)


def test_global_mean_conserved(grid32):
    rng = np.random.default_rng(1)
    f = rng.normal(size=grid32.shape) + 5.0
    nu_dt = diffusion_stability_bound(grid32)
    before = weighted_mean(grid32, f)
    out = diffuse_values(f, grid32, DiffusionSpec(nu_dt=nu_dt, steps=1))
    after = weighted_mean(grid32, out)
    assert abs(after - before) <= 1e-10 * abs(before)
    out10 = diffuse_values(f, grid32, DiffusionSpec(nu_dt=nu_dt, steps=10))
    assert abs(weighted_mean(grid32, out10) - before) <= 1e-9 * abs(before)


def test_variance_non_increasing(grid32):
    rng = np.random.default_rng(2)
    nu_dt = diffusion_stability_bound(grid32)
    for seed in range(5):
        f = np.random.default_rng(seed).normal(size=grid32.shape)
        var_prev = weighted_mean(grid32, f * f)
        out = f
        for _ in range(5):
            out = diffuse_values(out, grid32, DiffusionSpec(nu_dt=nu_dt, steps=1))
            var = weighted_mean(grid32, out * out)
            assert var <= var_prev * (1 + 1e-13)
            var_prev = var


# ----------------------------------------------------------- pole filter

def dft_filter_oracle(row, m_max):
    """Direct DFT truncation, written independently of numpy.fft."""
    n = row.size
    out = np.zeros(n)
    for m in range(0, m_max + 1):
        e = np.exp(-2j * np.pi * m * np.arange(n) / n)
        coeff = (row * e).sum()
        if m == 0:
            out += coeff.real / n
        elif 2 * m == n:
            out += (coeff * np.conj(e)).real / n
        else:
            out += 2.0 * (coeff * np.conj(e)).real / n
    return out


def test_zonally_constant_rows_unchanged(grid32):
    f = np.tile(np.arange(grid32.n_lat, dtype=float)[:, None], (1, grid32.n_lon))
    out = pole_filter_values(f, grid32, PoleFilterSpec(start_lat=60.0))
    np.testing.assert_allclose(out, f, atol=1e-12)


def test_high_wavenumber_wave_removed_near_pole(grid32):
    # a Nyquist-frequency zonal wave at 85 deg is far above the cutoff
    lon = np.radians(grid32.longitudes)
    f = np.zeros(grid32.shape)
    i85 = int(np.argmin(np.abs(grid32.latitudes - 85.0)))
    f[i85] = np.cos(lon * (grid32.n_lon // 2))
    out = pole_filter_values(f, grid32, PoleFilterSpec(start_lat=70.0))
    np.testing.assert_allclose(out[i85], 0.0, atol=1e-12)


def test_row_at_reference_latitude_unchanged(grid32):
    rng = np.random.default_rng(4)
    f = rng.normal(size=grid32.shape)
    start = abs(grid32.latitudes[5])
    out = pole_filter_values(f, grid32, PoleFilterSpec(start_lat=start))
    np.testing.assert_allclose(out[5], f[5], atol=1e-12)
    np.testing.assert_allclose(out[grid32.n_lat - 6], f[grid32.n_lat - 6],
                               atol=1e-12)


def test_filtered_rows_match_dft_oracle(grid32):
    rng = np.random.default_rng(5)
    f = rng.normal(size=grid32.shape)
    spec = PoleFilterSpec(start_lat=60.0)
    out = pole_filter_values(f, grid32, spec)
    nyq = grid32.n_lon // 2
    for i, lat in enumerate(grid32.latitudes):
        if abs(lat) < spec.start_lat:
            assert np.array_equal(out[i], f[i])
            continue
        m_max = int(np.floor(nyq * np.cos(np.radians(lat))
                             / np.cos(np.radians(60.0))))
        np.testing.assert_allclose(out[i], dft_filter_oracle(f[i], m_max),
                                   atol=1e-12)


def test_pole_filter_idempotent(grid32):
    rng = np.random.default_rng(6)
    f = rng.normal(size=grid32.shape)
    spec = PoleFilterSpec(start_lat=55.0)
    once = pole_filter_values(f, grid32, spec)
    twice = pole_filter_values(once, grid32, spec)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_pole_filter_preserves_zonal_mean(grid32):
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid32.shape)
    out = pole_filter_values(f, grid32, PoleFilterSpec(start_lat=45.0))
    np.testing.assert_allclose(out.mean(axis=1), f.mean(axis=1), atol=1e-12)


def test_pole_filter_spec_validation():
    with pytest.raises(ValueError):
        PoleFilterSpec(start_lat=0.0)
    with pytest.raises(ValueError):
        PoleFilterSpec(start_lat=95.0)
    spec = PoleFilterSpec(start_lat=70.0, reference_lat=65.0)
    assert spec.ref == 65.0
    assert PoleFilterSpec(start_lat=70.0).ref == 70.0


@pytest.mark.parametrize("n_lat, start, ref", [
    (32, 60.0, None), (32, 30.0, 70.0), (2, 10.0, 5.0)])
def test_pole_filter_caps_give_the_bits_of_the_gathered_rows(n_lat, start,
                                                             ref):
    # each polar cap is transformed as a slice of rows; the bits are those
    # of one transform of every filtered row gathered by a mask, also
    # when the caps meet (every row of the 2-row grid is filtered)
    grid = make_gaussian_grid(n_lat, 2 * n_lat)
    spec = PoleFilterSpec(start_lat=start, reference_lat=ref)
    f = np.random.default_rng(8).normal(size=(3,) + grid.shape)
    nyq = grid.n_lon // 2
    m_max = np.floor(nyq * np.cos(np.radians(grid.latitudes))
                     / np.cos(np.radians(spec.ref)))
    rows = (np.abs(grid.latitudes) >= start) & (m_max < nyq)
    coeffs = np.fft.rfft(f[..., rows, :])
    coeffs[..., np.arange(nyq + 1) > m_max[rows, None]] = 0.0
    want = f.copy()
    want[..., rows, :] = np.fft.irfft(coeffs, n=grid.n_lon)
    assert rows.any()
    assert np.array_equal(pole_filter_values(f, grid, spec), want)
    # and again, with the caps the first call cached
    assert np.array_equal(pole_filter_values(f, grid, spec), want)
