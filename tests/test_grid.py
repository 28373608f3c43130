from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from spherecast import (Field, FieldSeries, cosine_weights, make_equiangular_grid,
                        make_gaussian_grid, metric_weights)
from spherecast.grid import gauss_legendre

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def test_two_node_gauss_legendre():
    # 2-node Gauss-Legendre: nodes +-1/sqrt(3), weights 1
    g = make_gaussian_grid(2, 4)
    expect = np.degrees(np.arcsin(1.0 / np.sqrt(3.0)))
    np.testing.assert_allclose(g.latitudes, [expect, -expect], atol=1e-13)
    np.testing.assert_allclose(g.quad_weights, [1.0, 1.0], atol=1e-14)


def test_n320_grid_spacing_near_equator():
    g = make_gaussian_grid(640, 1280)
    spacing = abs(g.latitudes[319] - g.latitudes[320])
    assert 0.27 < spacing < 0.29
    assert g.latitudes[0] > 89.0
    assert abs(g.quad_weights.sum() - 2.0) < 1e-12


def test_weights_sum_to_two():
    for n in (16, 64, 128):
        g = make_gaussian_grid(n, 2 * n)
        assert abs(g.quad_weights.sum() - 2.0) < 1e-12


def test_nodes_match_independent_implementation():
    # numpy's leggauss is an independent Gauss-Legendre implementation
    for n in (8, 64, 129):
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        x, w = gauss_legendre(n)
        np.testing.assert_allclose(np.sort(x), x_ref, atol=1e-14)
        np.testing.assert_allclose(w[np.argsort(x)], w_ref, atol=1e-13)


def test_gauss_legendre_is_solved_once_per_n_and_read_only():
    for n in (2, 32, 320):
        x, w = gauss_legendre(n)
        fresh_x, fresh_w = gauss_legendre.__wrapped__(n)
        assert x.tobytes() == fresh_x.tobytes()
        assert w.tobytes() == fresh_w.tobytes()
        again = gauss_legendre(n)
        assert again[0] is x and again[1] is w
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        grid = make_gaussian_grid(n, 2 * n)
        assert grid.quad_weights is w
    with pytest.raises(ValueError):
        gauss_legendre(0)
    # the grid is not cached: a narrow one warns on every call
    for _ in range(3):
        with pytest.warns(UserWarning, match="zonal resolution"):
            make_gaussian_grid(16, 16)


def test_quadrature_integrates_legendre_polynomials_exactly():
    # exactness for P_k(sin lat) up to k = 2 n_lat - 1
    n = 16
    g = make_gaussian_grid(n, 32)
    x = np.sin(np.radians(g.latitudes))
    for k in range(2 * n):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        vals = np.polynomial.legendre.legval(x, coeffs)
        integral = np.sum(g.quad_weights * vals)
        expect = 2.0 if k == 0 else 0.0
        assert abs(integral - expect) < 1e-12, f"P_{k}"


def test_grid_construction_is_deterministic():
    a = make_gaussian_grid(64, 128)
    b = make_gaussian_grid(64, 128)
    assert np.array_equal(a.latitudes, b.latitudes)
    assert np.array_equal(a.quad_weights, b.quad_weights)
    assert np.array_equal(a.longitudes, b.longitudes)


def test_metric_weights_unit_mean():
    for g in (make_gaussian_grid(16, 32), make_gaussian_grid(64, 128),
              make_equiangular_grid(7, 12), make_equiangular_grid(180, 360)):
        w = metric_weights(g)
        assert abs(w.mean() - 1.0) <= 1e-14


def test_metric_weights_proportional_to_cos():
    g = make_equiangular_grid(4, 8)
    w = metric_weights(g)
    cos = np.cos(np.radians(g.latitudes))
    np.testing.assert_allclose(w / cos, w[0] / cos[0], rtol=1e-14)
    np.testing.assert_array_equal(w, cos / cos.mean())


def test_single_equator_latitude_weight_is_one():
    np.testing.assert_allclose(cosine_weights(np.array([0.0])), [1.0],
                               atol=1e-15)


def test_n320_max_weight_nearest_equator():
    g = make_gaussian_grid(640, 1280)
    w = metric_weights(g)
    top = set(np.argsort(w)[-2:])
    assert top == {319, 320}


def test_gaussian_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_gaussian_grid(15, 32)        # odd n_lat
    with pytest.raises(ValueError):
        make_gaussian_grid(16, 31)        # odd n_lon
    with pytest.raises(ValueError):
        make_gaussian_grid(0, 8)
    with pytest.warns(UserWarning):
        make_gaussian_grid(16, 16)        # n_lon below 2 n_lat


def test_equiangular_excludes_poles():
    g = make_equiangular_grid(90, 180)
    assert np.all(np.abs(g.latitudes) < 90.0)
    assert g.quad_weights is None


def test_longitudes_uniform_from_origin():
    g = make_gaussian_grid(8, 16, lon_origin=10.0)
    np.testing.assert_allclose(np.diff(g.longitudes), 360.0 / 16, atol=1e-12)
    assert g.longitudes[0] == 10.0


def test_field_validation():
    g = make_gaussian_grid(4, 8)
    with pytest.raises(ValueError):
        Field(grid=g, values=np.zeros((3, 8)), variable="T")
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(grid=g, values=bad, variable="T")
    # NaN allowed with an explicit mask
    mask = np.isnan(bad)
    Field(grid=g, values=bad, variable="T", mask=mask)
    f = Field(grid=g, values=np.zeros(g.shape), variable="T")
    assert f.units == "K"
    assert Field(grid=g, values=np.zeros(g.shape), variable="Q").units == "kg kg-1"


def test_field_series_validation():
    g = make_gaussian_grid(4, 8)
    times = [T0, T0 + timedelta(hours=6), T0 + timedelta(hours=18)]
    with pytest.raises(ValueError, match="shape"):
        FieldSeries(g, "T", "single", times, np.zeros((2, 4, 8)))
    with pytest.raises(ValueError, match="strictly increasing"):
        FieldSeries(g, "T", "single", [T0, T0], np.zeros((2, 4, 8)))
    # an uneven step is a valid time axis
    s = FieldSeries(g, "T", "single", times, np.zeros((3, 4, 8)))
    assert (s.key, len(s), s.units) == (("T", "single"), 3, "K")
