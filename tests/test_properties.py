"""Property tests of the container writer and reader, the blocked
normalize, the stacked analysis and synthesis, the power spectrum against
the analysis (whole or a block of orders at a time), the padding and
filters on stacks, the filters and clamp writing in place, the stacked
verification scores, the bootstrap interval, the additivity of solar
windows, any solar window against its minute-by-minute stack and the
merge of a config file with the flags.

Examples are derandomized, so every run checks the same cases.
"""

import json
import tempfile
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spherecast import cli, container, filters, sht, solar
from spherecast.cli import main
from spherecast.filters import (DiffusionSpec, PoleFilterSpec,
                                diffuse_values, diffusion_stability_bound,
                                latitude_cell_measures, pole_filter_values)
from spherecast.container import (ContainerError, container_writer,
                                  read_container, write_container)
from spherecast.grid import (FieldSeries, make_equiangular_grid,
                             make_gaussian_grid, metric_weights)
from spherecast.padding import PadSpec, pad, unpad
from spherecast.preprocess import (Climatology, NormStats, StatEntry,
                                   clamp_nonnegative_values, denormalize,
                                   normalize)
from spherecast.sht import HarmonicCoeffs, SphericalHarmonicTransform
from spherecast.solar import SolarConfig, accumulated_irradiance
from conftest import stacked_window
from spherecast.verify import (ForecastSet, _per_init, acc_field,
                               bootstrap_mean, rmse_field)

settings.register_profile(
    "derandomized", derandomize=True, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
DERANDOMIZED = settings.get_profile("derandomized")

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


@st.composite
def collections(draw, min_times=0):
    """A list of FieldSeries on one grid and time axis, of any shape,
    with values that include ones an f32 cast must round."""
    n_lat = 2 * draw(st.integers(1, 5))
    n_lon = 2 * draw(st.integers(2, 8))
    if draw(st.booleans()):
        grid = make_gaussian_grid(n_lat, max(n_lon, 2 * n_lat))
    else:
        grid = make_equiangular_grid(n_lat, n_lon)
    n_time = draw(st.sampled_from([n for n in (0, 1, 2, 7) if n >= min_times]))
    n_var = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-30, 30))
    times = [T0 + timedelta(hours=6 * k) for k in range(n_time)]
    return [FieldSeries(grid, f"V{j}", draw(st.sampled_from(["single", "500"])),
                        times, rng.normal(size=(n_time,) + grid.shape) * scale,
                        units=f"u{j}")
            for j in range(n_var)]


@contextmanager
def _tmpdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def _payload(path):
    raw = path.read_bytes()
    return raw[8 + int.from_bytes(raw[:8], "little"):]


@settings(DERANDOMIZED)
@given(collections(), st.sampled_from(["f32", "f64"]))
def test_write_of_read_is_byte_identical(series, dtype):
    with _tmpdir() as tmp:
        first = tmp / "a.gvf"
        write_container(series, first, dtype=dtype, attrs={"k": [1, "x"]})
        c = read_container(first)
        again = tmp / "b.gvf"
        write_container([c.series(*key) for key in c.keys], again,
                        dtype=c.dtype_name, attrs=c.attrs)
        assert again.read_bytes() == first.read_bytes()
        # rows read in the file's dtype write the same bytes
        with container_writer(again, c.grid, c.variables, c.times,
                              dtype=c.dtype_name, attrs=c.attrs) as write:
            write([c.read(slice(None), key, np.empty(
                (len(c.times),) + c.grid.shape, c.dtype)) for key in c.keys])
        assert again.read_bytes() == first.read_bytes()


def _good_container() -> bytes:
    """The bytes of a small valid GVF1 file: two times of two variables."""
    grid = make_gaussian_grid(4, 8)
    times = [T0, T0 + timedelta(hours=6)]
    with _tmpdir() as tmp:
        write_container([FieldSeries(grid, name, "single", times,
                                     np.arange(64.0).reshape(2, 4, 8))
                         for name in ("T", "Q")],
                        tmp / "good.gvf", attrs={"note": "x"})
        return (tmp / "good.gvf").read_bytes()


_GOOD = _good_container()
_HEADER_END = 8 + int.from_bytes(_GOOD[:8], "little")

# JSON values that may replace any part of a header; numbers stay small,
# so that no grid it names is costly to build if the payload matches it
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70)
    | st.floats(-1e3, 1e3) | st.sampled_from(
        ["", "GVF1", "f32", "f64", "gaussian", "equiangular", "T", "single",
         "2021-01-01T00:00:00Z", "2021-13-01T00:00:00Z"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "kind", "n_lat", "x"]), inner,
                      max_size=3),
    max_leaves=6)


def _mutated_header(data) -> bytes:
    """The good file with one part of its JSON header replaced by another
    JSON value, or deleted, and the length prefix fixed to match."""
    header = json.loads(_GOOD[8:_HEADER_END])
    parent, key = None, None
    node = header
    while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.booleans())):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        header = data.draw(_JSON)
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        values = _JSON
        if type(node) is int:
            values |= st.just(float(node))
        parent[key] = data.draw(values)
    return _with_header(header)


def _regridded_header(data) -> bytes:
    """The good file with its grid of either kind, and its n_lat or n_lon
    made a float, or a size far beyond the payload; the length prefix
    fixed."""
    header = json.loads(_GOOD[8:_HEADER_END])
    grid = header["grid"]
    grid["kind"], size, value = data.draw(st.sampled_from([
        (kind, size, value) for kind in ("gaussian", "equiangular")
        for size, value in (("n_lat", float(grid["n_lat"])),
                            ("n_lon", float(grid["n_lon"])),
                            ("n_lat", 16000), ("n_lon", 16000))]))
    grid[size] = value
    return _with_header(header)


def _with_header(header) -> bytes:
    """The good file's payload under this JSON header."""
    raw = json.dumps(header).encode()
    return len(raw).to_bytes(8, "little") + raw + _GOOD[_HEADER_END:]


@settings(DERANDOMIZED, max_examples=100)
@given(st.sampled_from(["truncate", "flip", "mutate", "regrid"]), st.data())
def test_a_damaged_header_raises_a_container_error_naming_the_file(
        damage, data):
    # truncation anywhere always raises; a flipped byte or a changed JSON
    # value may leave a valid header (a renamed variable, say), which must
    # then read whole
    if damage == "truncate":
        blob = _GOOD[:data.draw(st.integers(0, len(_GOOD) - 1))]
    elif damage == "flip":
        blob = bytearray(_GOOD)
        for at in data.draw(st.lists(st.integers(0, _HEADER_END - 1),
                                     min_size=1, max_size=3)):
            blob[at] ^= data.draw(st.integers(1, 255))
        blob = bytes(blob)
    elif damage == "mutate":
        blob = _mutated_header(data)
    else:
        blob = _regridded_header(data)
    with _tmpdir() as tmp:
        path = tmp / "damaged.gvf"
        path.write_bytes(blob)
        try:
            c = read_container(path)
        except ContainerError as exc:
            assert str(path) in str(exc)
            return
        assert damage != "truncate"
        block = c.read(slice(None))
        assert block.shape == ((len(c.times), len(c.keys)) + c.grid.shape)
        for key in c.keys:
            assert c.series(*key).values.shape == (len(c.times),) + c.grid.shape


@settings(DERANDOMIZED)
@given(collections(), st.sampled_from(["f32", "f64"]), st.data())
def test_row_wise_payload_equals_whole_stack(series, dtype, data):
    times = series[0].times
    expect = (np.stack([s.values for s in series], axis=1)
              .astype({"f32": "<f4", "f64": "<f8"}[dtype]).tobytes()
              if times else b"")
    # the same payload, however the times are split into blocks
    cuts = sorted(data.draw(st.lists(st.integers(0, len(times)), max_size=3)))
    bounds = [0] + cuts + [len(times)]
    with _tmpdir() as tmp:
        whole, blocked = tmp / "whole.gvf", tmp / "blocked.gvf"
        write_container(series, whole, dtype=dtype)
        with container_writer(blocked, series[0].grid,
                              [(s.variable, s.level, s.units) for s in series],
                              times, dtype=dtype) as write:
            for a, b in zip(bounds, bounds[1:]):
                write([s.values[a:b] for s in series])
        assert _payload(whole) == expect
        assert blocked.read_bytes() == whole.read_bytes()


def _overflows_f32(series) -> bool:
    """Whether a finite value of any series becomes inf as an f32."""
    with np.errstate(over="ignore"):
        return any((np.isinf(s.values.astype(np.float32))
                    & np.isfinite(s.values)).any() for s in series)


# values of 1e30 denormalize to some of 1e60, beyond the f32 range
_HUGE = [FieldSeries(make_equiangular_grid(2, 4), "V0", "single",
                     [T0, T0 + timedelta(hours=6)],
                     np.random.default_rng(0).normal(size=(2, 2, 4)) * 1e30,
                     units="u0")]


@settings(DERANDOMIZED)
@given(collections(min_times=2), st.sampled_from(["f32", "f64"]),
       st.integers(1, 3))
@example(_HUGE, "f32", 1)
def test_blocked_normalize_equals_whole_array(series, dtype, block_rows):
    grid = series[0].grid
    saved = container._BLOCK_BYTES
    # blocks of block_rows times over every variable
    container._BLOCK_BYTES = (block_rows * 8 * len(series) * grid.n_lat
                              * grid.n_lon)
    try:
        with _tmpdir() as tmp:
            inp, stats = tmp / "in.gvf", tmp / "stats.json"
            write_container(series, inp, dtype=dtype, attrs={"src": "x"})
            assert main(["stats", "--input", str(inp),
                         "--output", str(stats)]) == 0
            c = read_container(inp)
            norm_stats = NormStats.from_json(stats)
            for name, transform, units in (("normalize", normalize, "1"),
                                           ("denormalize", denormalize, None)):
                out, ref = tmp / f"{name}.gvf", tmp / f"{name}.ref.gvf"
                expect = [FieldSeries(grid, var, lev, c.times, transform(
                              c.series(var, lev).values, norm_stats, var, lev),
                                      units=units or u)
                          for var, lev, u in c.variables]
                code = main([name, "--input", str(inp), "--stats", str(stats),
                             "--output", str(out)])
                if dtype == "f32" and _overflows_f32(expect):
                    assert code == 3 and not out.exists()
                    continue
                assert code == 0
                write_container(expect, ref, dtype=dtype, attrs=c.attrs)
                assert out.read_bytes() == ref.read_bytes()
    finally:
        container._BLOCK_BYTES = saved


@settings(DERANDOMIZED)
@given(collections(min_times=1), st.floats(-1.0, 1.0), st.floats(1.0, 10.0),
       st.floats(0.1, 10.0), st.integers(-30, 30), st.integers(-30, 30))
def test_denormalize_of_normalize_is_within_a_few_ulp(
        series, mu, sigma, xi, mu_exponent, sigma_exponent):
    mu, sigma = mu * 10.0 ** mu_exponent, sigma * 10.0 ** sigma_exponent
    x, key = series[0].values, series[0].key
    stats = NormStats(entries={key: StatEntry(mu, sigma, xi)})
    back = denormalize(normalize(x, stats, *key), stats, *key)
    # four roundings, each within half an ulp of |x - mu| or |x| + |mu|
    bound = 4 * np.finfo(np.float64).eps * (np.abs(x) + abs(mu))
    assert (np.abs(back - x) <= bound).all()
    # in place, as the CLI's row loop runs them, it gives the same bits
    values = x.copy()
    normalize(values, stats, *key, out=values)
    denormalize(values, stats, *key, out=values)
    assert values.tobytes() == back.tobytes()


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


# The bit-for-bit claim was checked with OpenBLAS (0.3, Haswell kernels),
# whose gemv sums a field's columns alike in any whole group of four; on
# another BLAS only the transform's documented agreement is asserted.
_EXACT_SPLITS = "openblas" in _blas_name()


def _same_coefficients(a, b) -> bool:
    if _EXACT_SPLITS:
        return np.array_equal(a, b)
    return np.allclose(a, b, rtol=0, atol=1e-15 * max(np.abs(b).max(), 1e-300))


@settings(DERANDOMIZED)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_any_split_of_a_stack_gives_the_same_coefficients(
        half_lat, extra_lon, seed, data):
    n_lat = 2 * half_lat
    grid = make_gaussian_grid(n_lat, 2 * n_lat + 2 * extra_lon)
    l_max = data.draw(st.integers(0, n_lat - 1))
    transform = SphericalHarmonicTransform(grid, l_max)
    n = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(n,) + grid.shape) * 10.0 ** rng.integers(-5, 6)
    whole = transform.analyze(stack).values
    cuts = sorted(data.draw(st.lists(st.integers(1, n), max_size=3)))
    bounds = [0] + cuts + [n]
    passes = [transform.analyze(stack[a:b]).values
              for a, b in zip(bounds, bounds[1:]) if b > a]
    assert _same_coefficients(np.concatenate(passes), whole)
    # and each field alone, the stack as (time, variable) rows, and the
    # stack in float32 against its float64 values
    assert all(_same_coefficients(transform.analyze(stack[i]).values,
                                  whole[i]) for i in range(n))
    if n % 3 == 0:
        rows = transform.analyze(stack.reshape((n // 3, 3) + grid.shape))
        assert _same_coefficients(rows.values.reshape(whole.shape), whole)
    # Fourier transformed in chunks of any size, the fold is the same
    saved = sht._FFT_BYTES
    sht._FFT_BYTES = data.draw(st.integers(1, n)) * 16 * grid.n_lat * grid.n_lon
    try:
        assert np.array_equal(transform.analyze(stack).values, whole)
    finally:
        sht._FFT_BYTES = saved
    single = stack.astype(np.float32)
    assert np.array_equal(transform.analyze(single).values,
                          transform.analyze(single.astype(np.float64)).values)


@settings(DERANDOMIZED)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([np.float32, np.float64]), st.data())
def test_the_power_spectrum_sums_the_power_of_analyze(
        half_lat, extra_lon, seed, dtype, data):
    # the power path reduces each chunk of degrees as it is made; it must
    # give the bits of squaring analyze's coefficients and summing over l
    n_lat = 2 * half_lat
    grid = make_gaussian_grid(n_lat, 2 * n_lat + 2 * extra_lon)
    l_max = data.draw(st.integers(0, n_lat - 1))
    n = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(seed)
    stack = (rng.normal(size=(n,) + grid.shape)
             * 10.0 ** rng.integers(-5, 6)).astype(dtype)
    want = np.square(np.abs(sht.analyze(stack, l_max, grid).values)).sum(-2)
    want[..., 1:] *= 2.0
    saved = sht._FFT_BYTES, sht._DEGREE_BYTES, sht._KEEP_BYTES
    sht._FFT_BYTES = data.draw(st.integers(1, n)) * 16 * grid.n_lat * grid.n_lon
    sht._DEGREE_BYTES = data.draw(st.integers(1, l_max + 1)) * 16 * (
        l_max + 1) * n
    sht._KEEP_BYTES = data.draw(st.sampled_from([0, sht._KEEP_BYTES]))
    try:
        # twice, the second time in the work arrays the first one kept
        for _ in range(2):
            got = sht.zonal_power_spectrum(stack, l_max, grid).power
            assert _same_coefficients(got, want)
    finally:
        sht._FFT_BYTES, sht._DEGREE_BYTES, sht._KEEP_BYTES = saved


@settings(DERANDOMIZED)
@given(st.integers(1, 16), st.integers(0, 3),
       st.sampled_from([-101.0, 7.5, 13.3, 97.5]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_the_power_spectrum_in_blocks_of_orders_sums_the_power_of_analyze(
        half_lat, extra_lon, lon_origin, seed, data):
    # a pass whose fold exceeds _FOLD_BYTES folds and sums a block of
    # orders at a time; for any budget, odd and even stacks, a shifted
    # longitude origin and the Legendre table kept or streamed, the bits
    # are those of analyze's |a|^2 summed over l
    n_lat = 2 * half_lat
    grid = make_gaussian_grid(n_lat, 2 * n_lat + 2 * extra_lon,
                              lon_origin=lon_origin)
    l_max = n_lat - 1 - data.draw(st.integers(0, n_lat - 1))
    n = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(n,) + grid.shape) * 10.0 ** rng.integers(
        -5, 6, size=(n, 1, 1))
    saved = sht._FOLD_BYTES, sht._TABLE_BYTES
    sht._TABLE_BYTES = data.draw(st.sampled_from([0, sht._TABLE_BYTES]))
    try:
        transform = SphericalHarmonicTransform(grid, l_max)
        want = np.square(np.abs(transform.analyze(stack).values)).sum(-2)
        want[..., 1:] *= 2.0
        # one order a block sums along a contiguous axis: drawn often
        orders = data.draw(st.sampled_from([1, 2]) | st.integers(1, l_max + 1))
        sht._FOLD_BYTES = orders * 8 * half_lat * (4 * (n + n % 2) + 3)
        blocks = transform._blocks(n)
        assert max(m1 - m0 for m0, m1 in blocks) <= orders
        assert transform.power_spectrum(stack).tobytes() == want.tobytes()
    finally:
        sht._FOLD_BYTES, sht._TABLE_BYTES = saved


@settings(DERANDOMIZED)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_stacked_synthesize_equals_per_field_calls(half_lat, extra_lon, seed,
                                                   data):
    n_lat = 2 * half_lat
    grid = make_gaussian_grid(n_lat, 2 * n_lat + 2 * extra_lon)
    l_max = data.draw(st.integers(0, n_lat - 1))
    transform = SphericalHarmonicTransform(grid, l_max)
    shape = data.draw(st.sampled_from([(1,), (2,), (5,), (2, 3)]))
    rng = np.random.default_rng(seed)
    size = shape + (l_max + 1, l_max + 1)
    a = np.tril(rng.normal(size=size) + 1j * rng.normal(size=size))
    a[..., 0] = a[..., 0].real
    whole = transform.synthesize(HarmonicCoeffs(a, l_max))
    assert whole.shape == shape + grid.shape
    for i in np.ndindex(shape):
        one = transform.synthesize(HarmonicCoeffs(a[i], l_max))
        assert np.array_equal(whole[i], one)


@st.composite
def grids(draw):
    n_lat = 2 * draw(st.integers(1, 5))
    n_lon = 2 * draw(st.integers(2, 9))
    if draw(st.booleans()):
        return make_gaussian_grid(n_lat, max(n_lon, 2 * n_lat))
    return make_equiangular_grid(n_lat, n_lon)


@st.composite
def pad_specs(draw, n_lat, n_lon):
    mode = draw(st.sampled_from(["rotate_reflect", "reflect_only"]
                                if n_lon % 2 == 0 else ["reflect_only"]))
    return PadSpec(draw(st.integers(0, n_lat)),
                   draw(st.integers(0, n_lon // 2)), mode)


def _stack(data, grid):
    """0 to 3 fields in each of up to two leading axes, on grid."""
    lead = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=lead + grid.shape) * 10.0 ** rng.integers(-5, 6)


def _same_as_per_field(op, stack):
    out = op(stack)
    assert out.shape[:-2] == stack.shape[:-2]
    for i in np.ndindex(stack.shape[:-2]):
        assert out[i].tobytes() == op(stack[i]).tobytes()


@settings(DERANDOMIZED)
@given(grids(), st.data())
def test_operators_on_a_stack_equal_per_field_calls(grid, data):
    stack = _stack(data, grid)
    spec = data.draw(pad_specs(grid.n_lat, grid.n_lon))
    _same_as_per_field(lambda x: pad(x, spec), stack)
    bound = diffusion_stability_bound(grid)
    diffusion = DiffusionSpec(data.draw(st.floats(0.0, bound)),
                              data.draw(st.integers(0, 3)))
    _same_as_per_field(lambda x: diffuse_values(x, grid, diffusion), stack)
    pole = PoleFilterSpec(data.draw(st.floats(1.0, 89.0)),
                          data.draw(st.none() | st.floats(1.0, 89.0)))
    _same_as_per_field(lambda x: pole_filter_values(x, grid, pole), stack)


@settings(DERANDOMIZED)
@given(st.integers(1, 12), st.integers(1, 24), st.data())
def test_unpad_of_pad_is_the_input(n_lat, n_lon, data):
    lead = tuple(data.draw(st.lists(st.integers(0, 3), max_size=1)))
    x = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(
        size=lead + (n_lat, n_lon))
    spec = data.draw(pad_specs(n_lat, n_lon))
    padded = pad(x, spec)
    assert padded.shape == lead + (n_lat + 2 * spec.pad_ns,
                                   n_lon + 2 * spec.pad_ew)
    assert unpad(padded, spec).tobytes() == x.tobytes()


def _whole_array_diffusion(values, grid, spec):
    """The diffusion steps as whole-array formulas, as they were written
    before the banded in-place sweep; the sweep must give these bits."""
    theta = np.radians(90.0 - grid.latitudes)
    sin_t = np.sin(theta)
    measures = latitude_cell_measures(grid)
    half_sin = np.sin(0.5 * (theta[:-1] + theta[1:]))
    dtheta = np.diff(theta)
    dlam = 2.0 * np.pi / grid.n_lon
    f = np.array(values, dtype=np.float64)
    flux = np.zeros(f.shape[:-2] + (grid.n_lat + 1, grid.n_lon))
    for _ in range(spec.steps):
        flux[..., 1:-1, :] = (half_sin[:, None] * np.diff(f, axis=-2)
                              / dtheta[:, None])
        merid = np.diff(flux, axis=-2) / measures[:, None]
        zonal = (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) \
            / (sin_t[:, None] ** 2 * dlam ** 2)
        f = f + spec.nu_dt * (merid + zonal)
    return f


def _every_out(op, values):
    """The bytes of op(values, out) for out None, values' own copy (in
    place) and a separate array; values is left as it was."""
    before = values.tobytes()
    own = values.copy()
    separate = np.full_like(values, np.nan)
    results = [op(values, None), op(own, own), op(values, separate)]
    assert results[1] is own and results[2] is separate
    assert values.tobytes() == before
    return {r.tobytes() for r in results}


@settings(DERANDOMIZED)
@given(grids(), st.data())
def test_filters_and_clamp_give_one_result_for_every_out(grid, data):
    stack = _stack(data, grid)
    bound = diffusion_stability_bound(grid)
    diffusion = DiffusionSpec(data.draw(st.floats(0.0, bound)),
                              data.draw(st.integers(0, 3)))
    expect = {_whole_array_diffusion(stack, grid, diffusion).tobytes()}
    saved = filters._BAND_BYTES
    try:
        # bands of one row, of three (rarely a divisor of n_lat), of all
        # rows but one, of every row, and wider than the grid
        for rows in {1, 3, grid.n_lat - 1, grid.n_lat, grid.n_lat + 5} - {0}:
            filters._BAND_BYTES = rows * 8 * grid.n_lon
            assert _every_out(lambda x, out: diffuse_values(
                x, grid, diffusion, out=out), stack) == expect
    finally:
        filters._BAND_BYTES = saved
    pole = PoleFilterSpec(data.draw(st.floats(1.0, 89.0)))
    assert len(_every_out(lambda x, out: pole_filter_values(
        x, grid, pole, out=out), stack)) == 1
    floor = data.draw(st.sampled_from([0.0, 1e-8, 0.5]))
    assert _every_out(lambda x, out: clamp_nonnegative_values(
        x, floor, out=out), stack) == {
            np.where(stack < floor, floor, stack).tobytes()}


# The per-field reference: each score of one (n_lat, n_lon) field with
# Python-float arithmetic, which the stacked scores must match bit for bit.

def _field_mean(x, w):
    return float(np.mean(np.multiply(w[:, None], x)))


def _field_rmse(f, o, w):
    return float(np.sqrt(_field_mean((f - o) * (f - o), w)))


def _field_acc(fa, oa, w):
    cov = _field_mean(fa * oa, w)
    den = float(np.sqrt(_field_mean(fa * fa, w))
                * np.sqrt(_field_mean(oa * oa, w)))
    if den == 0.0:
        if cov == 0.0:
            return 0.0
        raise ZeroDivisionError("zero weighted variance with nonzero covariance")
    return cov / den


def _field_skill(f, o, c, w):
    mse_c = _field_mean((c - o) * (c - o), w)
    if mse_c == 0.0:
        raise ZeroDivisionError("zero MSE of the climatology")
    return 1.0 - _field_mean((f - o) * (f - o), w) / mse_c


def _per_field(fn, *stacks):
    """fn of each field of the stacks, as float64 bytes; or the first
    error it raises."""
    try:
        return np.array([fn(*fields) for fields in zip(*stacks)]).tobytes()
    except ZeroDivisionError as exc:
        return exc


def _stacked(fn, *args):
    try:
        return np.asarray(fn(*args), dtype=np.float64).tobytes()
    except ZeroDivisionError as exc:
        return exc


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def _scored_forecast_set(directory, grid, start, f, o, c):
    """A ForecastSet of one init at start, written to directory, whose
    leads are the rows of f, verified against o, with the climatology bins
    of their times c."""
    times = [start + timedelta(hours=6 * k) for k in range(len(f))]
    key = ("T", "single")
    clim = Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                       std_days=10.0, data={key: np.zeros((365, 4) + grid.shape)})
    flat = clim.data[key].reshape((-1,) + grid.shape)
    for t, field in zip(times, c):
        flat[clim.row(t)] = field
    path = directory / "init.gvf"
    write_container([FieldSeries(grid, "T", "single", times, f)], path,
                    dtype="f64",
                    attrs={"init_time": container._format_time(start)})
    target = directory / "target.gvf"
    write_container([FieldSeries(grid, "T", "single", times, o)], target,
                    dtype="f64")
    return ForecastSet([path], read_container(target), climatology=clim)


@settings(DERANDOMIZED)
@given(grids(), st.data())
def test_stacked_scores_equal_per_field_scores(grid, data):
    n = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** data.draw(st.integers(-30, 30))
    f, o, c = (rng.normal(size=(n,) + grid.shape) * scale for _ in range(3))
    # climatology forecasts: zero anomaly, so an ACC of 0/0 -> 0
    for i in data.draw(st.sets(st.integers(0, n - 1))):
        f[i] = c[i]
    # a zero climatology MSE, for which the skill score raises
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=1)):
        o[i] = c[i]
    # an anomaly whose square underflows: zero variance, nonzero covariance
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, n - 1))
        f[i], o[i], c[i] = 1e-200 * f[i] / scale, 1e100 * o[i] / scale, 0.0
    w = metric_weights(grid)

    assert _same(_stacked(rmse_field, f, o, w), _per_field(
        lambda *x: _field_rmse(*x, w), f, o))
    fa, oa = f - c, o - c
    assert _same(_stacked(acc_field, fa, oa, w), _per_field(
        lambda *x: _field_acc(*x, w), fa, oa))

    # the same scores through ForecastSet, one stack per run of leads; a
    # start of 31 Dec 12Z wraps the climatology bins to 1 Jan
    start = data.draw(st.sampled_from([T0, T0 - timedelta(hours=12)]))
    cells = [(("T", "single"), 6 * k) for k in range(n)]
    with _tmpdir() as tmp:
        fs = _scored_forecast_set(tmp, grid, start, f, o, c)
        for metric, expect in (
                ("rmse", _per_field(lambda *x: _field_rmse(*x, w), f, o)),
                ("acc", _per_field(lambda *x: _field_acc(*x, w), fa, oa)),
                ("skill",
                 _per_field(lambda *x: _field_skill(*x, w), f, o, c))):
            try:
                scored = _per_init(fs, cells, [metric])
                got = np.concatenate([scored[cell][1][metric]
                                      for cell in cells]).tobytes()
            except ZeroDivisionError as exc:
                got = exc
            assert _same(got, expect), metric
            if metric == "skill" and isinstance(got, Exception):
                first = min(i for i in range(n) if (o[i] == c[i]).all())
                when = start + timedelta(hours=6 * first)
                assert str(got) == ("MSE of the climatology reference is zero "
                                    f"for T (single) at {when.isoformat()}")
            if metric == "acc" and isinstance(got, Exception):
                assert str(got) == str(expect)


@settings(DERANDOMIZED)
@given(st.one_of(
           st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=60),
           st.builds(lambda x, n: [x] * n, st.floats(-1e12, 1e12),
                     st.integers(1, 60))),
       st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_the_bootstrap_interval_brackets_its_mean(values, n_boot, seed):
    s = bootstrap_mean(np.array(values), n_boot, seed)
    assert s.ci_low <= s.mean <= s.ci_high
    assert s.n == len(values) and s.n_boot == n_boot


_SOLAR_GRID = make_gaussian_grid(4, 8)
# a table whose 13-year cycle wraps inside the supported years
_GSC_TABLE = {y: 1360.0 + 0.3 * (y - 1979) for y in range(1979, 1996)}
_SOLAR_EPOCH = datetime(1979, 1, 1, tzinfo=timezone.utc)
_SOLAR_MINUTES = int((datetime(2031, 1, 1, tzinfo=timezone.utc)
                      - _SOLAR_EPOCH).total_seconds() // 60)


@settings(DERANDOMIZED)
@given(st.one_of(
           st.integers(0, _SOLAR_MINUTES).map(
               lambda k: _SOLAR_EPOCH + timedelta(minutes=k)),
           # windows that cross a year end or run through a 29 February
           st.builds(lambda y, m: datetime(y, 12, 31, 18, tzinfo=timezone.utc)
                     + timedelta(minutes=m),
                     st.integers(1979, 2030), st.integers(0, 359)),
           st.builds(lambda y, m: datetime(y, 2, 28, 20, tzinfo=timezone.utc)
                     + timedelta(minutes=m),
                     st.sampled_from([1980, 2000, 2020, 2024]),
                     st.integers(0, 1600))),
       st.booleans())
@example(datetime(2020, 12, 31, 21, tzinfo=timezone.utc), True)
@example(datetime(2020, 2, 29, 21, 30, tzinfo=timezone.utc), False)
def test_a_six_hour_window_is_the_sum_of_its_hours(start, table):
    config = SolarConfig(gsc_table=_GSC_TABLE if table else None)
    six = accumulated_irradiance(start, 6, _SOLAR_GRID, config)
    total = accumulated_irradiance(start, 1, _SOLAR_GRID, config)
    for h in range(1, 6):
        total = total + accumulated_irradiance(start + timedelta(hours=h), 1,
                                               _SOLAR_GRID, config)
    assert six.tobytes() == total.tobytes()


@settings(DERANDOMIZED, max_examples=20)  # the oracle is a minute at a time
@given(st.integers(0, 365 * 1440 - 1), st.sampled_from([1, 6]),
       st.booleans(), st.integers(1, 6), st.integers(2, 16),
       st.floats(-180.0, 180.0), st.booleans(), st.sampled_from([1, 2560]))
@example(0, 6, True, 2, 4, 0.0, False, 2560)       # the year's first minute
@example(365 * 1440 - 1, 6, False, 5, 8, 97.25, True, 1)  # into the next year
def test_any_window_of_a_year_equals_the_minute_stack(minute, hours, gaussian,
                                                      half_lat, half_lon,
                                                      origin, table, cells):
    # rows of polar day and night, arcs across column 0 and arcs of two
    # columns all come up over the starts, sizes and longitude origins;
    # cells = 1 sums a row at a time, as on a grid wider than _ROW_CELLS
    if gaussian:
        grid = make_gaussian_grid(2 * half_lat, max(2 * half_lon, 4 * half_lat),
                                  lon_origin=origin)
    else:
        grid = make_equiangular_grid(2 * half_lat, 2 * half_lon,
                                     lon_origin=origin)
    start = datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(
        minutes=minute)
    config = SolarConfig(gsc_table=_GSC_TABLE if table else None)
    saved = solar._ROW_CELLS
    solar._ROW_CELLS = cells
    try:
        got = accumulated_irradiance(start, hours, grid, config)
    finally:
        solar._ROW_CELLS = saved
    assert got.tobytes() == stacked_window(start, hours, grid,
                                           config).tobytes()


def _flag_values(prm):
    """The values the flag of cli parameter prm can give, and None."""
    if isinstance(prm.kind, list):
        values = st.sampled_from(prm.kind)
    elif prm.kind is bool:
        values = st.booleans()
    elif prm.kind is int:
        values = st.integers(-10 ** 12, 10 ** 12)
    elif prm.kind is float:
        values = st.floats(allow_nan=False, allow_infinity=False)
    else:
        values = st.text()
    return st.none() | values


@st.composite
def _config_values(draw):
    """(subcommand, parameter, value) for one value of one flag."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    prm = draw(st.sampled_from(cli._COMMANDS[name][2]))
    return name, prm, draw(_flag_values(prm))


@settings(DERANDOMIZED, max_examples=200)
@given(_config_values())
def test_a_config_value_merges_as_its_flag_does(case):
    # a value that _merge_config accepts from a config file gives the
    # parameters its flag gives; null leaves the default, as no flag does
    name, prm, value = case
    flag = "--" + prm.name.replace("_", "-")
    if value is None or prm.kind is bool and value == bool(prm.default):
        argv = []
    elif prm.kind is bool:
        argv = [flag if value else "--no-" + flag[2:]]
    else:
        argv = [f"{flag}={value!r}" if prm.kind is float else f"{flag}={value}"]
    parser = cli.build_parser()
    with _tmpdir() as tmp:
        path = tmp / "config.json"
        path.write_text(json.dumps({prm.name: value}))
        from_config = cli._merge_config(parser.parse_args(
            [name, "--config", str(path)]))
    from_flag = cli._merge_config(parser.parse_args([name] + argv))
    assert ([(k, type(v), v) for k, v in sorted(from_config.items())]
            == [(k, type(v), v) for k, v in sorted(from_flag.items())])
