import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherecast import container
from spherecast.container import (ContainerError, ScoreRecord, read_container,
                                  read_scores, write_container, write_scores)
from conftest import fail_writes_after, make_series


def _random_collection(grid, seed=0, n_time=3):
    return {
        ("T", "L10"): make_series(grid, "T", "L10", n_time=n_time, seed=seed),
        ("Q", "L10"): make_series(grid, "Q", "L10", n_time=n_time, seed=seed + 1),
        ("SP", "single"): make_series(grid, "SP", "single", n_time=n_time,
                                      seed=seed + 2),
    }


def test_round_trip_preserves_everything(tmp_path, grid16):
    src = _random_collection(grid16, seed=3)
    path = tmp_path / "data.gvf"
    write_container(src, path, dtype="f64")
    c = read_container(path)
    assert c.grid == grid16
    assert c.keys == list(src.keys())
    for key, series in src.items():
        back = c.series(*key)
        assert back.times == series.times
        assert back.units == series.units
        assert np.array_equal(back.values, series.values)


def test_f32_round_trip_bit_exact_after_first_write(tmp_path, grid16):
    src = _random_collection(grid16, seed=4)
    p1, p2 = tmp_path / "a.gvf", tmp_path / "b.gvf"
    write_container(src, p1, dtype="f32")
    c1 = read_container(p1)
    write_container({k: c1.series(*k) for k in c1.keys}, p2, dtype="f32",
                    attrs=c1.attrs)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_read_write_byte_identical(tmp_path, grid16):
    # write(read(x)) == x for f64 payloads too
    src = _random_collection(grid16, seed=5)
    p1, p2 = tmp_path / "a.gvf", tmp_path / "b.gvf"
    write_container(src, p1, dtype="f64", attrs={"note": "x"})
    c = read_container(p1)
    write_container({k: c.series(*k) for k in c.keys}, p2,
                    dtype=c.dtype_name, attrs=c.attrs)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_payload_reports_offset(tmp_path, grid16):
    src = _random_collection(grid16, seed=6)
    path = tmp_path / "data.gvf"
    write_container(src, path, dtype="f32")
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(ContainerError, match="truncated"):
        read_container(path)
    header_len = int.from_bytes(blob[:8], "little")
    with pytest.raises(ContainerError, match=str(8 + header_len)):
        read_container(path)


def test_magic_and_version_mismatch(tmp_path, grid16):
    src = _random_collection(grid16, seed=7)
    path = tmp_path / "data.gvf"
    write_container(src, path, dtype="f32")
    blob = bytearray(path.read_bytes())
    i = blob.find(b"GVF1")
    blob[i:i + 4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="magic"):
        read_container(path)


def test_dtype_mismatch(tmp_path, grid16):
    src = _random_collection(grid16, seed=8)
    path = tmp_path / "data.gvf"
    write_container(src, path, dtype="f32")
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[:8], "little")
    header = blob[8:8 + header_len].replace(b'"f32"', b'"f16"')
    patched = (len(header).to_bytes(8, "little") + header
               + blob[8 + header_len:])
    path.write_bytes(patched)
    with pytest.raises(ContainerError, match="dtype"):
        read_container(path)


def _patch_header(path, old: bytes, new: bytes):
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[:8], "little")
    header = blob[8:8 + header_len]
    assert old in header
    header = header.replace(old, new)
    path.write_bytes(len(header).to_bytes(8, "little") + header
                     + blob[8 + header_len:])


@pytest.mark.parametrize("old, new, named", [
    (b'"n_lat": 16', b'"n_lat": 15', "n_lat"),
    (b'"time_axis"', b'"time_axes"', "time_axis"),
    (b'"n_lon": 32', b'"n_lons": 32', "n_lon"),
    (b'"n_lat": 16', b'"n_lat": "16"', "invalid header"),
    # a float size used to pass the payload check and escape from stats as
    # a TypeError
    (b'"n_lon": 32', b'"n_lon": 32.0', "must be positive integers"),
    (b'"n_lat": 16', b'"n_lat": true', "must be positive integers"),
])
def test_bad_header_names_file_and_exits_two(tmp_path, grid16, capsys,
                                             old, new, named):
    from spherecast.cli import main
    path = tmp_path / "data.gvf"
    write_container(_random_collection(grid16, seed=9), path, dtype="f32")
    _patch_header(path, old, new)
    with pytest.raises(ContainerError) as exc:
        read_container(path)
    assert str(path) in str(exc.value) and named in str(exc.value)
    assert main(["stats", "--input", str(path),
                 "--output", str(tmp_path / "s.json")]) == 2
    assert str(path) in capsys.readouterr().err


def _rewrite_header(path, edit):
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[:8], "little")
    header = json.dumps(edit(json.loads(blob[8:8 + header_len]))).encode()
    path.write_bytes(len(header).to_bytes(8, "little") + header
                     + blob[8 + header_len:])


@pytest.mark.parametrize("edit, named", [
    (lambda h: [], "header is not a JSON object"),
    (lambda h: "GVF1", "header is not a JSON object"),
    (lambda h: dict(h, grid=[16, 32]), "grid is not a JSON object"),
    (lambda h: dict(h, grid="gaussian"), "grid is not a JSON object"),
    (lambda h: dict(h, attrs=["x"]), "attrs is not a JSON object"),
    # these three used to escape as a bare TypeError or ValueError
    (lambda h: dict(h, dtype=[]), "unsupported dtype"),
    (lambda h: dict(h, variables=[dict(v, name=[]) for v in h["variables"]]),
     "name, level or units is not a string"),
    (lambda h: dict(h, time_axis=h["time_axis"][::-1]),
     "time axis is not strictly increasing"),
])
def test_non_object_header_parts_name_file_and_exit_two(tmp_path, grid16,
                                                       capsys, edit, named):
    from spherecast.cli import main
    path = tmp_path / "data.gvf"
    write_container(_random_collection(grid16, seed=10), path, dtype="f32")
    _rewrite_header(path, edit)
    with pytest.raises(ContainerError) as exc:
        read_container(path)
    assert str(path) in str(exc.value) and named in str(exc.value)
    assert main(["stats", "--input", str(path),
                 "--output", str(tmp_path / "s.json")]) == 2
    assert str(path) in capsys.readouterr().err


def test_payload_size_is_checked_before_the_grid_is_built(
        tmp_path, grid16, monkeypatch):
    # a 16000-row Gaussian grid took 5.9 s to build before the size check
    # rejected the file
    path = tmp_path / "data.gvf"
    write_container(_random_collection(grid16, seed=11), path, dtype="f32")
    _patch_header(path, b'"n_lat": 16', b'"n_lat": 16000')

    def never(*args, **kwargs):
        raise AssertionError("grid built before the payload size check")

    monkeypatch.setattr(container, "make_gaussian_grid", never)
    with pytest.raises(ContainerError, match="truncated or padded") as exc:
        read_container(path)
    assert str(path) in str(exc.value) and "n_lat 16000" in str(exc.value)


def test_times_parse_in_the_one_form_they_are_written(tmp_path, grid16):
    from datetime import datetime, timezone
    t = datetime(2021, 3, 4, 5, 6, 7, tzinfo=timezone.utc)
    assert container._format_time(t) == "2021-03-04T05:06:07Z"
    assert container._parse_time("2021-03-04T05:06:07Z") == t
    # strptime took these; only the zero-padded form is written
    for text in ("2021-3-4T5:6:7Z", "2021-03-04T05:06:07",
                 "2021-03-04 05:06:07Z", "2021-13-04T05:06:07Z",
                 " 2021-03-04T05:06:07Z", 20210304):
        with pytest.raises(ValueError, match="YYYY-MM-DDTHH:MM:SSZ"
                           if text != "2021-13-04T05:06:07Z" else "month"):
            container._parse_time(text)
    path = tmp_path / "data.gvf"
    write_container(_random_collection(grid16, seed=12), path, dtype="f32")
    _patch_header(path, b'"2020-01-01T06:00:00Z"', b'"2020-1-1T6:00:00Z"')
    with pytest.raises(ContainerError, match="invalid header") as exc:
        read_container(path)
    assert str(path) in str(exc.value)
    assert "2020-1-1T6:00:00Z" in str(exc.value)


@pytest.mark.parametrize("n_writes", [0, 2])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, grid16,
                                                     monkeypatch, n_writes):
    """A container or score write that fails midway removes its temp
    file; a file already at the path keeps its bytes."""
    src = _random_collection(grid16, seed=11)
    kept = tmp_path / "kept.gvf"
    write_container(src, kept)
    scores = tmp_path / "scores.csv"
    records = [ScoreRecord("T", 6, "rmse", 1.0, 0.5, 1.5, 3)]
    write_scores(records, scores)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail_writes_after(monkeypatch, n_writes)
    for path in (kept, tmp_path / "new.gvf"):
        with pytest.raises(OSError, match="No space"):
            write_container(src, path)
    for path in (scores, tmp_path / "new.csv"):
        for fmt in ("csv", "jsonl"):
            with pytest.raises(OSError, match="No space"):
                write_scores(records * 3, path, format=fmt)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_empty_time_axis_header_only(tmp_path, grid16):
    series = make_series(grid16, n_time=1)
    empty = type(series)(grid16, "T", "single", [], np.zeros((0,) + grid16.shape))
    path = tmp_path / "empty.gvf"
    write_container({("T", "single"): empty}, path)
    header_len = int.from_bytes(path.read_bytes()[:8], "little")
    assert path.stat().st_size == 8 + header_len
    c = read_container(path)
    assert c.times == []
    # a header-only container still reads as empty
    assert c.read(slice(None)).shape == (0, 1) + grid16.shape
    assert c.series("T").values.shape == (0,) + grid16.shape
    assert c.read([], ("T", "single")).shape == (0,) + grid16.shape
    assert c.values(slice(None), "T").shape == (0,) + grid16.shape


def _resident_file_kb() -> int:
    """Mapped file pages of this process in kB (RssShmem counts a file on
    tmpfs)."""
    status = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines())
    return sum(int(status[k].split()[0]) for k in ("RssFile", "RssShmem")
               if k in status)


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_a_read_of_every_row_maps_no_page_of_the_file(tmp_path, grid64):
    # 15.7 MB of f32: 160 times of 3 variables at 64x128
    src = _random_collection(grid64, seed=15, n_time=160)
    path = tmp_path / "big.gvf"
    write_container(src, path)
    c = read_container(path)
    into = np.empty((16, 3) + grid64.shape)
    first = c.read(0)  # imports and first-touch set-up, unmeasured
    base, grew = _resident_file_kb(), 0
    for start in range(0, 160, len(into)):
        rows = c.read(slice(start, start + len(into)), out=into)
        grew = max(grew, _resident_file_kb() - base)
        for j, series in enumerate(src.values()):
            assert np.array_equal(rows[:, j], series.values[
                start:start + len(into)].astype(np.float32))
    assert grew < 1024, grew
    assert first.tobytes() == c.read(slice(0, 1))[0].tobytes()


def test_constant_field_payload_identical_scalars(tmp_path, grid16):
    vals = np.full((1,) + grid16.shape, 2.5, dtype=np.float64)
    series = make_series(grid16, n_time=1, values=vals)
    path = tmp_path / "const.gvf"
    write_container({series.key: series}, path, dtype="f32")
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[:8], "little")
    payload = np.frombuffer(blob[8 + header_len:], dtype="<f4")
    assert payload.size == grid16.n_lat * grid16.n_lon
    assert np.all(payload == np.float32(2.5))


def test_mixed_grids_rejected(tmp_path, grid16, grid32):
    d = {("T", "single"): make_series(grid16), ("Q", "single"): make_series(grid32, "Q")}
    with pytest.raises(ValueError, match="mixed grids"):
        write_container(d, tmp_path / "x.gvf")


def test_lazy_reader_single_chunk(tmp_path, grid16):
    src = _random_collection(grid16, seed=9)
    path = tmp_path / "data.gvf"
    write_container(src, path, dtype="f64")
    c = read_container(path)
    f = c.values(1, "Q", "L10")
    assert f.dtype == np.float64
    assert np.array_equal(f, src[("Q", "L10")].values[1])
    assert c.times[1] == src[("Q", "L10")].times[1]
    with pytest.raises(KeyError):
        c.values(0, "nope")


def test_read_copies_rows_into_a_float64_array_or_the_callers(
        tmp_path, grid16, monkeypatch):
    src = _random_collection(grid16, seed=10)
    path = tmp_path / "data.gvf"
    write_container(src, path, dtype="f32")
    c = read_container(path)
    q = ("Q", "L10")
    f32 = src[q].values.astype(np.float32)
    # rows as an index, a slice or a sequence, in any order
    assert c.read(1, q).dtype == np.float64
    assert np.array_equal(c.read(1, q), f32[1])
    assert np.array_equal(c.read(slice(1, None), q), f32[1:])
    assert np.array_equal(c.read([2, 0], q), f32[[2, 0]])
    whole = c.read(slice(None))  # (time, variable, n_lat, n_lon)
    assert whole.shape == (3, 3) + grid16.shape
    assert np.array_equal(whole[:, c.index(*q)], f32)
    assert np.array_equal(c.read([0, 2], q, cells=slice(5, 40)),
                          f32[[0, 2]].reshape(2, -1)[:, 5:40])
    # the caller's array: the file's dtype, read straight in, or any
    # other, strided too, cast from a staging array of a row at a time
    out = np.empty((3,) + grid16.shape, dtype=np.float32)
    assert c.read(slice(None), q, out) is out
    assert out.tobytes() == f32.tobytes()
    monkeypatch.setattr(container, "_BLOCK_BYTES", 1)
    stack = np.zeros((3, 2) + grid16.shape, dtype=">f8")
    c.read(slice(None), q, stack[:, 1])
    assert np.array_equal(stack[:, 1], f32) and not stack[:, 0].any()
    series = c.series(*q)
    assert (series.key, series.times, series.grid) == (q, c.times, c.grid)
    assert series.values.dtype == np.float64
    assert np.array_equal(series.values, f32)
    with pytest.raises(ValueError, match="shape"):
        c.read(0, q, np.empty(3))
    with pytest.raises(IndexError):
        c.read([0, 3], q)
    with pytest.raises(KeyError, match="'nope'"):
        c.read(0, ("nope", "single"))


_TRUNCATE_AND_READ = """
import os, sys
from spherecast.container import ContainerError, read_container
c = read_container(sys.argv[1])
os.truncate(sys.argv[1], os.path.getsize(sys.argv[1]) // 2)
try:
    c.values(39, "T")
except ContainerError as exc:
    sys.exit(str(exc))
"""


def test_a_file_truncated_after_it_is_opened_names_the_file_and_row(
        tmp_path, grid64):
    # a read through a map of the file died of SIGBUS here; in a child, so
    # that such a death fails the test instead of killing the run
    path = tmp_path / "cut.gvf"
    write_container([make_series(grid64, n_time=40, seed=16)], path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(container.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    run = subprocess.run([sys.executable, "-c", _TRUNCATE_AND_READ,
                          str(path)], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (
        1, f"{path}: short read at time row 39\n")


def test_scores_csv_layout(tmp_path):
    rec = ScoreRecord("Z500", 24, "rmse", 12.3456789012, 11.0, 13.5, 100)
    path = tmp_path / "scores.csv"
    write_scores([rec], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "variable,lead_hours,metric,value,ci_low,ci_high,n_inits"
    assert lines[1] == "Z500,24,rmse,12.3456789,11,13.5,100"


def test_scores_sorted_and_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = []
    for i in range(1000):
        lo, mid, hi = np.sort(rng.normal(size=3))
        records.append(ScoreRecord(
            variable=f"V{rng.integers(5)}", lead_hours=int(rng.integers(0, 40)) * 6,
            metric=["rmse", "acc"][int(rng.integers(2))],
            value=float(f"{mid:.9g}"), ci_low=float(f"{lo:.9g}"),
            ci_high=float(f"{hi:.9g}"), n_inits=10))
    path = tmp_path / "scores.csv"
    write_scores(records, path)
    back = read_scores(path)
    expect = sorted(records, key=lambda r: (r.variable, r.lead_hours, r.metric))
    assert back == expect

    jpath = tmp_path / "scores.jsonl"
    write_scores(records, jpath, format="jsonl")
    assert read_scores(jpath, format="jsonl") == expect


def test_score_record_ci_invariant():
    with pytest.raises(ValueError):
        ScoreRecord("T", 6, "rmse", 1.0, 2.0, 3.0, 4)


def test_container_writer_leaves_no_file_unless_every_row_is_written(
        tmp_path, grid16):
    from spherecast.container import container_writer
    series = make_series(grid16, n_time=3, seed=8)
    variables = [(series.variable, series.level, series.units)]
    path = tmp_path / "w.gvf"
    with pytest.raises(ValueError, match="2 of 3 time rows"):
        with container_writer(path, grid16, variables, series.times) as write:
            write([series.values[:2]])
    with pytest.raises(ValueError, match="a block needs one"):
        with container_writer(path, grid16, variables, series.times) as write:
            write([series.values[:2, :, :-1]])
    with pytest.raises(ValueError, match="more than 3 time rows"):
        with container_writer(path, grid16, variables, series.times) as write:
            write([series.values])
            write([series.values[:1]])
    assert list(tmp_path.iterdir()) == []
    with container_writer(path, grid16, variables, series.times) as write:
        for i in range(3):
            write([series.values[i:i + 1]])
    assert np.array_equal(read_container(path).series("T").values,
                          series.values.astype(np.float32))


def test_f32_write_refuses_finite_values_beyond_its_range(tmp_path, grid16):
    # used to write inf and exit 0
    from spherecast.container import container_writer
    series = make_series(grid16, "T850", n_time=3, seed=12)
    series.values[2, 4, 5] = 1e39
    path = tmp_path / "big.gvf"
    with pytest.raises(ValueError) as exc:
        write_container([series], path, dtype="f32")
    assert str(exc.value) == (f"{path}: T850 (single) at 2020-01-01T12:00:00Z: "
                              "finite values beyond the f32 range")
    variables = [("T850", "single", "K")]
    with pytest.raises(ValueError, match="T850 .single. at 2020-01-01T12"):
        with container_writer(path, grid16, variables, series.times) as write:
            write.at([0, 1, 2], 0, series.values)
    assert list(tmp_path.iterdir()) == []
    # as f64 the value fits; a non-finite one, or float32 input, is written
    write_container([series], path, dtype="f64")
    assert read_container(path).values(2, "T850")[4, 5] == 1e39
    series.values[2, 4, 5] = np.inf
    write_container([series], path, dtype="f32")
    assert np.isposinf(read_container(path).values(2, "T850")[4, 5])
    with container_writer(path, grid16, variables, series.times) as write:
        write([np.full((3,) + grid16.shape, np.inf, dtype=np.float32)])
    assert np.isposinf(read_container(path).series("T850").values).all()


def test_positioned_writes_fill_any_order_and_every_cell_is_required(
        tmp_path, grid16):
    from spherecast.container import container_writer
    src = _random_collection(grid16, seed=13, n_time=4)
    variables = [(s.variable, s.level, s.units) for s in src.values()]
    times = src[("T", "L10")].times
    whole, placed = tmp_path / "whole.gvf", tmp_path / "placed.gvf"
    write_container(src, whole, dtype="f32")
    with container_writer(placed, grid16, variables, times) as write:
        for j, s in reversed(list(enumerate(src.values()))):
            write.at([3, 1], j, s.values[[3, 1]])
            write.at(range(0, 4, 2), j, s.values[::2])
    assert placed.read_bytes() == whole.read_bytes()
    placed.unlink()
    # or as runs of a field's flattened cells, in any order
    cells = grid16.n_lat * grid16.n_lon
    with container_writer(placed, grid16, variables, times) as write:
        for j, s in enumerate(src.values()):
            flat = s.values.reshape(4, cells)
            for start, stop in ((200, cells), (0, 8), (8, 200)):
                write.at(range(4), j, flat[:, start:stop], start)
    assert placed.read_bytes() == whole.read_bytes()
    placed.unlink()
    flat = src[("T", "L10")].values.reshape(4, cells)
    with pytest.raises(ValueError, match=r"run of at most 512 cells from "
                       r"cell 8, got \(512,\)"):
        with container_writer(placed, grid16, variables, times) as write:
            write.at(range(4), 0, flat, 8)
    with pytest.raises(ValueError, match=r"0 of 4 time rows written; "
                       r"T \(L10\) at 2020-01-01T00:00:00Z is not"):
        with container_writer(placed, grid16, variables, times) as write:
            for j in range(3):
                write.at(range(4), j, flat[:, :cells - 1])
    with pytest.raises(ValueError, match=r"3 of 4 time rows written; "
                       r"SP \(single\) at 2020-01-01T06:00:00Z is not"):
        with container_writer(placed, grid16, variables, times) as write:
            write.at(range(4), 0, src[("T", "L10")].values)
            write.at(range(4), 1, src[("Q", "L10")].values)
            write.at([0, 2, 3], 2, src[("SP", "single")].values[[0, 2, 3]])
    for rows, j in (([4], 0), ([-1], 0), ([0], 3), ([0], -1)):
        with pytest.raises(ValueError, match="no cell for variable"):
            with container_writer(placed, grid16, variables, times) as write:
                write.at(rows, j, src[("T", "L10")].values[:1])
    assert list(tmp_path.iterdir()) == [whole]


def test_a_header_only_file_may_not_declare_a_huge_gaussian_grid(
        tmp_path, grid16, capsys):
    # a 228-byte file with an empty time axis declaring a 4000x8000
    # gaussian grid used to open, after 0.4 s spent finding the 4000
    # Gauss-Legendre nodes
    from spherecast.cli import main
    from spherecast.grid import FieldSeries
    empty = FieldSeries(grid16, "T", "single", [], np.zeros((0,) + grid16.shape))
    path = tmp_path / "empty.gvf"
    write_container([empty], path)
    _rewrite_header(path, lambda h: dict(h, grid=dict(h["grid"], n_lat=4000,
                                                      n_lon=8000)))
    with pytest.raises(ContainerError, match="at most 2048 latitudes"
                       ) as exc:
        read_container(path)
    assert str(path) in str(exc.value)
    assert main(["stats", "--input", str(path),
                 "--output", str(tmp_path / "s.json")]) == 2
    assert str(path) in capsys.readouterr().err
    # the largest grid allowed still opens, as do equiangular ones of any size
    for kind, n_lat in (("gaussian", 2048), ("equiangular", 4000)):
        _rewrite_header(path, lambda h: dict(h, grid=dict(
            h["grid"], kind=kind, n_lat=n_lat, n_lon=2 * n_lat)))
        assert read_container(path).grid.shape == (n_lat, 2 * n_lat)


def test_check_finite_names_the_first_non_finite_row_and_variable(grid16):
    import warnings
    from spherecast.container import check_finite
    keys = [("T", "single"), ("Q", "single")]
    when = [f"row {k}" for k in range(4)]
    # finite values near the float32 limit are no fault, and no value warns
    stack = np.full((4, 2) + grid16.shape, 3e38, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_finite("f.gvf", "values in", stack, keys, when)
        stack[2, 1, 0, :2] = np.inf, -np.inf
        stack[3, 0, 5, 6] = np.nan
        with pytest.raises(ValueError) as exc:
            check_finite("f.gvf", "values in", stack, keys, when,
                         rows=[0, 1, 3])
    assert str(exc.value) == "f.gvf: non-finite values in T (single) at row 3"
    for rows in ([2, 3], None):
        with pytest.raises(ValueError, match="Q \\(single\\) at row 2$"):
            check_finite("f.gvf", "values in", stack, keys, when, rows)
    # one variable's (time, n_lat, n_lon) rows, and rows that skip the fault
    with pytest.raises(ValueError, match="T \\(single\\) at row 3$"):
        check_finite("f.gvf", "values in", stack[:, 0], keys[:1], when)
    check_finite("f.gvf", "values in", stack[:, 1], keys[1:], when, [0, 1, 3])
    check_finite("f.gvf", "values in", stack[:0], keys, when)
