import csv
import hashlib
import json
import os
import sys
import time
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from spherecast import rollout
from spherecast.cli import main
from spherecast.container import (container_writer, read_container,
                                  read_scores, write_container)
from spherecast.grid import FieldSeries
from spherecast.preprocess import Climatology, compute_climatology
from conftest import fail_writes_after, make_series, make_spectrum_fixture

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
DATA = Path(__file__).parent / "data"

# external forecaster protocol: sh SCRIPT --in STATE --out NEXT --step-hours N
IDENTITY_SH = 'cp "$2" "$4"\n'

SUBCOMMANDS = ["stats", "normalize", "denormalize", "climatology", "solar",
               "pad", "filter", "spectrum", "verify", "correlate", "rollout"]


def write_target(tmp_path, grid, n_time=8, seed=0, variable="T"):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n_time,) + grid.shape).astype(np.float32)
    series = FieldSeries(grid, variable, "single",
                         [T0 + timedelta(hours=6 * k) for k in range(n_time)],
                         vals.astype(np.float64))
    path = tmp_path / "target.gvf"
    write_container({series.key: series}, path, dtype="f32")
    return path, series


def write_zero_climatology(tmp_path, grid, keys):
    clim = Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                       std_days=10.0,
                       data={k: np.zeros((365, 4) + grid.shape) for k in keys})
    path = tmp_path / "clim.gvf"
    clim.to_container(path)
    return path


def test_help_exits_zero(capsys):
    for name in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--config" in out


def test_unknown_subcommand_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_required_flag_exit_one(capsys):
    assert main(["stats"]) == 1
    assert "--input" in capsys.readouterr().err


def test_missing_input_file_exit_two(tmp_path, capsys):
    assert main(["stats", "--input", str(tmp_path / "nope.gvf"),
                 "--output", str(tmp_path / "s.json")]) == 2


def test_unknown_config_key_exit_three(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"inputt": "x.gvf"}))
    assert main(["stats", "--config", str(cfg),
                 "--output", str(tmp_path / "s.json")]) == 3
    assert "inputt" in capsys.readouterr().err


def test_stats_normalize_denormalize_round_trip(tmp_path, grid16):
    src = {("T", "single"): make_series(grid16, n_time=6, seed=1),
           ("Q", "single"): make_series(grid16, "Q", n_time=6, seed=2)}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    stats_path = tmp_path / "stats.json"
    assert main(["stats", "--input", str(inp), "--output", str(stats_path)]) == 0
    doc = json.loads(stats_path.read_text())
    assert set(doc["entries"]) == {"T|single", "Q|single"}
    prod = np.prod([e["xi"] for e in doc["entries"].values()])
    assert abs(prod - 1.0) < 1e-10

    norm = tmp_path / "norm.gvf"
    assert main(["normalize", "--input", str(inp), "--stats", str(stats_path),
                 "--output", str(norm)]) == 0
    back = tmp_path / "back.gvf"
    assert main(["denormalize", "--input", str(norm), "--stats", str(stats_path),
                 "--output", str(back)]) == 0
    ca, cb = read_container(inp), read_container(back)
    a = {k: ca.series(*k) for k in ca.keys}
    b = {k: cb.series(*k) for k in cb.keys}
    for key in src:
        np.testing.assert_allclose(b[key].values, a[key].values, rtol=1e-12)
    # manifest echoes the effective config
    manifest = json.loads((tmp_path / "norm.gvf.manifest.json").read_text())
    assert manifest["subcommand"] == "normalize"
    assert manifest["config"]["input"] == str(inp)


def test_solar_cli(tmp_path):
    out = tmp_path / "solar.gvf"
    assert main(["solar", "--grid", "gaussian:8x16", "--start",
                 "2020-03-20T00:00:00Z", "--windows", "2",
                 "--window-hours", "6", "--output", str(out)]) == 0
    c = read_container(out)
    assert c.keys == [("Is", "single")]
    assert len(c.times) == 2
    assert c.times[0] == datetime(2020, 3, 20, 6, tzinfo=timezone.utc)
    vals = c.values(0, "Is")
    assert np.all(vals >= 0.0)
    assert vals.max() > 1e6


def test_pad_cli(tmp_path, grid16):
    src = {("T", "single"): make_series(grid16, n_time=2, seed=3)}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    out = tmp_path / "padded.gvf"
    assert main(["pad", "--input", str(inp), "--output", str(out),
                 "--pad-ns", "2", "--pad-ew", "3"]) == 0
    c = read_container(out)
    assert c.grid.shape == (16 + 4, 32 + 6)
    assert c.attrs["padding"]["pad_ns"] == 2
    from spherecast.padding import PadSpec, pad
    expect = pad(src[("T", "single")].values[0], PadSpec(2, 3))
    np.testing.assert_array_equal(c.values(0, "T"), expect)


def test_filter_cli(tmp_path, grid16):
    """Each output field is pole_filter_values(diffuse_values(x)), cast to
    the file's dtype, bit for bit, for f32 and f64 files and either flag."""
    from spherecast.filters import (DiffusionSpec, PoleFilterSpec,
                                    diffuse_values, pole_filter_values)
    src = {("T", "single"): make_series(grid16, n_time=2, seed=4),
           ("Q", "single"): make_series(grid16, "Q", n_time=2, seed=5)}
    flags = {"diffuse": ["--diffuse", "1e-5,2"],
             "pole": ["--pole-filter", "60,65"]}
    for dtype in ("f32", "f64"):
        inp = tmp_path / f"in_{dtype}.gvf"
        write_container(src, inp, dtype=dtype)
        x = read_container(inp)
        for ops in (["diffuse"], ["pole"], ["diffuse", "pole"]):
            out = tmp_path / f"{dtype}_{'_'.join(ops)}.gvf"
            assert main(["filter", "--input", str(inp), "--output", str(out),
                         *(f for op in ops for f in flags[op])]) == 0
            c = read_container(out)
            assert c.dtype_name == dtype
            for i in range(2):
                for name, level in src:
                    expect = x.values(i, name, level)
                    if "diffuse" in ops:
                        expect = diffuse_values(expect, grid16,
                                                DiffusionSpec(1e-5, 2))
                    if "pole" in ops:
                        expect = pole_filter_values(expect, grid16,
                                                    PoleFilterSpec(60.0, 65.0))
                    expect = expect.astype(x.dtype).astype(np.float64)
                    assert (c.values(i, name, level).tobytes()
                            == expect.tobytes()), (dtype, ops, i, name)
                    assert not np.array_equal(expect, x.values(i, name, level))
    # stability violation surfaces as exit 3
    assert main(["filter", "--input", str(inp), "--output", str(out),
                 "--diffuse", "0.5,1"]) == 3


def test_climatology_cli(tmp_path, grid16):
    times = [datetime(2019, 1, 1, tzinfo=timezone.utc) + timedelta(hours=6 * k)
             for k in range(4 * 730)]
    vals = np.full((len(times),) + grid16.shape, 2.5)
    series = FieldSeries(grid16, "T", "single", times, vals)
    inp = tmp_path / "in.gvf"
    write_container({series.key: series}, inp, dtype="f64")
    out = tmp_path / "clim.gvf"
    assert main(["climatology", "--input", str(inp), "--output", str(out)]) == 0
    clim = Climatology.from_container(out)
    np.testing.assert_allclose(clim.read(slice(None), ("T", "single")), 2.5,
                               rtol=1e-12)


def test_spectrum_cli_matches_committed_golden(tmp_path):
    inp = tmp_path / "fixture.gvf"
    make_spectrum_fixture(inp)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(out),
                 "--l-max", "10"]) == 0

    def load(path):
        with open(path, newline="") as fh:
            return {(r["variable"], int(r["lead_hours"]), int(r["m"])):
                    float(r["power"]) for r in csv.DictReader(fh)}

    got = load(out)
    golden = load(DATA / "spectrum_golden.csv")
    assert set(got) == set(golden)
    for key, val in golden.items():
        assert abs(got[key] - val) <= 1e-9 * max(1.0, abs(val)), key


def _spectrum_digests(tmp, monkeypatch):
    """{output name: sha256} of spectrum CSVs of a seeded 9-time 16x32
    input of three variables, in f32 and in f64: --kind power (passes of
    12, 12 and 3 fields), kinetic (8, 8, 2) and theta (8, 1)."""
    from spherecast import container, make_gaussian_grid
    grid = make_gaussian_grid(16, 32)
    rng = np.random.default_rng(95)
    times = [T0 + timedelta(hours=6 * k) for k in range(9)]
    series = [FieldSeries(grid, name, "single", times,
                          rng.normal(loc, scale, size=(9,) + grid.shape))
              for name, loc, scale in (("U", 10.0, 12.0), ("V", 0.0, 8.0),
                                       ("T", 260.0, 15.0))]
    runs = {"power_f32.csv": ("f32", ["--kind", "power"]),
            "power_f64.csv": ("f64", ["--kind", "power"]),
            "kinetic.csv": ("f32", ["--kind", "kinetic", "--u-var", "U",
                                    "--v-var", "V", "--level", "single"]),
            "theta.csv": ("f32", ["--kind", "theta", "--t-var", "T",
                                  "--level", "single", "--pressure", "700"])}
    for dtype in ("f32", "f64"):
        write_container(series, tmp / f"in_{dtype}.gvf", dtype=dtype)
    monkeypatch.setattr(container, "_BLOCK_BYTES", 1)
    digests = {}
    for name, (dtype, flags) in runs.items():
        out = tmp / name
        assert main(["spectrum", "--input", str(tmp / f"in_{dtype}.gvf"),
                     "--output", str(out)] + flags) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_spectrum_outputs_match_committed_digests(tmp_path, monkeypatch):
    # the byte gate of the spectrum CSV; the golden test above compares
    # to an independent oracle to 1e-9 only
    want = json.loads((DATA / "spectrum_digests.json").read_text())
    got = _spectrum_digests(tmp_path, monkeypatch)
    differ = sorted(name for name in want["sha256"]
                    if got.get(name) != want["sha256"][name])
    assert not differ, (
        f"{', '.join(differ)} differ from tests/data/spectrum_digests.json "
        f"(made with numpy {want['numpy']} and {want['blas']}; this is "
        f"numpy {np.__version__})")


def _spectrum_csv(path):
    with open(path, newline="") as fh:
        return {(r["variable"], int(r["lead_hours"]), int(r["m"])): r["power"]
                for r in csv.DictReader(fh)}


@pytest.mark.parametrize("kind", ["kinetic", "theta"])
def test_spectrum_kinds_match_per_field_spectra(tmp_path, grid16, kind):
    from spherecast.container import _fmt
    from spherecast.sht import (kinetic_energy_spectrum,
                                potential_temperature_energy_spectrum)
    src = {(v, "single"): make_series(grid16, v, n_time=3, seed=40 + i)
           for i, v in enumerate(("U500", "V500", "T500"))}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    out = tmp_path / "spec.csv"
    flags = ["--pressure", "700"] if kind == "theta" else []
    assert main(["spectrum", "--input", str(inp), "--output", str(out),
                 "--kind", kind, "--l-max", "12"] + flags) == 0
    c = read_container(inp)

    def spectrum(i):
        if kind == "kinetic":
            return kinetic_energy_spectrum(c.values(i, "U500"),
                                           c.values(i, "V500"), 12, grid16)
        return potential_temperature_energy_spectrum(
            c.values(i, "T500"), 12, grid16, pressure_hpa=700.0)

    tag = "KE" if kind == "kinetic" else "theta"
    expect = {(tag, 6 * i, m): p for i in range(3)
              for m, p in enumerate(spectrum(i).power)}
    # the whole stack in one call, as the CLI's one pass does it, then the
    # CSV itself
    stacked = {(tag, 6 * i, m): p for i, power in enumerate(
        spectrum(slice(None)).power) for m, p in enumerate(power)}
    assert set(stacked) == set(expect)
    for key, p in expect.items():
        assert abs(stacked[key] - p) <= 1e-12 * p, key
    assert _spectrum_csv(out) == {key: _fmt(p) for key, p in stacked.items()}


def test_spectrum_bad_init_time_exits_two_naming_the_file(tmp_path, grid16,
                                                         capsys):
    # used to exit 3 naming neither the file nor the attribute
    inp = tmp_path / "in.gvf"
    write_container([make_series(grid16, "Z500", n_time=2, seed=45)], inp,
                    dtype="f64", attrs={"init_time": "2020-1-1T00:00:00Z"})
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {inp}: attrs init_time: '2020-1-1T00:00:00Z' ")
    assert not out.exists()


def test_failed_spectrum_write_leaves_previous_output(tmp_path, monkeypatch):
    inp = tmp_path / "fixture.gvf"
    make_spectrum_fixture(inp)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(out),
                 "--l-max", "10"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail_writes_after(monkeypatch, 1)
    assert main(["spectrum", "--input", str(inp), "--output", str(out),
                 "--l-max", "4"]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_correlate_cli(tmp_path, grid16):
    src = {("T", "L1"): make_series(grid16, "T", "L1", n_time=3, seed=5),
           ("U", "L1"): make_series(grid16, "U", "L1", n_time=3, seed=6)}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    out = tmp_path / "corr.csv"
    assert main(["correlate", "--input", str(inp), "--output", str(out)]) == 0
    from spherecast.verify import read_correlation_csv
    m = read_correlation_csv(out)
    assert m.labels == [("T", "L1"), ("U", "L1")]
    assert m.values[0, 0] == 1.0

    ref = tmp_path / "ref.gvf"
    write_container(src, ref, dtype="f64")
    out2 = tmp_path / "corr2.csv"
    diff = tmp_path / "diff.csv"
    assert main(["correlate", "--input", str(inp), "--reference", str(ref),
                 "--output", str(out2), "--difference-output", str(diff)]) == 0
    d = read_correlation_csv(diff)
    np.testing.assert_allclose(d.values, 0.0, atol=1e-12)


def test_rollout_and_verify_pipeline(tmp_path, grid16):
    target_path, series = write_target(tmp_path, grid16, n_time=8, seed=7)
    clim_path = write_zero_climatology(tmp_path, grid16, [("T", "single")])
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T00:00:00,3,6",
                 "--step-hours", "6", "--max-lead-hours", "12"]) == 0
    assert len(list(fc_dir.glob("*.gvf"))) == 3

    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(fc_dir),
                 "--target", str(target_path),
                 "--climatology", str(clim_path),
                 "--output", str(scores), "--bootstrap", "50",
                 "--seed", "0"]) == 0
    records = read_scores(scores)
    lead0 = {r.metric: r for r in records if r.lead_hours == 0}
    assert lead0["rmse"].value == 0.0
    assert lead0["rmse"].ci_low == 0.0 and lead0["rmse"].ci_high == 0.0
    assert abs(lead0["acc"].value - 1.0) < 1e-12
    assert lead0["rmse"].n_inits == 3
    # all leads are 6-hour multiples
    assert {r.lead_hours for r in records} == {0, 6, 12}


def test_verify_deterministic_byte_identical(tmp_path, grid16):
    target_path, _ = write_target(tmp_path, grid16, n_time=8, seed=8)
    clim_path = write_zero_climatology(tmp_path, grid16, [("T", "single")])
    fc_dir = tmp_path / "fc"
    main(["rollout", "--initial-states", str(target_path),
          "--output-dir", str(fc_dir), "--inits", "2020-01-01T00:00:00,2,6",
          "--step-hours", "6", "--max-lead-hours", "12"])
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["verify", "--forecast-dir", str(fc_dir), "--target",
            str(target_path), "--climatology", str(clim_path),
            "--bootstrap", "200", "--seed", "42"]
    assert main(args + ["--output", str(s1)]) == 0
    assert main(args + ["--output", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    # a different seed must change the bootstrap intervals
    s3 = tmp_path / "s3.csv"
    assert main(args[:-2] + ["--seed", "7", "--output", str(s3)]) == 0
    assert s1.read_bytes() != s3.read_bytes()


def test_verify_repeated_metric_repeats_its_row(tmp_path, grid16):
    target_path, _ = write_target(tmp_path, grid16, n_time=8, seed=10)
    clim_path = write_zero_climatology(tmp_path, grid16, [("T", "single")])
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T00:00:00,3,6",
                 "--step-hours", "6", "--max-lead-hours", "12"]) == 0
    args = ["verify", "--forecast-dir", str(fc_dir), "--target",
            str(target_path), "--climatology", str(clim_path),
            "--bootstrap", "50", "--seed", "3"]
    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    assert main(args + ["--metrics", "rmse,acc", "--output", str(once)]) == 0
    assert main(args + ["--metrics", "rmse,rmse,acc",
                        "--output", str(twice)]) == 0
    want = {(r.lead_hours, r.metric): r for r in read_scores(once)}
    got = read_scores(twice)
    assert len(got) == 3 * 3
    assert {r.n_inits for r in got} == {3}
    for r in got:
        assert r == want[(r.lead_hours, r.metric)]


def test_verify_unknown_metric_is_named_before_reading(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["verify", "--forecast-dir", str(missing), "--target",
                 str(missing / "target.gvf"), "--metrics", "rmse,mae",
                 "--output", str(tmp_path / "s.csv")]) == 3
    assert "unknown metric 'mae': choose from rmse, acc" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flag,value,code,expect", [
    ("--bootstrap", "0", 1, "--bootstrap must be at least 1, got 0"),
    ("--bootstrap", "-3", 1, "--bootstrap must be at least 1, got -3"),
    ("--metrics", ",", 3, "no metric given: choose from rmse, acc"),
], ids=["bootstrap-0", "bootstrap-negative", "metrics-empty"])
def test_verify_bad_bootstrap_or_metrics_is_refused_before_reading(
        tmp_path, capsys, flag, value, code, expect):
    # both used to exit 3 only after the whole scoring pass, with "n_boot
    # must be at least 1" and "no score records to write"; the forecast
    # directory does not exist, so nothing was read
    missing = tmp_path / "missing"
    assert main(["verify", "--forecast-dir", str(missing), "--target",
                 str(missing / "target.gvf"), flag, value,
                 "--output", str(tmp_path / "s.csv")]) == code
    assert f"error: {expect}\n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_threads_flag_is_a_usage_error(tmp_path, grid16, capsys):
    for name in SUBCOMMANDS:
        assert main([name, "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err
    target_path, _ = write_target(tmp_path, grid16, n_time=8, seed=9)
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir), "--inits",
                 "2020-01-01T00:00:00,2,6", "--step-hours", "6",
                 "--max-lead-hours", "12"]) == 0
    scores = tmp_path / "s.csv"
    assert main(["verify", "--forecast-dir", str(fc_dir), "--target",
                 str(target_path), "--metrics", "rmse", "--bootstrap", "20",
                 "--output", str(scores)]) == 0
    manifests = [fc_dir / "rollout.manifest.json",
                 tmp_path / "s.csv.manifest.json"]
    for path in manifests:
        assert "threads" not in json.loads(path.read_text())["config"]


def test_verify_single_initialization_exits_zero(tmp_path, grid16):
    target_path, _ = write_target(tmp_path, grid16, n_time=8, seed=21)
    clim_path = write_zero_climatology(tmp_path, grid16, [("T", "single")])
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T06:00:00,1,6",
                 "--step-hours", "6", "--max-lead-hours", "24"]) == 0
    scores = tmp_path / "scores.csv"
    for seed in range(5):
        assert main(["verify", "--forecast-dir", str(fc_dir),
                     "--target", str(target_path),
                     "--climatology", str(clim_path), "--seed", str(seed),
                     "--output", str(scores)]) == 0
        records = read_scores(scores)
        assert {r.n_inits for r in records} == {1}
        assert {r.lead_hours for r in records} == {0, 6, 12, 18, 24}


def test_verify_two_files_of_one_init_exits_three_naming_both(
        tmp_path, grid16, capsys):
    # used to exit 0, scoring one file and dropping the other
    target_path, _ = write_target(tmp_path, grid16, n_time=8, seed=23)
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T00:00:00,2,6",
                 "--max-lead-hours", "12"]) == 0
    first = fc_dir / "init_20200101T060000Z.gvf"
    copy = fc_dir / "init_20200101T060000Z_copy.gvf"
    copy.write_bytes(first.read_bytes())
    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(fc_dir),
                 "--target", str(target_path), "--metrics", "rmse",
                 "--output", str(scores)]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: {first} and {copy} both hold init "
                   "2020-01-01T06:00:00+00:00\n")
    assert not scores.exists()


def test_verify_scores_every_hourly_lead(tmp_path, grid16):
    rng = np.random.default_rng(22)
    times = [T0 + timedelta(hours=k) for k in range(16)]
    series = FieldSeries(grid16, "T", "single", times,
                         rng.normal(size=(16,) + grid16.shape)
                         .astype(np.float32).astype(np.float64))
    target_path = tmp_path / "target.gvf"
    write_container({series.key: series}, target_path, dtype="f32")
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--inits", "2020-01-01T00:00:00,2,1",
                 "--step-hours", "1", "--max-lead-hours", "12"]) == 0
    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(fc_dir),
                 "--target", str(target_path), "--metrics", "rmse",
                 "--bootstrap", "20", "--output", str(scores)]) == 0
    assert sorted(r.lead_hours for r in read_scores(scores)) == list(range(13))


def test_rollout_missing_init_exits_two_and_writes_nothing(tmp_path, grid16,
                                                          capsys):
    target_path, _ = write_target(tmp_path, grid16, n_time=4, seed=23)
    fc_dir = tmp_path / "fc"
    # the states end at 2020-01-01T18Z, so only the last init is missing
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir),
                 "--init-times", "2020-01-01T00:00:00,2020-01-01T06:00:00,"
                                 "2020-01-02T00:00:00",
                 "--step-hours", "6", "--max-lead-hours", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {target_path}: init time "
                          "2020-01-02T00:00:00")
    assert not list(tmp_path.glob("fc/*.gvf"))


@pytest.mark.parametrize("argv,expect", [
    (["--inits", "2020-01-01T00:00:00,1,6", "--max-lead-hours", "-6"],
     "max_lead_hours must not be negative, got -6"),
    (["--inits", "2020-01-01T00:00:00,0,6"], "no init times"),
    (["--inits", "2020-01-01T00:00:00,2,0"],
     "init time 2020-01-01T00:00:00+00:00 is given twice"),
    (["--init-times", "2020-01-01T06:00:00,2020-01-01T00:00:00,"
                      "2020-01-01T06:00:00Z"],
     "init time 2020-01-01T06:00:00+00:00 is given twice"),
], ids=["negative-lead", "no-inits", "stride-0", "init-times-twice"])
def test_rollout_bad_plan_exits_three_before_the_output_directory(
        tmp_path, grid16, capsys, argv, expect):
    # a negative lead used to make the directory and die with "more than 0
    # time rows written"; no inits exited 0 with only a manifest, and a
    # repeated init exited 0 after rolling it out twice into one file
    target_path, _ = write_target(tmp_path, grid16, n_time=4, seed=24)
    fc_dir = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(fc_dir)] + argv) == 3
    assert capsys.readouterr().err == f"error: {expect}\n"
    assert not fc_dir.exists()


def test_invalid_grid_header_exits_two_naming_file(tmp_path, grid16, capsys):
    src = {("T", "single"): make_series(grid16, n_time=2, seed=25)}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    blob = inp.read_bytes()
    header_len = int.from_bytes(blob[:8], "little")
    header = blob[8:8 + header_len].replace(b'"n_lat": 16', b'"n_lat": 15')
    inp.write_bytes(len(header).to_bytes(8, "little") + header
                    + blob[8 + header_len:])
    assert main(["stats", "--input", str(inp),
                 "--output", str(tmp_path / "s.json")]) == 2
    assert str(inp) in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, grid16):
    src = {("T", "single"): make_series(grid16, n_time=6, seed=10)}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(inp),
                               "output": str(tmp_path / "from_config.json"),
                               "residual": False}))
    override = tmp_path / "override.json"
    assert main(["stats", "--config", str(cfg), "--output", str(override)]) == 0
    assert override.exists()
    assert not (tmp_path / "from_config.json").exists()
    doc = json.loads(override.read_text())
    assert doc["entries"]["T|single"]["xi"] == 1.0


def test_external_rollout_cli(tmp_path, grid16):
    script = tmp_path / "identity.py"
    script.write_text(
        "import argparse, shutil\n"
        "p = argparse.ArgumentParser()\n"
        "p.add_argument('--in', dest='inp')\n"
        "p.add_argument('--out')\n"
        "p.add_argument('--step-hours')\n"
        "a = p.parse_args()\n"
        "shutil.copy(a.inp, a.out)\n")
    target_path, _ = write_target(tmp_path, grid16, n_time=4, seed=11)
    ext_dir = tmp_path / "ext"
    per_dir = tmp_path / "per"
    common = ["--initial-states", str(target_path),
              "--inits", "2020-01-01T00:00:00,1,6",
              "--step-hours", "6", "--max-lead-hours", "18"]
    assert main(["rollout", *common, "--output-dir", str(per_dir)]) == 0
    assert main(["rollout", *common, "--output-dir", str(ext_dir),
                 "--forecaster", "external",
                 "--external-cmd", f"{sys.executable} {script}"]) == 0
    a = sorted(per_dir.glob("*.gvf"))[0]
    b = sorted(ext_dir.glob("*.gvf"))[0]
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("stderr", [None, "first line\\nlast line\\n"])
def test_failed_external_forecaster_exits_two_naming_init(tmp_path, grid16,
                                                         capsys, stderr):
    cmd = "false"
    if stderr:
        script = tmp_path / "fail.sh"
        script.write_text(f"printf '{stderr}' >&2; exit 7\n")
        cmd = f"sh {script}"
    target_path, _ = write_target(tmp_path, grid16, n_time=4, seed=31)
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(tmp_path / "fc"),
                 "--inits", "2020-01-01T06:00:00,1,6",
                 "--step-hours", "6", "--max-lead-hours", "6",
                 "--forecaster", "external", "--external-cmd", cmd]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: init 2020-01-01T06:00:00")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    if stderr:
        assert err.strip().endswith("exited 7 at 2020-01-01T06:00:00+00:00: "
                                    "last line")
    assert not list(tmp_path.glob("fc/*.gvf"))


def test_external_forecaster_non_finite_output_exits_two_naming_init(
        tmp_path, grid16, capsys):
    # used to be post-processed and written, and rollout exited 0
    script = tmp_path / "nan.py"
    script.write_text(
        "import shutil, struct, sys\n"
        "shutil.copy(sys.argv[2], sys.argv[4])\n"
        "with open(sys.argv[4], 'r+b') as fh:\n"
        "    fh.seek(-4, 2)\n"  # the last cell of the last variable
        "    fh.write(struct.pack('<f', float('nan')))\n")
    states = _write_states(tmp_path / "states.gvf", grid16)
    assert main(["rollout", "--initial-states", str(states),
                 "--output-dir", str(tmp_path / "fc"),
                 "--inits", "2020-01-01T06:00:00,1,6",
                 "--step-hours", "6", "--max-lead-hours", "12",
                 "--forecaster", "external",
                 "--external-cmd", f"{sys.executable} {script}"]) == 2
    assert capsys.readouterr().err == (
        "data error: init 2020-01-01T06:00:00+00:00: external forecaster: "
        "non-finite output Q (single) at 2020-01-01T12:00:00+00:00\n")
    assert not list(tmp_path.glob("fc/*.gvf"))


def test_external_forecaster_timeout_exits_two(tmp_path, grid16, capsys,
                                              monkeypatch):
    monkeypatch.setattr(rollout, "_EXTERNAL_TIMEOUT_S", 0.3)
    script = tmp_path / "hang.sh"
    script.write_text("exec sleep 30\n")
    target_path, _ = write_target(tmp_path, grid16, n_time=4, seed=32)
    t0 = time.monotonic()
    assert main(["rollout", "--initial-states", str(target_path),
                 "--inits", "2020-01-01T00:00:00,1,6",
                 "--step-hours", "6", "--max-lead-hours", "6",
                 "--forecaster", "external", "--external-cmd", f"sh {script}",
                 "--output-dir", str(tmp_path / "fc")]) == 2
    assert time.monotonic() - t0 < 15
    err = capsys.readouterr().err
    assert err.startswith("data error: init 2020-01-01T00:00:00")
    assert "within 0.3 s" in err
    assert not list(tmp_path.glob("fc/*.gvf"))


@pytest.mark.parametrize("flag,value", [
    ("--start", "2021-06-01T00:00:00+05:00"),
    ("--inits", "2021-06-01T00:00:00+05:00,2,6"),
    ("--init-times", "2020-01-01T00:00:00Z,2020-01-01T06:00:00+05:00"),
    # strptime took these; a time is read in the one zero-padded form
    ("--start", "2021-6-1T00:00:00"),
    ("--inits", "2021-06-01T0:00:00Z,2,6"),
])
def test_time_with_utc_offset_is_a_usage_error(tmp_path, grid16, capsys, flag,
                                               value):
    if flag == "--start":
        argv = ["solar", "--grid", "gaussian:8x16",
                "--output", str(tmp_path / "solar.gvf")]
    else:
        target_path, _ = write_target(tmp_path, grid16)
        argv = ["rollout", "--initial-states", str(target_path),
                "--output-dir", str(tmp_path / "fc")]
    assert main(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert f"error: {flag}:" in err
    assert "YYYY-MM-DDTHH:MM:SS[Z]" in err
    assert "+05:00Z" not in err
    assert not (tmp_path / "solar.gvf").exists()
    assert not (tmp_path / "fc").exists()


@pytest.mark.parametrize("kind", ["gaussian", "equiangular"])
@pytest.mark.parametrize("dims,word", [
    ("8x15", "n_lon"), ("8x2", "n_lon"), ("1x4", "n_lat"), ("0x16", "n_lat"),
    ("8x0", "n_lon"), ("-8x16", "n_lat"), ("8x-16", "n_lon")])
def test_solar_grid_of_a_bad_size_is_a_usage_error(tmp_path, capsys, kind,
                                                   dims, word):
    # the grid's own checks used to exit 3 without naming --grid
    spec = f"{kind}:{dims}"
    assert main(["solar", "--grid", spec, "--start", "2021-06-01T00:00:00",
                 "--output", str(tmp_path / "solar.gvf")]) == 1
    err = capsys.readouterr().err
    assert f"error: --grid: {spec!r}:" in err and word in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("windows", ["0", "-2"])
def test_solar_nonpositive_windows_is_a_usage_error(tmp_path, capsys, windows):
    out = tmp_path / "solar.gvf"
    assert main(["solar", "--grid", "gaussian:8x16",
                 "--start", "2021-06-01T00:00:00", "--windows", windows,
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--windows must be at least 1, got {windows}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name,argv,doc,key", [
    ("spectrum", [], {"kind": "bogus"}, "kind"),
    ("stats", [], {"residual": "no"}, "residual"),
    ("solar", ["--grid", "gaussian:8x16", "--start", "2020-01-01T00:00:00"],
     {"windows": "2"}, "windows"),
    ("pad", [], {"pad_ns": "2"}, "pad_ns"),
    ("solar", ["--grid", "gaussian:8x16", "--start", "2020-01-01T00:00:00"],
     {"window_hours": True}, "window_hours"),
    ("pad", [], ["pad_ns", 2], None),
])
def test_config_value_the_flag_could_not_give_exits_three(tmp_path, grid16,
                                                          capsys, name, argv,
                                                          doc, key):
    inp = tmp_path / "in.gvf"
    write_container({("T", "single"): make_series(grid16, n_time=2, seed=12)},
                    inp, dtype="f64")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if name != "solar":
        argv = argv + ["--input", str(inp)]
    assert main([name, "--config", str(cfg), "--output", str(out), *argv]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}: config" in err and "Traceback" not in err
    if key:
        assert f"config key {key!r}" in err
    assert not out.exists() and not Path(str(out) + ".manifest.json").exists()


def test_config_null_is_unset_and_ints_stay_ints(tmp_path, grid16):
    src = {("T", "single"): make_series(grid16, n_time=2, seed=13)}
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "theta", "t_var": "T", "pressure": 700,
                               "u_var": None, "l_max": None}))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(cfg), "--input", str(inp),
                 "--output", str(out)]) == 0
    manifest = (tmp_path / "spec.csv.manifest.json").read_text()
    assert '"pressure": 700,' in manifest
    config = json.loads(manifest)["config"]
    assert config["u_var"] == "U500" and config["l_max"] is None


@pytest.mark.parametrize("argv,flag,form", [
    (["filter", "--diffuse", "1e-5"], "--diffuse", "NU_DT,STEPS"),
    (["filter", "--pole-filter", "abc"], "--pole-filter",
     "START_LAT[,REF_LAT]"),
    (["filter", "--pole-filter", "60,70,80"], "--pole-filter",
     "START_LAT[,REF_LAT]"),
    (["rollout", "--inits", "2021-01-01T00:00:00,2"], "--inits",
     "START,COUNT,STRIDE_HOURS"),
    (["rollout", "--inits", "2020-01-01T00:00:00,2,6h"], "--inits",
     "START,COUNT,STRIDE_HOURS"),
    (["rollout", "--postprocess", '[{"params": {}}]'], "--postprocess",
     "JSON list"),
    (["rollout", "--postprocess", '{"kind": "clamp_nonnegative"}'],
     "--postprocess", "JSON list"),
    (["rollout", "--postprocess", '[{"kind": "laplacian_diffuse"}]'],
     "--postprocess", "step 1: laplacian_diffuse: missing parameter 'nu_dt'"),
    (["rollout", "--postprocess",
      '[{"kind": "clamp_nonnegative", "params": {"floor": "x"}}]'],
     "--postprocess", "step 1: clamp_nonnegative: floor must be"),
    (["rollout", "--postprocess", '[{"kind": "clamp_nonnegative"}, '
      '{"kind": "laplacian_diffuse", "params": {"nu_dt": 1e-5, "steps": 1.5}}]'],
     "--postprocess", "step 2: laplacian_diffuse: steps must be an integer"),
    (["rollout", "--postprocess",
      '[{"kind": "laplacian_diffuse", "params": {"nu_dt": 1e-5, "steps": true}}]'],
     "--postprocess", "step 1: laplacian_diffuse: steps must be an integer"),
    (["rollout", "--postprocess",
      '[{"kind": "laplacian_diffuse", "params": {"nu_dt": -1}}]'],
     "--postprocess", "step 1: laplacian_diffuse: nu_dt must be non-negative"),
    (["rollout", "--postprocess",
      '[{"kind": "pole_filter", "params": {"start_lat": 60, "bogus": 1}}]'],
     "--postprocess", "step 1: pole_filter: unknown parameter 'bogus'"),
    (["rollout", "--postprocess",
      '[{"kind": "clamp_nonnegative", "variables": "QV"}]'],
     "--postprocess", "step 1: clamp_nonnegative: variables must be a"),
    (["rollout", "--forecaster", "persistence",
      "--postprocess", '[{"kind": "clamp_nonnegative"}]'],
     "--postprocess", "external forecaster only, not 'persistence'"),
    (["rollout", "--forecaster", "climatology",
      "--postprocess", '[{"kind": "clamp_nonnegative"}]'],
     "--postprocess", "external forecaster only, not 'climatology'"),
])
def test_malformed_compound_flag_is_a_usage_error(tmp_path, grid16, capsys,
                                                  argv, flag, form):
    inp, _ = write_target(tmp_path, grid16, n_time=4, seed=14)
    if argv[0] == "filter":
        argv = argv + ["--input", str(inp), "--output", str(tmp_path / "f.gvf")]
    else:
        argv = argv[:1] + ["--initial-states", str(inp),
                           "--max-lead-hours", "6",
                           "--output-dir", str(tmp_path / "fc"),
                           *_marker_forecaster(tmp_path)] + argv[1:]
        if "--inits" not in argv:
            argv += ["--inits", "2020-01-01T00:00:00,1,6"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and form in err
    # no marker from the forecaster, no output
    assert {p.name for p in tmp_path.iterdir()} <= {"target.gvf", "touch.sh"}


def _marker_forecaster(tmp_path):
    """Flags for an identity external forecaster that leaves a marker
    file beside its script when it runs."""
    script = tmp_path / "touch.sh"
    script.write_text(f"touch {tmp_path / 'marker'}\n" + IDENTITY_SH)
    return ["--forecaster", "external", "--external-cmd", f"sh {script}"]


def test_unstable_postprocess_diffusion_exits_before_first_step(tmp_path,
                                                                grid16,
                                                                capsys):
    from spherecast.filters import diffusion_stability_bound
    inp, _ = write_target(tmp_path, grid16, n_time=4, seed=14)
    nu_dt = 1.5 * diffusion_stability_bound(grid16)
    steps = [{"kind": "clamp_nonnegative"},
             {"kind": "laplacian_diffuse", "params": {"nu_dt": nu_dt}}]
    assert main(["rollout", "--initial-states", str(inp), "--max-lead-hours",
                 "6", "--inits", "2020-01-01T00:00:00,2,6",
                 "--output-dir", str(tmp_path / "fc"),
                 *_marker_forecaster(tmp_path),
                 "--postprocess", json.dumps(steps)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: postprocess step 2: nu_dt=")
    assert "stability bound" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.gvf",
                                                          "touch.sh"]


def _replay_stage(name, tmp_path, grid16):
    """(argv without its output flag, output flag) for one stage, after
    writing the inputs it reads."""
    inp = tmp_path / "in.gvf"
    write_container({("T", "single"): make_series(grid16, n_time=4, seed=15),
                     ("Q", "single"): make_series(grid16, "Q", n_time=4,
                                                  seed=16)}, inp, dtype="f64")
    stats = tmp_path / "stats.json"
    assert main(["stats", "--input", str(inp), "--output", str(stats)]) == 0
    target, _ = write_target(tmp_path, grid16, n_time=8, seed=17)
    fc = tmp_path / "fc"
    identity = tmp_path / "identity.sh"
    identity.write_text(IDENTITY_SH)
    rollout = ["rollout", "--initial-states", str(target),
               "--inits", "2020-01-01T00:00:00,2,6", "--max-lead-hours", "12",
               "--forecaster", "external", "--external-cmd", f"sh {identity}",
               "--postprocess", '[{"kind": "clamp_nonnegative"}]']
    if name == "climatology":
        times = [T0 + timedelta(hours=6 * k) for k in range(4 * 730)]
        vals = np.random.default_rng(18).normal(size=(len(times),)
                                                + grid16.shape)
        series = FieldSeries(grid16, "T", "single", times, vals)
        write_container({series.key: series}, inp, dtype="f32")
    if name == "verify":
        assert main(rollout + ["--output-dir", str(fc)]) == 0
    clim = write_zero_climatology(tmp_path, grid16, [("T", "single")])
    return {
        "stats": (["stats", "--input", str(inp), "--no-residual"], "--output"),
        "normalize": (["normalize", "--input", str(inp), "--stats", str(stats),
                       "--dtype", "f32"], "--output"),
        "climatology": (["climatology", "--input", str(inp), "--window-days",
                         "31", "--std-days", "5"], "--output"),
        "solar": (["solar", "--grid", "gaussian:8x16", "--start",
                   "2020-03-20T00:00:00Z", "--windows", "2",
                   "--window-hours", "1"], "--output"),
        "filter": (["filter", "--input", str(inp), "--diffuse", "1e-5,2",
                    "--pole-filter", "60"], "--output"),
        "pad": (["pad", "--input", str(inp), "--pad-ns", "2", "--pad-ew", "3",
                 "--mode", "reflect_only"], "--output"),
        "spectrum": (["spectrum", "--input", str(inp), "--l-max", "6",
                      "--level", "single"], "--output"),
        "rollout": (rollout, "--output-dir"),
        "verify": (["verify", "--forecast-dir", str(fc), "--target",
                    str(target), "--climatology", str(clim), "--bootstrap",
                    "30", "--seed", "5"], "--output"),
    }[name]


def _tree_bytes(path):
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())
                if not p.name.endswith(".manifest.json")}
    return path.read_bytes()


def _manifest(output):
    if output.is_dir():
        return output / "rollout.manifest.json"
    return Path(str(output) + ".manifest.json")


@pytest.mark.parametrize("name", ["stats", "normalize", "climatology", "solar",
                                  "filter", "pad", "spectrum", "rollout",
                                  "verify"])
def test_manifest_config_replays_byte_identical(tmp_path, grid16, name):
    argv, out_flag = _replay_stage(name, tmp_path, grid16)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + [out_flag, str(first)]) == 0
    text = _manifest(first).read_text()
    assert json.loads(text)["subcommand"] == name
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(json.loads(text)["config"]))
    assert main([name, "--config", str(cfg), out_flag, str(second)]) == 0
    assert _tree_bytes(second) == _tree_bytes(first)
    assert _manifest(second).read_text() == text.replace(str(first),
                                                         str(second))


@pytest.mark.parametrize("extra,flag", [
    (["--external-cmd", "nonexistent-program"], "--external-cmd"),
    (["--forecaster", "external", "--external-cmd", "nonexistent-program",
      "--climatology", "missing.gvf"], "--climatology"),
    (["--climatology", "missing.gvf"], "--climatology"),
])
def test_rollout_flag_for_another_forecaster_is_a_usage_error(
        tmp_path, grid16, capsys, extra, flag):
    # used to exit 0 ignoring --external-cmd, or 2 on a missing climatology
    target_path, _ = write_target(tmp_path, grid16, n_time=4, seed=33)
    assert main(["rollout", "--initial-states", str(target_path),
                 "--output-dir", str(tmp_path / "fc"),
                 "--inits", "2020-01-01T00:00:00,1,6",
                 "--max-lead-hours", "6", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} applies to --forecaster ")
    assert not (tmp_path / "fc").exists()


@pytest.mark.parametrize("argv, flag", [
    (["stats", "--no-residual", "--denominator", "standardized"],
     "--denominator"),
    (["correlate", "--difference-output", "diff.csv"], "--difference-output"),
])
def test_flag_without_effect_is_a_usage_error(tmp_path, grid16, capsys,
                                              argv, flag):
    # both used to exit 0 ignoring the flag
    inp = tmp_path / "in.gvf"
    write_container([make_series(grid16, "T", n_time=3, seed=24),
                     make_series(grid16, "U", n_time=3, seed=25)], inp,
                    dtype="f64")
    out = tmp_path / "out"
    assert main(argv + ["--input", str(inp), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} applies ")
    assert not out.exists() and not (tmp_path / "diff.csv").exists()
    # at its default, as a replayed manifest gives it, the flag is taken
    default = {"--denominator": ["--denominator", "tendency"],
               "--difference-output": []}[flag]
    assert main(argv[:1] + argv[1:-2] + default
                + ["--input", str(inp), "--output", str(out)]) == 0


def _peak_bytes(fn):
    """fn()'s return value and the peak of what it allocated, as traced."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _write_f32_input(path, grid, n_time, variables, seed, step_hours=6):
    rng = np.random.default_rng(seed)
    times = [T0 + timedelta(hours=step_hours * k) for k in range(n_time)]
    write_container([FieldSeries(grid, name, "single", times,
                                 rng.normal(size=(n_time,) + grid.shape))
                     for name in variables], path, dtype="f32")


def test_verify_scores_init_by_init_in_bounded_memory(tmp_path, grid64):
    # 20 inits x 41 leads x 2 variables at 64x128 are 107 MB as float64
    inp = tmp_path / "in.gvf"
    _write_f32_input(inp, grid64, 60, ["T", "Q"], seed=34)
    assert main(["rollout", "--initial-states", str(inp),
                 "--inits", "2020-01-01T00:00:00,20,6",
                 "--output-dir", str(tmp_path / "fc")]) == 0
    whole = 20 * 41 * 2 * grid64.n_lat * grid64.n_lon * 8
    code, peak = _peak_bytes(lambda: main([
        "verify", "--forecast-dir", str(tmp_path / "fc"), "--target", str(inp),
        "--metrics", "rmse", "--bootstrap", "100",
        "--output", str(tmp_path / "scores.csv")]))
    assert code == 0
    assert peak < whole / 10
    records = read_scores(tmp_path / "scores.csv")
    assert len(records) == 2 * 41
    assert all(r.n_inits == 20 for r in records)
    assert [r.value for r in records if r.lead_hours == 0] == [0.0, 0.0]
    assert all(r.value > 0.5 for r in records if r.lead_hours > 0)


def test_normalize_allocates_well_under_its_input(tmp_path, grid64):
    inp = tmp_path / "in.gvf"
    _write_f32_input(inp, grid64, 800, ["T", "Q"], seed=35)
    stats = tmp_path / "stats.json"
    assert main(["stats", "--input", str(inp), "--output", str(stats)]) == 0
    code, peak = _peak_bytes(lambda: main([
        "normalize", "--input", str(inp), "--stats", str(stats),
        "--output", str(tmp_path / "norm.gvf")]))
    assert code == 0
    assert peak < inp.stat().st_size / 4


def test_external_rollout_holds_one_init_at_a_time(tmp_path, grid64):
    # two inits; one init's float64 forecast is 21 x 3 fields, 4.1 MB
    inp = tmp_path / "in.gvf"
    _write_f32_input(inp, grid64, 2, ["T", "Q", "Z"], seed=36)
    script = tmp_path / "identity.sh"
    script.write_text(IDENTITY_SH)
    one_init = 21 * 3 * grid64.n_lat * grid64.n_lon * 8
    code, peak = _peak_bytes(lambda: main([
        "rollout", "--initial-states", str(inp),
        "--inits", "2020-01-01T00:00:00,2,6", "--max-lead-hours", "120",
        "--forecaster", "external", "--external-cmd", f"sh {script}",
        "--output-dir", str(tmp_path / "fc")]))
    assert code == 0
    assert peak < 1.5 * one_init
    persistence = tmp_path / "per"
    assert main(["rollout", "--initial-states", str(inp),
                 "--inits", "2020-01-01T00:00:00,2,6",
                 "--max-lead-hours", "120",
                 "--output-dir", str(persistence)]) == 0
    assert _tree_bytes(tmp_path / "fc") == _tree_bytes(persistence)


def test_external_rollout_holds_its_state_not_every_lead(tmp_path, grid64):
    # 6 variables at 64x128: one state is 0.4 MB, and the 21 leads of the
    # init, all held before leads were streamed, are 8.3 MB.  Diffusion's
    # band scratch (three arrays of at most _BAND_BYTES) covers a whole
    # 64x128 field, and numpy's ufunc buffers (at most 64 KiB) add about
    # one more field to it
    from spherecast.filters import diffusion_stability_bound
    inp = tmp_path / "in.gvf"
    variables = ["T", "Q", "Z", "U", "V", "W"]
    _write_f32_input(inp, grid64, 1, variables, seed=38)
    script = tmp_path / "identity.sh"
    script.write_text(IDENTITY_SH)
    steps = [{"kind": "clamp_nonnegative", "variables": ["Q"]},
             {"kind": "laplacian_diffuse", "params": {
                 "nu_dt": diffusion_stability_bound(grid64) / 2, "steps": 2}},
             {"kind": "pole_filter", "params": {"start_lat": 60}}]
    field = grid64.n_lat * grid64.n_lon * 8

    def run(out_dir, max_lead):
        return main(["rollout", "--initial-states", str(inp),
                     "--inits", "2020-01-01T00:00:00,1,6",
                     "--max-lead-hours", str(max_lead),
                     "--forecaster", "external",
                     "--external-cmd", f"sh {script}",
                     "--postprocess", json.dumps(steps),
                     "--output-dir", str(out_dir)])
    # one step first, so that modules imported on first use are not counted
    assert run(tmp_path / "warm", 6) == 0
    code, peak = _peak_bytes(lambda: run(tmp_path / "fc", 120))
    assert code == 0
    assert peak < 2 * len(variables) * field + 4 * field
    assert len(read_container(
        tmp_path / "fc" / "init_20200101T000000Z.gvf").times) == 21


def test_spectrum_holds_one_pass_not_every_row(tmp_path, grid64):
    # 300 times x 3 variables at 64x128: one variable's float64 stack is
    # 19.7 MB; a pass is 2 MiB of rows and the power array 0.5 MB
    inp = tmp_path / "in.gvf"
    _write_f32_input(inp, grid64, 300, ["T", "Q", "Z"], seed=37)
    one_variable = 300 * grid64.n_lat * grid64.n_lon * 8
    out = tmp_path / "spec.csv"
    code, peak = _peak_bytes(lambda: main([
        "spectrum", "--input", str(inp), "--output", str(out)]))
    assert code == 0
    assert peak < one_variable / 2
    rows = _spectrum_csv(out)
    assert len(rows) == 3 * 300 * 64
    assert {v for v, _, _ in rows} == {"T", "Q", "Z"}


@pytest.mark.parametrize("kind, flags, n_keys", [
    ("power", [], 3),
    ("kinetic", ["--u-var", "U", "--v-var", "V", "--level", "single"], 2),
])
def test_spectrum_pass_holds_the_fold_not_the_pass(tmp_path, kind, flags,
                                                   n_keys):
    # 4 times x 3 variables of float64 at 256x512: a pass of 4 rows has
    # work arrays too large to keep; it used to be read whole into an
    # array beside its fold (and for kinetic stacked once more)
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(256, 512)
    times = [T0 + timedelta(hours=6 * k) for k in range(4)]
    rng = np.random.default_rng(96)
    inp = tmp_path / "in.gvf"
    write_container([FieldSeries(grid, name, "single", times,
                                 rng.normal(size=(4,) + grid.shape))
                     for name in ("U", "V", "Z")], inp, dtype="f64")
    field = 8 * 256 * 512
    fold = 16 * 2 * 256 * 128 * 4 * n_keys
    out = tmp_path / "spec.csv"
    code, peak = _peak_bytes(lambda: main([
        "spectrum", "--input", str(inp), "--output", str(out),
        "--kind", kind] + flags))
    assert code == 0
    assert peak <= fold + 2 * field + 2 * 2 ** 21
    assert len(_spectrum_csv(out)) == 4 * 256 * (3 if kind == "power" else 1)


def test_spectrum_fault_in_a_pass_leaves_the_transform_usable(
        tmp_path, monkeypatch, capsys):
    # a NaN in the last field of a 12-field pass, read a field at a time
    # after the other 11 are folded: one error line, no output, and the
    # cached transform then gives the committed bytes
    from spherecast import container, make_gaussian_grid, sht
    grid = make_gaussian_grid(16, 32)
    times = [T0 + timedelta(hours=6 * k) for k in range(9)]
    rng = np.random.default_rng(97)
    series = [FieldSeries(grid, name, "single", times,
                          rng.normal(size=(9,) + grid.shape))
              for name in ("U", "V", "T")]
    series[2].values[3, 5, 7] = np.nan
    bad = tmp_path / "bad"
    bad.mkdir()
    inp = bad / "in.gvf"
    write_container(series, inp, dtype="f64")
    monkeypatch.setattr(container, "_BLOCK_BYTES", 1)
    with monkeypatch.context() as m:
        m.setattr(sht, "_FFT_BYTES", 1)
        assert main(["spectrum", "--input", str(inp),
                     "--output", str(bad / "spec.csv")]) == 3
    assert capsys.readouterr().err == (
        f"error: {inp}: non-finite values in T (single) at "
        f"{times[3].isoformat()}\n")
    assert [p.name for p in bad.iterdir()] == ["in.gvf"]
    want = json.loads((DATA / "spectrum_digests.json").read_text())
    assert _spectrum_digests(tmp_path, monkeypatch) == want["sha256"]


@pytest.mark.parametrize("kind, keys, calls", [
    ("power", ["--kind", "power"], [12, 12, 3]),
    ("kinetic", ["--kind", "kinetic", "--u-var", "T", "--v-var", "Q",
                 "--level", "single"], [8, 8, 2]),
])
def test_spectrum_pass_holds_eight_fields_when_a_row_exceeds_its_budget(
        tmp_path, grid16, monkeypatch, kind, keys, calls):
    # each transform call of a large grid reruns the Legendre recurrence,
    # so a pass of large fields still takes 8 of them (rounded up to an
    # even count), not one row; the CSV does not depend on the pass size
    from spherecast import container
    from spherecast.sht import SphericalHarmonicTransform
    inp = tmp_path / "in.gvf"
    _write_f32_input(inp, grid16, 9, ["T", "Q", "Z"], seed=39)
    whole, passes = tmp_path / "whole.csv", tmp_path / "passes.csv"
    args = ["spectrum", "--input", str(inp)] + keys
    assert main(args + ["--output", str(whole)]) == 0
    sizes = []
    power_spectrum_of = SphericalHarmonicTransform.power_spectrum_of

    def counted(self, fill, n):
        sizes.append(n)
        return power_spectrum_of(self, fill, n)

    monkeypatch.setattr(SphericalHarmonicTransform, "power_spectrum_of",
                        counted)
    monkeypatch.setattr(container, "_BLOCK_BYTES", 1)
    assert main(args + ["--output", str(passes)]) == 0
    assert sizes == calls
    assert passes.read_bytes() == whole.read_bytes()


def test_climatology_writes_each_bin_set_as_it_is_made(tmp_path, grid64):
    # a daily year of 3 variables at 64x128: each variable's float64
    # climatology is 23.9 MB, and only one is held at a time
    inp = tmp_path / "in.gvf"
    _write_f32_input(inp, grid64, 365, ["T", "Q", "Z"], seed=38,
                     step_hours=24)
    one_variable = 365 * grid64.n_lat * grid64.n_lon * 8
    out = tmp_path / "clim.gvf"
    code, peak = _peak_bytes(lambda: main([
        "climatology", "--input", str(inp), "--output", str(out),
        "--dtype", "f32"]))
    assert code == 0
    assert peak < 2.5 * one_variable
    c = read_container(inp)
    expect = compute_climatology(c)
    got = Climatology.from_container(out)
    assert got.hours == [0] and got.keys == c.keys
    for key in c.keys:
        assert np.array_equal(
            got.read(slice(None), key).reshape(expect.data[key].shape),
            expect.data[key].astype(np.float32))


def test_climatology_keeps_the_input_units(tmp_path, grid16):
    # used to write units "1" for any variable not in grid.VARIABLES
    times = [T0 + timedelta(hours=24 * k) for k in range(365)]
    rng = np.random.default_rng(39)
    src = [FieldSeries(grid16, name, level, times,
                       rng.normal(size=(365,) + grid16.shape), units=units)
           for name, level, units in (("T850", "single", "K"),
                                      ("Q", "700", "g kg-1"),
                                      ("Z500", "single", "m"))]
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f32")
    out = tmp_path / "clim.gvf"
    assert main(["climatology", "--input", str(inp), "--output", str(out)]) == 0
    expect = [("T850", "single", "K"), ("Q", "700", "g kg-1"),
              ("Z500", "single", "m")]
    assert read_container(out).variables == expect
    clim = Climatology.from_container(out)
    assert clim.units == {(n, l): u for n, l, u in expect}
    again = tmp_path / "again.gvf"
    clim.to_container(again)
    assert again.read_bytes() == out.read_bytes()
    # the library path keeps them too
    compute_climatology(read_container(inp)).to_container(again)
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("kind,extra", [
    ("power", ["--level", "500"]),
    ("power", ["--u-var", "U850"]),
    ("power", ["--t-var", "T850"]),
    ("power", ["--pressure", "700"]),
    ("power", ["--no-half"]),
    ("kinetic", ["--t-var", "T850"]),
    ("kinetic", ["--pressure", "700"]),
    ("theta", ["--v-var", "V850"]),
    ("theta", ["--no-half"]),
])
def test_spectrum_flag_the_kind_does_not_read_is_a_usage_error(
        tmp_path, capsys, kind, extra):
    # used to exit 0 ignoring the flag; the missing input shows that the
    # error comes before any read
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(tmp_path / "missing.gvf"),
                 "--output", str(out), "--kind", kind, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {extra[0]} applies to --kind ")
    assert repr(kind) in err.splitlines()[0]
    assert not out.exists()
    # a kind that reads the flag takes it, and then fails on the input;
    # at their defaults (as a replayed manifest gives them) none is refused
    reader = {"--u-var": "kinetic", "--v-var": "kinetic", "--no-half": "kinetic",
              "--level": "theta", "--t-var": "theta", "--pressure": "theta"}
    for argv in (["--kind", reader[extra[0]], *extra],
                 ["--kind", kind, "--level", "single", "--pressure", "500",
                  "--u-var", "U500"]):
        assert main(["spectrum", "--input", str(tmp_path / "missing.gvf"),
                     "--output", str(out), *argv]) == 2


@pytest.mark.parametrize("l_max", [-1, 16, 40])
def test_spectrum_l_max_out_of_range_exits_three_before_reading(
        tmp_path, grid16, capsys, l_max):
    # the payload's NaN would be reported first if anything were read
    series = make_series(grid16, "Z500", n_time=2, seed=44)
    series.values[0, 0, 0] = np.nan
    inp = tmp_path / "in.gvf"
    write_container([series], inp, dtype="f64")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(out),
                 "--l-max", str(l_max)]) == 3
    err = capsys.readouterr().err
    assert f"--l-max {l_max}" in err and str(inp) in err and "0..15" in err
    assert "non-finite" not in err
    assert not out.exists()


def test_spectrum_l_max_zero_is_the_mean_square_only(tmp_path):
    # --l-max 0 used to mean the grid's largest degree
    inp = tmp_path / "fixture.gvf"
    _, series = make_spectrum_fixture(inp)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(out),
                 "--l-max", "0"]) == 0
    rows = _spectrum_csv(out)
    assert sorted(rows) == [("Z500", 0, 0), ("Z500", 6, 0)]
    weights = series.grid.quad_weights[:, None] / series.grid.n_lon
    for i, lead in enumerate((0, 6)):
        mean = float((weights * series.values[i]).sum()) / 2
        assert float(rows[("Z500", lead, 0)]) == pytest.approx(
            4 * np.pi * mean ** 2, rel=1e-8)


def test_empty_time_axis_climatology_exits_three_and_spectrum_is_header_only(
        tmp_path, grid16, capsys):
    # climatology used to write a climatology with no bins; spectrum
    # failed with an IndexError traceback
    empty = FieldSeries(grid16, "T", "single", [], np.zeros((0,) + grid16.shape))
    inp = tmp_path / "in.gvf"
    write_container([empty], inp)
    out = tmp_path / "clim.gvf"
    assert main(["climatology", "--input", str(inp), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {inp}: climatology input has no times\n")
    assert not out.exists()
    spec = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(spec)]) == 0
    assert spec.read_text() == "variable,lead_hours,m,power\n"
    # a variable the kind reads and the file lacks is a data error even
    # with no times to read
    capsys.readouterr()
    missing = tmp_path / "missing.csv"
    assert main(["spectrum", "--input", str(inp), "--output", str(missing),
                 "--kind", "theta", "--t-var", "Q", "--level", "single"]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {inp}: ")
    assert not missing.exists()


def test_solar_holds_one_window_not_all(tmp_path):
    # 48 one-hour windows at 64x128 are 3 MB of float64 fields; each is
    # written as it is made, so 48 windows allocate no more than one
    def peak(windows):
        return _peak_bytes(lambda: main([
            "solar", "--grid", "gaussian:64x128", "--windows", str(windows),
            "--start", "2020-03-20T00:00:00", "--window-hours", "1",
            "--output", str(tmp_path / f"solar{windows}.gvf")]))
    (code_one, one), (code_many, many) = peak(1), peak(48)
    assert code_one == code_many == 0
    assert many < one + 4 * 64 * 128 * 8
    c = read_container(tmp_path / "solar48.gvf")
    assert len(c.times) == 48
    assert np.array_equal(c.values(0, "Is"),
                          read_container(tmp_path / "solar1.gvf").values(0, "Is"))


@pytest.mark.parametrize("argv", [["filter", "--diffuse", "1e-5,2"],
                                  ["filter", "--pole-filter", "60"],
                                  ["pad", "--pad-ns", "2", "--pad-ew", "2"]])
def test_filter_and_pad_of_non_finite_input_exit_three(tmp_path, grid16,
                                                       capsys, argv):
    # both used to exit 0 and write the NaN through
    src = [make_series(grid16, "T", n_time=3, seed=50),
           make_series(grid16, "Q", n_time=3, seed=51)]
    src[1].values[2, 5, 6] = np.nan
    inp, out = tmp_path / "in.gvf", tmp_path / "out.gvf"
    write_container(src, inp, dtype="f64")
    assert main(argv + ["--input", str(inp), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(inp) in err and "Q (single)" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.gvf"]


def _stats_input(tmp_path, grid, t_values=None):
    src = [make_series(grid, "T", n_time=4, seed=52, values=t_values),
           make_series(grid, "Z", n_time=4, seed=53)]
    inp = tmp_path / "in.gvf"
    write_container(src, inp, dtype="f64")
    return inp


def test_stats_of_a_variable_constant_in_time_exits_three(tmp_path, grid16,
                                                         capsys):
    # used to fail with a bare "float division by zero"
    field = np.random.default_rng(55).normal(size=grid16.shape)
    inp = _stats_input(tmp_path, grid16, np.stack([field] * 4))
    out = tmp_path / "stats.json"
    assert main(["stats", "--input", str(inp), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(inp) in err and "T (single)" in err and "zero" in err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ('{"entries": {"T|single": {"mu": 1.0, "xi": 1.0}}}', "sigma"),
    ('{"entries": {"T|single": {"mu": 1.0, "sigma": 0, "xi": 1.0}}}', "sigma"),
    ('{"entries": {"T|single": {"mu": "1", "sigma": 2.0, "xi": 1.0}}}', "mu"),
    ('{"entries": {"T|single": {"mu": 1.0, "sigma": 2.0, "xi": true}}}', "xi"),
    ('{"entries": {"T|single": [1.0, 2.0, 1.0]}}', "T|single"),
    ('{"entries": [1.0, 2.0, 1.0]}', "entries"),
    ('[{"mu": 1.0, "sigma": 2.0, "xi": 1.0}]', "not a JSON object"),
    ('{"entries": {"T|single": {"mu": 1.0, "sigma": 2.0', "Expecting"),
    ('{"period": 5, "entries": {"T|single": '
     '{"mu": 1.0, "sigma": 2.0, "xi": 1.0}}}', "period"),
    ('{"period": ["2020-01-01T00:00:00"], "entries": {"T|single": '
     '{"mu": 1.0, "sigma": 2.0, "xi": 1.0}}}', "period"),
    ('{"period": [2020, 2021], "entries": {"T|single": '
     '{"mu": 1.0, "sigma": 2.0, "xi": 1.0}}}', "period"),
])
def test_malformed_stats_file_exits_three_naming_file_and_key(
        tmp_path, grid16, capsys, text, named):
    # a missing key used to exit 2 as "data error: sigma", a JSON list
    # raised a TypeError, and bad JSON named no file
    inp = _stats_input(tmp_path, grid16)
    stats = tmp_path / "stats.json"
    stats.write_text(text)
    out = tmp_path / "norm.gvf"
    assert main(["normalize", "--input", str(inp), "--stats", str(stats),
                 "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(stats) in err and named in err
    assert not out.exists()


def test_every_stats_file_written_loads(tmp_path, grid16):
    from spherecast.preprocess import NormStats, StatEntry
    inp = _stats_input(tmp_path, grid16)
    for residual in ("--residual", "--no-residual"):
        out = tmp_path / f"stats{residual}.json"
        assert main(["stats", "--input", str(inp), "--output", str(out),
                     residual]) == 0
        assert NormStats.from_json(out).entries
    bad = NormStats(entries={("T", "single"): StatEntry(0.0, -1.0)})
    with pytest.raises(ValueError, match="sigma"):
        bad.to_json(tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("flag", ["stats", "gsc_csv"])
def test_missing_side_file_names_its_path(tmp_path, grid16, capsys, flag):
    # used to print "data error: 2", the errno
    missing = tmp_path / "absent.file"
    if flag == "stats":
        argv = ["normalize", "--input", str(_stats_input(tmp_path, grid16)),
                "--stats", str(missing)]
    else:
        argv = ["solar", "--grid", "gaussian:8x16",
                "--start", "2020-03-20T00:00:00", "--gsc-csv", str(missing)]
    assert main(argv + ["--output", str(tmp_path / "out.gvf")]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err
    assert not (tmp_path / "out.gvf").exists()


@pytest.mark.parametrize("row", ["2020,abc", "2021"])
def test_malformed_gsc_csv_row_exits_three_naming_file_and_line(
        tmp_path, capsys, row):
    # used to exit 3 naming neither, or to raise an IndexError
    gsc = tmp_path / "gsc.csv"
    gsc.write_text(f"year,value\n2019,1361.0\n{row}\n")
    out = tmp_path / "solar.gvf"
    assert main(["solar", "--grid", "gaussian:8x16",
                 "--start", "2020-03-20T00:00:00", "--gsc-csv", str(gsc),
                 "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{gsc}: line 3:" in err and repr(row) in err
    assert not out.exists()


def test_no_subcommand_constructs_a_field(tmp_path, grid16, monkeypatch):
    """Field and FieldSeries are types for callers: the stages pass the
    Container and plain arrays."""
    from spherecast.grid import Field
    made = []
    post_init, series_init = Field.__post_init__, FieldSeries.__init__

    def counted(self):
        made.append(self.variable)
        post_init(self)

    def series_counted(self, grid, variable, *args, **kwargs):
        made.append(variable)
        series_init(self, grid, variable, *args, **kwargs)
    monkeypatch.setattr(Field, "__post_init__", counted)
    monkeypatch.setattr(FieldSeries, "__init__", series_counted)
    Field(grid=grid16, values=np.zeros(grid16.shape), variable="T")
    FieldSeries(grid16, "Q", "single", [], np.zeros((0,) + grid16.shape))
    assert made == ["T", "Q"]  # the count sees both constructions
    inputs = {}
    for name in SUBCOMMANDS:  # the inputs are written before counting
        work = tmp_path / name
        work.mkdir()
        inputs[name] = _replay_stage(
            {"denormalize": "normalize", "correlate": "stats"}.get(name, name),
            work, grid16)
    made.clear()
    for name in SUBCOMMANDS:
        work = tmp_path / name
        argv, flag = inputs[name]
        if name == "denormalize":
            argv = [name] + argv[1:]
        elif name == "correlate":
            argv = [name, "--input", argv[2], "--reference", argv[2]]
        assert main(argv + [flag, str(work / "out")]) == 0, name
    assert made == []


def _write_uneven(path, grid, keys, seed, hours=(0, 6, 18, 19)):
    """An f64 container of keys at these hours of 1 Jan 2020 (by default
    00, 06, 18 and 19 UTC: times strictly increasing with an uneven step);
    the times and the values, one array per key."""
    times = [T0 + timedelta(hours=h) for h in hours]
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=(len(times),) + grid.shape) for _ in keys]
    with container_writer(path, grid, [(n, l, "K") for n, l in keys], times,
                          dtype="f64") as write:
        write(values)
    return times, values


@pytest.mark.parametrize("name", ["normalize", "denormalize", "filter", "pad"])
def test_row_stages_take_an_uneven_time_axis(tmp_path, grid16, name):
    """Each output row is the per-field operator's result.  These stages
    used to exit 3 with "time step must be constant"."""
    from spherecast.filters import (DiffusionSpec, PoleFilterSpec,
                                    diffuse_values, pole_filter_values)
    from spherecast.padding import PadSpec, pad
    from spherecast.preprocess import (NormStats, StatEntry, denormalize,
                                       normalize)
    keys = [("T", "single"), ("Q", "500")]
    inp, out, stats_path = (tmp_path / "in.gvf", tmp_path / "out.gvf",
                            tmp_path / "stats.json")
    times, values = _write_uneven(inp, grid16, keys, seed=60)
    stats = NormStats(entries={("T", "single"): StatEntry(0.5, 2.0, 0.8),
                               ("Q", "500"): StatEntry(-1.0, 0.5, 1.25)})
    stats.to_json(stats_path)
    argv, op = {
        "normalize": (["--stats", str(stats_path)],
                      lambda v, key: normalize(v, stats, *key)),
        "denormalize": (["--stats", str(stats_path)],
                        lambda v, key: denormalize(v, stats, *key)),
        "filter": (["--diffuse", "1e-5,2", "--pole-filter", "60"],
                   lambda v, key: pole_filter_values(
                       diffuse_values(v, grid16, DiffusionSpec(1e-5, 2)),
                       grid16, PoleFilterSpec(60.0))),
        "pad": (["--pad-ns", "2", "--pad-ew", "3"],
                lambda v, key: pad(v, PadSpec(2, 3))),
    }[name]
    assert main([name, "--input", str(inp), "--output", str(out)]
                + argv) == 0
    c = read_container(out)
    assert c.times == times
    for key, vals in zip(keys, values):
        for i, field in enumerate(vals):
            assert np.array_equal(c.values(i, *key), op(field, key))


@pytest.mark.parametrize("name", ["stats", "climatology", "rollout"])
def test_uneven_time_axis_error_names_the_file(tmp_path, grid16, capsys,
                                                name):
    """Only stats needs a constant step, for its one-step tendency.
    climatology takes the axis, and its error about the windows that one
    day of data leaves empty names the file; rollout succeeds.  All three
    used to exit 3 with "time step must be constant"."""
    inp, out = tmp_path / "in.gvf", tmp_path / "out"
    _write_uneven(inp, grid16, [("T", "single")], seed=61)
    argv = {"stats": ["--input", str(inp), "--output", str(out)],
            "climatology": ["--input", str(inp), "--output", str(out)],
            "rollout": ["--initial-states", str(inp), "--output-dir", str(out),
                        "--max-lead-hours", "6",
                        "--inits", "2020-01-01T00:00:00,1,6"]}[name]
    code = main([name] + argv)
    err = capsys.readouterr().err
    if name == "rollout":
        assert code == 0 and err == ""
        assert [p.name for p in out.glob("*.gvf")] == [
            "init_20200101T000000Z.gvf"]
        return
    assert code == 3 and not out.exists()
    assert err.startswith(f"error: {inp}: " + (
        "time step must be constant\n" if name == "stats"
        else "climatology windows without samples at (day, hour): (32, 0)"))


def test_rollout_and_verify_take_an_uneven_time_axis(tmp_path, grid16):
    """Each gives on an uneven axis what it gives on an even one that holds
    the rows it uses.  Both used to exit 3 with "time step must be
    constant"."""
    keys = [("T", "single"), ("Q", "500")]
    uneven, even = tmp_path / "uneven.gvf", tmp_path / "even.gvf"
    times, values = _write_uneven(uneven, grid16, keys, seed=64,
                                  hours=(0, 6, 12, 13))
    with container_writer(even, grid16, [(n, l, "K") for n, l in keys],
                          times[:3], dtype="f64") as write:
        write([v[:3] for v in values])
    clim = write_zero_climatology(tmp_path, grid16, keys)
    for name, states in (("uneven", uneven), ("even", even)):
        assert main(["rollout", "--initial-states", str(states),
                     "--output-dir", str(tmp_path / name),
                     "--inits", "2020-01-01T00:00:00,2,6",
                     "--max-lead-hours", "6"]) == 0
        assert main(["verify", "--forecast-dir", str(tmp_path / name),
                     "--target", str(states), "--climatology", str(clim),
                     "--bootstrap", "20",
                     "--output", str(tmp_path / f"{name}.csv")]) == 0
    assert _tree_bytes(tmp_path / "uneven") == _tree_bytes(tmp_path / "even")
    assert ((tmp_path / "uneven.csv").read_bytes()
            == (tmp_path / "even.csv").read_bytes())


def test_non_finite_climatology_bin_exits_three_naming_file_and_bin(
        tmp_path, capsys):
    # verify used to exit 3 with "T acc at 0h: value nan outside CI [nan,
    # nan]", and a climatology rollout to write the NaN into its forecasts
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(8, 16)
    target, _ = write_target(tmp_path, grid, n_time=8, seed=65)
    data = np.zeros((365, 4) + grid.shape)
    data[0, 1, 2, 3] = np.nan
    clim = tmp_path / "clim.gvf"
    Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                std_days=10.0, data={("T", "single"): data}).to_container(clim)
    inits = ["--inits", "2020-01-01T00:00:00,2,6", "--max-lead-hours", "6"]
    expect = f"error: {clim}: non-finite climatology T (single) at day 1, 06Z\n"
    fc, scores = tmp_path / "fc", tmp_path / "scores.csv"
    assert main(["rollout", "--initial-states", str(target), "--output-dir",
                 str(fc), "--forecaster", "climatology",
                 "--climatology", str(clim)] + inits) == 3
    assert capsys.readouterr().err == expect
    assert not fc.exists()
    assert main(["rollout", "--initial-states", str(target), "--output-dir",
                 str(fc)] + inits) == 0
    verify = ["verify", "--forecast-dir", str(fc), "--target", str(target),
              "--climatology", str(clim), "--output", str(scores)]
    assert main(verify) == 3
    assert capsys.readouterr().err == expect
    assert not scores.exists()
    # rmse reads no climatology bin
    assert main(verify + ["--metrics", "rmse"]) == 0


@pytest.mark.parametrize("meta, named", [
    ({"window_days": 61, "std_days": 10.0, "hours": 5}, "'hours'"),
    ([61, 10.0, [0, 6, 12, 18]], "is not a JSON object"),
    ({"window_days": 61, "std_days": 10.0}, "'hours'"),
    ({"window_days": "a", "std_days": 10.0, "hours": [0, 6, 12, 18]},
     "'window_days'"),
    ({"window_days": 61, "std_days": 10.0, "hours": [[0], 6, 12, 6]},
     "'hours'"),
])
def test_malformed_climatology_attrs_exit_two_naming_file_and_key(
        tmp_path, capsys, meta, named):
    # used to raise a TypeError traceback, or to print "data error: hours"
    # or "error: invalid literal for int()", naming no file
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(8, 16)
    target, _ = write_target(tmp_path, grid, n_time=8, seed=66)
    clim = tmp_path / "clim.gvf"
    t0 = datetime(1995, 1, 1, tzinfo=timezone.utc)
    times = [t0 + timedelta(days=d, hours=h)
             for d in range(365) for h in (0, 6, 12, 18)]
    with container_writer(clim, grid, [("T", "single", "K")], times,
                          attrs={"climatology": meta}) as write:
        write([np.zeros((len(times),) + grid.shape)])
    inits = ["--inits", "2020-01-01T00:00:00,2,6", "--max-lead-hours", "6"]
    fc = tmp_path / "fc"
    assert main(["rollout", "--initial-states", str(target),
                 "--output-dir", str(fc)] + inits) == 0
    outputs = tmp_path / "scores.csv", tmp_path / "clim_fc"
    for argv in (["verify", "--forecast-dir", str(fc), "--target", str(target),
                  "--output", str(outputs[0])],
                 ["rollout", "--initial-states", str(target), "--output-dir",
                  str(outputs[1]), "--forecaster", "climatology"] + inits):
        assert main(argv + ["--climatology", str(clim)]) == 2
        err = capsys.readouterr().err.splitlines()[0]
        assert err.startswith(f"data error: {clim}: attrs climatology ")
        assert named in err
    assert not any(out.exists() for out in outputs)


def test_climatology_of_non_finite_input_exits_three_naming_file(tmp_path,
                                                                 capsys):
    # used to exit 0 and write 365 NaN values into the climatology
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(8, 16)
    values = np.random.default_rng(62).normal(size=(1460,) + grid.shape)
    values[700, 3, 5] = np.nan
    series = make_series(grid, "T", n_time=1460, values=values)
    inp, out = tmp_path / "in.gvf", tmp_path / "clim.gvf"
    write_container([series], inp, dtype="f64")
    assert main(["climatology", "--input", str(inp),
                 "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inp}: non-finite values in T (single) "
                          f"at {series.times[700].isoformat()}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.gvf"]


def test_non_finite_initial_state_and_target_name_their_file(tmp_path,
                                                             grid16, capsys):
    # both used to name the variable and the time but not the file
    good, series = write_target(tmp_path, grid16, n_time=8, seed=63)
    bad = tmp_path / "bad.gvf"
    values = series.values.copy()
    values[1, 2, 3] = np.nan
    write_container([FieldSeries(grid16, "T", "single", series.times,
                                 values)], bad, dtype="f32")
    rollout = ["rollout", "--inits", "2020-01-01T00:00:00,2,6",
               "--max-lead-hours", "6"]
    fc = tmp_path / "fc"
    assert main(rollout + ["--initial-states", str(bad),
                           "--output-dir", str(fc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: non-finite initial state T "
                          f"(single) at {series.times[1].isoformat()}")
    assert not fc.exists()
    assert main(rollout + ["--initial-states", str(good),
                           "--output-dir", str(fc)]) == 0
    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(fc), "--target", str(bad),
                 "--metrics", "rmse", "--output", str(scores)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: non-finite target T (single) at "
                          f"{series.times[1].isoformat()}")
    assert not scores.exists()


def _write_states(path, grid, names=("T", "Q"), n_time=8, seed=70):
    """An f32 container of names (level single) on grid, 6-hourly from T0."""
    rng = np.random.default_rng(seed)
    times = [T0 + timedelta(hours=6 * k) for k in range(n_time)]
    write_container([FieldSeries(grid, name, "single", times,
                                 rng.normal(size=(n_time,) + grid.shape))
                     for name in names], path, dtype="f32")
    return path


def _rollout(states, out_dir, inits="2020-01-01T00:00:00,2,6"):
    assert main(["rollout", "--initial-states", str(states), "--output-dir",
                 str(out_dir), "--inits", inits, "--max-lead-hours", "6"]) == 0


TQ = [("T", "single"), ("Q", "single")]


def _verify_case(tmp, g8, g16, fault):
    """verify's argv with one second file that disagrees, and that file."""
    states = _write_states(tmp / "states.gvf", g8)
    t_only = _write_states(tmp / "t_only.gvf", g8, ("T",))
    on_g16 = _write_states(tmp / "g16.gvf", g16)
    fc = tmp / "fc"
    argv = ["verify", "--forecast-dir", str(fc),
            "--output", str(tmp / "scores.csv")]
    if fault.startswith("forecast"):
        # the forecast of the second init, in file name order, disagrees
        first, second = {"forecast-grid": (states, on_g16),
                         "forecast-missing": (states, t_only),
                         "forecast-extra": (t_only, states)}[fault]
        _rollout(first, fc, "2020-01-01T00:00:00,1,6")
        _rollout(second, fc, "2020-01-01T06:00:00,1,6")
        return (argv + ["--target", str(states), "--metrics", "rmse"],
                fc / "init_20200101T060000Z.gvf")
    _rollout(states, fc)
    if fault.startswith("target"):
        target = on_g16 if fault == "target-grid" else t_only
        return argv + ["--target", str(target), "--metrics", "rmse"], target
    clim = (write_zero_climatology(tmp, g16, TQ) if fault == "climatology-grid"
            else write_zero_climatology(tmp, g8, TQ[:1]))
    return argv + ["--target", str(states), "--climatology", str(clim)], clim


def _rollout_case(tmp, g8, g16, fault):
    """rollout's argv with one second file that disagrees, and that file."""
    states = _write_states(tmp / "states.gvf", g8)
    argv = ["rollout", "--initial-states", str(states), "--output-dir",
            str(tmp / "fc"), "--inits", "2020-01-01T00:00:00,2,6",
            "--max-lead-hours", "6"]
    if fault.startswith("climatology"):
        clim = (write_zero_climatology(tmp, g16, TQ)
                if fault == "climatology-grid"
                else write_zero_climatology(tmp, g8, TQ[:1]))
        return argv + ["--forecaster", "climatology",
                       "--climatology", str(clim)], clim
    # the external forecaster writes a state that disagrees with its input
    state = (_write_states(tmp / "next.gvf", g16, n_time=1)
             if fault == "external-grid"
             else _write_states(tmp / "next.gvf", g8, ("T",), n_time=1))
    script = tmp / "step.sh"
    script.write_text(f'cp "{state}" "$4"\n')
    return argv + ["--forecaster", "external",
                   "--external-cmd", f"sh {script}"], "state_out.gvf"


def _side_file_case(tmp, g8, g16, fault):
    """normalize's, denormalize's or correlate's argv with a second file
    that lacks a variable of the input, and that file."""
    if fault == "reference":
        inp = _write_states(tmp / "in.gvf", g8, ("T", "Q", "U"))
        ref = _write_states(tmp / "ref.gvf", g8, ("T", "Q"))
        return ["correlate", "--input", str(inp), "--reference", str(ref),
                "--output", str(tmp / "corr.csv")], ref
    inp = _write_states(tmp / "in.gvf", g8)
    stats = tmp / "stats.json"
    stats.write_text('{"entries": {"T|single": '
                     '{"mu": 0.0, "sigma": 1.0, "xi": 1.0}}}\n')
    return [fault, "--input", str(inp), "--stats", str(stats),
            "--output", str(tmp / "out.gvf")], stats


OTHER_GRID = "grid gaussian 16x32, expected gaussian 8x16"
NO_Q = "no variable Q (single)"
# (subcommand, the parameter of its second file, fault, exit code, what
# stderr says differs, and the argv builder)
AGREEMENT_CASES = [
    ("verify", "target", "target-grid", 3, OTHER_GRID, _verify_case),
    ("verify", "target", "target-missing", 3, NO_Q, _verify_case),
    ("verify", "forecast_dir", "forecast-grid", 3, OTHER_GRID, _verify_case),
    ("verify", "forecast_dir", "forecast-missing", 3, NO_Q, _verify_case),
    ("verify", "forecast_dir", "forecast-extra", 3,
     "unexpected variable Q (single)", _verify_case),
    ("verify", "climatology", "climatology-grid", 3, OTHER_GRID,
     _verify_case),
    ("verify", "climatology", "climatology-missing", 3, NO_Q, _verify_case),
    ("rollout", "climatology", "climatology-grid", 3, OTHER_GRID,
     _rollout_case),
    ("rollout", "climatology", "climatology-missing", 3, NO_Q,
     _rollout_case),
    ("rollout", "external_cmd", "external-grid", 2, OTHER_GRID, _rollout_case),
    ("rollout", "external_cmd", "external-missing", 2, NO_Q, _rollout_case),
    ("normalize", "stats", "normalize", 3, NO_Q, _side_file_case),
    ("denormalize", "stats", "denormalize", 3, NO_Q, _side_file_case),
    ("correlate", "reference", "reference", 3, "no variable U (single)",
     _side_file_case),
]


def _files(path):
    return {p for p in path.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", AGREEMENT_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in AGREEMENT_CASES])
def test_disagreeing_second_file_fails_before_any_output(tmp_path, capsys,
                                                         case):
    # the climatology grid and the forecast variable cases used to exit 0,
    # scoring misaligned bins or some variables over some of the inits; a
    # missing climatology variable or stats entry used to exit 2 naming
    # neither file, and a correlate reference to leave corr.csv behind
    from spherecast import make_gaussian_grid
    _, _, fault, code, what, build = case
    argv, named = build(tmp_path, make_gaussian_grid(8, 16),
                        make_gaussian_grid(16, 32), fault)
    capsys.readouterr()
    before = _files(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{named}: {what}" in err
    assert err.startswith("data error: init " if code == 2
                          else f"error: {named}: ")
    assert _files(tmp_path) == before


def test_every_second_input_file_is_checked_for_agreement():
    from spherecast.cli import _COMMANDS
    second = {(name, p.name) for name, (_, _, params) in _COMMANDS.items()
              for p in params if p.name in ("stats", "climatology",
                                            "reference", "target",
                                            "forecast_dir")}
    assert len(second) == 7
    assert second <= {(sub, param) for sub, param, *_ in AGREEMENT_CASES}


def test_correlate_reference_on_another_grid_is_compared(tmp_path):
    from spherecast import make_gaussian_grid
    inp = _write_states(tmp_path / "in.gvf", make_gaussian_grid(16, 32),
                        ("T", "Q", "U"))
    # the input's variables, in another order and with one more
    ref = _write_states(tmp_path / "ref.gvf", make_gaussian_grid(32, 64),
                        ("U", "V", "Q", "T"))
    diff = tmp_path / "diff.csv"
    assert main(["correlate", "--input", str(inp), "--reference", str(ref),
                 "--output", str(tmp_path / "corr.csv"),
                 "--difference-output", str(diff)]) == 0
    from spherecast.verify import read_correlation_csv
    assert read_correlation_csv(diff).labels == [
        ("T", "single"), ("Q", "single"), ("U", "single")]


def test_stats_of_a_header_only_container_exits_three_naming_file(
        tmp_path, grid16, capsys):
    # used to print "error: float division by zero"
    inp = tmp_path / "in.gvf"
    write_container([FieldSeries(grid16, "T", "single", [],
                                 np.zeros((0,) + grid16.shape))], inp)
    out = tmp_path / "stats.json"
    assert main(["stats", "--input", str(inp), "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {inp}: no times\n"
    assert not out.exists()


def test_climatology_without_an_hour_of_day_exits_two_naming_file(
        tmp_path, grid16, capsys):
    # used to print "data error: climatology has no hour-of-day bin ...",
    # naming no file
    states = _write_states(tmp_path / "states.gvf", grid16, ("T",))
    clim = tmp_path / "clim12.gvf"
    Climatology(grid=grid16, hours=[0, 12], window_days=61, std_days=10.0,
                data={("T", "single"): np.zeros((365, 2) + grid16.shape)}
                ).to_container(clim)
    fc = tmp_path / "fc"
    _rollout(states, fc)
    expect = (f"data error: {clim}: no hour-of-day bin for 06Z "
              "(available: [0, 12])\n")
    outputs = tmp_path / "scores.csv", tmp_path / "clim_fc"
    for argv in (["verify", "--forecast-dir", str(fc), "--target", str(states),
                  "--output", str(outputs[0])],
                 ["rollout", "--initial-states", str(states), "--output-dir",
                  str(outputs[1]), "--forecaster", "climatology",
                  "--inits", "2020-01-01T00:00:00,2,6",
                  "--max-lead-hours", "6"]):
        assert main(argv + ["--climatology", str(clim)]) == 2
        assert capsys.readouterr().err == expect
    assert not any(out.exists() for out in outputs)


def test_a_climatology_without_climatology_attrs_exits_two_naming_file(
        tmp_path, grid16, capsys):
    # a container with no attrs["climatology"] used to exit 3, while a
    # malformed one exits 2
    states = _write_states(tmp_path / "states.gvf", grid16, ("T",))
    fc = tmp_path / "fc"
    _rollout(states, fc)
    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(fc), "--target", str(states),
                 "--climatology", str(states), "--output", str(scores)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {states}: container has no climatology attrs\n")
    assert not scores.exists()


def _poison(path, key, row, value, cell=37):
    """Set one cell of variable key at time row `row` of a GVF1 file to
    value, in place."""
    c = read_container(path)
    cells = c.grid.n_lat * c.grid.n_lon
    at = c._offset + ((row * len(c.keys) + c.index(*key)) * cells
                      + cell) * c.dtype.itemsize
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(np.array(value, dtype=c.dtype).tobytes())


# the row every case poisons: 2020-01-02T06:00Z, the second init of the
# rollouts below, a valid time each of them reaches, and in a climatology
# the bin of day 2, 06Z
BAD = 5
BAD_TIME = (T0 + timedelta(hours=6 * BAD)).isoformat()
FC_INIT = "init_20200102T000000Z.gvf"
LATE_INITS = ["--inits", "2020-01-02T00:00:00,2,6", "--max-lead-hours", "12"]
# (case id, subcommand, the file poisoned and its row, what and when the
# error names)
NON_FINITE_CASES = [
    ("stats", "stats", "states.gvf", BAD, "values in", BAD_TIME),
    ("normalize", "normalize", "states.gvf", BAD, "values in", BAD_TIME),
    ("denormalize", "denormalize", "states.gvf", BAD, "values in", BAD_TIME),
    ("climatology", "climatology", "states.gvf", BAD, "values in", BAD_TIME),
    ("pad", "pad", "states.gvf", BAD, "values in", BAD_TIME),
    ("filter", "filter", "states.gvf", BAD, "values in", BAD_TIME),
    ("spectrum", "spectrum", "states.gvf", BAD, "values in", BAD_TIME),
    ("correlate", "correlate", "states.gvf", BAD, "values in", BAD_TIME),
    ("correlate-reference", "correlate", "ref.gvf", BAD, "values in",
     BAD_TIME),
    ("rollout", "rollout", "states.gvf", BAD, "initial state", BAD_TIME),
    ("rollout-climatology", "rollout", "clim.gvf", BAD, "climatology",
     "day 2, 06Z"),
    # its lead 6 h
    ("verify-forecast", "verify", f"fc/{FC_INIT}", 1, "forecast",
     f"{BAD_TIME} (init {(T0 + timedelta(days=1)).isoformat()})"),
    ("verify-target", "verify", "states.gvf", BAD, "target", BAD_TIME),
    ("verify-climatology", "verify", "clim.gvf", BAD, "climatology",
     "day 2, 06Z"),
]


def _non_finite_case_argv(tmp, grid, case):
    """The argv of one case, after writing every file it reads."""
    states = _write_states(tmp / "states.gvf", grid)
    clim = write_zero_climatology(tmp, grid, TQ)
    inp = ["--input", str(states)]
    if case == "correlate-reference":
        return ["correlate"] + inp + [
            "--reference", str(_write_states(tmp / "ref.gvf", grid, seed=71)),
            "--output", str(tmp / "corr.csv")]
    if case.startswith("verify"):
        assert main(["rollout", "--initial-states", str(states),
                     "--output-dir", str(tmp / "fc")] + LATE_INITS) == 0
        return ["verify", "--forecast-dir", str(tmp / "fc"), "--target",
                str(states), "--climatology", str(clim),
                "--output", str(tmp / "scores.csv")]
    if case.startswith("rollout"):
        argv = ["rollout", "--initial-states", str(states), "--output-dir",
                str(tmp / "out")] + LATE_INITS
        return argv + (["--forecaster", "climatology", "--climatology",
                        str(clim)] if case == "rollout-climatology" else [])
    stats = tmp / "stats.json"
    stats.write_text(json.dumps({"entries": {
        f"{name}|single": {"mu": 0.0, "sigma": 2.0, "xi": 1.0}
        for name in ("T", "Q")}}))
    return {
        "stats": ["stats"] + inp,
        "normalize": ["normalize", "--stats", str(stats)] + inp,
        "denormalize": ["denormalize", "--stats", str(stats)] + inp,
        # a window of a whole year: every bin has both days' samples
        "climatology": ["climatology", "--window-days", "365",
                        "--std-days", "30"] + inp,
        "pad": ["pad", "--pad-ns", "1", "--pad-ew", "2"] + inp,
        "filter": ["filter", "--diffuse", "1e-5,2", "--pole-filter",
                   "60"] + inp,
        "spectrum": ["spectrum"] + inp,
        "correlate": ["correlate"] + inp,
    }[case] + ["--output", str(tmp / "out")]


@pytest.mark.parametrize("case", NON_FINITE_CASES,
                         ids=[c[0] for c in NON_FINITE_CASES])
def test_every_stage_names_the_file_variable_and_time_of_a_non_finite_value(
        tmp_path, capsys, case):
    # normalize, denormalize, filter, pad, spectrum, correlate, stats and
    # the verify forecast check used to name no time
    from spherecast import make_gaussian_grid
    name, _, bad, row, what, when = case
    argv = _non_finite_case_argv(tmp_path, make_gaussian_grid(8, 16), name)
    before = _files(tmp_path)
    capsys.readouterr()
    for value in (np.nan, np.inf):
        _poison(tmp_path / bad, ("Q", "single"), row, value)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / bad}: non-finite {what} Q (single) "
            f"at {when}\n")
        assert _files(tmp_path) == before


def test_every_subcommand_but_solar_has_a_non_finite_case():
    from spherecast.cli import _COMMANDS
    assert set(_COMMANDS) - {"solar"} == {c[1] for c in NON_FINITE_CASES}


def test_no_subcommand_maps_a_file(tmp_path, monkeypatch):
    # every stage reads its files with pread; through a map, a file cut
    # short under a reader killed it with SIGBUS
    import mmap
    from spherecast import make_gaussian_grid
    from spherecast.cli import _COMMANDS

    def refuse(*args, **kwargs):
        raise OSError("a file was mapped")

    monkeypatch.setattr(mmap, "mmap", refuse)
    grid = make_gaussian_grid(8, 16)
    for name in _COMMANDS:
        (tmp_path / name).mkdir()
        argv = (["solar", "--grid", "gaussian:8x16", "--start",
                 "2020-01-01T00:00:00", "--windows", "2", "--output",
                 str(tmp_path / name / "out")] if name == "solar"
                else _non_finite_case_argv(tmp_path / name, grid, name))
        assert main(argv) == 0, name


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                    reason="needs /proc/self/fd")
def test_no_descriptor_outlives_the_reader_that_opened_it(tmp_path):
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(8, 16)
    states = _write_states(tmp_path / "states.gvf", grid, n_time=48)
    clim = write_zero_climatology(tmp_path, grid, TQ)
    assert main(["rollout", "--initial-states", str(states),
                 "--output-dir", str(tmp_path / "fc"),
                 "--inits", "2020-01-01T00:00:00,36,6",
                 "--max-lead-hours", "12"]) == 0

    def descriptors():
        return sorted(os.listdir("/proc/self/fd"))

    before = descriptors()
    assert main(["verify", "--forecast-dir", str(tmp_path / "fc"),
                 "--target", str(states), "--climatology", str(clim),
                 "--output", str(tmp_path / "scores.csv")]) == 0
    assert descriptors() == before
    c = read_container(states)
    assert c.read(0).shape == (2,) + grid.shape
    del c
    assert descriptors() == before
    climatology = Climatology.from_container(clim)
    assert not climatology.values("T", "single", T0).any()
    del climatology
    assert descriptors() == before


def test_verify_of_a_forecast_with_no_times_exits_three_naming_it(
        tmp_path, capsys):
    # used to end in an IndexError traceback at fc.times[0]
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(8, 16)
    states = _write_states(tmp_path / "states.gvf", grid, ("T",))
    (tmp_path / "fc").mkdir()
    empty = tmp_path / "fc" / "init_a.gvf"
    with container_writer(empty, grid, [("T", "single", "K")], []):
        pass
    scores = tmp_path / "scores.csv"
    assert main(["verify", "--forecast-dir", str(tmp_path / "fc"),
                 "--target", str(states), "--metrics", "rmse",
                 "--output", str(scores)]) == 3
    assert capsys.readouterr().err == f"error: {empty}: no times\n"
    assert not scores.exists()


def _no_variables_argv(tmp, grid, name):
    """(argv of one stage on a container with times and no variables, the
    file its error should name)"""
    inp = tmp / "in.gvf"
    with container_writer(inp, grid, [], [T0, T0 + timedelta(hours=6)]):
        pass
    stats = tmp / "stats.json"
    stats.write_text('{"entries": {}}')
    if name == "verify":  # a forecast of no variables, as a rollout wrote
        fc = tmp / "fc" / "init_20200101T000000Z.gvf"  # one until it refused
        fc.parent.mkdir()
        with container_writer(fc, grid, [], [T0, T0 + timedelta(hours=6)],
                              attrs={"init_time": "2020-01-01T00:00:00Z"}):
            pass
        return (["verify", "--forecast-dir", str(tmp / "fc"), "--target",
                 str(inp), "--metrics", "rmse", "--output",
                 str(tmp / "scores.csv")], fc)
    if name == "rollout":
        return (["rollout", "--initial-states", str(inp), "--output-dir",
                 str(tmp / "fc"), "--inits", "2020-01-01T00:00:00,1,6",
                 "--max-lead-hours", "6"], inp)
    return [name, "--input", str(inp), "--output", str(tmp / "out")] + {
        "normalize": ["--stats", str(stats)],
        "denormalize": ["--stats", str(stats)],
        "filter": ["--diffuse", "1e-5,2"],
        "pad": ["--pad-ns", "1"],
        "spectrum": [], "correlate": []}[name], inp


def _write_correlate_input(path, grid, names, values=None, n_time=2):
    """An f64 container of names on grid; values fills each field if given."""
    times = [T0 + timedelta(hours=6 * k) for k in range(n_time)]
    rng = np.random.default_rng(72)
    write_container([FieldSeries(grid, name, "single", times,
                                 rng.normal(size=(n_time,) + grid.shape)
                                 if values is None
                                 else np.full((n_time,) + grid.shape, values))
                     for name in names], path, dtype="f64")
    return path


@pytest.mark.parametrize("case", [
    "normalize", "denormalize", "filter", "pad", "spectrum", "verify",
    "rollout", "correlate-no-times", "correlate-one-variable",
    "correlate-constant-fields"])
def test_an_empty_or_degenerate_input_is_named_in_its_error(tmp_path, capsys,
                                                            case):
    # the first five used to print "error: integer division or modulo by
    # zero", verify "no score records to write", and correlate "no matrices
    # to average", "need at least 2 variable-levels to correlate" and "zero
    # spatial variance for T (single), U (single)": none named a file; and
    # rollout exited 0, with a forecast container of no variables
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(8, 16)
    expect = {"correlate-no-times": "no times",
              "correlate-one-variable": f"{T0.isoformat()}: need at least 2 "
                                        "variable-levels to correlate",
              "correlate-constant-fields": f"{T0.isoformat()}: zero spatial "
                                           "variance for T (single), "
                                           "U (single)"}
    if case.startswith("correlate"):
        named = tmp_path / "in.gvf"
        _write_correlate_input(
            named, grid, ("T",) if case == "correlate-one-variable"
            else ("T", "U"), n_time=0 if case == "correlate-no-times" else 2,
            values=1.0 if case == "correlate-constant-fields" else None)
        argv = ["correlate", "--input", str(named),
                "--output", str(tmp_path / "corr.csv")]
    else:
        argv, named = _no_variables_argv(tmp_path, grid, case)
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    what = expect.get(case, "no variables")
    sep = " at " if case in ("correlate-one-variable",
                             "correlate-constant-fields") else ": "
    assert capsys.readouterr().err == f"error: {named}{sep}{what}\n"
    assert _files(tmp_path) == before


def test_verify_reads_each_forecast_payload_once(tmp_path, grid16,
                                                 monkeypatch):
    # ForecastSet used to read every forecast whole to check it, and the
    # scoring pass read it again
    from spherecast.verify import ForecastSet
    states = _write_states(tmp_path / "states.gvf", grid16)
    clim = write_zero_climatology(tmp_path, grid16, TQ)
    _rollout(states, tmp_path / "fc", inits="2020-01-01T00:00:00,3,6")
    paths = sorted((tmp_path / "fc").glob("*.gvf"))
    by_inode = {p.stat().st_ino: p for p in paths}
    got = dict.fromkeys(paths, 0)
    preadv = os.preadv

    def counted(fd, buffers, offset):
        n = preadv(fd, buffers, offset)
        path = by_inode.get(os.fstat(fd).st_ino)
        if path is not None:
            got[path] += n
        return n

    monkeypatch.setattr(os, "preadv", counted)
    ForecastSet(paths, read_container(states),
                Climatology.from_container(clim))
    assert set(got.values()) == {0}
    assert main(["verify", "--forecast-dir", str(tmp_path / "fc"),
                 "--target", str(states), "--climatology", str(clim),
                 "--output", str(tmp_path / "scores.csv")]) == 0
    for path in paths:
        c = read_container(path)
        payload = (len(c.times) * len(c.keys) * c.grid.n_lat * c.grid.n_lon
                   * c.dtype.itemsize)
        assert got[path] == payload, path


def _verify_digests(tmp):
    """{output name: sha256} of verify's rmse,acc scores, as csv and as
    jsonl, of a persistence rollout of a seeded 16x32 input of two
    variables, against a climatology written from seeded arrays."""
    from spherecast import make_gaussian_grid
    grid = make_gaussian_grid(16, 32)
    states = _write_states(tmp / "states.gvf", grid, n_time=10, seed=90)
    rng = np.random.default_rng(91)
    clim = tmp / "clim.gvf"
    Climatology(grid=grid, hours=[0, 6, 12, 18], window_days=61,
                std_days=10.0, data={
                    key: rng.normal(size=(365, 4) + grid.shape)
                    for key in TQ}).to_container(clim)
    assert main(["rollout", "--initial-states", str(states), "--output-dir",
                 str(tmp / "fc"), "--inits", "2020-01-01T00:00:00,4,6",
                 "--max-lead-hours", "24"]) == 0
    digests = {}
    for fmt in ("csv", "jsonl"):
        out = tmp / f"scores.{fmt}"
        assert main(["verify", "--forecast-dir", str(tmp / "fc"),
                     "--target", str(states), "--climatology", str(clim),
                     "--metrics", "rmse,acc", "--format", fmt,
                     "--output", str(out)]) == 0
        digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_verify_outputs_match_committed_digests(tmp_path):
    # the climatology is written from arrays, not by the climatology
    # stage, whose bits depend on the BLAS thread count
    want = json.loads((DATA / "verify_digests.json").read_text())
    got = _verify_digests(tmp_path)
    differ = sorted(name for name in want["sha256"]
                    if got.get(name) != want["sha256"][name])
    assert not differ, (
        f"{', '.join(differ)} differ from tests/data/verify_digests.json "
        f"(made with numpy {want['numpy']}; this is numpy {np.__version__})")
