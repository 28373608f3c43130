"""Self-tests of the benchmark on shrunken copies of its workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import fields
import gen
import run
import workloads
from spherecast.cli import main as cli_main

HERE = Path(__file__).resolve().parents[1]

# Same stages and oracles as the real workloads, on a 16 x 32 grid.  The
# chain keeps its full 6-hourly year so every climatology bin has samples.
SMALL = {
    "chain_n32": {"grid": "gaussian:16x32", "inits": 4, "solar_windows": 2},
    "kernels_n320": {"grid": "gaussian:16x32", "pad": 4},
    "external_rollout_n160": {"grid": "gaussian:16x32", "times": 7,
                              "max_lead_hours": 24},
}


@pytest.fixture(scope="module")
def small_sizes():
    saved = {k: dict(v) for k, v in workloads.SIZES.items()}
    for name, change in SMALL.items():
        workloads.SIZES[name].update(change)
    yield
    for name in saved:
        workloads.SIZES[name] = saved[name]


def _run_stages(workload: str, work: Path) -> None:
    params = json.loads((work / "params.json").read_text())
    (work / "out").mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in workloads.stages(workload, params):
            assert cli_main(argv) == 0, name
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs(small_sizes, tmp_path_factory):
    dirs = {}
    for name in SMALL:
        work = tmp_path_factory.mktemp(name)
        gen.generate(name, 7, work)
        _run_stages(name, work)
        dirs[name] = work
    return dirs


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_clean_outputs_pass_every_check(outputs, workload):
    failures = check.run_checks(workload, outputs[workload])
    assert set(failures) == set(check.CHECKS[workload])
    assert failures == {stage: [] for stage in failures}


def test_same_seed_generates_identical_inputs(small_sizes, tmp_path):
    for name in SMALL:
        a = gen.generate(name, 3, tmp_path / f"{name}-a")
        b = gen.generate(name, 3, tmp_path / f"{name}-b")
        c = gen.generate(name, 4, tmp_path / f"{name}-c")
        assert a["sha256"] == b["sha256"] != c["sha256"]
        assert ((tmp_path / f"{name}-a/input.gvf").read_bytes()
                == (tmp_path / f"{name}-b/input.gvf").read_bytes())


def test_generated_fields_are_band_limited_and_q_positive(outputs):
    header, data = fields.read_gvf1(outputs["external_rollout_n160"] / "input.gvf")
    names = [v["name"] for v in header["variables"]]
    assert float(data[:, names.index("Q700")].min()) > 0.0
    # the oracle's power sums to the quadrature mean square (Parseval)
    rng = np.random.default_rng(0)
    f = fields.band_limited(rng, 16, 32, 15)
    _, w = fields.gaussian_nodes(16)
    mean_square = 4 * np.pi * (w / 2) @ (f ** 2).mean(axis=1)
    assert fields.zonal_power_oracle(f, 15).sum() == pytest.approx(mean_square)


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_flipped_score_fails_verify_check(outputs, tmp_path):
    work = _copy(outputs["chain_n32"], tmp_path / "w")

    def flip(rows):
        # a value pushed outside its own bootstrap interval
        row = rows[len(rows) // 2]
        row[3] = repr(float(row[5]) + 1.0)
    _rewrite_csv(work / "out/scores.csv", flip)
    failures = check.run_checks("chain_n32", work)
    assert failures["verify"] and "CI" in failures["verify"][0]
    assert failures["spectrum"] == []


def test_nonzero_lead0_rmse_fails_verify_check(outputs, tmp_path):
    work = _copy(outputs["external_rollout_n160"], tmp_path / "w")

    def bump(rows):
        row = next(r for r in rows[1:] if r[1] == "0")
        row[3] = row[4] = "1e-3"
        row[5] = "1e-2"
    _rewrite_csv(work / "out/scores.csv", bump)
    assert check.run_checks("external_rollout_n160", work)["verify"]


def test_altered_spectrum_row_fails_spectrum_check(outputs, tmp_path):
    work = _copy(outputs["kernels_n320"], tmp_path / "w")

    def alter(rows):
        row = rows[len(rows) // 3]
        row[3] = repr(float(row[3]) * 1.001 + 1e-3)
    _rewrite_csv(work / "out/spectrum.csv", alter)
    failures = check.run_checks("kernels_n320", work)
    assert failures["spectrum"] and "oracle" in failures["spectrum"][0]


def test_altered_forecast_fails_rollout_check(outputs, tmp_path):
    work = _copy(outputs["external_rollout_n160"], tmp_path / "w")
    path = sorted((work / "out/fc").glob("*.gvf"))[1]
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.float32(1e6).tobytes()       # last value of the last lead
    path.write_bytes(bytes(raw))
    assert "drifts" in check.run_checks("external_rollout_n160", work)["rollout"][0]


def test_missing_output_is_a_failure_not_a_crash(outputs, tmp_path):
    work = _copy(outputs["kernels_n320"], tmp_path / "w")
    (work / "out/padded.gvf").unlink()
    assert check.run_checks("kernels_n320", work)["pad"]


def test_traced_and_untraced_runs_write_identical_outputs(small_sizes, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    digests = []
    for traced in (False, True):
        work = tmp_path / ("traced" if traced else "plain")
        gen.generate("chain_n32", 5, work)
        params = json.loads((work / "params.json").read_text())
        (work / "out").mkdir()
        docs = []
        for name, argv in workloads.stages("chain_n32", params):
            cmd = [sys.executable, str(HERE / "launch.py")]
            if traced:
                cmd += ["--trace", str(work / f"{name}.spans.json")]
            subprocess.run(cmd + argv, cwd=work, env=env, check=True)
            if traced:
                docs.append(json.loads((work / f"{name}.spans.json").read_text()))
        digests.append(run._tree_digest(work / "out"))
    assert digests[0] == digests[1]

    # every span but each stage's root names an existing parent
    for doc in docs:
        ids = {s["id"] for s in doc["spans"]}
        roots = [s for s in doc["spans"] if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"].startswith("cli.")
        assert all(s["parent"] in ids for s in doc["spans"] if s is not roots[0])
    layers = run.layer_values(docs)
    n_lead = workloads.SIZES["chain_n32"]["max_lead_hours"] // 6 + 1
    assert layers["verify.score.calls"] == 3 * n_lead * 2
    assert layers["solar.sun_ephemeris.calls"] == 2 * 6 * 60
    assert layers["sht.analyze.calls"] == 3 * workloads.SIZES["chain_n32"]["times"]
    assert layers["cli.verify.s"] >= layers["cli.verify.self_s"] > 0


def test_union_length_merges_overlaps():
    assert run._union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert run._union_length([]) == 0.0
