"""spherecast benchmark: run one workload's CLI stages and report metrics.

    python3 perfbench/run.py --workload chain_n32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, seed 1, trace 0

Each stage is a separate `spherecast <subcommand>` child process, run one
after another as a user's shell script would (a closed loop with one
client).  Set-up generates the inputs from the seed, several times, in
child processes.  A repeat runs every stage and then checks every output;
repeats continue while the next one is projected to end within --seconds.
With --trace 1 each repeat is run untraced and then traced, and the
per-layer metrics come from the traced one.

This process imports no numpy, so that a child's peak RSS (which on Linux
starts from its parent's RSS at fork) is the stage's own.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_REPEATS = 3
RUN_DEADLINE_S = 165.0   # every child is killed by then; the run must end by 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# span-derived names that the issue spells differently
ALIASES = {"rollout.external_wait.s": "rollout.external_wait_s"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failing stage)."""


# ---------------------------------------------------------------- children

def _killpg(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv: list[str], cwd: Path, env: dict, stdout_path: Path,
           stderr_path: Path, timeout: float) -> dict:
    """Run a child to completion; its own wall, CPU and peak RSS.

    The child leads its own process group so a timeout also kills what it
    started (the external forecaster); wait4 reports its resource usage,
    which includes its reaped descendants.
    """
    t0 = time.perf_counter()
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
    timer = threading.Timer(max(timeout, 0.1), _killpg, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


class Run:
    """One run's work directory, child environment and deadline."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.t0 = time.perf_counter()
        self.work = HERE / ".work" / f"{workload}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        # the external rollout's state files go to a temporary directory;
        # keep them inside the checkout
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.python = sys.executable or "python3"

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t0)

    def child(self, argv: list[str], tag: str) -> tuple[dict, str]:
        out = self.work / f"{tag}.out"
        res = launch([self.python] + argv, self.work, self.env, out,
                     self.work / f"{tag}.err", self.remaining())
        return res, out.read_text()

    def stderr_tail(self, tag: str) -> str:
        path = self.work / f"{tag}.err"
        return path.read_text()[-400:].strip() if path.exists() else ""

    # ------------------------------------------------------------- set-up

    def setup(self) -> dict:
        walls, digests, info = [], set(), None
        for k in range(SETUP_REPEATS):
            res, out = self.child([str(HERE / "gen.py"), "--workload",
                                   self.workload, "--seed", str(self.seed),
                                   "--dir", str(self.work)], f"setup{k}")
            if res["exit"] != 0:
                raise BenchError(f"input generation failed: "
                                 f"{self.stderr_tail(f'setup{k}')}")
            info = json.loads(out)
            walls.append(res["wall_s"])
            digests.add(info["sha256"])
        info["setup_walls_s"] = walls
        info["deterministic"] = len(digests) == 1
        # untimed: write the inputs back now, not under the first repeat
        for path in self.work.iterdir():
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())
        return info

    # ------------------------------------------------------------- passes

    def run_pass(self, plan, tag: str, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans_dir = self.work / "spans"
        stages, span_docs = [], []
        for name, argv in plan:
            cmd = [str(HERE / "launch.py")]
            if traced:
                spans_path = spans_dir / f"{tag}-{name}.json"
                spans_path.parent.mkdir(exist_ok=True)
                spans_path.unlink(missing_ok=True)
                cmd += ["--trace", str(spans_path)]
            res, _ = self.child(cmd + argv, f"{tag}-{name}")
            res["stage"] = name
            res["failures"] = ([] if res["exit"] == 0 else
                               [f"exit {res['exit']}: "
                                f"{self.stderr_tail(f'{tag}-{name}')}"])
            stages.append(res)
            if traced and res["exit"] == 0:
                span_docs.append(json.loads(spans_path.read_text()))
        res, text = self.child([str(HERE / "check.py"), "--workload",
                                self.workload, "--dir", str(self.work)],
                               f"{tag}-check")
        checks = json.loads(text) if res["exit"] == 0 else {}
        for st in stages:
            if res["exit"] != 0:
                st["failures"].append("output check crashed: "
                                      + self.stderr_tail(f"{tag}-check"))
            st["failures"] += checks.get(st["stage"], [])
        return {"stages": stages, "spans": span_docs,
                "digest": _tree_digest(out) if self.trace else None}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_values(span_docs: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced pass, summed over its stages."""
    m: dict[str, float] = {}

    def add(name, v):
        m[name] = m.get(name, 0.0) + v
    for doc in span_docs:
        spans = doc["spans"]
        add("trace.spans", len(spans))
        for s in spans:
            d = s["end"] - s["start"]
            if s["name"].startswith("cli."):
                kids = [(c["start"], c["end"]) for c in spans
                        if c["parent"] == s["id"]]
                add(f"{s['name']}.s", d)
                add(f"{s['name']}.self_s", d - _union_length(kids))
                continue
            add(f"{s['name']}.calls", 1)
            add(f"{s['name']}.s", d)
            if "bytes" in s:
                add(f"{s['name']}.bytes", s["bytes"])
            if "peak_mb" in s:
                key = f"{s['name']}.peak_mb"
                m[key] = max(m.get(key, 0.0), s["peak_mb"])
        for name, v in doc["counters"].items():
            add(name, v)
    return {ALIASES.get(k, k): v for k, v in m.items()}


# ----------------------------------------------------------------- record

def environment(gen_info: dict) -> dict:
    commit = None
    try:
        # only a repository rooted at this checkout names its commit
        top, head = (subprocess.run(["git", "rev-parse", arg], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10)
                     for arg in ("--show-toplevel", "HEAD"))
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            commit = head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    mem_total = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "mem_total": mem_total,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": gen_info.get("numpy"),
        "blas": gen_info.get("blas"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """(result for the JSON line, run record) of one workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = Run(workload, seed, trace)
    shutil.rmtree(r.work, ignore_errors=True)
    (r.work / "tmp").mkdir(parents=True)
    try:
        missing = ([t for t in ("sh", "cp") if shutil.which(t) is None]
                   if workload == "external_rollout_n160" else [])
        gen = r.setup()
        plan = workloads.stages(workload, gen["params"])
        untraced, traced, overheads, mismatches = [], [], [], 0
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            k = len(untraced)
            untraced.append(r.run_pass(plan, f"r{k}", traced=False))
            if trace:
                traced.append(r.run_pass(plan, f"t{k}", traced=True))
                overheads.append(
                    sum(s["wall_s"] for s in traced[-1]["stages"])
                    - sum(s["wall_s"] for s in untraced[-1]["stages"]))
                if traced[-1]["digest"] != untraced[-1]["digest"]:
                    mismatches += 1
            took = time.perf_counter() - t
            elapsed = time.perf_counter() - start
            if elapsed + took > seconds or r.remaining() < 2 * took:
                break
    finally:
        shutil.rmtree(r.work, ignore_errors=True)

    passes = untraced + traced
    for p in passes:
        for st in p["stages"]:
            if missing and st["stage"] == "rollout":
                st["failures"].append(f"external forecaster needs {missing}")
    attempted = sum(len(p["stages"]) for p in passes)
    failed = sum(1 for p in passes for st in p["stages"] if st["failures"])

    stage_names = [name for name, _ in plan]
    per_stage = {f"{name}_s": _median([st["wall_s"] for p in untraced
                                       for st in p["stages"] if st["stage"] == name])
                 for name in stage_names}
    end_to_end = {
        "setup_s": _median(gen["setup_walls_s"]),
        "wall_s": _median([sum(s["wall_s"] for s in p["stages"]) for p in untraced]),
        "cpu_s": _median([sum(s["cpu_s"] for s in p["stages"]) for p in untraced]),
        "peak_rss_mb": _median([max(s["rss_mb"] for s in p["stages"])
                                for p in untraced]),
    }
    if trace:
        layers = [layer_values(p["spans"]) for p in traced]
        values = {m["name"]: _median([lv.get(m["name"], 0.0) for lv in layers])
                  for m in spec["per_layer"]}
        values["trace.overhead_s"] = _median(overheads)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    problems = [f"{st['stage']} (repeat {i}): {msg}"
                for i, p in enumerate(passes) for st in p["stages"]
                for msg in st["failures"]]
    if not gen["deterministic"]:
        problems.append("the same seed generated different inputs")
    if mismatches:
        problems.append(f"traced outputs differ from untraced in {mismatches} repeat(s)")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "sizes": workloads.SIZES[workload],
        "params": gen["params"],
        "environment": environment(gen),
        "setup_walls_s": gen["setup_walls_s"],
        "repeats": len(untraced),
        "stages": {"untraced": [p["stages"] for p in untraced],
                   "traced": [p["stages"] for p in traced]},
        "stage_medians_s": per_stage,
        "end_to_end": end_to_end,
        "error_rate": failed / attempted if attempted else 0.0,
        "problems": problems,
        "metrics": metrics,
    }
    if trace:
        record["tracing_overhead_s"] = overheads
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def _print_table(res: dict, rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
          f"repeats={rec['repeats']} attempted={res['attempted']} "
          f"failed={res['failed']} error_rate={rec['error_rate']:.4g}")
    for name, v in rec["stage_medians_s"].items():
        print(f"  {name:<40} {v:>14.6g} s")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for msg in rec["problems"]:
        print(f"  FAILED {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.SIZES))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spherecast" / "cli.py").is_file():
        print(f"error: no spherecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = sorted(workloads.SIZES) if args.all else [args.workload]
    results = []
    for name in names:
        try:
            res, record = run(name, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record | {"result": res}, indent=1) + "\n")
        _print_table(res, record)
        print(f"  run record: {path.relative_to(ROOT)}")
        results.append((name, res))
    if len(results) == 1:
        final = results[0][1]
    else:
        # metric names are qualified by workload when several ran
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{k}": v for name, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
