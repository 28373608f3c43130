"""Per-layer tracing of one spherecast stage process, from outside the program.

Tracer.install() wraps the public functions of each spherecast module at
the name its caller looks up (cli.py imports most of them by name, so the
cli binding is wrapped as well as the defining module's) and methods on
their class.  Each call becomes a span: name, start, end, the id of the
span that caused it, and optionally bytes and the tracemalloc peak of
what the call allocated.  Some boundaries only count.
Spans stay in memory until dump() writes them with the counters.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import threading
import time
import tracemalloc
from contextlib import contextmanager

MB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._peak_open: list[dict] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _flush_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for rec in self._peak_open:
            rec["_max"] = max(rec["_max"], peak)
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str, peak: bool = False):
        stack = self._stack()
        rec = {"id": next(self._ids), "name": name,
               # spans in worker threads hang off the stage's root span
               "parent": stack[-1] if stack else self._root}
        if self._root is None:
            self._root = rec["id"]
        # peaks are tracked on the main thread only, where the stages
        # that allocate most (table builds, container loads) run
        peak = peak and threading.current_thread() is threading.main_thread()
        if peak:
            # tracemalloc runs only inside peak spans: it slows every
            # allocation, and sees only allocations made after it starts
            if self._peak_open:
                self._flush_peak()
            else:
                tracemalloc.start()
            rec["_base"] = rec["_max"] = tracemalloc.get_traced_memory()[0]
            self._peak_open.append(rec)
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if peak:
                self._flush_peak()
                self._peak_open.remove(rec)
                rec["peak_mb"] = (rec.pop("_max") - rec.pop("_base")) / MB
                if not self._peak_open:
                    tracemalloc.stop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, fn, name: str, peak: bool = False, nbytes=None):
        """fn in a span; nbytes(args, kwargs, result) sets the span's bytes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, peak) as rec:
                out = fn(*args, **kwargs)
                if nbytes is not None:
                    rec["bytes"] = nbytes(args, kwargs, out)
            return out
        return wrapper

    def counting(self, fn, name: str):
        """fn that only counts its calls."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    # ------------------------------------------------------------ wrappers

    def install(self) -> None:
        """Wrap spherecast's layer boundaries; call before cli.main."""
        from spherecast import (cli, container, filters, grid, padding,
                                preprocess, rollout, sht, solar, verify)

        def patch(modules, attr, wrapper):
            for mod in modules:
                setattr(mod, attr, wrapper)

        def method(cls, attr, name, **kw):
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, **kw))

        patch((grid, container, cli), "make_gaussian_grid",
              self.wrap(grid.make_gaussian_grid, "grid.make_gaussian_grid"))
        grid.Field.__post_init__ = self.counting(grid.Field.__post_init__,
                                                 "grid.Field.count")

        def read_bytes(args, kwargs, out):
            return out.size * args[0].dtype.itemsize

        method(container.Container, "__init__", "container.open")
        method(container.Container, "values", "container.read", nbytes=read_bytes)
        method(container.Container, "series", "container.read",
               nbytes=lambda a, k, out: read_bytes(a, k, out.values))
        written = self.wrap(
            container.write_container, "container.write",
            nbytes=lambda a, k, out: os.path.getsize(k["path"] if "path" in k
                                                     else a[1]))
        patch((container, cli, rollout), "write_container", written)

        for attr, peak in (("compute_stats", False),
                           ("compute_residual_coeff", False),
                           ("normalize", False),
                           ("compute_climatology", True)):
            patch((cli,), attr, self.wrap(getattr(preprocess, attr),
                                          f"preprocess.{attr}", peak=peak))
        from_container = preprocess.Climatology.from_container.__func__
        preprocess.Climatology.from_container = classmethod(self.wrap(
            from_container, "preprocess.Climatology.from_container"))

        patch((cli,), "accumulated_irradiance",
              self.wrap(solar.accumulated_irradiance,
                        "solar.accumulated_irradiance", peak=True))
        solar.sun_ephemeris = self.counting(solar.sun_ephemeris,
                                            "solar.sun_ephemeris.calls")

        patch((cli,), "pad", self.wrap(padding.pad, "padding.pad",
                                       nbytes=lambda a, k, out: out.nbytes))
        for attr in ("diffuse_values", "pole_filter_values"):
            patch((cli, rollout), attr,
                  self.wrap(getattr(filters, attr), f"filters.{attr}"))

        sht_cls = sht.SphericalHarmonicTransform
        build = self.wrap(sht_cls.__init__, "sht.transform_build", peak=True)

        @functools.wraps(sht_cls.__init__)
        def build_counted(obj, grid_, l_max):
            # computed, not measured: the dense (l, m, lat) float64 table
            self.count("sht.legendre_table.bytes",
                       (l_max + 1) ** 2 * grid_.n_lat * 8)
            return build(obj, grid_, l_max)
        sht_cls.__init__ = build_counted

        analyze = self.wrap(sht_cls.analyze, "sht.analyze")

        @functools.wraps(sht_cls.analyze)
        def analyze_counted(obj, values):
            # computed: real table x complex field is 2 multiplies + 2 adds
            # per table entry; bytes are the table plus the field read
            table = (obj.l_max + 1) ** 2 * obj.grid.n_lat
            self.count("sht.analyze.flops", 4 * table)
            self.count("sht.analyze.bytes",
                       8 * (table + obj.grid.n_lat * obj.grid.n_lon))
            return analyze(obj, values)
        sht_cls.analyze = analyze_counted

        patch((cli,), "load_forecast_set",
              self.wrap(verify.load_forecast_set, "verify.load_forecast_set",
                        peak=True))
        method(verify.ForecastSet, "__init__", "verify.ForecastSet")
        patch((cli,), "rmse", self.wrap(verify.rmse, "verify.score"))
        patch((cli,), "acc", self.wrap(verify.acc, "verify.score"))
        verify.bootstrap_mean = self.wrap(verify.bootstrap_mean,
                                          "verify.bootstrap_mean")

        patch((cli,), "run_rollout_to_dir",
              self.wrap(rollout.run_rollout_to_dir, "rollout.run_rollout_to_dir"))
        rollout._run_external_step = self.counting(
            rollout._run_external_step, "rollout.external_steps")
        rollout.apply_postprocessing = self.wrap(
            rollout.apply_postprocessing, "rollout.apply_postprocessing")
        rollout.subprocess = _TimedSubprocess(self)


class _TimedSubprocess:
    """Stands in for the subprocess module inside spherecast.rollout, so the
    time spent waiting on the external forecaster becomes its own span."""

    def __init__(self, tracer: Tracer):
        self.run = tracer.wrap(subprocess.run, "rollout.external_wait")

    def __getattr__(self, attr):
        return getattr(subprocess, attr)
