"""Span tracer for the traced benchmark run.

    python3 perfbench/tracer.py SPANS.json cli QUENCHSIM-ARGS...
    python3 perfbench/tracer.py SPANS.json script SCRIPT ARGS...

Wraps the module-level quenchsim functions listed in SPANS from the outside
(no file under src/ changes), then runs the quenchsim CLI or a workload
script.  Every call of a wrapped function records a span (name, id, parent
id, start, end) and, for some functions, counters computed from its
arguments and result.  Spans are kept in memory and written out at the end.

Pool workers: the CLI forks its pool after the wrappers are installed, so the
workers run wrapped code too.  A worker keeps its spans in memory and, each
time a task returns (its outermost span closes), appends them as one JSON line
to SPANS.json.<pid>; the parent's pool joins its workers before the CLI
exits, so every line is on disk when aggregate() reads them.  Span ids carry
the pid, and a worker span's parent is the parent process's open
cli.run_cells span, so self time sees across processes.

A function missing from its module is reported as absent, not as an error,
so a later change that deletes or renames one does not break the run.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import multiprocessing
import os
import runpy
import sys
import time


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


# span name -> (module, function, counter hook(args, result) -> {counter: increment})
SPANS = {
    "su2.expm_bloch_batch": ("quenchsim.su2", "expm_bloch_batch", None),
    "schedules.xy_geodesic_schedule": ("quenchsim.schedules", "xy_geodesic_schedule", None),
    "schedules.kick_train": ("quenchsim.schedules", "kick_train", None),
    "freefermion.run_chain": ("quenchsim.freefermion", "run_chain", None),
    "freefermion.evolve_modes": ("quenchsim.freefermion", "evolve_modes", None),
    "freefermion.bloch_components": ("quenchsim.freefermion", "_bloch_components", None),
    "freefermion.collective_geodesic_ramp": (
        "quenchsim.freefermion", "collective_geodesic_ramp", None),
    "freefermion.mode_geodesic_angles": ("quenchsim.freefermion", "_mode_geodesic_angles", None),
    "freefermion.quat_steps": (
        "quenchsim.freefermion", "_quat_steps",
        lambda a, out: {"freefermion.mode_steps": out.size // 4,
                        "freefermion.quat_bytes": _nbytes(a[0], a[1], out)}),
    "freefermion.ordered_product": (
        "quenchsim.freefermion", "_ordered_product", lambda a, out: {"freefermion.chunks": 1}),
    "freefermion.quat_mul": (
        "quenchsim.freefermion", "_quat_mul",
        lambda a, out: {"freefermion.quat_mul.count": 1,
                        "freefermion.quat_bytes": _nbytes(a[0], a[1], out)}),
    "freefermion.phase_ramp": ("quenchsim.freefermion", "_phase_ramp", None),
    "freefermion.kick_product": ("quenchsim.freefermion", "_kick_product", None),
    "freefermion.segmented_err": ("quenchsim.freefermion", "_segmented_err", None),
    "landau_zener.evolve_lz": (
        "quenchsim.landau_zener", "evolve_lz",
        lambda a, out: {"landau_zener.steps": a[0].n_steps}),
    "landau_zener.phase_ramp": ("quenchsim.landau_zener", "_phase_ramp", None),
    "analysis.fit_power_law": ("quenchsim.analysis", "fit_power_law", None),
    "cli.main": ("quenchsim.cli", "main", None),
    "cli.run_cells": ("quenchsim.cli", "_run_cells", None),
    "cli.defect_task": ("quenchsim.cli", "_defect_task", lambda a, out: {"cli.cells": 1}),
    "cli.atomic_write": (
        "quenchsim.cli", "_atomic_write",
        lambda a, out: {"cli.atomic_write.bytes": os.path.getsize(a[0])}),
    "cli.write_manifest": ("quenchsim.cli", "_write_manifest", None),
}

# counter -> the spans whose hooks produce it
COUNTERS = {
    "freefermion.mode_steps": ("freefermion.quat_steps",),
    "freefermion.quat_bytes": ("freefermion.quat_steps", "freefermion.quat_mul"),
    "freefermion.chunks": ("freefermion.ordered_product",),
    "freefermion.quat_mul.count": ("freefermion.quat_mul",),
    "landau_zener.steps": ("landau_zener.evolve_lz",),
    "cli.cells": ("cli.defect_task",),
    "cli.atomic_write.bytes": ("cli.atomic_write",),
}

# Per-layer metrics: name -> unit.  "<span>.s" is total time in the span,
# "<span>.self_s" that time minus the part its child spans cover,
# "<span>.calls" the call count; the rest are COUNTERS or derived below.
PER_LAYER = {
    "freefermion.quat_steps.s": "s",
    "freefermion.ordered_product.s": "s",
    "freefermion.quat_mul.s": "s",
    "freefermion.kernel_mode_steps_per_s": "1/s",
    "freefermion.quat_mul.count": "count",
    "freefermion.quat_bytes": "bytes_computed",
    "freefermion.evolve_modes.s": "s",
    "freefermion.evolve_modes.self_s": "s",
    "freefermion.evolve_modes.calls": "count",
    "freefermion.phase_ramp.s": "s",
    "freefermion.collective_geodesic_ramp.s": "s",
    "freefermion.bloch_components.s": "s",
    "freefermion.run_chain.self_s": "s",
    "freefermion.mode_steps": "count",
    "freefermion.chunks": "count",
    "freefermion.mode_geodesic_angles.s": "s",
    "schedules.xy_geodesic_schedule.calls": "count",
    "freefermion.kick_product.s": "s",
    "freefermion.segmented_err.s": "s",
    "schedules.kick_train.s": "s",
    "cli.main.s": "s",
    "cli.run_cells.s": "s",
    "cli.cells": "count",
    "cli.pool_speedup": "ratio",
    "cli.atomic_write.s": "s",
    "cli.atomic_write.bytes": "bytes",
    "cli.write_manifest.s": "s",
    "landau_zener.evolve_lz.s": "s",
    "landau_zener.evolve_lz.self_s": "s",
    "landau_zener.phase_ramp.s": "s",
    "su2.expm_bloch_batch.s": "s",
    "landau_zener.steps": "count",
    "analysis.fit_power_law.s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# derived metric -> (the spans it is computed from, fn(total span times, counters))
DERIVED = {
    "freefermion.kernel_mode_steps_per_s": (
        ("freefermion.quat_steps", "freefermion.ordered_product"),
        lambda t, c: _ratio(c.get("freefermion.mode_steps", 0),
                            t["freefermion.quat_steps"] + t["freefermion.ordered_product"])),
    "cli.pool_speedup": (
        ("cli.defect_task", "cli.run_cells"),
        lambda t, c: _ratio(t["cli.defect_task"], t["cli.run_cells"])),
}


class Recorder:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self, path: str):
        self.path = path
        self.root_pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.broken: set[str] = set()
        self.stack: list[str] = []
        self.base_depth = 0
        self.next_id = 0

    def after_fork(self) -> None:
        # a worker starts with the parent's open spans on its stack (its
        # spans' parents) but none of the parent's finished ones
        self.spans, self.counts, self.broken = [], {}, set()
        self.base_depth = len(self.stack)

    def wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.next_id += 1
            sid = f"{os.getpid()}:{self.next_id}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append((name, sid, parent, t0, t1))
            if hook is not None:
                self._count(name, hook, args, out)
            if os.getpid() != self.root_pid and len(self.stack) == self.base_depth:
                self.write(f"{self.path}.{os.getpid()}", mode="a")
            return out

        return traced

    def _count(self, name, hook, args, out) -> None:
        try:
            increments = hook(args, out)
        except Exception:  # a changed signature must not stop the traced run
            self.broken.add(name)
            return
        for key, inc in increments.items():
            self.counts[key] = self.counts.get(key, 0) + int(inc)

    def write(self, path: str, mode: str = "w", absent=()) -> None:
        record = {"spans": self.spans, "counts": self.counts,
                  "broken": sorted(self.broken), "absent": list(absent)}
        with open(path, mode) as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counts = [], {}


def install(recorder: Recorder, spans: dict = SPANS) -> list[str]:
    """Wrap every listed function in every loaded quenchsim module that
    binds it; returns the span names whose function is absent."""
    absent = []
    for name, (module, attr, hook) in spans.items():
        try:
            fn = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapper = recorder.wrap(name, fn, hook)
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    return absent


def _self_times(spans: list) -> dict[str, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[str, list] = {}
    for _, _, parent, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for _, sid, _, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def aggregate(path: str) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one traced invocation, and the metric names
    whose function (or its counter hook) was absent."""
    records = []
    for p in [path] + sorted(glob.glob(glob.escape(path) + ".*")):
        with open(p) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    spans = [tuple(s) for r in records for s in r["spans"]]
    counts: dict[str, int] = {}
    for r in records:
        for key, inc in r["counts"].items():
            counts[key] = counts.get(key, 0) + inc
    missing = {n for r in records for n in r["absent"]}
    broken = {n for r in records for n in r["broken"]}
    self_s = _self_times(spans)
    total = {n: 0.0 for n in SPANS}
    selft = {n: 0.0 for n in SPANS}
    calls = {n: 0 for n in SPANS}
    for name, sid, _, t0, t1 in spans:
        total[name] += t1 - t0
        selft[name] += self_s[sid]
        calls[name] += 1

    values, absent = {}, []
    for metric in PER_LAYER:
        if metric in COUNTERS:
            sources = COUNTERS[metric]
            value = counts.get(metric, 0)
        elif metric in DERIVED:
            sources, fn = DERIVED[metric]
            value = fn(total, counts)
        else:
            span, _, kind = metric.rpartition(".")
            sources = (span,)
            value = {"s": total, "self_s": selft, "calls": calls}[kind][span]
        if any(s in missing or (metric in COUNTERS and s in broken) for s in sources):
            absent.append(metric)
            value = 0
        values[metric] = value
    return values, absent


def main(argv: list[str]) -> int:
    spans_path, kind, *rest = argv
    recorder = Recorder(spans_path)
    importlib.import_module("quenchsim.cli")
    absent = install(recorder)
    os.register_at_fork(after_in_child=recorder.after_fork)
    if "fork" in multiprocessing.get_all_start_methods():
        # pool workers must inherit the wrappers; other start methods re-import
        multiprocessing.set_start_method("fork")
    try:
        if kind == "cli":
            return sys.modules["quenchsim.cli"].main(rest)
        sys.argv = rest
        runpy.run_path(rest[0], run_name="__main__")
        return 0
    finally:
        recorder.write(spans_path, absent=absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
