"""quenchsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop with one client: an
invocation is a fresh `quenchsim` process (or, for ising-lin-scan, a fresh
Python process calling the API), and the next starts when the previous has
exited, for about S seconds.  Every invocation is timed from spawn to
exit; CPU time and peak RSS come from the rusage that wait4 returns for the
process and the descendants it waited for.  Outputs are checked after the
loop, once per distinct output (identical inputs must give identical bytes).

--trace 0 reports the end-to-end metrics (medians over the invocations),
--trace 1 the per-layer metrics of tracer.py plus the tracing overhead:
untraced and traced invocations alternate and both wall times are reported.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a results file with provenance is written
to perfbench/out/.

    python3 perfbench/run.py --workload NAME --record-reference

re-records reference.json for NAME at the default seed.
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
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # before numpy is first imported, here and in every child
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
RUN_BUDGET_S = 150.0  # no invocation may start that would end past this
START = time.perf_counter()

END_TO_END = {"wall_s": "s", "mode_steps_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_METRICS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                 "trace.overhead_frac": "ratio"}
EXACT_UNITS = ("count", "bytes", "bytes_computed")


@dataclass
class Proc:
    """One child process as measured from outside."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class Invocation:
    proc: Proc
    traced: bool
    digest: str | None
    layers: dict | None
    stderr: str


def child_env(workdir: Path) -> dict:
    env = dict(os.environ, **THREAD_VARS, TMPDIR=str(workdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], cwd: Path, timeout: float) -> Proc:
    """Run argv in its own session; kill the whole session on timeout or
    interrupt, and after a normal exit (no stray descendant survives)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(cwd), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def argv_for(kind: str, args: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), "spans.json", kind, *args]
    if kind == "cli":
        return [sys.executable, "-c", workloads.CLI_ENTRY, *args]
    return [sys.executable, *args]


def digest(workdir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        path = workdir / name
        if not path.is_file():
            h.update(b"<missing>")
            continue
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
    return h.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def provenance(seed: int, inp: dict) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "quenchsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": git_commit(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "thread_vars": THREAD_VARS,
            "seed": seed, "inputs": inp}


def load_reference(workload: str, seed: int, inp: dict) -> dict | None:
    if seed != workloads.DEFAULT_SEED or not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None:
        return None
    if entry["inputs"] != inp:
        raise SystemExit(f"{REFERENCE.name}: {workload} was recorded for other inputs")
    return entry["data"]


def measure_setup(work: Path) -> list[Proc]:
    """Fresh processes that import quenchsim.cli and exit (`quenchsim --version`)."""
    d = work / "setup"
    d.mkdir()
    argv = [sys.executable, "-c", workloads.CLI_ENTRY, "--version"]
    spawn(argv, d, 60.0)  # warm-up: a fresh checkout compiles its bytecode here
    return [spawn(argv, d, 60.0) for _ in range(SETUP_LAUNCHES)]


def closed_loop(workload: str, inp: dict, work: Path, seconds: float, trace: bool):
    """Invocations back to back for about `seconds`.  With tracing,
    untraced and traced ones alternate (at least one untraced, two traced)."""
    invocations, kept = [], {}
    start = time.perf_counter()
    while True:
        i = len(invocations)
        traced = trace and (i in (1, 2) or (i > 2 and i % 2 == 0))
        d = work / f"inv{i}"
        d.mkdir()
        kind, args = workloads.target(workload, inp, d)
        budget = RUN_BUDGET_S - (time.perf_counter() - START)
        proc = spawn(argv_for(kind, args, traced), d, max(5.0, budget))
        dig = layers = None
        if proc.returncode == 0:
            dig = digest(d, workloads.OUTPUT_FILES[workload])
            if traced:
                layers = tracer.aggregate(str(d / "spans.json"))
        stderr = (d / "stderr.txt").read_text(errors="replace")[-2000:]
        if dig is not None and dig not in kept:
            kept[dig] = d
        else:
            shutil.rmtree(d)
        invocations.append(Invocation(proc, traced, dig, layers, stderr))
        now = time.perf_counter()
        # stop at the invocation count whose total lies nearest `seconds`, so
        # a run measures about `seconds` however long one invocation takes
        enough = (len(invocations) >= (3 if trace else 1)
                  and now - start + proc.wall_s / 2 >= seconds)
        if enough or now - START + proc.wall_s > RUN_BUDGET_S:
            return invocations, kept, now - start


def check_outputs(workload: str, inp: dict, ref, kept: dict) -> dict:
    """Cells of every distinct output, keyed by its digest."""
    cells = {}
    for dig, d in kept.items():
        try:
            cells[dig] = workloads.check(workload, inp, workloads.load_outputs(workload, d), ref)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            bad = workloads.Cell("outputs")
            bad.add("readable", False, f"{type(exc).__name__}: {exc}")
            cells[dig] = [bad] * workloads.cells_per_invocation(workload, inp)
    return cells


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inp = workloads.make_inputs(workload, seed)
    ref = load_reference(workload, seed, inp)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup = [] if trace else measure_setup(work)
        invocations, kept, elapsed = closed_loop(workload, inp, work, seconds, trace)
        cells = check_outputs(workload, inp, ref, kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_inv = workloads.cells_per_invocation(workload, inp)
    first = next((inv.digest for inv in invocations if inv.digest), None)
    attempted = failed = 0
    problems = []  # failures that are not the documented known defect
    for n, inv in enumerate(invocations):
        attempted += per_inv
        if inv.proc.returncode != 0:
            failed += per_inv
            problems.append(f"invocation {n} exited {inv.proc.returncode}: {inv.stderr.strip()}")
        elif inv.digest != first:
            failed += per_inv
            problems.append(f"invocation {n}: outputs differ from the first successful one's")
        else:
            bad = [c for c in cells[inv.digest] if not c.ok]
            failed += len(bad)
            problems += [f"cell {c.name} failed" for c in bad if c.known_defect is None]
    if any(p.returncode != 0 for p in setup):
        problems.append("a `quenchsim --version` launch failed")

    lines = [f"quenchsim benchmark: workload {workload}, seed {seed}, trace {int(trace)}: "
             f"{len(invocations)} invocations in {elapsed:.1f} s (closed loop, one client)",
             f"inputs: {json.dumps(inp)}",
             "reference: " + ("compared (default seed)" if ref is not None
                              else "not compared (recorded for the default seed only)")]
    for c in cells.get(first, []):
        verdict = "PASS" if c.ok else ("FAIL (known defect, " + c.known_defect + ")"
                                       if c.known_defect else "FAIL")
        lines.append(f"check {verdict} {c.name}: "
                     + "; ".join(f"{k.name} {'ok' if k.ok else 'FAILED'}: {k.detail}"
                                 for k in c.checks))
    known = sum(1 for c in cells.get(first, []) if not c.ok and c.known_defect)
    lines.append(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} cells; "
                 f"{known} per invocation are the known defect)")

    ok_runs = [inv for inv in invocations if inv.proc.returncode == 0] or invocations
    if trace:
        metrics, absent, unequal = trace_metrics(ok_runs)
        problems += [f"count {m} differs between traced invocations" for m in unequal]
        lines += [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        if absent:
            lines.append("absent (reported as 0): " + ", ".join(absent))
    else:
        absent = []
        steps = workloads.mode_steps(workload, inp)
        samples = {"wall_s": [inv.proc.wall_s for inv in ok_runs],
                   "mode_steps_per_s": [steps / inv.proc.wall_s for inv in ok_runs],
                   "cpu_s": [inv.proc.cpu_s for inv in ok_runs],
                   "peak_rss_mb": [inv.proc.peak_rss_mb for inv in ok_runs],
                   "setup_s": [p.wall_s for p in setup]}
        metrics = {k: {"value": _median(v), "unit": END_TO_END[k]} for k, v in samples.items()}
        lines.append(f"mode_steps = {steps} count per invocation (computed from the inputs)")
        lines.append(f"medians over {len(ok_runs)} invocations (min..max); "
                     f"setup_s over {len(setup)} launches")
        for k, v in samples.items():
            lines.append(f"{k} = {metrics[k]['value']:.6g} {END_TO_END[k]} "
                         f"({min(v):.6g}..{max(v):.6g})")
    for p in problems:
        lines.append(f"problem: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = dict(result, provenance=provenance(seed, inp), absent=absent, problems=problems,
                  failed_frac=failed / attempted, workload=workload, seconds=seconds,
                  invocations=[{"traced": inv.traced, "returncode": inv.proc.returncode,
                                "wall_s": inv.proc.wall_s, "cpu_s": inv.proc.cpu_s,
                                "peak_rss_mb": inv.proc.peak_rss_mb, "digest": inv.digest,
                                "layers": inv.layers and inv.layers[0]}
                               for inv in invocations],
                  setup_s=[p.wall_s for p in setup],
                  checks=[{"cell": c.name, "ok": c.ok, "known_defect": c.known_defect,
                           "checks": [vars(k) for k in c.checks]}
                          for c in cells.get(first, [])])
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    lines.append(f"results: {path.relative_to(ROOT)}")
    print("\n".join(lines))
    return result


def trace_metrics(invocations: list[Invocation]):
    traced = [inv.layers for inv in invocations if inv.traced and inv.layers]
    plain = [inv.proc.wall_s for inv in invocations if not inv.traced]
    absent = sorted({m for _, a in traced for m in a})
    metrics, unequal = {}, []
    for name, unit in tracer.PER_LAYER.items():
        values = [vals[name] for vals, _ in traced]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                unequal.append(name)
            value = values[0] if values else 0
        else:
            value = _median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = _median([inv.proc.wall_s for inv in invocations if inv.traced])
    untraced_wall = _median(plain)
    for name, value in (("trace.wall_s", traced_wall), ("trace.untraced_wall_s", untraced_wall),
                        ("trace.overhead_frac",
                         traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0)):
        metrics[name] = {"value": value, "unit": TRACE_METRICS[name]}
    return metrics, absent, unequal


def record_reference(workload: str) -> None:
    inp = workloads.make_inputs(workload, workloads.DEFAULT_SEED)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=OUT))
    try:
        kind, args = workloads.target(workload, inp, work)
        proc = spawn(argv_for(kind, args, False), work, RUN_BUDGET_S)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} exited {proc.returncode}; reference not recorded")
        data = workloads.reference_data(workload, workloads.load_outputs(workload, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    refs[workload] = {"recorded_at": git_commit(), "seed": workloads.DEFAULT_SEED,
                      "inputs": inp, "data": data}
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"recorded {workload} in {REFERENCE.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record reference.json at the default seed and exit")
    ns = parser.parse_args(argv)
    # let a termination request unwind through spawn(), which kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "quenchsim" / "__init__.py").is_file():
        print(f"error: no quenchsim source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if ns.workload == "all" else [ns.workload]
    if ns.record_reference:
        for name in names:
            record_reference(name)
        return 0
    results = {name: run_workload(name, ns.seed, ns.seconds, bool(ns.trace)) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
