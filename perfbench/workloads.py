"""The four benchmark workloads: seeded inputs, the command each invocation
runs, the mode-steps it computes, and the checks on its outputs.

A workload's inputs come only from (workload, seed); the program under test
receives nothing else.  The seed jitters every rate (and T for lz-trajectory)
by about 1%, so no two seeds share an output, every seed does the same work
to within about 1%, and every physics oracle below holds for every seed.  At
DEFAULT_SEED the outputs are also compared with reference values recorded in
reference.json.

Checks work on parsed outputs, not on files, so the self-tests can feed them
doctored values.  Each check belongs to a cell (one rate of a scan, one row
of a sweep, one trajectory); a cell fails when any of its checks fails.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("ising-lin-scan", "wide-geo-modes", "kick-sweep", "lz-trajectory")

# What the installed `quenchsim` console script runs.
CLI_ENTRY = "import sys; from quenchsim.cli import main; sys.exit(main())"

HERE = Path(__file__).resolve().parent
LIN_SCAN_SCRIPT = HERE / "lin_scan.py"

# Tolerances, fixed before any run (see README.md for where they come from).
REF_REL_TOL = 1e-6      # continuous cells against the recorded reference
KICK_EXACT_TOL = 1e-12  # single-sample cells against the rate-free kick product
LZ_FORMULA_TOL = 5e-5   # final fidelity against 1 - exp(-pi eps^2 T / 40)
LZ_TRACE_TOL = 1e-9     # subsampled trajectory against the reference
LZ_TRACE_STRIDE = 2500  # one row per time unit at dt=4e-4

KNOWN_DEFECT = ("ROADMAP item 1: a width-dt kick train at non-integer T/dt "
                "takes the finite-width branch")


def make_inputs(workload: str, seed: int) -> dict:
    """Deterministic inputs of one workload for one seed (JSON-serialisable)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "ising-lin-scan":
        # six rates spaced evenly in log10 over [-2.25, -1.03], each moved by
        # up to 0.005 decades: T runs from ~10 to ~180, inside criterion 1's
        # window (rates 1e-3 .. 1e-1)
        grid = [-1.03 + i * (-2.25 + 1.03) / 5 for i in range(6)]
        rates = [10 ** (x + rng.uniform(-0.005, 0.005)) for x in grid]
        return {"spins": 250, "dt": 1e-3, "h": [10.0, 0.0], "rates": rates,
                "window": [min(rates) * 0.9, max(rates) * 1.1]}
    if workload == "wide-geo-modes":
        return {"spins": 2000, "dt": 1e-3,
                "rate": 10 ** (-1.0 + rng.uniform(-0.002, 0.002))}
    if workload == "kick-sweep":
        dt = 1e-4
        # T/dt near six fixed values (so every seed does the same work to
        # within 1%): two whole numbers, two with a fraction below one half
        # (rounds down: the single-sample branch is taken) and two above it
        # (rounds up: the finite-width branch is taken, the known defect)
        fracs = [0.0, 0.0, rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4),
                 rng.uniform(0.6, 0.9), rng.uniform(0.6, 0.9)]
        rng.shuffle(fracs)
        slots = (2700, 3800, 5000, 6300, 7700, 9300)
        whole = [round(n * (1.0 + rng.uniform(-0.01, 0.01))) for n in slots]
        rates = sorted(1.0 / ((n + f) * dt) for n, f in zip(whole, fracs))
        return {"spins": 250, "dt": dt, "strategies": ["geojump", "geo"],
                "kicks": [2, 5, 10], "pulse_widths": [0.0, 0.01], "workers": 2,
                "h": [10.0, 0.0], "rates": rates}
    if workload == "lz-trajectory":
        # dt=4e-4 (2.5e5 steps) rather than 1e-4: the final fidelity moves by
        # 1e-11, and an invocation of ~4 s lets a run take the median of
        # several instead of the mean of two ~17 s ones
        return {"strategy": "lin", "eps": 0.1, "x": [-10.0, 10.0], "dt": 4e-4,
                "T": 100.0 * (1.0 + rng.uniform(-0.005, 0.005))}
    raise ValueError(f"unknown workload {workload!r}")


def _n_steps(T: float, dt: float) -> int:
    return max(1, int(round(T / dt)))


def _sweep_cells(inp: dict) -> list[dict]:
    """Cells of a kick-sweep in the order `quenchsim sweep` enumerates them."""
    cells = []
    for strategy in inp["strategies"]:
        jump = strategy == "geojump"
        for nk in inp["kicks"] if jump else [0]:
            for width in inp["pulse_widths"] if jump else [0.0]:
                for rate in inp["rates"]:
                    cells.append({"strategy": strategy, "kicks": nk,
                                  "width": (width or inp["dt"]) if jump else 0.0,
                                  "rate": rate})
    return cells


def mode_steps(workload: str, inp: dict) -> int:
    """Mode-steps one invocation computes, counted from its inputs.

    Continuous cells count round(T/dt)*M, single-sample kicks n_kicks*M,
    finite-width kicks n_kicks*ceil(width/dt)*M, LZ round(T/dt); a cell the
    program evolves twice counts once.
    """
    if workload == "ising-lin-scan":
        return sum(_n_steps(1.0 / r, inp["dt"]) for r in inp["rates"]) * (inp["spins"] // 2)
    if workload == "wide-geo-modes":
        return _n_steps(1.0 / inp["rate"], inp["dt"]) * (inp["spins"] // 2)
    if workload == "kick-sweep":
        dt, m = inp["dt"], inp["spins"] // 2
        total = 0
        for cell in _sweep_cells(inp):
            if cell["strategy"] == "geo":
                total += _n_steps(1.0 / cell["rate"], dt) * m
            elif cell["width"] == dt:
                total += cell["kicks"] * m
            else:
                total += cell["kicks"] * math.ceil(cell["width"] / dt - 1e-9) * m
        return total
    if workload == "lz-trajectory":
        return _n_steps(inp["T"], inp["dt"])
    raise ValueError(f"unknown workload {workload!r}")


def cells_per_invocation(workload: str, inp: dict) -> int:
    if workload == "ising-lin-scan":
        return len(inp["rates"]) + 1  # one per rate, plus the fit
    if workload == "kick-sweep":
        return len(_sweep_cells(inp))
    return 1


def target(workload: str, inp: dict, workdir: Path) -> tuple[str, list[str]]:
    """What one invocation runs: ("cli", quenchsim arguments) or
    ("script", [script, arguments...]).  Outputs land in workdir."""
    if workload == "ising-lin-scan":
        (workdir / "inputs.json").write_text(json.dumps(inp))
        return "script", [str(LIN_SCAN_SCRIPT), "inputs.json", "scan.json"]
    if workload == "wide-geo-modes":
        return "cli", ["chain", "--regime", "ising", "--strategy", "geo",
                       "--spins", str(inp["spins"]), "--dt", repr(inp["dt"]),
                       "--rates", repr(inp["rate"]), "--workers", "1",
                       "--modes-out", "modes.csv", "-o", "defects.csv"]
    if workload == "kick-sweep":
        return "cli", ["sweep", "--regime", "ising",
                       "--strategy", *inp["strategies"],
                       "--kicks", *map(str, inp["kicks"]),
                       "--pulse-width", *map(repr, inp["pulse_widths"]),
                       "--per-mode-geodesic", "--spins", str(inp["spins"]),
                       "--dt", repr(inp["dt"]), "--workers", str(inp["workers"]),
                       "--rates", *map(repr, inp["rates"]), "-o", "sweep.csv"]
    if workload == "lz-trajectory":
        return "cli", ["lz", "--strategy", inp["strategy"], "--eps", repr(inp["eps"]),
                       "--x", *map(repr, inp["x"]), "--T", repr(inp["T"]),
                       "--dt", repr(inp["dt"]), "-o", "lz.csv"]
    raise ValueError(f"unknown workload {workload!r}")


OUTPUT_FILES = {
    "ising-lin-scan": ["scan.json"],
    "wide-geo-modes": ["defects.csv", "defects.csv.manifest.txt",
                       "modes.csv", "modes.csv.manifest.txt"],
    "kick-sweep": ["sweep.csv", "sweep.csv.manifest.txt"],
    "lz-trajectory": ["lz.csv", "lz.csv.manifest.txt"],
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Cell:
    name: str
    checks: list[Check] = field(default_factory=list)
    known_defect: str | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(ok), detail))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_outputs(workload: str, workdir: Path):
    """Parse an invocation's output files into what check() takes."""
    if workload == "ising-lin-scan":
        return json.loads((workdir / "scan.json").read_text())
    if workload == "wide-geo-modes":
        return {"defects": _read_rows(workdir / "defects.csv"),
                "modes": _read_rows(workdir / "modes.csv")}
    if workload == "kick-sweep":
        return _read_rows(workdir / "sweep.csv")
    if workload == "lz-trajectory":
        return np.loadtxt(workdir / "lz.csv", delimiter=",", skiprows=1, ndmin=2)
    raise ValueError(f"unknown workload {workload!r}")


def reference_data(workload: str, out) -> dict:
    """The part of one invocation's outputs that reference.json records."""
    if workload == "ising-lin-scan":
        return {"n_defect": out["n_defect"]}
    if workload == "wide-geo-modes":
        return {"p_k": [float(r["p_k"]) for r in out["modes"]]}
    if workload == "kick-sweep":
        return {"geo_n_defect": [float(r["n_defect"]) for r in out if r["strategy"] == "geo"]}
    if workload == "lz-trajectory":
        return {"stride": LZ_TRACE_STRIDE, "rows": out[::LZ_TRACE_STRIDE].tolist()}
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, inp: dict, out, ref: dict | None) -> list[Cell]:
    """Check one invocation's parsed outputs; ref is the recorded reference
    data when the inputs are those of DEFAULT_SEED, else None."""
    return _CHECKS[workload](inp, out, ref)


def _check_lin_scan(inp: dict, out: dict, ref: dict | None) -> list[Cell]:
    cells = []
    ns = out.get("n_defect", [])
    for i, rate in enumerate(inp["rates"]):
        cell = Cell(f"rate={rate:.6g}")
        cells.append(cell)
        if i >= len(ns) or out["rates"][i] != rate:
            cell.add("present", False, "no result for this rate")
            continue
        n = ns[i]
        cell.add("range", 0.0 < n <= 0.5, f"n_defect {n!r} in (0, 0.5]")
        if ref is not None:
            rel = _rel(n, ref["n_defect"][i])
            cell.add("reference", rel <= REF_REL_TOL,
                     f"n_defect rel dev {rel:.1e} from reference (<= {REF_REL_TOL:g})")
    fit = Cell("fit")
    exp, r2 = out.get("exponent", math.nan), out.get("r_squared", math.nan)
    fit.add("exponent", abs(exp - 0.5) <= 0.1, f"exponent {exp:.4f} in 0.5 +- 0.1")
    fit.add("r_squared", r2 > 0.99, f"r^2 {r2:.5f} > 0.99")
    cells.append(fit)
    return cells


def _check_wide_geo(inp: dict, out: dict, ref: dict | None) -> list[Cell]:
    cell = Cell(f"rate={inp['rate']:.6g}")
    rows, modes = out["defects"], out["modes"]
    m = inp["spins"] // 2
    shape_ok = len(rows) == 1 and float(rows[0]["rate"]) == inp["rate"] and len(modes) == m
    cell.add("shape", shape_ok, f"{len(rows)} defect row(s), {len(modes)} mode rows (want 1, {m})")
    if not shape_ok:
        return [cell]
    pk = [float(r["p_k"]) for r in modes]
    err = [float(r["err_k"]) for r in modes]
    cell.add("p_k range", all(0.0 <= p <= 1.0 for p in pk), "0 <= p_k <= 1")
    cell.add("err_k range", all(0.0 <= e <= 1.0 for e in err), "0 <= err_k <= 1")
    n, n_modes = float(rows[0]["n_defect"]), float(np.array(pk).mean() / 2.0)
    cell.add("n_defect = mean(p_k)/2", n == n_modes,
             f"defect table {n!r}, modes table {n_modes!r}")
    if ref is not None:
        dev = max(abs(p - q) for p, q in zip(pk, ref["p_k"]))
        cell.add("reference", dev <= REF_REL_TOL,
                 f"max |p_k - reference| {dev:.1e} (<= {REF_REL_TOL:g})")
    return [cell]


def _exact_kick_density(nk: int, inp: dict) -> float:
    """Rate-free defect density of an nk-kick train on the Ising line:
    the ordered SU(2) kick product per mode, projected per mode."""
    from quenchsim.freefermion import evolve_mode_kicks_exact, excitation_prob, momentum_grid

    h_i, h_f = inp["h"]
    lam = (2 * np.arange(1, nk + 1) - 1) / (2 * nk)
    pk = []
    for k in momentum_grid(inp["spins"]):
        th_i = math.atan2(h_i - math.cos(k), math.sin(k))
        th_f = math.atan2(h_f - math.cos(k), math.sin(k))
        U = evolve_mode_kicks_exact(k, th_i + (th_f - th_i) * lam, 1.0)
        pk.append(excitation_prob(U, k, 1.0, h_f, 1.0, h_i))
    return float(np.mean(pk) / 2.0)


def _integer_steps(rate: float, dt: float) -> bool:
    x = (1.0 / rate) / dt
    return abs(x - round(x)) < 1e-6


def _rounds_up(rate: float, dt: float) -> bool:
    """T/dt rounds up, so dt_eff < dt: where the program's float test sends a
    width-dt train down the finite-width branch (the known defect)."""
    T = 1.0 / rate
    return dt > (T / _n_steps(T, dt)) * (1 + 1e-9)


def _check_kick_sweep(inp: dict, out: list[dict], ref: dict | None) -> list[Cell]:
    dt = inp["dt"]
    found = {(r["strategy"], int(r["kicks"]), float(r["pulse_width"]), float(r["rate"])):
             float(r["n_defect"]) for r in out}
    expected = _sweep_cells(inp)
    values = [found.get((c["strategy"], c["kicks"], c["width"], c["rate"])) for c in expected]
    # single-sample runs carry no trace of T, so every cell of one kick count
    # must equal, bit for bit, the cells whose T/dt is a whole number
    exact, anchor = {}, {}
    for c, n in zip(expected, values):
        if c["strategy"] == "geojump" and c["width"] == dt and n is not None:
            if c["kicks"] not in exact:
                exact[c["kicks"]] = _exact_kick_density(c["kicks"], inp)
            if _integer_steps(c["rate"], dt):
                anchor.setdefault(c["kicks"], set()).add(n)
    cells, geo_i = [], 0
    for c, n in zip(expected, values):
        width = "dt" if c["width"] == dt else f"{c['width']:g}"
        cell = Cell(f"{c['strategy']} kicks={c['kicks']} width={width} rate={c['rate']:.6g}")
        cells.append(cell)
        if c["strategy"] == "geo":
            geo_i += 1
        if n is None:
            cell.add("present", False, "no row for this cell")
            continue
        if c["strategy"] == "geojump" and c["width"] == dt:
            dev = abs(n - exact[c["kicks"]])
            cell.add("rate-free product", dev <= KICK_EXACT_TOL,
                     f"|n - exact product| {dev:.1e} (<= {KICK_EXACT_TOL:g})")
            anchors = anchor.get(c["kicks"], set())
            cell.add("bitwise rate independence", anchors == {n},
                     f"n {n!r}; integer-T/dt cells give {sorted(anchors)!r}")
            if not cell.ok and _rounds_up(c["rate"], dt):
                cell.known_defect = KNOWN_DEFECT
            continue
        cell.add("range", 0.0 <= n <= 0.5, f"n_defect {n!r} in [0, 0.5]")
        if c["strategy"] == "geo" and ref is not None:
            rel = _rel(n, ref["geo_n_defect"][geo_i - 1])
            cell.add("reference", rel <= REF_REL_TOL,
                     f"n_defect rel dev {rel:.1e} from reference (<= {REF_REL_TOL:g})")
    return cells


def _check_lz(inp: dict, table, ref: dict | None) -> list[Cell]:
    n = _n_steps(inp["T"], inp["dt"])
    cell = Cell(f"T={inp['T']:.6g}")
    cell.add("rows", table.shape == (n + 1, 6), f"table shape {table.shape}, want ({n + 1}, 6)")
    if table.shape != (n + 1, 6):
        return [cell]
    fid = table[:, 1]
    cell.add("fidelity range", bool(np.all((fid >= 0.0) & (fid <= 1.0))),
             f"fidelity in [{fid.min():.3g}, {fid.max():.3g}] within [0, 1]")
    lz = 1.0 - math.exp(-math.pi * inp["eps"] ** 2 * inp["T"] / 40.0)
    dev = abs(fid[-1] - lz)
    cell.add("Landau-Zener formula", dev <= LZ_FORMULA_TOL,
             f"final fidelity {fid[-1]:.8f} vs 1-exp(-pi eps^2 T/40) = {lz:.8f} "
             f"(|dev| {dev:.1e} <= {LZ_FORMULA_TOL:g})")
    if ref is not None:
        want = np.array(ref["rows"])
        got = table[:: ref["stride"]]
        ok = got.shape == want.shape
        dev = float(np.max(np.abs(got - want))) if ok else math.inf
        cell.add("reference", ok and dev <= LZ_TRACE_TOL,
                 f"max |subsampled trace - reference| {dev:.1e} (<= {LZ_TRACE_TOL:g})")
    return [cell]


_CHECKS = {
    "ising-lin-scan": _check_lin_scan,
    "wide-geo-modes": _check_wide_geo,
    "kick-sweep": _check_kick_sweep,
    "lz-trajectory": _check_lz,
}
