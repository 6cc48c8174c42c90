"""Command-line interface.

Subcommands:
    lz     one two-level sweep; writes the trajectory table.
    chain  one chain protocol at one or many quench rates; writes the defect
           table (and optionally the per-mode table for a single rate).
    sweep  cartesian product of strategies / kick counts / pulse widths x
           rates for one regime; writes one combined defect table.
    fit    log-log power-law fit of a defect table over a rate window.

chain and sweep share one runner: a table is a list of (rate, ChainConfig)
cells, all built (and so checked) before the first one runs.

Each flag's default lives on its argument.  A config file's values, converted
as their flags convert the command line, become the subcommand parser's
defaults, so flags given explicitly still override them; the resolved
settings (and the manifest's keys) are every destination of that parser.

Runs are fully deterministic: no randomness anywhere, tasks are pure, results
are reduced in submission order, and floats are written with shortest
round-trip repr, so identical configs produce byte-identical files for any
worker count.  Every output's directory is checked before any work starts.
Output files are written to a temporary file in the target directory and
renamed into place, so an interrupted run leaves no partial file at the
destination; a manifest listing the fully resolved configuration is written
next to each output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from multiprocessing import Pool

import numpy as np

from . import __version__
from .analysis import fit_power_law
from .freefermion import ChainConfig, Regime, run_chain
from .landau_zener import LZConfig, evolve_lz
from .schedules import Strategy, kick_train


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _write_atomically(path: str, write) -> None:
    """write(fh) into a temporary file in the target directory, then rename
    it into place, so an interrupted run leaves no partial file at path."""
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(os.path.abspath(path)))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, header: list[str], rows: Iterable[tuple]) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    _write_atomically(path, write)


def _write_manifest(out_path: str, resolved: dict) -> str:
    path = out_path + ".manifest.txt"
    lines = [f"quenchsim {__version__}"] + [f"{k} = {_fmt(resolved[k])}" for k in sorted(resolved)]
    _write_atomically(path, lambda fh: fh.write("\n".join(lines) + "\n"))
    return path


def _parse_rates(tokens: list) -> list[float]:
    """Either 'log MIN MAX COUNT' or an explicit list of positive rates."""
    if len(tokens) == 0:
        raise ValueError("empty rate specification")
    if str(tokens[0]) == "log":
        if len(tokens) != 4:
            raise ValueError("log rate range needs exactly: log MIN MAX COUNT")
        lo, hi = float(tokens[1]), float(tokens[2])
        count = int(tokens[3])
        if not (0 < lo < math.inf and 0 < hi < math.inf):
            raise ValueError(f"log-spaced rates require positive finite bounds, got {lo}, {hi}")
        if count < 2:
            raise ValueError(f"log rate range needs at least 2 points, got {count}")
        step = (math.log10(hi) - math.log10(lo)) / (count - 1)
        return [10 ** (math.log10(lo) + i * step) for i in range(count)]
    rates = [float(t) for t in tokens]
    if not all(0 < r < math.inf for r in rates):
        raise ValueError(f"rates must be positive and finite, got {rates}")
    return rates


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid config file: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}:1: config file must hold a JSON object")
    return data


def _convert(action: argparse.Action, value):
    """A config-file value converted as its flag converts the command line:
    the flag's item count, its type applied to each item's text, and its
    choices.  So {"kicks": 2.5} fails like --kicks 2.5 does."""
    if action.nargs == 0:  # an on/off flag
        if isinstance(value, bool):
            return value
        raise ValueError(f"expected true or false, got {value!r}")
    items = [value] if action.nargs is None else value
    want = "1 or more" if action.nargs == "+" else action.nargs
    if not isinstance(items, list) or not items or isinstance(want, int) and len(items) != want:
        raise ValueError(f"expected a list of {want} value(s), got {value!r}")
    out = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ValueError(f"invalid value {item!r}")
        item = action.type(str(item)) if action.type else str(item)
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"invalid choice {item!r} (choose from {', '.join(action.choices)})")
        out.append(item)
    return out[0] if action.nargs is None else out


def _config_defaults(ns: argparse.Namespace) -> None:
    """Make the config file's values the defaults of the subcommand's parser."""
    file_cfg = _load_config_file(ns.config)
    actions = {a.dest: a for a in ns.parser._actions}
    unknown = set(file_cfg) - set(_settings(ns))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key, value in file_cfg.items():
        try:
            ns.parser.set_defaults(**{key: _convert(actions[key], value)})
        except ValueError as exc:
            raise ValueError(f"{ns.config}: {key}: {exc}") from exc


def _settings(ns: argparse.Namespace) -> dict:
    """The resolved run settings: every destination of the subcommand's parser."""
    return {a.dest: getattr(ns, a.dest) for a in ns.parser._actions
            if a.dest not in ("help", "config")}


def _resolve_workers(spec) -> int:
    if spec in (None, "auto"):
        return os.cpu_count() or 1
    n = int(spec)
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# lz
# ---------------------------------------------------------------------------

def _run_lz(ns: argparse.Namespace) -> int:
    cfg = _settings(ns)
    traj = evolve_lz(LZConfig(
        eps=cfg["eps"], x_i=cfg["x"][0], x_f=cfg["x"][1], T=cfg["T"], dt=cfg["dt"],
        strategy=Strategy(cfg["strategy"]),
        kicks=kick_train(cfg["kicks"], cfg["pulse_width"] or cfg["dt"]) if cfg["kicks"] else None,
    ))
    rows = zip(traj.times, traj.fidelity, traj.gap, traj.phase_diff_re,
               traj.phase_diff_im, traj.err)
    _atomic_write(cfg["out"], ["t", "fidelity", "gap", "re_phase", "im_phase", "err"], rows)
    _write_manifest(cfg["out"], cfg)
    print(f"wrote {cfg['out']} ({len(traj.times)} rows, "
          f"final fidelity {float(traj.fidelity[-1])!r})")
    return 0


# ---------------------------------------------------------------------------
# chain / sweep
# ---------------------------------------------------------------------------

# (gamma, h) of each regime when not given
_REGIME_DEFAULTS = {Regime.ISING: ([1.0, 1.0], [10.0, 0.0]),
                    Regime.GAPLESS: ([-1.0, 1.0], [1.0, 1.0]),
                    Regime.ANISOTROPY: ([-1.0, 1.0], [0.5, 0.5])}


def _chain_cells(cfg: dict, combos: list[tuple], rates: list[float]) -> list[tuple]:
    """The (rate, ChainConfig) cells of a table: every rate of each
    (strategy, kicks, width) combination in turn.  A width of 0 means dt.
    Building a config checks it, so a bad cell fails before any runs."""
    regime = Regime(cfg["regime"])
    gamma = cfg["gamma"] or _REGIME_DEFAULTS[regime][0]
    h = cfg["h"] or _REGIME_DEFAULTS[regime][1]
    cells = []
    for strategy, kicks, width in combos:
        train = kick_train(kicks, width or cfg["dt"]) if kicks else None
        for rate in rates:
            cells.append((rate, ChainConfig(
                n_spins=int(cfg["spins"]), regime=regime,
                gamma_i=gamma[0], gamma_f=gamma[1], h_i=h[0], h_f=h[1],
                T=1.0 / rate, dt=cfg["dt"], strategy=Strategy(strategy), kicks=train,
                collective_geodesic=not cfg["per_mode_geodesic"],
            )))
    return cells


def _defect_task(cell: tuple, track_err: bool = False) -> tuple:
    """Worker entry: run one (rate, ChainConfig) cell; returns
    (defect row, DefectResult, per-mode error or None)."""
    rate, chain = cell
    result, err = run_chain(chain, track_err=track_err)
    kicks = chain.kicks
    row = (
        rate, chain.strategy.value, chain.regime.value,
        kicks.n_kicks if kicks else 0, kicks.delta_t if kicks else 0.0, result.n_defect,
    )
    return row, result, err


_SWEEP_HEADER = ["rate", "strategy", "regime", "kicks", "pulse_width", "n_defect"]


def _run_cells(cfg: dict, cells: list[tuple]) -> list[tuple]:
    workers = _resolve_workers(cfg["workers"])
    if workers == 1 or len(cells) == 1:
        results = [_defect_task(c) for c in cells]
    else:
        with Pool(min(workers, len(cells))) as pool:
            results = pool.map(_defect_task, cells)
    return [row for row, _, _ in results]


def _run_table(ns: argparse.Namespace) -> int:
    """chain and sweep: one defect table over (strategy, kicks, width)
    combinations x rates.  chain runs one combination, and with --modes-out
    also writes the mode table of its single rate; sweep runs the product of
    its lists, with kicks and widths for geojump only."""
    sweep = ns.command == "sweep"
    cfg = _settings(ns)
    if cfg["rates"] is None:
        raise ValueError(f"{ns.command} requires --rates (list or: log MIN MAX COUNT)")
    rates = _parse_rates(cfg["rates"])
    modes_out = cfg.get("modes_out")
    if modes_out and len(rates) != 1:
        raise ValueError("--modes-out requires exactly one rate")
    if sweep:
        combos = [(s, nk, w) for s in cfg["strategy"]
                  for nk in (cfg["kicks"] if s == Strategy.GEO_JUMP else [0])
                  for w in (cfg["pulse_width"] if s == Strategy.GEO_JUMP else [0.0])]
    else:
        combos = [(cfg["strategy"], cfg["kicks"], cfg["pulse_width"])]
    cells = _chain_cells(cfg, combos, rates)
    if modes_out:
        # one run gives the defect row and the mode table: p_k does not
        # depend on track_err
        row, result, err = _defect_task(cells[0], track_err=True)
        rows = [row]
    else:
        rows = _run_cells(cfg, cells)
    _atomic_write(cfg["out"], _SWEEP_HEADER, rows)
    resolved = dict(cfg)
    resolved["rates"] = [float(r) for r in rates]
    _write_manifest(cfg["out"], resolved)
    written = [cfg["out"]]
    if modes_out:
        _atomic_write(modes_out, ["k", "p_k", "err_k"], zip(result.ks, result.pk, err))
        _write_manifest(modes_out, resolved)
        written.append(modes_out)
    print(f"wrote {', '.join(written)} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _run_fit(ns: argparse.Namespace) -> int:
    cfg = _settings(ns)
    if not cfg["input"]:
        raise ValueError("fit requires --input CSV")
    if cfg["window"] is None:
        raise ValueError("fit requires --window MIN MAX")
    lo, hi = cfg["window"]
    columns = ("regime", "strategy", "kicks", "pulse_width")
    groups: dict[tuple[str, ...], list[tuple[float, float]]] = {}
    with open(cfg["input"], newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "rate" not in reader.fieldnames \
                or "n_defect" not in reader.fieldnames:
            raise ValueError(f"{cfg['input']}: need columns 'rate' and 'n_defect'")
        for rec in reader:
            key = tuple(rec.get(col, "") for col in columns)
            groups.setdefault(key, []).append((float(rec["rate"]), float(rec["n_defect"])))
    rows = []
    for key in sorted(groups):
        fit = fit_power_law(groups[key], (lo, hi))
        rows.append((*key, fit.exponent, fit.r_squared, lo, hi))
        print("fit " + " ".join(f"{col}={v or '-'}" for col, v in zip(columns, key))
              + f" exponent={fit.exponent:.4f} r2={fit.r_squared:.6f}")
    _atomic_write(cfg["out"], [*columns, "exponent", "r_squared", "window_min", "window_max"],
                  rows)
    _write_manifest(cfg["out"], cfg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, out: str) -> None:
    p.add_argument("--config", help="JSON file with defaults (flags override)")
    p.add_argument("--out", "-o", default=out, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchsim",
        description="Quench dynamics of two-level systems and free-fermion chains",
    )
    parser.add_argument("--version", action="version", version=f"quenchsim {__version__}")
    sub = parser.add_subparsers(dest="command")
    strategies = [s.value for s in Strategy]

    p = sub.add_parser("lz", help="two-level sweep trajectory")
    p.add_argument("--strategy", choices=strategies, default="lin")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--x", type=float, nargs=2, metavar=("XI", "XF"), default=[-10.0, 10.0])
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--kicks", type=int, default=0)
    # a width of 0 means dt (single-sample kicks)
    p.add_argument("--pulse-width", dest="pulse_width", type=float, default=0.0)
    _add_common(p, "lz_trajectory.csv")
    p.set_defaults(func=_run_lz, parser=p)

    for name, help_text, multi, out in (
        ("chain", "one chain protocol across quench rates", False, "defects.csv"),
        ("sweep", "cross strategies x kicks x widths x rates", True, "sweep.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--regime", choices=[r.value for r in Regime], default="ising")
        # sweep takes a list of each, chain one value
        nargs, one = ("+", lambda v: [v]) if multi else (None, lambda v: v)
        p.add_argument("--strategy", choices=strategies, nargs=nargs, default=one("lin"))
        p.add_argument("--kicks", type=int, nargs=nargs, default=one(0))
        p.add_argument("--pulse-width", dest="pulse_width", type=float, nargs=nargs,
                       default=one(0.0))
        p.add_argument("--spins", type=int, default=250)
        p.add_argument("--gamma", type=float, nargs=2, metavar=("GI", "GF"))
        p.add_argument("--h", type=float, nargs=2, metavar=("HI", "HF"))
        p.add_argument("--rates", nargs="+", metavar="R",
                       help="explicit rates, or: log MIN MAX COUNT")
        p.add_argument("--dt", type=float, default=1e-4)
        p.add_argument("--per-mode-geodesic", dest="per_mode_geodesic", action="store_true",
                       help="use one constant-speed schedule per mode instead of "
                            "the collective constant-speed control")
        p.add_argument("--workers", default="auto", help="worker processes (integer or 'auto')")
        if not multi:
            p.add_argument("--modes-out", dest="modes_out", default="",
                           help="per-mode CSV (k, p_k, err_k); single rate only")
        _add_common(p, out)
        p.set_defaults(func=_run_table, parser=p)

    p = sub.add_parser("fit", help="log-log power-law fit of a defect table")
    p.add_argument("--input", default="", help="defect CSV with columns rate, n_defect")
    p.add_argument("--window", type=float, nargs=2, metavar=("MIN", "MAX"))
    _add_common(p, "fit_report.csv")
    p.set_defaults(func=_run_fit, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if not argv:
        parser.print_help(sys.stderr)
        return 2
    ns = parser.parse_args(argv)
    if not hasattr(ns, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        if ns.config:
            _config_defaults(ns)
            ns = parser.parse_args(argv)
        for path in (ns.out, getattr(ns, "modes_out", "")):
            if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValueError(f"cannot write {path}: no such directory")
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
