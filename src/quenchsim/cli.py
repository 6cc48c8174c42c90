"""Command-line interface.

Subcommands:
    lz     one two-level sweep; writes the trajectory table.
    chain  one chain protocol at one or many quench rates; writes the defect
           table (and optionally the per-mode table for a single rate).
    sweep  cartesian product of strategies / kick counts / pulse widths x
           rates for one regime; writes one combined defect table.
    fit    log-log power-law fit of a defect table over a rate window.

Each flag's default lives on its argument.  A config file's values, converted
as their flags convert the command line, become the subcommand parser's
defaults, so flags given explicitly still override them; the resolved settings
are every destination of that parser.  A command maps them to (resolved,
tables, message), resolved being what its manifests list; main checks every
output path before any work starts, then writes the (path, header, rows,
columns) tables in order, each with its manifest, and prints the message.
chain and sweep share one runner over (rate, ChainConfig) cells, all built (so
checked) first.

A cell run in process threads its modes over every usable CPU; a pool of
--workers processes gives each cell max(1, CPUs // pool size) threads.
Runs are fully deterministic: no randomness anywhere, tasks are pure, results
are reduced in submission order, and every float is written as its shortest
round-trip repr, the bytes csv.writer writes for a Python float.  The float
tables (lz, --modes-out) are formatted in blocks of rows, on a pool of up to
every usable CPU once each worker gets enough blocks to pay for its start,
and written in order.  So identical configs produce byte-identical files for
any worker, thread or CPU count.  An output path must name a file in an
existing directory, no two files of a run (tables and manifests) may be the
same, and none may be the run's --input or --config file.  Each file is
written to a temporary file in its directory and renamed into place, so an
interrupted run leaves no partial file at the destination.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager
from functools import partial
from multiprocessing import Pool

from . import __version__
from .analysis import fit_power_law
from .freefermion import ChainConfig, Regime, _usable_cpus, run_chain
from .landau_zener import LZConfig, evolve_lz
from .schedules import KickTrain, Strategy, kick_train


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


@contextmanager
def _ordered_map(fn, items: list, size: int):
    """An iterator of fn(item) over items, in order: in process for size 1,
    else from a pool of size processes that take one item per task.  After
    an error the pool is closed and joined, not terminated: terminate can
    hang while the task thread still sends an item (seen with 200 kB blocks)."""
    if size <= 1:
        yield map(fn, items)
        return
    with Pool(size) as pool:
        try:
            yield pool.imap(fn, items)
        except Exception:
            pool.close()
            pool.join()
            raise


# A float table is formatted in blocks of _TABLE_BLOCK rows.  A pool takes
# them only when each worker gets _BLOCKS_PER_WORKER blocks or more: on 2
# CPUs a pool of 2 formatted faster than one process from about 5 blocks
# under fork, but only from about 50 under spawn, whose workers first import
# numpy and quenchsim (some 100 ms).
_TABLE_BLOCK = 4096
_BLOCKS_PER_WORKER = 30


def _format_rows(columns: tuple) -> str:
    """The CSV lines of float columns' rows: each float's shortest
    round-trip repr, the bytes csv.writer writes for a Python float."""
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


def _atomic_write(path: str, header: list[str], rows: Iterable[tuple] = (),
                  columns: tuple | None = None) -> None:
    """The table: its header, then rows through csv.writer or, given
    columns, the rows of float columns (one length) formatted in blocks on a
    pool of up to every usable CPU and written in order."""
    if columns is None:
        def write(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

        _write_atomically(path, write)
        return
    n = len(columns[0])
    blocks = [tuple(c[i:i + _TABLE_BLOCK] for c in columns) for i in range(0, n, _TABLE_BLOCK)]
    size = min(_usable_cpus(), len(blocks) // _BLOCKS_PER_WORKER)
    with _ordered_map(_format_rows, blocks, size) as text:
        def write(fh):
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(text)

        _write_atomically(path, write)


def _write_manifest(out_path: str, resolved: dict) -> None:
    lines = [f"quenchsim {__version__}"] + [f"{k} = {resolved[k]}" for k in sorted(resolved)]
    _write_atomically(out_path + ".manifest.txt", lambda fh: fh.write("\n".join(lines) + "\n"))


def _rate_token(kind, token):
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"--rates: invalid {kind.__name__} value {token!r}") from None


def _parse_rates(tokens: list) -> list[float]:
    """Either 'log MIN MAX COUNT' or an explicit list of positive rates."""
    if len(tokens) == 0:
        raise ValueError("empty rate specification")
    if tokens[0] == "log":
        if len(tokens) != 4:
            raise ValueError("log rate range needs exactly: log MIN MAX COUNT")
        lo, hi = _rate_token(float, tokens[1]), _rate_token(float, tokens[2])
        count = _rate_token(int, tokens[3])
        if not (0 < lo < math.inf and 0 < hi < math.inf):
            raise ValueError(f"log-spaced rates require positive finite bounds, got {lo}, {hi}")
        if count < 2:
            raise ValueError(f"log rate range needs at least 2 points, got {count}")
        step = (math.log10(hi) - math.log10(lo)) / (count - 1)
        rates = [10 ** (math.log10(lo) + i * step) for i in range(count)]
    else:
        rates = [_rate_token(float, t) for t in tokens]
        if not all(0 < r < math.inf for r in rates):
            raise ValueError(f"rates must be positive and finite, got {rates}")
    if 1.0 / min(rates) == math.inf:
        raise ValueError(f"--rates: rate {min(rates)!r} is too small: T = 1/rate overflows")
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
    if spec == "auto":
        return _usable_cpus()
    try:
        n = int(spec)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"workers must be an integer >= 1 or 'auto', got {spec!r}")
    return n


def _kick_setting(n_kicks: int, width: float, dt: float) -> KickTrain | None:
    """--kicks and --pulse-width as a KickTrain: None for 0 kicks; a width of 0 means dt."""
    if n_kicks == 0 and width:
        raise ValueError(f"--pulse-width {width} needs --kicks >= 1")
    return kick_train(n_kicks, width or dt) if n_kicks else None


# ---------------------------------------------------------------------------
# lz
# ---------------------------------------------------------------------------

def _run_lz(cfg: dict) -> tuple:
    """lz: returns the trajectory table of one two-level sweep, for main to write."""
    traj = evolve_lz(LZConfig(
        eps=cfg["eps"], x_i=cfg["x"][0], x_f=cfg["x"][1], T=cfg["T"], dt=cfg["dt"],
        strategy=cfg["strategy"], kicks=_kick_setting(cfg["kicks"], cfg["pulse_width"], cfg["dt"]),
    ))
    header = ["t", "fidelity", "gap", "re_phase", "im_phase", "err"]
    columns = (traj.times, traj.fidelity, traj.gap, traj.phase_diff_re, traj.phase_diff_im,
               traj.err)
    message = (f"wrote {cfg['out']} ({len(traj.times)} rows, "
               f"final fidelity {float(traj.fidelity[-1])!r})")
    return cfg, [(cfg["out"], header, (), columns)], message


# ---------------------------------------------------------------------------
# chain / sweep
# ---------------------------------------------------------------------------

# (gamma, h) of each regime when not given
_REGIME_DEFAULTS = {Regime.ISING: ([1.0, 1.0], [10.0, 0.0]),
                    Regime.GAPLESS: ([-1.0, 1.0], [1.0, 1.0]),
                    Regime.ANISOTROPY: ([-1.0, 1.0], [0.5, 0.5])}


def _chain_cells(cfg: dict, combos: list[tuple], rates: list[float]) -> list[tuple]:
    """The (rate, ChainConfig) cells of a table: every rate of each
    (strategy, kicks, width) combination in turn, decoded by _kick_setting.
    Building a config checks it, so a bad cell fails before any runs."""
    gamma = cfg["gamma"] or _REGIME_DEFAULTS[cfg["regime"]][0]
    h = cfg["h"] or _REGIME_DEFAULTS[cfg["regime"]][1]
    cells = []
    for strategy, kicks, width in combos:
        train = _kick_setting(kicks, width, cfg["dt"])
        for rate in rates:
            cells.append((rate, ChainConfig(
                n_spins=cfg["spins"], regime=cfg["regime"],
                gamma_i=gamma[0], gamma_f=gamma[1], h_i=h[0], h_f=h[1],
                T=1.0 / rate, dt=cfg["dt"], strategy=strategy, kicks=train,
                collective_geodesic=not cfg["per_mode_geodesic"],
            )))
    return cells


def _defect_task(cell: tuple, track_err: bool = False, threads: int | None = None) -> tuple:
    """Worker entry: run one (rate, ChainConfig) cell on threads threads
    (None: all usable CPUs); returns (defect row, DefectResult, per-mode
    error or None)."""
    rate, chain = cell
    result, err = run_chain(chain, track_err=track_err, threads=threads)
    kicks = chain.kicks
    row = (
        rate, chain.strategy.value, chain.regime.value,
        kicks.n_kicks if kicks else 0, kicks.delta_t if kicks else 0.0, result.n_defect,
    )
    return row, result, err


_SWEEP_HEADER = ["rate", "strategy", "regime", "kicks", "pulse_width", "n_defect"]


def _run_cells(cells: list[tuple], workers: int, track_err: bool = False) -> list[tuple]:
    """Run the cells in order, in process on every usable CPU, or on a pool
    of min(workers, cells) processes that take one cell per task, so no
    worker idles while another holds a queue of cells, and share the CPUs
    out as threads (at least one each); returns each cell's (defect row,
    DefectResult, per-mode error or None)."""
    size = min(workers, len(cells))
    threads = None if size == 1 else max(1, _usable_cpus() // size)
    with _ordered_map(partial(_defect_task, track_err=track_err, threads=threads),
                      cells, size) as results:
        return list(results)


def _run_table(cfg: dict, sweep: bool) -> tuple:
    """chain and sweep: return one defect table over (strategy, kicks, width)
    combinations x rates, and with chain's --modes-out the mode table of its
    single rate; sweep runs the product of its lists, with kicks and widths
    for geojump only.  main writes them; resolved holds the parsed rates."""
    if cfg["rates"] is None:
        raise ValueError(f"{'sweep' if sweep else 'chain'} requires --rates "
                         "(list or: log MIN MAX COUNT)")
    rates = _parse_rates(cfg["rates"])
    modes_out = cfg.get("modes_out")
    if modes_out and len(rates) != 1:
        raise ValueError("--modes-out requires exactly one rate")
    workers = _resolve_workers(cfg["workers"])
    if sweep:
        combos = [(s, nk, w) for s in cfg["strategy"]
                  for nk in (cfg["kicks"] if s == Strategy.GEO_JUMP else [0])
                  for w in (cfg["pulse_width"] if s == Strategy.GEO_JUMP else [0.0])]
    else:
        combos = [(cfg["strategy"], cfg["kicks"], cfg["pulse_width"])]
    # with --modes-out one run gives the defect row and the mode table: p_k
    # does not depend on track_err
    results = _run_cells(_chain_cells(cfg, combos, rates), workers, track_err=bool(modes_out))
    tables = [(cfg["out"], _SWEEP_HEADER, [row for row, _, _ in results], None)]
    if modes_out:
        _, result, err = results[0]
        tables.append((modes_out, ["k", "p_k", "err_k"], (), (result.ks, result.pk, err)))
    message = f"wrote {', '.join(t[0] for t in tables)} ({len(results)} rows)"
    return {**cfg, "rates": rates}, tables, message


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _run_fit(cfg: dict) -> tuple:
    """fit: returns the power-law fit table of a defect table's groups, and a line per group."""
    if not cfg["input"]:
        raise ValueError("fit requires --input CSV")
    if cfg["window"] is None:
        raise ValueError("fit requires --window MIN MAX")
    lo, hi = cfg["window"]
    path, columns = cfg["input"], ("regime", "strategy", "kicks", "pulse_width")
    groups: dict[tuple[str, ...], list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "rate" not in reader.fieldnames \
                or "n_defect" not in reader.fieldnames:
            raise ValueError(f"{path}: need columns 'rate' and 'n_defect'")
        for rec in reader:
            try:
                point = (float(rec["rate"]), float(rec["n_defect"]))
            except (TypeError, ValueError):  # a short row reads None
                raise ValueError(f"{path}:{reader.line_num}: need numbers for rate and "
                                 f"n_defect, got {rec['rate']!r}, {rec['n_defect']!r}") from None
            groups.setdefault(tuple(rec.get(col, "") for col in columns), []).append(point)
    if not groups:
        raise ValueError(f"{path}: no data rows")
    rows, lines = [], []
    for key in sorted(groups):
        fit = fit_power_law(groups[key], (lo, hi))
        rows.append((*key, fit.exponent, fit.r_squared, lo, hi))
        lines.append("fit " + " ".join(f"{col}={v or '-'}" for col, v in zip(columns, key))
                     + f" exponent={fit.exponent:.4f} r2={fit.r_squared:.6f}")
    header = [*columns, "exponent", "r_squared", "window_min", "window_max"]
    return cfg, [(cfg["out"], header, rows, None)], "\n".join(lines)


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
        p.set_defaults(func=partial(_run_table, sweep=multi), parser=p)

    p = sub.add_parser("fit", help="log-log power-law fit of a defect table")
    p.add_argument("--input", default="", help="defect CSV with columns rate, n_defect")
    p.add_argument("--window", type=float, nargs=2, metavar=("MIN", "MAX"))
    _add_common(p, "fit_report.csv")
    p.set_defaults(func=_run_fit, parser=p)

    # argparse's negative-number pattern (a private attribute on Python 3.10 to 3.13) reads
    # -1e3 as a flag; no subcommand has a flag that looks like a number, so allow exponents
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not hasattr(ns, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        if ns.config:
            _config_defaults(ns)
            ns = parser.parse_args(argv)
        out, modes_out = ns.out, getattr(ns, "modes_out", "")
        if not out:
            raise ValueError("--out: empty path")
        paths = [p for p in (out, modes_out) if p]
        for path in paths:
            if not os.path.basename(path) or os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it names a directory")
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValueError(f"cannot write {path}: no such directory")
        written = [os.path.realpath(p + ext) for p in paths for ext in ("", ".manifest.txt")]
        if len(set(written)) < len(written):
            raise ValueError(f"--out {out} and --modes-out {modes_out} would overwrite each other")
        for flag, source in (("--config", ns.config), ("--input", getattr(ns, "input", ""))):
            if source and os.path.realpath(source) in written:
                at = written.index(os.path.realpath(source))
                dest = f"--out {out}" if at < 2 else f"--modes-out {modes_out}"
                raise ValueError(f"{'the manifest of ' if at % 2 else ''}{dest} would overwrite "
                                 f"{flag} {source}")
        resolved, tables, message = ns.func(_settings(ns))
        for path, header, rows, columns in tables:
            _atomic_write(path, header, rows, columns)
            _write_manifest(path, resolved)
        print(message)
        return 0
    except (ValueError, OSError, MemoryError) as exc:  # numpy: "Unable to allocate ..."
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
