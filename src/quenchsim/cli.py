"""Command-line interface.

Subcommands:
    lz     one two-level sweep; writes the trajectory table.
    chain  one chain protocol at one or many quench rates; writes the defect
           table (and optionally the per-mode table for a single rate).
    sweep  cartesian product of strategies / kick counts / pulse widths x
           rates for one regime; writes one combined defect table.
    fit    log-log power-law fit of a defect table over a rate window.

Runs are fully deterministic: no randomness anywhere, tasks are pure, results
are reduced in submission order, and floats are written with shortest
round-trip repr, so identical configs produce byte-identical files for any
worker count.  Output files are written to a temporary file in the target
directory and renamed into place, so an interrupted run leaves no partial
file at the destination; a manifest listing the fully resolved configuration
is written next to each output.
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


def _atomic_write(path: str, header: list[str], rows: Iterable[tuple]) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_path: str, resolved: dict) -> str:
    path = out_path + ".manifest.txt"
    lines = [f"quenchsim {__version__}"]
    for key in sorted(resolved):
        lines.append(f"{key} = {_fmt(resolved[key])}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
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
        if lo <= 0 or hi <= 0:
            raise ValueError(f"log-spaced rates require positive bounds, got {lo}, {hi}")
        if count < 2:
            raise ValueError(f"log rate range needs at least 2 points, got {count}")
        step = (math.log10(hi) - math.log10(lo)) / (count - 1)
        return [10 ** (math.log10(lo) + i * step) for i in range(count)]
    rates = [float(t) for t in tokens]
    if any(r <= 0 for r in rates):
        raise ValueError("rates must be positive")
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


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit command-line flags."""
    resolved = dict(defaults)
    if getattr(ns, "config", None):
        file_cfg = _load_config_file(ns.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        resolved.update(file_cfg)
    for key in defaults:
        val = getattr(ns, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


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

_LZ_DEFAULTS = {
    "strategy": "lin",
    "eps": 0.1,
    "x": [-10.0, 10.0],
    "T": 1.0,
    "dt": 1e-4,
    "kicks": 0,
    "pulse_width": 0.0,  # 0 -> use dt (single-sample kicks)
    "out": "lz_trajectory.csv",
}


def _build_lz_config(cfg: dict) -> LZConfig:
    strategy = Strategy(cfg["strategy"])
    if strategy is Strategy.GEO_JUMP:
        if cfg["kicks"] < 1:
            raise ValueError("geojump strategy requires --kicks >= 1")
        width = cfg["pulse_width"] or cfg["dt"]
        kicks = kick_train(int(cfg["kicks"]), cfg["T"], width)
    else:
        if cfg["kicks"]:
            raise ValueError(f"--kicks conflicts with strategy {strategy.value}")
        kicks = None
    x_i, x_f = cfg["x"]
    return LZConfig(
        eps=cfg["eps"], x_i=x_i, x_f=x_f, T=cfg["T"], dt=cfg["dt"],
        strategy=strategy, kicks=kicks,
    )


def _run_lz(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, _LZ_DEFAULTS)
    lz = _build_lz_config(cfg)
    traj = evolve_lz(lz)
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

_CHAIN_DEFAULTS = {
    "regime": "ising",
    "strategy": "lin",
    "spins": 250,
    "gamma": None,  # regime-dependent default
    "h": None,
    "rates": None,
    "dt": 1e-4,
    "kicks": 0,
    "pulse_width": 0.0,
    "per_mode_geodesic": False,
    "workers": "auto",
    "out": "defects.csv",
    "modes_out": "",
}

_SWEEP_DEFAULTS = dict(_CHAIN_DEFAULTS)
_SWEEP_DEFAULTS.update({
    "strategy": ["lin"],
    "kicks": [0],
    "pulse_width": [0.0],
    "out": "sweep.csv",
})
del _SWEEP_DEFAULTS["modes_out"]


def _regime_defaults(regime: Regime) -> tuple[list[float], list[float]]:
    if regime is Regime.ISING:
        return [1.0, 1.0], [10.0, 0.0]
    if regime is Regime.GAPLESS:
        return [-1.0, 1.0], [1.0, 1.0]
    return [-1.0, 1.0], [0.5, 0.5]


def _build_chain_config(cfg: dict, strategy: Strategy, rate: float,
                        kicks: int, pulse_width: float) -> ChainConfig:
    regime = Regime(cfg["regime"])
    gamma_def, h_def = _regime_defaults(regime)
    gamma = cfg["gamma"] if cfg["gamma"] is not None else gamma_def
    h = cfg["h"] if cfg["h"] is not None else h_def
    T = 1.0 / rate
    if strategy is Strategy.GEO_JUMP:
        if kicks < 1:
            raise ValueError("geojump strategy requires --kicks >= 1")
        width = pulse_width or cfg["dt"]
        train = kick_train(int(kicks), T, width)
    else:
        if kicks:
            raise ValueError(f"--kicks conflicts with strategy {strategy.value}")
        train = None
    return ChainConfig(
        n_spins=int(cfg["spins"]), regime=regime,
        gamma_i=gamma[0], gamma_f=gamma[1], h_i=h[0], h_f=h[1],
        T=T, dt=cfg["dt"], strategy=strategy, kicks=train,
        collective_geodesic=not cfg["per_mode_geodesic"],
    )


def _defect_task(payload: dict) -> tuple:
    """Worker entry: run one (strategy, rate, kicks, width) cell."""
    chain = _build_chain_config(
        payload["cfg"], Strategy(payload["strategy"]), payload["rate"],
        payload["kicks"], payload["pulse_width"],
    )
    result, _ = run_chain(chain)
    width = chain.kicks.delta_t if chain.kicks is not None else 0.0
    return (
        payload["rate"], payload["strategy"], payload["cfg"]["regime"],
        payload["kicks"], width, result.n_defect,
    )


_SWEEP_HEADER = ["rate", "strategy", "regime", "kicks", "pulse_width", "n_defect"]


def _run_cells(cfg: dict, cells: list[dict]) -> list[tuple]:
    # validate every cell up front so a bad config never launches the pool
    for cell in cells:
        _build_chain_config(cfg, Strategy(cell["strategy"]), cell["rate"],
                            cell["kicks"], cell["pulse_width"])
    workers = _resolve_workers(cfg["workers"])
    if workers == 1 or len(cells) == 1:
        return [_defect_task(c) for c in cells]
    with Pool(min(workers, len(cells))) as pool:
        return pool.map(_defect_task, cells)


def _run_chain_cmd(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, _CHAIN_DEFAULTS)
    if cfg["rates"] is None:
        raise ValueError("chain requires --rates (list or: log MIN MAX COUNT)")
    rates = _parse_rates(cfg["rates"])
    if cfg["modes_out"] and len(rates) != 1:
        raise ValueError("--modes-out requires exactly one rate")
    cells = [
        {"cfg": cfg, "strategy": cfg["strategy"], "rate": r,
         "kicks": int(cfg["kicks"]), "pulse_width": cfg["pulse_width"]}
        for r in rates
    ]
    rows = _run_cells(cfg, cells)
    _atomic_write(cfg["out"], _SWEEP_HEADER, rows)
    resolved = dict(cfg)
    resolved["rates"] = [float(r) for r in rates]
    _write_manifest(cfg["out"], resolved)
    written = [cfg["out"]]
    if cfg["modes_out"]:
        chain = _build_chain_config(cfg, Strategy(cfg["strategy"]), rates[0],
                                    int(cfg["kicks"]), cfg["pulse_width"])
        result, err = run_chain(chain, track_err=True)
        mode_rows = [
            (k, p, e) for (k, p), e in zip(result.pk.items(), err)
        ]
        _atomic_write(cfg["modes_out"], ["k", "p_k", "err_k"], mode_rows)
        _write_manifest(cfg["modes_out"], resolved)
        written.append(cfg["modes_out"])
    print(f"wrote {', '.join(written)} ({len(rows)} rate(s))")
    return 0


def _run_sweep(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, _SWEEP_DEFAULTS)
    if cfg["rates"] is None:
        raise ValueError("sweep requires --rates (list or: log MIN MAX COUNT)")
    rates = _parse_rates(cfg["rates"])
    strategies = cfg["strategy"] if isinstance(cfg["strategy"], list) else [cfg["strategy"]]
    kick_list = cfg["kicks"] if isinstance(cfg["kicks"], list) else [cfg["kicks"]]
    width_list = (cfg["pulse_width"] if isinstance(cfg["pulse_width"], list)
                  else [cfg["pulse_width"]])
    cells = []
    for strat in strategies:
        is_jump = Strategy(strat) is Strategy.GEO_JUMP
        for nk in (kick_list if is_jump else [0]):
            for width in (width_list if is_jump else [0.0]):
                for r in rates:
                    cells.append({"cfg": cfg, "strategy": strat, "rate": r,
                                  "kicks": int(nk), "pulse_width": width})
    rows = _run_cells(cfg, cells)
    _atomic_write(cfg["out"], _SWEEP_HEADER, rows)
    resolved = dict(cfg)
    resolved["rates"] = [float(r) for r in rates]
    _write_manifest(cfg["out"], resolved)
    print(f"wrote {cfg['out']} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

_FIT_DEFAULTS = {
    "input": "",
    "window": None,
    "out": "fit_report.csv",
}


def _run_fit(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, _FIT_DEFAULTS)
    if not cfg["input"]:
        raise ValueError("fit requires --input CSV")
    if cfg["window"] is None:
        raise ValueError("fit requires --window MIN MAX")
    lo, hi = float(cfg["window"][0]), float(cfg["window"][1])
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with open(cfg["input"], newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "rate" not in reader.fieldnames \
                or "n_defect" not in reader.fieldnames:
            raise ValueError(f"{cfg['input']}: need columns 'rate' and 'n_defect'")
        for rec in reader:
            key = (rec.get("regime", ""), rec.get("strategy", ""))
            groups.setdefault(key, []).append((float(rec["rate"]), float(rec["n_defect"])))
    rows = []
    for (regime, strategy) in sorted(groups):
        fit = fit_power_law(groups[(regime, strategy)], (lo, hi))
        rows.append((regime, strategy, fit.exponent, fit.r_squared, lo, hi))
        print(f"fit regime={regime or '-'} strategy={strategy or '-'} "
              f"exponent={fit.exponent:.4f} r2={fit.r_squared:.6f}")
    _atomic_write(cfg["out"], ["regime", "strategy", "exponent", "r_squared",
                               "window_min", "window_max"], rows)
    resolved = dict(cfg)
    resolved["window"] = [lo, hi]
    _write_manifest(cfg["out"], resolved)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults (flags override)")
    p.add_argument("--out", "-o", help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchsim",
        description="Quench dynamics of two-level systems and free-fermion chains",
    )
    parser.add_argument("--version", action="version", version=f"quenchsim {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("lz", help="two-level sweep trajectory")
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--eps", type=float)
    p.add_argument("--x", type=float, nargs=2, metavar=("XI", "XF"))
    p.add_argument("--T", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--kicks", type=int)
    p.add_argument("--pulse-width", dest="pulse_width", type=float)
    _add_common(p)
    p.set_defaults(func=_run_lz)

    for name, help_text, multi in (
        ("chain", "one chain protocol across quench rates", False),
        ("sweep", "cross strategies x kicks x widths x rates", True),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--regime", choices=[r.value for r in Regime])
        if multi:
            p.add_argument("--strategy", choices=[s.value for s in Strategy], nargs="+")
            p.add_argument("--kicks", type=int, nargs="+")
            p.add_argument("--pulse-width", dest="pulse_width", type=float, nargs="+")
        else:
            p.add_argument("--strategy", choices=[s.value for s in Strategy])
            p.add_argument("--kicks", type=int)
            p.add_argument("--pulse-width", dest="pulse_width", type=float)
        p.add_argument("--spins", type=int)
        p.add_argument("--gamma", type=float, nargs=2, metavar=("GI", "GF"))
        p.add_argument("--h", type=float, nargs=2, metavar=("HI", "HF"))
        p.add_argument("--rates", nargs="+", metavar="R",
                       help="explicit rates, or: log MIN MAX COUNT")
        p.add_argument("--dt", type=float)
        p.add_argument("--per-mode-geodesic", dest="per_mode_geodesic",
                       action="store_true", default=None,
                       help="use one constant-speed schedule per mode instead of "
                            "the collective constant-speed control")
        p.add_argument("--workers", help="worker processes (integer or 'auto')")
        if not multi:
            p.add_argument("--modes-out", dest="modes_out",
                           help="per-mode CSV (k, p_k, err_k); single rate only")
        _add_common(p)
        p.set_defaults(func=_run_chain_cmd if not multi else _run_sweep)

    p = sub.add_parser("fit", help="log-log power-law fit of a defect table")
    p.add_argument("--input", help="defect CSV with columns rate, n_defect")
    p.add_argument("--window", type=float, nargs=2, metavar=("MIN", "MAX"))
    _add_common(p)
    p.set_defaults(func=_run_fit)

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
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
