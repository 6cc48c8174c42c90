"""End-to-end tests of the command-line interface."""

import csv
import errno
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest
from oracles import fmt_manifest, fmt_table

from quenchsim import __version__, cli, freefermion


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_no_arguments_prints_usage(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lz", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args,setting", [
        (["chain", "--h", "10", "-1e3"], "h = [10.0, -1000.0]"),
        (["lz", "--x", "-1e2", "1e2"], "x = [-100.0, 100.0]"),
        (["chain", "--regime", "anisotropy", "--h", "0.5", "0.5", "--gamma", "-1e-1", "1"],
         "gamma = [-0.1, 1.0]"),
    ], ids=["chain-h", "lz-x", "chain-gamma"])
    def test_negative_numbers_in_exponent_form(self, args, setting, tmp_path):
        """argparse's own pattern reads -1e3 as a flag; the subcommands take it as a number."""
        out = tmp_path / "t.csv"
        rest = ["--spins", "8", "--rates", "1", "--dt", "1e-3"] if args[0] == "chain" else []
        assert cli.main([*args, *rest, "-o", str(out)]) == 0
        assert setting in (tmp_path / "t.csv.manifest.txt").read_text().splitlines()

    def test_odd_spin_count_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = cli.main(["chain", "--spins", "251", "--rates", "1.0",
                         "--dt", "1e-3", "-o", str(out)])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_kicks_conflict_with_lin(self, tmp_path, capsys):
        code = cli.main(["chain", "--strategy", "lin", "--kicks", "3",
                         "--spins", "8", "--rates", "1.0", "--dt", "1e-3",
                         "-o", str(tmp_path / "d.csv")])
        assert code == 2
        assert "conflict" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["lz", "--pulse-width", "0.01"],
        ["chain", "--strategy", "geo", "--pulse-width", "0.01", "--rates", "1", "--spins", "8"],
        ["sweep", "--strategy", "geojump", "--kicks", "0", "--pulse-width", "0.01",
         "--rates", "1", "--spins", "8"],
    ], ids=["lz", "chain", "sweep"])
    def test_pulse_width_without_kicks_exits_2(self, args, tmp_path, capsys, monkeypatch):
        """A pulse width with 0 kicks would be dropped: it is rejected before any run."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        out = tmp_path / "x.csv"
        assert cli.main([*args, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: --pulse-width 0.01 needs --kicks >= 1\n"
        assert not out.exists()

    def test_config_file_flag_precedence(self, tmp_path):
        """Flags override config-file values."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 1.0, "dt": 1e-3, "strategy": "lin",
                                   "out": str(tmp_path / "a.csv")}))
        out = tmp_path / "b.csv"
        code = cli.main(["lz", "--config", str(cfg), "--dt", "2e-3", "-o", str(out)])
        assert code == 0
        manifest = (str(out) + ".manifest.txt")
        text = Path(manifest).read_text()
        assert "dt = 0.002" in text
        assert "T = 1.0" in text

    def test_config_file_syntax_error_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "dt": .bad\n}')
        code = cli.main(["lz", "--config", str(cfg)])
        assert code == 2
        assert "broken.json:2" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dtt": 1e-3}))
        assert cli.main(["lz", "--config", str(cfg)]) == 2
        assert "dtt" in capsys.readouterr().err

    def test_log_rate_range_requires_positive_min(self, tmp_path, capsys):
        code = cli.main(["chain", "--spins", "8", "--rates", "log", "0", "1", "5",
                         "--dt", "1e-3", "-o", str(tmp_path / "d.csv")])
        assert code == 2


class TestLZCommand:
    def test_geojump_trajectory(self, tmp_path):
        """Short kicked sweep lands at >= 0.99 fidelity in the written CSV."""
        out = tmp_path / "traj.csv"
        code = cli.main(["lz", "--strategy", "geojump", "--T", "0.5", "--eps", "0.1",
                         "--x", "-10", "10", "--kicks", "10", "--dt", "1e-3",
                         "-o", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["t", "fidelity", "gap", "re_phase", "im_phase", "err"]
        assert len(rows) == 501
        assert float(rows[-1]["fidelity"]) >= 0.99
        assert os.path.exists(str(out) + ".manifest.txt")

    def test_final_fidelity_printed_as_plain_float(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert cli.main(["lz", "--T", "1.0", "--dt", "1e-2", "-o", str(out)]) == 0
        message = capsys.readouterr().out
        final = message.split("final fidelity ")[1].rstrip(")\n")
        assert final == repr(float(read_csv(out)[-1]["fidelity"]))

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "traj.csv"
        cli.main(["lz", "--T", "1.0", "--dt", "1e-2", "-o", str(out)])
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []


class TestChainCommand:
    def test_defect_table_schema(self, tmp_path):
        out = tmp_path / "defects.csv"
        code = cli.main(["chain", "--regime", "ising", "--strategy", "lin",
                         "--spins", "8", "--rates", "1.0", "2.0",
                         "--dt", "1e-3", "-o", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert list(rows[0].keys()) == ["rate", "strategy", "regime", "kicks",
                                        "pulse_width", "n_defect"]
        assert float(rows[0]["rate"]) == 1.0
        assert 0.0 <= float(rows[0]["n_defect"]) <= 0.5

    def test_per_mode_table(self, tmp_path):
        out = tmp_path / "defects.csv"
        modes = tmp_path / "modes.csv"
        code = cli.main(["chain", "--regime", "ising", "--strategy", "geojump",
                         "--kicks", "3", "--spins", "8", "--rates", "1.0",
                         "--dt", "1e-3", "-o", str(out), "--modes-out", str(modes)])
        assert code == 0
        rows = read_csv(modes)
        assert len(rows) == 4
        assert list(rows[0].keys()) == ["k", "p_k", "err_k"]
        assert all(np.isfinite(float(r["err_k"])) for r in rows)

    def test_modes_out_evolves_the_rate_once(self, tmp_path, monkeypatch):
        """The defect row and the mode table come from one run; the defect
        table is byte-identical with and without --modes-out."""
        calls = []
        evolve = freefermion.evolve_modes

        def counted(*args, **kwargs):
            calls.append(kwargs.get("track_err"))
            return evolve(*args, **kwargs)

        monkeypatch.setattr(freefermion, "evolve_modes", counted)
        args = ["chain", "--strategy", "geo", "--spins", "16", "--rates", "0.5", "--dt", "1e-3"]
        assert cli.main(args + ["-o", str(tmp_path / "a.csv")]) == 0
        assert calls == [False]
        assert cli.main(args + ["-o", str(tmp_path / "b.csv"),
                                "--modes-out", str(tmp_path / "m.csv")]) == 0
        assert calls == [False, True]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_modes_out_needs_single_rate(self, tmp_path, capsys):
        code = cli.main(["chain", "--spins", "8", "--rates", "1.0", "2.0",
                         "--dt", "1e-3", "-o", str(tmp_path / "d.csv"),
                         "--modes-out", str(tmp_path / "m.csv")])
        assert code == 2

    def test_modes_out_rate_check_precedes_writing(self, tmp_path):
        out, modes = tmp_path / "d.csv", tmp_path / "m.csv"
        code = cli.main(["chain", "--spins", "8", "--rates", "1.0", "2.0",
                         "--dt", "1e-3", "-o", str(out), "--modes-out", str(modes)])
        assert code == 2
        assert not out.exists()
        assert not (tmp_path / "d.csv.manifest.txt").exists()
        assert not modes.exists()

    def test_failed_mode_table_write_keeps_the_defect_table(self, tmp_path, capsys,
                                                            monkeypatch):
        """The defect table and its manifest are written before the mode table,
        so a failed mode-table write leaves them and nothing of its own."""
        write = cli._atomic_write

        def failing(path, *args, **kwargs):
            if path.endswith("modes.csv"):
                raise OSError(f"cannot write {path}: No space left on device")
            write(path, *args, **kwargs)

        monkeypatch.setattr(cli, "_atomic_write", failing)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["chain", "--spins", "8", "--dt", "1e-2", "--rates", "1", "-o", "d.csv",
                         "--modes-out", "modes.csv"]) == 2
        assert capsys.readouterr() == ("", "error: cannot write modes.csv: No space left on "
                                           "device\n")
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv.manifest.txt"]

    def test_mode_on_h_equal_cos_k_exits_2(self, tmp_path, capsys):
        """Per-mode geodesic at anisotropy h = 0, N = 10 (k = pi/2 on h = cos k)."""
        code = cli.main(["chain", "--regime", "anisotropy", "--h", "0", "0",
                         "--strategy", "geo", "--per-mode-geodesic", "--spins", "10",
                         "--rates", "1.0", "--dt", "1e-3", "-o", str(tmp_path / "d.csv")])
        assert code == 2
        assert "h = cos(k)" in capsys.readouterr().err

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        """Same config gives identical bytes, for any worker count."""
        args = ["chain", "--regime", "ising", "--strategy", "lin", "--spins", "8",
                "--rates", "log", "0.5", "2.0", "3", "--dt", "1e-3"]
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            assert cli.main(args + ["--workers", workers, "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestWorkersAndThreads:
    def test_auto_workers_follow_the_affinity_mask(self, monkeypatch):
        """'auto' counts the CPUs this process may run on, not the host's."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_workers("auto") == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 3, 6}, raising=False)
        assert cli._resolve_workers("auto") == 3

    @pytest.mark.parametrize("cpus,workers,threads", [
        (1, "2", [1, 1, 1]), (2, "2", [1, 1, 1]), (4, "2", [2, 2, 2]), (8, "3", [2, 2, 2]),
        (4, "1", [None, None, None]),
    ])
    def test_pool_workers_share_the_cpus_as_threads(self, cpus, workers, threads,
                                                     tmp_path, monkeypatch):
        """A pool of n workers gives each cell max(1, CPUs // n) threads; an
        in-process run leaves the count to the engine (all usable CPUs)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        seen, run_chain = [], cli.run_chain

        def spy(cfg, track_err=False, threads=None):
            seen.append(threads)
            return run_chain(cfg, track_err=track_err, threads=threads)

        class InlinePool:
            def __init__(self, size):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(cli, "run_chain", spy)
        monkeypatch.setattr(cli, "Pool", InlinePool)
        assert cli.main(["chain", "--spins", "8", "--dt", "1e-2", "--rates", "0.5", "1", "2",
                         "--workers", workers, "-o", str(tmp_path / "x.csv")]) == 0
        assert seen == threads

    def test_spawn_and_fork_pools_write_the_same_table(self, tmp_path):
        """The pool's workers start by spawn on macOS and Windows and by fork
        on Linux: a 9-row sweep --workers 2 on the host's CPUs and a 3-block
        lz table sent to a pool of 2, each in a fresh interpreter under one
        start method, write byte-identical tables."""
        main = ("import multiprocessing, os, sys\n"
                "from quenchsim import cli\n"
                "multiprocessing.set_start_method(sys.argv[1])\n"
                "if sys.argv[2] == 'lz':\n"
                "    os.sched_getaffinity = lambda pid: {0, 1}\n"
                "    cli._BLOCKS_PER_WORKER = 1\n"
                "sys.exit(cli.main(sys.argv[2:]))\n")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = {"sweep": ["sweep", "--strategy", "geo", "geojump", "--kicks", "2", "4",
                          "--per-mode-geodesic", "--spins", "16", "--dt", "1e-3",
                          "--rates", "1", "2", "3", "--workers", "2"],
                "lz": ["lz", "--strategy", "geo", "--T", "1.0006", "--dt", "1e-4"]}
        tables = {}
        for method in ("spawn", "fork"):
            for name, args in runs.items():
                out = tmp_path / f"{method}-{name}.csv"
                subprocess.run([sys.executable, "-c", main, method, *args, "-o", str(out)],
                               env=env, check=True, capture_output=True)
                tables[method, name] = out.read_bytes()
        assert tables["spawn", "sweep"].count(b"\n") == 10
        assert tables["spawn", "lz"].count(b"\n") == 10008
        for name in runs:
            assert tables["spawn", name] == tables["fork", name]

    @pytest.mark.parametrize("args", [
        ["sweep", "--strategy", "lin", "geo", "geojump", "--kicks", "2",
         "--pulse-width", "0", "2.5e-3", "--per-mode-geodesic", "--spins", "14",
         "--dt", "1e-3", "--rates", "2", "3.3"],
        ["chain", "--strategy", "geo", "--spins", "14", "--dt", "1e-3", "--rates", "0.7",
         "--modes-out", "m.csv"],
        ["lz", "--strategy", "lin", "--T", "1.0006", "--dt", "1e-4"],
    ], ids=["sweep", "chain-modes-out", "lz"])
    def test_outputs_independent_of_workers_and_cpus(self, args, tmp_path, monkeypatch):
        """Tables and manifests are byte-identical for --workers 1 and 2 on
        1, 2 or 4 usable CPUs; manifests differ only in their workers line.
        lz has no --workers: its 3-block table is formatted on the CPUs, one
        block per worker at the least."""
        monkeypatch.setattr(cli, "_BLOCKS_PER_WORKER", 1)
        outputs = {}
        for workers in ("1", "2") if args[0] != "lz" else ("",):
            for cpus in (1, 2, 4):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, n=cpus: set(range(n)), raising=False)
                run_dir = tmp_path / f"w{workers}-c{cpus}"
                run_dir.mkdir()
                monkeypatch.chdir(run_dir)
                flags = ["--workers", workers] if workers else []
                assert cli.main(args + flags + ["-o", "t.csv"]) == 0
                outputs[workers, cpus] = {
                    p.name: p.read_bytes().replace(f"workers = {workers}\n".encode(), b"")
                    for p in run_dir.iterdir()}
        first = next(iter(outputs.values()))
        assert len(first) == (4 if "--modes-out" in args else 2)
        assert all(files == first for files in outputs.values())


class TestSweepCommand:
    def test_cartesian_product_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--regime", "ising",
                         "--strategy", "lin", "geojump", "--kicks", "2",
                         "--spins", "8", "--rates", "1.0", "2.0",
                         "--dt", "1e-3", "-o", str(out)])
        assert code == 0
        rows = read_csv(out)
        # lin runs once per rate; geojump runs per (kicks x width) per rate
        assert len(rows) == 4
        strategies = {r["strategy"] for r in rows}
        assert strategies == {"lin", "geojump"}

    def test_geojump_delta_kicks_flat_across_rates(self, tmp_path):
        """Single-sample kicks give rate-independent defect density."""
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--regime", "ising", "--strategy", "geojump",
                         "--kicks", "3", "--spins", "16",
                         "--rates", "log", "1e-2", "1e2", "5",
                         "--dt", "1e-3", "-o", str(out)])
        assert code == 0
        ns = [float(r["n_defect"]) for r in read_csv(out)]
        assert max(ns) == min(ns)


    @pytest.mark.parametrize("combo,columns", [
        (["--strategy", "lin"], ("lin", "0", "0.0")),
        (["--strategy", "geojump", "--kicks", "3", "--pulse-width", "0"],
         ("geojump", "3", "0.001")),
        (["--strategy", "geojump", "--kicks", "3", "--pulse-width", "0.0015"],
         ("geojump", "3", "0.0015")),
        (["--strategy", "geo", "--per-mode-geodesic", "--workers", "2"], ("geo", "0", "0.0")),
    ], ids=["lin", "geojump-width-0", "geojump-width-1.5dt", "per-mode-geo-2-workers"])
    def test_one_combination_matches_chain(self, combo, columns, tmp_path):
        """chain and sweep run their tables through one path: a sweep of one
        (strategy, kicks, width) combination writes chain's table, whose
        rows name the run each cell's config describes."""
        args = ["--spins", "8", "--dt", "1e-3", "--rates", "0.5", "1.3", *combo]
        for command in ("chain", "sweep"):
            assert cli.main([command, *args, "-o", str(tmp_path / f"{command}.csv")]) == 0
        assert (tmp_path / "chain.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()
        rows = read_csv(tmp_path / "chain.csv")
        assert [r["rate"] for r in rows] == ["0.5", "1.3"]
        assert {(r["strategy"], r["kicks"], r["pulse_width"]) for r in rows} == {columns}


class TestFitCommand:
    def test_fit_recovers_exponent(self, tmp_path):
        src = tmp_path / "defects.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rate", "strategy", "regime", "kicks", "pulse_width", "n_defect"])
            for r in np.logspace(-3, -1, 9):
                writer.writerow([repr(float(r)), "lin", "ising", 0, 0.0, repr(float(3 * r**0.5))])
        report = tmp_path / "report.csv"
        code = cli.main(["fit", "--input", str(src), "--window", "1e-4", "1.0",
                         "-o", str(report)])
        assert code == 0
        rows = read_csv(report)
        assert len(rows) == 1
        assert float(rows[0]["exponent"]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[0]["r_squared"]) > 0.999999

    def test_fit_keeps_kick_trains_apart(self, tmp_path):
        """Rows of one strategy with different kick counts are fitted apart:
        2 kicks at n = 3 r^0.5 and 6 kicks at n = 5 r^1.0."""
        src = tmp_path / "defects.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rate", "strategy", "regime", "kicks", "pulse_width", "n_defect"])
            for kicks, amp, power in ((2, 3.0, 0.5), (6, 5.0, 1.0)):
                for r in np.logspace(-3, -1, 9):
                    writer.writerow([repr(float(r)), "geojump", "ising", kicks, 0.001,
                                     repr(float(amp * r**power))])
        report = tmp_path / "report.csv"
        assert cli.main(["fit", "--input", str(src), "--window", "1e-4", "1.0",
                         "-o", str(report)]) == 0
        rows = read_csv(report)
        assert list(rows[0]) == ["regime", "strategy", "kicks", "pulse_width", "exponent",
                                 "r_squared", "window_min", "window_max"]
        assert [(r["kicks"], r["pulse_width"]) for r in rows] == [("2", "0.001"), ("6", "0.001")]
        assert float(rows[0]["exponent"]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[1]["exponent"]) == pytest.approx(1.0, abs=1e-9)

    def test_fit_missing_columns_rejected(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("a,b\n1,2\n")
        assert cli.main(["fit", "--input", str(src), "--window", "0.1", "1.0"]) == 2

    def test_fit_requires_window(self, tmp_path):
        src = tmp_path / "defects.csv"
        src.write_text("rate,n_defect\n0.1,0.2\n0.2,0.3\n0.4,0.4\n")
        assert cli.main(["fit", "--input", str(src)]) == 2

    @pytest.mark.parametrize("table,message", [
        ("rate,n_defect\n1\n", "t.csv:2: need numbers for rate and n_defect, got '1', None"),
        ("rate,n_defect\n0.5,0.1\n1,abc\n",
         "t.csv:3: need numbers for rate and n_defect, got '1', 'abc'"),
        ("rate,n_defect\n", "t.csv: no data rows"),
        ("rate,n_defect\n1,nan\n2,0.1\n3,0.2\n4,0.3\n", "must be positive and finite"),
        ("rate,n_defect\n1,inf\n2,0.1\n3,0.2\n4,0.3\n", "must be positive and finite"),
    ], ids=["short-row", "not-a-number", "header-only", "nan", "inf"])
    def test_malformed_table_exits_2(self, table, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_text(table)
        assert cli.main(["fit", "--input", "t.csv", "--window", "0.1", "10"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fit_report.csv").exists()


class TestStdout:
    @pytest.mark.parametrize("args,stdout", [
        (["chain", "--spins", "8", "--dt", "1e-2", "--rates", "1", "-o", "d.csv",
          "--modes-out", "modes.csv"], "wrote d.csv, modes.csv (1 rows)\n"),
        (["sweep", "--strategy", "lin", "geo", "--spins", "8", "--dt", "1e-2",
          "--rates", "0.5", "1", "--workers", "1", "-o", "s.csv"], "wrote s.csv (4 rows)\n"),
        (["fit", "--input", "table.csv", "--window", "0.01", "100", "-o", "f.csv"],
         "fit regime=ising strategy=geo kicks=- pulse_width=- exponent=-0.3010 r2=1.000000\n"
         "fit regime=ising strategy=lin kicks=- pulse_width=- exponent=1.0000 r2=1.000000\n"),
    ], ids=["chain-modes", "sweep", "fit"])
    def test_command_prints_its_summary(self, args, stdout, tmp_path, capsys, monkeypatch):
        """chain and sweep name what they wrote and its row count; fit prints
        one line per group, in sorted group order."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.csv").write_text(
            "rate,strategy,regime,n_defect\n0.1,lin,ising,0.1\n1,lin,ising,1\n"
            "10,lin,ising,10\n0.1,geo,ising,0.4\n1,geo,ising,0.2\n10,geo,ising,0.1\n")
        assert cli.main(args) == 0
        assert capsys.readouterr().out == stdout


def _fail(*args, **kwargs):
    raise AssertionError("reached after input validation should have failed")


_BASE_ARGS = {"chain": ["--rates", "1", "--spins", "8"], "lz": ["--dt", "1e-2"],
              "fit": ["--input", "missing.csv"]}


class TestInputChecks:
    @pytest.mark.parametrize("args,field,value", [
        (["chain", "--h", "nan", "0", "--rates", "1"], "h_i", "nan"),
        (["chain", "--h", "inf", "0", "--rates", "1"], "h_i", "inf"),
        (["chain", "--regime", "anisotropy", "--gamma", "nan", "1", "--rates", "1"],
         "gamma_i", "nan"),
        (["chain", "--rates", "nan"], "rates", "nan"),
        (["lz", "--eps", "nan"], "eps", "nan"),
        (["lz", "--x", "nan", "1"], "x_i", "nan"),
        (["lz", "--T", "nan"], "T", "nan"),
        (["sweep", "--strategy", "geojump", "--kicks", "2", "--pulse-width", "nan",
          "--rates", "1"], "delta_t", "nan"),
        (["chain", "--rates", "abc"], "--rates", "'abc'"),
        (["chain", "--rates", "log", "0.1", "1", "abc"], "--rates", "'abc'"),
        (["chain", "--rates", "1e-310", "--spins", "4"], "--rates", "1e-310"),
        (["lz", "--T", "1e300"], "T=1e+300", "dt=0.0001"),
        (["chain", "--rates", "1e-300", "--spins", "4"], "T=9.999999999999999e+299",
         "dt=0.0001"),
    ])
    def test_non_finite_number_exits_2_before_evolving(self, args, field, value, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        assert cli.main(args + ["-o", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and value in err

    @pytest.mark.parametrize("command,file_cfg,accepted", [
        ("chain", {"gamma": 1.0}, None),
        ("chain", {"rates": 5}, None),
        ("chain", {"dt": "0.001"}, ["--dt", "0.001"]),
        ("chain", {"h": [10, 0, 5]}, None),
        ("lz", {"x": 5}, None),
        ("lz", {"T": "1"}, ["--T", "1"]),
        ("lz", {"kicks": 2.5, "strategy": "geojump"}, None),
        ("fit", {"window": 5}, None),
    ])
    def test_config_file_values_convert_like_their_flags(self, command, file_cfg, accepted,
                                                          tmp_path, capsys):
        """A file value either runs exactly as its flag does, or exits 2
        naming the file and the key."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps(file_cfg))
        base = [command, *_BASE_ARGS[command]]
        code = cli.main(base + ["--config", str(path), "-o", str(tmp_path / "f.csv")])
        if accepted is None:
            assert code == 2
            key = next(iter(file_cfg))
            assert capsys.readouterr().err.startswith(f"error: {path}: {key}: ")
            assert not (tmp_path / "f.csv").exists()
            return
        assert code == 0
        assert cli.main(base + accepted + ["-o", str(tmp_path / "g.csv")]) == 0
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
        manifests = [(tmp_path / f"{n}.csv.manifest.txt").read_text().splitlines()
                     for n in "fg"]
        assert [line for line in manifests[0] if not line.startswith("out =")] \
            == [line for line in manifests[1] if not line.startswith("out =")]

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    def test_two_kicks_in_one_step_exit_2_before_any_run(self, command, tmp_path,
                                                          capsys, monkeypatch):
        """200 kicks at rate 1 (T = 1) on dt = 0.01; rate 0.5 alone is fine."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "Pool", _fail)
        rates = ["1"] if command == "chain" else ["0.5", "1"]
        code = cli.main([command, "--strategy", "geojump", "--kicks", "200",
                         "--pulse-width", "0.001", "--dt", "0.01", "--spins", "8",
                         "--workers", "2", "--rates", *rates, "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "two kicks in one step" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("workers", ["abc", "-3"])
    @pytest.mark.parametrize("modes_out", [[], ["--modes-out", "m.csv"]],
                             ids=["table", "modes-out"])
    def test_bad_worker_count_exits_2_before_evolving(self, workers, modes_out, tmp_path,
                                                      capsys, monkeypatch):
        """--workers is checked on every chain path, --modes-out included,
        and the message names the flag."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        code = cli.main(["chain", "--rates", "1", "--spins", "8", "--dt", "1e-2",
                         "--workers", workers, *modes_out, "-o", "a.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: workers must be an integer >= 1 or 'auto', got '{workers}'\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["lz", "chain"])
    def test_overflowing_step_count_exits_2_before_evolving(self, command, tmp_path,
                                                             capsys, monkeypatch):
        """dt = 1e-320 makes T/dt overflow to inf; building the run rejects it."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        args = ["--spins", "4", "--rates", "1"] if command == "chain" else []
        code = cli.main([command, "--dt", "1e-320", *args, "-o", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: dt=1e-320 is too small: T/dt overflows for T=1.0\n"

    @pytest.mark.parametrize("args", [
        ["chain", "--rates", "1e-12", "--spins", "4"],
        ["chain", "--strategy", "geo", "--rates", "1e-12", "--spins", "4"],
        ["lz", "--T", "1e5", "--dt", "1e-12"],
    ], ids=["chain-lin", "chain-geo", "lz"])
    def test_unallocatable_rows_exit_2_naming_the_run(self, args, tmp_path, capsys):
        """10^16 and 10^17 steps: numpy refuses their rows at once, as more
        than any address space holds, and the message names T and dt."""
        assert cli.main(args + ["-o", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: T=") and " dt=" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args,message", [
        (["chain", "--h", "1e200", "0", "--rates", "0.1", "--spins", "10", "--dt", "1e-2"],
         "h_i=1e+200 is too large: the generator a^2 + d^2 overflows"),
        (["chain", "--h", "1e200", "0", "--rates", "0.1", "--spins", "10", "--dt", "1e-2",
          "--strategy", "geo"],
         "h_i=1e+200 is too large: the generator a^2 + d^2 overflows"),
        (["chain", "--h", "10", "1e200", "--rates", "0.1", "--spins", "10", "--dt", "1e-2",
          "--strategy", "geojump", "--kicks", "3"],
         "h_f=1e+200 is too large: the generator a^2 + d^2 overflows"),
        (["chain", "--regime", "anisotropy", "--gamma", "1", "1e200", "--rates", "0.1",
          "--spins", "10", "--dt", "1e-2", "--strategy", "geo", "--per-mode-geodesic"],
         "gamma_f=1e+200 is too large: the generator a^2 + d^2 overflows"),
        (["lz", "--eps", "1e200", "--x", "-10", "10", "--T", "1", "--dt", "1e-3"],
         "x_i=-10.0 with eps=1e+200 is too large: the generator x^2 + eps^2 overflows"),
        (["lz", "--x", "-10", "1e160", "--T", "1", "--dt", "1e-3"],
         "x_f=1e+160 with eps=0.1 is too large: the generator x^2 + eps^2 overflows"),
        (["chain", "--h", "1e100", "0", "--rates", "0.1", "--spins", "10", "--dt", "1e-2",
          "--strategy", "geo"],
         "h_i=1e+100 is too large for the collective geodesic: (a^2 + d^2)^2 overflows"),
    ], ids=["chain-lin", "chain-geo", "chain-geojump", "chain-anisotropy-mode-geo",
            "lz-eps", "lz-x", "chain-geo-metric"])
    def test_overflowing_control_exits_2_before_evolving(self, args, message, tmp_path,
                                                         capsys, monkeypatch):
        """A control whose generator overflows would step on inf and write
        NaN (chain) or fail late (lz); building the run rejects it."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        assert cli.main(args + ["-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args,message", [
        (["chain", "--rates", "1e-300", "--dt", "1e298", "--h", "1e150", "0", "--spins", "4"],
         "h_i=1e+150 is too large for T=9.999999999999999e+299: the phase 4 |(a, d)| T of "
         "the steps overflows"),
        (["chain", "--rates", "1e-300", "--dt", "1e298", "--h", "5e7", "0", "--spins", "4"],
         "h_i=50000000.0 is too large for T=9.999999999999999e+299: the phase 4 |(a, d)| T "
         "of the steps overflows"),
        (["chain", "--rates", "1e-300", "--dt", "1e298", "--h", "1e70", "0", "--spins", "4",
          "--strategy", "geo"],
         "h_i=1e+70 is too large for T=9.999999999999999e+299: the phase 4 |(a, d)| T of "
         "the steps overflows"),
        (["lz", "--T", "1e300", "--dt", "1e298", "--x", " -1e150", "1e150"],
         "x_i=-1e+150 with eps=0.1 is too large for T=1e+300: the phase hypot(x, eps) T "
         "overflows"),
        (["lz", "--strategy", "geojump", "--kicks", "2", "--T", "1e-300", "--dt", "1e-302"],
         "dt=1e-302 is too small for the kicks: the pulse amplitude 1.5707963267948967e+302 "
         "squared overflows"),
        (["lz", "--strategy", "geojump", "--kicks", "2", "--T", "1e-152", "--dt", "1e-154"],
         "dt=1e-154 is too small for the kicks: the pulse amplitude 1.5707963267948962e+154 "
         "squared overflows"),
    ], ids=["chain-lin", "chain-lin-edge", "chain-geo", "lz-phase", "lz-kicks",
            "lz-kicks-edge"])
    def test_overflowing_step_exits_2_before_evolving(self, args, message, tmp_path, capsys,
                                                       monkeypatch):
        """A step angle, a phase or a sampled field that overflows would step
        on inf and write NaN; building the run rejects it."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        assert cli.main(args + ["-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [
        ["chain", "--rates", "1e-300", "--dt", "1e298", "--h", "4e7", "0", "--spins", "4"],
        ["lz", "--T", "1e300", "--dt", "1e298", "--x", " -8e7", "8e7"],
        ["lz", "--T", "5e153", "--dt", "5e151", "--x", " -1e154", "1e154"],
        ["lz", "--strategy", "geojump", "--kicks", "2", "--T", "1e-151", "--dt", "1e-153"],
        ["lz", "--T", "1e154", "--dt", "1e152", "--x", " -1e154", "1e154"],
        ["lz", "--strategy", "geo", "--x", "-10", "1e160", "--T", "1", "--dt", "1e-3"],
        ["lz", "--strategy", "geojump", "--kicks", "3", "--x", "-10", "1e160", "--T", "1",
         "--dt", "1e-3"],
    ], ids=["chain-lin", "lz-phase", "lz-sweep", "lz-kicks", "lz-sweep-T", "lz-geo-x",
            "lz-geojump-x"])
    def test_step_just_inside_the_bounds_runs(self, args, tmp_path):
        """Just inside each bound above the run completes, with no warning
        and finite output (the chain's per-mode table tracks the error).  So
        do runs past what LZ never forms: (x_f - x_i) T, and x^2 + eps^2 on
        a geodesic, which reads x only through atan2(x, eps)."""
        out, modes = tmp_path / "x.csv", tmp_path / "modes.csv"
        extra = ["--modes-out", str(modes)] if args[0] == "chain" else []
        assert cli.main(args + extra + ["-o", str(out)]) == 0
        rows = read_csv(out) + (read_csv(modes) if extra else [])
        assert rows and all(math.isfinite(float(v)) for row in rows for k, v in row.items()
                            if k not in ("strategy", "regime"))

    def test_collective_geodesic_through_closed_gap_exits_2_before_evolving(
            self, tmp_path, capsys, monkeypatch):
        """h = cos(3 pi/10) exactly at N = 10 while gamma crosses 0: that
        mode's gap closes on the path, where the collective ramp would divide
        0 by 0."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        code = cli.main(["chain", "--regime", "anisotropy", "--h", "0.5877852522924731",
                         "0.5877852522924731", "--gamma", "-1", "1", "--strategy", "geo",
                         "--rates", "1", "--spins", "10", "--dt", "1e-2",
                         "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the gap closes at k=0.9424777960769379 between gamma_i and gamma_f: "
            "no collective geodesic crosses it\n")
        assert os.listdir(tmp_path) == []

    def test_collective_geodesic_with_underflowing_metric_runs(self, tmp_path):
        """h = cos(3 pi/10) exactly at N = 10 with gamma from 1e-90: that
        mode's metric term is 0 on the whole path, but its (a^2 + d^2)^2
        underflows to 0 at gamma_i, where the ramp used to divide 0 by 0."""
        out = tmp_path / "x.csv"
        code = cli.main(["chain", "--regime", "anisotropy", "--h", "0.5877852522924731",
                         "0.5877852522924731", "--gamma", "1e-90", "1", "--strategy", "geo",
                         "--rates", "1", "--spins", "10", "--dt", "1e-2", "-o", str(out)])
        assert code == 0
        assert math.isfinite(float(read_csv(out)[0]["n_defect"]))

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    def test_mode_on_h_equal_cos_k_exits_2_before_any_run(self, command, tmp_path,
                                                           capsys, monkeypatch):
        """Per-mode geodesic at anisotropy h = 0, N = 10: k = pi/2 lies on
        h = cos k, which building the cell's config rejects."""
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "Pool", _fail)
        strategies = ["geo"] if command == "chain" else ["lin", "geo"]
        code = cli.main([command, "--regime", "anisotropy", "--h", "0", "0",
                         "--strategy", *strategies, "--per-mode-geodesic", "--spins", "10",
                         "--workers", "2", "--rates", "0.5", "1", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "h = cos(k)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


_RUN_ARGS = {"lz": ["--T", "1.0", "--dt", "1e-2"],
             "chain": ["--spins", "8", "--dt", "1e-2", "--rates", "1"],
             "sweep": ["--spins", "8", "--dt", "1e-2", "--rates", "1"],
             "fit": ["--input", "table.csv", "--window", "0.1", "10"]}


class TestSettings:
    @pytest.mark.parametrize("command", ["lz", "chain", "sweep", "fit"])
    def test_manifest_lists_every_parser_setting(self, command, tmp_path, monkeypatch):
        """The resolved settings are the subcommand parser's destinations,
        less help and config, each once."""
        (tmp_path / "table.csv").write_text("rate,n_defect\n0.5,0.1\n1.0,0.2\n2.0,0.35\n")
        out = tmp_path / "out.csv"
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, *_RUN_ARGS[command], "-o", str(out)]) == 0
        lines = (tmp_path / "out.csv.manifest.txt").read_text().splitlines()[1:]
        parser = cli.build_parser().parse_args([command]).parser
        dests = {a.dest for a in parser._actions} - {"help", "config"}
        assert [line.split(" = ")[0] for line in lines] == sorted(dests)

    def test_flag_overrides_a_config_list(self, tmp_path):
        """A flag given on the command line replaces the file's list."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"strategy": ["lin", "geo"]}))
        args = ["sweep", "--strategy", "lin", "--spins", "8", "--dt", "1e-3",
                "--rates", "0.5", "1"]
        assert cli.main(args + ["--config", str(cfg), "-o", str(tmp_path / "a.csv")]) == 0
        assert cli.main(args + ["-o", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, monkeypatch):
        def boom(ns):
            raise RuntimeError("non-finite state at step 7")

        monkeypatch.setattr(cli, "_run_lz", boom)
        parser_backup = cli.build_parser  # ensure parser still builds

        assert cli.main(["lz", "--T", "1.0"]) == 3
        assert parser_backup is cli.build_parser

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        """numpy's allocation failure is a MemoryError: a message, no traceback."""
        message = "Unable to allocate 7.45 GiB for an array with shape (1000000001,)"

        def oom(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "evolve_lz", oom)
        assert cli.main(["lz", "--T", "1e5", "--dt", "1e-6", "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_validation_failure_maps_to_2(self, tmp_path):
        assert cli.main(["chain", "--spins", "8", "--dt", "1e-3",
                         "-o", str(tmp_path / "x.csv")]) == 2  # missing rates

    def test_fit_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert cli.main(["fit", "--input", str(missing), "--window", "0.1", "1.0",
                         "-o", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["chain", "--config", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_output_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "traj.csv"
        assert cli.main(["lz", "--T", "1.0", "--dt", "1e-2", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_directory_is_named_as_given(self, tmp_path, capsys, monkeypatch):
        """Two identical runs print the same message, naming the path as given."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        errs = []
        for _ in range(2):
            assert cli.main(["lz", "--T", "1.0", "--dt", "1e-2", "-o", "no/traj.csv"]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == "error: cannot write no/traj.csv: no such directory\n"

    def test_missing_modes_out_directory_fails_before_any_work(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        code = cli.main(["chain", "--spins", "8", "--rates", "1", "--dt", "1e-2",
                         "-o", "ok.csv", "--modes-out", "no/modes.csv"])
        assert code == 2
        assert "no/modes.csv" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command,flags", [
        *[pytest.param(c, ["-o", p], id=f"{c}-o={p}")
          for c in ("lz", "chain", "fit") for p in ("", ".", "sub", "sub/", "new/")],
        *[pytest.param("chain", ["-o", "ok.csv", "--modes-out", p], id=f"chain-modes-out={p}")
          for p in (".", "sub", "new/")],
    ])
    def test_output_naming_a_directory_fails_before_any_work(self, command, flags, tmp_path,
                                                              capsys, monkeypatch):
        """An empty --out, or an output path that names a directory, exits 2
        naming the path as given, before any work and without leaving a
        temporary file here or in the parent directory."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "table.csv").write_text("rate,n_defect\n0.5,0.1\n1.0,0.2\n2.0,0.35\n")
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        monkeypatch.setattr(cli, "fit_power_law", _fail)
        assert cli.main([command, *_RUN_ARGS[command], *flags]) == 2
        path = flags[-1]
        assert capsys.readouterr().err == (
            f"error: cannot write {path}: it names a directory\n" if path
            else "error: --out: empty path\n")
        assert sorted(os.listdir(tmp_path)) == ["sub", "table.csv"]
        assert os.listdir(tmp_path / "sub") == []
        assert not [p for p in os.listdir(tmp_path.parent) if p.startswith(".tmp-")]

    @pytest.mark.parametrize("out,modes_out", [
        ("same.csv", "same.csv"), ("same.csv", "./same.csv"), ("same.csv", "sub/../same.csv"),
        ("same.csv", "link.csv"), ("d.csv", "d.csv.manifest.txt"), ("m.csv.manifest.txt", "m.csv"),
    ])
    def test_outputs_overwriting_each_other_fail_before_any_work(self, out, modes_out, tmp_path,
                                                                 capsys, monkeypatch):
        """The defect table, the mode table and their manifests are four
        different files, however the paths are spelled."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        os.symlink("same.csv", "link.csv")
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        assert cli.main(["chain", *_RUN_ARGS["chain"], "-o", out, "--modes-out", modes_out]) == 2
        assert capsys.readouterr().err \
            == f"error: --out {out} and --modes-out {modes_out} would overwrite each other\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "sub"]

    @pytest.mark.parametrize("command,source,flags,dest", [
        ("fit", "--input", ["-o", "d.csv"], "--out d.csv"),
        ("fit", "--input", ["-o", "./d.csv"], "--out ./d.csv"),
        ("fit", "--input", ["-o", "sub/../d.csv"], "--out sub/../d.csv"),
        ("fit", "--input", ["-o", "link"], "--out link"),
        ("fit", "--input", ["-o", "d"], "the manifest of --out d"),
        ("chain", "--config", ["-o", "c.json"], "--out c.json"),
        ("chain", "--config", ["-o", "./c.json"], "--out ./c.json"),
        ("chain", "--config", ["-o", "sub/../c.json"], "--out sub/../c.json"),
        ("chain", "--config", ["-o", "link"], "--out link"),
        ("chain", "--config", ["-o", "c"], "the manifest of --out c"),
        ("chain", "--config", ["-o", "x.csv", "--modes-out", "c.json"], "--modes-out c.json"),
        ("chain", "--config", ["-o", "x.csv", "--modes-out", "c"],
         "the manifest of --modes-out c"),
        ("lz", "--config", ["-o", "./c.json"], "--out ./c.json"),
        ("sweep", "--config", ["-o", "sub/../c.json"], "--out sub/../c.json"),
    ])
    def test_outputs_overwriting_an_input_fail_before_any_work(self, command, source, flags,
                                                               dest, tmp_path, capsys,
                                                               monkeypatch):
        """No table or manifest of a run may be its --input or --config
        file, however the paths are spelled: the run exits 2 naming both
        flags, leaves the input's bytes as they were and writes nothing."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        # the input is the file an output spells, or the manifest of it
        name = flags[-1] if flags[-1] != "link" else "target"
        name = name + ".manifest.txt" if "manifest" in dest else os.path.normpath(name)
        data = ("rate,n_defect\n0.5,0.1\n1.0,0.2\n2.0,0.35\n" if source == "--input"
                else json.dumps({"dt": 1e-2}))
        (tmp_path / name).write_text(data)
        if flags[-1] == "link":
            os.symlink(name, "link")
        before = sorted(os.listdir(tmp_path))
        monkeypatch.setattr(freefermion, "evolve_modes", _fail)
        monkeypatch.setattr(cli, "evolve_lz", _fail)
        monkeypatch.setattr(cli, "fit_power_law", _fail)
        args = [command, *_RUN_ARGS[command], *flags]
        if source == "--input":
            args[args.index("table.csv")] = name
        else:
            args += ["--config", name]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: {dest} would overwrite {source} {name}\n"
        assert (tmp_path / name).read_text() == data
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "sub") == []

    def test_failed_temporary_file_names_the_requested_path(self, tmp_path, monkeypatch):
        """Should creating the temporary file still fail, the error names the
        requested path, not the random temporary name."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError, match="^cannot write no/x.csv: No such file or directory$"):
            cli._write_atomically("no/x.csv", lambda fh: None)


_LZ_HEADER = ["t", "fidelity", "gap", "re_phase", "im_phase", "err"]


class TestTableBytes:
    """Tables and manifests keep the bytes of the cell-by-cell formatter
    (oracles.fmt_table, oracles.fmt_manifest) on every table kind."""

    @pytest.mark.parametrize("args", [
        ["lz", "--strategy", "lin", "--T", "1.0", "--dt", "1e-2"],
        ["lz", "--strategy", "geo", "--eps", "-0.1", "--T", "1.0006", "--dt", "1e-2"],
        ["lz", "--strategy", "geojump", "--kicks", "3", "--T", "1.0", "--dt", "1e-2"],
        ["chain", "--strategy", "geo", "--spins", "16", "--dt", "1e-2", "--rates", "0.5",
         "--modes-out", "modes.csv"],
        ["chain", "--strategy", "geojump", "--kicks", "2", "--pulse-width", "0.03",
         "--regime", "anisotropy", "--spins", "16", "--dt", "1e-2", "--rates", "0.5",
         "--modes-out", "modes.csv"],
        ["chain", "--strategy", "lin", "--spins", "16", "--dt", "1e-2",
         "--rates", "log", "0.1", "1", "3"],
        ["sweep", "--strategy", "lin", "geo", "geojump", "--kicks", "2", "5",
         "--pulse-width", "0", "0.01", "--per-mode-geodesic", "--spins", "8", "--dt", "1e-2",
         "--rates", "0.5", "1", "--workers", "1"],
        ["fit", "--input", "table.csv", "--window", "0.01", "100"],
    ], ids=["lz-lin", "lz-geo", "lz-geojump", "chain-modes", "chain-kick-modes",
            "chain", "sweep", "fit"])
    def test_outputs_match_the_cell_formatter(self, args, tmp_path, monkeypatch):
        """The lz and mode tables are checked against the engine's numpy
        columns, the other tables against the rows the CLI hands the writer.
        The fit input has no kicks or pulse_width column, so those keys are
        empty."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.csv").write_text(
            "rate,strategy,regime,n_defect\n0.1,lin,ising,0.31\n1,lin,ising,0.52\n"
            "10,lin,ising,0.9\n0.1,geo,ising,0.2\n1,geo,ising,0.25\n10,geo,ising,0.4\n")
        expected, engine = {}, {}
        write, manifest = cli._atomic_write, cli._write_manifest
        evolve_lz, run_chain = cli.evolve_lz, cli.run_chain

        def spy_write(path, header, rows=(), columns=None):
            rows = list(rows)
            expected[path] = fmt_table(header, rows)
            write(path, header, rows, columns)

        def spy_manifest(out_path, resolved):
            expected[out_path + ".manifest.txt"] = fmt_manifest(__version__, resolved)
            return manifest(out_path, resolved)

        def spy_lz(cfg):
            engine["lz"] = evolve_lz(cfg)
            return engine["lz"]

        def spy_chain(cfg, **kwargs):
            engine["chain"] = run_chain(cfg, **kwargs)
            return engine["chain"]

        monkeypatch.setattr(cli, "_atomic_write", spy_write)
        monkeypatch.setattr(cli, "_write_manifest", spy_manifest)
        monkeypatch.setattr(cli, "evolve_lz", spy_lz)
        monkeypatch.setattr(cli, "run_chain", spy_chain)
        assert cli.main([*args, "-o", "out.csv"]) == 0
        if "lz" in engine:
            traj = engine["lz"]
            expected["out.csv"] = fmt_table(_LZ_HEADER, zip(
                traj.times, traj.fidelity, traj.gap, traj.phase_diff_re,
                traj.phase_diff_im, traj.err))
        if "--modes-out" in args:
            result, err = engine["chain"]
            expected["modes.csv"] = fmt_table(["k", "p_k", "err_k"],
                                              zip(result.ks, result.pk, err))
        written = sorted(p for p in os.listdir(tmp_path) if p != "table.csv")
        assert written == sorted(expected)
        for path, text in expected.items():
            assert (tmp_path / path).read_bytes() == text.encode(), path

    def test_edge_values_match_the_cell_formatter(self, tmp_path):
        """Signed zeros, subnormals, large and small magnitudes, integer-valued
        floats and non-finite values, as Python or numpy scalars."""
        values = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-4, 1e-5, 1.0,
                  -3.0, 0.1, 1 / 3, math.nan, math.inf, -math.inf]
        rows = [(v, np.float64(v), float(np.float64(v)), 7, np.int64(-7), "geo", "")
                for v in values]
        header = ["py", "np", "np_as_py", "int", "np_int", "str", "empty"]
        cli._atomic_write(str(tmp_path / "t.csv"), header, iter(rows))
        assert (tmp_path / "t.csv").read_text() == fmt_table(header, rows)
        resolved = {"none": None, "on": True, "off": False, "rates": [0.1, 1e-5, 2.0],
                    "x": [-0.0, 5e-324], "empty": [], "s": "", "n": 3, "f": 1e16,
                    "np_f": np.float64(1e-5), "np_i": np.int64(4), "nan": math.nan}
        cli._write_manifest(str(tmp_path / "t.csv"), resolved)
        assert (tmp_path / "t.csv.manifest.txt").read_text() \
            == fmt_manifest(__version__, resolved)


class TestFloatTableBlocks:
    """The float tables (lz, --modes-out) are formatted in blocks of 4096
    rows, on a pool of min(usable CPUs, blocks // 30) processes when that is
    two or more, and keep the bytes csv.writer writes for the engine's
    columns as Python floats."""

    @pytest.mark.parametrize("rows", [4095, 4096, 4097, 10008])
    @pytest.mark.parametrize("strategy", [
        ["--strategy", "lin"], ["--strategy", "geo", "--eps", "-0.1"],
        ["--strategy", "geojump", "--kicks", "3"],
    ], ids=["lin", "geo", "geojump"])
    def test_lz_table_is_the_csv_writer_table_on_any_cpu_count(self, strategy, rows, tmp_path,
                                                               monkeypatch):
        """One block less one row, one block, one block and a row, and three
        blocks, on 1, 2 and 4 usable CPUs, with a pool of one worker per
        block at the most."""
        monkeypatch.setattr(cli, "_BLOCKS_PER_WORKER", 1)
        trajs, sizes, evolve_lz = [], [], cli.evolve_lz
        monkeypatch.setattr(cli, "evolve_lz", lambda cfg: trajs.append(evolve_lz(cfg)) or trajs[-1])
        monkeypatch.setattr(cli, "Pool", lambda size: sizes.append(size) or Pool(size))
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)), raising=False)
            out = tmp_path / f"c{cpus}.csv"
            assert cli.main(["lz", *strategy, "--T", f"{(rows - 1) * 1e-4:.4f}", "--dt", "1e-4",
                             "-o", str(out)]) == 0
            traj = trajs[-1]
            ref = io.StringIO()
            writer = csv.writer(ref, lineterminator="\n")
            writer.writerow(_LZ_HEADER)
            writer.writerows(zip(*(map(float, c) for c in (
                traj.times, traj.fidelity, traj.gap, traj.phase_diff_re, traj.phase_diff_im,
                traj.err))))
            assert len(traj.times) == rows
            assert out.read_bytes() == ref.getvalue().encode()
        blocks = -(-rows // 4096)
        assert sizes == [min(cpus, blocks) for cpus in (2, 4) if blocks > 1]

    def test_pool_workers_get_thirty_blocks_each(self, tmp_path, monkeypatch):
        """The default lz table (3 blocks) stays in process on 4 CPUs; in
        blocks of 100 rows its 101 blocks go to a pool of 2 on 2 CPUs and of
        3 on 4, and every table has the same bytes."""
        sizes, tables = [], set()
        monkeypatch.setattr(cli, "Pool", lambda size: sizes.append(size) or Pool(size))
        for block, cpus in ((4096, 4), (100, 1), (100, 2), (100, 4)):
            monkeypatch.setattr(cli, "_TABLE_BLOCK", block)
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)), raising=False)
            out = tmp_path / f"b{block}-c{cpus}.csv"
            assert cli.main(["lz", "-o", str(out)]) == 0
            tables.add(out.read_bytes())
        assert sizes == [2, 3]
        assert len(tables) == 1

    def test_block_formatter_matches_csv_writer_on_edge_values(self):
        """Signed zeros, subnormals, the repr switch to exponents, a float
        that is not its decimal, and non-finite values, from strided views."""
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e-4, 1e16, 9999999999999998.0,
                           0.1 + 0.2, 1 / 3, -3.0, math.inf, -math.inf, math.nan])
        columns = (values, -values[::-1], values[::-1] * 7)
        ref = io.StringIO()
        csv.writer(ref, lineterminator="\n").writerows(zip(*(map(float, c) for c in columns)))
        assert cli._format_rows(columns) == ref.getvalue()

    def test_failed_write_leaves_no_file_and_joins_the_pool(self, tmp_path, monkeypatch, capsys):
        """A disk that fills while a 3-block lz table streams in from a pool
        of 2: exit 2 with the message, nothing at the destination, no
        temporary file, and no pool worker left when main returns."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "_BLOCKS_PER_WORKER", 1)
        fdopen, sizes = os.fdopen, []

        def full_disk(*args, **kwargs):
            fh = fdopen(*args, **kwargs)

            def writelines(blocks):
                fh.write(next(iter(blocks)))
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.writelines = writelines
            return fh

        monkeypatch.setattr(os, "fdopen", full_disk)
        monkeypatch.setattr(cli, "Pool", lambda size: sizes.append(size) or Pool(size))
        out = tmp_path / "t.csv"
        assert cli.main(["lz", "--T", "1.0006", "--dt", "1e-4", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert sizes == [2]
        assert os.listdir(tmp_path) == []
        assert multiprocessing.active_children() == []

    def test_repeated_failed_writes_finish(self, tmp_path):
        """Thirty such failed writes in a row, in a fresh interpreter with
        60 s to finish: each exits 2 and leaves no file.  A pool terminated
        while its task thread still sent a block hung within 0-55 of them."""
        main = ("import errno, os, sys\n"
                "from quenchsim import cli\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "cli._BLOCKS_PER_WORKER = 1\n"
                "fdopen = os.fdopen\n"
                "def full_disk(*args, **kwargs):\n"
                "    fh = fdopen(*args, **kwargs)\n"
                "    def writelines(blocks):\n"
                "        fh.write(next(iter(blocks)))\n"
                "        raise OSError(errno.ENOSPC, 'No space left on device')\n"
                "    fh.writelines = writelines\n"
                "    return fh\n"
                "os.fdopen = full_disk\n"
                "codes = [cli.main(['lz', '--T', '1.0006', '--dt', '1e-4', '-o', sys.argv[1]])\n"
                "         for _ in range(30)]\n"
                "sys.exit(0 if codes == [2] * 30 and not os.path.exists(sys.argv[1]) else 1)\n")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # its own session, so a hung run's pool workers are killed with it
        child = subprocess.Popen([sys.executable, "-c", main, str(tmp_path / "t.csv")],
                                 env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                 start_new_session=True)
        try:
            assert child.wait(timeout=60) == 0
        finally:
            if child.poll() is None:
                os.killpg(child.pid, 9)
                child.wait()
        assert os.listdir(tmp_path) == []
