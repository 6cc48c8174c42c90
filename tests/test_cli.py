"""End-to-end tests of the command-line interface."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from quenchsim import cli, freefermion


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

    def test_failed_temporary_file_names_the_requested_path(self, tmp_path, monkeypatch):
        """Should creating the temporary file still fail, the error names the
        requested path, not the random temporary name."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError, match="^cannot write no/x.csv: No such file or directory$"):
            cli._write_atomically("no/x.csv", lambda fh: None)
