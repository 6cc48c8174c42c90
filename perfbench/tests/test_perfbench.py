"""Self-tests of the benchmark: its output checks, input generator, metric
names and tracer.  They run in well under a second and start no process."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, check, make_inputs  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _ref(workload):
    return REFERENCE[workload]["data"]


def _failed(cells):
    return [c.name for c in cells if not c.ok]


class TestChecks:
    def test_continuous_cell_off_by_1e5_relative_is_rejected(self):
        inp = make_inputs("ising-lin-scan", DEFAULT_SEED)
        ns = _ref("ising-lin-scan")["n_defect"]
        out = {"rates": inp["rates"], "n_defect": list(ns), "exponent": 0.54, "r_squared": 0.995}
        assert _failed(check("ising-lin-scan", inp, out, _ref("ising-lin-scan"))) == []
        out["n_defect"][2] = ns[2] * (1 + 1e-5)
        failed = _failed(check("ising-lin-scan", inp, out, _ref("ising-lin-scan")))
        assert failed == [f"rate={inp['rates'][2]:.6g}"]

    def _sweep_rows(self, inp):
        exact = {nk: workloads._exact_kick_density(nk, inp) for nk in inp["kicks"]}
        geo = iter(_ref("kick-sweep")["geo_n_defect"])
        rows = []
        for c in workloads._sweep_cells(inp):
            if c["strategy"] == "geo":
                n = next(geo)
            elif c["width"] == inp["dt"]:
                n = exact[c["kicks"]]
            else:
                n = 0.05
            rows.append({"rate": repr(c["rate"]), "strategy": c["strategy"],
                         "kicks": str(c["kicks"]), "pulse_width": repr(c["width"]),
                         "n_defect": repr(n)})
        return rows

    @pytest.mark.parametrize("integer_steps", [True, False])
    def test_single_sample_cell_off_by_one_ulp_is_rejected(self, integer_steps):
        inp = make_inputs("kick-sweep", DEFAULT_SEED)
        rows = self._sweep_rows(inp)
        assert _failed(check("kick-sweep", inp, rows, _ref("kick-sweep"))) == []
        i = next(i for i, r in enumerate(rows)
                 if r["strategy"] == "geojump" and float(r["pulse_width"]) == inp["dt"]
                 and workloads._integer_steps(float(r["rate"]), inp["dt"]) == integer_steps
                 and not workloads._rounds_up(float(r["rate"]), inp["dt"]))
        n = float(rows[i]["n_defect"])
        rows[i]["n_defect"] = repr(float(np.nextafter(n, 1.0)))
        cells = check("kick-sweep", inp, rows, _ref("kick-sweep"))
        bad = cells[i]
        assert not bad.ok and bad.known_defect is None
        assert [c.name for c in cells if not c.ok and c.known_defect is None]

    def test_known_defect_is_tagged_only_where_t_over_dt_rounds_up(self):
        inp = make_inputs("kick-sweep", DEFAULT_SEED)
        rows = self._sweep_rows(inp)
        for r in rows:
            if workloads._rounds_up(float(r["rate"]), inp["dt"]) and r["strategy"] == "geojump" \
                    and float(r["pulse_width"]) == inp["dt"]:
                r["n_defect"] = repr(float(r["n_defect"]) * 1.03)
        cells = check("kick-sweep", inp, rows, _ref("kick-sweep"))
        bad = [c for c in cells if not c.ok]
        assert len(bad) == 2 * len(inp["kicks"])
        assert all(c.known_defect == workloads.KNOWN_DEFECT for c in bad)


class TestInputs:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_generator_is_deterministic_in_the_seed(self, workload):
        a, b = make_inputs(workload, 7), make_inputs(workload, 7)
        assert json.dumps(a) == json.dumps(b)
        assert json.loads(json.dumps(a)) == a
        assert make_inputs(workload, 8) != a

    @pytest.mark.parametrize("seed", range(20))
    def test_kick_sweep_rates_keep_their_shape(self, seed):
        inp = make_inputs("kick-sweep", seed)
        rates, dt = inp["rates"], inp["dt"]
        assert all(r >= 1.0 for r in rates)
        assert sum(workloads._integer_steps(r, dt) for r in rates) == 2
        assert sum(workloads._rounds_up(r, dt) for r in rates) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_lin_scan_rates_stay_in_the_criterion_1_window(self, seed):
        rates = make_inputs("ising-lin-scan", seed)["rates"]
        assert len(rates) >= 5 and all(1e-3 < r < 1e-1 for r in rates)


class TestMetricNames:
    def test_names_are_well_formed_and_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pattern = re.compile(r"[A-Za-z0-9_.-]+")
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
            assert pattern.fullmatch(name), name
        assert e2e == run.END_TO_END
        assert layers == {**tracer.PER_LAYER, **run.TRACE_METRICS}
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestTracer:
    def test_missing_function_is_reported_absent(self, tmp_path, monkeypatch):
        import quenchsim.cli  # noqa: F401  (loads every quenchsim module)
        from quenchsim import freefermion
        from quenchsim.schedules import Strategy

        spans = dict(tracer.SPANS)
        spans["freefermion.segmented_err"] = ("quenchsim.freefermion", "_no_such_function", None)
        for name, mod in list(sys.modules.items()):
            if name == "quenchsim" or name.startswith("quenchsim."):
                for key, value in list(vars(mod).items()):
                    monkeypatch.setattr(mod, key, value)  # undone after the test
        recorder = tracer.Recorder(str(tmp_path / "spans.json"))
        absent = tracer.install(recorder, spans)
        assert absent == ["freefermion.segmented_err"]
        cfg = freefermion.ChainConfig(n_spins=4, regime=freefermion.Regime.ISING, gamma_i=1.0,
                                      gamma_f=1.0, h_i=2.0, h_f=0.0, T=0.1, dt=1e-3,
                                      strategy=Strategy.LIN)
        freefermion.run_chain(cfg)
        recorder.write(recorder.path, absent=absent)
        values, missing = tracer.aggregate(recorder.path)
        assert missing == ["freefermion.segmented_err.s"]
        assert values["freefermion.segmented_err.s"] == 0
        assert values["freefermion.evolve_modes.calls"] == 1
        assert values["freefermion.mode_steps"] == 100 * 2
        assert values["freefermion.run_chain.self_s"] > 0
        assert set(values) == set(tracer.PER_LAYER)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [("a", "1", None, 0.0, 10.0), ("b", "2", "1", 1.0, 4.0),
                 ("b", "3", "1", 3.0, 5.0), ("c", "4", "2", 1.0, 2.0)]
        self_s = tracer._self_times(spans)
        assert math.isclose(self_s["1"], 6.0) and math.isclose(self_s["2"], 2.0)

    def test_counts_that_differ_between_traced_invocations_are_flagged(self):
        def inv(quat_muls):
            layers = {name: 0 for name in tracer.PER_LAYER}
            layers["freefermion.quat_mul.count"] = quat_muls
            return run.Invocation(run.Proc(1.0, 1.0, 1.0, 0), True, "d", (layers, []), "")

        _, _, unequal = run.trace_metrics([inv(5), inv(5)])
        assert unequal == []
        _, _, unequal = run.trace_metrics([inv(5), inv(6)])
        assert unequal == ["freefermion.quat_mul.count"]
