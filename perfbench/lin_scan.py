"""Body of the ising-lin-scan workload: a criterion-1 rate scan through the
quenchsim API, in one process.

    python3 perfbench/lin_scan.py INPUTS.json RESULTS.json

Runs run_chain on the Ising line (linear ramp, no error tracking) at every
rate of INPUTS.json, fits the power law over the window, and writes the
defect densities and the fit to RESULTS.json.
"""

import json
import sys

from quenchsim.analysis import fit_power_law
from quenchsim.freefermion import ChainConfig, Regime, run_chain


def main(argv: list[str]) -> int:
    inputs_path, results_path = argv
    with open(inputs_path) as fh:
        inp = json.load(fh)
    h_i, h_f = inp["h"]
    ns = []
    for rate in inp["rates"]:
        cfg = ChainConfig(n_spins=inp["spins"], regime=Regime.ISING, gamma_i=1.0,
                          gamma_f=1.0, h_i=h_i, h_f=h_f, T=1.0 / rate, dt=inp["dt"])
        result, _ = run_chain(cfg)
        ns.append(result.n_defect)
    fit = fit_power_law(list(zip(inp["rates"], ns)), tuple(inp["window"]))
    with open(results_path, "w") as fh:
        json.dump({"rates": inp["rates"], "n_defect": ns,
                   "exponent": fit.exponent, "r_squared": fit.r_squared}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
