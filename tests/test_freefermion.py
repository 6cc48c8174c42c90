"""Tests for the chain momentum-mode dynamics."""

import math

import numpy as np
import pytest

from quenchsim.freefermion import (
    ChainConfig,
    Regime,
    collective_geodesic_ramp,
    defect_density,
    evolve_mode_kicks_exact,
    evolve_modes,
    excitation_prob,
    momentum_grid,
    run_chain,
)
from quenchsim.schedules import Control, Strategy, kick_train, xy_geodesic_schedule

from oracles import (
    IDENT,
    PAULI_X,
    adiabatic_error,
    eig2,
    fidelity,
    ground_excited,
    kmode,
    kmode_hamiltonian,
)


def ising_cfg(T, dt, strategy, nkicks=0, width=None, n_spins=250, h_i=10.0, h_f=0.0,
              collective=True):
    kicks = None
    if strategy is Strategy.GEO_JUMP:
        kicks = kick_train(nkicks, width if width is not None else dt)
    return ChainConfig(n_spins=n_spins, regime=Regime.ISING, gamma_i=1.0, gamma_f=1.0,
                       h_i=h_i, h_f=h_f, T=T, dt=dt, strategy=strategy, kicks=kicks,
                       collective_geodesic=collective)


def theta_path_ising(k, h_i, h_f, nkicks):
    """Field-convention kick angles at the scaled midpoints."""
    th_i = math.atan2(h_i - math.cos(k), math.sin(k))
    th_f = math.atan2(h_f - math.cos(k), math.sin(k))
    lam = (2 * np.arange(1, nkicks + 1) - 1) / (2 * nkicks)
    return th_i + (th_f - th_i) * lam


class TestMomentumGrid:
    def test_four_spins(self):
        assert np.allclose(momentum_grid(4), [np.pi / 4, 3 * np.pi / 4])

    def test_standard_chain(self):
        ks = momentum_grid(250)
        assert len(ks) == 125
        assert ks[-1] == pytest.approx(249 * np.pi / 250)

    def test_range(self):
        ks = momentum_grid(64)
        assert np.all((ks > 0) & (ks < np.pi))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            momentum_grid(251)


class TestKModeHamiltonian:
    def test_pure_x_point(self):
        """k=pi/2, h=0, gamma=1: H = -2X with gap 4."""
        h = kmode_hamiltonian(np.pi / 2, 1.0, 0.0)
        assert np.allclose(h.to_matrix(), -2 * PAULI_X)
        em, ep, _, _ = eig2(h)
        assert ep - em == pytest.approx(4.0)

    def test_diagonal_point_ground_is_up(self):
        """a_k > 0 with no coupling leaves the ground state at |up>."""
        g, _ = ground_excited(np.pi / 2, 0.0, 2.0)
        assert np.allclose(g, [1.0, 0.0])

    def test_mixing_angle_reference(self):
        """k=pi/2, h=0.5, gamma=1 gives theta = arctan 2."""
        mode = kmode(np.pi / 2, 1.0, 0.5)
        assert mode.theta_k == pytest.approx(math.atan(2.0))
        g, _ = ground_excited(np.pi / 2, 1.0, 0.5)
        _, _, g_ref, _ = eig2(kmode_hamiltonian(np.pi / 2, 1.0, 0.5))
        assert fidelity(g, g_ref) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_states_match_solver(self):
        """100 random (k, gamma, h): analytic spinors match eig2 to 1e-10."""
        rng = np.random.RandomState(31)
        for _ in range(100):
            k = rng.uniform(0.05, np.pi - 0.05)
            gamma = rng.uniform(-2, 2)
            h = rng.uniform(-2, 2)
            g, e = ground_excited(k, gamma, h)
            em, ep, g_ref, e_ref = eig2(kmode_hamiltonian(k, gamma, h))
            assert fidelity(g, g_ref) == pytest.approx(1.0, abs=1e-10)
            assert fidelity(e, e_ref) == pytest.approx(1.0, abs=1e-10)
            assert kmode(k, gamma, h).e_k == pytest.approx((ep - em) / 4)


class TestConfigValidation:
    def test_ising_requires_unit_gamma(self):
        with pytest.raises(ValueError):
            ChainConfig(8, Regime.ISING, 0.5, 1.0, 10.0, 0.0, 1.0, 1e-3)

    def test_gamma_regimes_fix_h(self):
        with pytest.raises(ValueError):
            ChainConfig(8, Regime.ANISOTROPY, -1.0, 1.0, 0.5, 0.6, 1.0, 1e-3)

    def test_anisotropy_needs_small_h(self):
        with pytest.raises(ValueError):
            ChainConfig(8, Regime.ANISOTROPY, -1.0, 1.0, 1.5, 1.5, 1.0, 1e-3)

    def test_gapless_needs_unit_h(self):
        with pytest.raises(ValueError):
            ChainConfig(8, Regime.GAPLESS, -1.0, 1.0, 0.9, 0.9, 1.0, 1e-3)

    def test_odd_spins_rejected(self):
        with pytest.raises(ValueError):
            ChainConfig(9, Regime.ISING, 1.0, 1.0, 10.0, 0.0, 1.0, 1e-3)


class TestEvolveModes:
    def test_short_time_linear_is_identity(self):
        """T -> 0 with no pulses leaves every mode untouched."""
        cfg = ising_cfg(1e-6, 1e-8, Strategy.LIN, n_spins=16)
        U = evolve_modes(cfg, np.array([momentum_grid(16)[3]]))[0][0]
        assert np.abs(U - IDENT).max() < 1e-4

    def test_stepwise_matches_exact_kicks(self):
        """Single-sample pulses reduce to the SU(2) kick product."""
        cfg = ising_cfg(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=64)
        for k in momentum_grid(64)[::13]:
            U_step = evolve_modes(cfg, np.array([k]))[0][0]
            U_exact = evolve_mode_kicks_exact(k, theta_path_ising(k, 10.0, 0.0, 5), 1.0)
            assert np.abs(U_step - U_exact).max() < 1e-6

    def test_slow_linear_quench_is_adiabatic(self):
        """T = 1e4 linear sweep leaves every mode of a short chain unexcited."""
        cfg = ising_cfg(1e4, 1e-2, Strategy.LIN, n_spins=16)
        result, _ = run_chain(cfg)
        assert all(p < 1e-3 for p in result.pk)

    def test_unitarity_of_all_strategies(self):
        for cfg in (
            ising_cfg(1.0, 1e-3, Strategy.LIN, n_spins=32),
            ising_cfg(1.0, 1e-3, Strategy.GEO, n_spins=32),
            ising_cfg(1.0, 1e-3, Strategy.GEO_JUMP, nkicks=4, n_spins=32),
        ):
            U, _ = evolve_modes(cfg)
            dev = np.abs(np.matmul(U, U.conj().transpose(0, 2, 1)) - IDENT).max()
            assert dev < 1e-10

    def test_per_mode_and_collective_geodesic_differ(self):
        cfg_c = ising_cfg(5.0, 1e-3, Strategy.GEO, n_spins=64, collective=True)
        cfg_m = ising_cfg(5.0, 1e-3, Strategy.GEO, n_spins=64, collective=False)
        n_c = run_chain(cfg_c)[0].n_defect
        n_m = run_chain(cfg_m)[0].n_defect
        assert n_c != pytest.approx(n_m, rel=1e-3)


class TestExactKicks:
    def test_single_kick_quarter_rotation(self):
        """alpha = pi/2 about x gives U = iX (k = pi/6, gamma = 1, theta = 0)."""
        U = evolve_mode_kicks_exact(np.pi / 6, np.array([0.0]), 1.0)
        assert np.abs(U - 1j * PAULI_X).max() < 1e-12

    def test_full_rotation_is_minus_identity(self):
        """theta = 0, gamma = 1, k = pi/2: alpha = pi, so U = -I."""
        U = evolve_mode_kicks_exact(np.pi / 2, np.array([0.0]), 1.0)
        assert np.abs(U + IDENT).max() < 1e-12

    def test_rejects_tan_pole(self):
        with pytest.raises(ValueError):
            evolve_mode_kicks_exact(1.0, np.array([0.1, np.pi / 2]), 1.0)

    def test_rate_independence_is_exact(self):
        """Single-sample kick evolution is bitwise independent of T."""
        results = []
        for T in (1e-2, 1.0, 1e2, 1e4):
            cfg = ising_cfg(T, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=64)
            results.append(run_chain(cfg)[0].pk)
        for pk in results[1:]:
            assert np.array_equal(pk, results[0])

    def test_rate_independence_where_t_over_dt_rounds_up(self):
        """A width-dt train stays on the single-sample path when T/dt rounds
        up (dt_eff < dt): p_k is bitwise equal to the integer-T/dt run."""
        ref = run_chain(ising_cfg(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=64))[0].pk
        for T in (0.50006, 10**3.5):
            cfg = ising_cfg(T, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=64)
            assert cfg.dt_eff < cfg.dt
            assert np.array_equal(run_chain(cfg)[0].pk, ref)

    def test_finite_width_restores_rate_dependence(self):
        """Pulses wider than the step make p_k vary with the rate."""
        ns = []
        for T in (0.5, 5.0):
            cfg = ising_cfg(T, 1e-3, Strategy.GEO_JUMP, nkicks=5, width=0.01, n_spins=64)
            ns.append(run_chain(cfg)[0].n_defect)
        assert abs(ns[1] - ns[0]) / np.mean(ns) > 0.01

    def test_kick_count_convergence_rate(self):
        """|n(nk) - n(400)| decays roughly as nk^-2 (fit in [-2.5, -1.5])."""
        def n_at(nk):
            cfg = ising_cfg(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=nk, h_i=1.0, h_f=1.1)
            return run_chain(cfg)[0].n_defect

        ref = n_at(400)
        counts = np.array([10, 20, 40, 80])
        diffs = np.array([abs(n_at(nk) - ref) for nk in counts])
        slope = np.polyfit(np.log(counts), np.log(diffs), 1)[0]
        assert -2.5 <= slope <= -1.5

    def test_chain_size_convergence(self):
        """N = 250 and N = 500 agree to 1e-3 at fixed protocol."""
        n250 = run_chain(ising_cfg(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=250))[0].n_defect
        n500 = run_chain(ising_cfg(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=500))[0].n_defect
        assert abs(n250 - n500) < 1e-3


class TestExcitationProb:
    def test_identity_same_endpoints(self):
        assert excitation_prob(IDENT, 1.0, 1.0, 0.5, 1.0, 0.5) == pytest.approx(0.0)

    def test_identity_basis_mismatch(self):
        """U = I gives p = sin^2((theta_f - theta_i)/2)."""
        k = 1.2
        th_i = kmode(k, 1.0, 2.0).theta_k
        th_f = kmode(k, 1.0, 0.3).theta_k
        p = excitation_prob(IDENT, k, 1.0, 0.3, 1.0, 2.0)
        assert p == pytest.approx(np.sin((th_f - th_i) / 2) ** 2)

    def test_completeness(self):
        """p_k plus the ground-state survival probability is exactly one."""
        rng = np.random.RandomState(37)
        for _ in range(20):
            k = rng.uniform(0.1, np.pi - 0.1)
            cfg = ising_cfg(0.7, 1e-3, Strategy.LIN, n_spins=32)
            U = evolve_modes(cfg, np.array([k]))[0][0]
            g_i, _ = ground_excited(k, 1.0, 10.0)
            g_f, e_f = ground_excited(k, 1.0, 0.0)
            p = excitation_prob(U, k, 1.0, 0.0, 1.0, 10.0)
            survival = abs(np.vdot(g_f, U @ g_i)) ** 2
            assert p + survival == pytest.approx(1.0, abs=1e-12)


class TestDefectDensity:
    def test_zero(self):
        assert defect_density(np.zeros(10)) == 0.0

    def test_saturated(self):
        assert defect_density(np.ones(10)) == pytest.approx(0.5)

    def test_sine_squared_profile(self):
        """p_k = sin^2 k integrates to 1/4 on the half-integer grid."""
        n_spins = 128
        ks = momentum_grid(n_spins)
        n = defect_density(np.sin(ks) ** 2)
        assert abs(n - 0.25) < 1.0 / n_spins**2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            defect_density([])


class TestCollectiveRamp:
    def test_endpoints(self):
        cfg = ising_cfg(2.0, 1e-3, Strategy.GEO, n_spins=64)
        ramp = collective_geodesic_ramp(cfg)
        assert ramp(0.0 / cfg.T) == pytest.approx(10.0, abs=1e-6)
        assert ramp(2.0 / cfg.T) == pytest.approx(0.0, abs=1e-6)

    def test_constant_total_metric_speed(self):
        """sqrt(sum_k g_k) * |dh/dt| is constant along the tabulated ramp.

        The ramp is a piecewise-linear table, so the tolerance reflects the
        table resolution rather than the 1e-6 constancy of the closed-form
        per-mode schedules.
        """
        cfg = ising_cfg(1.0, 1e-3, Strategy.GEO, n_spins=64)
        ramp = collective_geodesic_ramp(cfg)
        ks = momentum_grid(64)
        s, c = np.sin(ks), np.cos(ks)
        eps = 1e-3
        speeds = []
        for t in np.linspace(0.05, 0.95, 13):
            h = float(ramp(t / cfg.T))
            dh = (float(ramp((t + eps) / cfg.T)) - float(ramp((t - eps) / cfg.T))) / (2 * eps)
            a = h - c
            g = (0.25 * s**2 / (a * a + s * s) ** 2).sum()
            speeds.append(np.sqrt(g) * abs(dh))
        speeds = np.array(speeds)
        assert np.ptp(speeds) / speeds.mean() < 0.05

    @pytest.mark.parametrize("regime,gamma,h", [
        (Regime.ISING, (1.0, 1.0), (10.0, 0.0)),
        (Regime.ISING, (1.0, 1.0), (0.0, 2.0)),
        (Regime.GAPLESS, (-1.0, 1.0), (1.0, 1.0)),
        (Regime.ANISOTROPY, (1.0, -1.0), (0.5, 0.5)),
    ], ids=["ising-down", "ising-up", "gapless", "anisotropy-down"])
    def test_runs_monotone_from_p_i_to_p_f(self, regime, gamma, h):
        """On every line the ramp starts at p_i, ends at p_f and moves
        strictly towards p_f in between, whichever way the control runs."""
        cfg = ChainConfig(n_spins=64, regime=regime, gamma_i=gamma[0], gamma_f=gamma[1],
                          h_i=h[0], h_f=h[1], T=2.0, dt=1e-3, strategy=Strategy.GEO)
        ramp = collective_geodesic_ramp(cfg)
        p_i, p_f = cfg.control
        assert ramp(0.0) == p_i and ramp(1.0) == p_f
        steps = np.diff(ramp(np.linspace(0.0, 1.0, 1001)))
        assert np.all(steps * np.sign(p_f - p_i) > 0)

    def test_err_tracking_shapes(self):
        cfg = ising_cfg(1.0, 1e-3, Strategy.GEO_JUMP, nkicks=5, n_spins=32)
        result, err = run_chain(cfg, track_err=True)
        assert err is not None and len(err) == 16
        assert np.all(np.isfinite(err)) and np.all(err >= 0)


def kick_err_loop(cfg, ks):
    """|integral of e^{i phi} d lambda| for single-sample kicks, one segment
    at a time: the phase is frozen between pulses and grows linearly by
    -2 pi E_k(theta_j) across the step holding kick j."""
    kt = cfg.kicks
    dt, T = cfg.dt_eff, cfg.T
    width = dt / T
    out = []
    for k in ks:
        sched = xy_geodesic_schedule(k, Control.FIELD, cfg.h_i, cfg.h_f, cfg.gamma_i)
        phase, integral, prev_end = 0.0, 0.0j, 0.0
        for j, t0 in enumerate(cfg.kick_times):
            lam_j = (2 * j + 1) / (2 * kt.n_kicks)
            th = sched.theta_i + (sched.theta_f - sched.theta_i) * lam_j
            dphi = -2.0 * np.pi * math.hypot(math.sin(k) * math.tan(th), cfg.gamma_i * math.sin(k))
            start = min(math.floor(t0 / dt + 1e-9), cfg.n_steps - 1) * dt / T
            integral += np.exp(1j * phase) * (start - prev_end)
            integral += np.exp(1j * phase) * (np.exp(1j * dphi) - 1) / (1j * dphi) * width
            phase += dphi
            prev_end = start + width
        integral += np.exp(1j * phase) * (1.0 - prev_end)
        out.append(abs(integral))
    return np.array(out)


def finite_pulse_err_loop(cfg, ks):
    """|integral of e^{i phi} d lambda| for finite pulses, one grid step at a
    time: a step whose midpoint lies in a pulse window [t_j, t_j + delta_t)
    carries the pulse amplitude at the midpoint angle, any other is frozen."""
    kt = cfg.kicks
    dt, T, n = cfg.dt_eff, cfg.T, cfg.n_steps
    s = np.sin(ks)
    th_i = np.arctan2(cfg.h_i - np.cos(ks), s)
    th_f = np.arctan2(cfg.h_f - np.cos(ks), s)
    phase = np.zeros(len(ks))
    integral = np.zeros(len(ks), dtype=complex)
    for i in range(n):
        mid = (i + 0.5) * dt
        if not any(t <= mid < t + kt.delta_t for t in cfg.kick_times):
            integral += np.exp(1j * phase) * dt / T
            continue
        th = th_i + (th_f - th_i) * mid / T
        dphi = -4.0 * kt.amplitude * np.hypot(s * np.tan(th), cfg.gamma_i * s) * dt
        integral += np.exp(1j * phase) * (np.exp(1j * dphi) - 1) / (1j * dphi) * dt / T
        phase += dphi
    return np.abs(integral)


class TestAdiabaticityError:
    def test_linear_err_matches_fine_grid_quadrature(self):
        """LIN err_k against adiabatic_error on a 2e5-point grid, with
        E0 - E1 = -4 E_k(h(lambda)): within 1e-7 (midpoint dt=1e-4)."""
        cfg = ising_cfg(1.0, 1e-4, Strategy.LIN, n_spins=16, h_i=2.0, h_f=0.0)
        _, err = run_chain(cfg, track_err=True)
        lam = np.linspace(0.0, 1.0, 200001)
        h = 2.0 - 2.0 * lam
        for k, e in zip(momentum_grid(16), err):
            ek = np.hypot(h - np.cos(k), np.sin(k))
            ref = adiabatic_error(lam, -2 * ek, 2 * ek, cfg.T)[-1]
            assert abs(e - ref) < 1e-7

    @pytest.mark.parametrize("T", [1.0, 0.50006])
    def test_single_sample_kick_err_matches_segment_loop(self, T):
        cfg = ising_cfg(T, 1e-4, Strategy.GEO_JUMP, nkicks=7, n_spins=32, h_i=1.0, h_f=1.1)
        ks = momentum_grid(32)
        _, err = run_chain(cfg, track_err=True)
        assert np.abs(err - kick_err_loop(cfg, ks)).max() < 1e-12


    @pytest.mark.parametrize("T", [1.0, 1.0006])
    def test_finite_pulse_err_matches_step_loop(self, T):
        """Width 2.3 dt: pulse edges off the grid, frozen stretches between."""
        cfg = ising_cfg(T, 1e-3, Strategy.GEO_JUMP, nkicks=4, width=2.3e-3, n_spins=32,
                        h_i=1.0, h_f=1.1)
        assert not cfg.single_sample
        ks = momentum_grid(32)
        _, err = run_chain(cfg, track_err=True)
        assert np.abs(err - finite_pulse_err_loop(cfg, ks)).max() < 1e-12


class TestIndependentPaths:
    def test_kick_product_matches_narrow_finite_pulses(self):
        """The single-sample kick product against stepwise integration of
        narrow finite pulses (width 1e-5 on a 1e-6 grid, a different code
        path): defect densities agree to 1e-3 relative (measured 4.4e-5).
        With dt = 1e-5 the single-sample pulses occupy the same windows, so
        err_k agrees too: 1e-4 absolute (measured 9.6e-6)."""
        exact = ising_cfg(1.0, 1e-5, Strategy.GEO_JUMP, nkicks=50, h_i=1.0, h_f=1.1)
        narrow = ising_cfg(1.0, 1e-6, Strategy.GEO_JUMP, nkicks=50, width=1e-5,
                           h_i=1.0, h_f=1.1)
        assert exact.single_sample
        assert not narrow.single_sample
        res_exact, err_exact = run_chain(exact, track_err=True)
        res_narrow, err_narrow = run_chain(narrow, track_err=True)
        assert abs(res_narrow.n_defect - res_exact.n_defect) / res_exact.n_defect < 1e-3
        assert np.abs(err_narrow - err_exact).max() < 1e-4

    @pytest.mark.parametrize("strategy", [Strategy.GEO, Strategy.GEO_JUMP])
    def test_mode_on_h_equal_cos_k_is_rejected(self, strategy):
        """Anisotropy sweep at h = 0, N = 10: k = pi/2 has h = cos k, where
        the per-mode geodesic angle is undefined."""
        assert np.pi / 2 in momentum_grid(10)
        kicks = kick_train(3, 1e-3) if strategy is Strategy.GEO_JUMP else None
        with pytest.raises(ValueError, match="h = cos"):
            cfg = ChainConfig(10, Regime.ANISOTROPY, -1.0, 1.0, 0.0, 0.0, 1.0, 1e-3,
                              strategy=strategy, kicks=kicks, collective_geodesic=False)
            run_chain(cfg)
