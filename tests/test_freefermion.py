"""Tests for the chain momentum-mode dynamics."""

import inspect
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from quenchsim import freefermion
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
from quenchsim.schedules import Strategy, kick_train, xy_geodesic_schedule

from oracles import (
    HADAMARD,
    IDENT,
    PAULI_X,
    adiabatic_error,
    eig2,
    exact_linear_U,
    fidelity,
    ground_excited,
    kick_product,
    kmode,
    kmode_hamiltonian,
    step_error_sum,
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

    @pytest.mark.parametrize("n_spins", [251, 0, 4.0, 4.5])
    def test_rejects_odd(self, n_spins):
        """An odd, too small or non-integer count is rejected by name, also
        by a config: a float count used to fail inside the run with TypeError."""
        message = f"n_spins must be an even integer >= 2, got {n_spins}"
        with pytest.raises(ValueError) as exc:
            momentum_grid(n_spins)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            ising_cfg(1.0, 1e-3, Strategy.LIN, n_spins=n_spins)
        assert str(exc.value) == message


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

    @pytest.mark.parametrize("regime,gamma,h,field", [
        (Regime.ISING, (1.0, 1.0), (1e200, 0.0), "h_i=1e+200"),
        (Regime.ISING, (1.0, 1.0), (10.0, -1e155), "h_f=-1e+155"),
        (Regime.ANISOTROPY, (1e155, 1.0), (0.5, 0.5), "gamma_i=1e+155"),
    ])
    def test_overflowing_generator_rejected(self, regime, gamma, h, field):
        """a^2 + d^2 past the float range at either end of the control."""
        with pytest.raises(ValueError) as info:
            ChainConfig(8, regime, *gamma, *h, 1.0, 1e-3)
        assert str(info.value) == f"{field} is too large: the generator a^2 + d^2 overflows"

    @pytest.mark.parametrize("strategy,collective", [
        (Strategy.LIN, True), (Strategy.GEO, False), (Strategy.GEO_JUMP, True)])
    def test_largest_representable_control_runs(self, strategy, collective):
        """h_i = 1.3e154 keeps a^2 + d^2 finite: the run is accepted and its
        p_k and err_k are finite, with no floating-point warning."""
        cfg = ising_cfg(10.0, 1e-2, strategy, nkicks=3, n_spins=10, h_i=1.3e154,
                        collective=collective)
        result, err = run_chain(cfg, track_err=True)
        assert np.all(np.isfinite(result.pk)) and np.all(np.isfinite(err))

    @pytest.mark.parametrize("regime,gamma,h,field", [
        (Regime.ISING, (1.0, 1.0), (1e100, 0.0), "h_i=1e+100"),
        (Regime.ISING, (1.0, 1.0), (10.0, -1e80), "h_f=-1e+80"),
        (Regime.ANISOTROPY, (1.0, 1e100), (0.5, 0.5), "gamma_f=1e+100"),
    ])
    def test_collective_geodesic_overflowing_metric_rejected(self, regime, gamma, h, field):
        """The collective ramp divides by (a^2 + d^2)^2, which overflows past
        |a| ~ 1e77 although a^2 + d^2 stays finite; the other drivings take
        the same control."""
        with pytest.raises(ValueError) as info:
            ChainConfig(10, regime, *gamma, *h, 1.0, 1e-2, strategy=Strategy.GEO)
        assert str(info.value) == (f"{field} is too large for the collective geodesic: "
                                   "(a^2 + d^2)^2 overflows")
        for strategy, collective in ((Strategy.LIN, True), (Strategy.GEO, False)):
            ChainConfig(10, regime, *gamma, *h, 1.0, 1e-2, strategy=strategy,
                        collective_geodesic=collective)

    @pytest.mark.parametrize("gamma", [(-1.0, 1.0), (1.0, -1.0), (0.0, 1.0), (-2.0, 0.0)])
    def test_collective_geodesic_through_closed_gap_rejected(self, gamma):
        """Anisotropy at h = cos k on the grid (k = 3 pi/10 at N = 10): a gamma
        that reaches or crosses 0 takes that mode's (a, d) through (0, 0)."""
        k = float(momentum_grid(10)[1])
        with pytest.raises(ValueError) as info:
            ChainConfig(10, Regime.ANISOTROPY, *gamma, math.cos(k), math.cos(k), 1.0, 1e-2,
                        strategy=Strategy.GEO)
        assert str(info.value) == (f"the gap closes at k={k!r} between gamma_i and gamma_f: "
                                   "no collective geodesic crosses it")

    @pytest.mark.parametrize("gamma,h,strategy", [
        ((-1.0, 1.0), 0.0, Strategy.GEO),  # a = -6e-17 at k = pi/2: the gap stays open
        ((0.2, 1.5), math.cos(3 * math.pi / 10), Strategy.GEO),  # gamma keeps its sign
        ((-1.0, 1.0), math.cos(3 * math.pi / 10), Strategy.LIN),  # no metric to sum
    ])
    def test_paths_past_or_off_a_closed_gap_run(self, gamma, h, strategy):
        cfg = ChainConfig(10, Regime.ANISOTROPY, *gamma, h, h, 1.0, 1e-2, strategy=strategy)
        result, err = run_chain(cfg, track_err=True)
        assert np.all(np.isfinite(result.pk)) and np.all(np.isfinite(err))


class TestEvolveModes:
    def test_short_time_linear_is_identity(self):
        """T -> 0 with no pulses leaves every mode untouched."""
        cfg = ising_cfg(1e-6, 1e-8, Strategy.LIN, n_spins=16)
        U = evolve_modes(cfg)[0][3]
        assert np.abs(U - IDENT).max() < 1e-4

    def test_stepwise_matches_exact_kicks(self):
        """Single-sample pulses reduce to the SU(2) kick product, and
        evolve_mode_kicks_exact (perfbench's rate-free reference) is that
        product."""
        cfg = ising_cfg(1.0, 1e-4, Strategy.GEO_JUMP, nkicks=5, n_spins=64)
        U_grid, _ = evolve_modes(cfg)
        for k, U_step in zip(momentum_grid(64)[::13], U_grid[::13]):
            thetas = theta_path_ising(k, 10.0, 0.0, 5)
            U_oracle = kick_product(k, thetas, 1.0)
            assert np.abs(U_step - U_oracle).max() < 1e-6
            assert np.abs(evolve_mode_kicks_exact(k, thetas, 1.0) - U_oracle).max() < 1e-12

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

    @pytest.mark.parametrize("regime,strategy", [
        (Regime.ISING, Strategy.GEO), (Regime.ISING, Strategy.GEO_JUMP),
        (Regime.ANISOTROPY, Strategy.GEO), (Regime.ANISOTROPY, Strategy.GEO_JUMP),
    ])
    def test_one_cell_computes_its_angles_once(self, regime, strategy, monkeypatch):
        """From ChainConfig(...) through run_chain, a per-mode geodesic cell
        computes its modes' geodesic angles once, for the engine's sampler."""
        calls, angles = [], freefermion._mode_geodesic_angles
        monkeypatch.setattr(freefermion, "_mode_geodesic_angles",
                            lambda *args: calls.append(args) or angles(*args))
        ising = regime is Regime.ISING
        gamma, h = ((1.0, 1.0), (10.0, 0.0)) if ising else ((-1.0, 1.0), (0.5, 0.5))
        kicks = kick_train(3, 1e-3) if strategy is Strategy.GEO_JUMP else None
        run_chain(ChainConfig(14, regime, *gamma, *h, 1.0, 1e-3, strategy=strategy, kicks=kicks,
                              collective_geodesic=False), track_err=True)
        assert len(calls) == 1

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
    @pytest.mark.parametrize("strategy, collective, nkicks", [
        (Strategy.LIN, True, 0), (Strategy.GEO, True, 0), (Strategy.GEO, False, 0),
        (Strategy.GEO_JUMP, True, 4)], ids=["lin", "geo", "per-mode-geo", "geojump"])
    def test_is_the_engine_projection(self, strategy, collective, nkicks):
        """run_chain's p_k is excitation_prob over the grid, bitwise; one
        momentum with its (2, 2) unitary gives that entry as a float."""
        cfg = ising_cfg(1.0, 1e-3, strategy, nkicks=nkicks, n_spins=32, collective=collective)
        ks = momentum_grid(32)
        U, _ = evolve_modes(cfg)
        pk = run_chain(cfg)[0].pk
        assert np.array_equal(excitation_prob(U, ks, 1.0, 0.0, 1.0, 10.0), pk)
        for i in (0, 7, 15):
            p = excitation_prob(U[i], ks[i], 1.0, 0.0, 1.0, 10.0)
            assert isinstance(p, float) and abs(p - pk[i]) <= 1e-15

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
        """p_k plus the ground-state survival probability is exactly one, on
        each of the 20 modes of a 40-spin chain."""
        cfg = ising_cfg(0.7, 1e-3, Strategy.LIN, n_spins=40)
        for k, U in zip(momentum_grid(40), evolve_modes(cfg)[0]):
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
        strictly towards p_f in between, whichever way the control runs; it
        holds its ends outside [0, 1]."""
        cfg = ChainConfig(n_spins=64, regime=regime, gamma_i=gamma[0], gamma_f=gamma[1],
                          h_i=h[0], h_f=h[1], T=2.0, dt=1e-3, strategy=Strategy.GEO)
        ramp = collective_geodesic_ramp(cfg)
        p_i, p_f = cfg.control
        assert ramp(0.0) == p_i and ramp(1.0) == p_f
        assert ramp(-0.5) == p_i and ramp(1.5) == p_f
        steps = np.diff(ramp(np.linspace(0.0, 1.0, 1001)))
        assert np.all(steps * np.sign(p_f - p_i) > 0)

    @pytest.mark.parametrize("regime,gamma,h", [
        (Regime.ISING, (1.0, 1.0), (10.0, 0.0)),
        (Regime.ANISOTROPY, (0.2, 1.5), (0.5, 0.5)),
        (Regime.GAPLESS, (1.0, -1.0), (1.0, 1.0)),
    ], ids=["ising", "anisotropy", "gapless"])
    def test_table_keeps_the_bits_of_one_whole_table(self, regime, gamma, h, monkeypatch):
        """The ramp builds its arc-length table in blocks of grid rows; it
        interpolates the same table as one built from a single (rows, M)
        metric array, with its own budget and with one of 8 rows of the 125
        modes, which leaves a last block of 1 row."""
        cfg = ChainConfig(n_spins=250, regime=regime, gamma_i=gamma[0], gamma_f=gamma[1],
                          h_i=h[0], h_f=h[1], T=2.0, dt=1e-3, strategy=Strategy.GEO)
        ks = momentum_grid(250)
        s, c = np.sin(ks), np.cos(ks)
        p_i, p_f = cfg.control
        grid = np.linspace(min(p_i, p_f), max(p_i, p_f), 20001)
        a, d = cfg.generator(grid[:, None], s, c)
        e2 = a * a + d * d
        g = 0.25 * (d if cfg.varies_h else a * s) ** 2 / (e2 * e2)
        w = np.sqrt(g.sum(axis=1))
        arclen = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))])
        frac = np.linspace(0.0, 1.0, 1001)
        ref = np.interp(arclen[-1] * (frac if p_i <= p_f else 1.0 - frac), arclen, grid)
        assert np.array_equal(collective_geodesic_ramp(cfg)(frac), ref)
        monkeypatch.setattr(freefermion, "_BLOCK_ELEMS", 8 * 125)
        assert freefermion._RAMP_PTS % 8 == 1
        assert np.array_equal(collective_geodesic_ramp(cfg)(frac), ref)

    def test_underflowing_zero_metric_term_counts_as_zero(self):
        """At h = cos(3 pi/10) exactly (N = 10) one mode has a = 0, so its
        term of the summed metric is 0 on the whole path; from gamma_i =
        1e-90 its (a^2 + d^2)^2 underflows to 0.  The ramp stays finite and
        runs from gamma_i to gamma_f."""
        cfg = ChainConfig(n_spins=10, regime=Regime.ANISOTROPY, gamma_i=1e-90, gamma_f=1.0,
                          h_i=0.5877852522924731, h_f=0.5877852522924731, T=1.0, dt=1e-2,
                          strategy=Strategy.GEO)
        path = collective_geodesic_ramp(cfg)(np.linspace(0.0, 1.0, 101))
        assert np.all(np.isfinite(path)) and path[0] == 1e-90 and path[-1] == 1.0
        assert np.all(np.diff(path) > 0)

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
        s, c = np.sin([k]), np.cos([k])
        (th_i,), (th_f,) = xy_geodesic_schedule(cfg.h_i - c, cfg.h_f - c, cfg.gamma_i * s)
        phase, integral, prev_end = 0.0, 0.0j, 0.0
        for j, t0 in enumerate(cfg.kick_times):
            lam_j = (2 * j + 1) / (2 * kt.n_kicks)
            th = th_i + (th_f - th_i) * lam_j
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

    @pytest.mark.parametrize("strategy,nkicks,width", [
        (Strategy.LIN, 0, None), (Strategy.GEO, 0, None),
        (Strategy.GEO_JUMP, 7, None), (Strategy.GEO_JUMP, 5, 2.3e-3),
    ], ids=["lin", "collective-geo", "single-sample-kicks", "finite-width-kicks"])
    def test_err_within_1e_14_of_the_40_digit_sum(self, strategy, nkicks, width):
        """err_k against oracles.step_error_sum of the cell's 1001 grid steps
        (one chunk), each empty step of a kicked cell a frozen step of its
        own: within 1e-14 absolute."""
        cfg = ising_cfg(1.0006, 1e-3, strategy, nkicks=nkicks, width=width, n_spins=8,
                        h_i=1.0, h_f=1.1)
        sample = freefermion._bloch_components(cfg, momentum_grid(8))
        dphi = np.zeros((cfg.n_steps, 4))
        if cfg.kicks is None:
            rows, area = slice(None), cfg.dt_eff
            lam = (np.arange(cfg.n_steps) + 0.5) * cfg.dt_eff / cfg.T
        else:
            rows, lam, area = cfg.layout()
            area = area[:, None]
        dphi[rows] = -4.0 * np.hypot(*sample(lam)) * area
        _, err = run_chain(cfg, track_err=True)
        assert np.abs(err - step_error_sum(dphi, cfg.dt_eff / cfg.T)[-1]).max() < 1e-14


class TestExactLinearRamp:
    """Per-mode U of a linear ramp against oracles.exact_linear_U, phases
    included.  The Ising line is its H = -2 (z Z + x X) with z = h - cos k
    and x = sin k; a gamma line is, after a Hadamard basis change, with
    z = gamma sin k and x = h - cos k."""

    LINES = {
        "ising": (16, Regime.ISING, (1.0, 1.0), (10.0, 0.0), 10.0),
        "anisotropy": (12, Regime.ANISOTROPY, (-1.0, 1.0), (0.5, 0.5), 20.0),
        "gapless": (12, Regime.GAPLESS, (0.2, 1.5), (1.0, 1.0), 20.0),
    }

    @staticmethod
    def exact(n_spins, regime, gamma, h, T):
        ks = momentum_grid(n_spins)
        s, c = np.sin(ks), np.cos(ks)
        if regime is Regime.ISING:
            return np.array([exact_linear_U(h[0] - ck, h[1] - ck, sk, T) for sk, ck in zip(s, c)])
        return np.array([HADAMARD @ exact_linear_U(gamma[0] * sk, gamma[1] * sk, h[0] - ck, T)
                         @ HADAMARD for sk, ck in zip(s, c)])

    @classmethod
    def errors(cls, line, dts):
        """max over modes of the spectral norm of U - exact, at each dt."""
        n_spins, regime, gamma, h, T = cls.LINES[line]
        exact = cls.exact(n_spins, regime, gamma, h, T)
        return [np.linalg.norm(evolve_modes(ChainConfig(n_spins, regime, *gamma, *h, T, dt),
                                            threads=1)[0] - exact, ord=2, axis=(1, 2)).max()
                for dt in dts]

    @pytest.mark.parametrize("line,bound", [
        ("ising", 4e-7), ("anisotropy", 4e-8), ("gapless", 2.5e-8),
    ])
    def test_matches_the_exact_propagator(self, line, bound):
        """dt = 1e-3: 3.26e-7 (Ising h 10 -> 0, N = 16, T = 10), 3.2e-8
        (anisotropy h = 0.5, gamma -1 -> 1, N = 12, T = 20) and 1.8e-8
        (gapless gamma 0.2 -> 1.5, N = 12, T = 20)."""
        assert self.errors(line, [1e-3])[0] < bound

    @pytest.mark.parametrize("line", ["ising", "anisotropy", "gapless"])
    def test_midpoint_error_is_second_order(self, line):
        """Each tenfold cut of dt, 1e-2 -> 1e-3 -> 1e-4, cuts the error a
        hundredfold."""
        errs = self.errors(line, [1e-2, 1e-3, 1e-4])
        orders = np.log10(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.05), orders

    def test_constant_generator_is_a_plain_exponential(self):
        """v = 0: the oracle's exponential is what the steps of a constant
        generator compose to, up to rounding; it is unitary."""
        U, _ = evolve_modes(ising_cfg(3.0, 1e-2, Strategy.LIN, n_spins=8, h_i=0.7, h_f=0.7),
                            threads=1)
        ks = momentum_grid(8)
        exact = np.array([exact_linear_U(0.7 - math.cos(k), 0.7 - math.cos(k), math.sin(k), 3.0)
                          for k in ks])
        assert np.abs(U - exact).max() < 1e-12
        assert np.abs(exact @ exact.conj().transpose(0, 2, 1) - IDENT).max() < 1e-14


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
        with pytest.raises(ValueError) as info:
            ChainConfig(10, Regime.ANISOTROPY, -1.0, 1.0, 0.0, 0.0, 1.0, 1e-3,
                        strategy=strategy, kicks=kicks, collective_geodesic=False)
        assert str(info.value) == (f"h = cos(k) = {float(np.cos(np.pi / 2))}: anisotropy "
                                   "mixing angle undefined")


def _thread_case(case, n_spins):
    """One run per driving, T = 10.0007 (3 chunks and a remainder)."""
    T, dt = 10.0007, 1e-3
    if case == "per-mode-geo-anisotropy":
        return ChainConfig(n_spins, Regime.ANISOTROPY, -1.0, 1.0, 0.5, 0.5, T, dt,
                           strategy=Strategy.GEO, collective_geodesic=False)
    strategy, nkicks, width = {
        "lin": (Strategy.LIN, 0, None),
        "collective-geo": (Strategy.GEO, 0, None),
        "single-sample-kicks": (Strategy.GEO_JUMP, 7, dt),
        "finite-width-kicks": (Strategy.GEO_JUMP, 5, 2.3 * dt),
    }[case]
    return ising_cfg(T, dt, strategy, nkicks=nkicks, width=width, n_spins=n_spins)


def _spy_on_evolve_rows(monkeypatch):
    """The arguments, defaults included, of every su2._evolve_rows call that
    freefermion makes from here on, in a list that fills as they happen."""
    calls, evolve_rows = [], freefermion._evolve_rows
    signature = inspect.signature(evolve_rows)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return evolve_rows(*args, **kwargs)

    monkeypatch.setattr(freefermion, "_evolve_rows", spy)
    return calls


class TestThreads:
    """Contiguous mode blocks, on any number of threads, give the bits of one
    block of every mode."""

    @pytest.mark.parametrize("n_spins", [6, 14, 20, 250])
    @pytest.mark.parametrize("case", ["lin", "collective-geo", "per-mode-geo-anisotropy",
                                      "single-sample-kicks", "finite-width-kicks"])
    def test_bitwise_equal_for_any_thread_count(self, case, n_spins):
        """M = 3 (one block at any count), 7 (divisible by neither 2 nor 3),
        10 and 125, which runs in 4 blocks of 31 or 32 modes at any thread
        count (in 1 with few kicked rows); no thread outlives run_chain."""
        cfg = _thread_case(case, n_spins)
        before = threading.active_count()
        runs = [run_chain(cfg, track_err=True, threads=t) for t in (1, 2, 3)]
        assert threading.active_count() == before
        (ref, ref_err), rest = runs[0], runs[1:]
        for result, err in rest:
            assert result.pk.tobytes() == ref.pk.tobytes()
            assert result.n_defect.hex() == ref.n_defect.hex()
            assert err.tobytes() == ref_err.tobytes()

    def test_more_threads_than_cores_under_fast_switching(self):
        """8 blocks on a 1e-6 s switch interval: the blocks share only
        read-only tables, so the bits stay those of the serial run."""
        cfg = _thread_case("collective-geo", 40)
        ref = evolve_modes(cfg, track_err=True, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = evolve_modes(cfg, track_err=True, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("nmodes,threads,cpus,widths,case", [
        (3, 3, 2, [3], "lin"),
        (7, 2, 2, [3, 4], "lin"),
        (7, 3, 2, [2, 2, 3], "lin"),
        (7, 8, 2, [2, 2, 3], "lin"),
        (10, None, 2, [5, 5], "lin"),
        (10, None, 1, [10], "lin"),
        (1, 4, 4, [1], "lin"),
        (125, 1, 2, [31, 31, 31, 32], "lin"),
        (1000, 2, 2, [31, 31, 31, 32] * 8, "lin"),
        (125, 1, 2, [125], "finite-width-kicks"),
    ])
    def test_blocks_are_contiguous_and_at_least_two_modes_wide(
            self, nmodes, threads, cpus, widths, case, monkeypatch):
        """At least one block per thread (threads=None takes the usable CPUs)
        and enough that a chunk of one, min(rows, 4096) x its modes, holds
        about 2^17 entries, but at most M // 2, in mode order: 4 blocks for
        125 modes and 32 for 1000 on 10001 rows, 1 for 125 modes on the 12
        rows of a kicked cell."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        calls = _spy_on_evolve_rows(monkeypatch)
        U, _ = evolve_modes(_thread_case(case, 2 * nmodes), threads=threads)
        seen = sorted((call["col0"], call["carry"].shape[1]) for call in calls)
        assert [width for _, width in seen] == widths
        assert [col0 for col0, _ in seen] == [0] + [c + w for c, w in seen[:-1]]
        assert U.shape == (nmodes, 2, 2)

    @pytest.mark.parametrize("case", ["lin", "finite-width-kicks"])
    def test_bitwise_equal_for_any_block_count(self, case, monkeypatch):
        """One cell on one thread through 1, 4 and 62 mode blocks, the budget
        made large, sized for four blocks of its first chunk and made 1: a
        continuous drive, and kicked rows with frozen stretches between."""
        cfg = _thread_case(case, 250)
        rows = cfg.n_steps if cfg.kicks is None else len(cfg.layout()[0])
        four = math.ceil(cfg.n_spins // 2 * min(rows, freefermion._CHUNK) / 4)
        calls = _spy_on_evolve_rows(monkeypatch)
        runs = []
        for budget, nblocks in ((1 << 30, 1), (four, 4), (1, 62)):
            monkeypatch.setattr(freefermion, "_BLOCK_ELEMS", budget)
            calls.clear()
            runs.append(evolve_modes(cfg, track_err=True, threads=1))
            assert len(calls) == nblocks
        (U, err), rest = runs[0], runs[1:]
        for got_U, got_err in rest:
            assert got_U.tobytes() == U.tobytes() and got_err.tobytes() == err.tobytes()

    def test_one_cell_builds_its_rows_once(self, monkeypatch):
        """Every block of a finite-width kicked cell on 3 threads steps the
        same row table: its frozen widths are one array."""
        calls = _spy_on_evolve_rows(monkeypatch)
        evolve_modes(_thread_case("finite-width-kicks", 20), track_err=True, threads=3)
        seen = [call["frozen"] for call in calls]
        assert len(seen) == 3 and seen[0] is not None
        assert all(frozen is seen[0] for frozen in seen)

    @pytest.mark.parametrize("bad,reported", [
        ([(5000, 0), (4500, 6), (4500, 4), (8500, 1)], (4500, 4)),
        ([(5000, 0), (300, 6)], (300, 6)),
        ([(4096, 0), (4095, 5)], (4095, 5)),
        ([(20, 5), (10, 100)], (10, 100)),
    ])
    def test_non_finite_control_names_the_serial_row_and_mode(self, bad, reported,
                                                             monkeypatch):
        """A sampler that puts NaN at the given (row, mode) entries of a
        9000-step run of 7 modes, or of 101 when a mode index reaches 100
        (4 blocks on one thread): every thread count reports the smallest
        row, then the smallest global mode index, as one block of every
        mode does."""
        build = freefermion._bloch_components

        def poisoned(cfg, ks):
            fn = build(cfg, ks)

            def sample(frac, cols=slice(None)):
                a, d = fn(frac, cols)
                a = a.copy()
                rows = np.rint(frac * cfg.T / cfg.dt_eff - 0.5).astype(int)
                modes = np.arange(len(ks))[cols]
                for row, mode in bad:
                    a[(rows == row)[:, None] & (modes == mode)[None, :]] = np.nan
                return a, d

            return sample

        monkeypatch.setattr(freefermion, "_bloch_components", poisoned)
        n_spins = max(14, 2 * max(mode for _, mode in bad) + 2)
        cfg = ising_cfg(9.0, 1e-3, Strategy.LIN, n_spins=n_spins)
        for threads in (1, 2, 3):
            with pytest.raises(RuntimeError) as info:
                run_chain(cfg, track_err=True, threads=threads)
            assert str(info.value) == \
                "non-finite control at row %d, mode index %d" % reported


class TestPeakMemory:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_cell_traces_under_64_mb(self, threads):
        """The Ising collective geodesic at N = 2000 with track_err: mode
        blocks of 31 or 32 and the ramp's blocks of 131 grid rows bound what
        each thread holds (one 4096-row chunk of 1000 modes traced 380 MB).
        tracemalloc sees numpy's buffers and, unlike RSS, does not move with
        the allocator's arenas."""
        cfg = ising_cfg(5.0, 1e-3, Strategy.GEO, n_spins=2000)
        tracemalloc.start()
        try:
            evolve_modes(cfg, track_err=True, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestUsableCpus:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert freefermion._usable_cpus() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False)
        assert freefermion._usable_cpus() == 3

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert freefermion._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert freefermion._usable_cpus() == 1
