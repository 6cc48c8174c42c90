"""Tests for the two-level sweep engine and the adiabaticity error."""

import math
import tracemalloc

import numpy as np
import pytest

from quenchsim.landau_zener import LZConfig, evolve_lz
from quenchsim.schedules import Strategy, kick_train, xy_geodesic_schedule

from oracles import (HADAMARD, Herm2, adiabatic_error, eig2, exact_linear_U, expm_herm2, fidelity,
                     lz_geodesic_final_state, lz_hamiltonian, step_error_sum)


def cfg_for(strategy, T, dt, nkicks=0, width=None, eps=0.1):
    kicks = None
    if strategy is Strategy.GEO_JUMP:
        kicks = kick_train(nkicks, width if width is not None else dt)
    return LZConfig(eps=eps, x_i=-10.0, x_f=10.0, T=T, dt=dt, strategy=strategy, kicks=kicks)


class TestLZHamiltonian:
    def test_pure_z_gap(self):
        """x=0, eps=0.1 is 0.05 Z with gap 0.1."""
        h = lz_hamiltonian(0.0, 0.1)
        em, ep, _, _ = eig2(h)
        assert ep - em == pytest.approx(0.1)
        assert np.allclose(h.d, [0.0, 0.0, 0.05])

    def test_gap_at_large_field(self):
        em, ep, _, _ = eig2(lz_hamiltonian(10.0, 0.1))
        assert ep - em == pytest.approx(np.sqrt(100.01))

    def test_field_sign_flips_x_component_only(self):
        hp = lz_hamiltonian(3.0, 0.1)
        hm = lz_hamiltonian(-3.0, 0.1)
        assert hm.d[0] == -hp.d[0]
        assert hm.d[2] == hp.d[2]


class TestConfigValidation:
    def test_kicks_only_with_geojump(self):
        with pytest.raises(ValueError):
            LZConfig(0.1, -10, 10, 1.0, 1e-3, Strategy.LIN, kick_train(2, 1e-3))
        with pytest.raises(ValueError):
            LZConfig(0.1, -10, 10, 1.0, 1e-3, Strategy.GEO_JUMP, None)

    def test_needs_at_least_100_steps(self):
        with pytest.raises(ValueError):
            LZConfig(0.1, -10, 10, 1.0, 0.1, Strategy.LIN)

    def test_geodesic_needs_field_scale(self):
        with pytest.raises(ValueError):
            LZConfig(0.0, -10, 10, 1.0, 1e-3, Strategy.GEO)


class TestEvolve:
    def test_geojump_short_time_high_fidelity(self):
        """Kicked geodesic reaches the target even at T = 0.5."""
        traj = evolve_lz(cfg_for(Strategy.GEO_JUMP, 0.5, 1e-4, nkicks=10))
        assert traj.fidelity[-1] >= 0.99

    def test_geojump_where_t_over_dt_rounds_up(self):
        """A width-dt train at T/dt = 5000.6 (rounds up, dt_eff < dt) still
        kicks: final fidelity equals the integer-T/dt run within 1e-12."""
        cfg = cfg_for(Strategy.GEO_JUMP, 0.50006, 1e-4, nkicks=10)
        assert cfg.dt_eff < cfg.dt
        ref = evolve_lz(cfg_for(Strategy.GEO_JUMP, 0.5, 1e-4, nkicks=10)).fidelity[-1]
        assert abs(evolve_lz(cfg).fidelity[-1] - ref) < 1e-12

    def test_geo_below_geojump_at_short_time(self):
        geo = evolve_lz(cfg_for(Strategy.GEO, 0.5, 1e-4))
        jump = evolve_lz(cfg_for(Strategy.GEO_JUMP, 0.5, 1e-4, nkicks=10))
        assert geo.fidelity[-1] < jump.fidelity[-1]

    def test_norm_preserved(self):
        for strategy, nk in ((Strategy.LIN, 0), (Strategy.GEO, 0), (Strategy.GEO_JUMP, 7)):
            traj = evolve_lz(cfg_for(strategy, 1.0, 1e-3, nkicks=nk))
            assert abs(np.linalg.norm(traj.final_state) - 1.0) < 1e-9

    def test_norm_does_not_drift_over_long_runs(self):
        """2e5 steps (49 kernel chunks): |psi| stays within 1e-14 of one.
        Without projecting the propagator back onto SU(2) the reassociated
        products drift it by -1.9e-12."""
        traj = evolve_lz(cfg_for(Strategy.LIN, 20.0, 1e-4))
        assert abs(np.linalg.norm(traj.final_state) - 1.0) < 1e-14

    def test_dt_halving_converged(self):
        """Halving dt moves the final fidelity by < 1e-6 at T=1, eps=0.1."""
        for strategy in (Strategy.LIN, Strategy.GEO):
            f1 = evolve_lz(cfg_for(strategy, 1.0, 1e-3)).fidelity[-1]
            f2 = evolve_lz(cfg_for(strategy, 1.0, 5e-4)).fidelity[-1]
            assert abs(f1 - f2) < 1e-6

    def test_geojump_gap_closes_between_pulses(self):
        """The recorded gap vanishes exactly between pulses."""
        traj = evolve_lz(cfg_for(Strategy.GEO_JUMP, 1.0, 1e-3, nkicks=5))
        nonzero = traj.gap > 0
        assert nonzero.sum() == 5
        assert np.all(traj.gap[~nonzero] == 0.0)

    @pytest.mark.parametrize("width", [1.5, 2.3, 10.0])
    def test_finite_pulse_gap_is_nonzero_exactly_at_the_layout_steps(self, width):
        """Node i carries the gap 2 * amplitude of step i: nonzero at every
        step Run.layout fills and nowhere else."""
        cfg = cfg_for(Strategy.GEO_JUMP, 1.0006, 1e-3, nkicks=4, width=width * 1e-3)
        idx, _, _ = cfg.layout()
        traj = evolve_lz(cfg)
        assert np.flatnonzero(traj.gap).tolist() == idx.tolist()
        assert np.allclose(traj.gap[idx], 2 * cfg.kicks.amplitude, rtol=1e-14, atol=0)

    def test_linear_gap_takes_the_rows_rule_at_t_over_T(self):
        """The linear sweep's gap at node i is sqrt(x^2 + eps^2) with
        x = x_i + (x_f - x_i) (t_i/T), the rows' rule at lam = t_i/T, bit
        for bit (T/dt is not an integer here)."""
        cfg = cfg_for(Strategy.LIN, 1.0006, 1e-4)
        traj = evolve_lz(cfg)
        xs = (cfg.x_i + (cfg.x_f - cfg.x_i) * (i * cfg.dt_eff / cfg.T)
              for i in range(cfg.n_steps + 1))
        expected = [math.sqrt(x * x + cfg.eps * cfg.eps) for x in xs]
        assert traj.gap.tolist() == expected

    def test_adiabatic_limit_lin_geo_agree(self):
        """Both continuous strategies exceed 0.999 fidelity at T = 1e4."""
        for strategy in (Strategy.LIN, Strategy.GEO):
            traj = evolve_lz(cfg_for(strategy, 1e4, 0.05))
            assert traj.fidelity[-1] > 0.999

    def test_trajectory_shapes_and_ranges(self):
        traj = evolve_lz(cfg_for(Strategy.LIN, 1.0, 1e-3))
        n = len(traj.times)
        for arr in (traj.fidelity, traj.gap, traj.phase_diff_re, traj.phase_diff_im, traj.err):
            assert len(arr) == n
        assert np.all((traj.fidelity >= 0) & (traj.fidelity <= 1))
        assert np.all(traj.gap >= 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)

    def test_phase_factor_stays_on_unit_circle(self):
        traj = evolve_lz(cfg_for(Strategy.GEO, 2.0, 1e-3))
        mags = traj.phase_diff_re**2 + traj.phase_diff_im**2
        assert np.allclose(mags, 1.0, atol=1e-12)

    @pytest.mark.parametrize("strategy,T,dt,nkicks", [
        (Strategy.LIN, 400.0, 1e-2, 0),
        (Strategy.GEO, 1e4, 5e-2, 0),
        (Strategy.GEO_JUMP, 1.0, 1e-3, 50),
    ])
    def test_slow_sweep_ends_in_the_final_ground_state(self, strategy, T, dt, nkicks):
        """Every strategy starts in the ground state, so a slow sweep (or a
        dense kick train) ends in the ground state of H(x_f) from eig2."""
        traj = evolve_lz(cfg_for(strategy, T, dt, nkicks=nkicks, eps=1.0))
        _, _, ground, _ = eig2(lz_hamiltonian(10.0, 1.0))
        assert fidelity(ground, traj.final_state) > 1 - 1e-6

    @pytest.mark.parametrize("strategy,nkicks", [(Strategy.GEO, 0), (Strategy.GEO_JUMP, 7)])
    def test_geodesics_do_not_depend_on_the_sign_of_eps(self, strategy, nkicks):
        """eps -> -eps mirrors the sweep about the X axis: with the short
        arc taken at eps < 0 the fidelity matches at every node."""
        plus = evolve_lz(cfg_for(strategy, 1.0, 1e-4, nkicks=nkicks, eps=0.1))
        minus = evolve_lz(cfg_for(strategy, 1.0, 1e-4, nkicks=nkicks, eps=-0.1))
        assert np.abs(plus.fidelity - minus.fidelity).max() < 1e-12


def loop_reference(cfg):
    """Fidelity, phase factor and adiabaticity error at every node, and the
    final state, from a per-step loop: one expm_herm2 and one exact segment
    integral per step, starting in eig2's ground state at x_i.

    The generator of each step follows the documented sampling rules:
    midpoint-sampled field or angle for the continuous strategies; for a
    kick train of width <= dt the whole pi/2 area in the step holding each
    kick time, with the angle at the kick time; for wider pulses the
    envelope at the step midpoint.
    """
    n, dt = cfg.n_steps, cfg.dt_eff
    _, _, psi, _ = eig2(lz_hamiltonian(cfg.x_i, cfg.eps))
    _, _, target, _ = eig2(lz_hamiltonian(cfg.x_f, cfg.eps))
    if cfg.strategy is not Strategy.LIN:
        th_i, th_f = xy_geodesic_schedule(cfg.x_i, cfg.x_f, cfg.eps)
        theta = lambda frac: th_i + (th_f - th_i) * frac
    gen = np.zeros((n, 2))  # (dx, dz) per step
    for s in range(n):
        tmid = (s + 0.5) * dt
        if cfg.strategy is Strategy.LIN:
            gen[s] = (cfg.x_i + (cfg.x_f - cfg.x_i) * tmid / cfg.T) / 2, cfg.eps / 2
        elif cfg.strategy is Strategy.GEO:
            th = theta(tmid / cfg.T)
            gen[s] = np.sin(th) / 2, np.cos(th) / 2
    kt = cfg.kicks
    if kt is not None and kt.delta_t <= cfg.dt * (1 + 1e-9):
        for t0 in cfg.kick_times:
            th = theta(t0 / cfg.T)
            gen[int(np.floor(t0 / dt + 1e-9))] = np.array([np.sin(th), np.cos(th)]) * np.pi / (2 * dt)
    elif kt is not None:
        for s in range(n):
            tmid = (s + 0.5) * dt
            if any(t0 <= tmid < t0 + kt.delta_t for t0 in cfg.kick_times):
                th = theta(tmid / cfg.T)
                gen[s] = np.array([np.sin(th), np.cos(th)]) * kt.amplitude
    fid, phase_re, phase_im, err = [abs(np.vdot(target, psi)) ** 2], [1.0], [0.0], [0.0]
    phase, integral = 0.0, 0.0j
    for dx, dz in gen:
        psi = expm_herm2(Herm2(0.0, np.array([dx, 0.0, dz])), dt) @ psi
        dphi = -2.0 * np.hypot(dx, dz) * dt
        ramp = (np.exp(1j * dphi) - 1) / (1j * dphi) if dphi != 0 else 1.0
        integral += np.exp(1j * phase) * ramp * dt / cfg.T
        phase += dphi
        fid.append(abs(np.vdot(target, psi)) ** 2)
        phase_re.append(np.cos(phase))
        phase_im.append(np.sin(phase))
        err.append(abs(integral))
    return np.array(fid), np.array(phase_re), np.array(phase_im), np.array(err), psi


class TestAgainstStepLoop:
    @pytest.mark.parametrize("strategy,width", [
        (Strategy.LIN, None), (Strategy.GEO, None),
        (Strategy.GEO_JUMP, 1.0), (Strategy.GEO_JUMP, 10.0),
    ])
    def test_every_node_matches(self, strategy, width):
        """5000 steps (more than one kernel chunk): every node agrees with
        the per-step loop within 1e-12."""
        T, dt = 0.5, 1e-4
        cfg = cfg_for(strategy, T, dt, nkicks=10, width=width * dt if width else None)
        traj = evolve_lz(cfg)
        fid, ph_re, ph_im, err, psi = loop_reference(cfg)
        assert len(fid) == len(traj.fidelity) == 5001
        assert np.abs(traj.fidelity - fid).max() < 1e-12
        assert np.abs(traj.phase_diff_re - ph_re).max() < 1e-12
        assert np.abs(traj.phase_diff_im - ph_im).max() < 1e-12
        assert np.abs(traj.err - err).max() < 1e-12
        assert abs(np.vdot(psi, traj.final_state)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_err_within_1e_14_of_the_40_digit_sum(self):
        """A linear sweep's err at every node against oracles.step_error_sum
        of its steps, dphi = (E0 - E1) dt = -hypot(x, eps) dt at each
        midpoint: within 1e-14 absolute."""
        cfg = cfg_for(Strategy.LIN, 1.0006, 1e-3)
        tmid = (np.arange(cfg.n_steps) + 0.5) * cfg.dt_eff
        x = cfg.x_i + (cfg.x_f - cfg.x_i) * tmid / cfg.T
        dphi = -np.hypot(x, cfg.eps)[:, None] * cfg.dt_eff
        ref = step_error_sum(dphi, cfg.dt_eff / cfg.T)[:, 0]
        assert np.abs(evolve_lz(cfg).err - ref).max() < 1e-14


class TestAdiabaticError:
    def test_zero_phase_grows_linearly(self):
        """phi = 0 means eps(lambda) = lambda, so eps(1) = 1."""
        lam = np.linspace(0, 1, 10001)
        e = np.full_like(lam, 0.3)
        err = adiabatic_error(lam, e, e, 7.0)
        assert np.allclose(err, lam, atol=1e-12)
        assert abs(err[-1] - 1.0) <= 1e-9

    def test_full_period_phase_cancels(self):
        """phi(lambda) = 2 pi m lambda integrates to ~0."""
        lam = np.linspace(0, 1, 20001)
        m = 3
        e0 = np.zeros_like(lam)
        e1 = np.full_like(lam, -2 * np.pi * m)  # T=1: phi = 2 pi m lambda
        err = adiabatic_error(lam, e0, e1, 1.0)
        assert err[-1] < 1e-4

    def test_pi_pulse_train_cancels(self):
        """Pi phase jumps at the midpoint grid drive eps(1) to ~0."""
        n_pulses, npts = 8, 80001
        lam = np.linspace(0, 1, npts)
        dlam = lam[1] - lam[0]
        diff = np.zeros_like(lam)
        for j in range(1, n_pulses + 1):
            idx = int(round((2 * j - 1) / (2 * n_pulses) / dlam))
            diff[idx] = -np.pi / dlam  # trapezoid weight dlam -> phase jump -pi
        err = adiabatic_error(lam, diff, np.zeros_like(lam), 1.0)
        assert err[-1] < 1e-3

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            adiabatic_error(np.array([0.0, 0.5, 0.2]), np.zeros(3), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            adiabatic_error(np.array([0.0, 1.0]), np.zeros(3), np.zeros(3), 1.0)


class TestGeodesicExact:
    """evolve_lz's geodesic against the closed form of
    oracles.lz_geodesic_final_state, global phase included."""

    @staticmethod
    def final_state_error(T, dt):
        th = math.atan2(-10.0, 0.1)
        psi0 = np.array([-math.sin(th / 2), math.cos(th / 2)], dtype=complex)
        exact = lz_geodesic_final_state(-10.0, 10.0, 0.1, T, psi0)
        return np.linalg.norm(evolve_lz(cfg_for(Strategy.GEO, T, dt)).final_state - exact)

    def test_final_state_matches_the_closed_form(self):
        """eps = 0.1, x -10 -> 10, T = 1, dt = 1e-3: |dpsi| = 1.548e-7."""
        assert self.final_state_error(1.0, 1e-3) < 2e-7

    @pytest.mark.parametrize("T", [1.0, 10.0])
    def test_midpoint_error_is_second_order(self, T):
        """Each tenfold cut of dt, 1e-2 -> 1e-3 -> 1e-4, cuts |dpsi| a
        hundredfold: observed order 2.0000."""
        errs = [self.final_state_error(T, dt) for dt in (1e-2, 1e-3, 1e-4)]
        orders = np.log10(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.05), orders


class TestLinearExact:
    """evolve_lz's linear sweep against oracles.exact_linear_U, global phase
    included: H = (x X + eps Z)/2 is, after a Hadamard basis change,
    -2 (z Z + x' X) with z = -x/4 and x' = -eps/4."""

    @staticmethod
    def final_state_error(T, dt):
        th = math.atan2(-10.0, 0.1)
        psi0 = np.array([-math.sin(th / 2), math.cos(th / 2)], dtype=complex)
        exact = HADAMARD @ exact_linear_U(2.5, -2.5, -0.025, T) @ HADAMARD @ psi0
        return np.linalg.norm(evolve_lz(cfg_for(Strategy.LIN, T, dt)).final_state - exact)

    def test_final_state_matches_the_exact_propagator(self):
        """eps = 0.1, x -10 -> 10, T = 100, dt = 1e-3: |dpsi| = 4.44e-9."""
        assert self.final_state_error(100.0, 1e-3) < 6e-9

    def test_midpoint_error_is_second_order(self):
        """T = 10: each tenfold cut of dt, 1e-2 -> 1e-3 -> 1e-4, cuts |dpsi|
        a hundredfold."""
        errs = [self.final_state_error(10.0, dt) for dt in (1e-2, 1e-3, 1e-4)]
        orders = np.log10(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.05), orders


class TestPeakMemory:
    @pytest.mark.parametrize("strategy", [Strategy.LIN, Strategy.GEO])
    def test_continuous_sweep_traces_under_17_5_mib(self, strategy):
        """The lz-trajectory run, 250 750 steps (T=100.3, dt=4e-4): the
        continuous drives sample each chunk's (a, d) from the rows' lam, so
        what stays is the rows' lam and the six node columns (2 MB each),
        not a dense (a, d) of every step (19.9 MiB traced with one)."""
        cfg = cfg_for(strategy, 100.3, 4e-4)
        tracemalloc.start()
        try:
            evolve_lz(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 17.5 * 2**20
