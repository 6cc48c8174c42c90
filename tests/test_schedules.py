"""Tests for control paths, kick trains, and the anisotropy metric."""

import math

import numpy as np
import pytest

from quenchsim.freefermion import ChainConfig, Regime, momentum_grid
from quenchsim.landau_zener import LZConfig
from quenchsim.schedules import (
    Control,
    Strategy,
    _xy_geodesic_angles,
    kick_train,
    lz_geodesic_schedule,
    xy_geodesic_schedule,
)

from oracles import fs_metric_gamma


def ising(h_i, h_f, T, dt=1e-3, **kw):
    return ChainConfig(4, Regime.ISING, 1.0, 1.0, h_i, h_f, T, dt, **kw)


def kicked(n_kicks, width, T=1.0):
    """An Ising run of total time T driven by n_kicks pulses of the width."""
    return ising(10.0, 0.0, T, strategy=Strategy.GEO_JUMP, kicks=kick_train(n_kicks, width))


class TestLinearSchedule:
    """The linear ramp is ChainConfig.params_at, at scaled time t/T."""

    def test_midpoint(self):
        assert ising(10.0, 0.0, 1.0).params_at(0.5)[1] == pytest.approx(5.0)

    def test_endpoint(self):
        cfg = ising(-10.0, 10.0, 3.0)
        assert cfg.params_at(3.0 / 3.0)[1] == pytest.approx(10.0)
        assert cfg.params_at(0.0)[1] == pytest.approx(-10.0)

    def test_affine(self):
        cfg = ChainConfig(4, Regime.ANISOTROPY, -1.0, 2.0, 0.5, 0.5, 2.0, 1e-3)
        gamma = lambda t: cfg.params_at(t / 2.0)[0]
        assert gamma(0.3 * 2.0) + gamma(0.7 * 2.0) == pytest.approx(-1.0 + 2.0)

    def test_rejects_nonpositive_T(self):
        with pytest.raises(ValueError):
            ising(0.0, 1.0, 0.0)


class TestLZGeodesicSchedule:
    def test_theta_endpoint_value(self):
        """theta_i = arctan(-100) for x_i=-10, eps=0.1."""
        s = lz_geodesic_schedule(-10.0, 10.0, 0.1)
        assert s.theta_i == pytest.approx(math.atan(-100.0), abs=1e-15)
        assert s.theta_i == pytest.approx(-1.5607966601082315, abs=1e-12)

    def test_antisymmetric_endpoints_cross_zero(self):
        """x_i = -x_f puts the effective field at zero at T/2."""
        T = 2.0
        s = lz_geodesic_schedule(-10.0, 10.0, 0.1)
        assert s.value(1.0 / T) == pytest.approx(0.0, abs=1e-9)
        assert s.value(0.0 / T) == pytest.approx(-10.0, abs=1e-9)
        assert s.value(2.0 / T) == pytest.approx(10.0, abs=1e-9)

    def test_constant_path_when_endpoints_match(self):
        s = lz_geodesic_schedule(3.0, 3.0, 0.1)
        t = np.linspace(0, 1, 11)
        assert np.allclose(s.value(t), 3.0)

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            lz_geodesic_schedule(-1.0, 1.0, 0.0)

    def test_negative_eps_takes_the_short_arc(self):
        """At eps < 0 the endpoints atan2(-+10, -0.1) = -+1.5808 lie more
        than pi apart; the path takes the short arc through theta = -pi
        (x = 0), so x(t) runs monotonically from -10 to 10 and crosses no
        tan pole."""
        s = lz_geodesic_schedule(-10.0, 10.0, -0.1)
        assert abs(s.theta_f - s.theta_i) <= math.pi
        x = s.value(np.linspace(0.0, 1.0, 10001))
        assert np.all(np.diff(x) > 0)
        assert x[0] == pytest.approx(-10.0, abs=1e-9)
        assert x[-1] == pytest.approx(10.0, abs=1e-9)
        assert s.value(0.5) == pytest.approx(0.0, abs=1e-9)


class TestXYGeodesicSchedule:
    def test_vary_gamma_symmetric_endpoints(self):
        """theta_i = -pi/4, theta_f = +pi/4 gives gamma = 0 at T/2."""
        # k=pi/2, h fixed so a = -cos(k) + h = 0.5 - 0 = 0.5; gamma = +-0.5 -> theta = atan2(+-0.5, 0.5)
        s = xy_geodesic_schedule(np.pi / 2, Control.ANISOTROPY, -0.5, 0.5, 0.5)
        assert s.theta_i == pytest.approx(-np.pi / 4)
        assert s.theta_f == pytest.approx(np.pi / 4)
        assert s.value(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_vary_gamma_endpoints_against_atan2(self):
        """k=pi/2, h=0.5, gamma -1 -> 1: endpoints from direct evaluation."""
        s = xy_geodesic_schedule(np.pi / 2, Control.ANISOTROPY, -1.0, 1.0, 0.5)
        assert s.theta_i == pytest.approx(math.atan2(-1.0, 0.5))
        assert s.theta_f == pytest.approx(math.atan2(1.0, 0.5))
        assert s.value(0.0) == pytest.approx(-1.0, abs=1e-9)
        assert s.value(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_vary_h_tan_relation(self):
        """k=pi/2, h_i=10 gives tan(theta_i) = 10."""
        s = xy_geodesic_schedule(np.pi / 2, Control.FIELD, 10.0, 0.0, 1.0)
        assert math.tan(s.theta_i) == pytest.approx(10.0)
        assert s.value(0.0) == pytest.approx(10.0, abs=1e-9)
        assert s.value(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_short_arc_when_diagonal_negative(self):
        """With a < 0 the path wraps through pi, keeping gamma(t) bounded."""
        k = np.pi / 5  # cos k ~ 0.81 > h = 0.5 -> a < 0
        s = xy_geodesic_schedule(k, Control.ANISOTROPY, -1.0, 1.0, 0.5)
        t = np.linspace(0, 1, 201)
        vals = s.value(t)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() <= 1.0 + 1e-9
        assert s.value(0.5) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("h,gamma_i,gamma_f", [
        (0.5, -1.0, 1.0), (-0.3, 0.2, 1.5), (1.0, -1.0, 1.0),
    ], ids=["anisotropy", "anisotropy-negative-h", "gapless"])
    def test_short_arcs_end_on_the_final_mixing_angle(self, h, gamma_i, gamma_f):
        """Where the endpoints lie at most pi apart, theta_f is math.atan2 of
        the final (d, a) bit for bit: the wrap touches only long arcs."""
        ks = momentum_grid(250)
        s, c = np.sin(ks), np.cos(ks)
        th_i, th_f = _xy_geodesic_angles(ks, Control.ANISOTROPY, gamma_i, gamma_f, h)
        want_i = np.array([math.atan2(gamma_i * sk, h - ck) for sk, ck in zip(s, c)])
        want_f = np.array([math.atan2(gamma_f * sk, h - ck) for sk, ck in zip(s, c)])
        short = np.abs(want_f - want_i) <= math.pi
        assert np.count_nonzero(short) >= len(ks) // 2
        assert th_f[short].tobytes() == want_f[short].tobytes()
        assert th_i.tobytes() == want_i.tobytes()

    def test_theta_monotone(self):
        s = xy_geodesic_schedule(1.0, Control.FIELD, 10.0, 0.0, 1.0)
        th = s.theta(np.linspace(0, 1, 50))
        assert np.all(np.diff(th) < 0)

    def test_rejects_k_at_zone_boundary(self):
        with pytest.raises(ValueError):
            xy_geodesic_schedule(0.0, Control.FIELD, 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            xy_geodesic_schedule(np.pi, Control.ANISOTROPY, -1.0, 1.0, 0.5)

    def test_rejects_h_equal_cos_k(self):
        with pytest.raises(ValueError):
            xy_geodesic_schedule(np.pi / 3, Control.ANISOTROPY, -1.0, 1.0, 0.5)


class TestGeodesicConstancy:
    def test_metric_speed_constant_along_path(self):
        """g * (dgamma/dt)^2 is constant along a mode geodesic to 1e-6 rel."""
        k, h = np.pi / 2, 0.5
        s = xy_geodesic_schedule(k, Control.ANISOTROPY, -1.0, 1.0, h)
        ts = np.linspace(0.05, 0.95, 19)
        eps = 1e-7
        speeds = []
        for t in ts:
            dgdt = (s.value(t + eps) - s.value(t - eps)) / (2 * eps)
            speeds.append(fs_metric_gamma(k, float(s.value(t)), h) * dgdt**2)
        speeds = np.array(speeds)
        assert np.ptp(speeds) / speeds.mean() < 1e-6


class TestLayout:
    def test_single_sample_kicks_carry_no_trace_of_T(self):
        """One entry per kick, sampled at (2j-1)/(2n), with area pi/2: the
        same bits at T = 1, at T = 0.50006, where T/dt rounds up, and at
        T = 0.7 and 10^-0.5, where kick_times / T misses (2j-1)/(2n) in the
        last place."""
        dt, n = 1e-3, 7
        lams = []
        for T in (1.0, 0.50006, 0.7, 10**-0.5):
            cfg = kicked(n, dt, T)
            n_steps = round(T / dt)
            idx, lam, area = cfg.layout()
            dt_eff = T / n_steps
            assert len(idx) == n and np.all(area == np.pi / 2)
            assert np.all(idx * dt_eff <= cfg.kick_times + 1e-9 * dt_eff)
            assert np.all(cfg.kick_times < (idx + 1) * dt_eff)
            lams.append(lam)
        want = ((2 * np.arange(1, n + 1) - 1) / (2 * n)).tobytes()
        assert all(lam.tobytes() == want for lam in lams)

    @pytest.mark.parametrize("T", [1.0, 1.0006])
    def test_finite_pulses_take_the_steps_whose_midpoints_they_hold(self, T):
        """Width 2.3 dt: the pulses end off the grid (and start off it at
        T = 1.0006), with no midpoint on an edge."""
        dt, width = 1e-3, 2.3e-3
        cfg = kicked(4, width, T)
        n_steps = round(T / dt)
        dt_eff = T / n_steps
        idx, lam, area = cfg.layout()
        mids = (np.arange(n_steps) + 0.5) * dt_eff
        want = [i for i, m in enumerate(mids)
                if any(t <= m < t + width for t in cfg.kick_times)]
        assert idx.tolist() == want
        assert np.array_equal(lam, mids[idx] / T)
        assert np.all(area == cfg.kicks.amplitude * dt_eff)

    def test_two_kicks_in_one_step_are_rejected(self):
        """200 kicks over T = 1 are 5e-3 apart: two fall in each 1e-2 step."""
        kt = kick_train(200, 0.001)
        with pytest.raises(ValueError, match=r"n_kicks=200.*delta_t=0\.001.*dt=0\.01"):
            ising(10.0, 0.0, 1.0, dt=0.01, strategy=Strategy.GEO_JUMP, kicks=kt)
        with pytest.raises(ValueError, match="two kicks in one step"):
            LZConfig(0.1, -10.0, 10.0, 1.0, 0.01, Strategy.GEO_JUMP, kt)


_RUN_BASE = {
    ChainConfig: dict(n_spins=8, regime=Regime.ISING, gamma_i=1.0, gamma_f=1.0,
                      h_i=10.0, h_f=0.0),
    LZConfig: dict(eps=0.1, x_i=-10.0, x_f=10.0),
}
_JUMP = Strategy.GEO_JUMP


class TestRunBase:
    """Both configs check the step grid, the strategy and the kicks in one
    place, schedules.Run, and so reject a bad run with the same message."""

    @pytest.mark.parametrize("config", [ChainConfig, LZConfig], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("run,message", [
        (dict(T=math.nan), "T must be finite, got nan"),
        (dict(T=0.0), "need T > 0 and dt > 0, got T=0.0, dt=0.001"),
        (dict(T=-1.0), "need T > 0 and dt > 0, got T=-1.0, dt=0.001"),
        (dict(dt=0.0), "need T > 0 and dt > 0, got T=1.0, dt=0.0"),
        (dict(dt=-1e-3), "need T > 0 and dt > 0, got T=1.0, dt=-0.001"),
        (dict(dt=1e-320), "dt=1e-320 is too small: T/dt overflows for T=1.0"),
        (dict(kicks=kick_train(3, 1e-3)), "kicks conflict with strategy lin"),
        (dict(strategy=_JUMP), "geojump strategy requires kicks >= 1"),
        (dict(strategy=_JUMP, kicks=kick_train(5, 0.3)),
         "pulses overlap: spacing T/n = 0.2 < delta_t = 0.3"),
        (dict(strategy=_JUMP, kicks=kick_train(1, 0.6)),
         "last pulse runs past T: t_n + delta_t = 1.1 > T = 1.0"),
        (dict(strategy=_JUMP, kicks=kick_train(200, 0.001), dt=0.01),
         "n_kicks=200 pulses of width delta_t=0.001 put two kicks in one step of dt=0.01"),
    ], ids=["nan-T", "zero-T", "negative-T", "zero-dt", "negative-dt", "overflowing-step-count",
            "kicks-on-lin", "geojump-without-kicks", "overlapping-pulses", "pulse-past-T",
            "two-kicks-in-one-step"])
    def test_bad_run_is_rejected_alike(self, config, run, message):
        with pytest.raises(ValueError) as exc:
            config(**_RUN_BASE[config], **{"T": 1.0, "dt": 1e-3, **run})
        assert str(exc.value) == message


class TestKickTrain:
    def test_single_kick_at_midpoint(self):
        assert kicked(1, 1e-3).kick_times == pytest.approx([0.5])

    def test_five_kicks(self):
        """n=5, T=1 puts kicks at 0.1, 0.3, 0.5, 0.7, 0.9."""
        assert np.allclose(kicked(5, 1e-3).kick_times, [0.1, 0.3, 0.5, 0.7, 0.9])

    def test_amplitude(self):
        kt = kick_train(3, 0.001)
        assert kt.amplitude == pytest.approx(np.pi / 0.002)
        assert kt.amplitude * kt.delta_t == pytest.approx(np.pi / 2)

    def test_times_symmetric_about_half(self):
        times = kicked(6, 1e-3, T=2.0).kick_times
        assert np.allclose(times + times[::-1], 2.0)

    def test_rejects_overlapping_pulses(self):
        with pytest.raises(ValueError):
            kicked(5, 0.3)

    def test_rejects_pulse_past_end(self):
        with pytest.raises(ValueError):
            kicked(1, 0.6)

    def test_boundary_pulse_allowed(self):
        cfg = kicked(5, 0.1)
        assert cfg.kick_times[-1] + cfg.kicks.delta_t == pytest.approx(1.0)

    def test_rejects_bad_counts_and_widths(self):
        with pytest.raises(ValueError):
            kick_train(0, 0.1)
        with pytest.raises(ValueError):
            kick_train(2, 0.0)


def dense_ground(k, gamma, h):
    """Independent oracle: ground state from the dense mode Hamiltonian."""
    a = h - np.cos(k)
    d = gamma * np.sin(k)
    m = -2.0 * np.array([[a, d], [d, -a]], dtype=complex)
    _, vecs = np.linalg.eigh(m)
    return vecs[:, 0]


class TestFSMetric:
    def test_reference_point(self):
        """k=pi/2, h=0.5, gamma=0: dtheta/dgamma = 2, so g = 1."""
        assert fs_metric_gamma(np.pi / 2, 0.0, 0.5) == pytest.approx(1.0)

    def test_vanishes_at_large_gamma(self):
        assert fs_metric_gamma(np.pi / 2, 1e6, 0.5) < 1e-12

    def test_matches_angle_finite_difference(self):
        """Central difference of theta(gamma), step 1e-6."""
        k, h, gamma, step = np.pi / 2, 0.5, 0.7, 1e-6
        a = h - np.cos(k)
        th = lambda g: math.atan2(g * np.sin(k), a)
        deriv = (th(gamma + step) - th(gamma - step)) / (2 * step)
        assert fs_metric_gamma(k, gamma, h) == pytest.approx(0.25 * deriv**2, rel=1e-8)

    def test_matches_overlap_finite_difference(self):
        """(1 - |<psi(g-dg/2)|psi(g+dg/2)>|^2)/dg^2 at 20 random points, to 1e-6."""
        rng = np.random.RandomState(41)
        step = 1e-4
        for _ in range(20):
            k = rng.uniform(0.2, np.pi - 0.2)
            gamma = rng.uniform(-2, 2)
            h = rng.uniform(-2, 2)
            if abs(h - np.cos(k)) < 0.05:
                continue
            v1 = dense_ground(k, gamma - step / 2, h)
            v2 = dense_ground(k, gamma + step / 2, h)
            ds2 = 1.0 - abs(np.vdot(v1, v2)) ** 2
            assert fs_metric_gamma(k, gamma, h) == pytest.approx(ds2 / step**2, abs=1e-6, rel=1e-5)

    def test_nonnegative(self):
        rng = np.random.RandomState(43)
        for _ in range(50):
            k = rng.uniform(0.1, np.pi - 0.1)
            gamma = rng.uniform(-3, 3)
            h = rng.uniform(-3, 3)
            if abs(h - np.cos(k)) < 1e-6:
                continue
            assert fs_metric_gamma(k, gamma, h) >= 0.0

    def test_rejects_h_equal_cos_k(self):
        with pytest.raises(ValueError):
            fs_metric_gamma(np.pi / 3, 1.0, np.cos(np.pi / 3))
