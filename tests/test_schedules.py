"""Tests for control paths, kick trains, and the anisotropy metric."""

import math
from dataclasses import fields

import numpy as np
import pytest

from quenchsim.freefermion import (ChainConfig, Regime, _bloch_components, _mode_geodesic_angles,
                                   momentum_grid, run_chain)
from quenchsim.landau_zener import LZConfig, evolve_lz
from quenchsim.schedules import KickTrain, Strategy, kick_train, xy_geodesic_schedule

from oracles import fs_metric_gamma, fs_metric_h

FIELD_LINES = [(10.0, 0.0), (1.0, 1.1), (-3.0, 2.0)]


def ising(h_i, h_f, T, dt=1e-3, **kw):
    return ChainConfig(4, Regime.ISING, 1.0, 1.0, h_i, h_f, T, dt, **kw)


def kicked(n_kicks, width, T=1.0):
    """An Ising run of total time T driven by n_kicks pulses of the width."""
    return ising(10.0, 0.0, T, strategy=Strategy.GEO_JUMP, kicks=kick_train(n_kicks, width))


def mode_geodesic(regime, gamma, h):
    """A run on per-mode geodesics from (gamma[0], h[0]) to (gamma[1], h[1])."""
    return ChainConfig(4, regime, *gamma, *h, 1.0, 1e-3, strategy=Strategy.GEO,
                       collective_geodesic=False)


def mode_params(cfg, k, frac):
    """(gamma, h) arrays that the chain engine's sampler puts on mode k at
    the scaled times frac: H_k = -2 (a Z + d X), a = h - cos k, d = gamma sin k."""
    a, d = _bloch_components(cfg, np.array([k]))(np.atleast_1d(np.asarray(frac, dtype=float)))
    return d[:, 0] / math.sin(k), a[:, 0] + math.cos(k)


def mode_angles(ks, varies_h, p_i, p_f, h):
    """The per-mode geodesic endpoints (theta_i, theta_f) at the momenta ks
    of a run from control p_i to p_f: h on the Ising line, else gamma at
    fixed h (the gapless line at h = 1)."""
    regime = Regime.ISING if varies_h else Regime.GAPLESS if h == 1.0 else Regime.ANISOTROPY
    gamma, hs = ((1.0, 1.0), (p_i, p_f)) if varies_h else ((p_i, p_f), (h, h))
    return _mode_geodesic_angles(mode_geodesic(regime, gamma, hs), np.asarray(ks, dtype=float))


def lz_field(x_i, x_f, eps, frac):
    """Sweep field x = eps tan(theta) on the geodesic at the scaled times frac."""
    th_i, th_f = xy_geodesic_schedule(x_i, x_f, eps)
    return eps * np.tan(th_i + (th_f - th_i) * np.asarray(frac, dtype=float))


class TestLinearSchedule:
    """The linear ramp, as the engine's sampler puts it on a mode (k = 1),
    at scaled time t/T."""

    def test_midpoint(self):
        assert mode_params(ising(10.0, 0.0, 1.0), 1.0, 0.5)[1][0] == pytest.approx(5.0)

    def test_endpoint(self):
        cfg = ising(-10.0, 10.0, 3.0)
        assert mode_params(cfg, 1.0, 3.0 / 3.0)[1][0] == pytest.approx(10.0)
        assert mode_params(cfg, 1.0, 0.0)[1][0] == pytest.approx(-10.0)

    def test_affine(self):
        cfg = ChainConfig(4, Regime.ANISOTROPY, -1.0, 2.0, 0.5, 0.5, 2.0, 1e-3)
        gamma = lambda t: mode_params(cfg, 1.0, t / 2.0)[0][0]
        assert gamma(0.3 * 2.0) + gamma(0.7 * 2.0) == pytest.approx(-1.0 + 2.0)

    def test_rejects_nonpositive_T(self):
        with pytest.raises(ValueError):
            ising(0.0, 1.0, 0.0)


class TestLZGeodesicSchedule:
    """The two-level sweep's geodesic, x = eps tan(theta): evolve_lz takes
    its endpoints from xy_geodesic_schedule(x_i, x_f, eps)."""

    def test_theta_endpoint_value(self):
        """theta_i = arctan(-100) for x_i=-10, eps=0.1."""
        th_i, _ = xy_geodesic_schedule(-10.0, 10.0, 0.1)
        assert th_i == pytest.approx(math.atan(-100.0), abs=1e-15)
        assert th_i == pytest.approx(-1.5607966601082315, abs=1e-12)

    def test_antisymmetric_endpoints_cross_zero(self):
        """x_i = -x_f puts the effective field at zero at T/2."""
        T = 2.0
        x = lambda t: lz_field(-10.0, 10.0, 0.1, t / T)
        assert x(1.0) == pytest.approx(0.0, abs=1e-9)
        assert x(0.0) == pytest.approx(-10.0, abs=1e-9)
        assert x(2.0) == pytest.approx(10.0, abs=1e-9)

    def test_constant_path_when_endpoints_match(self):
        t = np.linspace(0, 1, 11)
        assert np.allclose(lz_field(3.0, 3.0, 0.1, t), 3.0)

    def test_rejects_zero_eps(self):
        """Both geodesic strategies need eps != 0, where theta is defined;
        the linear sweep does not."""
        for strategy, kicks in ((Strategy.GEO, None), (Strategy.GEO_JUMP, kick_train(3, 1e-3))):
            with pytest.raises(ValueError, match="^geodesic strategies require eps != 0$"):
                LZConfig(0.0, -1.0, 1.0, 1.0, 1e-3, strategy=strategy, kicks=kicks)
        LZConfig(0.0, -1.0, 1.0, 1.0, 1e-3)

    def test_negative_eps_takes_the_short_arc(self):
        """At eps < 0 the endpoints atan2(-+10, -0.1) = -+1.5808 lie more
        than pi apart; the path takes the short arc through theta = -pi
        (x = 0), so x(t) runs monotonically from -10 to 10 and crosses no
        tan pole."""
        th_i, th_f = xy_geodesic_schedule(-10.0, 10.0, -0.1)
        assert abs(th_f - th_i) <= math.pi
        x = lz_field(-10.0, 10.0, -0.1, np.linspace(0.0, 1.0, 10001))
        assert np.all(np.diff(x) > 0)
        assert x[0] == pytest.approx(-10.0, abs=1e-9)
        assert x[-1] == pytest.approx(10.0, abs=1e-9)
        assert lz_field(-10.0, 10.0, -0.1, 0.5) == pytest.approx(0.0, abs=1e-9)


class TestXYGeodesicSchedule:
    def test_vary_gamma_symmetric_endpoints(self):
        """theta_i = -pi/4, theta_f = +pi/4 gives gamma = 0 at T/2."""
        # k=pi/2, h fixed so a = -cos(k) + h = 0.5 - 0 = 0.5; gamma = +-0.5 -> theta = atan2(+-0.5, 0.5)
        th_i, th_f = mode_angles([np.pi / 2], False, -0.5, 0.5, 0.5)
        assert th_i[0] == pytest.approx(-np.pi / 4)
        assert th_f[0] == pytest.approx(np.pi / 4)
        cfg = mode_geodesic(Regime.ANISOTROPY, (-0.5, 0.5), (0.5, 0.5))
        assert mode_params(cfg, np.pi / 2, 0.5)[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_vary_gamma_endpoints_against_atan2(self):
        """k=pi/2, h=0.5, gamma -1 -> 1: endpoints from direct evaluation."""
        th_i, th_f = mode_angles([np.pi / 2], False, -1.0, 1.0, 0.5)
        assert th_i[0] == pytest.approx(math.atan2(-1.0, 0.5))
        assert th_f[0] == pytest.approx(math.atan2(1.0, 0.5))
        cfg = mode_geodesic(Regime.ANISOTROPY, (-1.0, 1.0), (0.5, 0.5))
        gamma, _ = mode_params(cfg, np.pi / 2, [0.0, 1.0])
        assert gamma[0] == pytest.approx(-1.0, abs=1e-9)
        assert gamma[1] == pytest.approx(1.0, abs=1e-9)

    def test_vary_h_tan_relation(self):
        """k=pi/2, h_i=10 gives tan(theta_i) = 10."""
        th_i, _ = mode_angles([np.pi / 2], True, 10.0, 0.0, 1.0)
        assert math.tan(th_i[0]) == pytest.approx(10.0)
        _, h = mode_params(ising(10.0, 0.0, 1.0, strategy=Strategy.GEO, collective_geodesic=False),
                           np.pi / 2, [0.0, 1.0])
        assert h[0] == pytest.approx(10.0, abs=1e-9)
        assert h[1] == pytest.approx(0.0, abs=1e-9)

    def test_short_arc_when_diagonal_negative(self):
        """With a < 0 the path wraps through pi, keeping gamma(t) bounded."""
        k = np.pi / 5  # cos k ~ 0.81 > h = 0.5 -> a < 0
        cfg = mode_geodesic(Regime.ANISOTROPY, (-1.0, 1.0), (0.5, 0.5))
        vals, _ = mode_params(cfg, k, np.linspace(0, 1, 201))
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() <= 1.0 + 1e-9
        assert mode_params(cfg, k, 0.5)[0][0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("h,gamma_i,gamma_f", [
        (0.5, -1.0, 1.0), (-0.3, 0.2, 1.5), (1.0, -1.0, 1.0),
    ], ids=["anisotropy", "anisotropy-negative-h", "gapless"])
    def test_short_arcs_end_on_the_final_mixing_angle(self, h, gamma_i, gamma_f):
        """Where the endpoints lie at most pi apart, theta_f is math.atan2 of
        the final (d, a) bit for bit: the wrap touches only long arcs."""
        ks = momentum_grid(250)
        s, c = np.sin(ks), np.cos(ks)
        th_i, th_f = mode_angles(ks, False, gamma_i, gamma_f, h)
        want_i = np.array([math.atan2(gamma_i * sk, h - ck) for sk, ck in zip(s, c)])
        want_f = np.array([math.atan2(gamma_f * sk, h - ck) for sk, ck in zip(s, c)])
        short = np.abs(want_f - want_i) <= math.pi
        assert np.count_nonzero(short) >= len(ks) // 2
        assert th_f[short].tobytes() == want_f[short].tobytes()
        assert th_i.tobytes() == want_i.tobytes()

    @pytest.mark.parametrize("h_i,h_f", FIELD_LINES)
    def test_field_line_angles_are_atan2(self, h_i, h_f):
        """On the field line both endpoints are math.atan2(h - cos k, sin k)
        bit for bit: with sin k > 0 they lie in (-pi/2, pi/2), so the short
        arc never moves theta_f."""
        ks = momentum_grid(250)
        s, c = np.sin(ks), np.cos(ks)
        th_i, th_f = mode_angles(ks, True, h_i, h_f, 1.0)
        want_i = np.array([math.atan2(h_i - ck, sk) for sk, ck in zip(s, c)])
        want_f = np.array([math.atan2(h_f - ck, sk) for sk, ck in zip(s, c)])
        assert th_i.tobytes() == want_i.tobytes()
        assert th_f.tobytes() == want_f.tobytes()

    @pytest.mark.parametrize("regime,gamma,h", [
        (Regime.ISING, (1.0, 1.0), (10.0, 0.0)), (Regime.ISING, (1.0, 1.0), (-0.5, 3.0)),
        (Regime.ANISOTROPY, (-1.0, 1.0), (0.5, 0.5)),
        (Regime.ANISOTROPY, (0.2, 1.5), (-0.3, -0.3)),
        (Regime.GAPLESS, (-1.0, 1.0), (1.0, 1.0)),
    ])
    @pytest.mark.parametrize("strategy", [Strategy.GEO, Strategy.GEO_JUMP])
    def test_sampler_holds_the_generators_fixed_component(self, regime, gamma, h, strategy):
        """On every line the per-mode geodesic's fixed component, d on the
        Ising line and a on the gamma lines, is cfg.generator's at both ends,
        bit for bit, at every sampled time."""
        kicks = kick_train(3, 1e-3) if strategy is Strategy.GEO_JUMP else None
        cfg = ChainConfig(66, regime, *gamma, *h, 1.0, 1e-3, strategy=strategy, kicks=kicks,
                          collective_geodesic=False)
        ks = momentum_grid(66)
        a, d = _bloch_components(cfg, ks)(np.linspace(0.0, 1.0, 7))
        fixed = d if cfg.varies_h else a
        for p in cfg.control:
            want = cfg.generator(p, np.sin(ks), np.cos(ks))[1 if cfg.varies_h else 0]
            assert all(row.tobytes() == want.tobytes() for row in fixed)

    def test_theta_monotone(self):
        """The sampled field-line angle atan2(a, sin k) falls at every step."""
        cfg = ising(10.0, 0.0, 1.0, strategy=Strategy.GEO, collective_geodesic=False)
        _, h = mode_params(cfg, 1.0, np.linspace(0, 1, 50))
        th = np.arctan2(h - math.cos(1.0), math.sin(1.0))
        assert np.all(np.diff(th) < 0)

    def test_rejects_h_equal_cos_k(self):
        """A per-mode geodesic at h = cos(pi/4), a mode of N = 4, holds a = 0."""
        h = float(np.cos(momentum_grid(4)[0]))
        with pytest.raises(ValueError, match=r"^h = cos\(k\) = "):
            mode_geodesic(Regime.ANISOTROPY, (-1.0, 1.0), (h, h))


class TestGeodesicConstancy:
    """The Fubini-Study speed g (dp/dt)^2 of the varying control p is
    constant along every mode geodesic the chain engine samples."""

    @staticmethod
    def speeds(cfg, k, metric, ts, eps=1e-7):
        # T = 1: t is also the scaled time
        p = lambda t: mode_params(cfg, k, t)[1 if cfg.varies_h else 0]
        dpdt = (p(ts + eps) - p(ts - eps)) / (2 * eps)
        gamma, h = mode_params(cfg, k, ts)
        return np.array([metric(k, g, hh) for g, hh in zip(gamma, h)]) * dpdt**2

    def test_metric_speed_constant_along_path(self):
        """g * (dgamma/dt)^2 is constant along a mode geodesic to 1e-6 rel."""
        cfg = mode_geodesic(Regime.ANISOTROPY, (-1.0, 1.0), (0.5, 0.5))
        speeds = self.speeds(cfg, np.pi / 2, fs_metric_gamma, np.linspace(0.05, 0.95, 19))
        assert np.ptp(speeds) / speeds.mean() < 1e-6

    @pytest.mark.parametrize("h_i,h_f", FIELD_LINES)
    @pytest.mark.parametrize("k", [0.3, np.pi / 2, 2.5])
    def test_field_line_speed_constant(self, k, h_i, h_f):
        """g_h * (dh/dt)^2 is constant along the Ising per-mode geodesic,
        the path that kicks sample, to 1e-6 rel."""
        cfg = ising(h_i, h_f, 1.0, strategy=Strategy.GEO, collective_geodesic=False)
        speeds = self.speeds(cfg, k, fs_metric_h, np.linspace(0.05, 0.95, 19))
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

    @pytest.mark.parametrize("T", [1.0, 1.0006])
    @pytest.mark.parametrize("config", [ChainConfig, LZConfig], ids=lambda c: c.__name__)
    def test_continuous_drive_samples_every_step_at_its_midpoint(self, config, T):
        """One row per step, at its midpoint, for the span dt_eff: at T/dt =
        1000 and at 1000.6, which rounds up."""
        dt = 1e-3
        n_steps = round(T / dt)
        dt_eff = T / n_steps
        idx, lam, area = config(**_RUN_BASE[config], T=T, dt=dt).layout()
        assert idx is None
        assert area == dt_eff
        assert lam.tobytes() == ((np.arange(n_steps) + 0.5) * dt_eff / T).tobytes()

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
        (dict(dt=1e-300), "T=1.0 and dt=1e-300 give 1e+300 steps, more than an array can index"),
    ], ids=["nan-T", "zero-T", "negative-T", "zero-dt", "negative-dt", "overflowing-step-count",
            "kicks-on-lin", "geojump-without-kicks", "overlapping-pulses", "pulse-past-T",
            "two-kicks-in-one-step", "unindexable-step-count"])
    def test_bad_run_is_rejected_alike(self, config, run, message):
        with pytest.raises(ValueError) as exc:
            config(**_RUN_BASE[config], **{"T": 1.0, "dt": 1e-3, **run})
        assert str(exc.value) == message


_REGIME_LINES = {  # (gamma_i, gamma_f, h_i, h_f) of a run on each line
    Regime.ISING: (1.0, 1.0, 10.0, 0.0),
    Regime.ANISOTROPY: (-1.0, 1.0, 0.5, 0.5),
    Regime.GAPLESS: (-1.0, 1.0, 1.0, 1.0),
}
_CHAIN_PATHS = {
    "lin": dict(strategy=Strategy.LIN),
    "collective-geo": dict(strategy=Strategy.GEO),
    "per-mode-geo": dict(strategy=Strategy.GEO, collective_geodesic=False),
    "geojump-width-dt": dict(strategy=_JUMP, kicks=kick_train(3, 1e-3)),
    "geojump-finite-width": dict(strategy=_JUMP, kicks=kick_train(3, 0.05)),
}
_LZ_PATHS = {
    "lin": dict(strategy=Strategy.LIN),
    "geo": dict(strategy=Strategy.GEO),
    "geojump": dict(strategy=_JUMP, kicks=kick_train(3, 1e-3)),
}


def _as_strings(run: dict) -> dict:
    """run with each enum value replaced by its string."""
    return {key: getattr(value, "value", value) for key, value in run.items()}


class TestStringInputs:
    """A config takes a strategy or regime as its enum or as the enum's
    string: it converts the string, so both run on the same path."""

    @pytest.mark.parametrize("path", _CHAIN_PATHS.values(), ids=_CHAIN_PATHS.keys())
    @pytest.mark.parametrize("regime", _REGIME_LINES, ids=lambda r: r.value)
    def test_chain_runs_bitwise_like_the_enum_config(self, regime, path):
        run = dict(zip(("gamma_i", "gamma_f", "h_i", "h_f"), _REGIME_LINES[regime]),
                   n_spins=8, regime=regime, T=1.0, dt=1e-3, **path)
        by_string, by_enum = ChainConfig(**_as_strings(run)), ChainConfig(**run)
        assert by_string.strategy is path["strategy"] and by_string.regime is regime
        assert by_string == by_enum
        (res_s, err_s), (res_e, err_e) = (run_chain(c, track_err=True)
                                          for c in (by_string, by_enum))
        assert res_s.pk.tobytes() == res_e.pk.tobytes()
        assert repr(res_s.n_defect) == repr(res_e.n_defect)
        assert err_s.tobytes() == err_e.tobytes()

    @pytest.mark.parametrize("path", _LZ_PATHS.values(), ids=_LZ_PATHS.keys())
    def test_lz_runs_bitwise_like_the_enum_config(self, path):
        run = dict(**_RUN_BASE[LZConfig], T=1.0, dt=1e-3, **path)
        by_string, by_enum = LZConfig(**_as_strings(run)), LZConfig(**run)
        assert by_string.strategy is path["strategy"]
        assert by_string == by_enum
        traj_s, traj_e = evolve_lz(by_string), evolve_lz(by_enum)
        for f in fields(traj_e):
            assert getattr(traj_s, f.name).tobytes() == getattr(traj_e, f.name).tobytes(), f.name

    @pytest.mark.parametrize("config,field", [(ChainConfig, "strategy"), (ChainConfig, "regime"),
                                              (LZConfig, "strategy")])
    def test_unknown_value_is_rejected_by_name(self, config, field):
        with pytest.raises(ValueError, match="'bogus'"):
            config(**{**_RUN_BASE[config], "T": 1.0, "dt": 1e-3, field: "bogus"})


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

    @pytest.mark.parametrize("build", [kick_train, KickTrain], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("n_kicks,delta_t,message", [
        (0, 0.1, "n_kicks must be a positive integer, got 0"),
        (2.5, 1e-3, "n_kicks must be a positive integer, got 2.5"),
        (math.nan, 1e-3, "n_kicks must be a positive integer, got nan"),
        (math.inf, 1e-3, "n_kicks must be a positive integer, got inf"),
        (2, 0.0, "pulse width must be positive and finite, got delta_t=0.0"),
        (2, -1e-3, "pulse width must be positive and finite, got delta_t=-0.001"),
        (2, math.nan, "pulse width must be positive and finite, got delta_t=nan"),
        (2, math.inf, "pulse width must be positive and finite, got delta_t=inf"),
    ], ids=["zero-count", "fractional-count", "nan-count", "inf-count", "zero-width",
            "negative-width", "nan-width", "inf-width"])
    def test_rejects_bad_counts_and_widths(self, build, n_kicks, delta_t, message):
        """Built directly or through kick_train, a train is checked alike
        (and with no RuntimeWarning, which the suite raises as an error)."""
        with pytest.raises(ValueError) as exc:
            build(n_kicks, delta_t)
        assert str(exc.value) == message

    @pytest.mark.parametrize("config", [ChainConfig, LZConfig], ids=lambda c: c.__name__)
    def test_a_train_without_kicks_fails_before_the_run(self, config):
        """A zero-kick train used to reach the run and fail there with IndexError."""
        with pytest.raises(ValueError, match="n_kicks must be a positive integer, got 0"):
            config(**_RUN_BASE[config], T=1.0, dt=1e-3, strategy=_JUMP,
                   kicks=KickTrain(0, 1e-3))

    @pytest.mark.parametrize("build", [kick_train, KickTrain], ids=lambda b: b.__name__)
    def test_holds_an_int_count_and_a_float_width(self, build):
        kt = build(2.0, 1)
        assert type(kt.n_kicks) is int and kt.n_kicks == 2
        assert type(kt.delta_t) is float and kt.delta_t == 1.0


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
