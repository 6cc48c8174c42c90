"""Tests for log-log fitting, and for the exponent formula and the kick
closed form that the acceptance suite takes from tests/oracles.py."""

import math
import random

import numpy as np
import pytest

from quenchsim.analysis import fit_power_law
from quenchsim.freefermion import momentum_grid

from oracles import kick_pk, kick_pk_leading_order, kz_exponent


class TestKZExponent:
    def test_linear_ramp_row(self):
        """nu=z=r=1, d=1, p=0 gives the 1/2 decay of a linear quench."""
        assert kz_exponent(1.0, 1.0, 1.0, 1, 0) == pytest.approx(0.5)

    def test_geodesic_ramp_row(self):
        """r=2 gives 2/3."""
        assert kz_exponent(1.0, 1.0, 2.0, 1, 0) == pytest.approx(2.0 / 3.0)

    def test_no_defect_dimension_deficit(self):
        assert kz_exponent(1.0, 1.0, 1.0, 1, 1) == 0.0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            kz_exponent(1.0, 1.0, 1.0, 0, 1)
        with pytest.raises(ValueError):
            kz_exponent(1.0, 1.0, 1.0, 1, -1)

    def test_rejects_degenerate_denominator(self):
        with pytest.raises(ValueError):
            kz_exponent(1.0, -1.0, 1.0, 1, 0)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        """n = 3 nu^0.5 is recovered exactly."""
        rates = np.logspace(-3, 0, 12)
        pts = [(r, 3.0 * r**0.5) for r in rates]
        fit = fit_power_law(pts, (1e-4, 10.0))
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared > 1 - 1e-12

    def test_constant_data(self):
        pts = [(r, 2.0) for r in np.logspace(-2, 0, 8)]
        fit = fit_power_law(pts, (1e-3, 10.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_power_law(self):
        """Small multiplicative ripple moves the slope by less than 0.02."""
        rates = np.logspace(-3, 0, 30)
        pts = [(r, r**0.5 * (1 + 0.01 * math.sin(math.log(r)))) for r in rates]
        fit = fit_power_law(pts, (1e-4, 10.0))
        assert fit.exponent == pytest.approx(0.5, abs=0.02)

    def test_permutation_invariance_is_bitwise(self):
        rates = np.logspace(-2, 0, 15)
        pts = [(r, 2.0 * r**0.63 * (1 + 0.05 * math.cos(r))) for r in rates]
        fit1 = fit_power_law(pts, (1e-3, 2.0))
        shuffled = pts[:]
        random.Random(99).shuffle(shuffled)
        fit2 = fit_power_law(shuffled, (1e-3, 2.0))
        assert fit1 == fit2

    def test_window_is_strict(self):
        pts = [(0.1, 9.0), (0.2, 1.0), (0.3, 1.0), (0.5, 1.0), (1.0, 5.0)]
        fit = fit_power_law(pts, (0.1, 1.0))  # endpoints excluded
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            fit_power_law(pts[:4], (0.1, 0.25))  # only 1 point remains

    def test_rejects_nonpositive_values(self):
        """Non-positive and non-finite values fail; a NaN rate must not
        drop out of the window unnoticed."""
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                fit_power_law([(0.1, 1.0), (0.2, bad), (0.3, 1.0)], (0.01, 1.0))
        with pytest.raises(ValueError):
            fit_power_law([(math.nan, 1.0), (0.1, 1.0), (0.2, 2.0), (0.3, 3.0)], (0.01, 1.0))


class TestKickLeadingOrder:
    @staticmethod
    def _rel_dev(nk, h_i, h_f):
        """Relative defect-density deviation from the ordered SU(2) kick
        product on the per-mode field geodesic, N = 64."""
        ks = momentum_grid(64)
        lam = (2 * np.arange(1, nk + 1) - 1) / (2 * nk)
        pk = []
        for k in ks:
            th_i = math.atan2(h_i - math.cos(k), math.sin(k))
            th_f = math.atan2(h_f - math.cos(k), math.sin(k))
            pk.append(kick_pk(k, th_i + (th_f - th_i) * lam, 1.0, h_i, h_f))
        exact = np.mean(pk)
        return abs(np.mean(kick_pk_leading_order(ks, 1.0, h_i, h_f, nk)) - exact) / exact

    def test_zero_sweep_leaves_the_ground_state(self):
        ks = momentum_grid(16)
        assert np.all(kick_pk_leading_order(ks, 1.0, 1.5, 1.5, 7) < 1e-28)

    def test_single_kick_by_hand(self):
        """One kick: p = |dbeta_1 + dbeta_2 e^{2 i alpha}|^2 / 4."""
        k, gamma, h_i, h_f = 0.7, 1.0, 1.0, 1.3
        s, c = math.sin(k), math.cos(k)
        th = 0.5 * (math.atan2(h_i - c, s) + math.atan2(h_f - c, s))
        h_1 = c + s * math.tan(th)
        b0, b1, b2 = (math.atan2(gamma * s, h - c) for h in (h_i, h_1, h_f))
        alpha = math.pi * math.hypot(h_1 - c, gamma * s)
        want = abs((b1 - b0) + (b2 - b1) * np.exp(2j * alpha)) ** 2 / 4
        got = kick_pk_leading_order(np.array([k]), gamma, h_i, h_f, 1)
        assert got[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("h_i, h_f", [(10.0, 10.1), (2.0, 2.01)])
    def test_matches_exact_product_for_small_angle_steps(self, h_i, h_f):
        """Far from h = 1 the per-kick angle steps are tiny and the closed
        form agrees with the ordered SU(2) product to 1e-6 relative."""
        assert self._rel_dev(200, h_i, h_f) < 1e-6

    @pytest.mark.parametrize("ks, nk", [(np.array([0.0, 1.0]), 3), (np.array([1.0, np.pi]), 3),
                                        (np.array([1.0]), 0), (np.array([1.0]), 2.5)])
    def test_rejects_bad_input(self, ks, nk):
        with pytest.raises(ValueError):
            kick_pk_leading_order(ks, 1.0, 1.0, 1.1, nk)
