"""Scaling analysis: the log-log power-law fit of defect density on rate.

Conventions: quench rate nu = 1/T, quench time tau_Q = T.  All fitting
operations return the slope of log(n) against log(nu); for data obeying
n ~ tau_Q^(-alpha) that slope is +alpha, the positive decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law n = exp(intercept) * rate**exponent."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def fit_power_law(points, window: tuple[float, float]) -> ScalingFit:
    """Ordinary least squares of log(n) on log(rate) over points strictly
    inside the window.

    points: iterable of (rate, n) pairs, all positive and finite.  Input
    order does not affect the result (points are sorted before fitting).
    """
    pts = sorted((float(r), float(n)) for r, n in points)
    bad = [pt for pt in pts if not all(0 < v < math.inf for v in pt)]
    if bad:
        raise ValueError(f"rates and defect densities must be positive and finite "
                         f"for a log-log fit, got {bad[0]}")
    lo, hi = float(window[0]), float(window[1])
    sel = [(r, n) for r, n in pts if lo < r < hi]
    if len(sel) < 3:
        raise ValueError(f"need at least 3 points strictly inside {window}, got {len(sel)}")
    rates = np.array([r for r, _ in sel])
    ns = np.array([n for _, n in sel])
    lx, ly = np.log(rates), np.log(ns)
    xbar, ybar = lx.mean(), ly.mean()
    sxx = np.sum((lx - xbar) ** 2)
    if sxx == 0:
        raise ValueError("all in-window rates coincide")
    slope = np.sum((lx - xbar) * (ly - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = ly - (intercept + slope * lx)
    ss_tot = np.sum((ly - ybar) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2) / ss_tot)
    return ScalingFit(float(slope), float(intercept), r2, (lo, hi))
