"""Scaling analysis: critical-exponent predictions, log-log fits and the
leading-order closed form of the kick product.

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


def kz_exponent(nu: float, z: float, r: float, d: int, p: int) -> float:
    """Defect-scaling decay exponent nu*r*(d - p) / (1 + r*z*nu) for a quench
    with ramp power r across a transition with correlation-length exponent nu,
    dynamical exponent z, spatial dimension d, and defect dimension p."""
    if not d >= p >= 0:
        raise ValueError(f"need d >= p >= 0, got d={d}, p={p}")
    denom = 1.0 + r * z * nu
    if denom == 0:
        raise ValueError("degenerate denominator 1 + r*z*nu = 0")
    return nu * r * (d - p) / denom


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


def kick_pk_leading_order(ks, gamma: float, h_i: float, h_f: float, n_kicks: int) -> np.ndarray:
    """Leading-order excitation probabilities of an n_kicks single-sample
    kick train on the Ising line, h_i -> h_f along the per-mode geodesic.

    Mode k has H_k = -2 (a Z + d X), a = h - cos k, d = gamma sin k, and
    ground state (cos(beta/2), sin(beta/2)) with beta = atan2(d, a).  Kick j
    sits at the field h_j with h_j - cos k = sin k tan(theta_j), theta_j
    affine in (2j-1)/(2 n_kicks) between the field-convention angles
    atan2(h - cos k, sin k) of h_i and h_f.  An area-pi/2 pulse is the
    rotation exp(i alpha_j n_j.sigma), alpha_j = pi E_k(theta_j),
    E_k = hypot(a, d): in the eigenbasis at kick j it multiplies the ground
    amplitude by e^{+i alpha_j} and the excited one by e^{-i alpha_j}.

    Between kicks only the basis turns, from beta_{j-1} to beta_j
    (beta_0 and beta_{n+1} are the initial and final angles), which moves
    amplitude -sin((beta_j - beta_{j-1})/2) from ground to excited.  To
    first order in these steps, and exactly in alpha_j, the excited
    amplitude at the end is, up to a common phase,

        -1/2 sum_{j=1}^{n+1} (beta_j - beta_{j-1}) e^{i Phi_j},
        Phi_j = 2 sum_{l<j} alpha_l,

    so p_k = 1/4 |sum_j (beta_j - beta_{j-1}) e^{i Phi_j}|^2.  The error is
    of the next order in the per-kick angle step, so it falls as the kicks
    get denser: against the exact product at N=250, gamma=1, h 1.0 -> 1.1
    the defect density deviates by 7.6e-2 (50 kicks), 1.3e-2 (200),
    3.4e-3 (400), 8.6e-4 (800).  At constant E_k the sum is the trapezoid
    of a geometric series, |cot(pi E_k) sin(n pi E_k)| times the angle
    step, so p_k oscillates in k instead of following a sin^2 k envelope.

    ks: 1-D array of momenta in (0, pi).  Returns p_k, one per momentum.
    """
    if n_kicks < 1 or int(n_kicks) != n_kicks:
        raise ValueError(f"n_kicks must be a positive integer, got {n_kicks}")
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or np.any((ks <= 0) | (ks >= np.pi)):
        raise ValueError("momenta must be a 1-D array inside (0, pi)")
    s, c = np.sin(ks), np.cos(ks)
    nk = int(n_kicks)
    lam = (2 * np.arange(1, nk + 1) - 1) / (2 * nk)
    th_i = np.arctan2(h_i - c, s)
    th_f = np.arctan2(h_f - c, s)
    a = s * np.tan(th_i + (th_f - th_i) * lam[:, None])
    d = gamma * s
    beta = np.concatenate([np.arctan2(d, h_i - c)[None], np.arctan2(d, a),
                           np.arctan2(d, h_f - c)[None]])
    alpha = np.pi * np.hypot(a, d)
    phi = 2.0 * np.concatenate([np.zeros_like(alpha[:1]), np.cumsum(alpha, axis=0)])
    amp = (np.diff(beta, axis=0) * np.exp(1j * phi)).sum(axis=0)
    return 0.25 * np.abs(amp) ** 2
