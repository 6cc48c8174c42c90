"""Control paths for the three driving strategies.

A Schedule maps time t in [0, T] to one control parameter.  Linear paths
interpolate the parameter itself; geodesic paths interpolate the mixing angle
theta (constant Fubini-Study speed) and invert the tan-relation pointwise:

    value(t) = offset + scale * tan(theta(t)),   theta affine in t.

Geodesic angle endpoints are always computed with the two-argument arctangent
so that paths whose diagonal Hamiltonian component changes sign do not pick up
branch jumps; the interpolation then follows the short great-circle arc.

A KickTrain holds the square-pulse envelope of the kicked-geodesic strategy:
n equally spaced pulses of width delta_t and amplitude pi/(2*delta_t), i.e.
unit pulse area pi/2, centered on the midpoints lambda_j = (2j-1)/(2n) of the
scaled time axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Strategy(str, enum.Enum):
    """Driving strategy for a quench run."""

    LIN = "lin"
    GEO = "geo"
    GEO_JUMP = "geojump"


class ScheduleKind(str, enum.Enum):
    LINEAR = "linear"
    GEODESIC = "geodesic"


class Control(str, enum.Enum):
    """Which physical parameter the schedule drives."""

    X_FIELD = "x"       # two-level sweep field
    ANISOTROPY = "gamma"
    FIELD = "h"         # transverse field


# absolute floor below which sin(k) is treated as zero (k at 0 or pi)
_SINK_TOL = 1e-12

_atan2 = np.frompyfunc(math.atan2, 2, 1)  # elementwise math.atan2


@dataclass(frozen=True)
class Schedule:
    """One control parameter as a function of time on [0, T].

    For kind=GEODESIC the pair (theta_i, theta_f) spans the affine mixing-angle
    path and (scale, offset) invert it back to the control value.  theta_f is
    stored as the continuous continuation of theta_i (short arc), so theta(t)
    is monotone and tan(theta(t)) never crosses a pole for valid inputs.
    """

    kind: ScheduleKind
    param: Control
    p_i: float
    p_f: float
    T: float
    theta_i: float = 0.0
    theta_f: float = 0.0
    scale: float = 0.0
    offset: float = 0.0

    def theta(self, t):
        """Mixing angle at time t (geodesic schedules only)."""
        if self.kind is not ScheduleKind.GEODESIC:
            raise ValueError("theta(t) is only defined for geodesic schedules")
        frac = np.asarray(t, dtype=float) / self.T
        return self.theta_i + (self.theta_f - self.theta_i) * frac

    def value(self, t):
        """Control value at time t; accepts scalars or arrays."""
        frac = np.asarray(t, dtype=float) / self.T
        if self.kind is ScheduleKind.LINEAR:
            return self.p_i + (self.p_f - self.p_i) * frac
        th = self.theta_i + (self.theta_f - self.theta_i) * frac
        return self.offset + self.scale * np.tan(th)


def linear_schedule(param: Control, p_i: float, p_f: float, T: float) -> Schedule:
    """Ramp p(t) = p_i + (p_f - p_i) t/T."""
    if T <= 0:
        raise ValueError(f"total time must be positive, got T={T}")
    return Schedule(ScheduleKind.LINEAR, param, float(p_i), float(p_f), float(T))


def lz_geodesic_schedule(x_i: float, x_f: float, eps: float, T: float) -> Schedule:
    """Constant-FS-speed path for the two-level sweep field.

    theta endpoints are atan2(x, eps) (equal to arctan(x/eps) for eps > 0) and
    x(t) = eps * tan(theta(t)).
    """
    if T <= 0:
        raise ValueError(f"total time must be positive, got T={T}")
    if eps == 0:
        raise ValueError("eps must be nonzero (mixing angle undefined at eps=0)")
    th_i = math.atan2(x_i, eps)
    th_f = math.atan2(x_f, eps)
    return Schedule(
        ScheduleKind.GEODESIC,
        Control.X_FIELD,
        float(x_i),
        float(x_f),
        float(T),
        theta_i=th_i,
        theta_f=th_f,
        scale=float(eps),
        offset=0.0,
    )


def _xy_geodesic_angles(ks, mode: Control, p_i: float, p_f: float, fixed: float):
    """Per-mode geodesic angle endpoints (theta_i, theta_f), arrays over ks.

    mode=ANISOTROPY varies gamma at fixed h using tan(theta) = gamma sin k / (h - cos k);
    mode=FIELD varies h at fixed gamma using tan(theta) = (h - cos k) / sin k.
    The two conventions are reciprocal; each is the natural one for its sweep
    (the FIELD form stays pole-free when h crosses cos k).  Under ANISOTROPY
    theta_f continues theta_i along the short great-circle arc, which keeps
    tan(theta(t)) continuous when h - cos k < 0.  math.atan2 is applied per
    element: numpy's arctan2 differs from it in the last place on some inputs.
    """
    ks = np.asarray(ks, dtype=float)
    s, c = np.sin(ks), np.cos(ks)
    bad = np.abs(s) < _SINK_TOL
    if np.any(bad):
        k = float(ks[np.argmax(bad)])
        raise ValueError(f"k={k} has sin(k)=0; modes at 0 or pi carry no coupling")
    if mode is Control.ANISOTROPY:
        a = fixed - c  # fixed = h
        bad = np.abs(a) < 1e-12
        if np.any(bad):
            raise ValueError(
                f"h = cos(k) = {float(c[np.argmax(bad)])}: anisotropy mixing angle undefined"
            )
        y_i, y_f, x = p_i * s, p_f * s, a
    elif mode is Control.FIELD:
        y_i, y_f, x = p_i - c, p_f - c, s
    else:
        raise ValueError(f"unsupported geodesic mode: {mode}")
    th_i = _atan2(y_i, x).astype(float)
    th_f = _atan2(y_f, x).astype(float)
    if mode is Control.ANISOTROPY:
        # wrap th_f - th_i into (-pi, pi]
        w = np.fmod(th_f - th_i + math.pi, 2 * math.pi)
        w[w <= 0] += 2 * math.pi
        th_f = th_i + (w - math.pi)
    return th_i, th_f


def xy_geodesic_schedule(
    k: float,
    mode: Control,
    p_i: float,
    p_f: float,
    fixed: float,
    T: float,
) -> Schedule:
    """Per-mode geodesic for the chain: mixing angle affine in t for mode k
    (angle conventions in _xy_geodesic_angles)."""
    if T <= 0:
        raise ValueError(f"total time must be positive, got T={T}")
    th_i, th_f = _xy_geodesic_angles([k], mode, p_i, p_f, fixed)
    s, c = math.sin(k), math.cos(k)
    scale, offset = ((fixed - c) / s, 0.0) if mode is Control.ANISOTROPY else (s, c)
    return Schedule(
        ScheduleKind.GEODESIC, mode, float(p_i), float(p_f), float(T),
        theta_i=float(th_i[0]), theta_f=float(th_f[0]), scale=scale, offset=offset,
    )


@dataclass(frozen=True)
class KickTrain:
    """Square-pulse envelope: n_kicks pulses of width delta_t starting at
    kick_times[j] = (2j-1)/(2 n_kicks) * T, each of area exactly pi/2."""

    n_kicks: int
    T: float
    delta_t: float
    amplitude: float
    kick_times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kick_times", np.asarray(self.kick_times, dtype=float))

    def single_sample(self, dt: float, dt_eff: float) -> bool:
        """True when the pulses act as single-sample kicks on a run with
        requested step dt and actual step dt_eff = T / round(T / dt).

        A pulse no wider than the requested step is a kick, whichever way
        T/dt rounds: a width-dt train must not change path because dt_eff
        came out slightly below dt.  Pulses no wider than dt_eff (T/dt
        rounded down) stay kicks too.
        """
        return self.delta_t <= max(dt, dt_eff) * (1 + 1e-9)

    def containing_steps(self, dt: float, n_steps: int) -> np.ndarray:
        """Index of the step of width dt holding each kick time; times within
        1e-9 steps of a grid node are snapped up to that node before flooring."""
        return np.minimum(np.floor(self.kick_times / dt + 1e-9).astype(int), n_steps - 1)


def kick_train(n_kicks: int, T: float, delta_t: float) -> KickTrain:
    """Build the pulse train; rejects overlapping pulses and pulses that
    run past the end of the evolution (t_n + delta_t must not exceed T)."""
    if n_kicks < 1 or int(n_kicks) != n_kicks:
        raise ValueError(f"n_kicks must be a positive integer, got {n_kicks}")
    n_kicks = int(n_kicks)
    if T <= 0:
        raise ValueError(f"total time must be positive, got T={T}")
    if delta_t <= 0:
        raise ValueError(f"pulse width must be positive, got delta_t={delta_t}")
    lam = (2 * np.arange(1, n_kicks + 1) - 1) / (2 * n_kicks)
    times = lam * T
    slack = 1e-9 * T
    if n_kicks > 1 and T / n_kicks < delta_t - slack:
        raise ValueError(
            f"pulses overlap: spacing T/n = {T / n_kicks} < delta_t = {delta_t}"
        )
    if times[-1] + delta_t > T + slack:
        raise ValueError(
            f"last pulse runs past T: t_n + delta_t = {times[-1] + delta_t} > T = {T}"
        )
    return KickTrain(n_kicks, float(T), float(delta_t), math.pi / (2 * delta_t), times)


def fs_metric_gamma(k: float, gamma: float, h: float) -> float:
    """Fubini-Study metric component for the anisotropy direction:
    g = (1/4) (d theta / d gamma)^2 = (1/4) sin^2(k) a^2 / E^4
    with a = h - cos k and E^2 = a^2 + (gamma sin k)^2."""
    s, c = math.sin(k), math.cos(k)
    a = h - c
    if abs(a) < 1e-12:
        raise ValueError(f"h = cos(k) = {c}: metric undefined on the anisotropy axis")
    e2 = a * a + (gamma * s) ** 2
    return 0.25 * (s * a) ** 2 / (e2 * e2)
