"""Control paths for the three driving strategies.

A Schedule is the geodesic path of one control parameter over [0, T]: the
mixing angle theta is affine in time (constant Fubini-Study speed) and the
tan-relation is inverted pointwise,

    value(t) = offset + scale * tan(theta(t)),   theta affine in t.

Linear ramps need no object: the engines interpolate the control directly.
Geodesic angle endpoints are always computed with the two-argument arctangent
so that paths whose diagonal Hamiltonian component changes sign do not pick up
branch jumps; the interpolation then follows the short great-circle arc.

A KickTrain holds the square-pulse envelope of the kicked-geodesic strategy:
n equally spaced pulses of width delta_t and amplitude pi/(2*delta_t), i.e.
unit pulse area pi/2, starting at lambda_j = (2j-1)/(2n) of the scaled time
axis.  KickTrain.layout is the one rule that places the pulses on a step
grid; both engines take their kicked steps from it.

Run is the field-less base of both engines' configs: their step grid and
the checks on T, dt, strategy and kicks that every run shares.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


class Strategy(str, enum.Enum):
    """Driving strategy for a quench run."""

    LIN = "lin"
    GEO = "geo"
    GEO_JUMP = "geojump"


class Control(str, enum.Enum):
    """Which physical parameter the schedule drives."""

    ANISOTROPY = "gamma"
    FIELD = "h"         # transverse field


# absolute floor below which sin(k) is treated as zero (k at 0 or pi)
_SINK_TOL = 1e-12

_atan2 = np.frompyfunc(math.atan2, 2, 1)  # elementwise math.atan2


@dataclass(frozen=True)
class Schedule:
    """A geodesic control path on [0, T].

    (theta_i, theta_f) span the affine mixing-angle path and (scale, offset)
    invert it back to the control value.  theta_f is stored as the continuous
    continuation of theta_i (short arc), so theta(t) is monotone and
    tan(theta(t)) never crosses a pole for valid inputs.
    """

    T: float
    theta_i: float
    theta_f: float
    scale: float
    offset: float

    def theta(self, t):
        """Mixing angle at time t; accepts scalars or arrays."""
        frac = np.asarray(t, dtype=float) / self.T
        return self.theta_i + (self.theta_f - self.theta_i) * frac

    def value(self, t):
        """Control value at time t; accepts scalars or arrays."""
        return self.offset + self.scale * np.tan(self.theta(t))


def lz_geodesic_schedule(x_i: float, x_f: float, eps: float, T: float) -> Schedule:
    """Constant-FS-speed path for the two-level sweep field.

    theta endpoints are atan2(x, eps) (equal to arctan(x/eps) for eps > 0) and
    x(t) = eps * tan(theta(t)).  For eps < 0 the endpoints can lie more than
    pi apart; theta_f is then moved onto the short arc (through theta = pi),
    so the sweep mirrors the one at -eps and tan(theta(t)) crosses no pole.
    """
    if T <= 0:
        raise ValueError(f"total time must be positive, got T={T}")
    if eps == 0:
        raise ValueError("eps must be nonzero (mixing angle undefined at eps=0)")
    th_i, th_f = math.atan2(x_i, eps), math.atan2(x_f, eps)
    # a short arc is kept as is: the wrap's fmod arithmetic can move it by an ulp
    if abs(th_f - th_i) > math.pi:
        th_f = float(_short_arc(th_i, th_f))
    return Schedule(float(T), th_i, th_f, float(eps), 0.0)


def _short_arc(th_i, th_f):
    """th_f moved by a multiple of 2 pi so that th_f - th_i lies in (-pi, pi]."""
    w = np.fmod(th_f - th_i + math.pi, 2 * math.pi)
    w = np.where(w <= 0, w + 2 * math.pi, w)
    return th_i + (w - math.pi)


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
        th_f = _short_arc(th_i, th_f)
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
    return Schedule(float(T), float(th_i[0]), float(th_f[0]), scale, offset)


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

    def layout(self, dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the pulses act on n_steps equal steps of dt_eff = T/n_steps,
        for a run with requested step dt.

        Returns (idx, lam, area) with one entry per step a pulse acts in, in
        time order: the step index, the scaled time at which the drive is
        sampled, and the pulse area deposited in that step.  Single-sample
        kicks (see single_sample) give the step holding each kick time,
        sampled at lambda_j = (2j-1)/(2n), which is built from the kick count
        and so carries no trace of T, with area pi/2.  Wider pulses give the
        steps whose midpoints lie in [t_j, t_j + delta_t), sampled at those
        midpoints, each with area amplitude * dt_eff.  Two kicks in one step
        raise ValueError.
        """
        dt_eff = self.T / n_steps
        if self.single_sample(dt, dt_eff):
            # kick times within 1e-9 steps of a grid node are snapped up to it
            idx = np.minimum(np.floor(self.kick_times / dt_eff + 1e-9).astype(int), n_steps - 1)
            lam = (2 * np.arange(1, self.n_kicks + 1) - 1) / (2 * self.n_kicks)
            area = np.full(self.n_kicks, np.pi / 2)
        else:
            i0 = np.maximum(np.ceil(self.kick_times / dt_eff - 0.5).astype(int), 0)
            i1 = np.ceil((self.kick_times + self.delta_t) / dt_eff - 0.5).astype(int)
            idx = np.concatenate([np.arange(a, b) for a, b in zip(i0, np.minimum(i1, n_steps))])
            lam = (idx + 0.5) * dt_eff / self.T
            area = np.full(len(idx), self.amplitude * dt_eff)
        if np.any(np.diff(idx) <= 0):
            raise ValueError(f"n_kicks={self.n_kicks} pulses of width delta_t={self.delta_t} "
                             f"put two kicks in one step of dt={dt}")
        return idx, lam, area


class Run:
    """Field-less base of ChainConfig and LZConfig: the step grid and the
    checks every run shares.  A subclass holds the fields T, dt, strategy
    and kicks and calls super().__post_init__() before its own checks."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError(f"need T > 0 and dt > 0, got T={self.T}, dt={self.dt}")
        if self.kicks is None:
            if self.strategy is Strategy.GEO_JUMP:
                raise ValueError("geojump strategy requires kicks >= 1")
            return
        if self.strategy is not Strategy.GEO_JUMP:
            raise ValueError(f"kicks conflict with strategy {self.strategy.value}")
        if abs(self.kicks.T - self.T) > 1e-9 * self.T:
            raise ValueError(f"kick train spans T={self.kicks.T}, run spans T={self.T}")
        self.kicks.layout(self.dt, self.n_steps)  # rejects two kicks in one step

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def dt_eff(self) -> float:
        """Actual step: [0, T] divided into n_steps equal pieces."""
        return self.T / self.n_steps


def kick_train(n_kicks: int, T: float, delta_t: float) -> KickTrain:
    """Build the pulse train; rejects overlapping pulses and pulses that
    run past the end of the evolution (t_n + delta_t must not exceed T)."""
    if n_kicks < 1 or int(n_kicks) != n_kicks:
        raise ValueError(f"n_kicks must be a positive integer, got {n_kicks}")
    n_kicks = int(n_kicks)
    if not 0 < T < math.inf:
        raise ValueError(f"total time must be positive and finite, got T={T}")
    if not 0 < delta_t < math.inf:
        raise ValueError(f"pulse width must be positive and finite, got delta_t={delta_t}")
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

