"""Control paths for the three driving strategies.

A Schedule is the geodesic path of one control parameter over the scaled
time frac = t/T in [0, 1]: the mixing angle theta is affine in frac
(constant Fubini-Study speed) and the tan-relation is inverted pointwise,

    value(frac) = offset + scale * tan(theta(frac)),   theta affine in frac.

Linear ramps need no object: the engines interpolate the control directly.
Geodesic angle endpoints are always computed with the two-argument arctangent
so that paths whose diagonal Hamiltonian component changes sign do not pick up
branch jumps; the interpolation then follows the short great-circle arc.

A KickTrain holds the square-pulse envelope of the kicked-geodesic strategy:
n equally spaced pulses of width delta_t and amplitude pi/(2*delta_t), i.e.
unit pulse area pi/2, starting at lambda_j = (2j-1)/(2n) of the scaled time
axis.

Run is the field-less base of both engines' configs and the only holder of
the total time T: their step grid, the checks on T, dt, strategy and kicks
that every run shares, and Run.layout, the one rule that places the pulses
on the step grid; both engines take their kicked steps from it.
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
    """A geodesic control path over the scaled time frac in [0, 1].

    (theta_i, theta_f) span the affine mixing-angle path and (scale, offset)
    invert it back to the control value.  theta_f is stored as the continuous
    continuation of theta_i (short arc), so theta(frac) is monotone and
    tan(theta(frac)) never crosses a pole for valid inputs.
    """

    theta_i: float
    theta_f: float
    scale: float
    offset: float

    def theta(self, frac):
        """Mixing angle at scaled time frac; accepts scalars or arrays."""
        return self.theta_i + (self.theta_f - self.theta_i) * np.asarray(frac, dtype=float)

    def value(self, frac):
        """Control value at scaled time frac; accepts scalars or arrays."""
        return self.offset + self.scale * np.tan(self.theta(frac))


def lz_geodesic_schedule(x_i: float, x_f: float, eps: float) -> Schedule:
    """Constant-FS-speed path for the two-level sweep field.

    theta endpoints are atan2(x, eps) (equal to arctan(x/eps) for eps > 0) and
    x = eps * tan(theta).  For eps < 0 the endpoints can lie more than
    pi apart; theta_f is then moved onto the short arc (through theta = pi),
    so the sweep mirrors the one at -eps and tan(theta) crosses no pole.
    """
    if eps == 0:
        raise ValueError("eps must be nonzero (mixing angle undefined at eps=0)")
    th_i = math.atan2(x_i, eps)
    th_f = float(_short_arc(th_i, math.atan2(x_f, eps)))
    return Schedule(th_i, th_f, float(eps), 0.0)


def _short_arc(th_i, th_f):
    """th_f on the short arc from th_i: an arc longer than pi has th_f moved
    by a multiple of 2 pi into th_i + (-pi, pi]; a shorter arc is kept as is,
    because the wrap's fmod arithmetic can move its th_f by an ulp."""
    w = np.fmod(th_f - th_i + math.pi, 2 * math.pi)
    w = np.where(w <= 0, w + 2 * math.pi, w)
    return np.where(np.abs(th_f - th_i) > math.pi, th_i + (w - math.pi), th_f)


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


def xy_geodesic_schedule(k: float, mode: Control, p_i: float, p_f: float,
                         fixed: float) -> Schedule:
    """Per-mode geodesic for the chain: mixing angle affine in the scaled
    time for mode k (angle conventions in _xy_geodesic_angles)."""
    th_i, th_f = _xy_geodesic_angles([k], mode, p_i, p_f, fixed)
    s, c = math.sin(k), math.cos(k)
    scale, offset = ((fixed - c) / s, 0.0) if mode is Control.ANISOTROPY else (s, c)
    return Schedule(float(th_i[0]), float(th_f[0]), scale, offset)


@dataclass(frozen=True)
class KickTrain:
    """Square-pulse envelope: n_kicks pulses of width delta_t, each of area
    exactly pi/2, starting at the scaled times lam; a Run puts them on its T."""

    n_kicks: int
    delta_t: float

    @property
    def amplitude(self) -> float:
        return math.pi / (2 * self.delta_t)

    @property
    def lam(self) -> np.ndarray:
        """lambda_j = (2j-1)/(2 n_kicks), j = 1..n_kicks."""
        return (2 * np.arange(1, self.n_kicks + 1) - 1) / (2 * self.n_kicks)


class Run:
    """Field-less base of ChainConfig and LZConfig: the step grid, the
    placement of the pulses on it, and the checks every run shares.  A
    subclass holds the fields T, dt, strategy and kicks and calls
    super().__post_init__() before its own checks."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError(f"need T > 0 and dt > 0, got T={self.T}, dt={self.dt}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"dt={self.dt} is too small: T/dt overflows for T={self.T}")
        if self.kicks is None:
            if self.strategy is Strategy.GEO_JUMP:
                raise ValueError("geojump strategy requires kicks >= 1")
            return
        if self.strategy is not Strategy.GEO_JUMP:
            raise ValueError(f"kicks conflict with strategy {self.strategy.value}")
        n, width, slack = self.kicks.n_kicks, self.kicks.delta_t, 1e-9 * self.T
        if n > 1 and self.T / n < width - slack:
            raise ValueError(f"pulses overlap: spacing T/n = {self.T / n} < delta_t = {width}")
        if self.kick_times[-1] + width > self.T + slack:
            raise ValueError(f"last pulse runs past T: t_n + delta_t = "
                             f"{self.kick_times[-1] + width} > T = {self.T}")
        self.layout()  # rejects two kicks in one step

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def dt_eff(self) -> float:
        """Actual step: [0, T] divided into n_steps equal pieces."""
        return self.T / self.n_steps

    @property
    def kick_times(self) -> np.ndarray:
        """Start t_j = lambda_j * T of each pulse."""
        return self.kicks.lam * self.T

    @property
    def single_sample(self) -> bool:
        """True when the pulses act as single-sample kicks.

        A pulse no wider than the requested step dt is a kick, whichever way
        T/dt rounds: a width-dt train must not change path because dt_eff
        came out slightly below dt.  Pulses no wider than dt_eff (T/dt
        rounded down) stay kicks too.
        """
        return self.kicks.delta_t <= max(self.dt, self.dt_eff) * (1 + 1e-9)

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the pulses act on the n_steps equal steps of dt_eff.

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
        kicks, n_steps, dt_eff, times = self.kicks, self.n_steps, self.dt_eff, self.kick_times
        if self.single_sample:
            # kick times within 1e-9 steps of a grid node are snapped up to it
            idx = np.minimum(np.floor(times / dt_eff + 1e-9).astype(int), n_steps - 1)
            lam = kicks.lam
            area = np.full(kicks.n_kicks, np.pi / 2)
        else:
            i0 = np.maximum(np.ceil(times / dt_eff - 0.5).astype(int), 0)
            i1 = np.ceil((times + kicks.delta_t) / dt_eff - 0.5).astype(int)
            idx = np.concatenate([np.arange(a, b) for a, b in zip(i0, np.minimum(i1, n_steps))])
            lam = (idx + 0.5) * dt_eff / self.T
            area = np.full(len(idx), kicks.amplitude * dt_eff)
        if np.any(np.diff(idx) <= 0):
            raise ValueError(f"n_kicks={kicks.n_kicks} pulses of width delta_t={kicks.delta_t} "
                             f"put two kicks in one step of dt={self.dt}")
        return idx, lam, area


def kick_train(n_kicks: int, delta_t: float) -> KickTrain:
    """Build the pulse train; the run it drives rejects overlapping pulses
    and pulses that run past its end (t_n + delta_t must not exceed T)."""
    if n_kicks < 1 or int(n_kicks) != n_kicks:
        raise ValueError(f"n_kicks must be a positive integer, got {n_kicks}")
    if not 0 < delta_t < math.inf:
        raise ValueError(f"pulse width must be positive and finite, got delta_t={delta_t}")
    return KickTrain(int(n_kicks), float(delta_t))
