"""Control paths for the three driving strategies.

Linear ramps need no object: the engines interpolate the control directly.
A geodesic moves the mixing angle theta affinely in the scaled time
frac = t/T in [0, 1], at constant Fubini-Study speed.  Every geodesic, the
two-level sweep's and each chain mode's on either line, takes its endpoints
from one rule, xy_geodesic_schedule(y_i, y_f, x) for the path y = x tan(theta)
at fixed x: theta_i = atan2(y_i, x), and atan2(y_f, x) moved onto the short
great-circle arc from theta_i.

A KickTrain holds the square-pulse envelope of the kicked-geodesic strategy:
n equally spaced pulses of width delta_t and amplitude pi/(2*delta_t), i.e.
unit pulse area pi/2, starting at lambda_j = (2j-1)/(2n) of the scaled time
axis.

Run is the field-less base of both engines' configs and the only holder of
the total time T: their step grid, the checks on T, dt, strategy and kicks
that every run shares, and Run.layout, the one rule that places the rows,
continuous or kicked, on the step grid; both engines take their rows from it.
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


_atan2 = np.frompyfunc(math.atan2, 2, 1)  # elementwise math.atan2


def _short_arc(th_i, th_f):
    """th_f on the short arc from th_i: an arc longer than pi has th_f moved
    by a multiple of 2 pi into th_i + (-pi, pi]; a shorter arc is kept as is,
    because the wrap's fmod arithmetic can move its th_f by an ulp."""
    w = np.fmod(th_f - th_i + math.pi, 2 * math.pi)
    w = np.where(w <= 0, w + 2 * math.pi, w)
    return np.where(np.abs(th_f - th_i) > math.pi, th_i + (w - math.pi), th_f)


def xy_geodesic_schedule(y_i, y_f, x):
    """Geodesic angle endpoints (theta_i, theta_f), float arrays over the
    broadcast inputs, of the path y = x tan(theta) at fixed x from y_i to y_f.

    theta_i = atan2(y_i, x), by math.atan2 per element (numpy's arctan2
    differs from it in the last place on some inputs).  theta_f continues
    theta_i along the short great-circle arc, so a path whose x is negative
    picks up no branch jump and tan(theta) crosses no pole.
    """
    th_i = np.asarray(_atan2(y_i, x), dtype=float)
    return th_i, _short_arc(th_i, np.asarray(_atan2(y_f, x), dtype=float))


@dataclass(frozen=True)
class KickTrain:
    """Square-pulse envelope: n_kicks pulses of width delta_t, each of area
    exactly pi/2, starting at the scaled times lam; a Run puts them on its T.
    Built, it checks and holds n_kicks as a positive int, delta_t as a finite float > 0."""

    n_kicks: int
    delta_t: float

    def __post_init__(self):
        n, width = self.n_kicks, self.delta_t
        if not 1 <= n < math.inf or int(n) != n:
            raise ValueError(f"n_kicks must be a positive integer, got {n}")
        if not 0 < width < math.inf:
            raise ValueError(f"pulse width must be positive and finite, got delta_t={width}")
        object.__setattr__(self, "n_kicks", int(n))
        object.__setattr__(self, "delta_t", float(width))

    @property
    def amplitude(self) -> float:
        return math.pi / (2 * self.delta_t)

    @property
    def lam(self) -> np.ndarray:
        """lambda_j = (2j-1)/(2 n_kicks), j = 1..n_kicks."""
        return (2 * np.arange(1, self.n_kicks + 1) - 1) / (2 * self.n_kicks)


class Run:
    """Field-less base of ChainConfig and LZConfig: the step grid, the rows
    both engines step (Run.layout), and the checks every run shares.  A
    subclass holds the fields T, dt, strategy (converted here, by Strategy(...))
    and kicks and calls super().__post_init__() before its own checks."""

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError(f"need T > 0 and dt > 0, got T={self.T}, dt={self.dt}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"dt={self.dt} is too small: T/dt overflows for T={self.T}")
        if self.T / self.dt > np.iinfo(np.intp).max:
            raise ValueError(f"T={self.T} and dt={self.dt} give {self.T / self.dt:.3g} steps, "
                             "more than an array can index")
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

    def layout(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | float]:
        """The rows of the run on the n_steps equal steps of dt_eff.

        Returns (idx, lam, area), one entry per row in time order: the step
        index, the scaled time at which the drive is sampled, and the span
        of the row.  A continuous drive samples every step at its midpoint:
        idx is None and area is dt_eff.  Single-sample kicks (see
        single_sample) give the step holding each kick time, sampled at
        lambda_j = (2j-1)/(2n), which is built from the kick count and so
        carries no trace of T, with area pi/2.  Wider pulses give the steps
        whose midpoints lie in [t_j, t_j + delta_t), sampled at those
        midpoints, each with area amplitude * dt_eff.  Two kicks in one step
        raise ValueError; too many steps to allocate raise MemoryError.
        """
        if self.kicks is None:
            try:
                return None, (np.arange(self.n_steps) + 0.5) * self.dt_eff / self.T, self.dt_eff
            except MemoryError as e:
                raise MemoryError(f"T={self.T} and dt={self.dt} give {self.n_steps} steps: "
                                  f"{e}") from e
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
    """KickTrain(n_kicks, delta_t), which checks both; a Run checks its pulses against T."""
    return KickTrain(n_kicks, delta_t)
