"""Two-level avoided-crossing sweeps under the three driving strategies.

The bare Hamiltonian is H(x) = (x X + eps Z)/2.  The continuous geodesic
strategy drives the unit Bloch direction (sin theta, 0, cos theta)/2 with
theta affine in time; the kicked-geodesic strategy multiplies the *unit*
direction n(theta).sigma by the square-pulse envelope of a KickTrain, so each
area-pi/2 pulse is a pi rotation about the instantaneous axis and shifts the
dynamical phase difference between the two levels by exactly pi.  Between
pulses the generator vanishes and the state is frozen.

Time stepping is piecewise-constant with midpoint-sampled parameters and the
closed-form step propagator, on the same quaternion kernel as the chain
(su2): H = dx X + dz Z is the chain's -2 (a Z + d X) with a = -dz/2 and
d = -dx/2.  The propagator to every node comes from a log-depth prefix
product of the step quaternions, so no Python loop runs over steps and the
state norm is preserved to rounding.  A run records four diagnostics along
the way: fidelity against the target ground state, the instantaneous gap of
the full (envelope-included) generator, the accumulated
dynamical-phase-difference factor e^{i phi}, and the adiabaticity error
|integral of e^{i phi} d lambda|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import KickTrain, Strategy, lz_geodesic_schedule
from .su2 import _CHUNK, Herm2, _err_terms, _prefix_product, _quat_identity, _quat_steps
from .su2 import _quat_to_unitary, eig2
from .su2 import _phase_ramp  # noqa: F401  (wrapped by name in perfbench/tracer.py)


@dataclass(frozen=True)
class LZConfig:
    """One two-level sweep: field from x_i to x_f over total time T."""

    eps: float
    x_i: float
    x_f: float
    T: float
    dt: float
    strategy: Strategy = Strategy.LIN
    kicks: KickTrain | None = None

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"total time must be positive, got T={self.T}")
        if self.dt <= 0:
            raise ValueError(f"step must be positive, got dt={self.dt}")
        if self.n_steps < 100:
            raise ValueError(
                f"dt={self.dt} gives only {self.n_steps} steps; need at least 100"
            )
        if (self.kicks is not None) != (self.strategy is Strategy.GEO_JUMP):
            raise ValueError("kicks must be given exactly when strategy is geojump")
        if self.kicks is not None and abs(self.kicks.T - self.T) > 1e-9 * self.T:
            raise ValueError(
                f"kick train spans T={self.kicks.T}, run spans T={self.T}"
            )
        if self.strategy is not Strategy.LIN and self.eps == 0:
            raise ValueError("geodesic strategies require eps != 0")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def dt_eff(self) -> float:
        """Actual step: [0, T] divided into n_steps equal pieces."""
        return self.T / self.n_steps


@dataclass
class Trajectory:
    """Per-step diagnostics of one run; all arrays share length n_steps + 1."""

    times: np.ndarray
    fidelity: np.ndarray
    gap: np.ndarray
    phase_diff_re: np.ndarray
    phase_diff_im: np.ndarray
    err: np.ndarray
    final_state: np.ndarray


def lz_hamiltonian(x: float, eps: float) -> Herm2:
    """H = (x X + eps Z) / 2."""
    return Herm2(0.0, np.array([x / 2, 0.0, eps / 2]))


def _in_pulse(kt: KickTrain, t: np.ndarray) -> np.ndarray:
    """Whether each time lies in a pulse window [t_j, t_j + delta_t)."""
    idx = np.clip(np.searchsorted(kt.kick_times, t, side="right") - 1, 0, kt.n_kicks - 1)
    return (t >= kt.kick_times[idx]) & (t < kt.kick_times[idx] + kt.delta_t)


def evolve_lz(cfg: LZConfig) -> Trajectory:
    """Propagate the sweep and return the recorded diagnostics.

    The initial state is the ground state of the initial Hamiltonian (linear)
    or of the theta_i-parameterized direction (geodesic strategies); fidelity
    is measured against the corresponding final ground state.

    Kick trains whose pulse width is at most the requested step cfg.dt act
    as single-sample kicks at every T (see KickTrain.single_sample), also
    where T/dt rounds up and dt_eff falls below cfg.dt: the whole pi/2 area
    is deposited in the step holding each kick time, with the angle taken at
    the kick time.  Wider pulses are stepped with the midpoint-sampled
    envelope.
    """
    n = cfg.n_steps
    dt = cfg.dt_eff
    if cfg.strategy is Strategy.LIN:
        _, _, psi0, _ = eig2(lz_hamiltonian(cfg.x_i, cfg.eps))
        _, _, target, _ = eig2(lz_hamiltonian(cfg.x_f, cfg.eps))
    else:
        sched = lz_geodesic_schedule(cfg.x_i, cfg.x_f, cfg.eps, cfg.T)
        th_i, th_f = sched.theta_i, sched.theta_f
        psi0 = np.array([np.cos(th_i / 2), np.sin(th_i / 2)], dtype=complex)
        target = np.array([np.cos(th_f / 2), np.sin(th_f / 2)], dtype=complex)

    # midpoint-sampled generator dx X + dz Z of every step, and the gap of
    # the full (envelope-included) generator at the nodes
    times = np.arange(n + 1) * dt
    tmid = (np.arange(n) + 0.5) * dt
    if cfg.strategy is Strategy.LIN:
        dx = (cfg.x_i + (cfg.x_f - cfg.x_i) * tmid / cfg.T) / 2
        dz = np.full(n, cfg.eps / 2)
        x = cfg.x_i + (cfg.x_f - cfg.x_i) * times / cfg.T
        gap = np.sqrt(x * x + cfg.eps * cfg.eps)
    elif cfg.strategy is Strategy.GEO:
        th = sched.theta(tmid)
        dx, dz = np.sin(th) / 2, np.cos(th) / 2
        gap = np.ones(n + 1)
    else:
        kt = cfg.kicks
        th = sched.theta(tmid)
        amp = np.zeros(n)
        gap = np.zeros(n + 1)
        if kt.single_sample(cfg.dt, dt):
            # the first kick in each step holding one, at its own angle
            steps, first = np.unique(kt.containing_steps(dt, n), return_index=True)
            amp[steps] = np.pi / (2 * dt)
            th[steps] = sched.theta(kt.kick_times[first])
            gap[steps] = 2.0 * amp[steps]
        else:
            amp[_in_pulse(kt, tmid)] = kt.amplitude
            gap[_in_pulse(kt, times)] = 2.0 * kt.amplitude
        dx, dz = amp * np.sin(th), amp * np.cos(th)

    fid = np.empty(n + 1)
    ph_re = np.empty(n + 1)
    ph_im = np.empty(n + 1)
    err = np.empty(n + 1)
    fid[0] = min(abs(np.vdot(target, psi0)) ** 2, 1.0)
    ph_re[0], ph_im[0] = 1.0, 0.0
    err[0] = 0.0

    carry = _quat_identity(1)[0]
    phase = 0.0
    integral = 0.0 + 0.0j
    for start in range(0, n, _CHUNK):
        ns = min(_CHUNK, n - start)
        cx, cz = dx[start : start + ns], dz[start : start + ns]
        # H = dx X + dz Z is the kernel's -2 (a Z + d X) with a = -dz/2, d = -dx/2
        prefix = _prefix_product(_quat_steps(-cz / 2, -cx / 2, dt), carry)
        # back onto |q| = 1: reassociated products drift the norm
        # systematically (-7.9e-12 over 1e6 steps of a linear sweep)
        prefix /= np.sqrt((prefix * prefix).sum(axis=1, keepdims=True))
        states = _quat_to_unitary(prefix) @ psi0
        psi = states[-1]
        if not np.all(np.isfinite(psi.view(float))):
            raise RuntimeError(
                f"non-finite state at step {start + ns} (t={times[start + ns]})"
            )
        sl = slice(start + 1, start + ns + 1)
        fid[sl] = np.minimum(np.abs(states @ target.conj()) ** 2, 1.0)
        # phase difference E0 - E1 = -2|d| accumulated over each step
        terms, phi = _err_terms(phase, -2.0 * np.hypot(cx, cz) * dt, dt / cfg.T)
        integral_nodes = integral + np.cumsum(terms)
        ph_re[sl] = np.cos(phi[1:])
        ph_im[sl] = np.sin(phi[1:])
        err[sl] = np.abs(integral_nodes)
        carry, phase, integral = prefix[-1], phi[-1], integral_nodes[-1]

    return Trajectory(times, fid, gap, ph_re, ph_im, err, psi)


def adiabatic_error(lam: np.ndarray, e0: np.ndarray, e1: np.ndarray, T: float) -> np.ndarray:
    """Adiabaticity error eps01(lambda) = |int_0^lambda e^{i phi} dlambda'|
    with phi(lambda) = T * int_0^lambda (E0 - E1) dlambda', both integrals
    accumulated by the trapezoidal rule on the given grid."""
    lam = np.asarray(lam, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    if not (lam.shape == e0.shape == e1.shape):
        raise ValueError("lambda, E0, E1 grids must share one shape")
    if lam.ndim != 1 or len(lam) < 2:
        raise ValueError("need at least two grid points")
    if np.any(np.diff(lam) < 0):
        raise ValueError("lambda grid must be monotone non-decreasing")
    diff = e0 - e1
    seg = 0.5 * (diff[1:] + diff[:-1]) * np.diff(lam)
    phi = T * np.concatenate([[0.0], np.cumsum(seg)])
    f = np.exp(1j * phi)
    seg2 = 0.5 * (f[1:] + f[:-1]) * np.diff(lam)
    integral = np.concatenate([[0.0 + 0.0j], np.cumsum(seg2)])
    return np.abs(integral)
