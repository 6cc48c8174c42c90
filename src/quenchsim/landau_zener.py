"""Two-level avoided-crossing sweeps under the three driving strategies.

The bare Hamiltonian is H(x) = (x X + eps Z)/2, with ground state
(-sin(theta/2), cos(theta/2)) at theta = atan2(x, eps); every strategy
starts in the ground state at x_i and is scored against the ground state at
x_f.  The continuous geodesic
strategy drives the unit Bloch direction (sin theta, 0, cos theta)/2 with
theta affine in time; the kicked-geodesic strategy multiplies the *unit*
direction n(theta).sigma by the square-pulse envelope of a KickTrain, so each
area-pi/2 pulse is a pi rotation about the instantaneous axis and shifts the
dynamical phase difference between the two levels by exactly pi.  The run
holds T; the kicked steps, their angles and their areas come from Run.layout,
the rule the chain uses too; between pulses the generator vanishes and the
state is frozen.

Time stepping is piecewise-constant with midpoint-sampled parameters and the
closed-form step propagator, on the same quaternion kernel as the chain
(su2): H = dx X + dz Z is the chain's -2 (a Z + d X) with a = -dz/2 and
d = -dx/2.  The propagator to every node comes from a log-depth prefix
product of the step quaternions, so no Python loop runs over steps and the
state norm is preserved to rounding.  A run records four diagnostics along
the way: fidelity against the final ground state, the instantaneous gap of
the full (envelope-included) generator, the accumulated
dynamical-phase-difference factor e^{i phi}, and the adiabaticity error
|integral of e^{i phi} d lambda|.  For a kicked run the gap at node i is
2 * amplitude of step i: nonzero exactly at the steps the layout fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import KickTrain, Run, Strategy, lz_geodesic_schedule
from .su2 import _CHUNK, _err_terms, _prefix_product, _quat_identity, _quat_steps
from .su2 import _quat_to_unitary
from .su2 import _phase_ramp  # noqa: F401  (wrapped by name in perfbench/tracer.py)


@dataclass(frozen=True)
class LZConfig(Run):
    """One two-level sweep: field from x_i to x_f over total time T.  The
    step grid and the checks on T, dt and kicks come from schedules.Run."""

    eps: float
    x_i: float
    x_f: float
    T: float
    dt: float
    strategy: Strategy = Strategy.LIN
    kicks: KickTrain | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.n_steps < 100:
            raise ValueError(
                f"dt={self.dt} gives only {self.n_steps} steps; need at least 100"
            )
        if self.strategy is not Strategy.LIN and self.eps == 0:
            raise ValueError("geodesic strategies require eps != 0")


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


def evolve_lz(cfg: LZConfig) -> Trajectory:
    """Propagate the sweep and return the recorded diagnostics.

    Every strategy starts in the ground state of H(x_i) and its fidelity is
    measured against the ground state of H(x_f); both come from the closed
    form of the module docstring.

    Kicked steps come from Run.layout: step idx carries amplitude
    area/dt_eff at the angle of its scaled time lam.  Single-sample kicks
    (pulse width at most the requested step cfg.dt, at every T) deposit
    the whole pi/2 area in the step holding each kick, at the angle of
    lambda_j = (2j-1)/(2n); wider pulses fill the steps whose midpoints
    lie in the pulse.
    """
    n = cfg.n_steps
    dt = cfg.dt_eff
    psi0, target = (
        np.array([-math.sin(th / 2), math.cos(th / 2)], dtype=complex)
        for th in (math.atan2(cfg.x_i, cfg.eps), math.atan2(cfg.x_f, cfg.eps))
    )

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
        th = lz_geodesic_schedule(cfg.x_i, cfg.x_f, cfg.eps).theta(tmid / cfg.T)
        dx, dz = np.sin(th) / 2, np.cos(th) / 2
        gap = np.ones(n + 1)
    else:
        idx, lam, area = cfg.layout()
        amp, th = area / dt, lz_geodesic_schedule(cfg.x_i, cfg.x_f, cfg.eps).theta(lam)
        dx, dz, gap = np.zeros(n), np.zeros(n), np.zeros(n + 1)
        dx[idx], dz[idx], gap[idx] = amp * np.sin(th), amp * np.cos(th), 2.0 * amp

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
