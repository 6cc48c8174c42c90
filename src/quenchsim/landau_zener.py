"""Two-level avoided-crossing sweeps under the three driving strategies.

The bare Hamiltonian is H(x) = (x X + eps Z)/2, with ground state
(-sin(theta/2), cos(theta/2)) at theta = atan2(x, eps); every strategy
starts in the ground state at x_i and is scored against the ground state at
x_f.  The continuous geodesic strategy drives the unit Bloch direction
(sin theta, 0, cos theta)/2 with theta affine in time; the kicked-geodesic
strategy multiplies the *unit* direction n(theta).sigma by the square-pulse
envelope of a KickTrain, so each area-pi/2 pulse is a pi rotation about the
instantaneous axis and shifts the dynamical phase difference between the
two levels by exactly pi.  The run holds T; the rows of every strategy,
each step's midpoint or the kicked steps with their angles and areas, come
from Run.layout, the rule the chain uses too; between pulses the generator
vanishes and the state is frozen.

Time stepping is piecewise-constant with the closed-form step propagator,
through su2._evolve_rows, the stepping loop the chain shares, as one mode
column that reads every node: H(x) is the kernel's -2 (a Z + d X) with
a = -eps/4 and d = -x/4, and each node's propagator is put back on
|q| = 1, so the state norm is preserved to rounding.  A run records four
diagnostics along the way: fidelity against the final ground state, the
instantaneous gap of the full (envelope-included) generator, the
accumulated dynamical-phase-difference factor e^{i phi}, and the
adiabaticity error |integral of e^{i phi} d lambda|.
For a kicked run the gap at node i is 2 * amplitude of step i: nonzero
exactly at the steps the layout fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import KickTrain, Run, Strategy, xy_geodesic_schedule
from .su2 import _evolve_rows, _quat_identity, _quat_to_unitary
from .su2 import _phase_ramp  # noqa: F401  (wrapped by name in perfbench/tracer.py)


@dataclass(frozen=True)
class LZConfig(Run):
    """One two-level sweep: field from x_i to x_f over total time T.  The
    step grid and the checks on T, dt and kicks come from schedules.Run.
    Rejected before evolving, as LZ forms them: a linear sweep whose
    x^2 + eps^2 (at either end, and so on the path between them) or phase
    hypot(x, eps) T overflows, and kicks whose amplitude squared overflows.
    The geodesics read the field only through atan2(x, eps)."""

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
        for name in ("x_i", "x_f") if self.strategy is Strategy.LIN else ():
            x = getattr(self, name)
            if not math.isfinite(x * x + self.eps * self.eps):
                raise ValueError(f"{name}={x} with eps={self.eps} is too large: the "
                                 "generator x^2 + eps^2 overflows")
            # the steps accumulate the phase hypot(x, eps) T at most, twice
            # the sum of their angles
            if not math.isfinite(math.hypot(x, self.eps) * self.T):
                raise ValueError(f"{name}={x} with eps={self.eps} is too large for "
                                 f"T={self.T}: the phase hypot(x, eps) T overflows")
        if self.kicks is not None:
            # the kernel squares the kicked generator's amplitude area/dt_eff
            amp = float(self.layout()[2][0]) / self.dt_eff
            if not math.isfinite(amp * amp):
                raise ValueError(f"dt={self.dt} is too small for the kicks: the pulse "
                                 f"amplitude {amp} squared overflows")


@dataclass
class Trajectory:
    """Per-step diagnostics of one run, of length n_steps + 1, and its (2,) final state."""

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

    The rows come from Run.layout, as the chain's do: a continuous drive is
    sampled at every step's scaled time lam, and a kicked step idx carries
    amplitude area/dt_eff at the angle of its lam, every other a zero row.
    A continuous drive's (a, d) are sampled per chunk, from that chunk's
    lam, as the stepping loop asks for them, so the run holds no per-step
    table but lam; a kicked run builds the (a, d) of every step once.
    The linear sweep's gap takes the rows' rule at the nodes' lam = t/T.
    """
    idx, lam, area = cfg.layout()
    n, dt = cfg.n_steps, cfg.dt_eff
    psi0, target = (
        np.array([-math.sin(th / 2), math.cos(th / 2)], dtype=complex)
        for th in (math.atan2(cfg.x_i, cfg.eps), math.atan2(cfg.x_f, cfg.eps))
    )

    # the kernel's (a, d) of the rows at their lam, each chunk's built as the
    # kernel asks for it (kicked steps: a table of every step), and the gap
    # of the full (envelope-included) generator at the nodes
    times = np.arange(n + 1) * dt
    if cfg.strategy is not Strategy.LIN:
        # both geodesics follow x = eps tan(theta), theta affine in t/T;
        # LZConfig has rejected eps = 0
        th_i, th_f = xy_geodesic_schedule(cfg.x_i, cfg.x_f, cfg.eps)
    if cfg.strategy is Strategy.LIN:
        def sample(rows):
            d = -(cfg.x_i + (cfg.x_f - cfg.x_i) * lam[rows, None]) / 4
            return np.full_like(d, -cfg.eps / 4), d, dt
        x = cfg.x_i + (cfg.x_f - cfg.x_i) * (times / cfg.T)
        gap = np.sqrt(x * x + cfg.eps * cfg.eps)
    elif cfg.strategy is Strategy.GEO:
        def sample(rows):
            th = th_i + (th_f - th_i) * lam[rows, None]
            return -np.cos(th) / 4, -np.sin(th) / 4, dt
        gap = np.ones(n + 1)
    else:
        th, amp = th_i + (th_f - th_i) * lam, area / dt
        a, d, gap = np.zeros(n), np.zeros(n), np.zeros(n + 1)
        a[idx], d[idx], gap[idx] = -amp * np.cos(th) / 2, -amp * np.sin(th) / 2, 2.0 * amp

        def sample(rows):
            return a[rows, None], d[rows, None], dt

    fid = np.empty(n + 1)
    ph_re = np.empty(n + 1)
    ph_im = np.empty(n + 1)
    err = np.empty(n + 1)
    fid[0] = min(abs(np.vdot(target, psi0)) ** 2, 1.0)
    ph_re[0], ph_im[0] = 1.0, 0.0
    err[0] = 0.0

    def nodes(rows, prefix, phi, integral):
        sl = slice(rows.start + 1, rows.stop + 1)
        states = _quat_to_unitary(prefix[:, :, 0]) @ psi0
        fid[sl] = np.minimum(np.abs(states @ target.conj()) ** 2, 1.0)
        ph_re[sl] = np.cos(phi[:, 0])
        ph_im[sl] = np.sin(phi[:, 0])
        err[sl] = np.abs(integral[:, 0])

    carry, _ = _evolve_rows(sample, n, _quat_identity(1), dt / cfg.T, track_err=True,
                            nodes=nodes)
    psi = _quat_to_unitary(carry[:, 0]) @ psi0
    return Trajectory(times, fid, gap, ph_re, ph_im, err, psi)
