"""Momentum-mode dynamics of the XY / transverse-field Ising chain.

With periodic boundaries and even fermion parity the chain splits into
independent two-level problems, one per momentum k = (2m-1) pi / N.  Each mode
carries the Bloch Hamiltonian

    H_k = -2 (a_k Z + delta_k X),   a_k = h - cos k,   delta_k = gamma sin k,

whose ground state is (cos(theta_k/2), sin(theta_k/2)) with the quadrant-aware
mixing angle theta_k = atan2(delta_k, a_k).  Defect density is the momentum
average of the per-mode excitation probabilities divided by two, i.e. the
uniform-grid form of (1/2pi) * integral of p_k over (0, pi).

Three drivings are supported per mode: a linear parameter ramp, a geodesic
ramp (either one constant-FS-speed schedule per mode, or a single collective
control whose speed is constant under the summed metric of all modes), and a
kicked geodesic in which the Hamiltonian is multiplied by a train of
area-pi/2 square pulses.  When the pulse width equals the time step the pulses
act as single-sample kicks and the evolution reduces, exactly, to an ordered
product of SU(2) rotations with kick angles pi * E_k(theta_j); that product
contains no time variable, so excitation probabilities are then strictly
independent of the quench rate.

Evolution across modes is vectorized on the quaternion kernel of su2, which
the Landau-Zener engine shares: step quaternions reduced by a time-ordered
tree product per chunk of steps.  The adiabaticity error of every driving is
summed from su2._err_terms segments; the frozen stretch between two kicks is
a segment with no phase growth.  Per-(mode, rate) work is pure and can be
farmed out to worker processes with an ordered reduction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .schedules import Control, KickTrain, Strategy, _xy_geodesic_angles
from .su2 import _CHUNK, Herm2, _err_terms, _ordered_product, _quat_identity, _quat_mul
from .su2 import _quat_steps, _quat_to_unitary
from .su2 import _phase_ramp  # noqa: F401  (wrapped by name in perfbench/tracer.py)

_RAMP_PTS = 20001


class Regime(str, enum.Enum):
    """Which line of the phase diagram the sweep moves along."""

    ANISOTROPY = "anisotropy"  # vary gamma, |h| < 1 fixed
    GAPLESS = "gapless"        # vary gamma, h = 1 fixed
    ISING = "ising"            # vary h, gamma = 1 fixed


@dataclass(frozen=True)
class KMode:
    """Static data of one momentum sector at parameters (gamma, h)."""

    k: float
    a_k: float
    delta_k: float
    theta_k: float
    e_k: float


def kmode(k: float, gamma: float, h: float) -> KMode:
    a = h - math.cos(k)
    d = gamma * math.sin(k)
    return KMode(k, a, d, math.atan2(d, a), math.hypot(a, d))


def momentum_grid(n_spins: int) -> np.ndarray:
    """k_m = (2m-1) pi / N for m = 1..N/2; requires even N >= 2."""
    if n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(f"n_spins must be even and >= 2, got {n_spins}")
    m = np.arange(1, n_spins // 2 + 1)
    return (2 * m - 1) * np.pi / n_spins


def kmode_hamiltonian(k: float, gamma: float, h: float) -> Herm2:
    """H_k = -2 (a_k Z + delta_k X)."""
    mode = kmode(k, gamma, h)
    return Herm2(0.0, np.array([-2 * mode.delta_k, 0.0, -2 * mode.a_k]))


def ground_excited(k: float, gamma: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic ground / excited spinors of H_k."""
    th = kmode(k, gamma, h).theta_k
    g = np.array([math.cos(th / 2), math.sin(th / 2)], dtype=complex)
    e = np.array([-math.sin(th / 2), math.cos(th / 2)], dtype=complex)
    return g, e


def excitation_prob(
    U: np.ndarray,
    k: float,
    gamma_f: float,
    h_f: float,
    gamma_i: float,
    h_i: float,
) -> float:
    """p_k = |<excited(final params)| U |ground(initial params)>|^2."""
    g_i, _ = ground_excited(k, gamma_i, h_i)
    _, e_f = ground_excited(k, gamma_f, h_f)
    amp = np.vdot(e_f, U @ g_i)
    return float(min(abs(amp) ** 2, 1.0))


def defect_density(pk) -> float:
    """n = (1/N) sum_k p_k over the positive-k grid (= mean(p_k)/2)."""
    if isinstance(pk, Mapping):
        vals = np.array(list(pk.values()), dtype=float)
    else:
        vals = np.asarray(pk, dtype=float)
    if vals.size == 0:
        raise ValueError("empty excitation-probability grid")
    return float(vals.mean() / 2.0)


@dataclass(frozen=True)
class ChainConfig:
    """One chain quench: regime fixes which parameter varies.

    Gamma regimes (anisotropy, gapless) sweep gamma_i -> gamma_f at fixed
    h = h_i = h_f; the Ising regime sweeps h_i -> h_f at gamma = 1.  For the
    geodesic strategy, collective_geodesic selects one shared control ramp
    with constant speed under the summed mode metric (default) instead of an
    independent constant-speed schedule per mode.
    """

    n_spins: int
    regime: Regime
    gamma_i: float
    gamma_f: float
    h_i: float
    h_f: float
    T: float
    dt: float
    strategy: Strategy = Strategy.LIN
    kicks: KickTrain | None = None
    collective_geodesic: bool = True

    def __post_init__(self):
        if self.n_spins < 2 or self.n_spins % 2 != 0:
            raise ValueError(f"n_spins must be even and >= 2, got {self.n_spins}")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError(f"need T > 0 and dt > 0, got T={self.T}, dt={self.dt}")
        if (self.kicks is not None) != (self.strategy is Strategy.GEO_JUMP):
            raise ValueError("kicks must be given exactly when strategy is geojump")
        if self.kicks is not None and abs(self.kicks.T - self.T) > 1e-9 * self.T:
            raise ValueError(f"kick train spans T={self.kicks.T}, run spans T={self.T}")
        if self.regime is Regime.ISING:
            if self.gamma_i != 1.0 or self.gamma_f != 1.0:
                raise ValueError(
                    "ising regime fixes gamma = 1; got "
                    f"gamma_i={self.gamma_i}, gamma_f={self.gamma_f}"
                )
        else:
            if self.h_i != self.h_f:
                raise ValueError(
                    f"{self.regime.value} regime fixes h; got h_i={self.h_i}, h_f={self.h_f}"
                )
            if self.regime is Regime.GAPLESS and self.h_i != 1.0:
                raise ValueError(f"gapless regime requires h = 1, got h={self.h_i}")
            if self.regime is Regime.ANISOTROPY and abs(self.h_i) >= 1.0:
                raise ValueError(f"anisotropy regime requires |h| < 1, got h={self.h_i}")

    @property
    def varies_h(self) -> bool:
        return self.regime is Regime.ISING

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def dt_eff(self) -> float:
        return self.T / self.n_steps

    def params_at(self, frac):
        """(gamma, h) under the *linear* ramp at scaled time frac in [0, 1]."""
        frac = np.asarray(frac, dtype=float)
        if self.varies_h:
            return self.gamma_i, self.h_i + (self.h_f - self.h_i) * frac
        return self.gamma_i + (self.gamma_f - self.gamma_i) * frac, self.h_i


@dataclass
class DefectResult:
    """Excitation probabilities per mode and their defect density."""

    pk: dict
    n_defect: float
    rate: float


# ---------------------------------------------------------------------------
# collective geodesic ramp
# ---------------------------------------------------------------------------


class ArcLengthRamp:
    """Single control value(t) moving at constant speed under the summed
    Fubini-Study metric of all momentum modes (tabulated and interpolated)."""

    def __init__(self, values: np.ndarray, arclen: np.ndarray, p_i: float, p_f: float, T: float):
        self._values = values
        self._arclen = arclen
        self.p_i = p_i
        self.p_f = p_f
        self.T = T

    def value(self, t):
        frac = np.clip(np.asarray(t, dtype=float) / self.T, 0.0, 1.0)
        total = self._arclen[-1]
        if self.p_i <= self.p_f:
            target = total * frac
        else:
            target = total * (1.0 - frac)
        return np.interp(target, self._arclen, self._values)


def collective_geodesic_ramp(cfg: ChainConfig) -> ArcLengthRamp:
    """Tabulate the arc-length parameterization of the varying control."""
    ks = momentum_grid(cfg.n_spins)
    s, c = np.sin(ks), np.cos(ks)
    if cfg.varies_h:
        p_i, p_f = cfg.h_i, cfg.h_f
        grid = np.linspace(min(p_i, p_f), max(p_i, p_f), _RAMP_PTS)
        a = grid[:, None] - c[None, :]
        e2 = a * a + (cfg.gamma_i * s[None, :]) ** 2
        g = 0.25 * (cfg.gamma_i * s[None, :]) ** 2 / (e2 * e2)
    else:
        p_i, p_f = cfg.gamma_i, cfg.gamma_f
        grid = np.linspace(min(p_i, p_f), max(p_i, p_f), _RAMP_PTS)
        a = cfg.h_i - c
        e2 = a[None, :] ** 2 + (grid[:, None] * s[None, :]) ** 2
        g = 0.25 * (s[None, :] * a[None, :]) ** 2 / (e2 * e2)
    w = np.sqrt(g.sum(axis=1))
    arclen = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))])
    return ArcLengthRamp(grid, arclen, p_i, p_f, cfg.T)


# ---------------------------------------------------------------------------
# evolution engines
# ---------------------------------------------------------------------------


def _mode_geodesic_angles(cfg: ChainConfig, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode affine angle endpoints (theta_i, theta_f) for geodesic paths."""
    if cfg.varies_h:
        return _xy_geodesic_angles(ks, Control.FIELD, cfg.h_i, cfg.h_f, cfg.gamma_i)
    return _xy_geodesic_angles(ks, Control.ANISOTROPY, cfg.gamma_i, cfg.gamma_f, cfg.h_i)


def _geodesic_components(cfg: ChainConfig, ks: np.ndarray) -> Callable:
    """Return fn(frac (S,)) -> (a, d) arrays of shape (S, M) on the per-mode
    geodesics, the mixing angle of each mode affine in the scaled time frac."""
    s, c = np.sin(ks), np.cos(ks)
    th_i, th_f = _mode_geodesic_angles(cfg, ks)

    def fn(frac):
        th = th_i[None, :] + (th_f - th_i)[None, :] * frac[:, None]
        if cfg.varies_h:
            # field convention: tan(theta) = (h - cos k)/sin k
            return s[None, :] * np.tan(th), np.broadcast_to(cfg.gamma_i * s, th.shape)
        # anisotropy convention: tan(theta) = gamma sin k / a
        a = cfg.h_i - c
        return np.broadcast_to(a, th.shape), a[None, :] * np.tan(th)

    return fn


def _bloch_components(cfg: ChainConfig, ks: np.ndarray) -> Callable:
    """Return fn(frac (S,)) -> (a, d) arrays of shape (S, M) for the continuous
    strategies, where H_k = -2 (a Z + d X)."""
    if cfg.strategy not in (Strategy.LIN, Strategy.GEO):
        raise ValueError(f"no continuous path for strategy {cfg.strategy}")
    if cfg.strategy is Strategy.GEO and not cfg.collective_geodesic:
        return _geodesic_components(cfg, ks)
    # the varying control: linear ramp, or the collective arc-length ramp
    ramp = collective_geodesic_ramp(cfg) if cfg.strategy is Strategy.GEO else None
    s = np.sin(ks)
    c = np.cos(ks)

    def fn(frac):
        if ramp is None:
            p = cfg.params_at(frac)[1 if cfg.varies_h else 0]
        else:
            p = ramp.value(frac * cfg.T)
        if cfg.varies_h:
            return p[:, None] - c[None, :], np.broadcast_to(cfg.gamma_i * s, (len(frac), len(ks)))
        return np.broadcast_to(cfg.h_i - c, (len(frac), len(ks))), p[:, None] * s[None, :]

    return fn


def _evolve_continuous(cfg: ChainConfig, ks: np.ndarray, track_err: bool):
    """Full time stepping for LIN / GEO; returns (U (M,2,2), err or None)."""
    nmodes = len(ks)
    fn = _bloch_components(cfg, ks)
    n = cfg.n_steps
    dt = cfg.dt_eff
    Uq = _quat_identity(nmodes)
    phase = np.zeros(nmodes)
    integral = np.zeros(nmodes, dtype=complex)
    dlam = dt / cfg.T
    for start in range(0, n, _CHUNK):
        ns = min(_CHUNK, n - start)
        frac = (start + np.arange(ns) + 0.5) * dt / cfg.T
        a, d = fn(frac)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            bad = np.argwhere(~(np.isfinite(a) & np.isfinite(d)))[0]
            raise RuntimeError(
                f"non-finite control at step {start + bad[0]}, mode index {bad[1]}"
            )
        Uq = _quat_mul(_ordered_product(_quat_steps(a, d, dt)), Uq)
        if track_err:
            # E0 - E1 = -4 E_k per unit time
            terms, phi = _err_terms(phase, -4.0 * np.hypot(a, d) * dt, dlam)
            integral += terms.sum(axis=0)
            phase = phi[-1]
    return _quat_to_unitary(Uq), (np.abs(integral) if track_err else None)


def _kick_parameters(cfg: ChainConfig, ks: np.ndarray):
    """(a, d) arrays of shape (n_kicks, M) sampled on the per-mode geodesic at
    the scaled kick midpoints (2j-1)/(2n).

    The scaled positions are built directly from the kick count, not from
    kick_times / T, so the result carries no trace of T at all (single-sample
    kick runs are bitwise identical across quench rates).
    """
    nk = cfg.kicks.n_kicks
    return _geodesic_components(cfg, ks)((2 * np.arange(1, nk + 1) - 1) / (2 * nk))


def _kick_product(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Time-ordered product over kicks of exp(+i pi E_j n_j.sigma) for
    H_j = -2 (a_j Z + d_j X) and pulse area pi/2; a, d have shape (n_kicks, M)."""
    return _quat_to_unitary(_ordered_product(_quat_steps(a, d, np.pi / 2)))


def _evolve_kicked(cfg: ChainConfig, ks: np.ndarray, track_err: bool):
    """Kicked-geodesic evolution.

    Pulse width equal to the requested step cfg.dt (or smaller) is treated
    as a single-sample kick at every T, also where T/dt rounds up and the
    actual step dt_eff = T/round(T/dt) falls below cfg.dt (see
    KickTrain.single_sample): the full pi/2 area acts in the step
    containing the kick time, with the geodesic angle evaluated at the kick
    time itself.  The resulting operator is exactly the ordered SU(2) kick
    product and carries no dependence on T.  Wider pulses are integrated
    step by step with midpoint-sampled envelope and angle, which restores
    rate dependence.  Between pulses the generator vanishes: the phase is
    frozen there and the error integral grows by e^{i phi} per unit lambda.
    """
    kt = cfg.kicks
    dt = cfg.dt_eff
    nmodes = len(ks)
    if kt.single_sample(cfg.dt, dt):
        a, d = _kick_parameters(cfg, ks)
        U = _kick_product(a, d)
        err = None
        if track_err:
            # segments: gap, pulse, gap, ..., pulse, gap
            start = kt.containing_steps(dt, cfg.n_steps) * dt / cfg.T
            end = start + dt / cfg.T
            dphi = np.zeros((2 * kt.n_kicks + 1, nmodes))
            dphi[1::2] = -2.0 * np.pi * np.hypot(a, d)  # -2 alpha_kj per kick
            dlam = np.empty((2 * kt.n_kicks + 1, 1))
            dlam[0::2, 0] = np.append(start, 1.0) - np.append(0.0, end)
            dlam[1::2, 0] = dt / cfg.T
            terms, _ = _err_terms(0.0, dphi, dlam)
            err = np.abs(terms.sum(axis=0))
        return U, err

    # finite-width pulses: enumerate the steps whose midpoints fall in windows
    geo = _geodesic_components(cfg, ks)
    Uq = _quat_identity(nmodes)
    phase = np.zeros(nmodes)
    integral = np.zeros(nmodes, dtype=complex)
    end_lam = 0.0
    amp = kt.amplitude
    for t0 in kt.kick_times:
        i0 = int(np.ceil(t0 / dt - 0.5))
        i1 = int(np.ceil((t0 + kt.delta_t) / dt - 0.5))
        i0, i1 = max(i0, 0), min(i1, cfg.n_steps)
        if i1 <= i0:
            continue
        a, d = geo((np.arange(i0, i1) + 0.5) * dt / cfg.T)
        Uq = _quat_mul(_ordered_product(_quat_steps(amp * a, amp * d, dt)), Uq)
        if track_err:
            # segments: the gap since the previous pulse, then this pulse's steps
            dphi = np.zeros((i1 - i0 + 1, nmodes))
            dphi[1:] = -4.0 * amp * np.hypot(a, d) * dt
            dlam = np.full((i1 - i0 + 1, 1), dt / cfg.T)
            dlam[0] = i0 * dt / cfg.T - end_lam
            terms, phi = _err_terms(phase, dphi, dlam)
            integral += terms.sum(axis=0)
            phase, end_lam = phi[-1], i1 * dt / cfg.T
    err = None
    if track_err:
        terms, _ = _err_terms(phase, np.zeros((1, nmodes)), 1.0 - end_lam)
        err = np.abs(integral + terms[0])
    return _quat_to_unitary(Uq), err


def evolve_modes(cfg: ChainConfig, ks: np.ndarray | None = None, track_err: bool = False):
    """Evolve every momentum mode; returns (U of shape (M, 2, 2), err or None)."""
    if ks is None:
        ks = momentum_grid(cfg.n_spins)
    ks = np.asarray(ks, dtype=float)
    if cfg.strategy is Strategy.GEO_JUMP:
        return _evolve_kicked(cfg, ks, track_err)
    return _evolve_continuous(cfg, ks, track_err)


def evolve_mode_stepwise(k: float, cfg: ChainConfig) -> np.ndarray:
    """Propagator of a single momentum mode under cfg (2x2 unitary)."""
    U, _ = evolve_modes(cfg, np.array([k]))
    return U[0]


def evolve_mode_kicks_exact(k: float, theta_seq: np.ndarray, gamma: float) -> np.ndarray:
    """Ordered product of SU(2) kick rotations on the field-sweep line.

    For angles tan(theta_j) = (h_j - cos k)/sin k the j-th kick is
    cos(alpha_j) I + i sin(alpha_j) n_j.sigma with
    alpha_j = pi sin k sqrt(gamma^2 + tan^2 theta_j) and
    n_j = (gamma, 0, tan theta_j)/sqrt(gamma^2 + tan^2 theta_j).
    No time discretization enters; theta_j = +-pi/2 is rejected.
    """
    theta_seq = np.asarray(theta_seq, dtype=float)
    bad = np.abs(np.cos(theta_seq)) < 1e-12
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"theta_seq[{j}] = {theta_seq[j]} lies on a tan pole")
    s = math.sin(k)
    a = s * np.tan(theta_seq)[:, None]
    d = np.full_like(a, gamma * s)
    return _kick_product(a, d)[0]


def run_chain(cfg: ChainConfig, track_err: bool = False):
    """Evolve all modes and assemble the defect-density result.

    Returns (DefectResult, err) where err is the per-mode adiabaticity error
    array when track_err is set, else None.
    """
    ks = momentum_grid(cfg.n_spins)
    U, err = evolve_modes(cfg, ks, track_err=track_err)
    th_if = np.arctan2(cfg.gamma_i * np.sin(ks), cfg.h_i - np.cos(ks))
    th_ff = np.arctan2(cfg.gamma_f * np.sin(ks), cfg.h_f - np.cos(ks))
    g_i = np.stack([np.cos(th_if / 2), np.sin(th_if / 2)], axis=1).astype(complex)
    e_f = np.stack([-np.sin(th_ff / 2), np.cos(th_ff / 2)], axis=1).astype(complex)
    amp = np.einsum("mi,mij,mj->m", e_f.conj(), U, g_i)
    pk = np.minimum(np.abs(amp) ** 2, 1.0)
    result = DefectResult(
        pk={float(k): float(p) for k, p in zip(ks, pk)},
        n_defect=float(pk.mean() / 2.0),
        rate=1.0 / cfg.T,
    )
    return result, err
