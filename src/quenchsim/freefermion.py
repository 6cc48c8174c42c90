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

Every driving is a path sampler (a, d)(lambda) over the scaled time
lambda = t/T, plus, for kicked runs, the steps that Run.layout puts the
pulses in; the run is the only holder of T.  One loop, evolve_modes, runs
them all on the quaternion kernel of su2, which the Landau-Zener engine
shares: its rows are every grid step of a continuous drive or the layout's
entries of a kicked one, reduced by a time-ordered tree product per chunk of
rows.  The adiabaticity error is summed from su2._err_terms over the same
rows; the frozen stretch before a kicked row that does not follow its
predecessor, and after the last one, is a segment with no phase growth.
Per-(mode, rate) work is pure and can be farmed out to worker processes
with an ordered reduction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .schedules import Control, KickTrain, Run, Strategy, _xy_geodesic_angles
from .su2 import _CHUNK, _err_terms, _ordered_product, _quat_identity, _quat_mul
from .su2 import _quat_steps, _quat_to_unitary
from .su2 import _phase_ramp  # noqa: F401  (wrapped by name in perfbench/tracer.py)

_RAMP_PTS = 20001


class Regime(str, enum.Enum):
    """Which line of the phase diagram the sweep moves along."""

    ANISOTROPY = "anisotropy"  # vary gamma, |h| < 1 fixed
    GAPLESS = "gapless"        # vary gamma, h = 1 fixed
    ISING = "ising"            # vary h, gamma = 1 fixed


def momentum_grid(n_spins: int) -> np.ndarray:
    """k_m = (2m-1) pi / N for m = 1..N/2; requires even N >= 2."""
    if n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(f"n_spins must be even and >= 2, got {n_spins}")
    m = np.arange(1, n_spins // 2 + 1)
    return (2 * m - 1) * np.pi / n_spins


def excitation_prob(
    U: np.ndarray,
    k: float,
    gamma_f: float,
    h_f: float,
    gamma_i: float,
    h_i: float,
) -> float:
    """p_k = |<excited(final params)| U |ground(initial params)>|^2, with
    the ground state of the module docstring and the excited state
    (-sin(theta_k/2), cos(theta_k/2))."""
    th_i = math.atan2(gamma_i * math.sin(k), h_i - math.cos(k))
    th_f = math.atan2(gamma_f * math.sin(k), h_f - math.cos(k))
    g_i = np.array([math.cos(th_i / 2), math.sin(th_i / 2)], dtype=complex)
    e_f = np.array([-math.sin(th_f / 2), math.cos(th_f / 2)], dtype=complex)
    amp = np.vdot(e_f, U @ g_i)
    return float(min(abs(amp) ** 2, 1.0))


def defect_density(pk) -> float:
    """n = (1/N) sum_k p_k over the positive-k grid (= mean(p_k)/2)."""
    vals = np.asarray(pk, dtype=float)
    if vals.size == 0:
        raise ValueError("empty excitation-probability grid")
    return float(vals.mean() / 2.0)


@dataclass(frozen=True)
class ChainConfig(Run):
    """One chain quench: regime fixes which parameter varies.

    Gamma regimes (anisotropy, gapless) sweep gamma_i -> gamma_f at fixed
    h = h_i = h_f; the Ising regime sweeps h_i -> h_f at gamma = 1.  control
    gives the varying control's endpoints (p_i, p_f) and params(p) the
    (gamma, h) at control value p; every ramp of the control, linear or
    collective, is a sampler of that map.  For the
    geodesic strategy, collective_geodesic selects one shared control ramp
    with constant speed under the summed mode metric (default) instead of an
    independent constant-speed schedule per mode.  The step grid and the
    checks on T, dt and kicks come from schedules.Run; a run on per-mode
    geodesics is checked on every mode, so h = cos k fails before evolving.
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
        super().__post_init__()
        ks = momentum_grid(self.n_spins)
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
        if self.on_mode_geodesics:
            _mode_geodesic_angles(self, ks)

    @property
    def varies_h(self) -> bool:
        return self.regime is Regime.ISING

    @property
    def on_mode_geodesics(self) -> bool:
        """Per-mode GEO, or GEO_JUMP: the kicks sample each mode's geodesic."""
        return self.strategy is Strategy.GEO_JUMP or (
            self.strategy is Strategy.GEO and not self.collective_geodesic)

    @property
    def control(self) -> tuple[float, float]:
        """(p_i, p_f) of the varying control: h on the Ising line, gamma otherwise."""
        return (self.h_i, self.h_f) if self.varies_h else (self.gamma_i, self.gamma_f)

    def params(self, p):
        """(gamma, h) at control value p (scalar or array)."""
        return (self.gamma_i, p) if self.varies_h else (p, self.h_i)

    def params_at(self, frac):
        """(gamma, h) under the *linear* ramp at scaled time frac in [0, 1]."""
        p_i, p_f = self.control
        return self.params(p_i + (p_f - p_i) * np.asarray(frac, dtype=float))


@dataclass
class DefectResult:
    """Excitation probability pk[m] of each mode ks[m], and their defect density."""

    ks: np.ndarray
    pk: np.ndarray
    n_defect: float


# ---------------------------------------------------------------------------
# collective geodesic ramp
# ---------------------------------------------------------------------------


def collective_geodesic_ramp(cfg: ChainConfig) -> Callable:
    """Return fn(frac) -> the collective control at scaled time frac in
    [0, 1], moving at constant speed under the summed Fubini-Study metric of
    all momentum modes (arc length tabulated on the control, interpolated)."""
    ks = momentum_grid(cfg.n_spins)
    s, c = np.sin(ks), np.cos(ks)
    p_i, p_f = cfg.control
    grid = np.linspace(min(p_i, p_f), max(p_i, p_f), _RAMP_PTS)
    gamma, h = cfg.params(grid[:, None])
    a, d = h - c, gamma * s
    e2 = a * a + d * d
    # (e2 dtheta/dp)^2: d^2 when h varies, (a sin k)^2 when gamma does
    g = 0.25 * (d if cfg.varies_h else a * s) ** 2 / (e2 * e2)
    w = np.sqrt(g.sum(axis=1))
    arclen = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))])

    def ramp(frac):
        frac = np.clip(np.asarray(frac, dtype=float), 0.0, 1.0)
        target = arclen[-1] * (frac if p_i <= p_f else 1.0 - frac)
        return np.interp(target, arclen, grid)

    return ramp


# ---------------------------------------------------------------------------
# evolution engines
# ---------------------------------------------------------------------------


def _mode_geodesic_angles(cfg: ChainConfig, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode affine angle endpoints (theta_i, theta_f) for geodesic paths."""
    mode, fixed = (Control.FIELD, cfg.gamma_i) if cfg.varies_h else (Control.ANISOTROPY, cfg.h_i)
    return _xy_geodesic_angles(ks, mode, *cfg.control, fixed)


def _bloch_components(cfg: ChainConfig, ks: np.ndarray) -> Callable:
    """Return fn(frac (S,)) -> (a, d) arrays of shape (S, M), where
    H_k = -2 (a Z + d X), on the path of cfg's strategy: the linear or the
    collective arc-length ramp of the varying control, or the per-mode
    geodesics (per-mode GEO, and the kick angles of GEO_JUMP), on which the
    mixing angle of each mode is affine in the scaled time frac."""
    s, c = np.sin(ks), np.cos(ks)
    if cfg.on_mode_geodesics:
        th_i, th_f = _mode_geodesic_angles(cfg, ks)

        def geodesic(frac):
            th = th_i[None, :] + (th_f - th_i)[None, :] * frac[:, None]
            if cfg.varies_h:
                # field convention: tan(theta) = (h - cos k)/sin k
                return s[None, :] * np.tan(th), np.broadcast_to(cfg.gamma_i * s, th.shape)
            # anisotropy convention: tan(theta) = gamma sin k / a
            a = cfg.h_i - c
            return np.broadcast_to(a, th.shape), a[None, :] * np.tan(th)

        return geodesic
    # the varying control: the collective arc-length ramp, or the linear one
    ramp = collective_geodesic_ramp(cfg) if cfg.strategy is Strategy.GEO else None

    def fn(frac):
        frac = frac[:, None]
        gamma, h = cfg.params(ramp(frac)) if ramp else cfg.params_at(frac)
        return np.broadcast_arrays(h - c, gamma * s)

    return fn


def _kick_product(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Time-ordered product over kicks of exp(+i pi E_j n_j.sigma) for
    H_j = -2 (a_j Z + d_j X) and pulse area pi/2; a, d have shape (n_kicks, M)."""
    return _quat_to_unitary(_ordered_product(_quat_steps(a, d, np.pi / 2)))


def evolve_modes(cfg: ChainConfig, ks: np.ndarray | None = None, track_err: bool = False):
    """Evolve every momentum mode; returns (U of shape (M, 2, 2), err or None).

    The rows are every grid step of a continuous drive, or the entries of
    the kick layout (Run.layout), each sampled on the drive's path at
    its scaled time and acting for its own area.  Single-sample kicks
    thereby reduce to the ordered SU(2) kick product, with no dependence on
    T.  Between kicked rows the generator vanishes: the phase is frozen
    there and the error integral grows by e^{i phi} per unit lambda.
    """
    if ks is None:
        ks = momentum_grid(cfg.n_spins)
    ks = np.asarray(ks, dtype=float)
    nmodes = len(ks)
    fn = _bloch_components(cfg, ks)
    dt = cfg.dt_eff
    dlam = dt / cfg.T
    n_rows = cfg.n_steps
    if cfg.kicks is not None:
        idx, lam, area = cfg.layout()
        n_rows = len(idx)
        # frozen stretches: one before each row that does not follow its
        # predecessor, and one after the last row
        end_lam = idx * dt / cfg.T + dlam
        jump = idx != np.append(0, idx[:-1] + 1)
        gap = idx * dt / cfg.T - np.append(0.0, end_lam[:-1])
    Uq = _quat_identity(nmodes)
    phase = np.zeros(nmodes)
    integral = np.zeros(nmodes, dtype=complex)
    for start in range(0, n_rows, _CHUNK):
        ns = min(_CHUNK, n_rows - start)
        if cfg.kicks is None:
            frac, h = (start + np.arange(ns) + 0.5) * dt / cfg.T, dt
        else:
            rows = slice(start, start + ns)
            frac, h = lam[rows], area[rows, None]
        a, d = fn(frac)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            bad = np.argwhere(~(np.isfinite(a) & np.isfinite(d)))[0]
            raise RuntimeError(
                f"non-finite control at row {start + bad[0]}, mode index {bad[1]}"
            )
        Uq = _quat_mul(_ordered_product(_quat_steps(a, d, h)), Uq)
        if track_err:
            # E0 - E1 = -4 E_k per unit time
            dphi, w = -4.0 * np.hypot(a, d) * h, dlam
            if cfg.kicks is not None:
                at = np.flatnonzero(jump[rows])
                dphi = np.insert(dphi, at, 0.0, axis=0)
                w = np.insert(np.full(ns, dlam), at, gap[rows][at])[:, None]
            terms, phi = _err_terms(phase, dphi, w)
            integral += terms.sum(axis=0)
            phase = phi[-1]
    if track_err and cfg.kicks is not None:
        terms, _ = _err_terms(phase, np.zeros((1, nmodes)), 1.0 - end_lam[-1])
        integral += terms[0]
    return _quat_to_unitary(Uq), (np.abs(integral) if track_err else None)


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
    return DefectResult(ks, pk, defect_density(pk)), err
