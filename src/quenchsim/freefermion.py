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
lambda = t/T, read at the rows Run.layout gives both engines (every step's
midpoint, or the steps the pulses act in); the run is the only holder of T.
evolve_modes runs them through su2._evolve_rows, the stepping loop the
Landau-Zener engine shares, and reads only the end of each mode's product.
Modes never mix, so evolve_modes builds the cell's sampler and rows once
and runs the loop on contiguous blocks of at least two modes, few enough
that a chunk of one block stays small, spread over threads (numpy releases
the GIL inside its ufuncs) and joined in mode order.  Every operation is
elementwise in the mode, or a reduction over rows that numpy runs row by
row on any block of two or more modes, so U and the error are bitwise the
same for any block count and any thread count.
A run uses the process's usable CPUs unless told otherwise; per-(mode, rate)
work is pure, so cells can also be farmed out to worker processes with an
ordered reduction.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .schedules import KickTrain, Run, Strategy, xy_geodesic_schedule
from .su2 import (_CHUNK, _evolve_rows, _NonFiniteControl, _quat_identity, _quat_to_unitary,
                  expm_bloch_batch)
# wrapped by name in perfbench/tracer.py
from .su2 import _ordered_product, _phase_ramp, _quat_mul, _quat_steps  # noqa: F401

_RAMP_PTS = 20001
# (rows x modes) entries, 1 MB a float slab, of a mode block's chunk or a ramp table block
_BLOCK_ELEMS = 1 << 17


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (os.cpu_count() ignores it), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class Regime(str, enum.Enum):
    """Which line of the phase diagram the sweep moves along."""

    ANISOTROPY = "anisotropy"  # vary gamma, |h| < 1 fixed
    GAPLESS = "gapless"        # vary gamma, h = 1 fixed
    ISING = "ising"            # vary h, gamma = 1 fixed


def momentum_grid(n_spins: int) -> np.ndarray:
    """k_m = (2m-1) pi / N for m = 1..N/2; requires an even integer N >= 2."""
    if not isinstance(n_spins, (int, np.integer)) or n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(f"n_spins must be an even integer >= 2, got {n_spins}")
    m = np.arange(1, n_spins // 2 + 1)
    return (2 * m - 1) * np.pi / n_spins


def excitation_prob(
    U: np.ndarray,
    k: float | np.ndarray,
    gamma_f: float,
    h_f: float,
    gamma_i: float,
    h_i: float,
) -> float | np.ndarray:
    """p_k = |<excited(final params)| U |ground(initial params)>|^2, with
    the ground state of the module docstring and the excited state
    (-sin(theta_k/2), cos(theta_k/2)), for one momentum k and U of shape
    (2, 2), or for an array of M momenta and U of shape (M, 2, 2)."""
    th_i = np.arctan2(gamma_i * np.sin(k), h_i - np.cos(k))
    th_f = np.arctan2(gamma_f * np.sin(k), h_f - np.cos(k))
    g_i = np.stack([np.cos(th_i / 2), np.sin(th_i / 2)], axis=-1).astype(complex)
    e_f = np.stack([-np.sin(th_f / 2), np.cos(th_f / 2)], axis=-1).astype(complex)
    amp = np.einsum("...i,...ij,...j->...", e_f.conj(), U, g_i)
    return np.minimum(np.abs(amp) ** 2, 1.0)


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
    gives the varying control's endpoints (p_i, p_f), and generator(p, s, c)
    the (a, d) of the modes with sin k = s, cos k = c at control value p;
    every path samples that one map, a ramp at the ramped p and a per-mode
    geodesic at its ends.  For the geodesic strategy, collective_geodesic
    selects one shared control ramp with constant speed under the summed
    mode metric (default) instead of an independent constant-speed schedule
    per mode.  Regime(...) converts regime first; schedules.Run converts
    strategy and checks T, dt and kicks, and momentum_grid n_spins.  Rejected
    before evolving: a control whose generator a^2 + d^2 overflows on some
    mode at either end, and so on the path between them; a continuous drive
    whose phase 4 |(a, d)| T overflows; per-mode geodesics on a gamma line
    with h = cos k on some mode; and a collective geodesic whose (a^2 + d^2)^2
    overflows at either end, or on which some mode's (a, d) passes through
    (0, 0), where the gap closes and the summed metric diverges.
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
        object.__setattr__(self, "regime", Regime(self.regime))
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
        # |a| and |d| peak at an end of every path: the linear and the
        # collective ramps move the control monotonically, and a per-mode
        # geodesic moves theta along an arc that crosses no tan pole
        name, s, c = "h" if self.varies_h else "gamma", np.sin(ks), np.cos(ks)
        collective = self.strategy is Strategy.GEO and self.collective_geodesic
        ends = [self.generator(p, s, c) for p in self.control]
        for end, p, (a, d) in zip("if", self.control, ends):
            with np.errstate(over="ignore"):
                e2 = a * a + d * d
                if not np.all(np.isfinite(e2)):
                    raise ValueError(f"{name}_{end}={p} is too large: the generator "
                                     "a^2 + d^2 overflows")
                if collective and not np.all(np.isfinite(e2 * e2)):
                    raise ValueError(f"{name}_{end}={p} is too large for the collective "
                                     "geodesic: (a^2 + d^2)^2 overflows")
            # the steps of a continuous drive accumulate the phase 4 |(a, d)| T
            # at most, twice the sum of their angles; a kicked row's is
            # 4 |(a, d)| area with area at most pi/2, which cannot overflow
            if self.kicks is None and not math.isfinite(4.0 * math.sqrt(e2.max()) * self.T):
                raise ValueError(f"{name}_{end}={p} is too large for T={self.T}: the phase "
                                 "4 |(a, d)| T of the steps overflows")
        # (a, d) is affine in the control: a collective path is the segment between its ends
        (a_i, d_i), (a_f, d_f) = ends
        closed = (a_i * d_f == a_f * d_i) & (a_i * a_f + d_i * d_f <= 0)
        if collective and np.any(closed):
            raise ValueError(f"the gap closes at k={float(ks[np.argmax(closed)])!r} between "
                             f"{name}_i and {name}_f: no collective geodesic crosses it")
        bad = np.abs(a_i) < 1e-12  # a per-mode geodesic on a gamma line holds a fixed
        if self.on_mode_geodesics and not self.varies_h and np.any(bad):
            raise ValueError(
                f"h = cos(k) = {float(c[np.argmax(bad)])}: anisotropy mixing angle undefined")

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

    def generator(self, p, s, c):
        """(a, d) = (h - cos k, gamma sin k) at control value p on the modes
        with sin k = s and cos k = c (arrays broadcast): H_k = -2 (a Z + d X)."""
        gamma, h = (self.gamma_i, p) if self.varies_h else (p, self.h_i)
        return h - c, gamma * s


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
    w = np.empty(_RAMP_PTS)
    # blocks of grid rows bound the (rows, M) tables; each row sums along
    # its own contiguous axis, so the blocking does not change w
    step = max(1, _BLOCK_ELEMS // len(ks))
    for lo in range(0, _RAMP_PTS, step):
        a, d = cfg.generator(grid[lo : lo + step, None], s, c)
        e2 = a * a + d * d
        # (e2 dtheta/dp)^2: d^2 when h varies, (a sin k)^2 when gamma does
        num = 0.25 * (d if cfg.varies_h else a * s) ** 2
        # a term that is exactly 0 stays 0 where (a^2 + d^2)^2 underflows
        g = np.divide(num, e2 * e2, out=np.zeros(e2.shape), where=num != 0)
        w[lo : lo + step] = np.sqrt(g.sum(axis=1))
    arclen = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))])

    def ramp(frac):
        target = arclen[-1] * (frac if p_i <= p_f else 1.0 - frac)
        return np.interp(target, arclen, grid)

    return ramp


# ---------------------------------------------------------------------------
# evolution engines
# ---------------------------------------------------------------------------


def _mode_geodesic_angles(cfg: ChainConfig, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode angle endpoints (theta_i, theta_f) between cfg.generator's ends:
    a = d tan(theta) at fixed d on the field line, d = a tan(theta) on the gamma lines."""
    s, c = np.sin(ks), np.cos(ks)
    (a_i, d_i), (a_f, d_f) = (cfg.generator(p, s, c) for p in cfg.control)
    return xy_geodesic_schedule(*((a_i, a_f, d_i) if cfg.varies_h else (d_i, d_f, a_i)))


def _bloch_components(cfg: ChainConfig, ks: np.ndarray) -> Callable:
    """Return fn(frac (S,), cols=slice(None)) -> (a, d) arrays of shape
    (S, len(ks[cols])), where H_k = -2 (a Z + d X), on the path of cfg's
    strategy: the per-mode geodesics (per-mode GEO, and the kick angles of
    GEO_JUMP), on which the mixing angle of each mode is affine in the
    scaled time frac, or else cfg.generator at the varying control that a
    ramp of frac gives, the linear p_i + (p_f - p_i) frac or the collective
    arc-length ramp.  cols picks a contiguous block of modes; the tables
    behind fn are built once, here, for all of them."""
    s, c = np.sin(ks), np.cos(ks)
    if cfg.on_mode_geodesics:
        th_i, th_f = _mode_geodesic_angles(cfg, ks)
        dth = th_f - th_i
        # the generator's fixed component: d on the field line, a on the gamma lines
        fixed = cfg.generator(cfg.control[0], s, c)[1 if cfg.varies_h else 0]

        def geodesic(frac, cols=slice(None)):
            th = th_i[None, cols] + dth[None, cols] * frac[:, None]
            x, y = np.broadcast_to(fixed[cols], th.shape), fixed[None, cols] * np.tan(th)
            return (y, x) if cfg.varies_h else (x, y)

        return geodesic
    p_i, p_f = cfg.control
    ramp = (collective_geodesic_ramp(cfg) if cfg.strategy is Strategy.GEO
            else lambda frac: p_i + (p_f - p_i) * frac)

    def fn(frac, cols=slice(None)):
        return np.broadcast_arrays(*cfg.generator(ramp(frac[:, None]), s[cols], c[cols]))

    return fn


def _kick_product(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Time-ordered product over kicks of exp(+i pi E_j n_j.sigma) for
    H_j = -2 (a_j Z + d_j X) and pulse area pi/2, a and d of shape (n_kicks, M),
    on complex 2x2 steps: it shares no code with the engine's quaternion kernel."""
    return reduce(lambda U, step: step @ U, expm_bloch_batch(-2.0 * d, 0.0, -2.0 * a, np.pi / 2))


def evolve_modes(cfg: ChainConfig, *, track_err: bool = False, threads: int | None = None):
    """Evolve every momentum mode; returns (U of shape (M, 2, 2), err or None).

    The rows are those of Run.layout, every grid step of a continuous
    drive or the steps a kick acts in, each sampled on the drive's path at
    its scaled time and acting for its own area.  On the empty steps around
    kicked rows the generator vanishes: the phase is frozen there and the
    error integral grows by e^{i phi} per unit lambda.  The rows are built
    once per cell.

    The modes run in contiguous blocks of at least two modes, at least one
    per thread (threads=None: the process's usable CPUs) and enough that a
    chunk of one holds about _BLOCK_ELEMS (rows x modes), on min(threads,
    blocks) threads; U and err are bitwise the same for every count.  A
    non-finite control is reported at its smallest row, then smallest mode.
    """
    idx, lam, area = cfg.layout()
    nmodes, n_rows = cfg.n_spins // 2, len(lam)
    fn = _bloch_components(cfg, momentum_grid(cfg.n_spins))
    dlam = cfg.dt_eff / cfg.T
    frozen = None if idx is None else (np.diff(idx, prepend=-1, append=cfg.n_steps) - 1) * dlam

    def block(cols: slice):
        """su2._evolve_rows on the modes cols: (quaternions, err or None), or its error."""
        def sample(rows):
            return (*fn(lam[rows], cols), area if idx is None else area[rows, None])

        try:
            Uq, integral = _evolve_rows(sample, n_rows, _quat_identity(cols.stop - cols.start),
                                        dlam, track_err, frozen, col0=cols.start)
        except _NonFiniteControl as e:
            return e
        return Uq, (np.abs(integral) if track_err else None)

    threads = threads or _usable_cpus()
    nblocks = max(1, min(nmodes // 2,
                         max(threads, math.ceil(nmodes * min(n_rows, _CHUNK) / _BLOCK_ELEMS))))
    ends = [nmodes * i // nblocks for i in range(nblocks + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    if min(threads, nblocks) == 1:
        # in the calling thread: on a pool thread, one-thread per-mode
        # geodesic cells (a sweep worker's) peaked 13% higher in RSS
        parts = [block(b) for b in blocks]
    else:
        # imported here: at module level it costs every process 0.6 MB
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(threads, nblocks)) as pool:
            parts = list(pool.map(block, blocks))
    failed = [part for part in parts if isinstance(part, _NonFiniteControl)]
    if failed:
        # what one block of every mode raises: the smallest (row, mode)
        raise min(failed, key=lambda e: e.at)
    U = _quat_to_unitary(np.concatenate([uq for uq, _ in parts], axis=1))
    return U, (np.concatenate([err for _, err in parts]) if track_err else None)


def evolve_mode_kicks_exact(k: float, theta_seq: np.ndarray, gamma: float) -> np.ndarray:
    """Ordered product of SU(2) kick rotations on the field-sweep line.

    For angles tan(theta_j) = (h_j - cos k)/sin k the j-th kick is
    cos(alpha_j) I + i sin(alpha_j) n_j.sigma with
    alpha_j = pi sin k sqrt(gamma^2 + tan^2 theta_j) and
    n_j = (gamma, 0, tan theta_j)/sqrt(gamma^2 + tan^2 theta_j).
    No time discretization enters; theta_j = +-pi/2 is rejected.

    Kept only as perfbench's rate-free reference (workloads._exact_kick_density)
    until the benchmark has its own oracle; the tests use oracles.kick_product.
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


def run_chain(cfg: ChainConfig, track_err: bool = False, threads: int | None = None):
    """Evolve all modes and assemble the defect-density result.

    Returns (DefectResult, err) where err is the per-mode adiabaticity error
    array when track_err is set, else None.  threads is passed on to
    evolve_modes (None: the process's usable CPUs); the result does not
    depend on it.
    """
    ks = momentum_grid(cfg.n_spins)
    U, err = evolve_modes(cfg, track_err=track_err, threads=threads)
    pk = excitation_prob(U, ks, cfg.gamma_f, cfg.h_f, cfg.gamma_i, cfg.h_i)
    return DefectResult(ks, pk, defect_density(pk)), err
