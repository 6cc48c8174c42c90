"""Exact 2x2 Hermitian / SU(2) kernels.

Every Hamiltonian in this package is a 2x2 Hermitian matrix written in Bloch
form H = c*I + d.sigma with a real scalar c and a real 3-vector d.  That
representation is exact (no basis truncation), and it makes the propagator
exp(-i H dt) available in closed form through cos/sin of |d|*dt, so the inner
time-stepping loops never touch a generic matrix exponential.

All functions here are pure; spinors are plain complex ndarrays of shape (2,)
and unitaries are complex ndarrays of shape (2, 2).

Both engines, a Landau-Zener sweep and every momentum mode of the chain,
step one traceless generator H = -2 (a Z + d X) with the vectorized kernel
below: step quaternions, their time-ordered product (a tree reduction, or
every prefix of it for a trajectory) and the adiabaticity-error terms
e^{i phi} _phase_ramp(dphi) dlambda of the piecewise-linear phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

IDENT = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SPIN_UP = np.array([1, 0], dtype=complex)
SPIN_DOWN = np.array([0, 1], dtype=complex)


@dataclass(frozen=True)
class Herm2:
    """2x2 Hermitian generator H = c*I + d[0]*X + d[1]*Y + d[2]*Z (energy units)."""

    c: float
    d: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.d, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"d must be a real 3-vector, got shape {vec.shape}")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "d", vec)

    def to_matrix(self) -> np.ndarray:
        dx, dy, dz = self.d
        return np.array(
            [[self.c + dz, dx - 1j * dy], [dx + 1j * dy, self.c - dz]],
            dtype=complex,
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Herm2":
        """Extract (c, d); exact inverse of to_matrix for Hermitian input."""
        m = np.asarray(m, dtype=complex)
        c = (m[0, 0].real + m[1, 1].real) / 2
        dz = (m[0, 0].real - m[1, 1].real) / 2
        dx = (m[0, 1].real + m[1, 0].real) / 2
        dy = (m[1, 0].imag - m[0, 1].imag) / 2
        return cls(c, np.array([dx, dy, dz]))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Gauge: rotate the global phase so the largest-magnitude amplitude is
    real and positive (ties broken by the first index, via argmax)."""
    idx = int(np.argmax(np.abs(v)))
    a = v[idx]
    if a == 0:
        return v
    return v * (np.conj(a) / abs(a))


def eig2(h: Herm2) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of H = c*I + d.sigma.

    Returns (e_minus, e_plus, ground, excited) with e_minus <= e_plus and the
    global phase of both spinors fixed by _fix_phase, so repeated calls on the
    same input are bitwise identical.  The degenerate case |d| = 0 returns the
    canonical basis (up, down) with both energies equal to c.
    """
    dx, dy, dz = h.d
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    if r == 0.0:
        return h.c, h.c, SPIN_UP.copy(), SPIN_DOWN.copy()
    # Pick the better-conditioned null-space expression for the ground state:
    # (d.sigma) v = -r v  =>  v ~ (-(dx - i dy), dz + r)  or  (dz - r, dx + i dy).
    if dz >= 0.0:
        g = np.array([-(dx - 1j * dy), dz + r], dtype=complex)
    else:
        g = np.array([dz - r, dx + 1j * dy], dtype=complex)
    g = g / np.linalg.norm(g)
    e = np.array([-np.conj(g[1]), np.conj(g[0])], dtype=complex)
    g = _fix_phase(g)
    e = _fix_phase(e)
    return h.c - r, h.c + r, g, e


def expm_herm2(h: Herm2, dt: float) -> np.ndarray:
    """exp(-i H dt) in closed form: e^{-ic dt} (cos(r dt) I - i sin(r dt) n.sigma)
    with r = |d|.  Unconditionally unitary; no series truncation."""
    dx, dy, dz = h.d
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    phase = np.exp(-1j * h.c * dt)
    if r == 0.0:
        return phase * IDENT
    ang = r * dt
    cs, sn = np.cos(ang), np.sin(ang)
    nmat = (dx * PAULI_X + dy * PAULI_Y + dz * PAULI_Z) / r
    return phase * (cs * IDENT - 1j * sn * nmat)


def su2_rotation(axis: np.ndarray, alpha: float) -> np.ndarray:
    """cos(alpha) I + i sin(alpha) (axis.sigma) = exp(+i alpha axis.sigma).

    axis must be a unit 3-vector to within 1e-9.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must be a real 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"axis must be unit length (|axis| = {norm!r})")
    nmat = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    return np.cos(alpha) * IDENT + 1j * np.sin(alpha) * nmat


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2; symmetric and global-phase invariant."""
    ov = np.vdot(a, b)
    f = float(ov.real * ov.real + ov.imag * ov.imag)
    return min(f, 1.0)


def expm_bloch_batch(dx, dy, dz, dt: float) -> np.ndarray:
    """Vectorized exp(-i (d.sigma) dt) for traceless generators.

    dx, dy, dz broadcast to a common shape S; returns an (S..., 2, 2) complex
    array of unitaries.  Entries with |d| = 0 yield exact identities.
    The engines do not call it (they step on the quaternion kernel below);
    it stays because the benchmark tracer, perfbench/tracer.py, wraps it by
    name and its self-test requires the name to exist.
    """
    dx, dy, dz = np.broadcast_arrays(np.asarray(dx, float), np.asarray(dy, float), np.asarray(dz, float))
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    ang = r * dt
    cs, sn = np.cos(ang), np.sin(ang)
    rs = np.where(r > 0.0, r, 1.0)
    ux, uy, uz = dx / rs, dy / rs, dz / rs
    live = r > 0.0
    out = np.zeros(dx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.where(live, cs - 1j * sn * uz, 1.0)
    out[..., 1, 1] = np.where(live, cs + 1j * sn * uz, 1.0)
    out[..., 0, 1] = np.where(live, -1j * sn * (ux - 1j * uy), 0.0)
    out[..., 1, 0] = np.where(live, -1j * sn * (ux + 1j * uy), 0.0)
    return out


# ---------------------------------------------------------------------------
# quaternion kernel for traceless generators H = -2 (a Z + d X)
# ---------------------------------------------------------------------------

# SU(2) elements are held as real quaternions (..., 4):
# U = q0 I + i (q1 X + q2 Y + q3 Z).  Composition then costs 16 real
# multiplies on float arrays instead of batched complex 2x2 products.
# Engines feed steps in chunks of _CHUNK; the tree product's bits depend on
# where the chunks end, so changing it changes results in the last place.
_CHUNK = 4096


def _quat_steps(a: np.ndarray, d: np.ndarray, dt: float) -> np.ndarray:
    """Step quaternions for exp(-i H dt), H = -2 (a Z + d X); shapes (..., 4).

    A generator H = dx X + dz Z is the case a = -dz/2, d = -dx/2 (exact
    power-of-two scaling).  Rows with a = d = 0 are exact identities.
    """
    r = np.sqrt(a * a + d * d)
    r *= 2.0
    ang = r * dt
    q = np.empty(a.shape + (4,))
    q[..., 0] = np.cos(ang)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.sin(ang) / r
    zero = r == 0.0
    if np.any(zero):
        f[zero] = dt  # sin(r dt)/r -> dt as r -> 0
    f *= 2.0
    q[..., 1] = f * d
    q[..., 2] = 0.0
    q[..., 3] = f * a
    return q


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(p0 + i p.sigma)(q0 + i q.sigma) = (p0 q0 - p.q) + i(p0 q + q0 p - p x q).sigma."""
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3
    out[..., 1] = p0 * q1 + q0 * p1 - (p2 * q3 - p3 * q2)
    out[..., 2] = p0 * q2 + q0 * p2 - (p3 * q1 - p1 * q3)
    out[..., 3] = p0 * q3 + q0 * p3 - (p1 * q2 - p2 * q1)
    return out


def _quat_identity(nmodes: int) -> np.ndarray:
    q = np.zeros((nmodes, 4))
    q[:, 0] = 1.0
    return q


def _quat_to_unitary(q: np.ndarray) -> np.ndarray:
    """(..., 4) quaternions -> (..., 2, 2) complex unitaries."""
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = q[..., 0] + 1j * q[..., 3]
    out[..., 1, 1] = q[..., 0] - 1j * q[..., 3]
    out[..., 0, 1] = q[..., 2] + 1j * q[..., 1]
    out[..., 1, 0] = -q[..., 2] + 1j * q[..., 1]
    return out


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """Reduce (S, M, 4) step quaternions to the time-ordered product
    steps[S-1] * ... * steps[0] per mode, by pairwise tree contraction
    (log(S) batched products instead of S Python-level ones)."""
    while steps.shape[0] > 1:
        s = steps.shape[0]
        half = s // 2
        merged = _quat_mul(steps[1 : 2 * half : 2], steps[0 : 2 * half : 2])
        if s % 2:
            steps = np.concatenate([merged, steps[-1:]], axis=0)
        else:
            steps = merged
    return steps[0]


def _prefix_product(steps: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """All time-ordered prefix products steps[j] * ... * steps[0] * carry,
    j = 0..S-1, of (S, ..., 4) step quaternions.

    Log-depth doubling scan (Blelloch, Prefix Sums and Their Applications,
    CMU-CS-90-190, 1990): after the pass with offset w, row j holds the
    product of rows max(0, j-2w+1)..j.  carry (shape (..., 4)) is the
    product of everything before steps[0].
    """
    w = 1
    while w < len(steps):
        steps = np.concatenate([steps[:w], _quat_mul(steps[w:], steps[:-w])])
        w *= 2
    return _quat_mul(steps, carry)


# ---------------------------------------------------------------------------
# adiabaticity-error accumulation
# ---------------------------------------------------------------------------


def _phase_ramp(dphi: np.ndarray) -> np.ndarray:
    """(e^{i dphi} - 1)/(i dphi), the exact mean of e^{i phi} over a segment
    on which phi grows linearly by dphi; series fallback near zero (exactly
    1 at dphi = 0)."""
    small = np.abs(dphi) < 1e-8
    safe = np.where(small, 1.0, dphi)
    out = (np.exp(1j * safe) - 1.0) / (1j * safe)
    return np.where(small, 1.0 + 1j * dphi / 2.0, out)


def _err_terms(phase0, dphi: np.ndarray, dlam):
    """Contributions of consecutive segments to integral of e^{i phi} d lambda.

    Axis 0 of dphi runs over segments: on segment j the phase difference phi
    grows linearly by dphi[j] across a lambda-width dlam[j] (a scalar, or an
    array broadcasting against dphi).  A segment with dphi = 0 is a frozen
    stretch.  Returns (terms, phi): terms[j] = e^{i phi_j} _phase_ramp(dphi[j])
    dlam[j], and phi, one row longer than dphi, the phase at every segment
    boundary starting from phase0.
    """
    phi = np.empty((len(dphi) + 1,) + dphi.shape[1:])
    phi[0] = phase0
    np.cumsum(dphi, axis=0, out=phi[1:])
    phi[1:] += phase0
    return np.exp(1j * phi[:-1]) * _phase_ramp(dphi) * dlam, phi
