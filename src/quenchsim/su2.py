"""The SU(2) kernel and the one stepping loop both engines run on.

Both engines, a Landau-Zener sweep and every momentum mode of the chain,
step one traceless generator H = -2 (a Z + d X).  _evolve_rows is their
one chunk loop: an engine hands it a sampler of (a, d) over rows and reads
either the end of the product (the chain: a tree reduction and a summed
error) or every node of it (a trajectory: a prefix scan and a running
error).  Every operation of the loop acts on each mode separately, so a
caller bounds its memory by handing it few modes at a time (the chain's
mode blocks).  Under the loop lies the vectorized kernel: step
quaternions, their time-ordered products and the adiabaticity-error terms
of the piecewise-linear phase: e^{i phi_mid} _phase_ramp(dphi) dlambda per
row, phi_mid the phase at the row's middle, and e^{i phi} per unit lambda
of a frozen stretch.  The propagator exp(-i H dt) of each step is closed
form, through cos/sin of |H| dt, so no loop touches a generic matrix
exponential.  A quaternion array has its component axis first, (4, ...):
a chunk of steps is (4, S, M) and a carried product (4, M), so every ufunc
of the kernel runs over one contiguous (S, M) slab per component.

Besides the kernel only expm_bloch_batch, the complex 2x2 form of the same
step, lives here, for freefermion._kick_product's rate-free kick reference.
"""

from __future__ import annotations

import numpy as np


def expm_bloch_batch(dx, dy, dz, dt: float) -> np.ndarray:
    """Vectorized exp(-i (d.sigma) dt) for traceless generators.

    dx, dy, dz broadcast to a common shape S; returns an (S..., 2, 2) complex
    array of unitaries.  Entries with |d| = 0 yield exact identities.
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

# SU(2) elements are held as real quaternions, component axis first (4, ...):
# U = q[0] I + i (q[1] X + q[2] Y + q[3] Z).  Composition then costs 16 real
# multiplies on contiguous component slabs instead of batched complex 2x2
# products.  _evolve_rows feeds steps in chunks of _CHUNK; the tree product's
# bits depend on where the chunks end, so changing it changes results in the
# last place.  A chunk of M modes holds (4, _CHUNK, M) steps and their tree
# levels at once; freefermion sizes its mode blocks to keep that small.
_CHUNK = 4096


def _quat_steps(a: np.ndarray, d: np.ndarray, dt) -> np.ndarray:
    """Step quaternions for exp(-i H dt), H = -2 (a Z + d X); shape (4,) + a.shape.

    dt is one step for all rows, or an array of per-row areas broadcasting
    against a.  Rows with a = d = 0 are exact identities.
    """
    r = np.sqrt(a * a + d * d)
    r *= 2.0
    ang = r * dt
    q = np.empty((4,) + a.shape)
    np.cos(ang, out=q[0])
    f = np.sin(ang, out=ang)
    with np.errstate(invalid="ignore", divide="ignore"):
        f /= r
    zero = r == 0.0
    if np.any(zero):
        f[zero] = np.broadcast_to(dt, f.shape)[zero]  # sin(r dt)/r -> dt as r -> 0
    f *= 2.0
    np.multiply(f, d, out=q[1])
    q[2] = 0.0
    np.multiply(f, a, out=q[3])
    return q


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(p0 + i p.sigma)(q0 + i q.sigma) = (p0 q0 - p.q) + i(p0 q + q0 p - p x q).sigma.

    p and q are (4, ...) and broadcast past the component axis.  Each
    component is built in place in the fixed association
    ((p0 q0 - p1 q1) - p2 q2) - p3 q3 and (p0 qi + q0 pi) - (pj qk - pk qj),
    with two scratch slabs, so its bits do not depend on the layout.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    shape = np.broadcast_shapes(p0.shape, q0.shape)
    out = np.empty((4,) + shape)
    t, u = np.empty(shape), np.empty(shape)
    o = np.multiply(p0, q0, out=out[0])
    for pk, qk in ((p1, q1), (p2, q2), (p3, q3)):
        o -= np.multiply(pk, qk, out=t)
    for o, pi, qi, pj, qj, pk, qk in ((out[1], p1, q1, p2, q2, p3, q3),
                                      (out[2], p2, q2, p3, q3, p1, q1),
                                      (out[3], p3, q3, p1, q1, p2, q2)):
        np.multiply(p0, qi, out=o)
        o += np.multiply(q0, pi, out=t)
        np.multiply(pj, qk, out=t)
        t -= np.multiply(pk, qj, out=u)
        o -= t
    return out


def _quat_identity(nmodes: int) -> np.ndarray:
    q = np.zeros((4, nmodes))
    q[0] = 1.0
    return q


def _quat_to_unitary(q: np.ndarray) -> np.ndarray:
    """(4, ...) quaternions -> (..., 2, 2) complex unitaries."""
    out = np.empty(q.shape[1:] + (2, 2), dtype=complex)
    out[..., 0, 0] = q[0] + 1j * q[3]
    out[..., 1, 1] = q[0] - 1j * q[3]
    out[..., 0, 1] = q[2] + 1j * q[1]
    out[..., 1, 0] = -q[2] + 1j * q[1]
    return out


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """Reduce (4, S, M) step quaternions to the (4, M) time-ordered product
    steps[:, S-1] * ... * steps[:, 0] per mode, by pairwise tree contraction
    (log(S) batched products instead of S Python-level ones)."""
    while steps.shape[1] > 1:
        s = steps.shape[1]
        half = s // 2
        merged = _quat_mul(steps[:, 1 : 2 * half : 2], steps[:, 0 : 2 * half : 2])
        if s % 2:
            steps = np.concatenate([merged, steps[:, -1:]], axis=1)
        else:
            steps = merged
    return steps[:, 0]


def _prefix_product(steps: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """All time-ordered prefix products steps[:, j] * ... * steps[:, 0] * carry,
    j = 0..S-1, of (4, S, ...) step quaternions.

    Log-depth doubling scan (Blelloch, Prefix Sums and Their Applications,
    CMU-CS-90-190, 1990): after the pass with offset w, row j holds the
    product of rows max(0, j-2w+1)..j.  carry (shape (4, ...)) is the
    product of everything before steps[:, 0].
    """
    w = 1
    while w < steps.shape[1]:
        steps = np.concatenate([steps[:, :w], _quat_mul(steps[:, w:], steps[:, :-w])], axis=1)
        w *= 2
    return _quat_mul(steps, carry)


# ---------------------------------------------------------------------------
# adiabaticity-error accumulation
# ---------------------------------------------------------------------------


def _phase_ramp(dphi: np.ndarray) -> np.ndarray:
    """sin(dphi/2)/(dphi/2), exactly 1 at dphi = 0: with e^{i dphi/2} it is
    (e^{i dphi} - 1)/(i dphi), the exact mean of e^{i phi} over a segment on
    which phi grows linearly by dphi, without that form's cancellation."""
    return np.sinc(dphi / (2 * np.pi))


def _err_terms(phase0, dphi: np.ndarray, dlam, after=None):
    """Contributions of consecutive segments to integral of e^{i phi} d lambda.

    Axis 0 of dphi runs over rows: on row j the phase difference phi grows
    linearly by dphi[j] across a lambda-width dlam (a scalar, or an array
    that broadcasts to dphi's shape), and after[j], when given, is the
    width of the frozen stretch that follows row j.  Returns (terms, phi):
    terms[j] = e^{i (phi_j + dphi[j]/2)} _phase_ramp(dphi[j]) dlam
    + e^{i phi_{j+1}} after[j], and phi, one row longer than dphi, the phase
    at every row boundary starting from phase0.
    """
    phi = np.empty((len(dphi) + 1,) + dphi.shape[1:])
    phi[0] = phase0
    np.cumsum(dphi, axis=0, out=phi[1:])
    phi[1:] += phase0
    terms = np.exp(1j * (phi[:-1] + 0.5 * dphi))
    terms *= _phase_ramp(dphi) * dlam
    if after is not None:
        terms += np.exp(1j * phi[1:]) * after
    return terms, phi


# ---------------------------------------------------------------------------
# the stepping loop
# ---------------------------------------------------------------------------


class _NonFiniteControl(RuntimeError):
    """A sampler gave a non-finite a or d; at = (row, global mode index)."""

    def __init__(self, row: int, mode: int):
        super().__init__(f"non-finite control at row {row}, mode index {mode}")
        self.at = (row, mode)


def _evolve_rows(sample, n_rows: int, carry: np.ndarray, dlam: float, track_err: bool = False,
                 frozen=None, nodes=None, col0: int = 0):
    """Step rows 0..n_rows-1 onto carry (4, M), _CHUNK rows at a time;
    returns (carry, integral) at the end, the integral (M,) and zero unless
    track_err.

    sample(rows) gives (a, d, h) of the slice rows: (S, M) generators and
    the span h of each step, a scalar or (S, 1) areas.  Over a row E0 - E1
    grows by -4 |(a, d)| h and lambda by dlam.  frozen, n_rows + 1 entries,
    is the lambda-width of a stretch with no phase growth before the first
    row and then after each row (0: none); each adds e^{i phi} times its
    width to the integral.  A non-finite a or d raises _NonFiniteControl
    before any step of its chunk is built, at its first row, then column
    (+ col0 for the global mode index).

    nodes(rows, prefix, phi, integral), when given, gets the product (back
    on |q| = 1), the phase and the integral after every row, all (.., S, M);
    it needs track_err and no frozen.  Without it only the end is built: a
    tree product and a summed error.
    """
    phase = np.zeros(carry.shape[1:])
    integral = np.zeros(carry.shape[1:], dtype=complex)
    if track_err and frozen is not None:
        integral += frozen[0]  # phi = 0 before the first row
    for start in range(0, n_rows, _CHUNK):
        rows = slice(start, min(start + _CHUNK, n_rows))
        a, d, h = sample(rows)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            bad = np.argwhere(~(np.isfinite(a) & np.isfinite(d)))[0]
            raise _NonFiniteControl(start + int(bad[0]), col0 + int(bad[1]))
        if nodes is None:
            carry = _quat_mul(_ordered_product(_quat_steps(a, d, h)), carry)
        else:
            prefix = _prefix_product(_quat_steps(a, d, h), carry)
            # back onto |q| = 1: reassociated products drift the norm
            # systematically (-7.9e-12 over 1e6 steps of a linear sweep)
            q0, q1, q2, q3 = prefix
            prefix /= np.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
            carry = prefix[:, -1]
        if not track_err:
            continue
        after = None if frozen is None else frozen[start + 1 : rows.stop + 1, None]
        terms, phi = _err_terms(phase, -4.0 * np.hypot(a, d) * h, dlam, after)
        phase = phi[-1]
        if nodes is None:
            # numpy sums along rows row by row when M >= 2, but an (S, 1)
            # column pairwise, in other last bits: so a caller that splits
            # the modes keeps the bits with blocks at least two modes wide
            integral += terms.sum(axis=0)
        else:
            cum = integral + np.cumsum(terms, axis=0)
            integral = cum[-1]
            nodes(rows, prefix, phi[1:], cum)
    return carry, integral
