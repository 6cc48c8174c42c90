"""Tests for the 2x2 Bloch-form kernels (su2.py)."""

import mpmath
import numpy as np
import pytest

from quenchsim.su2 import (
    _CHUNK,
    _err_terms,
    _evolve_rows,
    _NonFiniteControl,
    _ordered_product,
    _phase_ramp,
    _prefix_product,
    _quat_identity,
    _quat_mul,
    _quat_steps,
    _quat_to_unitary,
    expm_bloch_batch,
)

from oracles import (
    IDENT,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPIN_DOWN,
    SPIN_UP,
    Herm2,
    eig2,
    expm_herm2,
    fidelity,
    ordered_product_interleaved,
    prefix_product_interleaved,
    quat_steps_interleaved,
    su2_rotation,
)


def random_herm2(rng):
    return Herm2(rng.uniform(-2, 2), rng.uniform(-3, 3, size=3))


class TestHerm2:
    def test_matrix_roundtrip_is_identity(self):
        """Reconstructing the dense matrix and re-extracting (c, d) recovers
        the input to within one rounding unit (no truncation anywhere)."""
        rng = np.random.RandomState(7)
        for _ in range(50):
            h = random_herm2(rng)
            back = Herm2.from_matrix(h.to_matrix())
            np.testing.assert_allclose(back.c, h.c, rtol=5e-16, atol=1e-18)
            np.testing.assert_allclose(back.d, h.d, rtol=5e-16, atol=1e-18)

    def test_matrix_layout(self):
        h = Herm2(0.5, np.array([1.0, 2.0, 3.0]))
        expected = 0.5 * IDENT + PAULI_X + 2 * PAULI_Y + 3 * PAULI_Z
        assert np.allclose(h.to_matrix(), expected)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Herm2(0.0, np.zeros(2))


class TestEig2:
    def test_minus_z_ground_is_up(self):
        """H = -Z has ground state |up> at energy -1."""
        em, ep, g, e = eig2(Herm2(0.0, np.array([0.0, 0.0, -1.0])))
        assert em == pytest.approx(-1.0)
        assert ep == pytest.approx(1.0)
        assert np.allclose(g, SPIN_UP)

    def test_x_ground_is_antisymmetric(self):
        """H = X ground state is (|up> - |down>)/sqrt(2) up to the gauge."""
        em, _, g, _ = eig2(Herm2(0.0, np.array([1.0, 0.0, 0.0])))
        assert em == pytest.approx(-1.0)
        assert fidelity(g, (SPIN_UP - SPIN_DOWN) / np.sqrt(2)) == pytest.approx(1.0)

    def test_345_against_dense_solver(self):
        """c=0, d=(3,0,4) has e = +-5; ground matches numpy's dense eigensolver."""
        h = Herm2(0.0, np.array([3.0, 0.0, 4.0]))
        em, ep, g, e = eig2(h)
        assert em == pytest.approx(-5.0)
        assert ep == pytest.approx(5.0)
        vals, vecs = np.linalg.eigh(h.to_matrix())
        assert vals[0] == pytest.approx(em)
        assert fidelity(g, vecs[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(e, vecs[:, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_eigen_consistency(self):
        """||H v - e v|| < 1e-11 for both eigenpairs on random inputs."""
        rng = np.random.RandomState(11)
        for _ in range(100):
            h = random_herm2(rng)
            em, ep, g, e = eig2(h)
            m = h.to_matrix()
            assert np.linalg.norm(m @ g - em * g) < 1e-11
            assert np.linalg.norm(m @ e - ep * e) < 1e-11
            assert abs(np.vdot(g, e)) < 1e-12

    def test_gauge_is_deterministic(self):
        """Two calls on the same input give bitwise-identical spinors."""
        h = Herm2(0.3, np.array([0.7, -0.2, 0.5]))
        _, _, g1, e1 = eig2(h)
        _, _, g2, e2 = eig2(h)
        assert np.array_equal(g1, g2)
        assert np.array_equal(e1, e2)

    def test_gauge_largest_amplitude_real_positive(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            _, _, g, e = eig2(random_herm2(rng))
            for v in (g, e):
                top = v[np.argmax(np.abs(v))]
                assert top.imag == pytest.approx(0.0, abs=1e-15)
                assert top.real > 0

    def test_degenerate_returns_canonical_basis(self):
        em, ep, g, e = eig2(Herm2(0.7, np.zeros(3)))
        assert em == ep == 0.7
        assert np.array_equal(g, SPIN_UP)
        assert np.array_equal(e, SPIN_DOWN)


def truncated_series(h: Herm2, dt: float, order: int = 12) -> np.ndarray:
    """Independent oracle: truncated Taylor series of exp(-i H dt)."""
    m = -1j * h.to_matrix() * dt
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, order + 1):
        term = term @ m / n
        out = out + term
    return out


class TestExpmHerm2:
    def test_zero_hamiltonian_gives_identity(self):
        assert np.array_equal(expm_herm2(Herm2(0.0, np.zeros(3)), 2.3), IDENT)

    def test_half_x_pi_is_minus_ix(self):
        """exp(-i pi X/2) = -iX."""
        u = expm_herm2(Herm2(0.0, np.array([0.5, 0.0, 0.0])), np.pi)
        assert np.allclose(u, -1j * PAULI_X, atol=1e-15)

    def test_matches_series_oracle(self):
        """Random (c, d), dt=0.37: matches the 12th-order series to 1e-10.

        Draws are kept at ||H dt|| < 1 so the oracle's own truncation tail
        (||H dt||^13 / 13!) stays below the tolerance.
        """
        rng = np.random.RandomState(5)
        for _ in range(20):
            h = Herm2(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1, size=3))
            u = expm_herm2(h, 0.37)
            assert np.abs(u - truncated_series(h, 0.37)).max() < 1e-10

    def test_unitarity(self):
        """||U^dag U - I||_max < 1e-12 for any generator and step."""
        rng = np.random.RandomState(13)
        for _ in range(100):
            h = random_herm2(rng)
            u = expm_herm2(h, rng.uniform(-5, 5))
            assert np.abs(u.conj().T @ u - IDENT).max() < 1e-12
            assert abs(abs(np.linalg.det(u)) - 1) < 1e-12

    def test_composition_same_generator(self):
        """U(a) U(b) = U(a + b) to 1e-11."""
        rng = np.random.RandomState(17)
        for _ in range(30):
            h = random_herm2(rng)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = expm_herm2(h, a) @ expm_herm2(h, b)
            assert np.abs(lhs - expm_herm2(h, a + b)).max() < 1e-11


class TestSu2Rotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(su2_rotation(np.array([0.0, 0.0, 1.0]), 0.0), IDENT)

    def test_x_axis_quarter_turn(self):
        """alpha = pi/2 about x gives iX, mapping |up> to i|down>."""
        u = su2_rotation(np.array([1.0, 0.0, 0.0]), np.pi / 2)
        assert np.allclose(u, 1j * PAULI_X, atol=1e-15)
        assert np.allclose(u @ SPIN_UP, 1j * SPIN_DOWN, atol=1e-15)

    def test_matches_expm_oracle(self):
        """Rotation about (gamma, 0, tan th)/norm equals exp(+i alpha axis.sigma)."""
        gamma, th = 1.0, np.pi / 4
        axis = np.array([gamma, 0.0, np.tan(th)])
        axis /= np.linalg.norm(axis)
        alpha = 0.8
        u = su2_rotation(axis, alpha)
        oracle = expm_herm2(Herm2(0.0, -axis), alpha)
        assert np.abs(u - oracle).max() < 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            su2_rotation(np.array([1.0, 0.0, 1.0]), 0.5)


class TestFidelity:
    def test_self_is_one(self):
        psi = np.array([0.6, 0.8j])
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert fidelity(SPIN_UP, SPIN_DOWN) == 0.0

    def test_equal_superposition_is_half(self):
        plus = (SPIN_UP + SPIN_DOWN) / np.sqrt(2)
        assert fidelity(SPIN_UP, plus) == pytest.approx(0.5)

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.RandomState(23)
        for _ in range(20):
            a = rng.randn(2) + 1j * rng.randn(2)
            b = rng.randn(2) + 1j * rng.randn(2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            f = fidelity(a, b)
            assert f == pytest.approx(fidelity(b, a))
            assert f == pytest.approx(fidelity(a * np.exp(0.7j), b))
            assert 0.0 <= f <= 1.0


class TestExpmBlochBatch:
    def test_matches_scalar_expm(self):
        rng = np.random.RandomState(29)
        dx, dy, dz = rng.uniform(-2, 2, size=(3, 6))
        batch = expm_bloch_batch(dx, dy, dz, 0.4)
        for i in range(6):
            single = expm_herm2(Herm2(0.0, np.array([dx[i], dy[i], dz[i]])), 0.4)
            assert np.abs(batch[i] - single).max() < 1e-14

    def test_zero_generator_rows_are_identity(self):
        batch = expm_bloch_batch(np.array([0.0, 1.0]), 0.0, np.array([0.0, 0.5]), 1.1)
        assert np.array_equal(batch[0], IDENT)


def bloch_steps(dx, dz, dt):
    """Unitaries exp(-i (dx X + dz Z) dt) from the quaternion kernel, which
    takes H = -2 (a Z + d X): a = -dz/2, d = -dx/2."""
    return _quat_to_unitary(_quat_steps(-np.asarray(dz) / 2, -np.asarray(dx) / 2, dt))


def random_quats(rng, shape):
    """(4,) + shape unit quaternions with q2 = 0, as the kernel's step
    quaternions are."""
    a, d = rng.uniform(-2, 2, size=(2,) + shape)
    return _quat_steps(a, d, rng.uniform(0.1, 1.0))


class TestQuatSteps:
    def test_matches_scalar_expm(self):
        rng = np.random.RandomState(29)
        dx, _, dz = rng.uniform(-2, 2, size=(3, 6))  # the kernel has no Y component
        batch = bloch_steps(dx, dz, 0.4)
        for i in range(6):
            single = expm_herm2(Herm2(0.0, np.array([dx[i], 0.0, dz[i]])), 0.4)
            assert np.abs(batch[i] - single).max() < 1e-14

    def test_zero_generator_rows_are_identity(self):
        batch = bloch_steps(np.array([0.0, 1.0]), np.array([0.0, 0.5]), 1.1)
        assert np.array_equal(batch[0], IDENT)


def sequential_products(steps, carry):
    """steps[:, j] ... steps[:, 0] carry for every j, one product at a time."""
    out, acc = [], carry
    for q in np.moveaxis(steps, 1, 0):
        acc = _quat_mul(q, acc)
        out.append(acc)
    return np.stack(out, axis=1)


class TestProducts:
    @pytest.mark.parametrize("length", [1, 2, 7, 64, 1001])
    def test_prefix_product_matches_sequential(self, length):
        rng = np.random.RandomState(length)
        steps = random_quats(rng, (length, 3))
        carry = random_quats(rng, (3,))
        ref = sequential_products(steps, carry)
        assert np.abs(_prefix_product(steps, carry) - ref).max() < 1e-13

    @pytest.mark.parametrize("length", [1, 2, 7, 64, 1001])
    def test_ordered_product_is_last_prefix(self, length):
        rng = np.random.RandomState(100 + length)
        steps = random_quats(rng, (length, 3))
        ref = sequential_products(steps, _quat_identity(3))[:, -1]
        assert np.abs(_ordered_product(steps) - ref).max() < 1e-13

    def test_product_order_is_later_on_the_left(self):
        """The product of two steps is the unitary U1 @ U0."""
        rng = np.random.RandomState(5)
        steps = random_quats(rng, (2, 1))
        U = _quat_to_unitary(steps)
        prod = _quat_to_unitary(_prefix_product(steps, _quat_identity(1)))
        assert np.abs(prod[1] - U[1] @ U[0]).max() < 1e-15


def interleaved(q):
    """(4, ...) component-first quaternions as (..., 4)."""
    return np.moveaxis(q, 0, -1)


def assert_same_bits(new, ref):
    """Equal values with the same sign of every zero."""
    assert new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert np.array_equal(np.signbit(new), np.signbit(ref))


def generators(rng, shape):
    """(a, d) of the given shape, with some rows a = d = 0 (identity steps)
    and some d = -0.0, whose sign the step quaternion carries."""
    a, d = rng.uniform(-3, 3, size=(2,) + shape)
    a[:: max(1, shape[0] // 5)] = 0.0
    d[:: max(1, shape[0] // 5)] = 0.0
    d[1 :: 7] = -0.0
    return a, d


class TestComponentFirstKernel:
    """The component-first kernel gives the bits of the interleaved one in
    tests/oracles.py: steps, tree products and prefix scans."""

    SHAPES = [(4096, 125), (4095, 7), (1, 1), (1001,)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_steps(self, shape):
        rng = np.random.RandomState(sum(shape))
        a, d = generators(rng, shape)
        assert_same_bits(interleaved(_quat_steps(a, d, 0.37)),
                         quat_steps_interleaved(a, d, 0.37))

    @pytest.mark.parametrize("shape", [(4096, 125), (7, 3), (1, 1)], ids=str)
    def test_steps_with_per_row_areas(self, shape):
        """Kicked rows each act for their own area: dt is an (S, 1) array."""
        rng = np.random.RandomState(7 + sum(shape))
        a, d = generators(rng, shape)
        area = rng.uniform(0.0, np.pi / 2, size=(shape[0], 1))
        area[::3] = np.pi / 2
        assert_same_bits(interleaved(_quat_steps(a, d, area)),
                         quat_steps_interleaved(a, d, area))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_ordered_product(self, shape):
        rng = np.random.RandomState(11 + sum(shape))
        a, d = generators(rng, shape)
        area = rng.uniform(0.0, 1.0, size=(shape[0],) + (1,) * (len(shape) - 1))
        new = _ordered_product(_quat_steps(a, d, area))
        ref = ordered_product_interleaved(quat_steps_interleaved(a, d, area))
        assert_same_bits(interleaved(new), ref)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_prefix_product_with_carry(self, shape):
        rng = np.random.RandomState(13 + sum(shape))
        a, d = generators(rng, shape)
        carry = random_quats(rng, (1,) + shape[1:])[:, 0]
        carry[2] = rng.uniform(-1, 1, size=shape[1:])  # not a step: q2 != 0
        new = _prefix_product(_quat_steps(a, d, 0.21), carry)
        ref = prefix_product_interleaved(quat_steps_interleaved(a, d, 0.21), interleaved(carry))
        assert_same_bits(interleaved(new), ref)


class TestErrTerms:
    def test_phase_ramp_is_exactly_one_at_zero(self):
        assert _phase_ramp(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_one_segment_matches_40_digits(self):
        """One segment from phase 0, e^{i x/2} _phase_ramp(x), against
        (e^{ix} - 1)/(ix) at 40 digits for x = 0 and +-10^-12 .. 10^2:
        within 5e-16 absolute.  The quotient itself, evaluated in floats,
        cancels digits for small x (5e-9 off near x = 1e-8)."""
        x = np.logspace(-12, 2, 281)
        x = np.concatenate([-x, [0.0], x])
        terms, _ = _err_terms(0.0, x[None, :], 1.0)
        with mpmath.workdps(40):
            ref = [complex(mpmath.expm1(1j * mpmath.mpf(v)) / (1j * mpmath.mpf(v))) if v else 1.0
                   for v in x]
        assert np.abs(terms[0] - ref).max() < 5e-16

    def test_a_frozen_stretch_adds_its_width_at_the_phase_after_its_row(self):
        dphi, after = np.array([[0.5], [-1.25]]), np.array([[0.25], [0.0]])
        with_after, phi = _err_terms(0.3, dphi, 0.1, after)
        without, same_phi = _err_terms(0.3, dphi, 0.1)
        assert np.array_equal(phi, same_phi) and with_after[1] == without[1]
        assert abs(with_after[0] - without[0] - np.exp(1j * phi[1]) * 0.25) < 1e-16

    def test_frozen_segments_add_their_widths(self):
        """dphi = 0 everywhere: each term is e^{i phase0} dlam exactly."""
        dlam = np.array([[0.25], [0.5], [0.125]])
        terms, phi = _err_terms(np.array([0.3]), np.zeros((3, 1)), dlam)
        assert np.array_equal(terms, np.exp(0.3j) * dlam)
        assert np.array_equal(phi, np.full((4, 1), 0.3))

    def test_linear_phase_integrates_exactly(self):
        """phi = 2 pi m lambda split into segments integrates to the closed
        form (e^{i phi(1)} - 1)/(i phi(1)), here zero, for any split."""
        rng = np.random.RandomState(41)
        widths = rng.uniform(0.1, 1.0, size=50)
        widths /= widths.sum()
        slope = 2 * np.pi * 3
        terms, phi = _err_terms(0.0, slope * widths, widths)
        assert abs(terms.sum()) < 1e-13
        assert phi[-1] == pytest.approx(slope, rel=1e-14)


class TestEvolveRows:
    """su2._evolve_rows, mostly on 5000 rows (two chunks of _CHUNK = 4096) of 3 modes."""

    N_ROWS, DLAM = 5000, 1.0 / 5000

    @classmethod
    def rows(cls, seed=53):
        rng = np.random.RandomState(seed)
        a = rng.uniform(-2.0, 2.0, size=(cls.N_ROWS, 3))
        d = rng.uniform(-2.0, 2.0, size=(cls.N_ROWS, 3))
        area = rng.uniform(0.0, 2e-3, size=cls.N_ROWS)
        return a, d, area, lambda rows: (a[rows], d[rows], area[rows, None])

    def test_the_nodes_end_where_the_tree_ends(self):
        """The last node of the prefix scan, and its running error, equal the
        tree product and the summed error."""
        assert self.N_ROWS > _CHUNK
        *_, sample = self.rows()
        tree, summed = _evolve_rows(sample, self.N_ROWS, _quat_identity(3), self.DLAM,
                                    track_err=True)
        last = {}

        def nodes(rows, prefix, phi, integral):
            assert prefix.shape == (4, rows.stop - rows.start, 3)
            last.update(stop=rows.stop, q=prefix[:, -1], integral=integral[-1])

        scan, running = _evolve_rows(sample, self.N_ROWS, _quat_identity(3), self.DLAM,
                                     track_err=True, nodes=nodes)
        assert last["stop"] == self.N_ROWS
        assert np.array_equal(scan, last["q"]) and np.array_equal(running, last["integral"])
        assert np.abs(last["q"] - tree).max() < 1e-13
        assert np.abs(last["integral"] - summed).max() < 1e-13

    def test_frozen_stretches_match_a_per_segment_loop(self):
        """Frozen widths before row 0, after rows 99 and 4095 (the chunk
        edge) and after the last row, against the error integral summed one
        segment at a time, each stretch before the row that follows it."""
        a, d, area, sample = self.rows(59)
        frozen = np.zeros(self.N_ROWS + 1)
        frozen[[0, 100, _CHUNK, self.N_ROWS]] = [0.3, 0.05, 0.02, 0.1]
        _, integral = _evolve_rows(sample, self.N_ROWS, _quat_identity(3), self.DLAM,
                                   track_err=True, frozen=frozen)
        ref_phase, ref = np.zeros(3), np.zeros(3, dtype=complex)
        for j in range(self.N_ROWS):
            ref += np.exp(1j * ref_phase) * frozen[j]
            dphi = -4.0 * np.hypot(a[j], d[j]) * area[j]
            ref += np.exp(1j * ref_phase) * (np.exp(1j * dphi) - 1) / (1j * dphi) * self.DLAM
            ref_phase += dphi
        ref += np.exp(1j * ref_phase) * frozen[-1]
        assert np.abs(integral - ref).max() < 1e-12

    def test_non_finite_control_is_named_by_row_and_global_mode(self):
        """NaN at (row 4096, column 1) of a block whose first mode is 5, and
        inf at row 4096 + 300 of 500 modes, inside the second chunk."""
        a, d, area, _ = self.rows()
        a[_CHUNK, 1] = np.nan
        with pytest.raises(_NonFiniteControl) as info:
            _evolve_rows(lambda rows: (a[rows], d[rows], area[rows, None]), self.N_ROWS,
                         _quat_identity(3), self.DLAM, col0=5)
        assert str(info.value) == "non-finite control at row 4096, mode index 6"
        assert info.value.at == (4096, 6)

        rng = np.random.RandomState(61)
        a, d = rng.uniform(-2.0, 2.0, size=(2, self.N_ROWS, 500))
        d[_CHUNK + 300, 123] = np.inf
        with pytest.raises(_NonFiniteControl) as info:
            _evolve_rows(lambda rows: (a[rows], d[rows], 1e-3), self.N_ROWS,
                         _quat_identity(500), self.DLAM, col0=500)
        assert info.value.at == (_CHUNK + 300, 623)

    @staticmethod
    def whole_chunks(sample, n_rows, carry, dlam, frozen):
        """The loop one whole chunk at a time, from the kernel's pieces:
        frozen[0] at phase 0, then frozen[j + 1] after row j."""
        phase = np.zeros(carry.shape[1:])
        integral = np.zeros(carry.shape[1:], dtype=complex)
        if frozen is not None:
            integral += frozen[0]
        for start in range(0, n_rows, _CHUNK):
            rows = slice(start, min(start + _CHUNK, n_rows))
            a, d, h = sample(rows)
            carry = _quat_mul(_ordered_product(_quat_steps(a, d, h)), carry)
            after = None if frozen is None else frozen[start + 1 : rows.stop + 1, None]
            terms, phi = _err_terms(phase, -4.0 * np.hypot(a, d) * h, dlam, after)
            phase = phi[-1]
            integral += terms.sum(axis=0)
        return carry, integral

    @pytest.mark.parametrize("gaps", [False, True], ids=["no-gaps", "gaps"])
    @pytest.mark.parametrize("n_rows", [1000, 4095, 4096, 5000])
    @pytest.mark.parametrize("nmodes", [2, 3, 500])
    def test_bits_of_whole_chunks(self, nmodes, n_rows, gaps):
        """The tree path samples whole chunks and keeps the bits of the
        kernel's pieces composed one whole chunk at a time, with frozen gaps
        before row 0 and after rows 254, 255 and 4096 (past the chunk edge)
        and the last row."""
        rng = np.random.RandomState(nmodes + n_rows)
        a, d = generators(rng, (n_rows, nmodes))
        area = rng.uniform(0.0, 2e-3, size=(n_rows, 1))
        frozen = None
        if gaps:
            frozen = np.zeros(n_rows + 1)
            at = [j for j in (0, 255, 256, 4097) if j < n_rows] + [n_rows]
            frozen[at] = rng.uniform(0.01, 0.1, size=len(at))
        seen = []

        def sample(rows):
            seen.append(rows.stop - rows.start)
            return a[rows], d[rows], area[rows]

        carry = random_quats(rng, (1, nmodes))[:, 0]
        got = _evolve_rows(sample, n_rows, carry, 1.0 / n_rows, track_err=True, frozen=frozen)
        assert max(seen) == min(n_rows, _CHUNK) and sum(seen) == n_rows
        ref = self.whole_chunks(sample, n_rows, carry, 1.0 / n_rows, frozen)
        for new, old in zip(got, ref):
            assert new.tobytes() == old.tobytes()
