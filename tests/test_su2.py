"""Tests for the 2x2 Bloch-form kernels (su2.py)."""

import numpy as np
import pytest

from quenchsim.su2 import (
    IDENT,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPIN_DOWN,
    SPIN_UP,
    Herm2,
    _err_terms,
    _ordered_product,
    _phase_ramp,
    _prefix_product,
    _quat_identity,
    _quat_mul,
    _quat_steps,
    _quat_to_unitary,
    eig2,
    expm_bloch_batch,
    expm_herm2,
    fidelity,
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
    """Unit quaternions with q2 = 0, as the kernel's step quaternions are."""
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
    """steps[j] ... steps[0] carry for every j, one product at a time."""
    out, acc = [], carry
    for q in steps:
        acc = _quat_mul(q, acc)
        out.append(acc)
    return np.array(out)


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
        ref = sequential_products(steps, _quat_identity(3))[-1]
        assert np.abs(_ordered_product(steps) - ref).max() < 1e-13

    def test_product_order_is_later_on_the_left(self):
        """The product of two steps is the unitary U1 @ U0."""
        rng = np.random.RandomState(5)
        steps = random_quats(rng, (2, 1))
        U = _quat_to_unitary(steps)
        prod = _quat_to_unitary(_prefix_product(steps, _quat_identity(1)))
        assert np.abs(prod[1] - U[1] @ U[0]).max() < 1e-15


class TestErrTerms:
    def test_phase_ramp_is_exactly_one_at_zero(self):
        assert _phase_ramp(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

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
