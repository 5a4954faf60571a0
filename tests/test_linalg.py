import numpy as np
import pytest

from qhekit.linalg import (
    basis_ket,
    eig_hermitian,
    fidelity_pure,
    is_unitary,
    kron,
    random_ket,
    random_unitary,
    trace_distance,
    unitaries_equal_up_to_phase,
)
from qhekit_reference import per_column_eig_hermitian, unitarity_residual

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal_signs():
    np.testing.assert_array_equal(kron(Z, Z), np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_bit_flip_on_basis_ket():
    psi = kron(X, X) @ kron(basis_ket(2, 0), basis_ket(2, 0))
    np.testing.assert_allclose(psi, kron(basis_ket(2, 1), basis_ket(2, 1)))


def test_kron_associative_exactly():
    # Gaussian-integer entries keep every product exactly representable, so
    # the two groupings must agree bit for bit.
    rng = np.random.default_rng(0)
    a = (rng.integers(-4, 5, (2, 3)) + 1j * rng.integers(-4, 5, (2, 3))).astype(complex)
    b = (rng.integers(-4, 5, (3, 2)) + 1j * rng.integers(-4, 5, (3, 2))).astype(complex)
    c = (rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))).astype(complex)
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    # float entries agree to rounding error
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(kron(kron(f, b), c), kron(f, kron(b, c)), atol=1e-12)


def test_eig_hermitian_maximally_mixed():
    evals, _ = eig_hermitian(np.eye(2) / 2)
    np.testing.assert_allclose(evals, [0.5, 0.5])


def test_eig_hermitian_diagonal():
    evals, evecs = eig_hermitian(np.diag([0.75, 0.25]).astype(complex))
    np.testing.assert_allclose(evals, [0.75, 0.25])
    np.testing.assert_allclose(np.abs(evecs), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_eig_hermitian_reconstructs(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    evals, evecs = eig_hermitian(h)
    rebuilt = (evecs * evals) @ evecs.conj().T
    assert np.max(np.abs(rebuilt - h)) <= 1e-9
    gram = evecs.conj().T @ evecs
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10
    assert np.all(np.diff(evals) <= 1e-12)


def _degenerate_hermitian(rng, d):
    # A random eigenbasis on a spectrum with repeated eigenvalues.
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    spectrum = rng.choice([0.0, 0.25, 0.5], size=d)
    return (u * spectrum) @ u.conj().T


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_eig_hermitian_matches_the_per_column_sort_key_bit_for_bit(d):
    rng = np.random.default_rng([0xE16, d])
    inputs = [np.eye(d) / d, np.diag(np.arange(d) % 2).astype(complex)]
    for _ in range(40):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        inputs += [a + a.conj().T, _degenerate_hermitian(rng, d)]
    for h in inputs:
        for got, want in zip(eig_hermitian(h), per_column_eig_hermitian(h)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_hermitian_deterministic_on_degenerate_spectrum():
    h = np.eye(4, dtype=complex) / 4
    _, v1 = eig_hermitian(h)
    _, v2 = eig_hermitian(h)
    np.testing.assert_array_equal(v1, v2)


def test_is_unitary_hadamard():
    assert is_unitary(HADAMARD)
    assert unitarity_residual(HADAMARD) <= 1e-12


def test_is_unitary_rejects_scaling():
    scaled = np.diag([1.0, 2.0]).astype(complex)
    assert not is_unitary(scaled)
    assert unitarity_residual(scaled) > 1e-6


def test_is_unitary_where_is_keyword_only():
    # A tolerance passed where one used to go must not be taken as `where`.
    with pytest.raises(TypeError):
        is_unitary(HADAMARD, 1e-12)
    with pytest.raises(ValueError, match="^gate: expected a square matrix"):
        is_unitary(np.ones((2, 3)), where="gate")


def test_unitary_product_closure():
    u = np.eye(2, dtype=complex)
    for seed in range(50):
        u = u @ random_unitary(2, seed)
    assert unitarity_residual(u) <= 1e-9


def test_random_unitary_dim_one_is_phase():
    u = random_unitary(1, 3)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1) < 1e-12


def test_random_unitary_reproducible_bit_for_bit():
    np.testing.assert_array_equal(random_unitary(5, 42), random_unitary(5, 42))
    assert not np.array_equal(random_unitary(5, 42), random_unitary(5, 43))


def test_random_unitary_first_entry_statistics():
    # Haar columns are uniform on the sphere: E|u_00|^2 = 1/2 at dim 2.
    mean = np.mean([abs(random_unitary(2, seed)[0, 0]) ** 2 for seed in range(1000)])
    assert abs(mean - 0.5) < 0.02


def test_equal_up_to_phase_global_phase():
    u = random_unitary(3, 9)
    assert unitaries_equal_up_to_phase(u, np.exp(1j * np.pi / 7) * u)


def test_equal_up_to_phase_distinct():
    assert not unitaries_equal_up_to_phase(np.eye(2, dtype=complex), X)


@pytest.mark.parametrize("seed", range(6))
def test_equal_up_to_phase_sweep(seed):
    theta = np.random.default_rng(seed).uniform(0, 2 * np.pi)
    assert unitaries_equal_up_to_phase(Z, np.exp(1j * theta) * np.diag([1, -1]))


def test_equal_up_to_phase_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        unitaries_equal_up_to_phase(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_trace_distance_self_is_zero():
    rho = np.outer(basis_ket(2, 0), basis_ket(2, 0))
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    a = np.outer(basis_ket(2, 0), basis_ket(2, 0))
    b = np.outer(basis_ket(2, 1), basis_ket(2, 1))
    assert abs(trace_distance(a, b) - 1.0) < 1e-12


def test_fidelity_pure_plus_zero():
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(fidelity_pure(plus, basis_ket(2, 0)) - 0.5) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fidelity_pure(basis_ket(2, 0), basis_ket(3, 0))


def test_random_ket_reproducible_and_normalized():
    np.testing.assert_array_equal(random_ket(7, 1), random_ket(7, 1))
    assert abs(np.linalg.norm(random_ket(7, 1)) - 1) < 1e-12


def test_trace_distance_stack_matches_pairs():
    factors = [random_ket(9, seed).reshape(3, 3) for seed in range(5)]
    states = [m @ m.conj().T for m in factors]
    stacked = np.stack(states)
    one_to_many = trace_distance(states[0], stacked[1:])
    pairwise = trace_distance(stacked[:, None], stacked[None, :])
    assert one_to_many.shape == (4,) and pairwise.shape == (5, 5)
    for j in range(1, 5):
        assert one_to_many[j - 1] == trace_distance(states[0], states[j])
    for i in range(5):
        for j in range(5):
            assert pairwise[i, j] == trace_distance(states[i], states[j])


def test_trace_distance_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        trace_distance(np.zeros((2, 3)), np.zeros((2, 3)))
