"""Test-only references and input constructors; no package code calls them.

probe_states is the per-input route that plaintext_dependence's bounds are
checked against; dense_problem turns a dense unitary into a problem;
dense_constructed_secure_problem and dense_leaky_problem are the problem
builders as they once formed the full dense unitary, with the builders'
own streams and draw order, for the factored builders to match;
unitarity_residual is the number is_unitary compares with UNITARITY_TOL;
per_sample_reconstruction_residual is localise's residual taken input by
input on the retained space.
"""

import numpy as np

from qhekit.catalog import _CONSTRUCTED_STREAM, _LEAKY_STREAM
from qhekit.layout import Layout, axis_permutation
from qhekit.linalg import basis_ket, dagger, haar_ket, haar_unitary, kron
from qhekit.localiser import (
    _RECONSTRUCTION_SAMPLES,
    _RECONSTRUCTION_SEED,
    LocalisationProblem,
    LocalisationResult,
    _factored_trace_distance,
)


def probe_states(d: int) -> list[np.ndarray]:
    """Informationally complete probe kets for a d-dimensional input.

    The d basis kets plus, for every pair j < j', the real and imaginary
    superpositions (|j> + |j'>)/sqrt(2) and (|j> + i|j'>)/sqrt(2): d^2 states
    whose projectors span the Hermitian operators on the input space.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    basis = [basis_ket(d, j) for j in range(d)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    return basis + [(basis[j] + c * basis[k]) / np.sqrt(2.0) for j, k in pairs for c in (1, 1j)]


def dense_problem(layout: Layout, unitary, aux, remote) -> LocalisationProblem:
    """The problem psi -> unitary (psi ⊗ aux ⊗ remote), from its dense unitary."""
    w = np.asarray(unitary, dtype=complex).reshape(layout.dim, layout.dims[0], -1)
    return LocalisationProblem(layout, w @ kron(aux, remote))


def dense_constructed_secure_problem(dims, seed) -> LocalisationProblem:
    """build_constructed_secure_problem via its dense unitary: I ⊗ mixer, then retained ⊗ I."""
    d1, d2, db = dims
    rng = np.random.default_rng([_CONSTRUCTED_STREAM, seed])
    retained = haar_unitary(rng, d1 * d2)
    mixer = haar_unitary(rng, d2 * db)
    aux = haar_ket(rng, d2)
    remote = haar_ket(rng, db)
    unitary = kron(retained, np.eye(db)) @ kron(np.eye(d1), mixer)
    return dense_problem(Layout((("A1", d1), ("A2", d2), ("B", db))), unitary, aux, remote)


def dense_leaky_problem(dims, seed) -> LocalisationProblem:
    """build_leaky_problem via its dense unitary: swap data into the remote side, then scramble."""
    d1, d2, db = dims
    rng = np.random.default_rng([_LEAKY_STREAM, seed])
    scramble_retained = haar_unitary(rng, d1 * d2)
    scramble_remote = haar_unitary(rng, db)
    aux = haar_ket(rng, d2)
    remote = haar_ket(rng, db)
    swap = axis_permutation((d1, d2, d1, db // d1), (2, 1, 0, 3))
    unitary = kron(scramble_retained, scramble_remote)[:, swap]
    return dense_problem(Layout((("A1", d1), ("A2", d2), ("B", db))), unitary, aux, remote)


def unitarity_residual(u) -> float:
    """Max-entry norm of U†U - I, so a test can bound it at its own tolerance."""
    u = np.asarray(u, dtype=complex)
    return float(np.abs(dagger(u) @ u - np.eye(u.shape[1])).max())


def per_sample_reconstruction_residual(
    problem: LocalisationProblem, result: LocalisationResult
) -> float:
    """The reconstruction residual on localise's seeded inputs, one by one.

    For each input the simulated factor is the problem's output ket and the
    predicted one the branches times kron(psi, I_rank), both with
    d_retained rows, compared by their own QR.
    """
    d1, d2, db = problem.layout.dims
    d_retained = d1 * d2
    rng = np.random.default_rng([_RECONSTRUCTION_SEED])
    worst = 0.0
    for _ in range(_RECONSTRUCTION_SAMPLES):
        psi = haar_ket(rng, d1)
        # Both states have rank <= remote_dim; compare them in factored form.
        simulated = problem.output_ket(psi).reshape(d_retained, db)
        columns = result.branches @ kron(psi.reshape(-1, 1), np.eye(result.rank))
        worst = max(
            worst,
            _factored_trace_distance(simulated, np.ones(db), columns, result.residual_weights),
        )
    return float(worst)
