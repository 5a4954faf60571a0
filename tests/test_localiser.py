import dataclasses
import tracemalloc

import numpy as np
import pytest

import qhekit.checks
import qhekit.localiser
import qhekit.qinfo
from qhekit.catalog import (
    build_constructed_secure_problem,
    build_leaky_problem,
    build_qotp_scheme,
    build_scheme,
    catalog,
    pauli_words,
)
from qhekit.checks import check_security
from qhekit.layout import Layout, axis_permutation, reduced_from_ket
from qhekit.linalg import (
    basis_ket,
    fidelity_pure,
    haar_ket,
    kron,
    random_ket,
    random_unitary,
    trace_distance,
)
from qhekit.localiser import (
    ExtractionError,
    LeakageDetected,
    LocalisationError,
    LocalisationProblem,
    RetainedState,
    _data_factor,
    check_zero_leakage,
    complete_orthonormal,
    extract_plaintext,
    localise,
)
from qhekit.qinfo import DensityOp
from qhekit.scheme import localisation_problem_at_t1
from qhekit.tolerances import EQUALITY_TOL, RANK_TOL
from qhekit_reference import (
    dense_extract_plaintext,
    dense_problem,
    mailbox_bridge,
    peak_bytes,
    per_sample_reconstruction_residual,
    probe_states,
    record_decompositions,
    remote_reduced,
    uneven_problem,
    unitarity_residual,
    von_neumann_entropy,
    whole_j_reconstruction_residual,
)


def trivial_problem(dims=(2, 2, 2), unitary=None):
    layout = Layout((("A1", dims[0]), ("A2", dims[1]), ("B", dims[2])))
    if unitary is None:
        unitary = np.eye(layout.dim, dtype=complex)
    return dense_problem(layout, unitary, basis_ket(dims[1], 0), basis_ket(dims[2], 0))


def test_probe_states_dimension_one():
    probes = probe_states(1)
    assert len(probes) == 1
    np.testing.assert_allclose(probes[0], [1.0])


def test_probe_states_qubit_set():
    probes = probe_states(2)
    assert len(probes) == 4
    np.testing.assert_allclose(probes[0], basis_ket(2, 0))
    np.testing.assert_allclose(probes[1], basis_ket(2, 1))
    np.testing.assert_allclose(probes[2], np.array([1, 1]) / np.sqrt(2))
    np.testing.assert_allclose(probes[3], np.array([1, 1j]) / np.sqrt(2))


def test_probe_projectors_span_operator_space():
    probes = probe_states(3)
    assert len(probes) == 9
    vectors = np.stack([np.outer(p, p.conj()).ravel() for p in probes])
    assert np.linalg.matrix_rank(vectors, tol=1e-10) == 9


def test_zero_leakage_local_unitary_passes():
    layout = Layout((("A1", 2), ("A2", 2), ("B", 2)))
    u = kron(random_unitary(4, 5), np.eye(2))
    problem = dense_problem(layout, u, basis_ket(2, 0), basis_ket(2, 0))
    ok, deviation = check_zero_leakage(problem)
    assert ok and deviation <= 1e-12


def test_zero_leakage_swap_fails_maximally():
    # Swap the data register with the remote register: plaintext shipped out.
    swap = axis_permutation((2, 2, 2), (2, 1, 0))
    u = np.eye(8, dtype=complex)[:, swap]
    problem = trivial_problem(unitary=u)
    ok, deviation = check_zero_leakage(problem)
    assert not ok
    assert deviation >= 1 - 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_zero_leakage_constructed_problem(seed):
    ok, deviation = check_zero_leakage(build_constructed_secure_problem((2, 2, 2), seed))
    assert ok and deviation <= 1e-10


# The dimensions of the benchmark's localisation sweep.
SWEEP_CASES = [("constructed-secure", d) for d in ((2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8))] + [
    ("leaky", d) for d in ((2, 2, 2), (2, 4, 2), (2, 2, 8), (3, 2, 6))
]


@pytest.mark.parametrize("kind, dims", SWEEP_CASES)
def test_zero_leakage_matches_per_probe_reference(kind, dims):
    # The per-probe reference and the deviation bound each other as
    # plaintext_dependence's docstring derives, and give the same verdict.
    build = build_constructed_secure_problem if kind == "constructed-secure" else build_leaky_problem
    for seed in range(4):
        problem = build(dims, seed)
        states = [remote_reduced(problem, p) for p in probe_states(problem.data_dim)]
        expected = max(trace_distance(a, b) for i, a in enumerate(states) for b in states[i + 1 :])
        ok, deviation = check_zero_leakage(problem)
        assert expected <= problem.data_dim * deviation + 1e-12
        assert deviation <= 4 * expected + 1e-12
        assert ok == (kind == "constructed-secure") == (expected <= EQUALITY_TOL)


def test_each_check_computes_plaintext_dependence_once(monkeypatch):
    scheme = build_qotp_scheme(1)
    problem = build_constructed_secure_problem((3, 2, 4), seed=7)
    calls = {"plaintext_dependence": 0}
    for module in (qhekit.qinfo, qhekit.checks, qhekit.localiser):
        for name in calls:
            if hasattr(module, name):

                def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    for check in (
        lambda: check_security(scheme),
        lambda: check_zero_leakage(problem),
        lambda: localise(problem),
    ):
        check()
        assert calls == {"plaintext_dependence": 1}
        calls.update(plaintext_dependence=0)


def test_localise_identity_unitary():
    problem = trivial_problem()
    result = localise(problem)
    assert result.rank == 1
    assert result.factor_dims == (2, 2)
    np.testing.assert_allclose(result.residual_weights, [1.0], atol=1e-12)
    psi = random_ket(2, 8)
    aux = basis_ket(2, 0)
    expected = kron(np.outer(psi, psi.conj()), np.outer(aux, aux.conj()))
    assert np.max(np.abs(result.reconstruct(psi).matrix - expected)) <= 1e-10


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8)])
def test_localise_constructed_secure(dims):
    problem = build_constructed_secure_problem(dims, seed=7)
    result = localise(problem)
    assert unitarity_residual(result.unitary) <= 1e-9
    assert result.gram_residual <= 1e-8
    assert result.reconstruction_residual <= 1e-8
    psi = random_ket(dims[0], 17)
    recovered = extract_plaintext(result, problem.retained_reduced(psi))
    assert fidelity_pure(psi, recovered) >= 1 - 1e-8


def _core_width(problem, branches):
    # J's column count, d1 (d_remote + rank).
    return branches.shape[1] + problem.data_dim * problem.layout.dims[1]


def _force_core_blocks(monkeypatch, problem, branches, blocks=4):
    """Set the core's byte budget so J goes in at least `blocks` row blocks."""
    rows = max(1, problem.layout.dims[0] // blocks)
    budget = 16 * _core_width(problem, branches) * rows
    monkeypatch.setattr(qhekit.localiser, "_CORE_BLOCK_BYTES", budget)


_CORE_DIMS = [(2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8), (2, 64, 2)]
_TAG_EVALUATE = next(e for e in catalog() if e.builder == "tag-evaluate")


def _bridge(name):
    if name == "tag-evaluate":
        return localisation_problem_at_t1(build_scheme("tag-evaluate", **_TAG_EVALUATE.params))
    return localisation_problem_at_t1(build_qotp_scheme(int(name[-1])))


_EXTRACTION_PROBLEMS = [
    pytest.param(lambda d=d: build_constructed_secure_problem(d, 7), id=str(d))
    for d in [(2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8), (2, 64, 2)]
] + [pytest.param(lambda n=n: _bridge(f"qotp{n}"), id=f"t1-qotp{n}") for n in (1, 2)]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda d=d, s=s: build_constructed_secure_problem(d, s), id=f"{d}-seed{s}")
        for d in _CORE_DIMS
        for s in range(4)
    ]
    + [
        pytest.param(lambda n=n: _bridge(n), id=f"t1-{n}")
        for n in ("qotp1", "qotp2", "tag-evaluate")
    ],
)
def test_reconstruction_residual_matches_per_sample_reference(monkeypatch, make):
    problem = make()
    result = localise(problem)
    reference = per_sample_reconstruction_residual(problem, result)
    assert abs(result.reconstruction_residual - reference) <= 1e-12
    whole = whole_j_reconstruction_residual(problem, result.branches, result.residual_weights)
    assert abs(result.reconstruction_residual - whole) <= 1e-12
    # J in row blocks: the folded Rs give the single block's residual.
    _force_core_blocks(monkeypatch, problem, result.branches)
    calls = record_decompositions(monkeypatch)
    blocked = qhekit.localiser._reconstruction_residual(
        problem, result.branches, result.residual_weights
    )
    width = _core_width(problem, result.branches)
    # Each block's QR and each fold of its R into the running one read J's
    # full width; a block has at least one row, so J goes in at most
    # d_retained blocks.
    blocks = min(4, problem.layout.dims[0])
    assert sum(1 for name, shape, _ in calls if name == "qr" and shape[-1] == width) >= blocks + 1
    assert abs(blocked - result.reconstruction_residual) <= 1e-14


def test_reconstruction_core_sees_a_wrong_prediction(monkeypatch):
    problem = build_constructed_secure_problem((2, 4, 2), seed=1)
    result = localise(problem)
    # Turn branch 0 towards a direction outside every branch, so the
    # branches stay orthonormal but predict the wrong retained state.
    outside = complete_orthonormal(result.branches)[:, -1]
    rotated = result.branches.copy()
    rotated[:, 0] = np.cos(0.3) * rotated[:, 0] + np.sin(0.3) * outside
    core = qhekit.localiser._reconstruction_residual(problem, rotated, result.residual_weights)
    reference = per_sample_reconstruction_residual(
        problem, dataclasses.replace(result, branches=rotated)
    )
    assert abs(core - reference) <= 1e-12
    assert core > 1e-3 and reference > 1e-3
    assert abs(core - 0.197) <= 5e-4
    _force_core_blocks(monkeypatch, problem, rotated)
    blocked = qhekit.localiser._reconstruction_residual(problem, rotated, result.residual_weights)
    assert abs(blocked - core) <= 1e-14


@pytest.mark.parametrize(
    "make, sample_qrs",
    [
        pytest.param(lambda d=d: build_constructed_secure_problem(d, 0), qrs, id=f"{d}")
        for d, qrs in [((2, 2, 2), 0), ((3, 2, 4), 0), ((2, 2, 8), 0), ((2, 4, 2), 20)]
    ]
    + [pytest.param(lambda: _bridge("qotp2"), 20, id="t1-qotp2")],
)
def test_reconstruction_residual_reads_each_sample_on_its_small_side(
    monkeypatch, make, sample_qrs
):
    # Only a tall per-sample factor (k, d_remote + rank) is QR'd; a square or
    # wide one gives its k x k difference to eigvalsh directly.
    problem = make()
    result = localise(problem)
    d1, d_retained = problem.data_dim, problem.layout.dims[0]
    width = _core_width(problem, result.branches)
    per_input, k = width // d1, min(d_retained, width)
    calls = record_decompositions(monkeypatch)
    qhekit.localiser._reconstruction_residual(problem, result.branches, result.residual_weights)
    samples = [shape for name, shape, _ in calls if name == "qr" and shape[-1] == per_input]
    assert len(samples) == sample_qrs
    assert all(shape == (k, per_input) and k > per_input for shape in samples)
    side = min(k, per_input)
    assert [shape for name, shape, _ in calls if name == "eigvalsh"] == [(side, side)] * 20


def test_localise_decomposes_only_short_sides(monkeypatch):
    # Every QR is R-only; every SVD and eigenproblem gets a small matrix.
    problem = _bridge("qotp2")
    calls = record_decompositions(monkeypatch)
    localise(problem)
    assert {name for name, _, _ in calls} >= {"qr", "svd", "eigh", "eigvalsh"}
    assert all(mode == "r" for name, _, mode in calls if name == "qr")
    assert max(shape[-2] for name, shape, _ in calls if name != "qr") <= 64


def test_localise_never_holds_the_whole_j(monkeypatch):
    # With J in 4 row blocks, the residual stage allocates less than J at
    # any time, and the whole call less than twice J: J and the copy a QR of
    # it makes are never held.  (plaintext_dependence alone holds twice the
    # isometry, which on this problem is J's size, so the whole call cannot
    # stay below J.)  The problem is the QOTP n=2 t1 problem with a mailbox,
    # whose 1024 retained rows are 32 times J's width; the bipartition's 256
    # rows are too few for the stacked Rs of 4 blocks to be small beside J.
    problem = mailbox_bridge(build_qotp_scheme(2))
    result = localise(problem)
    j_bytes = problem.layout.dims[0] * _core_width(problem, result.branches) * 16
    _force_core_blocks(monkeypatch, problem, result.branches)
    peaks = {}
    original = qhekit.localiser._reconstruction_residual

    def measured(*args):
        start, peaks["before"] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        residual = original(*args)
        peaks["stage"] = tracemalloc.get_traced_memory()[1] - start
        return residual

    monkeypatch.setattr(qhekit.localiser, "_reconstruction_residual", measured)
    _, peak = peak_bytes(lambda: localise(problem))
    peak = max(peaks["before"], peak)
    assert peaks["stage"] < j_bytes
    assert peak < 2 * j_bytes


def _residual_stage(monkeypatch, problem, result, blocks):
    """_reconstruction_residual's value and tracemalloc peak with J in `blocks` row blocks."""
    _force_core_blocks(monkeypatch, problem, result.branches, blocks)
    return peak_bytes(
        lambda: qhekit.localiser._reconstruction_residual(
            problem, result.branches, result.residual_weights
        )
    )


def test_reconstruction_core_holds_one_block_at_a_time(monkeypatch):
    # Each block's R is folded into the running R before the next block is
    # built, so more blocks make the stage's peak smaller, not larger.
    problem = _bridge("qotp2")
    result = localise(problem)
    j_bytes = problem.layout.dims[0] * _core_width(problem, result.branches) * 16
    whole = whole_j_reconstruction_residual(problem, result.branches, result.residual_weights)
    (at_4, peak_4), (at_16, peak_16) = (
        _residual_stage(monkeypatch, problem, result, blocks) for blocks in (4, 16)
    )
    assert peak_16 <= peak_4 <= 1.1 * j_bytes
    assert abs(at_4 - whole) <= 1e-12 and abs(at_16 - whole) <= 1e-12


@pytest.mark.parametrize(
    "make",
    [lambda: build_constructed_secure_problem((3, 2, 4), 0), lambda: _bridge("qotp2")],
    ids=["constructed", "t1-qotp2"],
)
def test_localise_never_evaluates_the_problem_per_input(monkeypatch, make):
    problem = make()
    calls = {"output_ket": 0}
    original = LocalisationProblem.output_ket

    def counting(self, psi):
        calls["output_ket"] += 1
        return original(self, psi)

    monkeypatch.setattr(LocalisationProblem, "output_ket", counting)
    localise(problem)
    assert calls == {"output_ket": 0}


def test_localise_residual_matches_remote_spectrum():
    problem = build_constructed_secure_problem((3, 2, 4), seed=3)
    result = localise(problem)
    remote = remote_reduced(problem, basis_ket(3, 0))
    remote_evals = np.sort(np.linalg.eigvalsh(remote))[::-1]
    assert result.residual_weights.shape == (result.rank,)
    sigma_evals = np.sort(result.residual_weights)[::-1]
    np.testing.assert_allclose(sigma_evals, remote_evals[: result.rank], atol=1e-9)
    assert np.all(np.abs(remote_evals[result.rank :]) <= 1e-12)


def test_localise_refuses_when_no_eigenvalue_exceeds_the_rank_tolerance():
    # A rank cut at or above the remote state's largest eigenvalue keeps no
    # branch; localise refuses and names both numbers.
    problem = build_constructed_secure_problem((2, 2, 2), seed=7)
    largest = np.linalg.eigvalsh(remote_reduced(problem, basis_ket(2, 0)))[-1]
    with pytest.raises(LocalisationError, match="rank tolerance 1 ") as info:
        localise(problem, rank_tol=1.0)
    assert f"largest {largest:.3e}" in str(info.value)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("name", ["leakage", "rank"])
def test_localise_refuses_a_tolerance_that_is_not_positive(name, value):
    problem = build_constructed_secure_problem((2, 2, 2), seed=7)
    with pytest.raises(ValueError, match=f"tolerance '{name}' must be positive, got {value}"):
        localise(problem, **{f"{name}_tol": value})


def test_localise_refuses_more_branches_than_the_retained_dimension():
    # Bob holds the input outright.  A leakage tolerance above its deviation
    # lets it through to a remote state of rank 2, whose 2 x 2 branches
    # cannot be orthonormal in a retained dimension of 2.
    problem = LocalisationProblem(Layout((("A", 2), ("B", 4))), np.eye(8, dtype=complex)[:, :2])
    with pytest.raises(LocalisationError) as info:
        localise(problem, leakage_tol=10.0)
    assert str(info.value) == (
        "data dimension 2 times remote state rank 2 is 4, more than the retained dimension 2"
    )


def test_localise_without_a_data_factor_split():
    # d = 2 does not divide the retained dimension 3: the branches still
    # localise and extract, but there is no (d, d_retained / d) unitary.
    problem = uneven_problem(5)
    result = localise(problem)
    assert result.rank == 1 and result.factor_dims is None
    assert result.reconstruction_residual <= 1e-12
    for seed in range(3):
        psi = random_ket(2, seed)
        recovered = extract_plaintext(result, problem.retained_reduced(psi))
        assert fidelity_pure(psi, recovered) >= 1 - 1e-12
    with pytest.raises(ValueError, match="data dimension 2 does not divide retained 3"):
        result.unitary


@pytest.mark.parametrize(
    "params",
    [entry.params for entry in catalog() if entry.builder == "tag-evaluate"]
    + [{"n": 1, "circuit_set": ("X",)}, {"n": 2, "circuit_set": tuple(pauli_words(2))}],
    ids=lambda params: f"n{params['n']}-{len(params['circuit_set'])}",
)
def test_every_tag_evaluate_bridge_localises_into_the_held_register(params):
    # Alice keeps only hold, of the data dimension, so the residual factor
    # has dimension 1.
    scheme = build_scheme("tag-evaluate", **params)
    problem = localisation_problem_at_t1(scheme)
    result = localise(problem)
    assert result.factor_dims == (scheme.input_dim, 1) and result.rank == 1
    assert unitarity_residual(result.unitary) <= 1e-12
    psi = random_ket(scheme.input_dim, 4)
    recovered = extract_plaintext(result, problem.retained_reduced(psi))
    assert fidelity_pure(psi, recovered) >= 1 - 1e-12


def test_localise_keeps_normalised_residual_weights():
    result = localise(build_constructed_secure_problem((2, 4, 2), seed=3))
    weights = result.residual_weights
    assert weights.shape == (result.rank,)
    assert abs(weights.sum() - 1) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 4, 2), (3, 2, 4), (2, 16, 4), (3, 9, 2)])
def test_residual_weights_equal_the_dense_normalised_diagonal(monkeypatch, dims):
    # Reference: the trace-normalised dense d2 x d2 diagonal state, whose
    # entries earlier JSON exports carried as the residual state; the
    # weights must keep those exact bits.
    spectra = []
    original = qhekit.localiser.eig_hermitian

    def recording(*args, **kwargs):
        evals, evecs = original(*args, **kwargs)
        spectra.append(evals)
        return evals, evecs

    monkeypatch.setattr(qhekit.localiser, "eig_hermitian", recording)
    for seed in range(4):
        result = localise(build_constructed_secure_problem(dims, seed=seed))
        evals = spectra[-1][spectra[-1] > RANK_TOL]
        sigma = np.zeros((dims[1], dims[1]), dtype=complex)
        sigma[np.arange(result.rank), np.arange(result.rank)] = evals
        expected = np.real(np.diagonal(sigma / np.real(np.trace(sigma))))[: result.rank]
        assert result.residual_weights.tobytes() == expected.tobytes()


def test_localise_is_deterministic_and_input_independent():
    problem = build_constructed_secure_problem((2, 4, 2), seed=11)
    first = localise(problem)
    second = localise(problem)
    np.testing.assert_array_equal(first.unitary, second.unitary)
    for seed in range(5):
        psi = random_ket(2, seed)
        simulated = problem.retained_reduced(psi).matrix
        assert np.max(np.abs(first.reconstruct(psi).matrix - simulated)) <= 1e-8


def test_localise_refuses_leaky_problem():
    problem = build_leaky_problem((2, 2, 2), seed=1)
    with pytest.raises(LeakageDetected) as info:
        localise(problem)
    assert info.value.deviation >= 0.99


def test_leaky_problem_mutual_information_diagnostic():
    problem = build_leaky_problem((2, 2, 4), seed=2)
    plus = np.array([1, 1]) / np.sqrt(2)
    # The output is pure, so I(A : B) = 2 S(A), A the retained register.
    rho = DensityOp.reduced(problem.output_ket(plus), problem.layout, ["A"])
    assert 2 * von_neumann_entropy(rho) > 0.9


def test_extract_plaintext_inverts_localised_form():
    problem = build_constructed_secure_problem((2, 2, 2), seed=4)
    result = localise(problem)
    for ket in (basis_ket(2, 0), np.array([1, 1]) / np.sqrt(2)):
        recovered = extract_plaintext(result, result.reconstruct(ket))
        assert fidelity_pure(ket, recovered) >= 1 - 1e-9


def test_extract_plaintext_flags_mixed_state():
    problem = build_constructed_secure_problem((2, 2, 2), seed=4)
    result = localise(problem)
    halves = [np.sqrt(0.5) * result.reconstruct(basis_ket(2, j)).factor for j in range(2)]
    mixed = RetainedState(np.hstack(halves))
    with pytest.raises(ExtractionError) as info:
        extract_plaintext(result, mixed)
    assert info.value.purity < 0.99


def _orthonormal_columns(n, m, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return q


def test_complete_orthonormal_extends_to_unitary():
    # m = 0, m = n, seeded random m <= 16 and the QOTP n=2 branches: the
    # given columns lead bit for bit, the completion is unitary and two
    # calls agree to the byte.
    inputs = [_orthonormal_columns(n, m, seed) for n, m, seed in ((8, 3, 2), (6, 0, 0), (6, 6, 1))]
    rng = np.random.default_rng(7)
    for seed in range(6):
        n = int(rng.integers(1, 33))
        inputs.append(_orthonormal_columns(n, int(rng.integers(0, min(n, 16) + 1)), 10 + seed))
    inputs.append(localise(localisation_problem_at_t1(build_qotp_scheme(2))).branches)
    for q in inputs:
        n, m = q.shape
        basis = complete_orthonormal(q)
        assert basis.shape == (n, n)
        assert basis[:, :m].tobytes() == q.tobytes()
        assert unitarity_residual(basis) <= 1e-12
        assert complete_orthonormal(q).tobytes() == basis.tobytes()


def test_problem_from_isometry_checks_its_columns():
    layout = Layout((("A", 4), ("B", 2)))
    w = np.eye(8, dtype=complex)[:, [3, 5]]
    problem = LocalisationProblem(layout, w)
    assert [f.name for f in dataclasses.fields(problem)] == ["layout", "isometry"]
    assert problem.data_dim == 2 and problem.remote_label == "B"
    np.testing.assert_array_equal(problem.output_ket(basis_ket(2, 1)), w[:, 1])
    with pytest.raises(ValueError, match="orthonormal"):
        LocalisationProblem(layout, 2 * w)
    with pytest.raises(ValueError, match="shape"):
        LocalisationProblem(layout, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        LocalisationProblem(layout, w[:, :1])
    with pytest.raises(ValueError, match="non-finite"):
        LocalisationProblem(layout, np.where(w == 1, np.nan, w))
    with pytest.raises(ValueError, match="registers"):
        LocalisationProblem(Layout((("A1", 2), ("A2", 2), ("B", 2))), w)


def test_result_unitary_places_branches_in_their_slots():
    result = localise(build_constructed_secure_problem((2, 4, 2), seed=11))
    d1, d2 = result.factor_dims
    slots = [j * d2 + k for j in range(d1) for k in range(result.rank)]
    np.testing.assert_array_equal(result.unitary[:, slots], result.branches)
    assert unitarity_residual(result.unitary) <= 1e-10


def test_extract_plaintext_reports_weight_outside_branch_span():
    problem = build_constructed_secure_problem((2, 4, 2), seed=4)
    result = localise(problem)
    # The last column of a complete QR basis is orthogonal to every branch.
    outside = np.linalg.qr(result.branches, mode="complete")[0][:, -1]
    weight = 0.25
    psi = random_ket(2, 3)
    inside = np.sqrt(1 - weight) * result.reconstruct(psi).factor
    mixed = RetainedState(np.hstack([inside, np.sqrt(weight) * outside[:, None]]))
    with pytest.raises(ExtractionError, match="outside the branch span") as info:
        extract_plaintext(result, mixed)
    assert abs(info.value.outside_weight - weight) <= 1e-12
    with pytest.raises(ExtractionError) as dense:
        dense_extract_plaintext(result, mixed.matrix)
    assert abs(info.value.purity - dense.value.purity) <= 1e-12
    with pytest.raises(ValueError, match="trace"):
        extract_plaintext(result, RetainedState(np.zeros((8, 1))))


def test_retained_state_checks_its_factor():
    factor = np.arange(6).reshape(3, 2)
    state = RetainedState(factor)
    assert state.factor.dtype == complex
    np.testing.assert_array_equal(state.matrix, factor @ factor.T)
    with pytest.raises(ValueError, match="expected a matrix"):
        RetainedState(np.ones(4))
    with pytest.raises(ValueError, match="non-finite"):
        RetainedState(np.array([[1.0], [np.inf]]))


def test_extract_plaintext_refuses_a_dense_or_misshapen_state():
    problem = build_constructed_secure_problem((2, 2, 2), seed=4)
    result = localise(problem)
    state = problem.retained_reduced(basis_ket(2, 0))
    with pytest.raises(TypeError, match="RetainedState"):
        extract_plaintext(result, state.matrix)
    with pytest.raises(ValueError, match="retained dimension 4"):
        extract_plaintext(result, RetainedState(np.ones((8, 1))))


@pytest.mark.parametrize("make", _EXTRACTION_PROBLEMS)
def test_retained_states_match_their_dense_forms(make):
    problem = make()
    result = localise(problem)
    d1 = result.factor_dims[0]
    for seed in range(3):
        psi = random_ket(d1, seed)
        dense = reduced_from_ket(problem.output_ket(psi), problem.layout, problem.layout.labels[:1])
        assert np.max(np.abs(problem.retained_reduced(psi).matrix - dense)) <= 1e-12
        cols = psi @ result.branches.reshape(-1, d1, result.rank)
        predicted = (cols * result.residual_weights) @ cols.conj().T
        assert np.max(np.abs(result.reconstruct(psi).matrix - predicted)) <= 1e-12


@pytest.mark.parametrize("make", _EXTRACTION_PROBLEMS)
def test_extract_plaintext_matches_the_dense_reference(make):
    # Fidelity, purity and outside weight of the factored path against the
    # dense d_retained x d_retained one, over 8 seeded Haar plaintexts.
    problem = make()
    result = localise(problem)
    rng = np.random.default_rng(24)
    for _ in range(8):
        psi = haar_ket(rng, result.factor_dims[0])
        state = problem.retained_reduced(psi)
        ref_ket, ref_purity, ref_outside = dense_extract_plaintext(result, state.matrix)
        _, purity, outside = _data_factor(result, state)
        recovered = extract_plaintext(result, state)
        assert abs(fidelity_pure(psi, recovered) - fidelity_pure(psi, ref_ket)) <= 1e-12
        assert abs(purity - ref_purity) <= 1e-12
        assert abs(outside - ref_outside) <= 1e-12


def test_extraction_at_qotp2_forms_no_dense_state():
    # The dense retained state alone is 1024^2 complex, 16 MiB.
    problem = _bridge("qotp2")
    result = localise(problem)
    psi = random_ket(result.factor_dims[0], 5)
    recovered, peak = peak_bytes(lambda: extract_plaintext(result, problem.retained_reduced(psi)))
    assert fidelity_pure(psi, recovered) >= 1 - 1e-8
    assert peak < 2**20


@pytest.mark.parametrize("name", ["leakage", "rank"])
def test_localise_refuses_an_infinite_tolerance(name):
    problem = build_constructed_secure_problem((2, 2, 2), seed=7)
    with pytest.raises(ValueError, match=f"^tolerance '{name}' must be finite, got inf$"):
        localise(problem, **{f"{name}_tol": float("inf")})
