import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhekit.layout import Layout, reduced_from_ket
from qhekit.linalg import (
    basis_ket,
    eig_hermitian,
    haar_ket,
    haar_unitary,
    kron,
    random_ket,
    random_unitary,
)
from qhekit.qinfo import (
    DensityOp,
    orthogonal_support,
    plaintext_dependence,
    product_deviation_from_ket,
    support_bases,
)
from qhekit_reference import (
    partial_trace,
    product_deviation,
    q_basis_product_deviation_from_ket,
    von_neumann_entropy,
)

QUBIT = Layout((("q", 2),))
PAIR = Layout((("a", 2), ("b", 2)))
BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
PLUS = np.array([1, 1]) / np.sqrt(2)


def qubit_state(matrix) -> DensityOp:
    return DensityOp(QUBIT, np.asarray(matrix, dtype=complex))


def random_mixed(layout: Layout, seed: int) -> DensityOp:
    # Haar-induced mixed state: trace half of a random pure state on dim^2.
    doubled = Layout((("s", layout.dim), ("e", layout.dim)))
    psi = random_ket(layout.dim**2, seed)
    return DensityOp(layout, reduced_from_ket(psi, doubled, ["s"]))


def test_density_op_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        qubit_state(np.diag([0.7, 0.7]))


def test_density_op_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        qubit_state(np.array([[0.5, 0.5], [0.1, 0.5]]))


def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(DensityOp.from_ket(QUBIT, basis_ket(2, 0))) == 0.0


def test_entropy_maximally_mixed_qubit():
    assert abs(von_neumann_entropy(qubit_state(np.eye(2) / 2)) - 1.0) < 1e-12


def test_entropy_biased_diagonal():
    # scalar formula: -(0.75 log2 0.75 + 0.25 log2 0.25)
    expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(expected - 0.8112781244591328) < 1e-15
    got = von_neumann_entropy(qubit_state(np.diag([0.75, 0.25])))
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_entropy_unitary_invariance(seed):
    rho = random_mixed(Layout((("q", 4),)), seed)
    u = random_unitary(4, seed + 100)
    rotated = DensityOp(rho.layout, u @ rho.matrix @ u.conj().T)
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-9


def mutual_information(rho: DensityOp, side_a: list[str], side_b: list[str]) -> float:
    # S(A) + S(B) - S(AB), from the marginals' entropies.
    marginals = [
        DensityOp(rho.layout.restricted(side), partial_trace(rho.matrix, rho.layout, side))
        for side in (side_a, side_b)
    ]
    return sum(von_neumann_entropy(m) for m in marginals) - von_neumann_entropy(rho)


def test_mutual_information_product_state():
    rho = DensityOp(PAIR, kron(np.eye(2) / 2, np.outer(PLUS, PLUS.conj())))
    assert abs(mutual_information(rho, ["a"], ["b"])) < 1e-12


def test_mutual_information_bell_pair():
    rho = DensityOp.from_ket(PAIR, BELL)
    assert abs(mutual_information(rho, ["a"], ["b"]) - 2.0) < 1e-9


def test_mutual_information_classical_correlation():
    rho = DensityOp(PAIR, np.diag([0.5, 0, 0, 0.5]).astype(complex))
    assert abs(mutual_information(rho, ["a"], ["b"]) - 1.0) < 1e-9


def test_mutual_information_rejects_degenerate_cut():
    # A cut with an empty side is refused.
    rho = DensityOp.from_ket(PAIR, BELL)
    with pytest.raises(ValueError, match="bipartition"):
        product_deviation(rho, ["a", "b"])


@pytest.mark.parametrize("seed", range(5))
def test_mutual_information_pure_state_doubles_marginal_entropy(seed):
    psi = random_ket(4, seed)
    rho = DensityOp.from_ket(PAIR, psi)
    lhs = mutual_information(rho, ["a"], ["b"])
    rhs = 2 * von_neumann_entropy(DensityOp.reduced(psi, PAIR, ["a"]))
    assert abs(lhs - rhs) <= 1e-9


def support_basis(rho: DensityOp) -> np.ndarray:
    (cols,) = support_bases(rho.matrix[None])
    return cols


def test_support_of_pure_state():
    cols = support_basis(DensityOp.from_ket(QUBIT, basis_ket(2, 0)))
    assert cols.shape[1] == 1
    np.testing.assert_allclose(cols @ cols.conj().T, np.diag([1, 0]), atol=1e-12)


def test_support_full_rank():
    cols = support_basis(qubit_state(np.eye(2) / 2))
    assert cols.shape[1] == 2
    np.testing.assert_allclose(cols @ cols.conj().T, np.eye(2), atol=1e-10)


def test_support_of_two_state_mixture():
    rho = qubit_state((np.outer(basis_ket(2, 0), basis_ket(2, 0)) + np.outer(PLUS, PLUS)) / 2)
    assert support_basis(rho).shape[1] == 2
    assert np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-10) == 2


@pytest.mark.parametrize("seed", range(5))
def test_support_projector_fixes_state(seed):
    rho = random_mixed(Layout((("q", 4),)), seed)
    cols = support_basis(rho)
    assert np.max(np.abs(cols @ cols.conj().T @ rho.matrix - rho.matrix)) <= 1e-9


def test_orthogonal_support_basis_states():
    a = DensityOp.from_ket(QUBIT, basis_ket(2, 0))
    b = DensityOp.from_ket(QUBIT, basis_ket(2, 1))
    ok, overlap = orthogonal_support(a, b)
    assert ok and abs(overlap) < 1e-12


def test_orthogonal_support_self_full_rank():
    rho = qubit_state(np.eye(2) / 2)
    ok, overlap = orthogonal_support(rho, rho)
    assert not ok
    assert abs(overlap - 2.0) < 1e-9


def test_orthogonal_support_overlapping_pure_states():
    a = DensityOp.from_ket(QUBIT, basis_ket(2, 0))
    b = DensityOp.from_ket(QUBIT, PLUS)
    ok, overlap = orthogonal_support(a, b)
    assert not ok
    assert abs(overlap - 0.5) < 1e-9


def test_orthogonal_support_symmetric_and_nonnegative():
    for seed in range(5):
        a = random_mixed(QUBIT, seed)
        b = random_mixed(QUBIT, seed + 50)
        _, ab = orthogonal_support(a, b)
        _, ba = orthogonal_support(b, a)
        assert abs(ab - ba) <= 1e-9
        assert ab >= -1e-9


def _low_rank_state(layout: Layout, rank: int, seed: int) -> DensityOp:
    # A mixture of `rank` random pure states: support rank `rank` below the dimension.
    kets = np.stack([random_ket(layout.dim, seed + k) for k in range(rank)], axis=1)
    return DensityOp(layout, kets @ kets.conj().T / rank)


@pytest.mark.parametrize("rank_a, rank_b", [(1, 1), (1, 3), (2, 2), (3, 4)])
def test_orthogonal_support_matches_dense_projector_trace(rank_a, rank_b):
    # Reference: the two d x d projectors from eig_hermitian and Tr(P_a P_b).
    layout = Layout((("q", 4),))
    a = _low_rank_state(layout, rank_a, 10)
    b = _low_rank_state(layout, rank_b, 20)
    projectors = []
    for rho in (a, b):
        evals, evecs = eig_hermitian(rho.matrix)
        cols = evecs[:, evals > 1e-10]
        projectors.append(cols @ cols.conj().T)
    dense = float(np.real(np.trace(projectors[0] @ projectors[1])))
    _, overlap = orthogonal_support(a, b)
    assert abs(overlap - dense) <= 1e-12
    assert support_basis(a).shape[1] == rank_a and support_basis(b).shape[1] == rank_b


def test_orthogonal_support_rejects_layout_mismatch():
    a = DensityOp.from_ket(QUBIT, basis_ket(2, 0))
    b = DensityOp.from_ket(Layout((("r", 2),)), basis_ket(2, 0))
    with pytest.raises(ValueError, match="layout"):
        orthogonal_support(a, b)


def test_is_product_on_product_state():
    rho = DensityOp(PAIR, kron(np.diag([0.3, 0.7]), np.outer(PLUS, PLUS.conj())))
    assert product_deviation(rho, ["a"]) <= 1e-9


def test_is_product_rejects_bell_pair():
    assert not product_deviation(DensityOp.from_ket(PAIR, BELL), ["a"]) <= 1e-9


def test_product_deviation_classical_correlation():
    rho = DensityOp(PAIR, np.diag([0.5, 0, 0, 0.5]).astype(complex))
    assert abs(product_deviation(rho, ["a"]) - 0.5) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_product_deviation_factored_matches_dense(seed):
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    psi = random_ket(12, seed)
    rho_ab = DensityOp.reduced(psi, layout, ["a", "b"])
    dense = product_deviation(rho_ab, ["a"])
    factored = product_deviation_from_ket(psi, layout, ["a"], ["b"])
    assert abs(dense - factored) <= 1e-10


def test_product_deviation_large_dimension_path():
    # At dimension 128 the dense route must give zero on a product state and
    # agree with the factored ket kernel on an entangled one.
    layout = Layout((("a", 4), ("b", 32),))
    psi = kron(random_ket(4, 1), random_ket(32, 2))
    rho = DensityOp.from_ket(layout, psi)
    assert product_deviation(rho, ["a"]) <= 1e-10
    entangled = random_ket(128, 3)
    rho2 = DensityOp.from_ket(layout, entangled)
    dev_direct = product_deviation_from_ket(entangled, layout, ["a"], ["b"])
    assert abs(product_deviation(rho2, ["a"]) - dev_direct) <= 1e-9


def test_product_deviation_from_ket_batch_matches_columns():
    # Product and entangled columns in one batch give several support-rank
    # groups; each column must match its unbatched value.
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    kets = [random_ket(12, seed) for seed in range(4)]
    kets.append(kron(basis_ket(2, 1), random_ket(6, 9)))
    kets.append(kron(random_ket(6, 8), basis_ket(2, 0)))
    kets.append(kron(random_ket(2, 7), random_ket(3, 6), random_ket(2, 5)))
    batch = np.stack(kets, axis=1)
    for side_a, side_b in ((["a"], ["b"]), (["a"], ["b", "c"]), (["c"], ["a"])):
        batched = product_deviation_from_ket(batch, layout, side_a, side_b)
        assert batched.shape == (len(kets),)
        for k, psi in enumerate(kets):
            assert batched[k] == product_deviation_from_ket(psi, layout, side_a, side_b)


def _ket_with_marginal_ranks(rng, dims, ranks, order):
    """A random pure state on registers a, b and (if its dimension is above 1)
    r, in the given register order, whose a and b marginals have at most the
    given ranks: (V_a ⊗ V_b ⊗ I) applied to a random ket on ra x rb x dr."""
    da, db, dr = dims
    ra, rb = min(ranks[0], da), min(ranks[1], db)
    va = haar_unitary(rng, da)[:, :ra]
    vb = haar_unitary(rng, db)[:, :rb]
    core = haar_ket(rng, ra * rb * dr).reshape(ra, rb, dr)
    t = np.einsum("ai,bj,ijr->abr", va, vb, core)
    present = ["a", "b", "r"] if dr > 1 else ["a", "b"]
    t = t.reshape([dict(zip("abr", dims))[label] for label in present])
    return t.transpose([present.index(label) for label in order if label in present]).ravel()


@pytest.mark.parametrize(
    "dims",
    [(8, 2, 2), (6, 2, 1), (2, 8, 2), (4, 2, 2), (3, 3, 1), (2, 4, 2)],
    ids=["a-tall", "a-tall-no-rest", "b-tall", "a-square", "both-square", "a-wide"],
)
@pytest.mark.parametrize("order", ["abr", "rba"])
def test_product_deviation_from_ket_matches_q_basis_reference(dims, order):
    # Reading a tall side through its R and a wide one through its Gram
    # matrix gives the deviations of the explicit QR-basis route, and each
    # batch column equals its single-ket value bit for bit.
    rng = np.random.default_rng(sum(dims))
    size = dict(zip("abr", dims))
    layout = Layout(tuple((label, size[label]) for label in order if size[label] > 1))
    ranks = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 4), (8, 8)]
    batch = np.stack([_ket_with_marginal_ranks(rng, dims, r, order) for r in ranks], axis=1)
    got = product_deviation_from_ket(batch, layout, ["a"], ["b"])
    want = q_basis_product_deviation_from_ket(batch, layout, ["a"], ["b"])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for k in range(len(ranks)):
        assert got[k] == product_deviation_from_ket(batch[:, k], layout, ["a"], ["b"])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    dims=st.tuples(st.integers(2, 3), st.integers(2, 4), st.integers(1, 4)),
    order=st.permutations("abr"),
    ranks=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_deviation_from_ket_matches_dense_reference(dims, order, ranks, seed):
    # The factor-wise projection equals the dense product_deviation on the
    # reduced state, for every item of a batch whose items have different
    # marginal ranks, with and without a rest register.
    rng = np.random.default_rng(seed)
    size = dict(zip("abr", dims))
    layout = Layout(tuple((label, size[label]) for label in order if size[label] > 1))
    batch = np.stack([_ket_with_marginal_ranks(rng, dims, r, order) for r in ranks], axis=1)
    factored = product_deviation_from_ket(batch, layout, ["a"], ["b"])
    for k in range(len(ranks)):
        dense = product_deviation(DensityOp.reduced(batch[:, k], layout, ["a", "b"]), ["a"])
        assert abs(factored[k] - dense) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    dims=st.lists(st.integers(2, 3), min_size=1, max_size=3),
    keep_bits=st.integers(1, 7),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_plaintext_dependence_matches_its_definition(dims, keep_bits, d, seed):
    # Reference: each sigma_jk = Tr_rest(W|j><k|W†) by a dense partial trace,
    # and its trace norm by SVD.
    layout = Layout(tuple((f"r{i}", dim) for i, dim in enumerate(dims)))
    keep = [label for i, label in enumerate(layout.labels) if (keep_bits >> i) & 1] or ["r0"]
    d = min(d, layout.dim)
    w = random_unitary(layout.dim, seed)[:, :d]
    sigma = [
        [partial_trace(np.outer(w[:, j], w[:, k].conj()), layout, keep) for k in range(d)]
        for j in range(d)
    ]
    sigma_bar = sum(sigma[j][j] for j in range(d)) / d
    eps, got_bar = plaintext_dependence(w, layout, keep)
    np.testing.assert_allclose(got_bar, sigma_bar, rtol=0, atol=1e-12)
    for j in range(d):
        for k in range(d):
            block = sigma[j][k] - (sigma_bar if j == k else 0)
            assert abs(eps[j, k] - np.linalg.svd(block, compute_uv=False).sum()) <= 1e-12
