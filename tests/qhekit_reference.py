"""Test-only references and input constructors; no package code calls them.

initial_ket, ciphertext and remote_reduced are per-plaintext views; partial_trace,
product_deviation, schmidt and von_neumann_entropy are the dense functionals.
probe_states is the per-input route that plaintext_dependence's bounds are
checked against; dense_problem turns a dense unitary into a problem;
uneven_problem is a problem whose data dimension does not divide its
retained one; mailbox_bridge is the t1 problem as it was once built, with
a mailbox register on Bob's side, for the bipartition bridge to match;
dense_constructed_secure_problem and dense_leaky_problem are the problem
builders as they once formed the full dense unitary, with the builders'
own streams and draw order, for the factored builders to match;
unitarity_residual is the number is_unitary compares with UNITARITY_TOL;
per_sample_reconstruction_residual is localise's residual taken input by
input on the retained space.  The formulas the package replaced by
short-side decompositions stay here for it to match: completeness deltas
by a full SVD norm (norm_completeness_deltas), the product deviation with
explicit QR Q bases (q_basis_product_deviation_from_ket), the residual from
one QR of the whole J (whole_j_reconstruction_residual) and the trace
distance read through Q (q_form_trace_distance).  record_decompositions
records the numpy decompositions a call makes, for shape guards,
peak_bytes the tracemalloc peak of a call, for memory guards, and
circuit_major whether a ket batch holds its circuit axis outermost in memory.
block_diagonal and dense_footprint write a key-controlled operator out as
the dense matrix the package never forms, and diagonal_blocks reads the
blocks back off one.  per_column_eig_hermitian is eig_hermitian with its
tie-break key rounded column by column.  dense_extract_plaintext is
extract_plaintext as it read the dense d_retained x d_retained state, for
the factored path to match.  message_overlap is theorem 1's stage-2 metric
Tr(rho_a rho_b) by a dense product, and two_conjugate_plaintext_dependence
is plaintext_dependence as it once conjugated the isometry twice.
rotated_tag_scheme and biased_qotp_scheme are one-parameter families that
cross the check thresholds, built from the catalog's builders.
"""

import dataclasses
import tracemalloc

import numpy as np

from qhekit.catalog import (
    _CONSTRUCTED_STREAM, _LEAKY_STREAM, build_qotp_scheme, build_tag_evaluate_scheme
)
from qhekit.layout import Layout, assemble_ket, axis_permutation, reduced_from_ket
from qhekit.linalg import (
    _phase_fix_columns,
    as_ket,
    as_square,
    basis_ket,
    dagger,
    eig_hermitian,
    haar_ket,
    haar_unitary,
    kron,
    trace_distance,
)
from qhekit.localiser import (
    _RECONSTRUCTION_SAMPLES,
    _RECONSTRUCTION_SEED,
    ExtractionError,
    LocalisationProblem,
    LocalisationResult,
)
from qhekit.qinfo import DensityOp
from qhekit.scheme import FootprintOp, QheScheme, RegisterState, evolve
from qhekit.tolerances import EXTRACTION_PURITY, RANK_TOL


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


def initial_ket(scheme: QheScheme, psi) -> np.ndarray:
    """The global ket before encryption; the per-plaintext reference for encryption_isometry."""
    blocks = [((scheme.input_label,), psi)] + [(b.labels, b.ket) for b in scheme.fixed_states]
    return assemble_ket(scheme.layout, blocks)


def ciphertext(scheme: QheScheme, psi) -> DensityOp:
    """Bob's reduced state at t1 for the given plaintext."""
    return DensityOp.reduced(scheme.encryption_isometry @ psi, scheme.layout, scheme.bob_t1)


def remote_reduced(problem: LocalisationProblem, psi) -> np.ndarray:
    """The remote side's reduced state for one input, which check_zero_leakage is bounded by."""
    return reduced_from_ket(problem.output_ket(psi), problem.layout, [problem.remote_label])


def partial_trace(rho, layout: Layout, keep) -> np.ndarray:
    """Reduced operator of a dense rho on the kept registers, in layout order.

    keep may be empty, in which case the full trace is returned as a 1x1 matrix.
    """
    rho = as_square(rho, "density operator")
    kept = layout.positions(layout.ordered(keep))
    n = len(layout.dims)
    col = [n + p if p in kept else p for p in range(n)]  # traced registers share row and column
    d = int(np.prod([layout.dims[p] for p in kept]))
    out = list(kept) + [col[p] for p in kept]
    return np.einsum(rho.reshape(layout.dims * 2), list(range(n)) + col, out).reshape(d, d)


def product_deviation(rho: DensityOp, side_a) -> float:
    """Trace distance between rho and the product of its marginals, by one dense eigenproblem."""
    a = rho.layout.ordered(side_a)
    b = rho.layout.complement(a)
    if not a or not b:
        raise ValueError("product test needs a non-degenerate bipartition")
    rho_a = partial_trace(rho.matrix, rho.layout, a)
    rho_b = partial_trace(rho.matrix, rho.layout, b)
    perm = axis_permutation(rho.layout.dims, rho.layout.positions(a + b))
    return trace_distance(rho.matrix[np.ix_(perm, perm)], kron(rho_a, rho_b))


def schmidt(psi, layout: Layout, left) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a pure state across a register bipartition.

    Returns (coefficients, left_vectors, right_vectors): descending positive
    coefficients, and orthonormal vectors as matrix columns, so that
    psi = sum_k coefficients[k] * kron(left[:, k], right[:, k]).
    """
    psi = as_ket(psi, "state")
    left = layout.ordered(left)
    front, back = layout.positions(left), layout.positions(layout.complement(left))
    if not front or not back:
        raise ValueError("both sides of the cut must be non-empty")
    m = psi.reshape(layout.dims).transpose(front + back).reshape(layout.dim_of(left), -1)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # Squared coefficients are reduced-state eigenvalues; align thresholds.
    r = max(1, int(np.sum(s > np.sqrt(RANK_TOL))))
    # Fix the joint phase freedom per Schmidt pair for determinism.
    u, phases = _phase_fix_columns(u[:, :r])
    return s[:r].astype(float), u, (vh[:r, :].T * phases)


def von_neumann_entropy(rho: DensityOp) -> float:
    """Entropy in bits; eigenvalues at or below the rank threshold are dropped."""
    evals = np.linalg.eigvalsh(rho.matrix)
    evals = evals[evals > RANK_TOL]
    s = float(-np.sum(evals * np.log2(evals)))
    return min(max(s, 0.0), float(np.log2(rho.dim)))


def dense_problem(layout: Layout, unitary, aux, remote) -> LocalisationProblem:
    """The problem psi -> unitary (psi ⊗ aux ⊗ remote), from its dense unitary.

    layout names the unitary's (data, aux, remote) registers; the problem's
    retained register is data ⊗ aux, as the problem builders lay it out.
    """
    d1, d2, db = layout.dims
    w = np.asarray(unitary, dtype=complex).reshape(layout.dim, d1, -1)
    return LocalisationProblem(Layout((("A", d1 * d2), ("B", db))), w @ kron(aux, remote))


def uneven_problem(seed: int) -> LocalisationProblem:
    """A zero-leakage problem whose data dimension 2 does not divide its retained 3.

    Input j goes to a seeded orthonormal |a_j> on the retained side, next to
    one seeded remote ket, so the remote state has rank 1.
    """
    rng = np.random.default_rng(seed)
    kept = haar_unitary(rng, 3)[:, :2]
    return LocalisationProblem(
        Layout((("A", 3), ("B", 2))), kron(kept, haar_ket(rng, 2).reshape(2, 1))
    )


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
    (d_retained, db), d1 = problem.layout.dims, problem.data_dim
    rng = np.random.default_rng([_RECONSTRUCTION_SEED])
    worst = 0.0
    for _ in range(_RECONSTRUCTION_SAMPLES):
        psi = haar_ket(rng, d1)
        # Both states have rank <= remote_dim; compare them in factored form.
        simulated = problem.output_ket(psi).reshape(d_retained, db)
        columns = result.branches @ kron(psi.reshape(-1, 1), np.eye(result.rank))
        worst = max(
            worst,
            q_form_trace_distance(simulated, np.ones(db), columns, result.residual_weights),
        )
    return float(worst)


def q_form_trace_distance(m1, w1, m2, w2) -> float:
    """Trace distance between m1 diag(w1) m1† and m2 diag(w2) m2†, read through Q† of a QR."""
    stacked = np.hstack([m1, m2])
    q, _ = np.linalg.qr(stacked)
    a = q.conj().T @ stacked
    weights = np.concatenate([np.asarray(w1, dtype=float), -np.asarray(w2, dtype=float)])
    delta = (a * weights) @ a.conj().T
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta))))


def whole_j_reconstruction_residual(
    problem: LocalisationProblem, branches: np.ndarray, residual_weights: np.ndarray
) -> float:
    """localise's residual on its seeded inputs from one R-only QR of the whole J."""
    (d_retained, db), d1 = problem.layout.dims, problem.data_dim
    outputs = problem.isometry.reshape(d_retained, db, d1).transpose(0, 2, 1)
    joint = np.concatenate([outputs, branches.reshape(d_retained, d1, -1)], axis=2)
    core = np.linalg.qr(joint.reshape(d_retained, -1), mode="r").reshape(-1, d1, joint.shape[2])
    rng = np.random.default_rng([_RECONSTRUCTION_SEED])
    worst = 0.0
    for _ in range(_RECONSTRUCTION_SAMPLES):
        factors = haar_ket(rng, d1) @ core
        distance = q_form_trace_distance(
            factors[:, :db], np.ones(db), factors[:, db:], residual_weights
        )
        worst = max(worst, distance)
    return float(worst)


def norm_completeness_deltas(scheme: QheScheme) -> np.ndarray:
    """check_completeness's delta per circuit, all circuits at once, by a full SVD norm."""
    d = scheme.input_dim
    dims = scheme.layout.dims
    out = scheme.layout.position(scheme.output_label)
    n = len(scheme.circuit_ids)
    _, _, kets = evolve(scheme, scheme.circuit_ids, np.eye(d))
    k = np.moveaxis(kets.reshape(dims + (n, d)), (len(dims), out), (0, 1))
    targets = np.stack([ev.target for ev in scheme.evaluations])
    rel = (targets.conj().swapaxes(1, 2) @ k.reshape(n, dims[out], -1)).reshape(n, dims[out], -1, d)
    rel[:, np.arange(d), :, np.arange(d)] -= np.einsum("cjrj->cr", rel) / d
    return np.linalg.norm(rel.reshape(n, -1, d), 2, axis=(1, 2))


def _q_support_of_factor(m):
    # Eigenbasis (through the QR's Q), eigenvalues and kept counts of m m†.
    q, r = np.linalg.qr(m)
    evals, evecs = np.linalg.eigh(r @ r.conj().swapaxes(-1, -2))
    return q @ evecs, evals, np.sum(evals > RANK_TOL, axis=-1)


def q_basis_product_deviation_from_ket(psi, layout: Layout, side_a, side_b) -> np.ndarray:
    """product_deviation_from_ket with both sides' support bases formed through Q.

    psi is a (dim, m) batch of kets; returns m deviations.
    """
    a, b = layout.ordered(side_a), layout.ordered(side_b)
    rest = layout.complement(a + b)
    kets = np.asarray(psi, dtype=complex).reshape(layout.dim, -1)
    pos = (len(layout.dims),) + layout.positions(a) + layout.positions(b) + layout.positions(rest)
    da, db = layout.dim_of(a), layout.dim_of(b)
    dr = layout.dim_of(rest) if rest else 1
    t = kets.reshape(layout.dims + (-1,)).transpose(pos).reshape(-1, da, db, dr)
    basis_a, wa, keep_a = _q_support_of_factor(t.reshape(-1, da, db * dr))
    basis_b, wb, keep_b = _q_support_of_factor(t.swapaxes(1, 2).reshape(-1, db, da * dr))
    deviations = np.empty(len(t))
    for i in range(len(t)):
        ra, rb = keep_a[i], keep_b[i]
        va = basis_a[i][:, basis_a.shape[2] - ra :]
        vb = basis_b[i][:, basis_b.shape[2] - rb :]
        proj = (va.conj().T @ t[i].reshape(da, db * dr)).reshape(ra, db, dr)
        proj = (vb.conj().T[None] @ proj).reshape(ra * rb, dr)
        product = np.outer(wa[i][len(wa[i]) - ra :], wb[i][len(wb[i]) - rb :]).ravel()
        delta = proj @ proj.conj().T - np.diag(product)
        nuclear = np.sum(np.abs(np.linalg.eigvalsh(delta)))
        dropped = np.vdot(kets[:, i], kets[:, i]).real ** 2 - product.sum()
        deviations[i] = 0.5 * (nuclear + max(dropped, 0.0))
    return deviations


def record_decompositions(monkeypatch) -> list[tuple[str, tuple[int, ...], str | None]]:
    """Record (name, input shape, QR mode) of each np.linalg qr/svd/eigh/eigvalsh call.

    numpy's own module is patched too, so that np.linalg.norm(x, 2), which
    calls svd there, is recorded as well.
    """
    calls = []

    def recording(name, original):
        def wrapper(a, *args, **kwargs):
            mode = kwargs.get("mode", args[0] if args else "reduced") if name == "qr" else None
            calls.append((name, np.shape(a), mode))
            return original(a, *args, **kwargs)

        return wrapper

    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2, numpy 1
    for name in ("qr", "svd", "eigh", "eigvalsh"):
        wrapper = recording(name, getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapper)
        monkeypatch.setattr(internal, name, wrapper)
    return calls


def peak_bytes(fn):
    """(fn(), the tracemalloc peak in bytes while it ran), tracing only that call."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def circuit_major(kets) -> bool:
    """Is a (dim, n, ...) batch laid out as n (dim, ...) blocks, circuit axis outermost?"""
    return np.moveaxis(kets, 1, 0).flags.c_contiguous


def block_diagonal(blocks) -> np.ndarray:
    """The sum of kron(|k><k|, blocks[k]) over a stack (m, b, b), as an (m b, m b) matrix.

    Adding into zeros turns every -0.0 into +0.0, as that sum does.
    """
    blocks = np.asarray(blocks, dtype=complex)
    m, b = blocks.shape[:2]
    out = np.zeros((m, b, m, b), dtype=complex)
    ar = np.arange(m)
    out[ar, :, ar, :] += blocks
    return out.reshape(m * b, m * b)


def diagonal_blocks(dense, m: int) -> np.ndarray:
    """The m diagonal (b, b) blocks of an (m b, m b) matrix, as a contiguous stack."""
    b = len(dense) // m
    return dense.reshape(m, b, m, b)[np.arange(m), :, np.arange(m), :].copy()


def dense_footprint(op: FootprintOp) -> tuple[np.ndarray, tuple[str, ...]]:
    """op as one dense matrix with its footprint; a key-controlled one on (control, *labels)."""
    if op.control is None:
        return op.matrix, op.labels
    return block_diagonal(op.matrix), (op.control,) + op.labels



def per_column_eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """eig_hermitian with each column rounded on its own inside the tie-break sort key."""
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    v, _ = _phase_fix_columns(v)
    order = sorted(
        range(w.size),
        key=lambda k: (-round(float(w[k]), 12), np.round(v[:, k], 9).tobytes()),
    )
    return w[order].real, v[:, order]


def dense_extract_plaintext(
    result: LocalisationResult, rho_retained
) -> tuple[np.ndarray, float, float]:
    """extract_plaintext on a dense retained state: (ket, purity, outside weight).

    The data factor is V† rho V with the residual index traced out, divided
    by tr rho; it refuses as extract_plaintext does.
    """
    matrix = np.asarray(rho_retained, dtype=complex)
    d1, n = result.data_dim, result.branches.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"state shape {matrix.shape} != retained dimension {n}")
    v = result.branches
    inner = v.conj().T @ matrix @ v
    data_part = np.einsum("ikjk->ij", inner.reshape(d1, result.rank, d1, result.rank))
    total = np.real(np.trace(matrix))
    if not total > 0:
        raise ValueError(f"state trace {total!r} is not positive")
    outside_weight = float(1.0 - np.real(np.trace(data_part)) / total)
    data_part /= total
    purity = float(np.real(np.trace(data_part @ data_part)))
    if purity < EXTRACTION_PURITY:
        raise ExtractionError(purity, outside_weight)
    _, vecs = eig_hermitian(data_part)
    return vecs[:, 0], purity, outside_weight


def mailbox_bridge(scheme: QheScheme) -> LocalisationProblem:
    """The t1 problem as a swap with an explicit mailbox register on Bob's side.

    The encrypted basis inputs get an empty mailbox as an extra last
    register; one row gather swaps each sent register's digits with its
    slice of the mailbox, and a second reorders the registers into (data,
    aux..., Bob's initial..., mailbox), aux being every other register Alice
    holds before t1.  The retained side is data ⊗ aux, larger than Alice's
    t1 registers by the sent registers' dimension, and the remote side is
    Bob's initial registers and the mailbox.
    """
    aux_labels = tuple(l for l in scheme.alice_initial if l != scheme.input_label)
    mail_dim = scheme.layout.dim_of(scheme.send_to_bob)
    extended = Layout(scheme.layout.registers + (("mailbox", mail_dim),))
    dims, n = extended.dims, len(extended.dims)
    columns = np.kron(scheme.encryption_isometry, basis_ket(mail_dim, 0)[:, None])
    send_pos = [extended.position(l) for l in scheme.send_to_bob]
    split_dims = list(dims[:-1]) + [dims[p] for p in send_pos]
    axes = list(range(len(split_dims)))
    for i, p in enumerate(send_pos):
        axes[p], axes[n - 1 + i] = axes[n - 1 + i], axes[p]
    rows = axis_permutation(split_dims, axes)
    remote_labels = scheme.bob_initial + ("mailbox",)
    order = [extended.position(l) for l in (scheme.input_label,) + aux_labels + remote_labels]
    layout = Layout(
        (
            ("A", scheme.input_dim * extended.dim_of(aux_labels)),
            ("B", extended.dim_of(remote_labels)),
        )
    )
    return LocalisationProblem(layout, columns[rows[axis_permutation(dims, order)]])


def message_overlap(a: DensityOp, b: DensityOp) -> float:
    """Tr(rho_a rho_b) of two message states, by a dense matrix product."""
    return float(np.real(np.trace(a.matrix @ b.matrix)))


def two_conjugate_plaintext_dependence(isometry, layout: Layout, keep):
    """plaintext_dependence with the transposed isometry conjugated once per product."""
    kept = layout.ordered(keep)
    d = isometry.shape[1]
    dk = layout.dim_of(kept)
    axes = layout.positions(layout.complement(kept)) + (len(layout.dims),) + layout.positions(kept)
    flat = isometry.reshape(layout.dims + (d,)).transpose(axes).reshape(-1, dk)
    sigma_bar = flat.T @ flat.conj() / d
    by_rest = flat.reshape(-1, d * dk)
    blocks = (by_rest.T @ by_rest.conj()).reshape(d, dk, d, dk).swapaxes(1, 2)
    blocks[np.arange(d), np.arange(d)] -= sigma_bar
    return np.linalg.svd(blocks, compute_uv=False).sum(axis=-1), sigma_bar


def rotated_tag_scheme(theta: float) -> QheScheme:
    """tag-evaluate n=1 {I, X, Z} with circuit I's evaluation a rotation by theta on (input, tag).

    The rotation takes |0,0> to c|0,0> + s|1,2> and |1,2> to -s|0,0> + c|1,2>
    (c = cos theta, s = sin theta) and fixes every other basis state.  Bob
    holds (input, tag) in |0,0> at t1, so security is untouched.  Circuit I's
    message is c^2|0><0| + s^2|2><2|, whose overlap with circuit Z's message
    |2><2| is Tr(rho_I rho_Z) = s^2; the hold register stays a pure plaintext,
    so stage 1 sees a product.  Decryption applies Z to the |1,2> branch, so
    circuit I maps psi to c psi ⊗ |0,0> + s Z psi ⊗ |1,2>: with r = c|0,0>
    (Tr Z = 0), R - I ⊗ r = s Z ⊗ |1,2> and completeness reads delta = s.
    """
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z"))
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.eye(6, dtype=complex)  # (input, tag) index 3 i + t
    rotation[[0, 0, 5, 5], [0, 5, 0, 5]] = c, -s, s, c
    operator = FootprintOp(("input", "tag"), rotation)
    first = dataclasses.replace(scheme.evaluations[0], operator=operator)
    return dataclasses.replace(scheme, evaluations=(first, *scheme.evaluations[1:]))


def biased_qotp_scheme(eta: float) -> QheScheme:
    """QOTP n=1 with key probabilities (1/4 + eta, 1/4 - eta, 1/4, 1/4) for pads I, Z, X, XZ.

    The key stays purified, sum_k sqrt(p_k)|k>|k>.  Bob's block
    sigma_jk = sum_k p_k P_k|j><k|P_k†, with X^a Z^b|j> = (-1)^(b j)|j xor a>:
    sigma_00 = (p_I + p_Z)|0><0| + (p_X + p_XZ)|1><1| = sigma_bar (likewise
    sigma_11), so eps_00 = eps_11 = 0, and sigma_01 = (p_I - p_Z)|0><1| +
    (p_X - p_XZ)|1><0| has trace norm |2 eta| + 0, so security reads
    eps = 2 eta.  Every pad is still undone by its key, so completeness holds.
    """
    scheme = build_qotp_scheme(1)
    p = np.array([0.25 + eta, 0.25 - eta, 0.25, 0.25])
    key_ket = np.zeros(16, dtype=complex)
    key_ket[np.arange(4) * 5] = np.sqrt(p)
    key = RegisterState(("key", "key_purifier"), key_ket)
    return dataclasses.replace(scheme, fixed_states=(key,))
