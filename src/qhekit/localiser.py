"""Constructive data localisation.

A problem is an isometry W taking a d-dimensional input psi to a state on a
(retained, remote) bipartition, such as U (psi ⊗ aux ⊗ remote) for an
evolution U and fixed kets.  The remote side's reduced state carrying zero
information about psi implies that a single psi-independent unitary on the
retained side factors its reduced state into psi times a fixed residual.
One qinfo.plaintext_dependence call decides that zero-leakage hypothesis
for every input by linearity; when it holds, this module builds that
unitary explicitly, reporting numerical residuals for every step.
Thresholds: localise's leakage_tol and rank_tol keywords, EQUALITY_TOL and
RANK_TOL by default, and the fixed GRAM_REFUSAL and EXTRACTION_PURITY of
tolerances.py.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .layout import Layout
from .linalg import (
    _unitarity_residuals, as_ket, as_matrix, eig_hermitian, haar_ket, is_isometry,
    positive_tolerance,
)
from .qinfo import plaintext_dependence
from .tolerances import EQUALITY_TOL, EXTRACTION_PURITY, GRAM_REFUSAL, RANK_TOL

_RECONSTRUCTION_SAMPLES = 20
_RECONSTRUCTION_SEED = 0x4C0C
# _reconstruction_residual QRs J in row blocks of at most this many bytes,
# and at least one row.  While J has at most 512 columns a block has at
# least as many rows as J has columns, so the running R is no larger than
# a block.
_CORE_BLOCK_BYTES = 4 * 2**20


class LocalisationError(RuntimeError):
    """Base class for localisation refusals."""


class LeakageDetected(LocalisationError):
    """The remote state depends on the input; deviation is check_zero_leakage's."""

    def __init__(self, deviation: float):
        super().__init__(
            f"remote reduced state varies with the input (max deviation {deviation:.3e}); "
            "localisation refused"
        )
        self.deviation = deviation


class GramCheckFailed(LocalisationError):
    """Conditional branch vectors are not orthonormal within tolerance."""

    def __init__(self, residual: float):
        super().__init__(
            f"branch Gram residual {residual:.3e} exceeds {GRAM_REFUSAL:.0e}; "
            "hypothesis violation or numerical breakdown"
        )
        self.residual = residual


class ExtractionError(RuntimeError):
    """The data factor read off the branch span is too mixed to give a plaintext.

    outside_weight is the share of the state's trace outside the branch span.
    """

    def __init__(self, purity: float, outside_weight: float):
        super().__init__(
            f"extracted state purity {purity:.6f} < {EXTRACTION_PURITY} (weight outside the "
            f"branch span {outside_weight:.3e}); extraction failed"
        )
        self.purity = purity
        self.outside_weight = outside_weight


@dataclass(frozen=True)
class RetainedState:
    """A retained-side state rho = M M† given by its factor M (d_retained x k).

    For a pure global state, M is the output ket split (retained, remote),
    so k is the remote dimension; a mixture sum_i p_i M_i M_i† is the
    stacked factor [sqrt(p_0) M_0 | sqrt(p_1) M_1 | ...].  M is user input,
    so it is checked to be a finite matrix; rho itself is formed only on a
    request for matrix.
    """

    factor: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", as_matrix(self.factor, "retained state factor"))

    @property
    def matrix(self) -> np.ndarray:
        """The dense d_retained x d_retained density matrix M M†."""
        return self.factor @ self.factor.conj().T


@dataclass(frozen=True)
class LocalisationProblem:
    """The map psi -> W psi onto a (retained, remote) bipartition, given by W.

    W is the dim x d input isometry, rows in layout order and one column
    per input basis ket, so the data dimension d is W's column count; the
    localiser reads a problem only through it.  A problem built from a dense
    unitary U on (data, aux, remote) passes U.reshape(dim, d, -1) @
    kron(aux, remote), with data and aux merged into the retained register.
    Files, builders and user matrices enter here, so W is checked in full:
    two registers, finite entries, dim rows and W†W = I.
    """

    layout: Layout
    isometry: np.ndarray

    def __post_init__(self) -> None:
        if len(self.layout.registers) != 2:
            raise ValueError(
                f"layout must have exactly the (retained, remote) registers, "
                f"got {self.layout.labels}"
            )
        w = as_matrix(self.isometry, "input isometry")
        if w.shape[0] != self.layout.dim or w.shape[1] < 2:
            raise ValueError(
                f"input isometry shape {w.shape} needs {self.layout.dim} rows, at least 2 columns"
            )
        if not is_isometry(w):
            raise ValueError("input isometry columns are not orthonormal within tolerance")
        object.__setattr__(self, "isometry", w)

    @property
    def data_dim(self) -> int:
        return self.isometry.shape[1]

    @property
    def remote_label(self) -> str:
        return self.layout.labels[1]

    def output_ket(self, psi: np.ndarray) -> np.ndarray:
        psi = as_ket(psi, "input")
        if psi.size != self.data_dim:
            raise ValueError(f"input dimension {psi.size} != data dimension {self.data_dim}")
        return self.isometry @ psi

    def retained_reduced(self, psi: np.ndarray) -> RetainedState:
        """The retained side's state for one input, as its factor.

        The output ket reshaped to d_retained x d_remote: the remote register
        is the layout's last, so this M has M M† = Tr_remote |out><out|.
        """
        return RetainedState(self.output_ket(psi).reshape(self.layout.dims))


@dataclass(frozen=True)
class LocalisationResult:
    """A localisation: the branch isometry, its residual weights and residuals.

    branches is the d_retained x (d * rank) isometry whose column
    j * rank + k is the retained-side branch of data basis ket j on the
    residual's k-th eigenvector.  factor_dims is the (d, d_retained / d)
    split under which the localising unitary maps that branch to |j> ⊗ |k>,
    or None when d does not divide d_retained and no such unitary exists;
    residual_weights are the rank nonzero eigenvalues of the fixed residual
    state, normalised to sum 1.
    leakage_deviation is the zero-leakage deviation the input passed with;
    gram_residual is the worst deviation of the branch Gram matrix from the
    identity; reconstruction_residual is the worst trace distance between
    the simulated retained state and the predicted one over 20 seeded Haar
    inputs, each pair compared in the R-core of J and read on the small
    side of its factor (see _reconstruction_residual).
    """

    branches: np.ndarray
    residual_weights: np.ndarray
    rank: int
    factor_dims: tuple[int, int] | None
    leakage_deviation: float
    gram_residual: float
    reconstruction_residual: float

    @property
    def data_dim(self) -> int:
        return self.branches.shape[1] // self.rank

    @cached_property
    def unitary(self) -> np.ndarray:
        """The full localising unitary on the retained space, completed on first access.

        Branch (j, k) fills column j * d2 + k; the columns with k >= rank
        hold the rest of complete_orthonormal's basis, an arbitrary
        orthonormal basis of the complement.  ValueError if factor_dims is None.
        """
        if self.factor_dims is None:
            raise ValueError(
                f"data dimension {self.data_dim} does not divide retained {len(self.branches)}"
            )
        d1, d2 = self.factor_dims
        n, split = d1 * d2, d1 * self.rank
        basis = complete_orthonormal(self.branches)
        unitary = np.empty((n, d1, d2), dtype=complex)
        unitary[:, :, : self.rank] = basis[:, :split].reshape(n, d1, self.rank)
        unitary[:, :, self.rank :] = basis[:, split:].reshape(n, d1, d2 - self.rank)
        return unitary.reshape(n, n)

    def reconstruct(self, psi: np.ndarray) -> RetainedState:
        """The retained-side state this localisation predicts for input psi.

        Its factor has rank columns: column k is sum_j psi_j times branch
        (j, k), scaled by the square root of residual weight k.
        """
        psi = as_ket(psi, "input")
        d1 = self.data_dim
        if psi.size != d1:
            raise ValueError(f"input dimension {psi.size} != data dimension {d1}")
        cols = psi @ self.branches.reshape(-1, d1, self.rank)
        return RetainedState(cols * np.sqrt(self.residual_weights))


def check_zero_leakage(problem: LocalisationProblem) -> tuple[bool, float]:
    """Is the remote reduced state independent of the input?

    The deviation is max eps of qinfo.plaintext_dependence on the problem's
    input isometry: 0 iff the remote state is the same for every input, and
    any two inputs' remote states are within trace distance data_dim times it.
    It passes within EQUALITY_TOL, localise's default leakage_tol.
    """
    eps, _ = plaintext_dependence(problem.isometry, problem.layout, [problem.remote_label])
    deviation = float(eps.max())
    return deviation <= EQUALITY_TOL, deviation


def complete_orthonormal(columns: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    The input columns are kept verbatim as the leading columns; the new ones
    are the trailing columns of one complete QR of them, an orthonormal
    basis of their complement.
    """
    columns = np.asarray(columns, dtype=complex)
    q, _ = np.linalg.qr(columns, mode="complete")
    return np.hstack([columns, q[:, columns.shape[1] :]])


def _reconstruction_residual(
    problem: LocalisationProblem, branches: np.ndarray, residual_weights: np.ndarray
) -> float:
    """Worst trace distance between simulated and predicted retained states.

    Taken over 20 seeded Haar inputs psi.  With O_j the evolved basis input j
    as a d_retained x d_remote matrix and V_j its branches, the simulated
    state is (sum_j psi_j O_j)(...)† and the predicted one
    (sum_j psi_j V_j) diag(w) (...)†: both factors are psi-combinations of
    the columns of J = [O_0 | V_0 | ... | O_{d1-1} | V_{d1-1}].  J = QR with
    orthonormal Q, so conjugating both states by Q† keeps their trace
    distance, and every input is compared on the same combination of R's
    columns.  Nothing per input has the retained size, and J is never
    whole: its rows go in blocks of at most _CORE_BLOCK_BYTES, each copied
    to Fortran order and reduced to its R-only QR, and each block's R is
    folded into the running one as the R of the two stacked, which keeps
    J's Gram matrix; only one block is held at a time.  Any R with
    R†R = J†J gives the same residual, as the states differ only by a
    unitary on the left of their factors.

    Each input's states differ by F D F†, with F = psi·R of shape
    (k, d_remote + rank) and D = diag(1, ..., 1, -w), and that difference is
    read on F's small side, as qinfo._factor_spectrum reads a factor: a tall
    F is reduced to the R of its R-only QR first, and a square or wide one
    gives its k x k matrix F D F† to the eigensolver directly.
    """
    (d_retained, db), d1 = problem.layout.dims, problem.data_dim
    outputs = problem.isometry.reshape(d_retained, db, d1).transpose(0, 2, 1)
    by_input = branches.reshape(d_retained, d1, -1)
    per_input = db + by_input.shape[2]  # columns of [O_j | V_j]
    rows = max(1, _CORE_BLOCK_BYTES // (16 * d1 * per_input))
    core = None
    for start in range(0, d_retained, rows):
        stop = min(start + rows, d_retained)
        block = np.empty((d1, per_input, stop - start), dtype=complex)  # J's rows, transposed
        block[:, :db] = outputs[start:stop].transpose(1, 2, 0)
        block[:, db:] = by_input[start:stop].transpose(1, 2, 0)
        r = np.linalg.qr(block.reshape(-1, stop - start).T, mode="r")
        del block
        core = r if core is None else np.linalg.qr(np.concatenate([core, r]), mode="r")
    core = core.reshape(-1, d1, per_input)
    signs = np.concatenate([np.ones(db), -residual_weights])  # D's diagonal
    rng = np.random.default_rng([_RECONSTRUCTION_SEED])
    worst = 0.0
    for _ in range(_RECONSTRUCTION_SAMPLES):
        factor = haar_ket(rng, d1) @ core
        if factor.shape[0] > per_input:
            factor = np.linalg.qr(factor, mode="r")
        delta = (factor * signs) @ factor.conj().T
        worst = max(worst, 0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta))))
    return float(worst)


def localise(
    problem: LocalisationProblem, *, leakage_tol: float = EQUALITY_TOL, rank_tol: float = RANK_TOL
) -> LocalisationResult:
    """Build the input-independent localising unitary for a zero-leakage problem.

    Steps: (1) read the zero-leakage deviation and the remote state averaged
    over the data basis inputs from one plaintext_dependence call, and fix
    that state's eigenbasis once; (2) project each evolved basis input onto
    those eigenvectors to get the conditional branch vectors;
    (3) verify the branches are orthonormal and keep them as the isometry
    the localising unitary takes to |j> ⊗ |k> (result.unitary completes it
    to the full retained space on first access); (4) measure the
    reconstruction residual on 20 seeded Haar inputs, each compared in the
    R-core of J, folded from its row blocks' Rs one block at a time, so no
    input costs work of the retained size and J is never held whole; an
    input's factor gets an R-only QR only when it is tall, and is otherwise
    read as it is.

    leakage_tol bounds the zero-leakage deviation, and remote state
    eigenvalues at or below rank_tol count as zero; each must be positive.
    Raises LeakageDetected, GramCheckFailed, or LocalisationError when the
    remote state's rank is 0 or d times it exceeds the retained dimension,
    instead of returning a result whose premises do not hold.
    """
    positive_tolerance("leakage", leakage_tol)
    positive_tolerance("rank", rank_tol)
    eps, rho_remote = plaintext_dependence(problem.isometry, problem.layout, [problem.remote_label])
    deviation = float(eps.max())
    if not deviation <= leakage_tol:
        raise LeakageDetected(deviation)

    (d_retained, db), d1 = problem.layout.dims, problem.data_dim
    # outputs[:, j, :] is the evolved basis input j, split (retained, remote).
    outputs = problem.isometry.reshape(d_retained, db, d1).transpose(0, 2, 1)

    evals, evecs = eig_hermitian(rho_remote)
    kept = evals > rank_tol
    weights = evals[kept]
    eigenbasis = evecs[:, kept]
    rank = int(weights.size)
    if rank == 0:
        raise LocalisationError(
            f"no remote state eigenvalue exceeds the rank tolerance {rank_tol:g} "
            f"(largest {evals[0]:.3e})"
        )
    if d1 * rank > d_retained:
        raise LocalisationError(
            f"data dimension {d1} times remote state rank {rank} is {d1 * rank}, more "
            f"than the retained dimension {d_retained}"
        )

    # One 2-D product over every (retained, input) row of the outputs.
    branches = outputs.reshape(-1, db) @ eigenbasis.conj()
    branches /= np.sqrt(weights)
    branches = branches.reshape(d_retained, d1 * rank)
    gram_residual = float(_unitarity_residuals(branches))
    if gram_residual > GRAM_REFUSAL:
        raise GramCheckFailed(gram_residual)

    # The sum and division run over the zero-padded complex diagonal, which
    # keeps the weights bit-identical to earlier exports' dense residual
    # state; a plain float sum differs in the last bit on some problems.
    d2, spare = divmod(d_retained, d1)
    padded = np.zeros(d2, dtype=complex)
    padded[:rank] = weights
    residual_weights = np.real(padded / np.real(padded.sum()))[:rank]

    return LocalisationResult(
        branches=branches,
        residual_weights=residual_weights,
        rank=rank,
        factor_dims=None if spare else (d1, d2),
        leakage_deviation=deviation,
        gram_residual=gram_residual,
        reconstruction_residual=_reconstruction_residual(problem, branches, residual_weights),
    )


def _data_factor(
    result: LocalisationResult, state: RetainedState
) -> tuple[np.ndarray, float, float]:
    """The normalised data factor of state, its purity and its weight outside the branch span.

    With V the branch isometry and M the state's factor, G = V†M has rows
    (j, k), data index j and residual index k; the data factor is
    Tr_k(G G†) = G' G'† with G' = G reshaped (d1, rank * columns), divided
    by tr rho = ||M||_F^2.  Only M† V is formed, so neither rho nor a
    conjugate of V is.
    """
    if not isinstance(state, RetainedState):
        raise TypeError(f"state must be a RetainedState (rho = M M†), got {type(state).__name__}")
    factor, d_retained = state.factor, len(result.branches)
    if factor.shape[0] != d_retained:
        raise ValueError(f"state factor shape {factor.shape} != retained dimension {d_retained}")
    total = np.real(np.vdot(factor, factor))
    if not total > 0:
        raise ValueError(f"state trace {total!r} is not positive")
    projected = (factor.conj().T @ result.branches).conj().T.reshape(result.data_dim, -1)
    data_part = projected @ projected.conj().T
    outside_weight = float(1.0 - np.real(np.trace(data_part)) / total)
    data_part /= total
    purity = float(np.real(np.trace(data_part @ data_part)))
    return data_part, purity, outside_weight


def extract_plaintext(result: LocalisationResult, state: RetainedState) -> np.ndarray:
    """Recover the input ket from a retained-side state of the localised form.

    state is a RetainedState, the state as its factor M with rho = M M†, as
    problem.retained_reduced and result.reconstruct return it; a dense
    array raises TypeError.  Works in the span of the branch isometry V:
    the data factor is V† rho V with the residual index traced out, divided
    by tr rho, and is formed from V†M, so no d_retained x d_retained array
    is.  Weight of rho outside that span is not renormalised away, so it
    can only lower the purity.  Returns the dominant eigenvector of the
    data factor; raises ExtractionError, reporting the outside weight, when
    its purity is below EXTRACTION_PURITY.
    """
    data_part, purity, outside_weight = _data_factor(result, state)
    if purity < EXTRACTION_PURITY:
        raise ExtractionError(purity, outside_weight)
    _, vecs = eig_hermitian(data_part)
    return vecs[:, 0]
