"""Quantum-information functionals over density operators and their factors.

All functions are pure; DensityOp values are immutable and safe to share
between threads.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .layout import Layout, reduced_from_ket
from .linalg import as_ket, as_kets, as_square, dagger
from .tolerances import EQUALITY_TOL, HERMITICITY_TOL, NORM_TOL, RANK_TOL


@dataclass(frozen=True)
class DensityOp:
    """A validated density operator together with its register layout."""

    layout: Layout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_square(self.matrix, "density operator")
        if m.shape[0] != self.layout.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} != layout dimension {self.layout.dim}"
            )
        herm = float(np.max(np.abs(m - dagger(m))))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density operator is not Hermitian (residual {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"density operator has trace {tr!r}, expected 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.dim

    @classmethod
    def from_ket(cls, layout: Layout, psi: np.ndarray) -> "DensityOp":
        psi = as_ket(psi, "state", dim=layout.dim)
        return cls(layout, np.outer(psi, psi.conj()))

    @classmethod
    def reduced(cls, psi: np.ndarray, layout: Layout, keep: Iterable[str]) -> "DensityOp":
        """Reduction of a pure full-space state onto the kept registers."""
        kept = layout.ordered(keep)
        if not kept:
            raise ValueError("cannot reduce onto an empty register set")
        return cls(layout.restricted(kept), reduced_from_ket(psi, layout, kept))


def support_bases(states: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of the supports of a stack of Hermitian matrices.

    states has shape (s, d, d); item i gives a (d, r_i) array whose columns
    are the eigenvectors with eigenvalue above the rank threshold, from one
    stacked eigh.  The support projector is P_i = V_i V_i†.
    """
    evals, evecs = np.linalg.eigh(states)
    return [vecs[:, kept] for vecs, kept in zip(evecs, evals > RANK_TOL)]


def orthogonal_support(a: DensityOp, b: DensityOp) -> tuple[bool, float]:
    """(overlap within EQUALITY_TOL?, overlap Tr(P_a P_b)) for two same-layout states."""
    if a.layout != b.layout:
        raise ValueError(f"layout mismatch: {a.layout.registers} vs {b.layout.registers}")
    va, vb = support_bases(np.stack([a.matrix, b.matrix]))
    overlap = float(np.linalg.norm(dagger(va) @ vb) ** 2)  # ||V_a† V_b||_F^2
    return overlap <= EQUALITY_TOL, overlap


def plaintext_dependence(
    isometry: np.ndarray, layout: Layout, keep: Iterable[str]
) -> tuple[np.ndarray, np.ndarray]:
    """How the kept registers' state depends on the plaintext: (eps, sigma_bar).

    Column j of W = isometry (layout.dim x d) is the output for plaintext |j>.
    One Gram product of W, rows ordered (rest, plaintext), gives every block
    sigma_jk = Tr_rest(W|j><k|W†); eps_jk = ||sigma_jk - delta_jk sigma_bar||_1,
    sigma_bar = (1/d) sum_j sigma_jj, is 0 iff no plaintext changes the kept
    state.  (a) Any two plaintexts give kept states within trace distance
    d max eps: rho(psi) - sigma_bar = sum_jk psi_j psi_k^* (sigma_jk - delta_jk
    sigma_bar) has trace norm <= (sum_j |psi_j|)^2 max eps <= d max eps.
    (b) eps <= 4D, D the largest trace distance between two kept states of
    the probe kets |j>, (|j> + |k>)/sqrt(2) and (|j> + i|k>)/sqrt(2), whose
    kept states are rho_basis-j, rho_plus-j-k and rho_imag-j-k:
    sigma_jj - sigma_bar = (1/d) sum_k (rho_basis-j - rho_basis-k), and
    sigma_jk = (rho_plus-j-k - m) + i (rho_imag-j-k - m) by polarisation, with
    m = (rho_basis-j + rho_basis-k) / 2, each term of trace norm <= 2D.
    """
    kept = layout.ordered(keep)
    d = isometry.shape[1]
    dk = layout.dim_of(kept)
    axes = layout.positions(layout.complement(kept)) + (len(layout.dims),) + layout.positions(kept)
    flat = isometry.reshape(layout.dims + (d,)).transpose(axes).reshape(-1, dk)
    c = flat.conj()
    sigma_bar = flat.T @ c / d
    blocks = flat.reshape(-1, d * dk).T @ c.reshape(-1, d * dk)
    blocks = blocks.reshape(d, dk, d, dk).swapaxes(1, 2)
    blocks[np.arange(d), np.arange(d)] -= sigma_bar
    return np.linalg.svd(blocks, compute_uv=False).sum(axis=-1), sigma_bar


def product_deviation_from_ket(
    psi: np.ndarray, layout: Layout, side_a: Iterable[str], side_b: Iterable[str]
) -> float | np.ndarray:
    """Trace distance of a pure state's (side_a + side_b) reduction from its marginals' product.

    psi is one unit ket of shape (dim,), giving a float, or a batch of them
    as the columns of a (dim, m) array, giving m deviations.  The deviation
    is symmetric in the two sides; side a is taken as the larger one.  With
    the ket as a (side a, everything else) matrix M, a tall M = Q R is read
    through the R of one R-only QR and a wide M as it is (Q = I): either
    way c = Q† M holds the ket's coordinates in an orthonormal basis Q of
    M's column span.  That span holds rho_A's support, so Q ⊗ I spans the
    supports of rho_AB and rho_A ⊗ rho_B, and Delta = rho_AB - rho_A ⊗ rho_B
    is (Q ⊗ I) Delta_c (Q ⊗ I)†, with Delta_c formed from c's three Gram
    matrices.  Q is an isometry, so one stacked eigvalsh of Delta_c gives
    the trace norm exactly: no rank cut, and no decomposition at the full
    dimension.
    """
    a = layout.ordered(side_a)
    b = layout.ordered(side_b)
    if not a or not b or set(a) & set(b):
        raise ValueError("product test needs two disjoint non-empty register sets")
    rest = layout.complement(a + b)
    if layout.dim_of(b) > layout.dim_of(a):
        a, b = b, a
    kets = as_kets(psi, "state", dim=layout.dim)
    pos = (len(layout.dims),) + layout.positions(a) + layout.positions(b) + layout.positions(rest)
    da = layout.dim_of(a)
    db = layout.dim_of(b)
    dr = layout.dim_of(rest)
    t = kets.reshape(layout.dims + (-1,)).transpose(pos).reshape(-1, da, db * dr)
    # qr copies the kets once, and its R keeps their memory order.  Every
    # item is made C-contiguous, so each product below rounds the same for
    # an item alone or in a batch.
    c = np.ascontiguousarray(np.linalg.qr(t, mode="r") if da > db * dr else t)
    m, ca = c.shape[:2]
    rho_a = c @ c.conj().swapaxes(1, 2)
    cb = c.reshape(m, ca, db, dr).swapaxes(1, 2).reshape(m, db, ca * dr)
    rho_b = cb @ cb.conj().swapaxes(1, 2)
    cab = c.reshape(m, ca * db, dr)
    delta = cab @ cab.conj().swapaxes(1, 2)
    delta -= (rho_a[:, :, None, :, None] * rho_b[:, None, :, None, :]).reshape(delta.shape)
    deviations = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1)
    return float(deviations[0]) if kets.ndim == 1 else deviations
