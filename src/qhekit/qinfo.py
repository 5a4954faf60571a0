"""Quantum-information functionals over density operators and their factors.

All functions are pure; DensityOp values are immutable and safe to share
between threads.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .layout import Layout, reduced_from_ket
from .linalg import as_ket, as_square, dagger
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


def _factor_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spectrum of rho = m m† for stacked factors m, read on the factor's short side.

    For a stack of shape (s, d, k) returns (c, vecs, evals, kept): c is the
    R-factor (s, k, k) of m's R-only QR when m is tall (d > k) and m itself
    otherwise, so rho = Q c c† Q† with Q = I when m is not tall; vecs and
    evals are the eigenpairs of c c†, in ascending eigenvalue order, and
    kept counts per item the eigenvalues above the rank threshold, which
    are the last ones.  Q is never formed: the support coordinates of m
    itself are vecs† c, since (Q vecs)† m = vecs† c.
    """
    if m.shape[1] > m.shape[2]:
        m = np.linalg.qr(m, mode="r")
    evals, evecs = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
    return m, evecs, evals, np.sum(evals > RANK_TOL, axis=-1)


def product_deviation_from_ket(
    psi: np.ndarray, layout: Layout, side_a: Iterable[str], side_b: Iterable[str]
) -> float | np.ndarray:
    """Trace distance of a pure state's (side_a + side_b) reduction from its marginals' product.

    Computed entirely in factored form: every reduced state of a pure state
    has rank at most the traced-out dimension, so no full-dimension matrix
    is ever eigendecomposed.  Each side's marginal is m m† for the
    ket as a (side, everything else) matrix m; a tall m is reduced to the R
    of its R-only QR and a wide one gives its Gram matrix directly, so no
    decomposition reads a factor's long side.  The deviation is symmetric in
    the two sides, so the one of them that may be tall is taken first and
    projected through its R; the other, never tall, gives its support basis
    explicitly.  psi is one ket of shape (dim,), giving a float, or a batch
    of kets as the columns of a (dim, m) array, giving m deviations.
    """
    a = layout.ordered(side_a)
    b = layout.ordered(side_b)
    if not a or not b or set(a) & set(b):
        raise ValueError("product test needs two disjoint non-empty register sets")
    rest = layout.complement(a + b)
    if layout.dim_of(b) > layout.dim_of(a):
        a, b = b, a  # a is now the side that may be tall
    psi = np.asarray(psi, dtype=complex)
    kets = psi.reshape(layout.dim, -1)
    pos = (len(layout.dims),) + layout.positions(a) + layout.positions(b) + layout.positions(rest)
    da = layout.dim_of(a)
    db = layout.dim_of(b)
    dr = layout.dim_of(rest) if rest else 1
    # C-contiguous per item, whether psi is one ket or a batch, so every
    # product below rounds the same for an item alone or in a batch.
    t = np.ascontiguousarray(kets.reshape(layout.dims + (-1,)).transpose(pos))
    t = t.reshape(-1, da, db, dr)

    core_a, evecs_a, wa, keep_a = _factor_spectrum(t.reshape(-1, da, db * dr))
    _, basis_b, wb, keep_b = _factor_spectrum(t.swapaxes(1, 2).reshape(-1, db, da * dr))
    items = t.reshape(len(t), 1, -1)
    norms = np.real(items.conj() @ items.swapaxes(1, 2))[:, 0, 0]
    deviations = np.empty(len(t))
    # Kept supports are suffixes of eigh's ascending order, so items with the
    # same pair of support ranks share every array shape below.
    for ra, rb in sorted(set(zip(keep_a.tolist(), keep_b.tolist()))):
        group = np.flatnonzero((keep_a == ra) & (keep_b == rb))
        ea = evecs_a[group][:, :, evecs_a.shape[2] - ra :]
        vb = basis_b[group][:, :, basis_b.shape[2] - rb :]
        wa_kept = wa[group][:, wa.shape[1] - ra :]
        wb_kept = wb[group][:, wb.shape[1] - rb :]
        # Project onto the joint support factor by factor: V_a† (read on
        # side a's core), then V_b†.
        proj = ea.conj().swapaxes(1, 2) @ core_a[group]
        proj = vb.conj().swapaxes(1, 2)[:, None] @ proj.reshape(len(group), ra, db, dr)
        proj = proj.reshape(len(group), ra * rb, dr)
        product = (wa_kept[:, :, None] * wb_kept[:, None, :]).reshape(len(group), -1)
        delta = proj @ proj.conj().swapaxes(1, 2)
        delta[:, np.arange(ra * rb), np.arange(ra * rb)] -= product
        nuclear = np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1)
        norm = norms[group]
        dropped = norm * norm - np.sum(wa_kept, axis=-1) * np.sum(wb_kept, axis=-1)
        deviations[group] = 0.5 * (nuclear + np.maximum(dropped, 0.0))
    return float(deviations[0]) if psi.ndim == 1 else deviations
