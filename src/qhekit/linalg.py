"""Dense complex linear algebra primitives used across the toolkit.

Matrices and kets are plain numpy arrays of dtype complex128.  Row-major
order everywhere; the first tensor factor is the most significant digit of
a flat index (see layout.Layout).  Every threshold comes from tolerances.py.
"""

from __future__ import annotations  # so annotations naming np.random import nothing

import operator
from functools import reduce

import numpy as np

from .tolerances import EQUALITY_TOL, HERMITICITY_TOL, NORM_TOL, UNITARITY_TOL

# Seed stream tags so that unrelated internal draws never collide.
_KET_STREAM = 0x6B65
_UNITARY_STREAM = 0x7561


def as_matrix(m, where: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{where}: expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{where}: non-finite entries")
    return a


def as_square(m, where: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{where}: expected a matrix, got shape {a.shape}")
    return _as_square_stack(a, where)


def _as_square_stack(m, where: str) -> np.ndarray:
    """Coerce to a finite complex array of square matrices, shape (..., d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{where}: expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{where}: non-finite entries")
    return a


def as_kets(v, where: str = "kets", *, dim: int) -> np.ndarray:
    """Coerce to unit kets of dimension dim: one of shape (dim,), or (dim, m) columns.

    The one ket rule.  Any other shape is refused, never flattened; every
    amplitude must be finite and every column's norm 1 within NORM_TOL.
    """
    a = np.asarray(v, dtype=complex)
    if a.ndim not in (1, 2) or a.shape[0] != dim:
        raise ValueError(
            f"{where}: shape mismatch, expected shape ({dim},) or ({dim}, m), got {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError(f"{where}: non-finite amplitudes")
    norms = np.linalg.norm(a, axis=0)
    if (np.abs(norms - 1.0) > NORM_TOL).any():
        listed = np.ravel(norms).tolist()
        raise ValueError(f"{where}: norms {listed} are not all 1 within {NORM_TOL}")
    return a


def as_ket(v, where: str = "ket", *, dim: int | None = None) -> np.ndarray:
    """One unit ket of shape (dim,), as as_kets checks it; dim None takes the ket's own size."""
    a = np.asarray(v, dtype=complex)
    dim = a.size if dim is None else dim
    if a.shape != (dim,):
        raise ValueError(
            f"{where}: shape mismatch, expected one ket of shape ({dim},), got {a.shape}"
        )
    return as_kets(a, where, dim=dim)


def as_integer(value, name: str) -> int:
    """value as an int if it is an integer (numpy integers too); True, 2.5 or '3' is refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} {value!r} is not an integer")
    return operator.index(value)


def as_seed(seed) -> int:
    """seed, refused with its name unless it is a non-negative integer, before numpy reads it."""
    if as_integer(seed, "seed") < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def positive_tolerance(name: str, value: float) -> float:
    """value, if it is a positive finite number; 0, a negative value, NaN and inf raise."""
    if not value > 0:
        raise ValueError(f"tolerance {name!r} must be positive, got {value}")
    if value == np.inf:
        raise ValueError(f"tolerance {name!r} must be finite, got {value}")
    return value


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def basis_ket(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more arrays, left factor most significant."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    arrays = [np.asarray(f, dtype=complex) for f in factors]
    return reduce(np.kron, arrays)


def _unitarity_residuals(w: np.ndarray) -> np.ndarray:
    """Max-entry norm of W†W - I, the one unitarity test's number, per matrix of a stack."""
    return np.abs(w.conj().swapaxes(-1, -2) @ w - np.eye(w.shape[-1])).max(axis=(-2, -1))


def is_isometry(w: np.ndarray) -> bool:
    """True iff max-entry norm of W†W - I is at most UNITARITY_TOL (orthonormal columns)."""
    return float(_unitarity_residuals(as_matrix(w, "isometry"))) <= UNITARITY_TOL


def is_unitary(u: np.ndarray, *, where: str = "unitary") -> bool:
    """True iff max-entry norm of U†U - I is at most UNITARITY_TOL.

    u is coerced and finiteness-checked once, as as_square(u, where) does,
    so a caller that keeps np.asarray(u, dtype=complex) has it validated.
    """
    return float(_unitarity_residuals(as_square(u, where))) <= UNITARITY_TOL


def unitaries_equal_up_to_phase(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff U and V implement the same operation modulo a global phase.

    Criterion: |Tr(U†V)| >= d - EQUALITY_TOL; it holds exactly when V = e^{iθ}U.
    """
    u = as_square(u, "left operand")
    v = as_square(v, "right operand")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return abs(np.trace(dagger(u) @ v)) >= d - EQUALITY_TOL


def _phase_fix_columns(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each column so its largest-modulus entry is real positive.

    Returns the rotated columns and the unit phases divided out of them.
    """
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    mags = np.abs(lead)
    phases = np.where(mags > 0, lead / np.where(mags > 0, mags, 1.0), 1.0)
    return v * phases.conj(), phases


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (within HERMITICITY_TOL).

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as orthonormal columns.  Near-degenerate spectra get a fixed,
    deterministic basis: columns are phase-fixed, then ties are broken by
    lexicographic comparison of the rounded entries.
    """
    h = as_square(h, "hermitian input")
    if float(np.max(np.abs(h - dagger(h)))) > HERMITICITY_TOL:
        raise ValueError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    v, _ = _phase_fix_columns(v)
    primary = [-round(x, 12) for x in w.tolist()]
    rounded = np.round(v, 9)
    order = sorted(range(w.size), key=lambda k: (primary[k], rounded[:, k].tobytes()))
    return w[order].real, v[:, order]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of a - b for Hermitian operators of equal dimension.

    a and b may be stacks of shape (..., d, d), broadcast against each
    other; the result then has the broadcast stack shape.  Two plain
    matrices give a float.
    """
    a = _as_square_stack(a, "left state")
    b = _as_square_stack(b, "right state")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    delta = a - b
    evals = np.linalg.eigvalsh((delta + delta.conj().swapaxes(-1, -2)) / 2.0)
    dist = 0.5 * np.abs(evals).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def fidelity_pure(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|^2 for unit kets of equal dimension."""
    psi = as_ket(psi, "left ket")
    phi = as_ket(phi, "right ket", dim=psi.size)
    return float(abs(np.vdot(psi, phi)) ** 2)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary drawn from an existing generator."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    # Rescaling by the phases of R's diagonal makes the QR output Haar.
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, bit-reproducible for a fixed (dim, seed)."""
    return haar_unitary(np.random.default_rng([_UNITARY_STREAM, as_seed(seed)]), dim)


def haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_ket(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unit ket, bit-reproducible for a fixed (dim, seed)."""
    return haar_ket(np.random.default_rng([_KET_STREAM, as_seed(seed)]), dim)
