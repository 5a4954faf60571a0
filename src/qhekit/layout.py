"""Register layouts over small multi-register Hilbert spaces.

A Layout is an ordered list of (label, dim) registers.  The first register
is the most significant digit of the flat mixed-radix index, which matches
numpy's C-order reshape, so a flat ket of length prod(dims) reshapes to one
axis per register with no reordering.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .linalg import _as_square_stack, as_ket, as_square, kron

MAX_TOTAL_DIM = 2**14


def register_label(label) -> str:
    """label itself if it is a string; never coerced, so 7 cannot become '7'."""
    if not isinstance(label, str):
        raise TypeError(f"register label {label!r} is not a string")
    return label


def _register_dim(label: str, dim) -> int:
    """dim as an int if it is an integer (numpy integers too); 2.9 or '3' is refused."""
    try:
        return operator.index(dim)
    except TypeError:
        raise TypeError(f"register {label!r} has dimension {dim!r}, not an integer") from None


@dataclass(frozen=True)
class Layout:
    """Registers in order; labels, dims, dim and label positions are computed once."""

    registers: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regs = tuple((register_label(l), _register_dim(l, dim)) for l, dim in self.registers)
        object.__setattr__(self, "registers", regs)
        if not regs:
            raise ValueError("layout needs at least one register")
        labels = tuple(label for label, _ in regs)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels in {list(labels)}")
        for label, dim in regs:
            if dim < 2:
                raise ValueError(f"register {label!r} has dimension {dim}, need >= 2")
        dims = tuple(dim for _, dim in regs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))
        object.__setattr__(self, "_positions", {label: i for i, label in enumerate(labels)})
        if self.dim > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {self.dim} exceeds the {MAX_TOTAL_DIM} guard")

    def position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"label {label!r} not in layout {self.labels}") from None

    def positions(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.position(label) for label in labels)

    def dim_of(self, labels: Iterable[str]) -> int:
        return math.prod(self.dims[p] for p in self.positions(labels))

    def ordered(self, labels: Iterable[str]) -> tuple[str, ...]:
        """The given labels, sorted into layout order."""
        wanted = set(labels)
        unknown = wanted.difference(self._positions)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in layout {self.labels}")
        return tuple(label for label in self.labels if label in wanted)

    def complement(self, labels: Iterable[str]) -> tuple[str, ...]:
        wanted = set(labels)
        unknown = wanted.difference(self._positions)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in layout {self.labels}")
        return tuple(label for label in self.labels if label not in wanted)

    def restricted(self, labels: Iterable[str]) -> "Layout":
        keep = self.ordered(labels)
        return Layout(tuple((label, dim) for label, dim in self.registers if label in keep))


def axis_permutation(dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """Flat index map for transposing mixed-radix digits.

    Returns perm such that psi.reshape(dims).transpose(axes).ravel() equals
    psi[perm]; i.e. the permutation unitary P with (P psi)[i] = psi[perm[i]].
    """
    return np.arange(int(np.prod(dims))).reshape(tuple(dims)).transpose(tuple(axes)).ravel()


def assemble_ket(layout: Layout, blocks: Sequence[tuple[Sequence[str], np.ndarray]]) -> np.ndarray:
    """Build the full ket from per-block kets covering every register once.

    Each block is (labels, ket) with the ket indexed in the listed label
    order; blocks may appear in any order and may span several registers.
    """
    seen: list[str] = []
    for labels, _ in blocks:
        seen.extend(labels)
    if sorted(seen) != sorted(layout.labels):
        raise ValueError(
            f"blocks cover registers {sorted(seen)}, layout has {sorted(layout.labels)}"
        )
    kets = []
    concat_labels: list[str] = []
    for labels, ket in blocks:
        ket = as_ket(ket, where=f"block {tuple(labels)}")
        if ket.size != layout.dim_of(labels):
            raise ValueError(
                f"block {tuple(labels)} has dimension {ket.size}, "
                f"expected {layout.dim_of(labels)}"
            )
        kets.append(ket)
        concat_labels.extend(labels)
    full = kron(*kets)
    # Permute from the concatenated block order into layout order.
    concat_dims = [layout.registers[layout.position(label)][1] for label in concat_labels]
    axes = [concat_labels.index(label) for label in layout.labels]
    return full.reshape(concat_dims).transpose(axes).ravel()


def apply_operator(
    psi: np.ndarray,
    layout: Layout,
    op: np.ndarray,
    labels: Sequence[str],
    control: str | None = None,
) -> np.ndarray:
    """Apply an operator living on the given registers to a full-space ket.

    psi is one ket of shape (dim,) or a batch of kets, (dim, m) or (dim,
    ..., m); the result has the same shape.  op is one (block, block)
    matrix, or a stack of n of them, shape (n, block, block), whose n
    results come back on a circuit axis after the first: (dim, n) or
    (dim, n, ..., m).  With a control register, op has one axis more, (c,
    block, block) or (n, c, block, block), block k acting where the control
    holds |k>.

    Every batch axis but the last is a leading axis of the matmul, taken as
    a view; only the last joins the registers outside the footprint as the
    columns.  The result holds the stack's axis and the leading batch axes
    outermost in memory, so a (dim, n, m) result of a stacked call is laid
    out as n (dim, m) blocks.  Such a batch goes in with no copy, and comes
    back laid out the same way, when the footprint's registers and then the
    control's are the first ones of the layout, in order.
    """
    op = _as_square_stack(op, f"operator on {tuple(labels)}")
    controls = [] if control is None else [layout.position(control)]
    pos = [layout.position(label) for label in labels]
    if len(set(pos + controls)) != len(pos + controls):
        raise ValueError(f"repeated labels in footprint {tuple(labels)}")
    block = math.prod(layout.dims[p] for p in pos)
    c = math.prod(layout.dims[p] for p in controls)
    stacked = op if controls else op[..., None, :, :]  # one block per control value
    if stacked.shape[-3:] != (c, block, block):
        raise ValueError(f"operator shape {op.shape} does not match footprint dimension {block}")
    psi = np.asarray(psi, dtype=complex)
    n = len(layout.dims)
    batch = psi.shape[1:]
    lead, tail = batch[:-1], batch[-1:]
    # Leading batch axes, then the footprint's, the control's and the other
    # registers', then the last batch axis: a (lead..., block, c, columns) array.
    regs = pos + controls + [p for p in range(n) if p not in pos + controls]
    order = [*range(n, n + len(lead)), *regs, *range(n + len(lead), n + len(batch))]
    grouped = psi.reshape(layout.dims + batch).transpose(order)
    x = grouped.reshape(lead + (block, c, -1))
    stack = stacked.shape[:-3]
    # The stack's axes broadcast against the leading ones, outside them.
    stacked = stacked.reshape(stack + (1,) * len(lead) + stacked.shape[-3:])
    out = np.empty(stack + x.shape, dtype=complex)
    # Through swapped views: neither operand is copied to bring the control axis first.
    np.matmul(stacked, x.swapaxes(-3, -2), out=out.swapaxes(-3, -2))
    # Registers back in layout order and merged into one axis, which then
    # moves to the front; the stack's and leading axes stay outermost.
    out = out.reshape(stack + grouped.shape)
    first = len(stack) + len(lead)
    back = sorted(range(n), key=regs.__getitem__)  # where each register sits in regs
    axes = [*range(first), *(first + i for i in back), *range(first + n, out.ndim)]
    out = out.transpose(axes).reshape(stack + lead + (layout.dim,) + tail)
    return out.transpose(first, *range(first), *range(first + 1, out.ndim))


def embed_operator(op: np.ndarray, layout: Layout, labels: Sequence[str]) -> np.ndarray:
    """Expand an operator on the given registers to the full space as a dense matrix.

    No code in the package calls this: it costs O(dim^2) memory, where
    apply_operator acts through the footprint.  It is kept as a public
    helper, and tests use it as the dense reference.
    """
    op = as_square(op, f"operator on {tuple(labels)}")
    pos = [layout.position(label) for label in labels]
    sub = [layout.registers[p][1] for p in pos]
    block = int(np.prod(sub))
    if op.shape != (block, block):
        raise ValueError(f"operator shape {op.shape} does not match footprint dimension {block}")
    rest = [p for p in range(len(layout.registers)) if p not in pos]
    rest_dim = int(np.prod([layout.dims[p] for p in rest], dtype=object))
    grouped = kron(op, np.eye(rest_dim))
    if pos + rest == list(range(len(layout.registers))):
        return grouped
    perm = axis_permutation(layout.dims, pos + rest)
    full = np.empty((layout.dim, layout.dim), dtype=complex)
    full[np.ix_(perm, perm)] = grouped
    return full


def reduced_from_ket(psi: np.ndarray, layout: Layout, keep: Iterable[str]) -> np.ndarray:
    """Reduced density matrix of a pure state without forming the full projector.

    psi is one ket of shape (dim,), giving a (d, d) matrix, or a batch of
    kets as the columns of a (dim, m) array, giving an (m, d, d) stack.
    keep may be empty, in which case the squared norm is returned as a 1x1
    matrix.
    """
    dims = layout.dims
    front = list(layout.positions(layout.ordered(keep)))
    back = [p for p in range(len(dims)) if p not in front]
    psi = np.asarray(psi, dtype=complex)
    batch = psi.shape[1:]
    axes = list(range(len(dims), len(dims) + len(batch))) + front + back
    d_keep = math.prod(dims[p] for p in front)
    m = psi.reshape(dims + batch).transpose(axes).reshape(batch + (d_keep, -1))
    return m @ m.conj().swapaxes(-1, -2)
