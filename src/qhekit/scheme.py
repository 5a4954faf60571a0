"""Four-component homomorphic-encryption scheme model and pipeline simulator.

A scheme consists of its fixed states, an encryption unitary, a family of
evaluation unitaries with their intended plaintext-space targets, and a
decryption unitary, wired over an explicit register layout.  The fixed
states are one list of pure blocks whose product covers every register but
the plaintext's; a key, a shared resource and an ancilla are all such
blocks, and nothing here tells them apart.  Register
ownership is tracked through the run: Alice holds everything except Bob's
initial registers, hands over send_to_bob after encrypting, and receives
return_to_alice (the message) after evaluation.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .layout import Layout, apply_operator, assemble_ket, axis_permutation, register_label
from .linalg import _as_square_stack, _unitarity_residuals, as_ket, as_kets, is_unitary, kron
from .localiser import LocalisationProblem
from .qinfo import DensityOp
from .tolerances import UNITARITY_TOL


@dataclass(frozen=True)
class RegisterState:
    """A fixed pure state on one or more named registers."""

    labels: tuple[str, ...]
    ket: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(register_label(l) for l in self.labels))
        object.__setattr__(self, "ket", as_ket(self.ket, f"state on {self.labels}"))


@dataclass(frozen=True)
class FootprintOp:
    """A unitary together with the ordered registers it acts on; with a control
    register, a (control dim, b, b) stack whose block k acts where it holds |k>."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    control: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(register_label(l) for l in self.labels))
        where = f"operator on {self.labels}"
        if self.control is not None:
            if register_label(self.control) in self.labels:
                raise ValueError(f"{where}: control register {self.control!r} is in its footprint")
            where += f" controlled by {self.control!r}"
        # Coerced once here; shape and finiteness checked, then every block's U†U - I at once.
        m = _as_square_stack(self.matrix, where)
        axes = 2 if self.control is None else 3
        if m.ndim != axes:
            raise ValueError(f"{where}: expected {axes} axes, got shape {m.shape}")
        residuals = _unitarity_residuals(m)
        if residuals.max() > UNITARITY_TOL:
            block = "" if m.ndim == 2 else f": block {np.argmax(residuals > UNITARITY_TOL)}"
            raise ValueError(f"{where}{block} is not unitary within tolerance")
        object.__setattr__(self, "matrix", m)

    def block(self, k: int) -> "FootprintOp":
        """Block k of this control stack on the same registers; the stack's check covers it."""
        if self.control is None:
            raise ValueError(f"operator on {self.labels} has no control stack to cut")
        op = object.__new__(FootprintOp)
        op.__dict__.update(labels=self.labels, matrix=self.matrix[k], control=None)
        return op


@dataclass(frozen=True)
class Evaluation:
    """One permitted circuit: Bob's evaluation unitary and its plaintext target."""

    circuit_id: str
    operator: FootprintOp
    target: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.circuit_id, str):
            raise TypeError(f"circuit id {self.circuit_id!r} is not a string")
        t = np.asarray(self.target, dtype=complex)
        # A target that is its operator's matrix, one object, was checked with it.
        checked = t is self.operator.matrix
        if not (checked or is_unitary(t, where=f"target of {self.circuit_id!r}")):
            raise ValueError(f"target of {self.circuit_id!r} is not unitary within tolerance")
        object.__setattr__(self, "target", t)


@dataclass(frozen=True)
class QheScheme:
    name: str
    layout: Layout
    input_label: str
    output_label: str
    bob_initial: tuple[str, ...]
    fixed_states: tuple[RegisterState, ...]
    encrypt_op: FootprintOp
    decrypt_op: FootprintOp
    evaluations: tuple[Evaluation, ...]
    send_to_bob: tuple[str, ...]
    return_to_alice: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise TypeError(f"scheme name {self.name!r} is not a string")
        object.__setattr__(self, "bob_initial", self.layout.ordered(self.bob_initial))
        object.__setattr__(self, "send_to_bob", self.layout.ordered(self.send_to_bob))
        object.__setattr__(self, "return_to_alice", self.layout.ordered(self.return_to_alice))
        object.__setattr__(self, "fixed_states", tuple(self.fixed_states))
        object.__setattr__(self, "evaluations", tuple(self.evaluations))

        labels = set(self.layout.labels)
        if self.input_label not in labels:
            raise ValueError(f"input register {self.input_label!r} not in layout")
        if self.output_label not in labels:
            raise ValueError(f"output register {self.output_label!r} not in layout")
        if self.input_label in self.bob_initial:
            raise ValueError("the plaintext register cannot start on Bob's side")

        covered: list[str] = []
        for block in self.fixed_states:
            covered.extend(block.labels)
            # The one ket rule, now with the block's dimension in this layout.
            as_ket(block.ket, f"state on {block.labels}", dim=self.layout.dim_of(block.labels))
        expected = sorted(labels - {self.input_label})
        if sorted(covered) != expected:
            raise ValueError(
                f"fixed states cover {sorted(covered)}, expected every register "
                f"except the input: {expected}"
            )

        if not self.evaluations:
            raise ValueError("a scheme needs at least one evaluation")
        ids = [e.circuit_id for e in self.evaluations]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate circuit ids in {ids}")
        d_in = self.input_dim
        for ev in self.evaluations:
            if ev.target.shape != (d_in, d_in):
                raise ValueError(
                    f"target of {ev.circuit_id!r} has shape {ev.target.shape}, "
                    f"expected plaintext dimension {d_in}"
                )

        self._check_footprint(self.encrypt_op, self.alice_initial, "encryption")
        if not set(self.send_to_bob) <= set(self.alice_initial):
            raise ValueError("send_to_bob must be registers Alice holds before t1")
        if not self.bob_t1:
            raise ValueError("Bob holds nothing at t1; there is no ciphertext to evaluate")
        for ev in self.evaluations:
            self._check_footprint(ev.operator, self.bob_t1, f"evaluation {ev.circuit_id!r}")
        if not self.return_to_alice:
            raise ValueError("return_to_alice is empty; there is no message")
        if not set(self.return_to_alice) <= set(self.bob_t1):
            raise ValueError("return_to_alice must be registers Bob holds at t1")
        self._check_footprint(self.decrypt_op, self.alice_t2, "decryption")
        if self.output_label not in self.alice_t2:
            raise ValueError(f"output register {self.output_label!r} is not with Alice at t2")

    def _check_footprint(self, op: FootprintOp, owned: Sequence[str], what: str) -> None:
        controls = () if op.control is None else (op.control,)
        missing = set(op.labels + controls) - set(owned)
        if missing:
            raise ValueError(
                f"{what} operator touches {sorted(missing)} which the owner "
                f"does not hold at that time"
            )
        b = self.layout.dim_of(op.labels)
        shape = (b, b) if op.control is None else (self.layout.dim_of(controls), b, b)
        if op.matrix.shape != shape:
            raise ValueError(
                f"{what} operator has shape {op.matrix.shape}, but its control and "
                f"footprint {controls + op.labels} need {shape}"
            )

    @cached_property
    def input_dim(self) -> int:
        return self.layout.dim_of([self.input_label])

    @cached_property
    def alice_initial(self) -> tuple[str, ...]:
        return self.layout.complement(self.bob_initial)

    @cached_property
    def bob_t1(self) -> tuple[str, ...]:
        return self.layout.ordered(set(self.bob_initial) | set(self.send_to_bob))

    @cached_property
    def alice_t1(self) -> tuple[str, ...]:
        return self.layout.complement(self.bob_t1)

    @cached_property
    def alice_t2(self) -> tuple[str, ...]:
        return self.layout.ordered(set(self.alice_t1) | set(self.return_to_alice))

    @cached_property
    def bob_t2(self) -> tuple[str, ...]:
        return self.layout.complement(self.alice_t2)

    @cached_property
    def circuit_ids(self) -> tuple[str, ...]:
        return tuple(e.circuit_id for e in self.evaluations)

    def evaluation(self, circuit_id: str) -> Evaluation:
        for ev in self.evaluations:
            if ev.circuit_id == circuit_id:
                return ev
        raise KeyError(f"unknown circuit {circuit_id!r}; scheme offers {self.circuit_ids}")

    def plaintext(self, psi_in: np.ndarray) -> np.ndarray:
        """psi_in validated as unit kets on the input register.

        One ket of shape (input_dim,) or a batch of them as the columns of
        an (input_dim, m) array.
        """
        return as_kets(psi_in, "plaintext", dim=self.input_dim)

    @cached_property
    def encryption_isometry(self) -> np.ndarray:
        """The dim x input_dim isometry from plaintexts to encrypted global kets.

        Column j is the global ket at t1 for basis plaintext j; the encrypted
        ket of any plaintext, or of a batch of plaintexts as columns, is this
        matrix times it.  Built in one pass: the fixed states are assembled
        once, lifted by I_d and permuted into layout order, and the encryption
        acts on all d columns together.
        """
        layout, d = self.layout, self.input_dim
        rest = layout.complement([self.input_label])
        blocks = [(b.labels, b.ket) for b in self.fixed_states]
        fixed = assemble_ket(layout.restricted(rest), blocks) if rest else np.ones(1)
        # Rows of kron(I_d, fixed) run over (input, rest...); gather them into layout order.
        grouped = (self.input_label,) + rest
        grouped_dims = [layout.dims[p] for p in layout.positions(grouped)]
        rows = axis_permutation(grouped_dims, [grouped.index(l) for l in layout.labels])
        initial = kron(np.eye(d), fixed[:, None])[rows]
        op = self.encrypt_op
        return apply_operator(initial, layout, op.matrix, op.labels, op.control)


def encrypt_and_evaluate(
    scheme: QheScheme, circuit_ids: Sequence[str], plaintexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The global kets at t1 and t2 for the given plaintexts and circuits.

    The step evolve and check_theorem1 share: plaintexts as in evolve, t1
    kets of shape (dim,) or (dim, m), and t2 kets with a circuit axis,
    (dim, n) or (dim, n, m), in the order of the n ids given, with that
    axis outermost in memory.  circuit_ids is a non-empty sequence of ids;
    a bare string is refused, not read as a sequence of one-letter ids.
    """
    if isinstance(circuit_ids, str):
        raise TypeError(
            f"circuit ids {circuit_ids!r} is a string; pass a sequence such as ({circuit_ids!r},)"
        )
    plaintexts = scheme.plaintext(plaintexts)
    evaluations = [scheme.evaluation(c) for c in circuit_ids]
    if not evaluations:
        raise ValueError("no circuit ids given; pass at least one")
    ket_t1 = scheme.encryption_isometry @ plaintexts
    # One apply_operator call per footprint, on the stack of its circuits.
    groups: dict[tuple[tuple[str, ...], str | None], list[int]] = {}
    for i, ev in enumerate(evaluations):
        groups.setdefault((ev.operator.labels, ev.operator.control), []).append(i)
    # Several footprints fill one array laid out as a stacked call's result, circuit-major.
    shape = (len(evaluations),) + ket_t1.shape
    ket_t2 = np.empty(shape, dtype=complex).swapaxes(0, 1) if len(groups) > 1 else None
    for (labels, control), members in groups.items():
        stack = np.stack([evaluations[i].operator.matrix for i in members])
        applied = apply_operator(ket_t1, scheme.layout, stack, labels, control)
        if ket_t2 is None:
            return ket_t1, applied  # one footprint: its result is ket_t2 itself
        ket_t2[:, members] = applied
    return ket_t1, ket_t2


def evolve(
    scheme: QheScheme, circuit_ids: Sequence[str], plaintexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The global kets at t1, t2 and after decryption for the given plaintexts.

    plaintexts is one unit ket of shape (input_dim,) or a batch of them as
    the columns of an (input_dim, m) array; the t1 kets have shape (dim,)
    or (dim, m) to match.  For the n circuit ids the t2 and final kets
    carry a circuit axis, (dim, n) or (dim, n, m), in the order given.
    Encryption is the scheme's encryption isometry; each circuit's
    evaluation acts on Bob's registers of the shared t1 kets, and the
    decryption on Alice's acts once on every circuit's t2 kets together,
    each through its register footprint.  The t2 kets reach the decryption
    as they are, circuit axis outermost (one plaintext as (dim, n, 1)), so
    apply_operator copies none of them when the decryption's registers lead
    the layout, as QOTP's do.
    """
    ket_t1, ket_t2 = encrypt_and_evaluate(scheme, circuit_ids, plaintexts)
    layout, op = scheme.layout, scheme.decrypt_op
    kets = ket_t2 if ket_t2.ndim == 3 else ket_t2[..., None]
    ket_final = apply_operator(kets, layout, op.matrix, op.labels, op.control)
    return ket_t1, ket_t2, ket_final.reshape(ket_t2.shape)


@dataclass(frozen=True)
class PipelineTrace:
    """Full record of one encrypt -> evaluate -> decrypt run.

    The global state stays pure throughout; the kets are the primary
    carriers, and every density operator is reduced from them on first
    access.  This is the interactive, one-plaintext view of a run: no
    checker builds one, as the checkers call evolve on every circuit at
    once.
    """

    scheme: QheScheme
    circuit_id: str
    input_ket: np.ndarray
    ket_t1: np.ndarray
    ket_t2: np.ndarray
    ket_final: np.ndarray

    @cached_property
    def rho_bob_t1(self) -> DensityOp:
        """Bob's state at t1: the ciphertext."""
        return DensityOp.reduced(self.ket_t1, self.scheme.layout, self.scheme.bob_t1)

    @cached_property
    def rho_message(self) -> DensityOp:
        """The message Bob returns at t2."""
        return DensityOp.reduced(self.ket_t2, self.scheme.layout, self.scheme.return_to_alice)

    @cached_property
    def output(self) -> DensityOp:
        """The output register after decryption."""
        return DensityOp.reduced(self.ket_final, self.scheme.layout, [self.scheme.output_label])


def run_pipeline(scheme: QheScheme, circuit_id: str, psi_in: np.ndarray) -> PipelineTrace:
    """Simulate one full run of the scheme on the given plaintext.

    The one-circuit, one-plaintext case of evolve: encrypts through the
    scheme's encryption isometry, applies the chosen evaluation on Bob's
    registers, then the decryption on Alice's.  Reduced states are formed
    on demand.  No checker calls this; it is the interactive view of one
    run, and tests use it as the per-circuit reference.
    """
    psi_in = as_ket(psi_in, "plaintext", dim=scheme.input_dim)
    ket_t1, ket_t2, ket_final = evolve(scheme, (circuit_id,), psi_in)
    return PipelineTrace(scheme, circuit_id, psi_in, ket_t1, ket_t2[:, 0], ket_final[:, 0])


def localisation_problem_at_t1(scheme: QheScheme) -> LocalisationProblem:
    """Cast the scheme's situation at t1 as a localisation problem.

    The cut is (alice_t1, bob_t1), what Alice keeps and what Bob holds after
    the handover.  The input isometry is the encryption isometry with its
    rows transposed into (alice_t1, bob_t1) order: the scheme's own
    dimension, and no full-space operator.
    """
    if not scheme.alice_t1:
        raise ValueError(
            "the scheme retains nothing at t1; there is no retained side to localise into"
        )

    layout, d = scheme.layout, scheme.input_dim
    retained, remote = layout.dim_of(scheme.alice_t1), layout.dim_of(scheme.bob_t1)
    order = layout.positions(scheme.alice_t1 + scheme.bob_t1) + (len(layout.dims),)
    isometry = scheme.encryption_isometry.reshape(layout.dims + (d,)).transpose(order)
    return LocalisationProblem(Layout((("A", retained), ("B", remote))), isometry.reshape(-1, d))
