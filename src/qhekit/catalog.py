"""Concrete schemes, problem generators and the verification catalog.

Builders are deterministic: the same parameters and seed produce
bit-identical objects.  The catalog pairs each built scheme with the checker
verdicts it is expected to produce, so it doubles as an end-to-end test
fixture for the whole toolkit.
"""

import operator
from dataclasses import dataclass
from itertools import product
from typing import Any, Mapping, Sequence

import numpy as np

from .checks import FAIL, INAPPLICABLE, PASS, run_checks
from .layout import Layout, axis_permutation
from .linalg import basis_ket, haar_ket, haar_unitary, kron
from .localiser import LocalisationProblem
from .scheme import Evaluation, FootprintOp, QheScheme, RegisterState

_CONSTRUCTED_STREAM = 0x5EC
_LEAKY_STREAM = 0x1EAC

_FACTOR_BITS = {"I": "00", "X": "10", "Z": "01", "XZ": "11"}  # each factor X^a Z^b as "ab"


def _pads(n: int) -> np.ndarray:
    """Every X^a Z^b on n qubits, stacked by key k = a 2^n + b and written by index.

    X^a Z^b |j> = (-1)^popcount(b & j) |j xor a>, qubit 0 the most
    significant bit; every other entry is +0.0.
    """
    d = 2**n
    k, j = np.arange(d * d)[:, None], np.arange(d)
    a, b = np.divmod(k, d)
    parity = sum(((b & j) >> bit) & 1 for bit in range(n)) % 2
    pads = np.zeros((d * d, d, d), dtype=complex)
    pads[k, a ^ j, j] = 1 - 2 * parity
    return pads


def _word_key(word: str) -> int:
    """The key k = a 2^n + b of a flip word's pad: its a bits, then its b bits, in binary."""
    try:
        bits = [_FACTOR_BITS[token] for token in word.split(".")]
    except KeyError as exc:
        raise ValueError(f"unknown factor {exc.args[0]!r} in word {word!r}") from exc
    return int("".join(a for a, _ in bits) + "".join(b for _, b in bits), 2)


def pauli_word_matrix(word: str) -> np.ndarray:
    """Matrix for a word like "X" or "X.XZ" (X^a Z^b per qubit, joined by dots), by index."""
    return _pads(word.count(".") + 1)[_word_key(word)]


def pauli_words(n: int) -> tuple[str, ...]:
    """All 4^n phase-free products of bit and phase flips on n qubits."""
    return tuple(".".join(combo) for combo in product(("I", "X", "Z", "XZ"), repeat=n))


def _swap_matrix(d: int) -> np.ndarray:
    """The permutation matrix exchanging two d-dimensional factors."""
    return np.eye(d * d, dtype=complex)[axis_permutation((d, d), (1, 0))]


def _flip_evaluations(n: int, pads: FootprintOp | None = None) -> list[Evaluation]:
    """One evaluation per flip word on the input register, its own target.

    Each operator is a block of pads, the key-controlled pads on the input
    register, whose one stacked check covers every block; without pads,
    that stack is built and checked here.
    """
    if pads is None:
        pads = FootprintOp(("input",), _pads(n), control="key")
    blocks = [(word, pads.block(_word_key(word))) for word in pauli_words(n)]
    return [Evaluation(w, op, op.matrix) for w, op in blocks]


def build_identity_scheme(n: int) -> QheScheme:
    """No encryption at all: the plaintext ships to Bob in the clear.

    Perfectly complete, maximally insecure; the negative control for the
    security checker.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"identity scheme supports 1..3 qubits, got {n}")
    d = 2**n
    layout = Layout((("input", d),))
    identity = np.eye(d, dtype=complex)
    evaluations = _flip_evaluations(n)
    if n >= 2:
        swap01 = kron(_swap_matrix(2), np.eye(2 ** (n - 2)))
        evaluations.append(Evaluation("SWAP01", FootprintOp(("input",), swap01), swap01))
    return QheScheme(
        name=f"identity(n={n})",
        layout=layout,
        input_label="input",
        output_label="input",
        bob_initial=(),
        fixed_states=(),
        encrypt_op=FootprintOp(("input",), identity),
        decrypt_op=FootprintOp(("input",), identity),
        evaluations=tuple(evaluations),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )


def build_qotp_scheme(n: int) -> QheScheme:
    """Quantum one-time pad with a purified uniform key.

    The key register holds a uniform superposition over all 4^n bit/phase
    flip choices, entangled with a purifier Alice retains; encryption applies
    the key-controlled flip to the plaintext, which then ships to Bob.  The
    evaluation set is the 4^n phase-free flip words, which commute with the
    pad up to phases that cancel in the reduced output.

    Key k = a d + b pads with the signed permutation X^a Z^b |j> =
    (-1)^popcount(b & j) |j xor a> (qubit 0 the most significant bit),
    written by index.  Encryption and decryption are stored key-controlled as
    the pads and their inverses; the evaluations read the same pads.
    """
    if not 1 <= n <= 2:
        raise ValueError(f"one-time-pad scheme supports 1..2 qubits, got {n}")
    d = 2**n
    keys = 4**n
    layout = Layout((("input", d), ("key", keys), ("key_purifier", keys)))

    key_ket = np.zeros(keys * keys, dtype=complex)
    key_ket[np.arange(keys) * (keys + 1)] = 1.0 / d  # sum_k |k>|k> / d

    pads = FootprintOp(("input",), _pads(n), control="key")
    return QheScheme(
        name=f"qotp(n={n})",
        layout=layout,
        input_label="input",
        output_label="input",
        bob_initial=(),
        fixed_states=(RegisterState(("key", "key_purifier"), key_ket),),
        encrypt_op=pads,
        # The pads are real, so each one's inverse is its transpose.
        decrypt_op=FootprintOp(("input",), pads.matrix.transpose(0, 2, 1), control="key"),
        evaluations=tuple(_flip_evaluations(n, pads)),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )


def build_tag_evaluate_scheme(n: int, circuit_set: Sequence[Any]) -> QheScheme:
    """Keep the plaintext home, ship a dummy, and have Bob return a circuit tag.

    Encryption swaps the plaintext into a retained register and sends the
    freed register to Bob in a fixed state; each evaluation writes its index
    onto a tag register that returns to Alice, whose decryption applies the
    tagged circuit directly, stored tag-controlled: block i is circuit i's
    target, and identity blocks pad the tag register to at least 2.  Secure
    by construction, and the tag register realises the log2|S| message cost
    with exactly orthogonal tag states.

    circuit_set entries are flip words ("X", "I.XZ", ...) or (id, matrix)
    pairs for arbitrary targets.
    """
    if not 1 <= n <= 2:
        raise ValueError(f"tag-evaluate scheme supports 1..2 qubits, got {n}")
    if not 1 <= len(circuit_set) <= 16:
        raise ValueError(f"circuit set size must be 1..16, got {len(circuit_set)}")
    d = 2**n
    circuits: list[tuple[str, np.ndarray]] = []
    for entry in circuit_set:
        if isinstance(entry, str):
            circuits.append((entry, pauli_word_matrix(entry)))
        else:
            cid, matrix = entry
            circuits.append((cid, np.asarray(matrix, dtype=complex)))
    for cid, matrix in circuits:
        if matrix.shape != (d, d):
            raise ValueError(f"circuit {cid!r} has shape {matrix.shape}, expected {(d, d)}")
    tag_dim = max(2, len(circuits))
    layout = Layout((("input", d), ("hold", d), ("tag", tag_dim)))

    # Adding +0.0 writes every zero entry of the blocks as +0.0, as in the flip words.
    blocks = np.stack([m for _, m in circuits] + [np.eye(d)] * (tag_dim - len(circuits))) + 0.0
    # Circuit i adds i to the tag: the identity's rows shifted cyclically by i.
    evaluations = [
        Evaluation(cid, FootprintOp(("tag",), np.roll(np.eye(tag_dim, dtype=complex), i, 0)), t)
        for i, (cid, t) in enumerate(circuits)
    ]

    return QheScheme(
        name=f"tag-evaluate(n={n},S={','.join(cid for cid, _ in circuits)})",
        layout=layout,
        input_label="input",
        output_label="hold",
        bob_initial=("tag",),
        fixed_states=(
            RegisterState(("hold",), basis_ket(d, 0)),
            RegisterState(("tag",), basis_ket(tag_dim, 0)),
        ),
        encrypt_op=FootprintOp(("input", "hold"), _swap_matrix(d)),
        decrypt_op=FootprintOp(("hold",), blocks, control="tag"),
        evaluations=tuple(evaluations),
        send_to_bob=("input",),
        return_to_alice=("tag",),
    )


def _problem_dims(dims: Sequence[int]) -> tuple[int, int, int]:
    """dims as integers, each at least 2 and within the 2^12 guard, checked before any draw.

    A non-integer such as 2.9 is refused, as Layout refuses it, not truncated.
    """
    try:
        d1, d2, db = map(operator.index, dims)
    except TypeError:
        raise TypeError(f"dims must be integers, got {', '.join(map(repr, dims))}") from None
    if min(d1, d2, db) < 2:
        raise ValueError(f"dims must each be at least 2, got {d1},{d2},{db}")
    if d1 * d2 * db > 2**12:
        raise ValueError(f"total dimension {d1 * d2 * db} exceeds the 2^12 generator guard")
    return d1, d2, db


def build_constructed_secure_problem(
    dims: tuple[int, int, int], seed: int
) -> LocalisationProblem:
    """A localisation instance that satisfies zero leakage by construction.

    dims are (data, aux, remote); the problem's retained register is data ⊗
    aux.  The unitary first scrambles (aux, remote) by a seeded Haar
    unitary, then scrambles the whole retained side, so the remote reduced
    state can only depend on the fixed aux/remote kets.  The draws are contracted straight
    into the input isometry; the dense unitary is never formed.
    """
    d1, d2, db = _problem_dims(dims)
    rng = np.random.default_rng([_CONSTRUCTED_STREAM, seed])
    retained = haar_unitary(rng, d1 * d2)
    mixer = haar_unitary(rng, d2 * db)
    aux, remote = haar_ket(rng, d2), haar_ket(rng, db)
    w = retained.reshape(-1, d1, d2) @ (mixer @ kron(aux, remote)).reshape(d2, db)
    return LocalisationProblem(
        Layout((("A", d1 * d2), ("B", db))), w.transpose(0, 2, 1).reshape(-1, d1)
    )


def build_leaky_problem(dims: tuple[int, int, int], seed: int) -> LocalisationProblem:
    """A maximally leaking instance: the input is swapped into the remote side.

    The data register is exchanged with an equal-dimension slice of the
    remote register, then seeded Haar unitaries scramble each side; local
    scrambling cannot undo the handover, so orthogonal inputs stay perfectly
    distinguishable remotely.  The draws are contracted straight into the
    input isometry; the dense unitary is never formed.
    """
    d1, d2, db = _problem_dims(dims)
    if db % d1 != 0:
        raise ValueError(f"data dimension {d1} must divide remote dimension {db}")
    rng = np.random.default_rng([_LEAKY_STREAM, seed])
    scramble_retained = haar_unitary(rng, d1 * d2)
    scramble_remote = haar_unitary(rng, db)
    aux, remote = haar_ket(rng, d2), haar_ket(rng, db)
    rest = db // d1
    kept = (scramble_retained.reshape(-1, d1, d2) @ aux) @ remote.reshape(d1, rest)
    w = np.einsum("xk,yjk->xyj", kept, scramble_remote.reshape(db, d1, rest))
    return LocalisationProblem(Layout((("A", d1 * d2), ("B", db))), w.reshape(-1, d1))


def build_controlled_flip_gate(n: int = 1) -> tuple[np.ndarray, Layout]:
    """Gate array applying the program-indexed flip word to the data register, written by index."""
    d, words = 2**n, pauli_words(n)
    gate = np.zeros((len(words), d, len(words), d), dtype=complex)
    ar = np.arange(len(words))
    gate[ar, :, ar, :] = _pads(n)[[_word_key(word) for word in words]]
    return gate.reshape(len(words) * d, -1), Layout((("program", len(words)), ("data", d)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    builder: str
    params: Mapping[str, Any]
    expected: Mapping[str, str]


def catalog() -> tuple[CatalogEntry, ...]:
    """Built-in schemes with the verdicts every checker is expected to return."""
    return (
        CatalogEntry(
            "identity-1",
            "identity",
            {"n": 1},
            {"security": FAIL, "completeness": PASS, "theorem1": INAPPLICABLE},
        ),
        CatalogEntry(
            "identity-2",
            "identity",
            {"n": 2},
            {"security": FAIL, "completeness": PASS, "theorem1": INAPPLICABLE},
        ),
        CatalogEntry(
            "qotp-1",
            "qotp",
            {"n": 1},
            {"security": PASS, "completeness": PASS, "theorem1": INAPPLICABLE},
        ),
        CatalogEntry(
            "tag-evaluate-ixz",
            "tag-evaluate",
            {"n": 1, "circuit_set": ("I", "X", "Z")},
            {"security": PASS, "completeness": PASS, "theorem1": PASS},
        ),
        CatalogEntry(
            "tag-evaluate-pauli",
            "tag-evaluate",
            {"n": 1, "circuit_set": ("I", "X", "Z", "XZ")},
            {"security": PASS, "completeness": PASS, "theorem1": PASS},
        ),
        CatalogEntry(
            "tag-evaluate-2q",
            "tag-evaluate",
            {"n": 2, "circuit_set": ("I.I", "X.I", "Z.Z", "X.XZ")},
            {"security": PASS, "completeness": PASS, "theorem1": PASS},
        ),
    )


_SCHEME_BUILDERS = {
    "identity": build_identity_scheme,
    "qotp": build_qotp_scheme,
    "tag-evaluate": build_tag_evaluate_scheme,
}

_PROBLEM_BUILDERS = {
    "constructed-secure": build_constructed_secure_problem,
    "leaky": build_leaky_problem,
}


def build_scheme(builder: str, **params: Any) -> QheScheme:
    if builder not in _SCHEME_BUILDERS:
        raise ValueError(
            f"unknown scheme builder {builder!r}; available: {sorted(_SCHEME_BUILDERS)}"
        )
    return _SCHEME_BUILDERS[builder](**params)


def build_problem(builder: str, **params: Any) -> LocalisationProblem:
    if builder not in _PROBLEM_BUILDERS:
        raise ValueError(
            f"unknown problem builder {builder!r}; available: {sorted(_PROBLEM_BUILDERS)}"
        )
    return _PROBLEM_BUILDERS[builder](**params)


def verify_catalog() -> tuple[bool, list[tuple[str, str, str, str]]]:
    """Compare every entry's actual verdicts with its expectations.

    Returns (all_match, rows) with one (entry, checker, expected, actual)
    row per comparison.
    """
    rows = []
    all_match = True
    for entry in catalog():
        reports = run_checks(build_scheme(entry.builder, **entry.params))
        for checker in sorted(entry.expected):
            actual = reports[checker].verdict
            rows.append((entry.name, checker, entry.expected[checker], actual))
            all_match = all_match and actual == entry.expected[checker]
    return all_match, rows
