import dataclasses
import importlib
import json
import re

import numpy as np
import pytest

from qhekit.catalog import (
    CatalogEntry,
    build_constructed_secure_problem,
    build_controlled_flip_gate,
    build_identity_scheme,
    build_leaky_problem,
    build_qotp_scheme,
    build_scheme,
    build_tag_evaluate_scheme,
    catalog,
    pauli_word_matrix,
    pauli_words,
    verify_catalog,
)
from qhekit.checks import run_checks
from qhekit.layout import reduced_from_ket
from qhekit.linalg import basis_ket, dagger, kron
from qhekit.qinfo import orthogonal_support
from qhekit.scheme import Evaluation, FootprintOp, RegisterState, run_pipeline
from qhekit.serialize import scheme_to_json
from qhekit_reference import (
    dense_constructed_secure_problem,
    dense_footprint,
    dense_leaky_problem,
    diagonal_blocks,
    peak_bytes,
)

# The module, not the catalog() function the package exports under that name.
qhekit_catalog = importlib.import_module("qhekit.catalog")

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_words_cover_all_flip_pairs():
    assert pauli_words(1) == ("I", "X", "Z", "XZ")
    assert len(pauli_words(2)) == 16
    np.testing.assert_allclose(
        pauli_word_matrix("X.Z"),
        kron(pauli_word_matrix("X"), pauli_word_matrix("Z")),
    )


def test_pauli_word_matrix_rejects_unknown_factor():
    with pytest.raises(ValueError, match="unknown factor"):
        pauli_word_matrix("Q")


def test_catalog_verdicts_match_expectations():
    ok, rows = verify_catalog()
    assert ok, [row for row in rows if row[2] != row[3]]
    assert len(rows) == 3 * len(catalog())


def test_catalog_entries_have_complete_expectations():
    for entry in catalog():
        assert set(entry.expected) == {"security", "completeness", "theorem1"}
        assert all(v in ("pass", "fail", "inapplicable") for v in entry.expected.values())


def test_run_checks_reports_are_reports():
    entry = catalog()[0]
    reports = run_checks(build_scheme(entry.builder, **entry.params))
    assert list(reports) == ["security", "completeness", "theorem1"]
    assert all(report.kind == name for name, report in reports.items())
    assert {name: report.verdict for name, report in reports.items()} == dict(entry.expected)


def test_tag_evaluate_message_supports_exactly_orthogonal():
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z"))
    psi = basis_ket(2, 0)
    messages = [run_pipeline(scheme, cid, psi).rho_message for cid in scheme.circuit_ids]
    for i in range(len(messages)):
        for j in range(i + 1, len(messages)):
            ok, overlap = orthogonal_support(messages[i], messages[j])
            assert ok and abs(overlap) <= 1e-12


def test_tag_register_dimension_matches_set_size():
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z", "XZ"))
    assert scheme.layout.dim_of(["tag"]) == 4


@pytest.mark.parametrize(
    "entry, named",
    [
        (("bad", np.eye(4)), r"circuit 'bad' has shape \(4, 4\), expected \(2, 2\)"),
        (("row", np.ones(2)), r"circuit 'row' has shape \(2,\), expected \(2, 2\)"),
        ("I.X", r"circuit 'I.X' has shape \(4, 4\), expected \(2, 2\)"),
    ],
)
def test_tag_evaluate_names_a_circuit_of_the_wrong_shape(entry, named):
    with pytest.raises(ValueError, match=named):
        build_tag_evaluate_scheme(1, ("I", entry))


def test_constructed_secure_rank_matches_independent_spectrum():
    # The remote reduced state equals the mixer's action on the fixed kets.
    dims = (3, 2, 4)
    problem = build_constructed_secure_problem(dims, seed=5)
    from qhekit.localiser import localise

    result = localise(problem)
    # Independent computation: peel the retained scrambler off the unitary.
    import numpy.linalg as la

    d1, d2, db = dims
    layout = problem.layout
    psi = basis_ket(d1, 0)
    out = problem.output_ket(psi)
    remote = reduced_from_ket(out, layout, ["B"])
    rank = int(np.sum(la.eigvalsh(remote) > 1e-10))
    assert result.rank == rank


def test_problem_builders_deterministic():
    a = build_constructed_secure_problem((2, 2, 2), seed=9)
    b = build_constructed_secure_problem((2, 2, 2), seed=9)
    assert a.isometry.tobytes() == b.isometry.tobytes()
    c = build_leaky_problem((2, 2, 2), seed=9)
    d = build_leaky_problem((2, 2, 2), seed=9)
    assert c.isometry.tobytes() == d.isometry.tobytes()


_BUILDER_DIMS = [(2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8), (2, 64, 2), (3, 2, 6)]


@pytest.mark.parametrize("dims", _BUILDER_DIMS, ids=lambda d: ",".join(map(str, d)))
def test_problem_builders_match_their_dense_unitaries(dims):
    pairs = [(build_constructed_secure_problem, dense_constructed_secure_problem)]
    if dims[2] % dims[0] == 0:
        pairs.append((build_leaky_problem, dense_leaky_problem))
    for build, reference in pairs:
        for seed in range(6):
            diff = np.abs(build(dims, seed).isometry - reference(dims, seed).isometry)
            assert diff.max() <= 1e-14, (build.__name__, seed)


@pytest.mark.parametrize("build", [build_constructed_secure_problem, build_leaky_problem])
def test_problem_builders_never_form_the_dense_unitary(build):
    # At (16, 16, 16) the dense 4096 x 4096 unitary alone would take 256 MiB.
    _, peak = peak_bytes(lambda: build((16, 16, 16), 3))
    assert peak < 32 * 2**20


@pytest.mark.parametrize("build", [build_constructed_secure_problem, build_leaky_problem])
@pytest.mark.parametrize(
    "dims, named",
    [((2.9, 2, 2), "2.9, 2, 2"), ((2, 2, "2"), "2, 2, '2'")],
    ids=["float", "str"],
)
def test_problem_builders_refuse_non_integer_dims_before_any_draw(monkeypatch, build, dims, named):
    def no_draws(*args):
        raise AssertionError("a Haar draw ran before the dims check")

    for name in ("haar_unitary", "haar_ket"):
        monkeypatch.setattr(qhekit_catalog, name, no_draws)
    with pytest.raises(TypeError, match=re.escape(f"dims must be integers, got {named}")):
        build(dims, 0)


def test_problem_builders_read_numpy_integer_dims():
    dims = tuple(np.int64(d) for d in (2, 4, 2))
    for build in (build_constructed_secure_problem, build_leaky_problem):
        assert build(dims, 1).isometry.tobytes() == build((2, 4, 2), 1).isometry.tobytes()


def test_leaky_builder_requires_divisibility():
    with pytest.raises(ValueError, match="divide"):
        build_leaky_problem((3, 2, 4), seed=0)


def test_scheme_serialization_is_bit_stable():
    scheme_a = build_scheme("qotp", n=1)
    scheme_b = build_scheme("qotp", n=1)
    assert json.dumps(scheme_to_json(scheme_a), sort_keys=True) == json.dumps(
        scheme_to_json(scheme_b), sort_keys=True
    )


def test_build_scheme_rejects_unknown_builder():
    with pytest.raises(ValueError, match="unknown scheme builder"):
        build_scheme("nope")


# Reference constructions: the key- and word-controlled operators as sums of
# kron(marker, block) products, one per key or word, as the builders once
# formed them, and each flip word as the Kronecker product of its factors.
# The builders write them by index, store the key-controlled ones as block
# stacks, and must match bit for bit; the references' zero entries are made
# +0.0 by the sums into zeros, and the flip words' by adding +0.0.


def _marker(m, k):
    marker = np.zeros((m, m))
    marker[k, k] = 1.0
    return marker


_REFERENCE_FACTORS = {"I": np.eye(2), "X": PAULI_X, "Z": PAULI_Z, "XZ": PAULI_X @ PAULI_Z}


def _reference_word(word):
    return kron(*[_REFERENCE_FACTORS[token] for token in word.split(".")]) + 0.0


def _reference_qotp(n):
    """The key-controlled encryption and decryption on (key, input), and the key ket."""
    d, keys = 2**n, 4**n
    key_ket = np.zeros(keys * keys, dtype=complex)
    for k in range(keys):
        key_ket[k * keys + k] = 1.0 / d

    def pad(k):
        a, b = k >> n, k & (d - 1)
        return kron(
            *[
                np.linalg.matrix_power(PAULI_X, (a >> (n - 1 - i)) & 1)
                @ np.linalg.matrix_power(PAULI_Z, (b >> (n - 1 - i)) & 1)
                for i in range(n)
            ]
        )

    encrypt = np.zeros((d * keys, d * keys), dtype=complex)
    decrypt = np.zeros((d * keys, d * keys), dtype=complex)
    for k in range(keys):
        encrypt += kron(_marker(keys, k), pad(k))
        decrypt += kron(_marker(keys, k), dagger(pad(k)))
    return encrypt, decrypt, key_ket


def _reference_controlled_flip_gate(n):
    d, words = 2**n, pauli_words(n)
    gate = np.zeros((len(words) * d, len(words) * d), dtype=complex)
    for k, word in enumerate(words):
        gate += kron(_marker(len(words), k), _reference_word(word))
    return gate


def _reference_tag_operators(n, blocks):
    """The tag-controlled decryption on (tag, hold), and each circuit's tag shift."""
    d, tag_dim = 2**n, max(2, len(blocks))
    decrypt = np.zeros((tag_dim * d, tag_dim * d), dtype=complex)
    for i in range(tag_dim):
        decrypt += kron(_marker(tag_dim, i), blocks[i] if i < len(blocks) else np.eye(d))
    shifts = []
    for i in range(len(blocks)):
        shift = np.zeros((tag_dim, tag_dim), dtype=complex)
        for m in range(tag_dim):
            shift[(m + i) % tag_dim, m] = 1.0
        shifts.append(shift)
    return decrypt, shifts


def _controlled_reference(op, dense):
    """A FootprintOp like op, whose blocks are read off the dense reference."""
    return FootprintOp(op.labels, diagonal_blocks(dense, len(op.matrix)), op.control)


def _reference_scheme(entry):
    """The entry's scheme rebuilt from the references, with a fresh matrix for
    each flip word's operator and target."""
    scheme = build_scheme(entry.builder, **entry.params)
    n = entry.params["n"]
    words = pauli_words(n)
    targets = [
        _reference_word(ev.circuit_id) if ev.circuit_id in words else ev.target
        for ev in scheme.evaluations
    ]
    changes = {}
    if entry.builder == "qotp":
        encrypt, decrypt, key_ket = _reference_qotp(n)
        changes = {
            "fixed_states": (RegisterState(scheme.fixed_states[0].labels, key_ket),),
            "encrypt_op": _controlled_reference(scheme.encrypt_op, encrypt),
            "decrypt_op": _controlled_reference(scheme.decrypt_op, decrypt),
        }
    if entry.builder == "tag-evaluate":
        decrypt, shifts = _reference_tag_operators(n, targets)
        changes["decrypt_op"] = _controlled_reference(scheme.decrypt_op, decrypt)
        operators = [FootprintOp(("tag",), shift) for shift in shifts]
    else:
        operators = [
            FootprintOp(("input",), _reference_word(cid)) if cid in words else ev.operator
            for cid, ev in zip(scheme.circuit_ids, scheme.evaluations)
        ]
    changes["evaluations"] = tuple(
        Evaluation(ev.circuit_id, op, target)
        for ev, op, target in zip(scheme.evaluations, operators, targets)
    )
    return dataclasses.replace(scheme, **changes)


def _assert_controlled_matches(op, reference, control, labels):
    # Bit for bit twice: the blocks against the reference's diagonal, and
    # the blocks written out densely against the whole reference, so every
    # off-diagonal block of the reference is zero.
    assert (op.control, op.labels) == (control, labels)
    assert op.matrix.tobytes() == diagonal_blocks(reference, len(op.matrix)).tobytes()
    dense, footprint = dense_footprint(op)
    assert footprint == (control, *labels)
    assert dense.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_word_matrix_is_the_kron_of_its_factors_bit_for_bit(n):
    for word in pauli_words(n):
        matrix = pauli_word_matrix(word)
        assert matrix.tobytes() == _reference_word(word).tobytes(), word
        parts = matrix.view(float)
        assert not np.signbit(parts[parts == 0]).any(), word


@pytest.mark.parametrize("n", [1, 2])
def test_qotp_operators_match_kron_sums_bit_for_bit(n):
    scheme = build_qotp_scheme(n)
    encrypt, decrypt, key_ket = _reference_qotp(n)
    _assert_controlled_matches(scheme.encrypt_op, encrypt, "key", ("input",))
    _assert_controlled_matches(scheme.decrypt_op, decrypt, "key", ("input",))
    (key_state,) = scheme.fixed_states
    assert key_state.ket.tobytes() == key_ket.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_qotp_evaluations_read_the_encryption_pads(n):
    scheme = build_qotp_scheme(n)
    pads = scheme.encrypt_op.matrix
    for ev in scheme.evaluations:
        assert ev.operator.matrix.base is pads and ev.target.base is pads
        assert ev.target.tobytes() == _reference_word(ev.circuit_id).tobytes()


@pytest.mark.parametrize("build", [build_qotp_scheme, build_identity_scheme])
def test_flip_evaluations_share_one_array_with_their_target(build):
    # So Evaluation does not check a pad again: its operator is a block of
    # the checked pad stack.
    for ev in build(2).evaluations:
        assert ev.target is ev.operator.matrix


@pytest.mark.parametrize("n", [1, 2])
def test_controlled_flip_gate_matches_kron_sum_bit_for_bit(n):
    gate, layout = build_controlled_flip_gate(n)
    assert gate.tobytes() == _reference_controlled_flip_gate(n).tobytes()
    assert layout.dims == (4**n, 2**n)


@pytest.mark.parametrize(
    "n, circuit_set",
    [
        *[(e.params["n"], e.params["circuit_set"]) for e in catalog() if e.builder == "tag-evaluate"],
        # Negative entries: -X carries -0.0, which the sums turn into +0.0
        # and the builder writes as +0.0 too.
        (1, ("I", ("minus-X", -PAULI_X), "XZ")),
        (1, ("X",)),
    ],
)
def test_tag_evaluate_operators_match_kron_sums_bit_for_bit(n, circuit_set):
    scheme = build_tag_evaluate_scheme(n, circuit_set)
    decrypt, shifts = _reference_tag_operators(n, [ev.target for ev in scheme.evaluations])
    _assert_controlled_matches(scheme.decrypt_op, decrypt, "tag", ("hold",))
    for ev, shift in zip(scheme.evaluations, shifts):
        assert ev.operator.matrix.tobytes() == shift.tobytes()


@pytest.mark.parametrize(
    "entry", [*catalog(), CatalogEntry("qotp-2", "qotp", {"n": 2}, {})], ids=lambda e: e.name
)
def test_exported_schemes_match_kron_sum_builds_byte_for_byte(entry):
    built = json.dumps(scheme_to_json(build_scheme(entry.builder, **entry.params)), sort_keys=True)
    reference = json.dumps(scheme_to_json(_reference_scheme(entry)), sort_keys=True)
    assert built == reference


def test_no_builder_calls_kron_for_a_flip_word(monkeypatch):
    # Every flip word, key-controlled operator and gate block is written by index.
    def refuse(*factors):
        raise AssertionError(f"kron called on {len(factors)} factors")

    monkeypatch.setattr(qhekit_catalog, "kron", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    build_qotp_scheme(2)
    build_identity_scheme(1)
    build_tag_evaluate_scheme(2, ("I.I", "X.I", "Z.Z", "X.XZ"))
    build_controlled_flip_gate(2)
    pauli_word_matrix("X.XZ")

