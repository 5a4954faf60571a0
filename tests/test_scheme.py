import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qhekit.layout
import qhekit.linalg
import qhekit.localiser
import qhekit.qinfo
import qhekit.scheme
from qhekit.catalog import (
    build_constructed_secure_problem,
    build_controlled_flip_gate,
    build_identity_scheme,
    build_qotp_scheme,
    build_scheme,
    build_tag_evaluate_scheme,
    catalog,
    pauli_word_matrix,
)
from qhekit.checks import (
    check_completeness, check_no_programming, check_security, check_theorem1
)
from qhekit.layout import (
    MAX_TOTAL_DIM,
    Layout,
    apply_operator,
    assemble_ket,
    axis_permutation,
    embed_operator,
)
from qhekit.linalg import basis_ket, fidelity_pure, haar_ket, kron, random_ket, random_unitary
from qhekit.localiser import (
    LeakageDetected,
    LocalisationError,
    extract_plaintext,
    localise,
)
from qhekit.qinfo import DensityOp, plaintext_dependence
from qhekit.scheme import (
    Evaluation,
    FootprintOp,
    QheScheme,
    RegisterState,
    encrypt_and_evaluate,
    evolve,
    localisation_problem_at_t1,
    run_pipeline,
)
from qhekit_reference import (
    block_diagonal,
    ciphertext,
    circuit_major,
    dense_footprint,
    initial_ket,
    mailbox_bridge,
    peak_bytes,
    remote_reduced,
)


def test_identity_pipeline_identity_circuit():
    scheme = build_identity_scheme(1)
    trace = run_pipeline(scheme, "I", basis_ket(2, 0))
    assert abs(trace.output.matrix[0, 0] - 1) < 1e-12


def test_qotp_x_circuit_flips_zero():
    # Independent oracle: average the four explicit key branches.
    scheme = build_qotp_scheme(1)
    x = pauli_word_matrix("X")
    z = pauli_word_matrix("Z")
    expected = np.zeros((2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            pad = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            branch = pad.conj().T @ x @ pad @ basis_ket(2, 0)
            expected += np.outer(branch, branch.conj()) / 4
    np.testing.assert_allclose(expected, np.outer(basis_ket(2, 1), basis_ket(2, 1)), atol=1e-12)

    trace = run_pipeline(scheme, "X", basis_ket(2, 0))
    assert np.max(np.abs(trace.output.matrix - expected)) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_tag_evaluate_pipeline_applies_target(seed):
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z", "XZ"))
    psi = random_ket(2, seed)
    for ev in scheme.evaluations:
        trace = run_pipeline(scheme, ev.circuit_id, psi)
        target = ev.target @ psi
        fid = float(np.real(np.vdot(target, trace.output.matrix @ target)))
        assert fid >= 1 - 1e-9


def test_identity_swap_circuit_swaps_plaintext_exactly():
    scheme = build_identity_scheme(2)
    psi = kron(basis_ket(2, 0), basis_ket(2, 1))  # |01>
    trace = run_pipeline(scheme, "SWAP01", psi)
    swapped = kron(basis_ket(2, 1), basis_ket(2, 0))
    np.testing.assert_allclose(trace.output.matrix, np.outer(swapped, swapped.conj()), atol=1e-12)


def test_pipeline_rejects_unknown_circuit():
    scheme = build_identity_scheme(1)
    with pytest.raises(KeyError, match="unknown circuit"):
        run_pipeline(scheme, "nope", basis_ket(2, 0))


def test_pipeline_global_purity_and_ownership():
    scheme = build_qotp_scheme(1)
    trace = run_pipeline(scheme, "Z", random_ket(2, 3))
    for ket in (trace.ket_t1, trace.ket_t2):
        rho = DensityOp.from_ket(scheme.layout, ket).matrix
        assert abs(np.real(np.trace(rho @ rho)) - 1) <= 1e-9
    for alice, bob in ((scheme.alice_t1, scheme.bob_t1), (scheme.alice_t2, scheme.bob_t2)):
        assert sorted(alice + bob) == sorted(scheme.layout.labels)
        assert not set(alice) & set(bob)


def test_footprint_violation_rejected():
    # Evaluation touching a register Bob never holds must be rejected.
    with pytest.raises(ValueError, match="does not hold"):
        scheme = build_qotp_scheme(1)
        bad = Evaluation("bad", FootprintOp(("key",), np.eye(4, dtype=complex)), np.eye(2))
        dataclasses.replace(scheme, evaluations=scheme.evaluations + (bad,))


def test_scheme_requires_unit_fixed_states():
    with pytest.raises(ValueError, match="norm"):
        RegisterState(("k",), np.array([1.0, 1.0]))


@pytest.mark.parametrize("label", [7, ["input"], None, b"input"])
def test_register_state_and_footprint_refuse_non_string_labels(label):
    for build in (
        lambda: RegisterState((label,), basis_ket(2, 0)),
        lambda: FootprintOp((label,), np.eye(2)),
    ):
        with pytest.raises(TypeError, match=re.escape(f"register label {label!r} is not")):
            build()


@pytest.mark.parametrize("value", [7, None, b"I"])
def test_evaluation_and_scheme_refuse_non_string_ids_and_names(value):
    # A scheme that held one would export a file its own loader refuses.
    with pytest.raises(TypeError, match=re.escape(f"circuit id {value!r} is not a string")):
        Evaluation(value, FootprintOp(("input",), np.eye(2)), np.eye(2))
    with pytest.raises(TypeError, match=re.escape(f"circuit id {value!r} is not a string")):
        build_tag_evaluate_scheme(1, ("I", (value, pauli_word_matrix("X"))))
    with pytest.raises(TypeError, match=re.escape(f"scheme name {value!r} is not a string")):
        dataclasses.replace(build_qotp_scheme(1), name=value)


def test_evaluation_checks_its_target_unless_it_is_the_operator_matrix(monkeypatch):
    calls = []
    original = qhekit.scheme.is_unitary

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(qhekit.scheme, "is_unitary", counting)
    op = FootprintOp(("input",), pauli_word_matrix("X"))
    assert Evaluation("X", op, op.matrix).target is op.matrix
    assert calls == []
    Evaluation("X", op, op.matrix.copy())
    assert calls == [(2, 2)]
    with pytest.raises(ValueError, match="target of 'bad' is not unitary"):
        Evaluation("bad", op, 2 * op.matrix)


def _two_footprint_scheme():
    base = build_tag_evaluate_scheme(1, ("I", "X", "Z"))
    # Interleave circuits on ("input",) with the tag circuits on ("tag",).
    extra = tuple(
        Evaluation(f"U{k}", FootprintOp(("input",), random_unitary(2, k)), np.eye(2))
        for k in range(2)
    )
    ev = base.evaluations
    return dataclasses.replace(base, evaluations=(extra[0], ev[0], ev[1], extra[1], ev[2]))


def test_evaluations_on_two_footprints_keep_their_circuit_order():
    scheme = _two_footprint_scheme()
    plaintexts = np.eye(2, dtype=complex)
    ket_t1, ket_t2 = encrypt_and_evaluate(scheme, scheme.circuit_ids, plaintexts)
    for k, e in enumerate(scheme.evaluations):
        expected = apply_operator(ket_t1, scheme.layout, e.operator.matrix, e.operator.labels)
        assert np.array_equal(ket_t2[:, k], expected)


_NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])
_SCALED = 2 * np.eye(2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FootprintOp(("a",), _NAN), r"operator on \('a',\): non-finite entries"),
        (lambda: FootprintOp(("a",), _SCALED), r"operator on \('a',\) is not unitary"),
        (
            lambda: Evaluation("c", FootprintOp(("a",), np.eye(2)), _NAN),
            "target of 'c': non-finite entries",
        ),
        (
            lambda: Evaluation("c", FootprintOp(("a",), np.eye(2)), _SCALED),
            "target of 'c' is not unitary",
        ),
    ],
    ids=["operator-nan", "operator-non-unitary", "target-nan", "target-non-unitary"],
)
def test_operators_and_targets_reject_nan_and_non_unitary(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _bad_block(k):
    blocks = np.stack([np.eye(2, dtype=complex)] * 4)
    blocks[k] *= 2
    return blocks


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FootprintOp(("a",), _bad_block(2), "k"), "by 'k': block 2 is not unitary"),
        (lambda: FootprintOp(("a",), _bad_block(0)[1:], "k"), None),
        (lambda: FootprintOp(("a", "k"), _bad_block(0)[1:], "k"), "register 'k' is in its footprint"),
        (lambda: FootprintOp(("a",), np.eye(2), "k"), r"expected 3 axes, got shape \(2, 2\)"),
        (lambda: FootprintOp(("a",), np.full((2, 2, 2), np.nan), "k"), "non-finite entries"),
        (lambda: FootprintOp(("a",), np.eye(2), 7), "register label 7 is not a string"),
        (lambda: FootprintOp(("a",), _bad_block(0)[1:]), r"expected 2 axes, got shape \(3, 2, 2\)"),
    ],
    ids=[
        "non-unitary-block",
        "unitary-blocks",
        "control-in-labels",
        "not-a-stack",
        "nan",
        "label",
        "stack-without-control",
    ],
)
def test_controlled_operators_check_every_block(build, message):
    if message is None:
        assert build().matrix.shape == (3, 2, 2)
        return
    with pytest.raises((TypeError, ValueError), match=message):
        build()


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda s: {"decrypt_op": FootprintOp(("input",), s.decrypt_op.matrix[:3], "key")},
            r"decryption operator has shape \(3, 2, 2\), but its control and footprint "
            r"\('key', 'input'\) need \(4, 2, 2\)",
        ),
        (
            lambda s: {"decrypt_op": FootprintOp(("input",), s.decrypt_op.matrix, "key_purifier")},
            None,
        ),
        (
            lambda s: {
                "evaluations": (
                    Evaluation("X", FootprintOp(("input",), s.encrypt_op.matrix, "key"), np.eye(2)),
                )
            },
            r"evaluation 'X' operator touches \['key'\] which the owner does not hold",
        ),
    ],
    ids=["block-count", "other-control", "control-not-held"],
)
def test_scheme_checks_a_control_against_its_layout_and_owner(change, message):
    scheme = build_qotp_scheme(1)
    if message is None:
        assert dataclasses.replace(scheme, **change(scheme)).decrypt_op.control == "key_purifier"
        return
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(scheme, **change(scheme))


def test_controlled_evaluations_match_their_dense_block_diagonal():
    # Bob flips the plaintext when his coin, in |+>, holds |1>.
    layout = Layout((("input", 2), ("coin", 2)))
    flips = np.stack([np.eye(2), pauli_word_matrix("X")])
    eye = np.eye(2)
    scheme = QheScheme(
        name="coin-flip",
        layout=layout,
        input_label="input",
        output_label="input",
        bob_initial=("coin",),
        fixed_states=(RegisterState(("coin",), np.ones(2) / np.sqrt(2)),),
        encrypt_op=FootprintOp(("input",), eye),
        decrypt_op=FootprintOp(("input",), eye),
        evaluations=(
            Evaluation("flip", FootprintOp(("input",), flips, "coin"), eye),
            Evaluation("I", FootprintOp(("input",), eye), eye),
        ),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )
    plaintexts = np.stack([random_ket(2, seed) for seed in range(3)], axis=1)
    ket_t1, ket_t2 = encrypt_and_evaluate(scheme, scheme.circuit_ids, plaintexts)
    dense = embed_operator(block_diagonal(flips), layout, ("coin", "input"))
    np.testing.assert_allclose(ket_t2[:, 0], dense @ ket_t1, rtol=0, atol=1e-15)
    assert np.array_equal(ket_t2[:, 1], ket_t1)


def test_qotp_completeness_applies_no_operator_wider_than_the_plaintext(monkeypatch):
    # Every key-controlled operator goes to apply_operator as its 4 x 4 blocks.
    widths = []
    original = qhekit.scheme.apply_operator

    def recording(psi, layout, op, labels, control=None):
        widths.append(np.shape(op)[-1])
        return original(psi, layout, op, labels, control)

    monkeypatch.setattr(qhekit.scheme, "apply_operator", recording)
    report = check_completeness(build_qotp_scheme(2))
    assert report.verdict == "pass" and report.worst_metric == 0.0
    assert widths and max(widths) <= 4


def test_scheme_requires_state_cover():
    layout = Layout((("input", 2), ("extra", 2)))
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="cover"):
        QheScheme(
            name="broken",
            layout=layout,
            input_label="input",
            output_label="input",
            bob_initial=(),
            fixed_states=(),
            encrypt_op=FootprintOp(("input",), eye),
            decrypt_op=FootprintOp(("input",), eye),
            evaluations=(Evaluation("I", FootprintOp(("input",), eye), eye),),
            send_to_bob=("input",),
            return_to_alice=("input",),
        )


def test_trivial_evaluation_completeness_reflects_round_trip():
    # With every evaluation replaced by (identity, identity target), the
    # completeness verdict states whether encrypt-then-decrypt is the identity.
    scheme = build_qotp_scheme(1)
    idle = (Evaluation("idle", FootprintOp(("input",), np.eye(2, dtype=complex)), np.eye(2)),)
    good = dataclasses.replace(scheme, evaluations=idle)
    assert check_completeness(good).verdict == "pass"

    broken = dataclasses.replace(
        good, decrypt_op=FootprintOp(("input",), np.eye(2, dtype=complex))
    )
    assert check_completeness(broken).verdict == "fail"


def test_qotp_t1_localisation_recovers_plaintext():
    scheme = build_qotp_scheme(1)
    problem = localisation_problem_at_t1(scheme)
    assert problem.layout.dims == (16, 2)
    result = localise(problem)
    assert result.factor_dims == (2, 8)
    psi = random_ket(2, 21)
    recovered = extract_plaintext(result, problem.retained_reduced(psi))
    assert fidelity_pure(psi, recovered) >= 1 - 1e-8


def test_bridge_remote_state_equals_ciphertext():
    # The bridged problem's remote side must reproduce Bob's t1 state.
    scheme = build_qotp_scheme(1)
    problem = localisation_problem_at_t1(scheme)
    psi = random_ket(2, 9)
    np.testing.assert_allclose(
        remote_reduced(problem, psi), ciphertext(scheme, psi).matrix, atol=1e-10
    )


def test_bridge_rejects_scheme_without_retained_aux():
    with pytest.raises(ValueError) as info:
        localisation_problem_at_t1(build_identity_scheme(1))
    assert str(info.value) == (
        "the scheme retains nothing at t1; there is no retained side to localise into"
    )


_BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)


def test_bridge_rejects_cross_cut_resource():
    # A shared entangled resource straddles the retained/remote cut.  The
    # bridge takes it, and localise refuses this scheme as the leak it is:
    # the plaintext ships to Bob in the clear.
    eye = np.eye(2, dtype=complex)
    scheme = QheScheme(
        name="resourceful",
        layout=Layout((("input", 2), ("res_a", 2), ("res_b", 2))),
        input_label="input",
        output_label="input",
        bob_initial=("res_b",),
        fixed_states=(RegisterState(("res_a", "res_b"), _BELL),),
        encrypt_op=FootprintOp(("input",), eye),
        decrypt_op=FootprintOp(("input",), eye),
        evaluations=(Evaluation("I", FootprintOp(("input",), eye), eye),),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )
    problem = localisation_problem_at_t1(scheme)
    assert problem.layout.dims == (2, 4)
    with pytest.raises(LeakageDetected) as info:
        localise(problem)
    assert abs(info.value.deviation - 1.0) <= 1e-12


def _qotp_with_a_bell_pair():
    """QOTP n=1 with a Bell pair shared from the start: res_a is Alice's, res_b Bob's."""
    qotp = build_qotp_scheme(1)
    return dataclasses.replace(
        qotp,
        name="qotp-bell",
        layout=Layout(qotp.layout.registers + (("res_a", 2), ("res_b", 2))),
        bob_initial=("res_b",),
        fixed_states=qotp.fixed_states + (RegisterState(("res_a", "res_b"), _BELL),),
    )


def test_bridge_localises_a_secure_scheme_with_a_shared_bell_pair():
    scheme = _qotp_with_a_bell_pair()
    assert check_security(scheme).verdict == "pass"
    problem = localisation_problem_at_t1(scheme)
    assert problem.layout.dims == (32, 4)
    result = localise(problem)
    assert result.rank == 4 and result.factor_dims == (2, 16)
    assert result.gram_residual <= 1e-12 and result.reconstruction_residual <= 1e-12
    for seed in range(3):
        psi = random_ket(2, seed)
        recovered = extract_plaintext(result, problem.retained_reduced(psi))
        assert fidelity_pure(psi, recovered) >= 1 - 1e-12
    _assert_bridge_matches_reference(scheme)


def _retaining_schemes():
    """Every catalog scheme that retains something at t1, QOTP n=2 and the Bell pair scheme."""
    built = [build_scheme(entry.builder, **entry.params) for entry in catalog()]
    return [s for s in built if s.alice_t1] + [build_qotp_scheme(2), _qotp_with_a_bell_pair()]


@pytest.mark.parametrize("scheme", _retaining_schemes(), ids=lambda scheme: scheme.name)
def test_security_eps_is_the_bridge_leakage(scheme):
    # Bob's t1 registers are the bridge's remote side, so check_security
    # and the bridge's zero-leakage test read the same eps, bit for bit.
    problem = localisation_problem_at_t1(scheme)
    eps, _ = plaintext_dependence(problem.isometry, problem.layout, [problem.remote_label])
    d = scheme.input_dim
    security = [metric for _, metric in check_security(scheme).cases]
    assert np.array_equal(security, [eps[j, k] for j in range(d) for k in range(j, d)])


def test_builders_are_deterministic():
    a = build_qotp_scheme(1)
    b = build_qotp_scheme(1)
    np.testing.assert_array_equal(a.encrypt_op.matrix, b.encrypt_op.matrix)
    for block_a, block_b in zip(a.fixed_states, b.fixed_states, strict=True):
        assert block_a.labels == block_b.labels
        np.testing.assert_array_equal(block_a.ket, block_b.ket)
    t1 = build_tag_evaluate_scheme(1, ("I", "X"))
    t2 = build_tag_evaluate_scheme(1, ("I", "X"))
    np.testing.assert_array_equal(t1.decrypt_op.matrix, t2.decrypt_op.matrix)


def test_qotp_output_register_aliases_input():
    scheme = build_qotp_scheme(1)
    assert scheme.output_label == scheme.input_label
    trace = run_pipeline(scheme, "I", basis_ket(2, 1))
    expected = kron(np.zeros((1, 1)) + 1, np.outer(basis_ket(2, 1), basis_ket(2, 1)))
    np.testing.assert_allclose(trace.output.matrix, expected.reshape(2, 2), atol=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_qotp_scheme(1),
        lambda: build_qotp_scheme(2),
        lambda: build_tag_evaluate_scheme(1, ("I", "X", "Z")),
    ],
    ids=["qotp-1", "qotp-2", "tag-evaluate-1"],
)
def test_t1_isometry_matches_dense_route(build):
    # Reference: the dense full-space route.  Embed the encryption, apply it
    # to e_j ⊗ the fixed states, and reorder the rows into (alice_t1, bob_t1).
    scheme = build()
    problem = localisation_problem_at_t1(scheme)
    layout = scheme.layout
    matrix, labels = dense_footprint(scheme.encrypt_op)
    dense = embed_operator(matrix, layout, labels)
    rows = axis_permutation(layout.dims, layout.positions(scheme.alice_t1 + scheme.bob_t1))
    for j in range(scheme.input_dim):
        e_j = basis_ket(scheme.input_dim, j)
        expected = (dense @ initial_ket(scheme, e_j))[rows]
        np.testing.assert_array_equal(problem.output_ket(e_j), expected)


def test_t1_localisation_builds_no_full_space_operator(monkeypatch):
    scheme = build_qotp_scheme(2)
    seen = {"embed_operator": [], "complete_orthonormal": [], "is_unitary": []}

    def recording(original, record):
        def wrapper(*args, **kwargs):
            record.append(np.shape(args[0])[0])
            return original(*args, **kwargs)

        return wrapper

    for module in (qhekit.layout, qhekit.linalg, qhekit.localiser, qhekit.scheme):
        for name, record in seen.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(getattr(module, name), record))

    problem = localisation_problem_at_t1(scheme)
    result = localise(problem)
    psi = random_ket(4, 5)
    recovered = extract_plaintext(result, problem.retained_reduced(psi))
    assert fidelity_pure(psi, recovered) >= 1 - 1e-8
    assert seen["embed_operator"] == []
    assert seen["complete_orthonormal"] == []
    assert max(seen["is_unitary"], default=0) <= 256


def test_qotp2_t1_problem_has_the_scheme_dimension():
    # No mailbox: the problem is the scheme's 1024 x 4 encryption isometry,
    # and building, localising and extracting from it stay within 0.75 MiB.
    scheme = build_qotp_scheme(2)
    psi = random_ket(4, 5)

    def run():
        problem = localisation_problem_at_t1(scheme)
        return problem, extract_plaintext(localise(problem), problem.retained_reduced(psi))

    (problem, recovered), peak = peak_bytes(run)
    assert problem.isometry.shape == (1024, 4)
    assert fidelity_pure(psi, recovered) >= 1 - 1e-8
    assert peak <= 0.75 * 2**20


def test_footprint_block_is_a_block_of_the_checked_stack():
    pads = build_qotp_scheme(1).encrypt_op
    block = pads.block(3)
    assert block.labels == pads.labels and block.control is None
    assert block.matrix.base is pads.matrix
    np.testing.assert_array_equal(block.matrix, pads.matrix[3])
    with pytest.raises(ValueError, match="no control stack"):
        block.block(0)


def test_qotp_build_checks_the_pads_once(monkeypatch):
    # One stacked check each for encryption and decryption; the evaluations
    # are blocks of the encryption stack and their targets are their matrices.
    calls = []
    original = qhekit.scheme._unitarity_residuals

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(qhekit.scheme, "_unitarity_residuals", counting)
    monkeypatch.setattr(qhekit.scheme, "is_unitary", None)
    build_qotp_scheme(2)
    assert calls == [(16, 4, 4), (16, 4, 4)]


_ISOMETRY_SCHEMES = {
    **{entry.name: (entry.builder, entry.params) for entry in catalog()},
    "qotp-1": ("qotp", {"n": 1}),
    "qotp-2": ("qotp", {"n": 2}),
}


def _per_basis_isometry(scheme):
    """Reference: the encryption as one dense matrix through its footprint on
    the stacked initial kets, one assembled per basis plaintext."""
    d = scheme.input_dim
    initial = np.stack([initial_ket(scheme, basis_ket(d, j)) for j in range(d)], axis=1)
    matrix, labels = dense_footprint(scheme.encrypt_op)
    return apply_operator(initial, scheme.layout, matrix, labels)


def _assert_bit_identical(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_ISOMETRY_SCHEMES))
def test_encryption_isometry_columns_are_encrypted_basis_kets(name):
    builder, params = _ISOMETRY_SCHEMES[name]
    scheme = build_scheme(builder, **params)
    w = scheme.encryption_isometry
    assert w.shape == (scheme.layout.dim, scheme.input_dim)
    _assert_bit_identical(w, _per_basis_isometry(scheme))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_encryption_isometry_with_random_fixed_blocks_in_shuffled_order(data):
    # Registers in a shuffled layout order, the fixed states split into
    # blocks that each list their registers in a shuffled order, and an
    # encryption on a random footprint.
    fixed = [f"r{i}" for i in range(data.draw(st.integers(1, 4)))]
    dims = {label: data.draw(st.integers(2, 3)) for label in ["in", *fixed]}
    layout = Layout(tuple((label, dims[label]) for label in data.draw(st.permutations(list(dims)))))
    shuffled = data.draw(st.permutations(fixed))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(fixed) - 1))) if len(fixed) > 1 else set())
    blocks = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(fixed)])]
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    states = tuple(RegisterState(tuple(b), haar_ket(rng, layout.dim_of(b))) for b in blocks)
    footprint = data.draw(st.permutations(list(dims)))[: data.draw(st.integers(1, len(dims)))]
    sent = (shuffled[0],)
    scheme = QheScheme(
        name="random-blocks",
        layout=layout,
        input_label="in",
        output_label="in",
        bob_initial=(),
        fixed_states=states,
        encrypt_op=FootprintOp(tuple(footprint), random_unitary(layout.dim_of(footprint), seed)),
        decrypt_op=FootprintOp(("in",), np.eye(dims["in"])),
        evaluations=(
            Evaluation("I", FootprintOp(sent, np.eye(dims[sent[0]])), np.eye(dims["in"])),
        ),
        send_to_bob=sent,
        return_to_alice=sent,
    )
    _assert_bit_identical(scheme.encryption_isometry, _per_basis_isometry(scheme))


@pytest.mark.parametrize("name", ["qotp-1", "qotp-2", "tag-evaluate-2q"])
def test_encryption_isometry_assembles_the_fixed_states_once(monkeypatch, name):
    # One assemble_ket call for any plaintext dimension, not one per basis ket.
    calls = []
    original = qhekit.scheme.assemble_ket

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    builder, params = _ISOMETRY_SCHEMES[name]
    scheme = build_scheme(builder, **params)
    monkeypatch.setattr(qhekit.scheme, "assemble_ket", counting)
    scheme.encryption_isometry
    assert scheme.input_dim >= 2
    assert len(calls) == 1


def _localise_outcome(problem, psi):
    """localise's leakage deviation, rank, weights and residuals, and psi's extraction fidelity.

    A refusal gives its type and, for a leak, its deviation.
    """
    try:
        result = localise(problem)
    except LocalisationError as exc:
        return type(exc), getattr(exc, "deviation", None)
    recovered = extract_plaintext(result, problem.retained_reduced(psi))
    return (
        result.leakage_deviation,
        result.rank,
        result.residual_weights,
        result.gram_residual,
        result.reconstruction_residual,
        fidelity_pure(psi, recovered),
    )


def _assert_bridge_matches_reference(scheme):
    # The bipartition and the mailbox reference hold the same vectors in
    # different layouts, so every quantity agrees within 1e-12.  A scheme
    # that sends Bob everything is refused; Bob holds the whole pure state,
    # so the reference refuses it as a leak.
    psi = haar_ket(np.random.default_rng(31), scheme.input_dim)
    reference = _localise_outcome(mailbox_bridge(scheme), psi)
    if not scheme.alice_t1:
        with pytest.raises(ValueError, match="retains nothing at t1"):
            localisation_problem_at_t1(scheme)
        assert reference[0] is LeakageDetected
        return
    problem = localisation_problem_at_t1(scheme)
    assert problem.layout.dim == scheme.layout.dim
    ours = _localise_outcome(problem, psi)
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference, strict=True):
        if isinstance(a, type) or a is None:
            assert a is b
        else:
            assert np.max(np.abs(np.subtract(a, b))) <= 1e-12, (ours, reference)


@pytest.mark.parametrize(
    "name", [name for name in sorted(_ISOMETRY_SCHEMES) if _ISOMETRY_SCHEMES[name][0] != "identity"]
)
def test_bridge_matches_mailbox_reference_on_catalog(name):
    builder, params = _ISOMETRY_SCHEMES[name]
    _assert_bridge_matches_reference(build_scheme(builder, **params))


def _partition(data, labels):
    """The labels, shuffled, cut into consecutive non-empty blocks."""
    if not labels:
        return []
    shuffled = data.draw(st.permutations(labels))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(labels) - 1)))) if len(labels) > 1 else []
    return [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(labels)])]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_bridge_matches_mailbox_reference_on_random_schemes(data):
    # Random register dims and layout order; Bob may hold registers from the
    # start; Alice sends a random non-empty subset of her registers, input
    # included or not, listed in a random order; the fixed states are split
    # into blocks on either side of the cut; the encryption has a random
    # footprint on Alice's registers.
    fixed = [f"r{i}" for i in range(data.draw(st.integers(2, 4)))]
    dims = {label: data.draw(st.integers(2, 3)) for label in ["in", *fixed]}
    layout = Layout(tuple((label, dims[label]) for label in data.draw(st.permutations(list(dims)))))
    bob = data.draw(st.permutations(fixed))[: data.draw(st.integers(0, len(fixed) - 1))]
    alice = ["in"] + [label for label in fixed if label not in bob]
    send_input = data.draw(st.booleans())
    count = data.draw(st.integers(1 - send_input, len(alice) - 1))
    others = data.draw(st.permutations(alice[1:]))[:count]
    sent = data.draw(st.permutations(["in"] * send_input + others))
    assume(layout.dim * layout.dim_of(sent) <= MAX_TOTAL_DIM)
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    blocks = data.draw(st.permutations(_partition(data, alice[1:]) + _partition(data, bob)))
    states = tuple(RegisterState(tuple(b), haar_ket(rng, layout.dim_of(b))) for b in blocks)
    footprint = data.draw(st.permutations(alice))[: data.draw(st.integers(1, len(alice)))]
    message = (bob + sent)[0]
    output = message if "in" in sent else "in"
    scheme = QheScheme(
        name="random-bridge",
        layout=layout,
        input_label="in",
        output_label=output,
        bob_initial=tuple(bob),
        fixed_states=states,
        encrypt_op=FootprintOp(tuple(footprint), random_unitary(layout.dim_of(footprint), seed)),
        decrypt_op=FootprintOp((output,), np.eye(dims[output])),
        evaluations=(
            Evaluation("I", FootprintOp((message,), np.eye(dims[message])), np.eye(dims["in"])),
        ),
        send_to_bob=tuple(sent),
        return_to_alice=(message,),
    )
    _assert_bridge_matches_reference(scheme)


def test_bridge_rejects_problem_over_the_dimension_guard():
    # The scheme fits the guard; with the mailbox, its problem does not, and
    # the bipartition's problem has the scheme's own dimension.
    eye = np.eye(2, dtype=complex)
    scheme = QheScheme(
        name="wide",
        layout=Layout((("input", 2), ("key", MAX_TOTAL_DIM // 2))),
        input_label="input",
        output_label="input",
        bob_initial=(),
        fixed_states=(RegisterState(("key",), basis_ket(MAX_TOTAL_DIM // 2, 0)),),
        encrypt_op=FootprintOp(("input",), eye),
        decrypt_op=FootprintOp(("input",), eye),
        evaluations=(Evaluation("I", FootprintOp(("input",), eye), eye),),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )
    with pytest.raises(ValueError) as reference:
        mailbox_bridge(scheme)
    assert str(reference.value) == (
        f"total dimension {2 * MAX_TOTAL_DIM} exceeds the {MAX_TOTAL_DIM} guard"
    )
    problem = localisation_problem_at_t1(scheme)
    assert problem.layout.dims == (MAX_TOTAL_DIM // 2, 2)
    assert problem.isometry.shape == (MAX_TOTAL_DIM, 2)


def test_bridge_of_a_scheme_that_sends_nothing():
    # Bob's initial registers alone are the remote side.
    eye = np.eye(2, dtype=complex)
    scheme = QheScheme(
        name="silent",
        layout=Layout((("input", 2), ("key", 2), ("bob", 2))),
        input_label="input",
        output_label="input",
        bob_initial=("bob",),
        fixed_states=(
            RegisterState(("key",), basis_ket(2, 1)),
            RegisterState(("bob",), random_ket(2, 3)),
        ),
        encrypt_op=FootprintOp(("input", "key"), random_unitary(4, 2)),
        decrypt_op=FootprintOp(("input",), eye),
        evaluations=(Evaluation("I", FootprintOp(("bob",), eye), eye),),
        send_to_bob=(),
        return_to_alice=("bob",),
    )
    problem = localisation_problem_at_t1(scheme)
    assert problem.layout.dims == (4, 2)
    psi = random_ket(2, 9)
    np.testing.assert_allclose(
        remote_reduced(problem, psi), ciphertext(scheme, psi).matrix, rtol=0, atol=1e-12
    )
    assert localise(problem).rank == 1


def test_evolve_batch_matches_pipeline_runs():
    scheme = build_qotp_scheme(1)
    plaintexts = np.stack([random_ket(2, seed) for seed in range(3)], axis=1)
    ket_t1, ket_t2, ket_final = evolve(scheme, ("X",), plaintexts)
    batched = (ket_t1, ket_t2[:, 0], ket_final[:, 0])
    for k in range(3):
        trace = run_pipeline(scheme, "X", plaintexts[:, k])
        for ket, column in zip((trace.ket_t1, trace.ket_t2, trace.ket_final), batched):
            np.testing.assert_allclose(column[:, k], ket, rtol=0, atol=1e-14)


@pytest.mark.parametrize("batch", [None, 3])
def test_evolve_circuit_axis_matches_one_circuit_calls(batch):
    # A sequence of ids adds a circuit axis after the state axis, in the
    # order given; each slice equals that circuit's own evolve call.
    scheme = build_qotp_scheme(1)
    ids = ("Z", "I", "XZ")
    if batch is None:
        plaintexts = random_ket(2, 1)
    else:
        plaintexts = np.stack([random_ket(2, seed) for seed in range(batch)], axis=1)
    ket_t1, ket_t2, ket_final = evolve(scheme, ids, plaintexts)
    dim = scheme.layout.dim
    tail = () if batch is None else (batch,)
    assert ket_t1.shape == (dim,) + tail
    assert ket_t2.shape == ket_final.shape == (dim, len(ids)) + tail
    for c, cid in enumerate(ids):
        single = evolve(scheme, (cid,), plaintexts)
        assert single[1].shape == single[2].shape == (dim, 1) + tail
        np.testing.assert_array_equal(single[0], ket_t1)
        np.testing.assert_allclose(ket_t2[:, c], single[1][:, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(ket_final[:, c], single[2][:, 0], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "build",
    [lambda: build_qotp_scheme(1), _two_footprint_scheme],
    ids=["one-footprint", "two-footprints"],
)
@pytest.mark.parametrize("batch", [False, True], ids=["one-plaintext", "basis"])
def test_evolve_hands_circuit_major_t2_kets_to_the_decryption(monkeypatch, build, batch):
    # The decryption reads the t2 kets themselves, one plaintext as (dim, n, 1),
    # and each circuit's slice is bit for bit its own evolve call's.
    scheme = build()
    decrypted = []
    original = qhekit.scheme.apply_operator

    def recording(psi, layout, op, labels, control=None):
        if op is scheme.decrypt_op.matrix:
            decrypted.append(psi)
        return original(psi, layout, op, labels, control)

    monkeypatch.setattr(qhekit.scheme, "apply_operator", recording)
    plaintexts = np.eye(2) if batch else random_ket(2, 4)
    _, ket_t2, ket_final = evolve(scheme, scheme.circuit_ids, plaintexts)
    [kets] = decrypted
    assert kets.ndim == 3 and np.shares_memory(kets, ket_t2)
    assert circuit_major(ket_t2) and circuit_major(ket_final)
    for k, cid in enumerate(scheme.circuit_ids):
        _, t2, final = evolve(scheme, (cid,), plaintexts)
        assert np.array_equal(ket_t2[:, k], t2[:, 0])
        assert np.array_equal(ket_final[:, k], final[:, 0])


def test_evolve_at_qotp2_holds_two_batches_of_kets():
    # The t2 and final kets, each (dim, circuits, d), and little more; the
    # cached encryption isometry is built before the measured call.
    scheme = build_qotp_scheme(2)
    d = scheme.input_dim
    batch_bytes = scheme.layout.dim * len(scheme.circuit_ids) * d * 16
    scheme.encryption_isometry
    _, peak = peak_bytes(lambda: evolve(scheme, scheme.circuit_ids, np.eye(d)))
    assert peak <= 2.1 * batch_bytes


@pytest.mark.parametrize("function", [encrypt_and_evaluate, evolve])
def test_circuit_ids_refuse_a_bare_string(function):
    # "XZ" is one circuit of QOTP n=1, not the circuits X and Z.
    scheme = build_qotp_scheme(1)
    with pytest.raises(TypeError, match=r"circuit ids 'XZ' is a string; .* \('XZ',\)"):
        function(scheme, "XZ", np.eye(2))
    assert function(scheme, ("XZ",), np.eye(2))[1].shape == (scheme.layout.dim, 1, 2)


@pytest.mark.parametrize("function", [encrypt_and_evaluate, evolve])
@pytest.mark.parametrize("ids", [(), []], ids=["tuple", "list"])
def test_circuit_ids_refuse_an_empty_sequence(function, ids):
    with pytest.raises(ValueError, match="no circuit ids given"):
        function(build_qotp_scheme(1), ids, np.eye(2))


@pytest.mark.parametrize(
    "plaintexts, message",
    [
        (np.ones((3, 2)) / np.sqrt(3), "expected shape"),
        (np.ones((2, 2, 1)), "expected shape"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "norms"),
        (np.array([np.nan, 0.0]), "non-finite"),
    ],
)
def test_evolve_rejects_bad_plaintexts(plaintexts, message):
    with pytest.raises(ValueError, match=message):
        evolve(build_qotp_scheme(1), ("X",), plaintexts)


def test_pipeline_reduces_states_on_first_access(monkeypatch):
    built = []
    density_op = qhekit.qinfo.DensityOp
    original = density_op.__post_init__

    def recording(self):
        built.append(self.layout.labels)
        original(self)

    monkeypatch.setattr(density_op, "__post_init__", recording)
    scheme = build_qotp_scheme(1)
    trace = run_pipeline(scheme, "X", random_ket(2, 8))
    assert built == []
    assert trace.rho_message.layout.labels == scheme.return_to_alice
    assert built == [scheme.return_to_alice]
    assert trace.rho_message is trace.rho_message
    assert len(built) == 1


# Each refusal of QheScheme.__post_init__, as a change to tag-evaluate n=1
# on (I, X): input and hold are Alice's, tag is Bob's; she sends input and
# he returns tag.
_EYE2, _E4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
_SCHEME_REFUSALS = [
    pytest.param({"output_label": "nope"}, "output register 'nope' not in layout", id="output"),
    pytest.param(
        {"bob_initial": ("input", "tag")},
        "the plaintext register cannot start on Bob's side",
        id="plaintext-with-bob",
    ),
    pytest.param(
        {"fixed_states": (RegisterState(("hold",), _EYE2[0]), RegisterState(("tag",), _E4[0]))},
        re.escape("state on ('tag',): shape mismatch, expected one ket of shape (2,), got (4,)"),
        id="state-dimension",
    ),
    pytest.param(
        {"evaluations": ()}, "a scheme needs at least one evaluation", id="no-evaluations"
    ),
    pytest.param(
        {"evaluations": (Evaluation("I", FootprintOp(("tag",), _EYE2), _EYE2),) * 2},
        re.escape("duplicate circuit ids in ['I', 'I']"),
        id="duplicate-ids",
    ),
    pytest.param(
        {"evaluations": (Evaluation("W", FootprintOp(("tag",), _EYE2), _E4),)},
        re.escape("target of 'W' has shape (4, 4), expected plaintext dimension 2"),
        id="target-shape",
    ),
    pytest.param(
        {"send_to_bob": ("input", "tag")},
        "send_to_bob must be registers Alice holds before t1",
        id="send-not-alices",
    ),
    pytest.param(
        {"bob_initial": (), "send_to_bob": ()},
        "Bob holds nothing at t1; there is no ciphertext to evaluate",
        id="bob-holds-nothing",
    ),
    pytest.param(
        {"return_to_alice": ()}, "return_to_alice is empty; there is no message", id="no-message"
    ),
    pytest.param(
        {"return_to_alice": ("hold",)},
        "return_to_alice must be registers Bob holds at t1",
        id="return-not-bobs",
    ),
    pytest.param(
        {"output_label": "input"},
        "output register 'input' is not with Alice at t2",
        id="output-not-alices",
    ),
]


@pytest.mark.parametrize("change, message", _SCHEME_REFUSALS)
def test_scheme_refuses_an_inconsistent_wiring(change, message):
    scheme = build_tag_evaluate_scheme(1, ("I", "X"))
    with pytest.raises(ValueError, match=f"^{message}"):
        dataclasses.replace(scheme, **change)


# One ket rule, at QOTP n=2 (d = 4): rho is the pure 2 x 2 density matrix of
# (|0> + i|1>)/sqrt(2), whose Frobenius norm is 1, so only its shape is wrong.
_V = np.array([1, 1j]) / np.sqrt(2)
_E0 = basis_ket(4, 0)
_NOT_ONE_KET = [
    pytest.param(np.outer(_V, _V.conj()), "shape mismatch", id="density-matrix"),
    pytest.param(_E0[:, None], "shape mismatch", id="column"),
    pytest.param(basis_ket(2, 0), "shape mismatch", id="wrong-dimension"),
    pytest.param(np.array([np.nan, 0, 0, 0]), "non-finite amplitudes", id="nan"),
    pytest.param(2 * _E0, r"norms \[2.0\] are not all 1", id="non-unit"),
]


@functools.cache
def _qotp2():
    return build_qotp_scheme(2)


@functools.cache
def _data_dim_4_localisation():
    problem = build_constructed_secure_problem((4, 2, 2), 3)
    return problem, localise(problem)


_ONE_KET_ENTRY_POINTS = {
    "run_pipeline": lambda psi: run_pipeline(_qotp2(), "X.I", psi),
    "check_theorem1": lambda psi: check_theorem1(_qotp2(), psi),
    "output_ket": lambda psi: _data_dim_4_localisation()[0].output_ket(psi),
    "retained_reduced": lambda psi: _data_dim_4_localisation()[0].retained_reduced(psi),
    "reconstruct": lambda psi: _data_dim_4_localisation()[1].reconstruct(psi),
    "fidelity_pure": lambda psi: fidelity_pure(psi, _E0),
    "check_no_programming": lambda psi: check_no_programming(*build_controlled_flip_gate(1), [psi]),
    "assemble_ket": lambda psi: assemble_ket(Layout((("a", 4),)), [(("a",), psi)]),
    "DensityOp.from_ket": lambda psi: DensityOp.from_ket(Layout((("a", 4),)), psi),
}


@pytest.mark.parametrize("psi, message", _NOT_ONE_KET)
@pytest.mark.parametrize("entry", sorted(_ONE_KET_ENTRY_POINTS))
def test_one_ket_entry_points_refuse_all_but_a_unit_ket_of_their_dimension(entry, psi, message):
    with pytest.raises(ValueError, match=message):
        _ONE_KET_ENTRY_POINTS[entry](psi)
    _ONE_KET_ENTRY_POINTS[entry](_E0)  # the valid ket passes


@pytest.mark.parametrize("psi, message", [p for p in _NOT_ONE_KET if p.id != "wrong-dimension"])
def test_register_state_refuses_anything_but_one_unit_ket(psi, message):
    # Its dimension is the scheme's to check: see test_scheme_refuses_an_inconsistent_wiring.
    with pytest.raises(ValueError, match=message):
        RegisterState(("k",), psi)


def test_check_theorem1_validates_its_plaintext_before_its_preconditions():
    # identity(1) fails security, so a non-finite plaintext of the wrong
    # dimension and norm used to get an inapplicable verdict.
    with pytest.raises(ValueError, match="plaintext: shape mismatch"):
        check_theorem1(build_identity_scheme(1), [np.nan, 7.0, 3.0])


def test_evolve_still_takes_a_batch_and_a_column_is_a_batch_of_one():
    scheme = _qotp2()
    plaintexts = np.stack([random_ket(4, seed) for seed in range(3)], axis=1)
    batch = evolve(scheme, ("X.I",), plaintexts)
    one = evolve(scheme, ("X.I",), plaintexts[:, :1])
    assert [k.shape[-1] for k in batch] == [3, 3, 3] and [k.shape[-1] for k in one] == [1, 1, 1]
    for a, b in zip(batch, one, strict=True):
        np.testing.assert_allclose(a[..., :1], b, rtol=0, atol=1e-15)
    trace = run_pipeline(scheme, "X.I", plaintexts[:, 0])
    np.testing.assert_allclose(trace.ket_final, one[2][:, 0, 0], rtol=0, atol=1e-15)
