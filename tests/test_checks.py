import dataclasses
import math

import numpy as np
import pytest

import qhekit
from qhekit.catalog import (
    CatalogEntry,
    build_controlled_flip_gate,
    build_identity_scheme,
    build_qotp_scheme,
    build_scheme,
    build_tag_evaluate_scheme,
    catalog,
    pauli_word_matrix,
)
from qhekit.checks import (
    INAPPLICABLE,
    PASS,
    FAIL,
    REASON_MESSAGE_CORRELATED,
    REASON_SECURITY_FAILED,
    audit_dimension,
    audit_reversible_classical,
    check_completeness,
    check_no_programming,
    check_security,
    check_theorem1,
    qubits_for_set,
)
from qhekit.layout import Layout
from qhekit.linalg import basis_ket, haar_ket, kron, random_unitary, trace_distance
from qhekit.localiser import probe_labels, probe_states
from qhekit.qinfo import product_deviation_from_ket
from qhekit.scheme import Evaluation, FootprintOp, run_pipeline
from qhekit.tolerances import DEFAULT_TOLERANCES


def test_security_identity_scheme_fails_maximally():
    report = check_security(build_identity_scheme(1))
    assert report.verdict == FAIL
    assert report.worst_metric >= 1 - 1e-10


def test_security_qotp_passes_with_maximally_mixed_ciphertext():
    scheme = build_qotp_scheme(1)
    report = check_security(scheme)
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-10
    from qhekit.localiser import probe_states

    for probe in probe_states(2):
        np.testing.assert_allclose(scheme.ciphertext(probe).matrix, np.eye(2) / 2, atol=1e-10)


def test_security_tag_evaluate_passes():
    report = check_security(build_tag_evaluate_scheme(1, ("I", "X", "Z")))
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_security_verdict_is_probe_basis_independent(seed):
    rotation = random_unitary(2, seed)
    for scheme, expected in (
        (build_qotp_scheme(1), PASS),
        (build_identity_scheme(1), FAIL),
    ):
        assert check_security(scheme, probe_rotation=rotation).verdict == expected


def test_completeness_identity_scheme_exact():
    report = check_completeness(build_identity_scheme(1))
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-12


def test_completeness_qotp_all_flip_words():
    report = check_completeness(build_qotp_scheme(1))
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-9
    assert len(report.cases) == 4 * (4 + 10)  # 4 circuits x (probes + haar draws)


def test_completeness_fails_for_unmatched_evaluation():
    # Adding a Hadamard evaluated in the clear breaks the pad bookkeeping:
    # the decryption key no longer matches, and psi = |0> comes back as I/2.
    scheme = build_qotp_scheme(1)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    extended = dataclasses.replace(
        scheme,
        evaluations=scheme.evaluations
        + (Evaluation("H", FootprintOp(("input",), hadamard), hadamard),),
    )
    report = check_completeness(extended)
    assert report.verdict == FAIL
    metrics = dict(report.cases)
    assert metrics["H/basis-0"] >= 0.5 - 1e-9
    # direct simulation oracle: the decrypted output for |0> is I/2, so the
    # fidelity with H|0> is exactly one half
    from qhekit.scheme import run_pipeline

    trace = run_pipeline(extended, "H", basis_ket(2, 0))
    target = hadamard @ basis_ket(2, 0)
    fid = float(np.real(np.vdot(target, trace.output.matrix @ target)))
    assert abs(fid - 0.5) <= 1e-9
    np.testing.assert_allclose(trace.output.matrix, np.eye(2) / 2, atol=1e-9)


def test_theorem1_tag_evaluate_passes_with_zero_overlaps():
    report = check_theorem1(build_tag_evaluate_scheme(1, ("I", "X", "Z")), basis_ket(2, 0))
    assert report.verdict == PASS
    overlaps = [metric for case, metric in report.cases if case.startswith("overlap/")]
    assert overlaps and max(overlaps) <= 1e-10


def test_theorem1_qotp_inapplicable_with_product_deviation():
    report = check_theorem1(build_qotp_scheme(1), basis_ket(2, 0))
    assert report.verdict == INAPPLICABLE
    assert report.reason == REASON_MESSAGE_CORRELATED
    deviations = [metric for case, metric in report.cases if case.startswith("product-form/")]
    assert deviations and max(deviations) > 0.5  # the message is key-correlated


def test_theorem1_gated_by_security():
    report = check_theorem1(build_identity_scheme(1), basis_ket(2, 0))
    assert report.verdict == INAPPLICABLE
    assert report.reason == REASON_SECURITY_FAILED


def test_no_programming_textbook_controlled_not():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    layout = Layout((("program", 2), ("data", 2)))
    report = check_no_programming(cnot, layout, [basis_ket(2, 0), basis_ket(2, 1)])
    assert report.verdict == PASS
    overlaps = [m for c, m in report.cases if c.startswith("overlap/")]
    assert overlaps == [pytest.approx(0.0, abs=1e-12)]


def test_no_programming_flags_superposed_program():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    layout = Layout((("program", 2), ("data", 2)))
    plus = np.array([1, 1]) / np.sqrt(2)
    report = check_no_programming(cnot, layout, [basis_ket(2, 0), plus])
    flagged = [c for c, _ in report.cases if c == "program-1/non-deterministic"]
    assert flagged
    # The sound program is unaffected and no orthogonality pair is asserted.
    assert not [c for c, _ in report.cases if c.startswith("overlap/")]
    assert report.verdict == PASS


def test_no_programming_controlled_flip_array():
    gate, layout = build_controlled_flip_gate(1)
    programs = [basis_ket(4, k) for k in range(4)]
    report = check_no_programming(gate, layout, programs)
    assert report.verdict == PASS
    overlaps = [m for c, m in report.cases if c.startswith("overlap/")]
    assert len(overlaps) == 6 and max(overlaps) <= 1e-12


def test_no_programming_extracts_the_selected_unitaries():
    gate, layout = build_controlled_flip_gate(1)
    words = ("I", "X", "Z", "XZ")
    # Re-derive the selected operations independently and compare per program.
    for k, word in enumerate(words):
        out = (gate @ kron(basis_ket(4, k), basis_ket(2, 0))).reshape(4, 2)
        np.testing.assert_allclose(out[k], pauli_word_matrix(word)[:, 0], atol=1e-12)


def test_no_programming_same_unitary_needs_no_orthogonality():
    # Program register is inert: every program selects the same flip.
    gate = kron(np.eye(2), pauli_word_matrix("X"))
    layout = Layout((("program", 2), ("data", 2)))
    plus = np.array([1, 1]) / np.sqrt(2)
    report = check_no_programming(gate, layout, [basis_ket(2, 0), plus])
    assert report.verdict == PASS
    assert not [c for c, _ in report.cases if c.startswith("overlap/")]
    assert len([c for c, _ in report.cases if c.endswith("determinism")]) == 2


def test_qubits_for_set_exact_values():
    assert qubits_for_set(1) == 0
    assert qubits_for_set(2) == 1
    assert qubits_for_set(4) == 2
    assert qubits_for_set(5) == 3
    assert audit_dimension(4).qubits_required == 2


def test_audit_factorial_of_four_states():
    audit = audit_reversible_classical(2)
    assert audit.set_size == math.factorial(4) == 24
    assert audit.state_count == 4
    assert audit.qubits_required == 5  # 2^4 < 24 <= 2^5, exact
    assert audit.log2_floor == 4 and audit.log2_ceil == 5
    assert audit.exponential_bound_holds is True  # log2(24) >= 4


def test_audit_twenty_four_factorial_exact_bits():
    big = math.factorial(24)
    q = qubits_for_set(big)
    # independent oracle: 2^(q-1) < 24! <= 2^q, all in exact integers
    assert 2 ** (q - 1) < big <= 2**q
    assert q == 80


def test_audit_exponential_bound_exception_at_one_bit():
    audit = audit_reversible_classical(1)
    assert audit.set_size == 2
    assert audit.log2_floor == 1 and audit.log2_ceil == 1
    assert audit.exponential_bound_holds is False  # log2(2) = 1 < 2^1


@pytest.mark.parametrize("n", range(2, 7))
def test_audit_exponential_bound_holds_above_one_bit(n):
    audit = audit_reversible_classical(n)
    assert audit.exponential_bound_holds is True
    assert audit.set_size == math.factorial(2**n)
    assert audit.set_size >= 2 ** (2**n)


def test_audit_rejects_oversize():
    with pytest.raises(ValueError, match="1..6"):
        audit_reversible_classical(7)


def _per_plaintext_security(scheme):
    # Reference: one ciphertext DensityOp per probe, one trace distance per pair.
    d = scheme.input_dim
    states = [scheme.ciphertext(p).matrix for p in probe_states(d)]
    labels = probe_labels(d)
    return [
        (f"{labels[i]}|{labels[j]}", trace_distance(states[i], states[j]))
        for i in range(len(states))
        for j in range(i + 1, len(states))
    ]


def _per_plaintext_completeness(scheme):
    # Reference: one pipeline run per (circuit, plaintext), the Haar
    # plaintexts drawn exactly as check_completeness draws them.
    d = scheme.input_dim
    rest = tuple(l for l in scheme.alice_t2 if l != scheme.output_label)
    cases = []
    for index, ev in enumerate(scheme.evaluations):
        rng = np.random.default_rng([0xC0DE, index])
        plaintexts = list(zip(probe_labels(d), probe_states(d)))
        plaintexts += [(f"haar-{i}", haar_ket(rng, d)) for i in range(10)]
        for name, psi in plaintexts:
            trace = run_pipeline(scheme, ev.circuit_id, psi)
            target = ev.target @ psi
            metric = 1.0 - float(np.real(np.vdot(target, trace.output.matrix @ target)))
            if rest:
                metric = max(
                    metric,
                    product_deviation_from_ket(
                        trace.ket_final, scheme.layout, [scheme.output_label], rest
                    ),
                )
            cases.append((f"{ev.circuit_id}/{name}", metric))
    return cases


def _assert_cases_match(report, reference, tol):
    assert [case_id for case_id, _ in report.cases] == [case_id for case_id, _ in reference]
    for (_, got), (_, want) in zip(report.cases, reference):
        assert abs(got - want) <= 1e-12
    worst = max(metric for _, metric in reference)
    assert abs(report.worst_metric - worst) <= 1e-12
    assert report.verdict == (PASS if worst <= tol else FAIL)


@pytest.mark.parametrize(
    "entry", [*catalog(), CatalogEntry("qotp-2", "qotp", {"n": 2}, {})], ids=lambda e: e.name
)
def test_batched_checkers_match_per_plaintext_reference(entry):
    scheme = build_scheme(entry.builder, **entry.params)
    tol = DEFAULT_TOLERANCES.equality
    security = check_security(scheme)
    _assert_cases_match(security, _per_plaintext_security(scheme), tol)
    completeness = check_completeness(scheme)
    _assert_cases_match(completeness, _per_plaintext_completeness(scheme), tol)
    for checker, report in (("security", security), ("completeness", completeness)):
        if checker in entry.expected:
            assert report.verdict == entry.expected[checker]


def test_completeness_runs_one_batch_per_circuit(monkeypatch):
    scheme = build_qotp_scheme(2)
    calls = {"run_pipeline": 0, "apply_operator": 0, "DensityOp": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in (qhekit.layout, qhekit.scheme, qhekit.checks):
        for name in ("run_pipeline", "apply_operator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    density_op = qhekit.qinfo.DensityOp
    post_init = counting("DensityOp", density_op.__post_init__)
    monkeypatch.setattr(density_op, "__post_init__", post_init)

    report = check_completeness(scheme)
    assert report.verdict == PASS
    assert len(report.cases) == len(scheme.evaluations) * (16 + 10)
    assert calls["run_pipeline"] == 0
    assert calls["DensityOp"] == 0
    # Evaluation and decryption per circuit, plus one encryption of the
    # basis plaintexts for the scheme's cached encryption isometry.
    assert calls["apply_operator"] <= 2 * len(scheme.evaluations) + 1
