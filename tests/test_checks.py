import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qhekit
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
)
from qhekit.checks import (
    CHECK_NAMES,
    INAPPLICABLE,
    PASS,
    FAIL,
    REASON_COMPLETENESS_FAILED,
    REASON_MESSAGE_CORRELATED,
    REASON_SECURITY_FAILED,
    Report,
    audit_dimension,
    audit_reversible_classical,
    check_completeness,
    check_no_programming,
    check_security,
    check_theorem1,
    qubits_for_set,
    run_checks,
)
from qhekit.layout import Layout, reduced_from_ket
from qhekit.linalg import (
    basis_ket,
    dagger,
    haar_ket,
    kron,
    random_ket,
    random_unitary,
    trace_distance,
    unitaries_equal_up_to_phase,
)
from qhekit.localiser import LeakageDetected, check_zero_leakage, complete_orthonormal, localise
from qhekit.qinfo import plaintext_dependence, product_deviation_from_ket
from qhekit.scheme import (
    Evaluation,
    FootprintOp,
    QheScheme,
    RegisterState,
    localisation_problem_at_t1,
    run_pipeline,
)
from qhekit.tolerances import EQUALITY_TOL
from qhekit_reference import (
    ciphertext,
    message_overlap,
    norm_completeness_deltas,
    probe_states,
    record_decompositions,
    remote_reduced,
)


def test_security_identity_scheme_fails_maximally():
    report = check_security(build_identity_scheme(1))
    assert report.verdict == FAIL
    assert report.worst_metric >= 1 - 1e-10


def test_security_qotp_passes_with_maximally_mixed_ciphertext():
    scheme = build_qotp_scheme(1)
    report = check_security(scheme)
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-10
    for probe in probe_states(2):
        np.testing.assert_allclose(ciphertext(scheme, probe).matrix, np.eye(2) / 2, atol=1e-10)


def test_security_tag_evaluate_passes():
    report = check_security(build_tag_evaluate_scheme(1, ("I", "X", "Z")))
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_security_verdict_is_probe_basis_independent(seed):
    # The certificate taken in a rotated plaintext basis gives the same verdict.
    rotation = random_unitary(2, seed)
    for scheme, expected in (
        (build_qotp_scheme(1), PASS),
        (build_identity_scheme(1), FAIL),
    ):
        eps, _ = plaintext_dependence(
            scheme.encryption_isometry @ rotation, scheme.layout, scheme.bob_t1
        )
        rotated = PASS if eps.max() <= EQUALITY_TOL else FAIL
        assert rotated == check_security(scheme).verdict == expected


def test_completeness_identity_scheme_exact():
    report = check_completeness(build_identity_scheme(1))
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-12


def test_completeness_qotp_all_flip_words():
    report = check_completeness(build_qotp_scheme(1))
    assert report.verdict == PASS
    assert report.worst_metric <= 1e-9
    # One certificate per circuit covers every plaintext.
    assert [case for case, _ in report.cases] == [f"{w}/certificate" for w in pauli_words(1)]


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
    # The infidelity at |0> is 0.5 (below), and 1 - F <= delta^2.
    assert metrics["H/certificate"] >= math.sqrt(0.5) - 1e-9
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
    # The product-form deviations decided the verdict, so their threshold is named.
    tol = EQUALITY_TOL
    assert report.tolerances == {"product-form": tol, "message-overlap": tol}


def test_theorem1_gated_by_security():
    report = check_theorem1(build_identity_scheme(1), basis_ket(2, 0))
    assert report.verdict == INAPPLICABLE
    assert report.reason == REASON_SECURITY_FAILED


def test_theorem1_reports_failed_security_as_its_own_row():
    security = check_security(build_identity_scheme(2))
    report = check_theorem1(build_identity_scheme(2), basis_ket(4, 0), security_report=security)
    assert (report.verdict, report.reason) == (INAPPLICABLE, REASON_SECURITY_FAILED)
    # Security's metric is a case row; theorem 1 measured nothing.
    assert report.cases == (("precondition/security", security.worst_metric),)
    assert security.worst_metric > 1.0
    assert report.worst_metric == 0.0
    tol = EQUALITY_TOL
    assert report.tolerances == {"product-form": tol, "message-overlap": tol}


def test_theorem1_reports_failed_completeness_as_its_own_row():
    completeness = Report("completeness", FAIL, 0.75, (("X/certificate", 0.75),), {"completeness": 1e-9})
    report = check_theorem1(
        build_qotp_scheme(1),
        basis_ket(2, 0),
        security_report=Report("security", PASS, 0.0, ()),
        completeness_report=completeness,
    )
    assert (report.verdict, report.reason) == (INAPPLICABLE, REASON_COMPLETENESS_FAILED)
    assert report.cases == (("precondition/completeness", 0.75),)
    assert report.worst_metric == 0.0


_NOT_POSITIVE = [0.0, -1.0, float("nan")]
_TOL_CALLS = {
    "security": check_security,
    "completeness": check_completeness,
    "theorem1": lambda scheme, tol: check_theorem1(scheme, basis_ket(2, 0), tol),
}


@pytest.mark.parametrize("value", _NOT_POSITIVE)
@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
def test_checks_refuse_a_tolerance_that_is_not_positive(name, value):
    # 0 would pass only an exact metric, and a negative or NaN tol fails
    # even a secure, complete scheme.
    with pytest.raises(ValueError, match=f"tolerance '{name}' must be positive, got {value}"):
        _TOL_CALLS[name](build_qotp_scheme(1), value)


@pytest.mark.parametrize("value", _NOT_POSITIVE)
@pytest.mark.parametrize("name", CHECK_NAMES)
def test_run_checks_refuses_a_tolerance_that_is_not_positive(name, value):
    with pytest.raises(ValueError, match=f"tolerance '{name}' must be positive, got {value}"):
        run_checks(build_tag_evaluate_scheme(1, ("I", "X", "Z")), CHECK_NAMES, {name: value})


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


def test_no_programming_determinism_is_the_worst_case_over_all_inputs():
    # Program |0> selects W = I - (1 - sqrt(1 - eps))|-><-|, leaking weight eps
    # into program |1> on data input |-> only: every probe state sees at most
    # eps / 2, so only the worst case over all unit inputs exceeds tol.
    eps = 1.5e-9
    minus = np.array([1, -1]) / np.sqrt(2)
    w = np.eye(2) - (1 - np.sqrt(1 - eps)) * np.outer(minus, minus)
    k = np.sqrt(eps) * np.outer(basis_ket(2, 1), minus)
    gate = complete_orthonormal(np.vstack([w, k]))
    layout = Layout((("program", 2), ("data", 2)))
    report = check_no_programming(gate, layout, [basis_ket(2, 0)])
    (case, metric), = report.cases
    assert case == "program-0/non-deterministic"
    assert abs(metric - eps) <= 1e-15


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


@pytest.mark.parametrize("set_size", [2.5, 4.0, "4"])
def test_audit_refuses_a_non_integer_set_size(set_size):
    for audit in (qubits_for_set, audit_dimension):
        with pytest.raises(TypeError, match=f"set size {set_size!r} is not an integer"):
            audit(set_size)


def test_audit_reads_numpy_integers_as_ints():
    audit = audit_dimension(np.int64(5))
    assert audit == audit_dimension(5) and type(audit.set_size) is int


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
    states = [ciphertext(scheme, p).matrix for p in probe_states(scheme.input_dim)]
    return [
        (f"{i}|{j}", trace_distance(states[i], states[j]))
        for i in range(len(states))
        for j in range(i + 1, len(states))
    ]


def _assert_dependence_bounds(eps, distances, d):
    # plaintext_dependence's docstring: every probe-pair trace distance is at
    # most d max eps, and every eps_jk at most 4 times the largest of them.
    worst = max(distances, default=0.0)
    assert worst <= d * np.max(eps) + 1e-12
    assert np.max(eps) <= 4 * worst + 1e-12


def _per_plaintext_completeness(scheme):
    # Reference: the sampled check the certificate replaced.  One pipeline
    # run per (circuit, plaintext) over the probes and 10 seeded Haar
    # plaintexts; the metric is the output's infidelity with the target, or
    # its product deviation from Alice's other registers if larger.
    d = scheme.input_dim
    rest = tuple(l for l in scheme.alice_t2 if l != scheme.output_label)
    cases = []
    for index, ev in enumerate(scheme.evaluations):
        rng = np.random.default_rng([0xC0DE, index])
        plaintexts = [(f"probe-{i}", p) for i, p in enumerate(probe_states(d))]
        plaintexts += [(f"haar-{i}", haar_ket(rng, d)) for i in range(10)]
        for name, psi in plaintexts:
            infidelity, deviation = _sampled_metrics(scheme, ev, psi, rest)
            cases.append((f"{ev.circuit_id}/{name}", max(infidelity, deviation)))
    return cases


def _sampled_metrics(scheme, ev, psi, rest):
    trace = run_pipeline(scheme, ev.circuit_id, psi)
    target = ev.target @ psi
    infidelity = 1.0 - float(np.real(np.vdot(target, trace.output.matrix @ target)))
    deviation = 0.0
    if rest:
        deviation = product_deviation_from_ket(
            trace.ket_final, scheme.layout, [scheme.output_label], rest
        )
    return infidelity, deviation


def _completeness_bound(delta):
    # check_completeness's docstring: 1 - F <= delta^2, deviation <= 3 delta.
    return max(delta**2, 3.0 * delta)


def _assert_security_bounds_probe_pairs(report, reference, d, tol):
    # One row per block j <= k; the probe-pair reference and the blocks bound
    # each other, and the verdicts agree.
    blocks = [f"block-{j}-{k}" for j in range(d) for k in range(j, d)]
    assert [case_id for case_id, _ in report.cases] == blocks
    distances = [metric for _, metric in reference]
    _assert_dependence_bounds(np.array([metric for _, metric in report.cases]), distances, d)
    assert report.verdict == (PASS if max(distances, default=0.0) <= tol else FAIL)


def _assert_certificate_bounds_samples(scheme, report, tol):
    # One certificate per circuit; every sampled metric of that circuit is
    # within the bound its certificate implies, and the verdicts agree.
    assert [case for case, _ in report.cases] == [f"{c}/certificate" for c in scheme.circuit_ids]
    deltas = dict(report.cases)
    sampled = _per_plaintext_completeness(scheme)
    for case_id, metric in sampled:
        circuit = case_id.rsplit("/", 1)[0]
        assert metric <= _completeness_bound(deltas[f"{circuit}/certificate"]) + 1e-12
    worst = max(metric for _, metric in sampled)
    assert report.verdict == (PASS if worst <= tol else FAIL)


@pytest.mark.parametrize(
    "entry", [*catalog(), CatalogEntry("qotp-2", "qotp", {"n": 2}, {})], ids=lambda e: e.name
)
def test_batched_checkers_match_per_plaintext_reference(entry):
    scheme = build_scheme(entry.builder, **entry.params)
    tol = EQUALITY_TOL
    security = check_security(scheme)
    reference = _per_plaintext_security(scheme)
    _assert_security_bounds_probe_pairs(security, reference, scheme.input_dim, tol)
    completeness = check_completeness(scheme)
    _assert_certificate_bounds_samples(scheme, completeness, tol)
    for checker, report in (("security", security), ("completeness", completeness)):
        if checker in entry.expected:
            assert report.verdict == entry.expected[checker]


def _control_scheme(evaluate, decrypt, target, bob_ket=basis_ket(2, 0)):
    """One circuit over (input, anc, bob) qubits: Alice keeps anc, Bob starts
    with bob, and the input makes the round trip through Bob's evaluation on
    (input, bob) and Alice's decryption on (input, anc)."""
    return QheScheme(
        name="control",
        layout=Layout((("input", 2), ("anc", 2), ("bob", 2))),
        input_label="input",
        output_label="input",
        bob_initial=("bob",),
        fixed_states=(
            RegisterState(("anc",), basis_ket(2, 0)),
            RegisterState(("bob",), bob_ket),
        ),
        encrypt_op=FootprintOp(("input",), np.eye(2)),
        decrypt_op=FootprintOp(("input", "anc"), decrypt),
        evaluations=(Evaluation("c", FootprintOp(("input", "bob"), evaluate), target),),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )


def _controlled(u):
    # u on the second qubit when the first is |1>.
    return np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), u]])


def _wrong_target(target):
    return _control_scheme(np.eye(4), np.eye(4), target)


def _entangled_ancilla(u):
    return _control_scheme(np.eye(4), _controlled(u), np.eye(2))


def _input_dependent_residual(theta, bob_ket):
    phase = np.diag([1.0, np.exp(1j * theta)])
    return _control_scheme(_controlled(phase), np.eye(4), np.eye(2), bob_ket)


NEGATIVE_CONTROLS = {
    "wrong-target": lambda: _wrong_target(pauli_word_matrix("X")),
    "entangled-ancilla": lambda: _entangled_ancilla(pauli_word_matrix("X")),
    # r_1 = -r_0: Bob's register picks up a relative phase.
    "residual-phase": lambda: _input_dependent_residual(np.pi, basis_ket(2, 1)),
    # r_1 = |->, r_0 = |+>: Bob's register ends in an input-dependent state.
    "residual-state": lambda: _input_dependent_residual(np.pi, np.ones(2) / np.sqrt(2)),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_controls_fail_both_routes(name):
    scheme = NEGATIVE_CONTROLS[name]()
    tol = EQUALITY_TOL
    report = check_completeness(scheme)
    assert report.verdict == FAIL
    assert max(metric for _, metric in _per_plaintext_completeness(scheme)) > tol
    _assert_certificate_bounds_samples(scheme, report, tol)


def _coherence_leak_scheme():
    """Encryption puts a retained ancilla in |+> by H, then CNOTs it onto the
    input, which goes to Bob.  Both basis ciphertexts are I/2, yet
    sigma_01 = X/2: only an off-diagonal block sees the plaintext."""
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    encrypt = _controlled(pauli_word_matrix("X")) @ kron(hadamard, np.eye(2))
    return QheScheme(
        name="coherence-leak",
        layout=Layout((("input", 2), ("anc", 2))),
        input_label="input",
        output_label="input",
        bob_initial=(),
        fixed_states=(RegisterState(("anc",), basis_ket(2, 0)),),
        encrypt_op=FootprintOp(("anc", "input"), encrypt),
        decrypt_op=FootprintOp(("anc", "input"), dagger(encrypt)),
        evaluations=(Evaluation("I", FootprintOp(("input",), np.eye(2)), np.eye(2)),),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )


def test_security_catches_a_leak_in_a_coherence_only():
    scheme = _coherence_leak_scheme()
    for j in range(2):
        state = ciphertext(scheme, basis_ket(2, j)).matrix
        np.testing.assert_allclose(state, np.eye(2) / 2, rtol=0, atol=1e-12)
    report = check_security(scheme)
    assert report.verdict == FAIL
    blocks = dict(report.cases)
    assert abs(blocks["block-0-1"] - 1.0) <= 1e-12
    assert blocks["block-0-0"] <= 1e-12 and blocks["block-1-1"] <= 1e-12


def test_zero_leakage_catches_a_leak_in_a_coherence_only():
    problem = localisation_problem_at_t1(_coherence_leak_scheme())
    ok, deviation = check_zero_leakage(problem)
    assert not ok and abs(deviation - 1.0) <= 1e-12
    with pytest.raises(LeakageDetected):
        localise(problem)


_CERTIFIED = [*catalog(), CatalogEntry("qotp-2", "qotp", {"n": 2}, {})]
_seeds = st.integers(0, 2**32 - 1)
_schemes = st.one_of(
    st.sampled_from(_CERTIFIED).map(lambda e: build_scheme(e.builder, **e.params)),
    _seeds.map(lambda seed: _wrong_target(random_unitary(2, seed))),
    _seeds.map(lambda seed: _entangled_ancilla(random_unitary(2, seed))),
    st.builds(
        lambda theta, seed: _input_dependent_residual(theta, random_ket(2, seed)),
        st.floats(0.0, 2 * np.pi),
        _seeds,
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_certificate_bounds_every_plaintext(data):
    scheme = data.draw(_schemes)
    d = scheme.input_dim
    amplitudes = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d)))
    psi = amplitudes[:d] + 1j * amplitudes[d:]
    assume(np.linalg.norm(psi) > 1e-3)
    psi = psi / np.linalg.norm(psi)
    rest = tuple(l for l in scheme.alice_t2 if l != scheme.output_label)
    report = check_completeness(scheme)
    for ev, (_, delta) in zip(scheme.evaluations, report.cases):
        infidelity, deviation = _sampled_metrics(scheme, ev, psi, rest)
        assert infidelity <= delta + 1e-12  # c1 = 1
        assert infidelity <= delta**2 + 1e-12
        assert deviation <= 3 * delta + 1e-12  # c2 = 3


def _count_calls(monkeypatch, names):
    """Count calls to the named functions wherever the package bound them,
    and DensityOp constructions; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    calls["DensityOp"] = 0

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in (qhekit.linalg, qhekit.layout, qhekit.qinfo, qhekit.scheme, qhekit.checks):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    density_op = qhekit.qinfo.DensityOp
    monkeypatch.setattr(density_op, "__post_init__", counting("DensityOp", density_op.__post_init__))
    return calls


def _record_evolve(monkeypatch, name="evolve"):
    """Record (circuit_ids, plaintext shape) of each call checks makes to
    the named evolution function (evolve or encrypt_and_evaluate)."""
    evolved = []
    original = getattr(qhekit.checks, name)

    def recording(scheme, circuit_ids, plaintexts):
        evolved.append((circuit_ids, np.shape(plaintexts)))
        return original(scheme, circuit_ids, plaintexts)

    monkeypatch.setattr(qhekit.checks, name, recording)
    return evolved


def test_completeness_runs_one_batch_per_circuit(monkeypatch):
    scheme = build_qotp_scheme(2)
    calls = _count_calls(monkeypatch, ("run_pipeline", "apply_operator", "product_deviation_from_ket"))
    evolved = _record_evolve(monkeypatch)

    report = check_completeness(scheme)
    assert report.verdict == PASS
    assert len(report.cases) == len(scheme.evaluations)
    d = scheme.input_dim
    # Every circuit in one evolve call, on the basis plaintexts.
    assert evolved == [(scheme.circuit_ids, (d, d))]
    assert calls["run_pipeline"] == 0
    assert calls["DensityOp"] == 0
    assert calls["product_deviation_from_ket"] == 0
    # One evaluation per circuit, one decryption of every circuit's kets,
    # plus one encryption of the basis plaintexts for the scheme's cached
    # encryption isometry.
    assert calls["apply_operator"] <= len(scheme.evaluations) + 2


@pytest.mark.parametrize("name", ["tag-evaluate-2q", "qotp-2"])
def test_completeness_chunks_match_one_batch(monkeypatch, name):
    scheme = _scheme(name)
    whole = check_completeness(scheme)
    # A budget below one circuit's kets: every circuit is its own chunk.
    monkeypatch.setattr(qhekit.checks, "_COMPLETENESS_CHUNK_BYTES", 1)
    evolved = _record_evolve(monkeypatch)
    chunked = check_completeness(scheme)
    d = scheme.input_dim
    assert evolved == [((cid,), (d, d)) for cid in scheme.circuit_ids]
    assert chunked.verdict == whole.verdict == PASS
    assert [c for c, _ in chunked.cases] == [c for c, _ in whole.cases]
    for (_, got), (_, want) in zip(chunked.cases, whole.cases):
        assert abs(got - want) <= 1e-12
    assert abs(chunked.worst_metric - whole.worst_metric) <= 1e-12


@pytest.mark.parametrize("name", [*(e.name for e in catalog()), "qotp-2", "wrong-target"])
def test_completeness_matches_the_full_svd_norm(name):
    # delta from the R of each circuit's QR equals ||R - I ⊗ r||_op by a
    # full SVD, on passing schemes and where delta is O(1).
    scheme = NEGATIVE_CONTROLS[name]() if name == "wrong-target" else _scheme(name)
    report = check_completeness(scheme)
    reference = norm_completeness_deltas(scheme)
    assert [c for c, _ in report.cases] == [f"{cid}/certificate" for cid in scheme.circuit_ids]
    np.testing.assert_allclose([m for _, m in report.cases], reference, rtol=0, atol=1e-12)
    if name == "wrong-target":
        assert reference.max() > 0.5


def test_run_checks_decomposes_only_short_sides(monkeypatch):
    # Every QR is R-only, and every SVD and eigenproblem gets a small
    # matrix: the tall factors (1024 rows for completeness, 256 for the
    # product test) reach LAPACK only as the input of an R-only QR.
    scheme = build_qotp_scheme(2)
    calls = record_decompositions(monkeypatch)
    run_checks(scheme)
    assert {name for name, _, _ in calls} >= {"qr", "svd", "eigh", "eigvalsh"}
    assert all(mode == "r" for name, _, mode in calls if name == "qr")
    assert max(shape[-2] for name, shape, _ in calls if name != "qr") <= 64


@pytest.mark.parametrize("name", ["tag-evaluate-2q", "qotp-2"])
def test_theorem1_runs_one_batch_for_all_circuits(monkeypatch, name):
    scheme = _scheme(name)
    security, completeness = _preconditions(name)
    calls = _count_calls(
        monkeypatch, ("run_pipeline", "apply_operator", "product_deviation_from_ket", "eig_hermitian")
    )
    evolved = _record_evolve(monkeypatch)
    evaluated = _record_evolve(monkeypatch, "encrypt_and_evaluate")

    report = check_theorem1(
        scheme,
        basis_ket(scheme.input_dim, 0),
        security_report=security,
        completeness_report=completeness,
    )
    assert report.verdict == _THEOREM1_EXPECTED[name]
    # Every circuit in one call that stops at t2: nothing is decrypted.
    assert evaluated == [(scheme.circuit_ids, (scheme.input_dim,))]
    assert evolved == []
    assert calls["run_pipeline"] == 0
    assert calls["DensityOp"] == 0
    assert calls["product_deviation_from_ket"] == 1
    assert calls["eig_hermitian"] == 0
    # One evaluation per circuit, plus at most one encryption for the
    # scheme's cached encryption isometry.
    assert calls["apply_operator"] <= len(scheme.evaluations) + 1


_THEOREM1_EXPECTED = {"tag-evaluate-2q": PASS, "qotp-2": INAPPLICABLE}
_THEOREM1_ENTRIES = {e.name: e for e in (*catalog(), CatalogEntry("qotp-2", "qotp", {"n": 2}, {}))}


@functools.cache
def _scheme(name):
    entry = _THEOREM1_ENTRIES[name]
    return build_scheme(entry.builder, **entry.params)


@functools.cache
def _preconditions(name):
    return check_security(_scheme(name)), check_completeness(_scheme(name))


_SWEEP_DIMS = {
    build_constructed_secure_problem: ((2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8)),
    build_leaky_problem: ((2, 2, 2), (2, 4, 2), (2, 2, 8), (3, 2, 6)),
}


@functools.cache
def _scheme_dependence(name):
    # (eps, probe-pair trace distances, d), the distances by the per-plaintext route.
    scheme = _coherence_leak_scheme() if name == "coherence-leak" else _scheme(name)
    eps, _ = plaintext_dependence(scheme.encryption_isometry, scheme.layout, scheme.bob_t1)
    return eps, [metric for _, metric in _per_plaintext_security(scheme)], scheme.input_dim


def _problem_dependence(build, dims, seed):
    problem = build(dims, seed)
    eps, _ = plaintext_dependence(problem.isometry, problem.layout, [problem.remote_label])
    states = [remote_reduced(problem, p) for p in probe_states(problem.data_dim)]
    distances = [trace_distance(a, b) for i, a in enumerate(states) for b in states[i + 1 :]]
    return eps, distances, problem.data_dim


def _random_dependence(dims, keep_bits, d, seed):
    layout = Layout(tuple((f"r{i}", dim) for i, dim in enumerate(dims)))
    keep = [label for i, label in enumerate(layout.labels) if (keep_bits >> i) & 1] or ["r0"]
    d = min(d, layout.dim)
    w = random_unitary(layout.dim, seed)[:, :d]
    eps, _ = plaintext_dependence(w, layout, keep)
    states = [reduced_from_ket(w @ p, layout, keep) for p in probe_states(d)]
    distances = [trace_distance(a, b) for i, a in enumerate(states) for b in states[i + 1 :]]
    return eps, distances, d


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    case=st.one_of(
        st.sampled_from([*sorted(_THEOREM1_ENTRIES), "coherence-leak"]).map(_scheme_dependence),
        st.sampled_from(sorted(_SWEEP_DIMS, key=lambda b: b.__name__)).flatmap(
            lambda build: st.builds(
                _problem_dependence,
                st.just(build),
                st.sampled_from(_SWEEP_DIMS[build]),
                st.integers(0, 2**31 - 1),
            )
        ),
        st.builds(
            _random_dependence,
            st.lists(st.integers(2, 3), min_size=1, max_size=3),
            st.integers(1, 7),
            st.integers(1, 4),
            _seeds,
        ),
    )
)
def test_plaintext_dependence_and_probe_pairs_bound_each_other(case):
    _assert_dependence_bounds(*case)


def _per_circuit_theorem1(scheme, psi_in, security, completeness, tol):
    """Reference: one run_pipeline per circuit, one product_deviation_from_ket
    per circuit and a dense Tr(rho_a rho_b) per pair on the pipelines' rho_message.
    Returns (cases, verdict, reason) as check_theorem1 would report them."""
    if security.verdict != PASS:
        row = ("precondition/security", security.worst_metric)
        return [row], INAPPLICABLE, REASON_SECURITY_FAILED
    if completeness.verdict != PASS:
        row = ("precondition/completeness", completeness.worst_metric)
        return [row], INAPPLICABLE, REASON_COMPLETENESS_FAILED
    traces = {cid: run_pipeline(scheme, cid, psi_in) for cid in scheme.circuit_ids}
    retained = scheme.alice_t1
    cases = []
    for cid, trace in traces.items():
        deviation = 0.0
        if retained:
            deviation = product_deviation_from_ket(
                trace.ket_t2, scheme.layout, retained, scheme.return_to_alice
            )
        cases.append((f"product-form/{cid}", deviation))
    if max(metric for _, metric in cases) > tol:
        return cases, INAPPLICABLE, REASON_MESSAGE_CORRELATED
    worst = 0.0
    for i, a in enumerate(scheme.evaluations):
        for b in scheme.evaluations[i + 1 :]:
            if unitaries_equal_up_to_phase(a.target, b.target):
                continue
            overlap = message_overlap(
                traces[a.circuit_id].rho_message, traces[b.circuit_id].rho_message
            )
            cases.append((f"overlap/{a.circuit_id}|{b.circuit_id}", overlap))
            worst = max(worst, overlap)
    return cases, PASS if worst <= tol else FAIL, None


def _assert_theorem1_matches_reference(scheme, psi_in, security, completeness):
    tol = EQUALITY_TOL
    report = check_theorem1(
        scheme, psi_in, security_report=security, completeness_report=completeness
    )
    cases, verdict, reason = _per_circuit_theorem1(scheme, psi_in, security, completeness, tol)
    assert (report.verdict, report.reason) == (verdict, reason)
    assert [case_id for case_id, _ in report.cases] == [case_id for case_id, _ in cases]
    for (_, got), (_, want) in zip(report.cases, cases):
        assert abs(got - want) <= 1e-12
    return report


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(_THEOREM1_ENTRIES)), seed=_seeds)
def test_batched_theorem1_matches_per_circuit_reference(name, seed):
    scheme = _scheme(name)
    psi_in = random_ket(scheme.input_dim, seed)
    _assert_theorem1_matches_reference(scheme, psi_in, *_preconditions(name))


def _passed(kind):
    return Report(kind=kind, verdict=PASS, worst_metric=0.0, cases=())


@pytest.mark.parametrize("wrong", range(4))
def test_completeness_flags_only_the_circuit_with_a_wrong_target(wrong):
    # Circuit `wrong` asks for a Hadamard after its flip, which the scheme
    # does not apply; only that circuit's certificate may be nonzero.
    scheme = build_qotp_scheme(1)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    evaluations = list(scheme.evaluations)
    ev = evaluations[wrong]
    evaluations[wrong] = Evaluation(ev.circuit_id, ev.operator, hadamard @ ev.target)
    report = check_completeness(dataclasses.replace(scheme, evaluations=tuple(evaluations)))
    assert report.verdict == FAIL
    for k, (case_id, metric) in enumerate(report.cases):
        assert case_id == f"{scheme.circuit_ids[k]}/certificate"
        assert (metric > 0.5) if k == wrong else (metric <= 1e-12)


@pytest.mark.parametrize("copier, copied", [(1, 0), (3, 1), (2, 3)])
def test_theorem1_flags_only_the_pair_sharing_a_message(copier, copied):
    # Circuit `copier` writes circuit `copied`'s tag, so their messages are
    # the same basis state.  Theorem 1 rules out a complete scheme that does
    # this, so the completeness precondition is supplied to reach stage 2.
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z", "XZ"))
    evaluations = list(scheme.evaluations)
    evaluations[copier] = Evaluation(
        evaluations[copier].circuit_id, evaluations[copied].operator, evaluations[copier].target
    )
    variant = dataclasses.replace(scheme, evaluations=tuple(evaluations))
    psi_in = random_ket(2, 5)
    report = _assert_theorem1_matches_reference(
        variant, psi_in, check_security(variant), _passed("completeness")
    )
    assert report.verdict == FAIL
    ids = scheme.circuit_ids
    shared = {ids[copier], ids[copied]}
    for case_id, metric in report.cases:
        if not case_id.startswith("overlap/"):
            continue
        pair = set(case_id.removeprefix("overlap/").split("|"))
        assert abs(metric - 1.0) <= 1e-12 if pair == shared else metric <= 1e-12


def _graded_correlation_scheme():
    """A one-bit pad whose circuits leave the message correlated with Alice's
    key to different degrees: "keep" returns the padded bit, "swap" swaps it
    for Bob's fresh |0>, and "partial" applies exp(-i pi/6 SWAP) to the two."""
    flip = _controlled(pauli_word_matrix("X"))
    swap = np.eye(4)[[0, 2, 1, 3]]
    partial = np.cos(np.pi / 6) * np.eye(4) - 1j * np.sin(np.pi / 6) * swap
    return QheScheme(
        name="graded-correlation",
        layout=Layout((("input", 2), ("key", 2), ("bob", 2))),
        input_label="input",
        output_label="input",
        bob_initial=("bob",),
        fixed_states=(
            RegisterState(("key",), np.ones(2) / np.sqrt(2)),
            RegisterState(("bob",), basis_ket(2, 0)),
        ),
        encrypt_op=FootprintOp(("key", "input"), flip),
        decrypt_op=FootprintOp(("key", "input"), flip),
        evaluations=(
            Evaluation("keep", FootprintOp(("input",), np.eye(2)), np.eye(2)),
            Evaluation("swap", FootprintOp(("input", "bob"), swap), pauli_word_matrix("X")),
            Evaluation("partial", FootprintOp(("input", "bob"), partial), pauli_word_matrix("Z")),
        ),
        send_to_bob=("input",),
        return_to_alice=("input",),
    )


def test_theorem1_reports_each_circuits_own_product_deviation():
    # Three different deviations: a circuit-axis mix-up moves them between
    # case ids.  The preconditions are supplied, as the scheme is incomplete.
    report = _assert_theorem1_matches_reference(
        _graded_correlation_scheme(), random_ket(2, 3), _passed("security"), _passed("completeness")
    )
    assert (report.verdict, report.reason) == (INAPPLICABLE, REASON_MESSAGE_CORRELATED)
    deviations = dict(report.cases)
    assert deviations["product-form/swap"] <= 1e-12
    assert deviations["product-form/keep"] > deviations["product-form/partial"] > 0.1


def test_theorem1_passes_with_no_pair_to_test():
    # Every target equals the others up to a global phase, so no pair needs
    # orthogonal messages: worst 0.0 and pass, with only product-form rows.
    scheme = build_tag_evaluate_scheme(1, ("I", ("minus-I", -np.eye(2))))
    report = check_theorem1(scheme, basis_ket(2, 0))
    assert (report.verdict, report.worst_metric) == (PASS, 0.0)
    assert [case_id for case_id, _ in report.cases] == ["product-form/I", "product-form/minus-I"]


@pytest.mark.parametrize("which", [("theorem1", "security"), ("completeness",), CHECK_NAMES])
def test_run_checks_keys_reports_in_the_order_given(which):
    reports = run_checks(_scheme("tag-evaluate-2q"), which)
    assert list(reports) == list(which)
    assert all(report.kind == name for name, report in reports.items())


@pytest.mark.parametrize(
    "which, runs",
    [
        (CHECK_NAMES, ["security", "completeness", "theorem1"]),
        (("theorem1",), ["security", "completeness", "theorem1"]),
        (("completeness", "security"), ["security", "completeness"]),
        (("completeness",), ["completeness"]),
    ],
)
def test_run_checks_runs_each_check_at_most_once(monkeypatch, which, runs):
    calls = []
    for name in CHECK_NAMES:
        original = getattr(qhekit.checks, f"check_{name}")

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(qhekit.checks, f"check_{name}", counting)
    run_checks(_scheme("tag-evaluate-2q"), which)
    assert calls == runs


def test_run_checks_on_qotp2_makes_four_operator_applications(monkeypatch):
    scheme = build_qotp_scheme(2)
    calls = _count_calls(monkeypatch, ("apply_operator",))
    run_checks(scheme)
    # The encryption isometry once; completeness evaluates every circuit in
    # one stacked call and decrypts once; theorem 1 evaluates once more.
    assert calls["apply_operator"] == 4


def test_run_checks_tolerance_reaches_only_its_check():
    scheme = build_identity_scheme(1)
    default = run_checks(scheme)
    loose = run_checks(scheme, tols={"security": 2.0})
    assert (default["security"].verdict, loose["security"].verdict) == (FAIL, PASS)
    assert loose["security"].tolerances == {"security": 2.0}
    assert loose["completeness"].verdict == default["completeness"].verdict
    for name in ("completeness", "theorem1"):
        assert loose[name].tolerances == default[name].tolerances
    # Theorem 1 reads this run's security report as its precondition.
    assert default["theorem1"].reason == REASON_SECURITY_FAILED
    assert (loose["theorem1"].verdict, loose["theorem1"].reason) == (FAIL, None)


@pytest.mark.parametrize(
    "which, tols", [(("security",), {"theorem1": 1e-3}), (("completeness",), {"security": 5.0})]
)
def test_run_checks_refuses_tolerances_no_check_reads(which, tols):
    with pytest.raises(ValueError) as info:
        run_checks(build_qotp_scheme(1), which, tols)
    assert str(info.value) == f"tolerances {list(tols)} are not read by checks {list(which)}"


def test_run_checks_rejects_unknown_names():
    scheme = build_qotp_scheme(1)
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(scheme, ("security", "leakage"))
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(scheme, tols={"equality": 1e-3})
