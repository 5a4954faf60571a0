"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (run with -s to stream
them) and then asserts, so the suite both documents and enforces the bar.
"""

import json
import math
import time

import numpy as np

from qhekit.catalog import (
    build_constructed_secure_problem,
    build_controlled_flip_gate,
    build_leaky_problem,
    build_qotp_scheme,
    build_tag_evaluate_scheme,
    catalog,
    verify_catalog,
)
from qhekit.checks import (
    audit_dimension,
    audit_reversible_classical,
    check_completeness,
    check_no_programming,
    check_security,
    check_theorem1,
)
from qhekit.cli import main as cli_main
from qhekit.layout import Layout, reduced_from_ket
from qhekit.linalg import basis_ket, fidelity_pure, random_ket, random_unitary
from qhekit.localiser import (
    LeakageDetected,
    check_zero_leakage,
    extract_plaintext,
    localise,
)
from qhekit.qinfo import DensityOp
from qhekit.scheme import localisation_problem_at_t1
from qhekit.serialize import scheme_to_json
from qhekit_reference import schmidt, von_neumann_entropy

CONSTRUCTED_DIMS = ((2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8))
LEAKY_DIMS = ((2, 2, 2), (2, 4, 2), (2, 2, 8), (3, 2, 6))


def announce(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_localisation_round_trip():
    started = time.perf_counter()
    worst_gram = 0.0
    worst_recon = 0.0
    leak_fail = 0
    for seed in range(50):
        problem = build_constructed_secure_problem(CONSTRUCTED_DIMS[seed % 4], seed)
        ok, _ = check_zero_leakage(problem)
        if not ok:
            leak_fail += 1
            continue
        result = localise(problem)
        worst_gram = max(worst_gram, result.gram_residual)
        worst_recon = max(worst_recon, result.reconstruction_residual)
    elapsed = time.perf_counter() - started
    ok = leak_fail == 0 and worst_gram <= 1e-8 and worst_recon <= 1e-8 and elapsed <= 60
    assert announce(
        1,
        ok,
        f"50 problems in {elapsed:.1f}s, worst gram {worst_gram:.2e}, "
        f"worst reconstruction {worst_recon:.2e}",
    )


def test_criterion_2_leaky_negative_control():
    false_accepts = 0
    min_deviation = 1.0
    for seed in range(50):
        problem = build_leaky_problem(LEAKY_DIMS[seed % 4], seed)
        try:
            localise(problem)
            false_accepts += 1
        except LeakageDetected as refusal:
            min_deviation = min(min_deviation, refusal.deviation)
    ok = false_accepts == 0 and min_deviation >= 0.99
    assert announce(
        2, ok, f"0 false acceptances expected, got {false_accepts}; min deviation {min_deviation:.4f}"
    )


def test_criterion_3_one_time_pad_suite():
    details = []
    ok = True
    for n in (1, 2):
        scheme = build_qotp_scheme(n)
        security = check_security(scheme)
        ok &= security.verdict == "pass" and security.worst_metric <= 1e-10
        completeness = check_completeness(scheme)
        ok &= completeness.verdict == "pass" and completeness.worst_metric <= 1e-9
        ok &= len(scheme.evaluations) == 4**n
        theorem1 = check_theorem1(
            scheme,
            basis_ket(scheme.input_dim, 0),
            security_report=security,
            completeness_report=completeness,
        )
        product_devs = [m for c, m in theorem1.cases if c.startswith("product-form/")]
        ok &= theorem1.verdict == "inapplicable"
        ok &= theorem1.reason == "message-correlated-with-retained-key"
        ok &= bool(product_devs) and max(product_devs) > 0

        problem = localisation_problem_at_t1(scheme)
        result = localise(problem)
        psi = random_ket(scheme.input_dim, 1000 + n)
        recovered = extract_plaintext(result, problem.retained_reduced(psi))
        fid = fidelity_pure(psi, recovered)
        ok &= fid >= 1 - 1e-8
        details.append(
            f"n={n}: sec {security.worst_metric:.1e}, comp {completeness.worst_metric:.1e}, "
            f"recover {fid:.10f}, product-dev {max(product_devs):.3f}"
        )
    assert announce(3, ok, "; ".join(details))


def test_criterion_4_tag_evaluate_positive_instance():
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z", "XZ"))
    security = check_security(scheme)
    completeness = check_completeness(scheme)
    theorem1 = check_theorem1(
        scheme, basis_ket(2, 0), security_report=security, completeness_report=completeness
    )
    overlaps = [m for c, m in theorem1.cases if c.startswith("overlap/")]
    ok = (
        security.verdict == "pass"
        and completeness.verdict == "pass"
        and theorem1.verdict == "pass"
        and len(overlaps) == 6
        and max(overlaps) <= 1e-10
    )
    assert announce(
        4, ok, f"all checkers pass, {len(overlaps)} pairwise overlaps, worst {max(overlaps):.2e}"
    )


def test_criterion_5_no_programming():
    gate, layout = build_controlled_flip_gate(1)
    programs = [basis_ket(4, k) for k in range(4)]
    report = check_no_programming(gate, layout, programs)
    overlaps = [m for c, m in report.cases if c.startswith("overlap/")]
    distinct_ok = report.verdict == "pass" and len(overlaps) == 6 and max(overlaps) <= 1e-10

    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    plus = np.array([1, 1]) / np.sqrt(2)
    flagged_report = check_no_programming(
        cnot, Layout((("program", 2), ("data", 2))), [basis_ket(2, 0), plus]
    )
    flagged = any(c == "program-1/non-deterministic" for c, _ in flagged_report.cases)
    ok = distinct_ok and flagged
    assert announce(
        5, ok, f"4 orthogonal programs pass ({len(overlaps)} pairs); |+> flagged: {flagged}"
    )


def test_criterion_6_dimension_audit():
    started = time.perf_counter()
    expectations = {
        2: 1,
        4: 2,
        math.factorial(24): 80,
        math.factorial(2**3): 16,
    }
    ok = True
    for set_size, expected_qubits in expectations.items():
        audit = audit_dimension(set_size)
        ok &= audit.qubits_required == expected_qubits
        # exact bracketing oracle in big integers
        q = audit.qubits_required
        ok &= (set_size == 1) or (2 ** (q - 1) < set_size <= 2**q)
    flags = {n: audit_reversible_classical(n).exponential_bound_holds for n in range(1, 7)}
    ok &= flags[1] is False
    ok &= all(flags[n] is True for n in range(2, 7))
    elapsed = time.perf_counter() - started
    ok &= elapsed <= 1.0
    assert announce(6, ok, f"exact audits in {elapsed:.3f}s; n=1 exception reported")


def test_criterion_7_linear_algebra_substrate():
    dims_pool = ((2, 2), (3, 3), (4, 2), (2, 8))
    worst_schmidt = 0.0
    for seed in range(100):
        da, db = dims_pool[seed % 4]
        layout = Layout((("a", da), ("b", db)))
        psi = random_ket(da * db, seed)
        coeffs, _, _ = schmidt(psi, layout, ["a"])
        evals = np.sort(np.linalg.eigvalsh(reduced_from_ket(psi, layout, ["a"])))[::-1]
        padded = np.zeros(evals.size)
        padded[: coeffs.size] = np.sort(coeffs**2)[::-1]
        worst_schmidt = max(worst_schmidt, float(np.max(np.abs(padded - np.clip(evals, 0, None)))))

    worst_entropy = 0.0
    qudit = Layout((("q", 4),))
    doubled = Layout((("s", 4), ("e", 4)))
    for seed in range(100):
        rho = DensityOp(qudit, reduced_from_ket(random_ket(16, 200 + seed), doubled, ["s"]))
        u = random_unitary(4, 300 + seed)
        rotated = DensityOp(qudit, u @ rho.matrix @ u.conj().T)
        worst_entropy = max(
            worst_entropy, abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho))
        )

    deterministic = all(
        np.array_equal(random_unitary(d, s), random_unitary(d, s))
        for d, s in ((2, 0), (5, 1), (8, 2))
    )
    deterministic &= np.array_equal(random_ket(9, 4), random_ket(9, 4))
    deterministic &= json.dumps(scheme_to_json(build_qotp_scheme(1)), sort_keys=True) == json.dumps(
        scheme_to_json(build_qotp_scheme(1)), sort_keys=True
    )
    problem = build_constructed_secure_problem((2, 2, 2), 0)
    deterministic &= np.array_equal(localise(problem).unitary, localise(problem).unitary)

    ok = worst_schmidt <= 1e-9 and worst_entropy <= 1e-9 and deterministic
    assert announce(
        7,
        ok,
        f"schmidt agreement {worst_schmidt:.2e}, entropy invariance {worst_entropy:.2e}, "
        f"determinism {deterministic}",
    )


def test_criterion_8_end_to_end_catalog():
    exit_code = cli_main(["list-catalog", "--verify"])
    all_match, rows = verify_catalog()
    ok = exit_code == 0 and all_match and len(rows) == 3 * len(catalog())
    assert announce(8, ok, f"CLI exit {exit_code}; {len(rows)} verdicts match expectations")
