import json

import numpy as np
import pytest

from qhekit.catalog import (
    build_constructed_secure_problem,
    build_leaky_problem,
    build_scheme,
    build_tag_evaluate_scheme,
    catalog,
    pauli_word_matrix,
    pauli_words,
    verify_catalog,
)
from qhekit.checks import run_checks
from qhekit.layout import reduced_from_ket
from qhekit.linalg import basis_ket, kron
from qhekit.qinfo import orthogonal_support
from qhekit.scheme import run_pipeline
from qhekit.serialize import scheme_to_json


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
            ok, overlap = orthogonal_support(messages[i], messages[j], 1e-12)
            assert ok and abs(overlap) <= 1e-12


def test_tag_register_dimension_matches_set_size():
    scheme = build_tag_evaluate_scheme(1, ("I", "X", "Z", "XZ"))
    assert scheme.layout.dim_of(["tag"]) == 4


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
    np.testing.assert_array_equal(a.unitary, b.unitary)
    np.testing.assert_array_equal(a.aux_state, b.aux_state)
    c = build_leaky_problem((2, 2, 2), seed=9)
    d = build_leaky_problem((2, 2, 2), seed=9)
    np.testing.assert_array_equal(c.unitary, d.unitary)


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
