import functools
import json
import math
import operator
import re

import numpy as np
import pytest

from qhekit.catalog import (
    build_constructed_secure_problem,
    build_qotp_scheme,
    build_tag_evaluate_scheme,
    catalog,
)
from qhekit.checks import audit_reversible_classical, check_security
from qhekit.layout import Layout
from qhekit.linalg import random_ket, random_unitary
from qhekit.localiser import localise
from qhekit.scheme import localisation_problem_at_t1
from qhekit.serialize import (
    SchemeFormatError,
    audit_to_json,
    ket_from_json,
    ket_to_json,
    layout_to_json,
    matrix_from_json,
    matrix_to_json,
    problem_from_json,
    problem_to_json,
    report_to_json,
    result_to_json,
    scheme_from_json,
    scheme_to_json,
)
from qhekit_reference import uneven_problem


def test_matrix_round_trip():
    m = random_unitary(3, 0)
    back = matrix_from_json(matrix_to_json(m))
    np.testing.assert_array_equal(m, back)


def test_matrix_from_json_reports_location():
    with pytest.raises(SchemeFormatError, match=r"scheme\.encrypt: missing field 'rows'"):
        matrix_from_json({}, "scheme.encrypt")


def test_matrix_from_json_rejects_wrong_entry_count():
    bad = {"rows": 2, "cols": 2, "entries": [[1, 0]]}
    with pytest.raises(SchemeFormatError, match="4 \\[re, im\\] pairs"):
        matrix_from_json(bad)


def test_ket_round_trip():
    v = random_ket(5, 1)
    np.testing.assert_array_equal(v, ket_from_json(ket_to_json(v)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_qotp_scheme(1),
        lambda: build_tag_evaluate_scheme(1, ("I", "X", "Z")),
        lambda: build_tag_evaluate_scheme(2, ("I.I", "X.Z")),
    ],
)
def test_scheme_json_round_trip(build):
    scheme = build()
    obj = scheme_to_json(scheme)
    back = scheme_from_json(json.loads(json.dumps(obj)))
    assert back.layout == scheme.layout
    assert back.input_label == scheme.input_label
    assert back.output_label == scheme.output_label
    assert back.bob_initial == scheme.bob_initial
    assert back.send_to_bob == scheme.send_to_bob
    assert back.return_to_alice == scheme.return_to_alice
    assert back.circuit_ids == scheme.circuit_ids
    np.testing.assert_array_equal(back.encrypt_op.matrix, scheme.encrypt_op.matrix)
    np.testing.assert_array_equal(back.decrypt_op.matrix, scheme.decrypt_op.matrix)
    assert len(back.fixed_states) == len(scheme.fixed_states)
    for block, original in zip(back.fixed_states, scheme.fixed_states):
        assert block.labels == original.labels
        assert block.ket.tobytes() == original.ket.tobytes()
    # behavioural equality: the round-tripped scheme produces the same verdict
    assert check_security(back).verdict == check_security(scheme).verdict


def test_exported_scheme_file_has_exactly_the_constructor_fields():
    obj = scheme_to_json(build_tag_evaluate_scheme(1, ("I", "X")))
    assert sorted(obj) == [
        "bob_initial", "decrypt", "encrypt", "evaluations", "format", "input", "name",
        "output", "registers", "return_to_alice", "send_to_bob", "states", "toolkit_version",
    ]
    assert (obj["input"], obj["output"], obj["bob_initial"]) == ("input", "hold", ["tag"])
    assert [block["labels"] for block in obj["states"]] == [["hold"], ["tag"]]


def test_scheme_from_json_rejects_missing_bob_initial():
    obj = scheme_to_json(build_qotp_scheme(1))
    del obj["bob_initial"]
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_json(obj)
    assert str(info.value) == "scheme: missing field 'bob_initial'"


def _set_encrypt_to_list(obj):
    obj["encrypt"] = [1, 2]


def _set_operator_to_string(obj):
    obj["evaluations"][0]["operator"] = "X"


def _nan_in_target(obj):
    obj["evaluations"][1]["target"]["entries"][0] = [math.nan, 0.0]


def _inf_in_encrypt(obj):
    obj["encrypt"]["entries"][3] = [math.inf, 0.0]


def _scale_decrypt(obj):
    obj["decrypt"]["entries"] = [[2 * re, 2 * im] for re, im in obj["decrypt"]["entries"]]


def _scale_target(obj):
    obj["evaluations"][2]["target"]["entries"][0] = [3.0, 0.0]


def _drop_input(obj):
    del obj["input"]


@pytest.mark.parametrize(
    "corrupt, location, message",
    [
        (_set_encrypt_to_list, r"scheme\.encrypt", "expected an object, got list"),
        (_set_operator_to_string, r"scheme\.evaluations\[0\]\.operator", "expected an object, got str"),
        (_nan_in_target, r"scheme\.evaluations\[1\]\.target", "non-finite entries"),
        (_inf_in_encrypt, r"scheme\.encrypt", "non-finite entries"),
        (_scale_decrypt, r"scheme\.decrypt", "is not unitary within tolerance"),
        (_scale_target, r"scheme\.evaluations\[2\]", "target of 'Z' is not unitary within tolerance"),
        (_drop_input, r"scheme", "missing field 'input'"),
    ],
    ids=[
        "non-object-field",
        "non-object-operator",
        "nan-target",
        "inf-encrypt",
        "non-unitary-operator",
        "non-unitary-target",
        "missing-input",
    ],
)
def test_scheme_from_json_reports_bad_fields_at_their_location(corrupt, location, message):
    obj = scheme_to_json(build_qotp_scheme(1))
    corrupt(obj)
    with pytest.raises(SchemeFormatError, match=f"^{location}: .*{message}") as info:
        scheme_from_json(obj)
    assert re.fullmatch(location, info.value.location)


# (path in a QOTP n=1 scheme file, error location, field name) per integer field.
_INTEGER_FIELDS = {
    "register-dim": (("registers", 0, 1), r"scheme\.registers\[0\]", "dim"),
    "matrix-rows": (("encrypt", "rows"), r"scheme\.encrypt", "rows"),
    "matrix-cols": (("encrypt", "cols"), r"scheme\.encrypt", "cols"),
    "ket-dim": (("states", 0, "dim"), r"scheme\.states\[0\]", "dim"),
}


@pytest.mark.parametrize("kind", ["float", "string", "bool"])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_integer_fields_accept_only_json_integers(field, kind):
    # 2.9 and "2" used to load as 2, and true as 1.
    path, location, name = _INTEGER_FIELDS[field]
    obj = scheme_to_json(build_qotp_scheme(1))
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    value = parent[path[-1]]
    parent[path[-1]] = {"float": value + 0.9, "string": str(value), "bool": True}[kind]
    message = f"^{location}: {name} must be an integer, got "
    with pytest.raises(SchemeFormatError, match=message) as info:
        scheme_from_json(json.loads(json.dumps(obj)))
    assert re.fullmatch(location, info.value.location)


def test_scheme_from_json_rejects_an_input_a_fixed_state_covers():
    obj = scheme_to_json(build_qotp_scheme(1))
    obj["input"] = "key"
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_json(obj)
    assert str(info.value) == (
        "scheme: fixed states cover ['key', 'key_purifier'], expected every register "
        "except the input: ['input', 'key_purifier']"
    )


def test_problem_round_trip_preserves_localisation():
    problem = build_constructed_secure_problem((2, 2, 2), seed=3)
    obj = problem_to_json(problem)
    assert sorted(obj) == ["format", "isometry", "registers", "toolkit_version"]
    back = problem_from_json(json.loads(json.dumps(obj)))
    assert back.isometry.tobytes() == problem.isometry.tobytes()
    a = localise(problem)
    b = localise(back)
    np.testing.assert_array_equal(a.unitary, b.unitary)
    assert a.rank == b.rank


def test_t1_bridge_problem_round_trips():
    problem = localisation_problem_at_t1(build_qotp_scheme(1))
    back = problem_from_json(json.loads(json.dumps(problem_to_json(problem))))
    assert back.layout == problem.layout
    assert back.isometry.tobytes() == problem.isometry.tobytes()
    assert result_to_json(localise(back)) == result_to_json(localise(problem))


def test_three_register_problem_file_reads_with_data_and_aux_merged():
    # A (data, aux, remote) file, as problem files were once written.
    problem = build_constructed_secure_problem((2, 4, 2), seed=3)
    obj = json.loads(json.dumps(problem_to_json(problem)))
    obj["registers"] = layout_to_json(Layout((("A1", 2), ("A2", 4), ("B", 2))))
    back = problem_from_json(obj)
    assert back.layout == Layout((("A1*A2", 8), ("B", 2)))
    assert back.isometry.tobytes() == problem.isometry.tobytes()
    assert result_to_json(localise(back)) == result_to_json(localise(problem))


def test_result_without_a_data_factor_split_writes_null_factor_dims():
    obj = json.loads(json.dumps(result_to_json(localise(uneven_problem(5)))))
    assert obj["factor_dims"] is None and obj["rank"] == 1


def test_result_to_json_shape():
    result = localise(build_constructed_secure_problem((2, 2, 2), seed=3))
    obj = json.loads(json.dumps(result_to_json(result)))  # serializable as-is
    assert obj["rank"] == result.rank
    assert obj["factor_dims"] == [2, 2]
    # The factors come back bit for bit; no dense view is written.
    assert matrix_from_json(obj["branches"]).tobytes() == result.branches.tobytes()
    assert np.array(obj["residual_weights"]).tobytes() == result.residual_weights.tobytes()
    assert "unitary" not in obj and "residual_state" not in obj


def test_report_json_round_trips_semantically():
    report = check_security(build_qotp_scheme(1))
    obj = report_to_json(report)
    text = json.dumps(obj, sort_keys=True)
    again = json.dumps(json.loads(text), sort_keys=True)
    assert text == again
    assert obj["verdict"] == "pass"
    assert obj["kind"] == "security"
    assert len(obj["cases"]) == len(report.cases)


def test_audit_json_exact_big_integers():
    obj = audit_to_json(audit_reversible_classical(3))
    assert obj["set_size"] == math.factorial(8)
    text = json.dumps(obj)
    assert str(math.factorial(8)) in text


# (path in a QOTP n=1 scheme file, error location) per kind of complex array.
_COMPLEX_FIELDS = {
    "matrix": (
        ("evaluations", 2, "target", "entries", 0),
        r"scheme\.evaluations\[2\]\.target\.entries",
    ),
    "ket": (("states", 0, "amplitudes", 0), r"scheme\.states\[0\]\.amplitudes"),
}


@pytest.mark.parametrize("kind", ["string", "bool", "null"])
@pytest.mark.parametrize("field", sorted(_COMPLEX_FIELDS))
def test_complex_entries_accept_only_json_numbers(field, kind):
    # numpy read ["1", "0"] and [true, false] as 1+0j, and null as nan.
    path, location = _COMPLEX_FIELDS[field]
    obj = scheme_to_json(build_qotp_scheme(1))
    pair = functools.reduce(operator.getitem, path, obj)
    pair[0] = {"string": str(pair[0]), "bool": True, "null": None}[kind]
    message = f"^{location}: entries must be JSON numbers, got "
    with pytest.raises(SchemeFormatError, match=message) as info:
        scheme_from_json(json.loads(json.dumps(obj)))
    assert re.fullmatch(location, info.value.location)


_CONTROLLED = {
    "qotp-1": lambda: build_qotp_scheme(1),
    "qotp-2": lambda: build_qotp_scheme(2),
    **{
        e.name: functools.partial(build_tag_evaluate_scheme, **e.params)
        for e in catalog()
        if e.builder == "tag-evaluate"
    },
}


@pytest.mark.parametrize("name", sorted(_CONTROLLED))
def test_controlled_footprints_round_trip(name):
    scheme = _CONTROLLED[name]()
    obj = json.loads(json.dumps(scheme_to_json(scheme)))
    control = scheme.decrypt_op.control
    c, b = scheme.layout.dim_of([control]), scheme.decrypt_op.matrix.shape[-1]
    assert obj["decrypt"]["control"] == control
    assert (obj["decrypt"]["rows"], obj["decrypt"]["cols"]) == (c * b, b)
    back = scheme_from_json(obj)
    pairs = [(back.encrypt_op, scheme.encrypt_op), (back.decrypt_op, scheme.decrypt_op)]
    pairs += [(e.operator, f.operator) for e, f in zip(back.evaluations, scheme.evaluations)]
    for got, want in pairs:
        assert (got.labels, got.control) == (want.labels, want.control)
        assert got.matrix.shape == want.matrix.shape
        assert got.matrix.tobytes() == want.matrix.tobytes()
    assert scheme_to_json(back) == obj


def _scale_block(k):
    def corrupt(obj):
        entries = obj["decrypt"]["entries"]  # block k is rows 2k, 2k + 1: four pairs
        entries[4 * k : 4 * k + 4] = [[2 * re, 2 * im] for re, im in entries[4 * k : 4 * k + 4]]

    return corrupt


def _set_control(label):
    def corrupt(obj):
        obj["decrypt"]["control"] = label

    return corrupt


def _control_its_own_register(obj):
    # Two identity blocks, so the row count fits the input register as control.
    obj["decrypt"].update(control="input", rows=4, entries=[[1, 0], [0, 0], [0, 0], [1, 0]] * 2)


def _drop_a_block(obj):
    obj["encrypt"]["rows"] = 6
    del obj["encrypt"]["entries"][12:]


def _drop_the_control(obj):
    del obj["encrypt"]["control"]


@pytest.mark.parametrize(
    "corrupt, location, message",
    [
        (_scale_block(2), r"scheme\.decrypt", r"controlled by 'key': block 2 is not unitary"),
        (_set_control("lock"), r"scheme\.decrypt", r"label 'lock' not in layout"),
        (_control_its_own_register, r"scheme\.decrypt", r"register 'input' is in its footprint"),
        (_set_control(3), r"scheme\.decrypt\.control", r"expected a string, got 3"),
        (_drop_a_block, r"scheme\.encrypt", r"6 rows, expected control dimension 4 x 2$"),
        (_drop_the_control, r"scheme\.encrypt", r"expected a square matrix, got shape \(8, 2\)"),
    ],
    ids=[
        "non-unitary-block",
        "control-outside-layout",
        "control-in-labels",
        "control-not-a-label",
        "row-count",
        "no-control",
    ],
)
def test_controlled_footprints_are_refused_at_their_location(corrupt, location, message):
    obj = scheme_to_json(build_qotp_scheme(1))
    corrupt(obj)
    with pytest.raises(SchemeFormatError, match=f"^{location}: .*{message}") as info:
        scheme_from_json(obj)
    assert re.fullmatch(location, info.value.location)
