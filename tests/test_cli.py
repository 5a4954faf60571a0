import functools
import importlib
import json
import operator
from pathlib import Path

import numpy as np
import pytest

import qhekit.checks
import qhekit.cli
import qhekit.localiser
import qhekit.qinfo
from qhekit.catalog import (
    build_constructed_secure_problem,
    build_qotp_scheme,
    build_tag_evaluate_scheme,
    catalog,
)
from qhekit.checks import FAIL, Report, check_completeness, check_security, check_theorem1
from qhekit.cli import main
from qhekit.layout import Layout
from qhekit.linalg import basis_ket
from qhekit.localiser import check_zero_leakage, localise
from qhekit.serialize import (
    ket_to_json,
    layout_to_json,
    matrix_to_json,
    problem_to_json,
    report_to_json,
    result_to_json,
    scheme_to_json,
)
from qhekit_reference import dense_problem, rotated_tag_scheme, uneven_problem


# A path next to this file that does not exist.
_MISSING = str(Path(__file__).with_name("no-such-scheme.json"))


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_check_tag_evaluate_all_pass(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--builder", "tag-evaluate", "--params", "n=1", "S=I,X,Z",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = read_json(out)
    assert set(payload["reports"]) == {"security", "completeness", "theorem1"}
    assert all(r["verdict"] == "pass" for r in payload["reports"].values())


def test_check_identity_security_fails(capsys):
    code = run_cli("check", "--builder", "identity", "--params", "n=1", "--which", "security")
    assert code == 2
    assert "security: fail" in capsys.readouterr().out


def test_check_qotp_theorem1_inapplicable(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "check", "--builder", "qotp", "--params", "n=1", "--which", "theorem1",
        "--format", "json", "--out", str(out),
    )
    assert code == 3
    payload = read_json(out)
    assert payload["reports"]["theorem1"]["reason"] == "message-correlated-with-retained-key"


def test_check_malformed_scheme_file(tmp_path, capsys):
    bad = tmp_path / "scheme.json"
    bad.write_text(json.dumps({"registers": [["input", 2]]}))
    code = run_cli("check", "--scheme", str(bad))
    assert code == 1
    assert "missing field" in capsys.readouterr().err


def test_localise_constructed_secure(tmp_path):
    out = tmp_path / "result.json"
    code = run_cli(
        "localise", "--builder", "constructed-secure", "--params", "dims=2,2,2", "seed=7",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = read_json(out)
    assert payload["verdict"] == "pass"
    assert payload["reconstruction_residual"] <= 1e-8


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=1", "bogus=3"),
            "'bogus'",
            id="unknown-key",
        ),
        pytest.param(
            ("check", "--builder", "identity", "--params", "n=1", "S=I,X"), "'S'", id="identity-S"
        ),
        pytest.param(
            ("localise", "--builder", "leaky", "--params", "dims=2,2,2", "n=4", "seed=1"),
            "'n'",
            id="problem-n",
        ),
        pytest.param(
            ("check", "--builder", "tag-evaluate", "--params", "n=1", "circuit_set=I,X"),
            "'circuit_set'",
            id="circuit_set-alias",
        ),
        pytest.param(
            ("export-scheme", "--builder", "qotp", "--params", "n=1", "S=X"),
            "'S'",
            id="export-scheme-S",
        ),
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=1", "n=2"), "'n'", id="key-twice"
        ),
    ],
)
def test_params_the_builder_does_not_read_rejected(capsys, argv, named):
    # Every accepted --params value changes the build; any other exits 1 and
    # names the key.
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=x"),
            "parameter 'n' has non-integer value 'x'",
            id="value-not-integer",
        ),
        pytest.param(
            ("localise", "--builder", "leaky", "--params", "dims=2,2,a"),
            "parameter 'dims' has non-integer value 'a'",
            id="dims-not-integers",
        ),
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=1", "--tol", "security=1", "security=2"),
            "tolerance 'security' is given twice",
            id="tolerance-twice",
        ),
        pytest.param(
            ("check", "--builder", "qotp"), "scheme builders need n=N (e.g. n=1)", id="key-missing"
        ),
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n1"),
            "parameter 'n1' is not of the form KEY=VALUE",
            id="pair-without-equals",
        ),
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=1", "--tol", "security=tight"),
            "tolerance 'security' has non-numeric value 'tight'",
            id="tolerance-not-numeric",
        ),
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=1", "--tol", "security=inf"),
            "tolerance 'security' must be finite, got inf",
            id="tolerance-infinite",
        ),
        pytest.param(
            ("check", "--builder", "tag-evaluate", "--params", "n=1"),
            "tag-evaluate needs S=WORD,WORD,... (e.g. S=I,X,Z)",
            id="tag-evaluate-without-S",
        ),
        pytest.param(
            ("localise", "--builder", "leaky"), "problem builders need dims=D1,D2,D3", id="no-dims"
        ),
        pytest.param(
            ("localise", "--builder", "leaky", "--params", "dims=2,2"),
            "dims must have three components, got '2,2'",
            id="dims-two-parts",
        ),
        pytest.param(
            ("check", "--scheme", _MISSING),
            f"cannot read {_MISSING}: [Errno 2] No such file or directory: '{_MISSING}'",
            id="unreadable-file",
        ),
        pytest.param(
            ("check", "--scheme", __file__),
            f"{__file__}:1:1: invalid JSON: Expecting value",
            id="invalid-json",
        ),
        pytest.param(
            ("check", "--builder", "qotp", "--params", "n=3"),
            "one-time-pad scheme supports 1..2 qubits, got 3",
            id="builder-refusal",
        ),
        pytest.param(
            ("localise", "--builder", "leaky", "--params", "dims=2,2,2", "seed=-1"),
            "seed must be non-negative, got -1",
            id="negative-seed",
        ),
        pytest.param(
            ("audit", "--set-size", "4", "--classical-bits", "2"),
            "provide exactly one of --set-size or --classical-bits",
            id="audit-both",
        ),
        pytest.param(
            ("audit",), "provide exactly one of --set-size or --classical-bits", id="audit-neither"
        ),
        pytest.param(
            ("audit", "--set-size", "0"), "--set-size must be >= 1, got 0", id="set-size-zero"
        ),
    ],
)
def test_bad_params_and_tolerances_named(capsys, argv, message):
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--builder", "identity", "--params", "n=1"),
        ("localise", "--builder", "constructed-secure", "--params", "dims=2,2,2"),
    ],
    ids=["check", "localise"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_out_that_cannot_be_written_is_one_error_line(capsys, tmp_path, argv, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    assert run_cli(*argv, "--out", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_options_parsed_before_the_builder_runs(monkeypatch, capsys):
    built = []
    for name in ("build_scheme", "build_problem"):
        monkeypatch.setattr(qhekit.cli, name, lambda *args, **kwargs: built.append(args))
    for source in (
        ("check", "--builder", "qotp", "--params", "n=1"),
        ("localise", "--builder", "leaky", "--params", "dims=2,2,2"),
    ):
        assert run_cli(*source, "--tol", "bogus=1") == 1
        assert "unknown tolerance 'bogus'" in capsys.readouterr().err
    assert built == []


def test_scheme_commands_reject_seed(capsys):
    for command in ("check", "export-scheme"):
        assert run_cli(command, "--builder", "qotp", "--params", "n=1", "--seed", "3") == 1
        assert "--seed" in capsys.readouterr().err


def test_localise_leaky_refused(tmp_path):
    out = tmp_path / "refusal.json"
    code = run_cli(
        "localise", "--builder", "leaky", "--params", "dims=2,2,2", "seed=1",
        "--format", "json", "--out", str(out),
    )
    assert code == 2
    payload = read_json(out)
    assert payload["reason"] == "leakage-detected"
    assert payload["max_deviation"] >= 0.99


def test_localise_identity_problem_file(tmp_path):
    layout = Layout((("A1", 2), ("A2", 2), ("B", 2)))
    problem = dense_problem(layout, np.eye(8, dtype=complex), basis_ket(2, 0), basis_ket(2, 0))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    out = tmp_path / "result.json"
    code = run_cli("localise", "--problem", str(path), "--format", "json", "--out", str(out))
    assert code == 0
    assert read_json(out)["rank"] == 1


def test_localise_without_a_data_factor_split_omits_factor_dims(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(uneven_problem(5))))
    assert run_cli("localise", "--problem", str(path)) == 0
    text = capsys.readouterr().out
    assert "rank: 1\n" in text and "factor_dims" not in text
    out = tmp_path / "result.json"
    assert run_cli("localise", "--problem", str(path), "--format", "json", "--out", str(out)) == 0
    assert '"factor_dims": null' in out.read_text()


def test_audit_set_size(capsys):
    assert run_cli("audit", "--set-size", "4") == 0
    assert "qubits_required: 2" in capsys.readouterr().out


def test_audit_classical_two_bits(tmp_path):
    out = tmp_path / "audit.json"
    assert run_cli("audit", "--classical-bits", "2", "--format", "json", "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["set_size"] == 24
    assert payload["log2_ceil"] == 5
    assert payload["exponential_bound_holds"] is True


def test_audit_classical_one_bit_reports_exception(capsys):
    assert run_cli("audit", "--classical-bits", "1") == 0
    assert "exponential_bound_holds: false" in capsys.readouterr().out


def test_audit_oversize_rejected(capsys):
    assert run_cli("audit", "--classical-bits", "7") == 1
    assert "1..6" in capsys.readouterr().err


def test_export_scheme_round_trip(tmp_path):
    out = tmp_path / "scheme.json"
    code = run_cli("export-scheme", "--builder", "qotp", "--params", "n=1", "--out", str(out))
    assert code == 0
    payload = read_json(out)
    reference = scheme_to_json(build_qotp_scheme(1))
    assert json.dumps(payload, sort_keys=True) == json.dumps(reference, sort_keys=True)
    # the exported file loads and checks cleanly
    assert run_cli("check", "--scheme", str(out), "--which", "security") == 0


def test_export_scheme_reads_one_flip_word_as_one_circuit(tmp_path):
    # S=XZ passes the tuple ("XZ",), which the builder's bare-string refusal lets through.
    out = tmp_path / "scheme.json"
    code = run_cli(
        "export-scheme", "--builder", "tag-evaluate", "--params", "n=1", "S=XZ", "--out", str(out)
    )
    assert code == 0
    reference = scheme_to_json(build_tag_evaluate_scheme(1, ("XZ",)))
    assert json.dumps(read_json(out), sort_keys=True) == json.dumps(reference, sort_keys=True)


def test_list_catalog_plain(capsys):
    assert run_cli("list-catalog") == 0
    out = capsys.readouterr().out
    assert "identity-1" in out and "expected" in out


def test_list_catalog_verify_exit_zero(capsys):
    assert run_cli("list-catalog", "--verify") == 0
    assert "all verdicts match" in capsys.readouterr().out


def test_reports_deterministic_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ("check", "--builder", "qotp", "--params", "n=1", "--format", "json")
    assert run_cli(*args, "--out", str(a)) == 3
    assert run_cli(*args, "--out", str(b)) == 3
    assert a.read_text() == b.read_text()


def test_text_rows_rank_by_printed_value_then_case_order():
    # 16 metrics that all print 9.375e-01, as QOTP n=2's product-form rows
    # do, differing between two runs only in their last bits.
    ids = [f"product-form/{k}" for k in range(16)]
    first = [0.9375 if k % 3 else 0.9374999999999999 for k in range(16)]
    second = [0.9375000000000002 if k % 2 else 0.9375 for k in range(16)]
    lines = [
        qhekit.cli._report_lines(
            Report("theorem1", FAIL, 1.0, (("low", 0.5), *zip(ids, metrics), ("top", 1.0)))
        )
        for metrics in (first, second)
    ]
    assert lines[0] == lines[1]
    assert [line.split()[0] for line in lines[0][1:13]] == ["top", *ids[:11]]
    assert lines[0][13] == "  ... (6 more cases)"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_builds_only_the_requested_format(tmp_path, monkeypatch, fmt):
    formatted = []
    original = qhekit.cli._report_lines

    def recording(report):
        formatted.append(report.kind)
        return original(report)

    monkeypatch.setattr(qhekit.cli, "_report_lines", recording)
    out = tmp_path / "report"
    argv = ("check", "--builder", "qotp", "--params", "n=1", "--format", fmt, "--out", str(out))
    assert run_cli(*argv) == 3
    if fmt == "text":
        assert formatted == ["security", "completeness", "theorem1"]
        assert out.read_text().startswith("scheme: qotp(n=1)\nsecurity: pass")
        return
    assert formatted == []
    # Byte for byte the checkers' reports, serialised as the CLI documents.
    scheme = build_qotp_scheme(1)
    security, completeness = check_security(scheme), check_completeness(scheme)
    theorem1 = check_theorem1(
        scheme, basis_ket(2, 0), security_report=security, completeness_report=completeness
    )
    reports = {"security": security, "completeness": completeness, "theorem1": theorem1}
    payload = {
        "scheme": scheme.name,
        "reports": {name: report_to_json(report) for name, report in reports.items()},
    }
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_bad_tolerance_rejected(capsys):
    assert run_cli("check", "--builder", "qotp", "--params", "n=1", "--tol", "security=-1") == 1
    assert "positive" in capsys.readouterr().err


def _swapped_targets_file(tmp_path):
    """A QOTP n=1 export whose evaluations 0 and 1 have swapped targets: incomplete."""
    obj = scheme_to_json(build_qotp_scheme(1))
    first, second = obj["evaluations"][:2]
    first["target"], second["target"] = second["target"], first["target"]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(obj))
    return ("--scheme", str(path))


@pytest.mark.parametrize(
    "name, source, loose, exits",
    [
        # With an absurdly loose tolerance even the identity scheme "passes".
        pytest.param(
            "security", ("--builder", "identity", "--params", "n=1"), "2.0", (2, 0), id="security"
        ),
        # Swapped targets give certificates below 2.
        pytest.param("completeness", None, "2.0", (2, 0), id="completeness"),
        # QOTP's message is key-correlated, so stage 1 makes theorem 1
        # inapplicable; at 1.0 stage 1 passes, and so does stage 2: every
        # message is I/2, so each overlap Tr(rho_a rho_b) is 1/2.
        pytest.param(
            "theorem1", ("--builder", "qotp", "--params", "n=1"), "1.0", (3, 0), id="theorem1"
        ),
    ],
)
def test_tolerance_override_changes_verdict(tmp_path, name, source, loose, exits):
    argv = ("check", *(source or _swapped_targets_file(tmp_path)), "--which", name)
    assert (run_cli(*argv), run_cli(*argv, "--tol", f"{name}={loose}")) == exits


@pytest.mark.parametrize("tol, code", [("1e-9", 0), ("1e-10", 2)])
def test_theorem1_override_reaches_the_message_overlap(tmp_path, capsys, tol, code):
    # At theta = 3e-5 the completeness delta is 3e-5 and overlap/I|Z is
    # sin^2 theta = 9.0e-10, so only stage 2's threshold moves the exit code.
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(scheme_to_json(rotated_tag_scheme(3e-5))))
    argv = ["check", "--scheme", str(path), "--which", "theorem1", "--format", "json"]
    assert run_cli(*argv, "--tol", "completeness=1e-3", f"theorem1={tol}") == code
    report = json.loads(capsys.readouterr().out)["reports"]["theorem1"]
    assert report["tolerances"] == {"message-overlap": float(tol), "product-form": float(tol)}
    assert dict(report["cases"])["overlap/I|Z"] == pytest.approx(np.sin(3e-5) ** 2, rel=1e-12)


def test_localise_text_output_skips_unitary_completion(tmp_path, monkeypatch, capsys):
    calls = []
    original = qhekit.localiser.complete_orthonormal

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qhekit.localiser, "complete_orthonormal", counting)
    base = ("localise", "--builder", "constructed-secure", "--params", "dims=2,4,2", "seed=7")
    assert run_cli(*base) == 0
    assert "rank:" in capsys.readouterr().out
    out = tmp_path / "result.json"
    assert run_cli(*base, "--format", "json", "--out", str(out)) == 0
    assert calls == []
    problem = build_constructed_secure_problem((2, 4, 2), 7)
    _, deviation = check_zero_leakage(problem)
    expected = {"verdict": "pass", "max_deviation": deviation, **result_to_json(localise(problem))}
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _problem_file(tmp_path):
    layout = Layout((("A1", 2), ("A2", 2), ("B", 2)))
    problem = dense_problem(layout, np.eye(8, dtype=complex), basis_ket(2, 0), basis_ket(2, 0))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    return str(path)


def _scheme_file(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme_to_json(build_qotp_scheme(1))))
    return str(path)


_UNREGISTERED = "unrecognized arguments"
_FILE_INPUT = "does not apply"


@pytest.mark.parametrize(
    "argv, option, message",
    [
        pytest.param(
            ("audit", "--set-size", "4", "--seed", "5"), "--seed", _UNREGISTERED, id="audit-seed"
        ),
        pytest.param(
            ("audit", "--set-size", "4", "--params", "n=1"),
            "--params",
            _UNREGISTERED,
            id="audit-params",
        ),
        pytest.param(
            ("audit", "--classical-bits", "2", "--tol", "equality=1e-3"),
            "--tol",
            _UNREGISTERED,
            id="audit-tol",
        ),
        pytest.param(
            ("list-catalog", "--seed", "9"), "--seed", _UNREGISTERED, id="list-catalog-seed"
        ),
        pytest.param(
            ("list-catalog", "--params", "n=1"), "--params", _UNREGISTERED, id="list-catalog-params"
        ),
        pytest.param(
            ("list-catalog", "--verify", "--tol", "equality=1e-3"),
            "--tol",
            _UNREGISTERED,
            id="list-catalog-tol",
        ),
        pytest.param(
            ("export-scheme", "--builder", "qotp", "--params", "n=1", "--tol", "equality=1"),
            "--tol",
            _UNREGISTERED,
            id="export-scheme-tol",
        ),
        pytest.param(
            ("export-scheme", "--builder", "qotp", "--params", "n=1", "--format", "text"),
            "--format",
            _UNREGISTERED,
            id="export-scheme-format",
        ),
        pytest.param(
            ("export-scheme", "--scheme", _scheme_file, "--params", "n=2"),
            "--params",
            _FILE_INPUT,
            id="export-scheme-file-params",
        ),
        pytest.param(
            ("check", "--scheme", _scheme_file, "--params", "n=2"),
            "--params",
            _FILE_INPUT,
            id="check-file-params",
        ),
        pytest.param(
            ("localise", "--problem", _problem_file, "--seed", "3"),
            "--seed",
            _UNREGISTERED,
            id="localise-file-seed",
        ),
        pytest.param(
            ("localise", "--builder", "leaky", "--params", "dims=2,2,2", "--seed", "3"),
            "--seed",
            _UNREGISTERED,
            id="localise-builder-seed",
        ),
        pytest.param(
            ("localise", "--problem", _problem_file, "--params", "dims=2,2,2"),
            "--params",
            _FILE_INPUT,
            id="localise-file-params",
        ),
    ],
)
def test_unread_options_rejected(tmp_path, capsys, argv, option, message):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert option in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("check", "--builder", "nope", "--params", "x=1"), id="check-params"),
        pytest.param(("check", "--builder", "nope"), id="check"),
        pytest.param(("export-scheme", "--builder", "nope", "--params", "n=1"), id="export-scheme"),
        pytest.param(("localise", "--builder", "nope", "--params", "x=1"), id="localise"),
    ],
)
def test_unknown_builder_is_named_before_its_parameters(capsys, argv):
    assert run_cli(*argv) == 1
    assert "argument --builder: invalid choice: 'nope'" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert run_cli("check", "--which", "nonsense") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid choice" in err


_SOURCES = {
    "check": ("--builder", "qotp", "--params", "n=1"),
    "localise": ("--builder", "constructed-secure", "--params", "dims=2,2,2", "seed=7"),
}
_ACCEPTED_TOLS = {
    "check": "security, completeness, theorem1",
    "localise": "leakage, rank",
}


@pytest.mark.parametrize(
    "command, name",
    [("check", name) for name in ("unitarity", "hermiticity", "rank", "equality", "leakage")]
    + [
        ("localise", name)
        for name in ("unitarity", "hermiticity", "equality", "security", "completeness", "theorem1")
    ],
)
def test_tolerances_the_command_does_not_read_rejected(capsys, command, name):
    assert run_cli(command, *_SOURCES[command], "--tol", f"{name}=1e-3") == 1
    err = capsys.readouterr().err
    assert f"unknown tolerance {name!r}" in err and _ACCEPTED_TOLS[command] in err


@pytest.mark.parametrize("which, name", [("security", "theorem1"), ("completeness", "security")])
def test_tolerances_no_requested_check_reads_rejected(capsys, which, name):
    argv = ("check", *_SOURCES["check"], "--which", which, "--tol", f"{name}=5")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: tolerances [{name!r}] are not read by checks [{which!r}]\n"


def test_theorem1_precondition_tolerance_is_read(capsys):
    argv = ("check", "--builder", "identity", "--params", "n=1", "--which", "theorem1")
    assert run_cli(*argv) == 3
    assert run_cli(*argv, "--tol", "security=2.0") == 2
    assert "theorem1: fail" in capsys.readouterr().out


def test_localise_leakage_tolerance_changes_outcome(tmp_path):
    out = tmp_path / "refusal.json"
    code = run_cli(
        "localise", "--builder", "leaky", "--params", "dims=2,2,2", "seed=1",
        "--tol", "leakage=1.0", "--format", "json", "--out", str(out),
    )
    assert code == 2
    assert read_json(out)["reason"] == "localisation-refused"


def test_localise_rank_tolerance_changes_rank(tmp_path):
    default = tmp_path / "default.json"
    coarse = tmp_path / "coarse.json"
    base = ("localise", *_SOURCES["localise"], "--format", "json")
    assert run_cli(*base, "--out", str(default)) == 0
    assert run_cli(*base, "--tol", "rank=0.9", "--out", str(coarse)) == 0
    assert read_json(default)["rank"] == 2
    assert read_json(coarse)["rank"] == 1


def test_localise_rank_above_every_eigenvalue_is_refused(capsys):
    # No eigenvalue above the cut: a refusal (exit 2), not a numpy error (exit 1).
    assert run_cli("localise", *_SOURCES["localise"], "--tol", "rank=1") == 2
    out = capsys.readouterr().out
    assert out.startswith("localise: refused") and "rank tolerance 1 " in out


@pytest.mark.parametrize(
    "command, file_option, make_file, builder",
    [
        pytest.param("check", "--scheme", _scheme_file, "identity", id="check"),
        pytest.param("export-scheme", "--scheme", _scheme_file, "identity", id="export-scheme"),
        pytest.param("localise", "--problem", _problem_file, "leaky", id="localise"),
    ],
)
def test_input_is_exactly_one_of_file_or_builder(
    tmp_path, capsys, command, file_option, make_file, builder
):
    assert run_cli(command, file_option, make_file(tmp_path), "--builder", builder) == 1
    assert "not allowed with" in capsys.readouterr().err
    assert run_cli(command) == 1
    assert "is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "builder, params, code",
    [("constructed-secure", ("dims=2,2,2", "seed=7"), 0), ("leaky", ("dims=2,2,2", "seed=1"), 2)],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_localise_checks_zero_leakage_once(monkeypatch, capsys, builder, params, code, fmt):
    calls = {"plaintext_dependence": 0}
    for module in (qhekit.qinfo, qhekit.checks, qhekit.localiser, qhekit.cli):
        for name in calls:
            if hasattr(module, name):

                def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    assert run_cli("localise", "--builder", builder, "--params", *params, "--format", fmt) == code
    assert "max_deviation" in capsys.readouterr().out
    assert calls == {"plaintext_dependence": 1}


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    sequence = [
        ("check", "--builder", "identity", "--bogus"),
        ("check", "--builder", "identity", "--params", "n=1", "--which", "security"),
        ("localise", "--builder", "leaky", "--params", "dims=2,2,2", "seed=1", "--format", "json"),
        ("audit", "--set-size", "5"),
        ("audit", "--set-size", "5", "--seed", "1"),
    ]

    def run_sequence(fresh):
        outcomes = []
        for argv in sequence:
            if fresh:
                qhekit.cli._build_parser.cache_clear()
            code = run_cli(*argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    expected = run_sequence(fresh=True)
    assert [code for code, _, _ in expected] == [1, 2, 2, 0, 1]

    builds = []
    original_init = qhekit.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(qhekit.cli._Parser, "__init__", counting_init)
    qhekit.cli._build_parser.cache_clear()
    assert run_sequence(fresh=False) == expected
    # The top-level parser is the only one constructed with prog="qhekit".
    assert builds.count("qhekit") == 1


# One non-string value per label field of a scheme file, and the register
# labels of a problem file: each is refused at its own field, never coerced.
_NON_STRING_LABELS = [
    pytest.param(("registers", 0, 0), 5, "scheme.registers[0]", id="register-label-number"),
    pytest.param(("input",), ["input"], "scheme.input", id="input-list"),
    pytest.param(("output",), None, "scheme.output", id="output-null"),
    pytest.param(("bob_initial",), [["key"]], "scheme.bob_initial[0]", id="bob-initial-entry-list"),
    pytest.param(("send_to_bob", 0), 1, "scheme.send_to_bob[0]", id="send-to-bob-entry-number"),
    pytest.param(
        ("return_to_alice", 0), None, "scheme.return_to_alice[0]", id="return-to-alice-entry-null"
    ),
    pytest.param(
        ("states", 0, "labels", 1), 4, "scheme.states[0].labels[1]", id="state-label-number"
    ),
    pytest.param(
        ("evaluations", 2, "operator", "labels", 0),
        True,
        "scheme.evaluations[2].operator.labels[0]",
        id="operator-label-bool",
    ),
    pytest.param(("evaluations", 0, "id"), 7, "scheme.evaluations[0].id", id="evaluation-id-number"),
    pytest.param(("name",), ["x"], "scheme.name", id="name-list"),
    pytest.param(("registers", 1, 0), None, "problem.registers[1]", id="problem-register-label-null"),
]


@pytest.mark.parametrize(
    "path, value, location",
    [
        *_NON_STRING_LABELS,
        pytest.param(("registers", 0, 1), None, "scheme.registers[0]", id="register-dim-null"),
        pytest.param(("encrypt", "rows"), None, "scheme.encrypt", id="matrix-rows-null"),
        pytest.param(("states", 0, "dim"), [4], "scheme.states[0]", id="state-dim-list"),
        pytest.param(("send_to_bob",), 5, "scheme.send_to_bob", id="send-to-bob-number"),
        pytest.param(
            ("return_to_alice",), "input", "scheme.return_to_alice", id="return-to-alice-string"
        ),
        pytest.param(("bob_initial",), "key", "scheme.bob_initial", id="bob-initial-string"),
        pytest.param(("input",), "nowhere", "scheme", id="input-unknown-register"),
        pytest.param(
            ("isometry", "rows"), None, "problem.isometry", id="problem-isometry-rows-null"
        ),
    ],
)
def test_malformed_files_exit_one_with_one_located_line(tmp_path, capsys, path, value, location):
    if location.startswith("problem"):
        command, obj = "localise", problem_to_json(build_constructed_secure_problem((2, 2, 2), 7))
    else:
        command, obj = "check", scheme_to_json(build_qotp_scheme(1))
    functools.reduce(operator.getitem, path[:-1], obj)[path[-1]] = value
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(obj))
    assert run_cli(command, f"--{location.split('.')[0]}", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {location}: ") and err.count("\n") == 1
    if location.endswith(("send_to_bob", "return_to_alice", "bob_initial")):
        assert err == f"error: {location}: expected a list of labels\n"
    if path == ("input",) and value == "nowhere":
        assert err == "error: scheme: input register 'nowhere' not in layout\n"
    if any(case.values == (path, value, location) for case in _NON_STRING_LABELS):
        assert err.startswith(f"error: {location}: expected a string, got ")


def test_scheme_file_with_role_tags_is_refused(tmp_path, capsys):
    # Per-register role tags do not name the input register; a scheme file must.
    obj = scheme_to_json(build_qotp_scheme(1))
    del obj["input"], obj["bob_initial"]
    obj["roles"] = {"input": "input", "key": "key", "key_purifier": "key"}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check", "--scheme", str(path)) == 1
    assert capsys.readouterr().err == "error: scheme: missing field 'input'\n"


def test_problem_file_without_isometry_is_refused(tmp_path, capsys):
    # A dense unitary with aux and remote kets is not a problem file.
    layout = Layout((("A1", 2), ("A2", 2), ("B", 2)))
    old = {
        "format": "qhekit-localisation-problem",
        "registers": layout_to_json(layout),
        "unitary": matrix_to_json(np.eye(8)),
        "aux_state": ket_to_json(basis_ket(2, 0)),
        "remote_state": ket_to_json(basis_ket(2, 0)),
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    assert run_cli("localise", "--problem", str(path)) == 1
    assert capsys.readouterr().err == "error: problem: missing field 'isometry'\n"


def test_problem_file_with_non_orthonormal_isometry_is_refused(tmp_path, capsys):
    obj = problem_to_json(build_constructed_secure_problem((2, 2, 2), 7))
    obj["isometry"]["entries"][0] = [2.0, 0.0]
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(obj))
    assert run_cli("localise", "--problem", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: problem: input isometry columns are not orthonormal within tolerance\n"
    )


_GUARD = "total dimension 4104 exceeds the 2^12 generator guard"


@pytest.mark.parametrize(
    "builder, dims, message",
    [
        # 2 * 2 * 1026 > 2^12.
        pytest.param("constructed-secure", "2,2,1026", _GUARD, id="constructed-secure"),
        pytest.param("leaky", "2,2,1026", _GUARD, id="leaky"),
        *[
            pytest.param(b, d, f"dims must each be at least 2, got {d}", id=f"{b}-dims={d}")
            for b in ("constructed-secure", "leaky")
            for d in ("0,2,2", "-2,-2,2", "2,0,2", "1,2,2")
        ],
    ],
)
def test_problem_builder_guard_runs_before_any_dense_work(
    monkeypatch, capsys, builder, dims, message
):
    def no_draws(*args):
        raise AssertionError("a Haar draw ran before the dims check")

    for name in ("haar_unitary", "haar_ket"):
        monkeypatch.setattr(importlib.import_module("qhekit.catalog"), name, no_draws)
    assert run_cli("localise", "--builder", builder, "--params", f"dims={dims}") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_list_catalog_prints_parameters_that_check_reads(capsys):
    # Each entry's printed parameters, passed to check --builder, give its verdicts.
    assert run_cli("list-catalog") == 0
    lines = capsys.readouterr().out.splitlines()
    entries = catalog()
    assert len(lines) == len(entries)
    for entry, line in zip(entries, lines, strict=True):
        head, expected = line.split("  expected: ")
        name, builder, *params = head.split(" ")
        assert (name, builder) == (f"{entry.name}:", entry.builder)
        assert expected == ", ".join(f"{k}={v}" for k, v in sorted(entry.expected.items()))
        code = run_cli("check", "--builder", builder, "--params", *params, "--format", "json")
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert {name: report["verdict"] for name, report in reports.items()} == entry.expected
        assert code == (2 if "=fail" in expected else 3 if "inapplicable" in expected else 0)


def test_json_output_never_holds_nan_or_infinity(monkeypatch, capsys):
    # A report metric that is not finite is an error line, never a non-JSON token.
    nan_report = Report("security", FAIL, float("nan"), (("block-0-0", float("nan")),))
    monkeypatch.setattr(qhekit.cli, "run_checks", lambda *args: {"security": nan_report})
    argv = ("check", "--builder", "qotp", "--params", "n=1", "--which", "security")
    assert run_cli(*argv, "--format", "json") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Out of range float values are not JSON compliant")
    assert run_cli(*argv) == 2  # the text format writes nan as it is
    assert "worst_metric=nan" in capsys.readouterr().out
