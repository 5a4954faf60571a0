"""Command-line entry point.

Commands: check, localise, audit, export-scheme, list-catalog.  Exit codes:
0 success / all requested verdicts pass, 1 malformed input, bad parameters
or a usage error, 2 any fail verdict or a localisation refusal, 3 inapplicable
verdicts only.  Reports are emitted as text or JSON; identical invocations
produce identical reports.
"""

import argparse
import functools
import json
import sys
from typing import Any, Callable

from ._version import __version__
from .catalog import (
    _PROBLEM_BUILDERS, _SCHEME_BUILDERS, build_problem, build_scheme, catalog, verify_catalog
)
from .checks import (
    CHECK_NAMES,
    FAIL,
    INAPPLICABLE,
    PASS,
    Report,
    audit_dimension,
    audit_reversible_classical,
    run_checks,
)
from .linalg import positive_tolerance
from .localiser import LeakageDetected, LocalisationError, localise
from .serialize import (
    audit_to_json,
    problem_from_json,
    report_to_json,
    result_to_json,
    scheme_from_json,
    scheme_to_json,
)
from .tolerances import EQUALITY_TOL, RANK_TOL

_MAX_TEXT_CASES = 12
# The tolerance names each command reads: check's verdict thresholds, and
# localise's leakage threshold plus its eigenvalue cut-off.
_TOL_NAMES = {"check": CHECK_NAMES, "localise": ("leakage", "rank")}


class CliError(Exception):
    """Input problem that maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every other input error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _parse_pairs(
    pairs: list[str],
    kind: str,
    accepted: tuple[str, ...],
    unknown: str,
    convert: Callable[[str, str], Any] | None = None,
) -> dict[str, Any]:
    """The NAME=VALUE pairs of --params or --tol, each value passed through convert(name, value).

    A pair without "=", a name outside accepted (reported by the unknown
    template) and a name given twice exit 1.
    """
    values = {}
    for pair in pairs:
        name, eq, value = (part.strip() for part in pair.partition("="))
        if not eq:
            form = "KEY=VALUE" if kind == "parameter" else "NAME=VALUE"
            raise CliError(f"{kind} {pair!r} is not of the form {form}")
        if name not in accepted:
            raise CliError(unknown.format(name, ", ".join(accepted)))
        if name in values:
            raise CliError(f"{kind} {name!r} is given twice")
        values[name] = convert(name, value) if convert else value
    return values


def _builder_params(builder: str, pairs: list[str], reads: tuple[str, ...]) -> dict[str, str]:
    unknown = f"builder {builder!r} does not read parameter {{!r}}; it reads: {{}}"
    return _parse_pairs(pairs, "parameter", reads, unknown)


def _integer(key: str, text: str | int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"parameter {key!r} has non-integer value {text!r}") from None


def _tolerance(name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"tolerance {name!r} has non-numeric value {text!r}") from None
    return positive_tolerance(name, value)


def _tolerances(args: argparse.Namespace) -> dict[str, float]:
    unknown = "unknown tolerance {!r}; accepted: {}"
    return _parse_pairs(args.tol, "tolerance", _TOL_NAMES[args.command], unknown, _tolerance)


def _scheme_params(builder: str, pairs: list[str]) -> dict[str, Any]:
    reads = ("n", "S") if builder == "tag-evaluate" else ("n",)
    params = _builder_params(builder, pairs, reads)
    if "n" not in params:
        raise CliError("scheme builders need n=N (e.g. n=1)")
    out: dict[str, Any] = {"n": _integer("n", params["n"])}
    if builder == "tag-evaluate":
        if not params.get("S"):
            raise CliError("tag-evaluate needs S=WORD,WORD,... (e.g. S=I,X,Z)")
        out["circuit_set"] = tuple(w for w in params["S"].split(",") if w)
    return out


def _problem_params(builder: str, pairs: list[str]) -> dict[str, Any]:
    params = _builder_params(builder, pairs, ("dims", "seed"))
    dims = params.get("dims")
    if not dims:
        raise CliError("problem builders need dims=D1,D2,D3")
    parts = [_integer("dims", x) for x in dims.split(",")]
    if len(parts) != 3:
        raise CliError(f"dims must have three components, got {dims!r}")
    return {"dims": tuple(parts), "seed": _integer("seed", params.get("seed", 0))}


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def _reject_unread(args: argparse.Namespace, options: tuple[str, ...], why: str) -> None:
    """Exit 1 on an explicit value for options this input never reads."""
    given = [f"--{name}" for name in options if getattr(args, name) not in (None, [])]
    if given:
        raise CliError(f"{', '.join(given)} does not apply {why}")


# The parser makes file and --builder one required choice, and checks the builder name first.
def _get_scheme(args: argparse.Namespace):
    if args.scheme is not None:
        _reject_unread(args, ("params",), "to a scheme read from a file")
        return scheme_from_json(_load_json(args.scheme))
    params = _scheme_params(args.builder, args.params)
    try:
        return build_scheme(args.builder, **params)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _get_problem(args: argparse.Namespace):
    if args.problem is not None:
        _reject_unread(args, ("params",), "to a problem read from a file")
        return problem_from_json(_load_json(args.problem))
    params = _problem_params(args.builder, args.params)
    try:
        return build_problem(args.builder, **params)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _emit(args: argparse.Namespace, text: str, payload: Any) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True)
    else:
        body = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def _report_lines(report: Report) -> list[str]:
    head = f"{report.kind}: {report.verdict}  worst_metric={report.worst_metric:.3e}"
    for name, value in report.tolerances.items():
        head += f"  {name}<={value:g}"
    if report.reason:
        head += f"  reason={report.reason}"
    lines = [head]
    # Rank by the value as printed, so metrics that print alike keep case
    # order (sorted is stable) whatever their last bits.
    worst = sorted(report.cases, key=lambda c: -float(f"{c[1]:.3e}"))[:_MAX_TEXT_CASES]
    for case_id, metric in worst:
        lines.append(f"  {case_id}  {metric:.3e}")
    if len(report.cases) > _MAX_TEXT_CASES:
        lines.append(f"  ... ({len(report.cases) - _MAX_TEXT_CASES} more cases)")
    return lines


def _verdict_exit(verdicts: list[str]) -> int:
    if any(v == FAIL for v in verdicts):
        return 2
    if any(v == INAPPLICABLE for v in verdicts):
        return 3
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    scheme = _get_scheme(args)
    reports = run_checks(scheme, CHECK_NAMES if args.which == "all" else (args.which,), tols)
    # Each format builds only its own output.
    if args.format == "json":
        payload = {
            "scheme": scheme.name,
            "reports": {name: report_to_json(report) for name, report in reports.items()},
        }
        _emit(args, "", payload)
    else:
        lines = [f"scheme: {scheme.name}"]
        for report in reports.values():
            lines.extend(_report_lines(report))
        _emit(args, "\n".join(lines), None)
    return _verdict_exit([report.verdict for report in reports.values()])


def _cmd_localise(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    problem = _get_problem(args)
    leakage = tols.get("leakage", EQUALITY_TOL)
    try:
        result = localise(problem, leakage_tol=leakage, rank_tol=tols.get("rank", RANK_TOL))
    except LeakageDetected as exc:
        payload = {
            "verdict": FAIL,
            "reason": "leakage-detected",
            "max_deviation": exc.deviation,
            "tolerances": {"leakage": leakage},
        }
        _emit(args, f"zero-leakage: fail  max_deviation={exc.deviation:.3e}", payload)
        return 2
    except LocalisationError as exc:
        payload = {"verdict": FAIL, "reason": "localisation-refused", "detail": str(exc)}
        _emit(args, f"localise: refused  {exc}", payload)
        return 2
    deviation = result.leakage_deviation
    lines = [f"zero-leakage: pass  max_deviation={deviation:.3e}", f"rank: {result.rank}"]
    if result.factor_dims is not None:
        lines.append(f"factor_dims: {result.factor_dims[0]}x{result.factor_dims[1]}")
    lines += [
        f"gram_residual: {result.gram_residual:.3e}",
        f"reconstruction_residual: {result.reconstruction_residual:.3e}",
    ]
    text = "\n".join(lines)
    _emit(args, text, {"verdict": PASS, "max_deviation": deviation, **result_to_json(result)})
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if (args.set_size is None) == (args.classical_bits is None):
        raise CliError("provide exactly one of --set-size or --classical-bits")
    if args.set_size is not None:
        if args.set_size < 1:
            raise CliError(f"--set-size must be >= 1, got {args.set_size}")
        audit = audit_dimension(args.set_size)
        text = f"set_size: {audit.set_size}\nqubits_required: {audit.qubits_required}"
    else:
        try:
            audit = audit_reversible_classical(args.classical_bits)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        text = "\n".join(
            [
                f"classical_bits: {audit.classical_bits}",
                f"state_count: {audit.state_count}",
                f"set_size: {audit.set_size}",
                f"qubits_required: {audit.qubits_required}",
                f"log2_floor: {audit.log2_floor}",
                f"log2_ceil: {audit.log2_ceil}",
                f"exponential_bound_holds: {str(audit.exponential_bound_holds).lower()}",
            ]
        )
    _emit(args, text, audit_to_json(audit))
    return 0


def _cmd_export_scheme(args: argparse.Namespace) -> int:
    scheme = _get_scheme(args)
    args.format = "json"  # scheme files are always JSON
    _emit(args, "", scheme_to_json(scheme))
    return 0


def _cmd_list_catalog(args: argparse.Namespace) -> int:
    if not args.verify:
        lines = []
        payload = []
        for entry in catalog():
            expect = ", ".join(f"{k}={v}" for k, v in sorted(entry.expected.items()))
            params = ", ".join(f"{k}={v}" for k, v in entry.params.items())
            lines.append(f"{entry.name}: {entry.builder}({params})  expected: {expect}")
            payload.append(
                {
                    "name": entry.name,
                    "builder": entry.builder,
                    "params": {k: list(v) if isinstance(v, tuple) else v for k, v in entry.params.items()},
                    "expected": dict(entry.expected),
                }
            )
        _emit(args, "\n".join(lines), payload)
        return 0
    all_match, rows = verify_catalog()
    lines = []
    payload_rows = []
    for name, checker, expected, actual in rows:
        mark = "ok" if expected == actual else "MISMATCH"
        lines.append(f"{name} {checker}: expected={expected} actual={actual} {mark}")
        payload_rows.append(
            {"entry": name, "checker": checker, "expected": expected, "actual": actual}
        )
    lines.append(f"catalog: {'all verdicts match' if all_match else 'verdict mismatches found'}")
    _emit(args, "\n".join(lines), {"all_match": all_match, "rows": payload_rows})
    return 0 if all_match else 2


# Built on first use, not at import, and shared by every later call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qhekit",
        description=(
            "Simulate homomorphic-encryption schemes on small quantum systems, "
            "test their security, completeness and message-orthogonality "
            "properties, run the data-localisation construction, and audit "
            "evaluation-set dimension bounds."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qhekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command registers only the options it reads.
    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--params", nargs="*", default=[], metavar="K=V", help="builder parameters"
        )

    def add_tol(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tol", nargs="*", default=[], metavar="NAME=VAL", help="tolerance overrides"
        )

    def add_source(p: argparse.ArgumentParser, file_option: str, what: str, builders: dict) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(file_option, help=f"{what} JSON file")
        source.add_argument("--builder", choices=tuple(builders), help=f"{what} builder")

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the output to this file instead of stdout")

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="run scheme checkers")
    add_source(p_check, "--scheme", "scheme", _SCHEME_BUILDERS)
    p_check.add_argument(
        "--which", choices=CHECK_NAMES + ("all",), default="all", help="which checker to run"
    )
    add_params(p_check)
    add_tol(p_check)
    add_format(p_check)
    add_out(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_loc = sub.add_parser("localise", help="run the data-localisation construction")
    add_source(p_loc, "--problem", "localisation problem", _PROBLEM_BUILDERS)
    add_params(p_loc)
    add_tol(p_loc)
    add_format(p_loc)
    add_out(p_loc)
    p_loc.set_defaults(func=_cmd_localise)

    p_audit = sub.add_parser("audit", help="evaluation-set dimension audit")
    p_audit.add_argument("--set-size", type=int, help="evaluation set cardinality")
    p_audit.add_argument(
        "--classical-bits", type=int, help="audit all reversible classical circuits on n bits"
    )
    add_format(p_audit)
    add_out(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_export = sub.add_parser("export-scheme", help="write a built scheme as JSON")
    add_source(p_export, "--scheme", "scheme", _SCHEME_BUILDERS)
    add_params(p_export)
    add_out(p_export)
    p_export.set_defaults(func=_cmd_export_scheme)

    p_cat = sub.add_parser("list-catalog", help="list or verify the scheme catalog")
    p_cat.add_argument(
        "--verify", action="store_true", help="run all checkers and compare with expectations"
    )
    add_format(p_cat)
    add_out(p_cat)
    p_cat.set_defaults(func=_cmd_list_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:  # SchemeFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
