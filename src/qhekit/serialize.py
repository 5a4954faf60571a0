"""JSON wire formats for every value the toolkit exchanges.

Matrices are {"rows", "cols", "entries"} with row-major [re, im] pairs;
kets are {"dim", "amplitudes"}.  A scheme file mirrors the QheScheme
constructor: the input, output and Bob's initial registers by name, and the
fixed states as one list of blocks in the scheme's order.  A localisation
problem is written as its (retained, remote) registers and its input
isometry, the dim x d matrix psi -> U (psi ⊗ aux ⊗ remote); a file with
three (data, aux, remote) registers is read with data and aux merged into
one retained register.  A localisation result is written as its factors,
the branch isometry and the residual weights; neither file holds a dense
unitary, and a completed localising unitary is not written, since its spare
columns are arbitrary.
Values are read back as IEEE doubles; bit-exact decimal round-trips are not
promised.  Index convention everywhere: the first register is the most
significant digit of the flat index.
"""

from collections.abc import Mapping
from typing import Any

import numpy as np

from ._version import __version__
from .checks import DimensionAudit, Report
from .layout import Layout
from .localiser import LocalisationProblem, LocalisationResult
from .scheme import Evaluation, FootprintOp, QheScheme, RegisterState


class SchemeFormatError(ValueError):
    """Malformed serialized input, with the offending location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class _located:
    """Turn a ValueError or TypeError raised in the body into a SchemeFormatError at where.

    A class, not a @contextmanager generator, whose entry costs about four
    times as much: reading one scheme file enters it a few dozen times.
    """

    def __init__(self, where: str):
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, (TypeError, ValueError)) and not isinstance(exc, SchemeFormatError):
            raise SchemeFormatError(self.where, str(exc)) from None


def _require(obj: Mapping, key: str, where: str) -> Any:
    if not isinstance(obj, Mapping):
        raise SchemeFormatError(where, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemeFormatError(where, f"missing field {key!r}")
    return obj[key]


def _label(value: Any, where: str) -> str:
    """A JSON string field: a register label, circuit id or name, never coerced."""
    if not isinstance(value, str):
        raise SchemeFormatError(where, f"expected a string, got {value!r}")
    return value


def _labels(obj: Mapping, key: str, where: str, non_empty: bool = False) -> tuple[str, ...]:
    labels = _require(obj, key, where)
    if not isinstance(labels, list) or (non_empty and not labels):
        message = "expected a non-empty label list" if non_empty else "expected a list of labels"
        raise SchemeFormatError(f"{where}.{key}", message)
    return tuple(_label(label, f"{where}.{key}[{i}]") for i, label in enumerate(labels))


def _integer(value: Any, name: str, where: str) -> int:
    """A JSON integer field; a float, string or boolean is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemeFormatError(where, f"{name} must be an integer, got {value!r}")
    return value


def _pairs_to_complex(pairs: Any, count: int, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != count:
        raise SchemeFormatError(where, f"expected {count} [re, im] pairs")
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemeFormatError(where, f"non-numeric entries: {exc}") from None
    if arr.shape != (count, 2):
        raise SchemeFormatError(where, f"expected shape ({count}, 2), got {arr.shape}")
    # numpy reads "1" and true as 1.0 and null as nan; a JSON number is an int or a float.
    for pair in pairs:
        for value in pair:
            if type(value) is not float and type(value) is not int:
                raise SchemeFormatError(where, f"entries must be JSON numbers, got {value!r}")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _complex_to_pairs(m)}


def matrix_from_json(obj: Mapping, where: str = "matrix") -> np.ndarray:
    rows, cols = (_integer(_require(obj, key, where), key, where) for key in ("rows", "cols"))
    if rows < 1 or cols < 1:
        raise SchemeFormatError(where, f"non-positive shape ({rows}, {cols})")
    entries = _pairs_to_complex(_require(obj, "entries", where), rows * cols, f"{where}.entries")
    if not np.all(np.isfinite(entries)):
        raise SchemeFormatError(where, "non-finite entries")
    return entries.reshape(rows, cols)


def ket_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    return {"dim": int(v.size), "amplitudes": _complex_to_pairs(v)}


def ket_from_json(obj: Mapping, where: str = "ket") -> np.ndarray:
    dim = _integer(_require(obj, "dim", where), "dim", where)
    if dim < 1:
        raise SchemeFormatError(where, f"non-positive dimension {dim}")
    return _pairs_to_complex(_require(obj, "amplitudes", where), dim, f"{where}.amplitudes")


def layout_to_json(layout: Layout) -> list:
    return [[label, dim] for label, dim in layout.registers]


def layout_from_json(obj: Any, where: str = "registers") -> Layout:
    if not isinstance(obj, list) or not obj:
        raise SchemeFormatError(where, "expected a non-empty list of [label, dim] pairs")
    regs = []
    for i, item in enumerate(obj):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemeFormatError(f"{where}[{i}]", "expected a [label, dim] pair")
        regs.append((_label(item[0], f"{where}[{i}]"), _integer(item[1], "dim", f"{where}[{i}]")))
    with _located(where):
        return Layout(tuple(regs))


def _footprint_to_json(op: FootprintOp) -> dict:
    control = {} if op.control is None else {"control": op.control}
    blocks = op.matrix.reshape(-1, op.matrix.shape[-1])  # a control's blocks, stacked row-wise
    return {"labels": list(op.labels), **control, **matrix_to_json(blocks)}


def _footprint_from_json(parent: Mapping, key: str, where: str, layout: Layout) -> FootprintOp:
    obj, where = _require(parent, key, where), f"{where}.{key}"
    labels = _labels(obj, "labels", where, non_empty=True)
    matrix = matrix_from_json(obj, where)
    control = _label(obj["control"], f"{where}.control") if "control" in obj else None
    with _located(where):
        if control is not None:
            (rows, b), c = matrix.shape, layout.dim_of([control])
            if rows != c * b:
                raise ValueError(f"{rows} rows, expected control dimension {c} x {b}")
            matrix = matrix.reshape(c, b, b)
        return FootprintOp(labels, matrix, control)


def scheme_to_json(scheme: QheScheme) -> dict:
    return {
        "format": "qhekit-scheme",
        "toolkit_version": __version__,
        "name": scheme.name,
        "registers": layout_to_json(scheme.layout),
        "input": scheme.input_label,
        "output": scheme.output_label,
        "bob_initial": list(scheme.bob_initial),
        "states": [
            {"labels": list(block.labels), **ket_to_json(block.ket)}
            for block in scheme.fixed_states
        ],
        "encrypt": _footprint_to_json(scheme.encrypt_op),
        "decrypt": _footprint_to_json(scheme.decrypt_op),
        "evaluations": [
            {
                "id": ev.circuit_id,
                "operator": _footprint_to_json(ev.operator),
                "target": matrix_to_json(ev.target),
            }
            for ev in scheme.evaluations
        ],
        "send_to_bob": list(scheme.send_to_bob),
        "return_to_alice": list(scheme.return_to_alice),
    }


def scheme_from_json(obj: Mapping, where: str = "scheme") -> QheScheme:
    layout = layout_from_json(_require(obj, "registers", where), f"{where}.registers")
    states_raw = _require(obj, "states", where)
    if not isinstance(states_raw, list):
        raise SchemeFormatError(f"{where}.states", "expected a list of state blocks")
    fixed_states = []
    for i, item in enumerate(states_raw):
        here = f"{where}.states[{i}]"
        labels = _labels(item, "labels", here, non_empty=True)
        with _located(here):
            fixed_states.append(RegisterState(labels, ket_from_json(item, here)))

    evals_raw = _require(obj, "evaluations", where)
    if not isinstance(evals_raw, list) or not evals_raw:
        raise SchemeFormatError(f"{where}.evaluations", "expected a non-empty list")
    evaluations = []
    for i, item in enumerate(evals_raw):
        here = f"{where}.evaluations[{i}]"
        with _located(here):
            evaluations.append(
                Evaluation(
                    _label(_require(item, "id", here), f"{here}.id"),
                    _footprint_from_json(item, "operator", here, layout),
                    matrix_from_json(_require(item, "target", here), f"{here}.target"),
                )
            )

    with _located(where):
        return QheScheme(
            name=_label(obj.get("name", "unnamed"), f"{where}.name"),
            layout=layout,
            input_label=_label(_require(obj, "input", where), f"{where}.input"),
            output_label=_label(_require(obj, "output", where), f"{where}.output"),
            bob_initial=_labels(obj, "bob_initial", where),
            fixed_states=tuple(fixed_states),
            encrypt_op=_footprint_from_json(obj, "encrypt", where, layout),
            decrypt_op=_footprint_from_json(obj, "decrypt", where, layout),
            evaluations=tuple(evaluations),
            send_to_bob=_labels(obj, "send_to_bob", where),
            return_to_alice=_labels(obj, "return_to_alice", where),
        )


def problem_to_json(problem: LocalisationProblem) -> dict:
    return {
        "format": "qhekit-localisation-problem",
        "toolkit_version": __version__,
        "registers": layout_to_json(problem.layout),
        "isometry": matrix_to_json(problem.isometry),
    }


def problem_from_json(obj: Mapping, where: str = "problem") -> LocalisationProblem:
    layout = layout_from_json(_require(obj, "registers", where), f"{where}.registers")
    isometry = matrix_from_json(_require(obj, "isometry", where), f"{where}.isometry")
    with _located(where):
        if len(layout.registers) == 3:
            (data, d1), (aux, d2), remote = layout.registers
            layout = Layout(((f"{data}*{aux}", d1 * d2), remote))
        return LocalisationProblem(layout, isometry)


def result_to_json(result: LocalisationResult) -> dict:
    return {
        "format": "qhekit-localisation-result",
        "toolkit_version": __version__,
        "branches": matrix_to_json(result.branches),
        "residual_weights": [float(w) for w in result.residual_weights],
        "rank": result.rank,
        "factor_dims": None if result.factor_dims is None else list(result.factor_dims),
        "gram_residual": result.gram_residual,
        "reconstruction_residual": result.reconstruction_residual,
    }


def report_to_json(report: Report) -> dict:
    out = {
        "kind": report.kind,
        "verdict": report.verdict,
        "worst_metric": report.worst_metric,
        "cases": [[case_id, metric] for case_id, metric in report.cases],
        "tolerances": dict(report.tolerances),
        "toolkit_version": __version__,
    }
    if report.reason is not None:
        out["reason"] = report.reason
    return out


def audit_to_json(audit: DimensionAudit) -> dict:
    out = {
        "kind": "dimension-audit",
        "verdict": audit.verdict,
        "set_size": audit.set_size,
        "qubits_required": audit.qubits_required,
        "toolkit_version": __version__,
    }
    if audit.classical_bits is not None:
        out.update(
            classical_bits=audit.classical_bits,
            state_count=audit.state_count,
            log2_floor=audit.log2_floor,
            log2_ceil=audit.log2_ceil,
            exponential_bound_holds=audit.exponential_bound_holds,
        )
    return out
