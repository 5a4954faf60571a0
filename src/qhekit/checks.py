"""Verdict engines over schemes, gate arrays and evaluation-set sizes.

Every checker returns a machine-readable report: a pass/fail/inapplicable
verdict, the worst-case metric, a per-case table and the tolerances used.
"inapplicable" means a precondition of the statement under test failed, and
always carries a reason code.
"""

import math
import operator
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .layout import Layout, reduced_from_ket
from .linalg import (
    as_ket, as_square, basis_ket, is_unitary, positive_tolerance, unitaries_equal_up_to_phase
)
from .qinfo import plaintext_dependence, product_deviation_from_ket
from .scheme import QheScheme, encrypt_and_evaluate, evolve
from .tolerances import EQUALITY_TOL

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

REASON_SECURITY_FAILED = "security-precondition-failed"
REASON_COMPLETENESS_FAILED = "completeness-precondition-failed"
REASON_MESSAGE_CORRELATED = "message-correlated-with-retained-key"

# The scheme checks, in the order run_checks runs them.
CHECK_NAMES = ("security", "completeness", "theorem1")

# check_completeness holds each (dim, circuits, d) ket array of at most this
# many bytes, and at least one circuit, at a time.
_COMPLETENESS_CHUNK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class Report:
    kind: str
    verdict: str
    worst_metric: float
    cases: tuple[tuple[str, float], ...]
    tolerances: Mapping[str, float] = field(default_factory=dict)
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, FAIL, INAPPLICABLE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == INAPPLICABLE and not self.reason:
            raise ValueError("inapplicable verdicts must carry a reason code")


def _verdict(
    kind: str,
    cases: Sequence[tuple[str, float]],
    tol: float,
    tol_names: Sequence[str],
    context: Sequence[tuple[str, float]] = (),
) -> Report:
    """A pass/fail report: pass iff the largest metric of `cases` (0.0 if none) is at most tol.

    `context` rows are listed first in the report but do not decide it; the
    report names tol once per entry of `tol_names`.
    """
    worst = max((metric for _, metric in cases), default=0.0)
    verdict = PASS if worst <= tol else FAIL
    return Report(kind, verdict, worst, (*context, *cases), dict.fromkeys(tol_names, tol))


def _distinct_pairs(items: Iterable[tuple[Any, np.ndarray]]) -> list[tuple[Any, Any]]:
    """Keys (a, b), a listed before b, of (key, operator) items that differ beyond a phase."""
    pairs = combinations(items, 2)
    return [(a, b) for (a, u), (b, v) in pairs if not unitaries_equal_up_to_phase(u, v)]


def check_security(scheme: QheScheme, tol: float = EQUALITY_TOL) -> Report:
    """Is Bob's t1 reduced state independent of the plaintext?

    Bob's state is linear in the plaintext, so one plaintext_dependence call
    on the encryption isometry decides it for every plaintext: case
    "block-<j>-<k>", j <= k, is eps_jk (see qinfo.plaintext_dependence for
    its bounds).
    """
    positive_tolerance("security", tol)
    d = scheme.input_dim
    eps, _ = plaintext_dependence(scheme.encryption_isometry, scheme.layout, scheme.bob_t1)
    cases = [(f"block-{j}-{k}", float(eps[j, k])) for j in range(d) for k in range(j, d)]
    return _verdict("security", cases, tol, ("security",))


def check_completeness(scheme: QheScheme, tol: float = EQUALITY_TOL) -> Report:
    """Does decryption yield the target circuit's output for every plaintext?

    The pipeline is linear in the plaintext, so one certificate per circuit
    decides it exactly.  K is circuit c's slice of evolve(scheme, ids, I)[2],
    dim x d; with the output register first and every other one, Bob's
    included, as the rest, R = (T† ⊗ I) K has shape (d_out, d_rest, d).
    Case "<c>/certificate" is delta = ||R - I ⊗ r||_op, R taken as a
    (d_out d_rest) x d matrix and r = (1/d) sum_j R[j, :, j].  delta = 0 iff
    every plaintext psi decrypts to T psi in a product with one fixed state
    of all other registers.  The circuits go through evolve in chunks, each
    chunk's kets within _COMPLETENESS_CHUNK_BYTES.  Each chunk's matrices
    R - I ⊗ r come from one stacked product.  Each is tall, (d_out d_rest)
    x d, so delta is the top singular value of the d x d triangular factor
    of its R-only QR, one stacked QR per chunk: a matrix and that factor
    share their singular values, and no decomposition reads the long side.

    Bound: for a unit psi, phi = (T† ⊗ I) K psi is a unit ket within delta
    of psi ⊗ r.  With P = |psi><psi| ⊗ I, which fixes psi ⊗ r, the output's
    infidelity with T psi is 1 - F = ||(1 - P) phi||^2 <= delta^2, and so
    1 - F <= delta as 1 - F <= 1.  With P phi = psi ⊗ s, phi is at trace
    distance sqrt(1 - F) from the product psi ⊗ s/||s||; the triangle
    inequality over the joint and both marginals bounds the output's
    product deviation from any other registers by 3 sqrt(1 - F) <= 3 delta.
    """
    positive_tolerance("completeness", tol)
    d = scheme.input_dim
    dims = scheme.layout.dims
    out = scheme.layout.position(scheme.output_label)
    ids = scheme.circuit_ids
    chunk = max(1, _COMPLETENESS_CHUNK_BYTES // (scheme.layout.dim * d * 16))
    cases = []
    for start in range(0, len(ids), chunk):
        chunk_ids = ids[start : start + chunk]
        n = len(chunk_ids)
        _, _, kets = evolve(scheme, chunk_ids, np.eye(d))
        # (circuit, output register, rest..., plaintext), flattened to K per circuit.
        k = np.moveaxis(kets.reshape(dims + (n, d)), (len(dims), out), (0, 1))
        targets = np.stack([ev.target for ev in scheme.evaluations[start : start + chunk]])
        rel = targets.conj().swapaxes(1, 2) @ k.reshape(n, dims[out], -1)
        rel = rel.reshape(n, dims[out], -1, d)  # R; then R - I ⊗ r
        rel[:, np.arange(d), :, np.arange(d)] -= np.einsum("cjrj->cr", rel) / d
        # ||R - I ⊗ r||_op is the top singular value of its d x d QR triangle.
        cores = np.linalg.qr(rel.reshape(n, -1, d), mode="r")
        deltas = np.linalg.svd(cores, compute_uv=False)[:, 0]
        cases += [(f"{cid}/certificate", float(delta)) for cid, delta in zip(chunk_ids, deltas)]
    return _verdict("completeness", cases, tol, ("completeness",))


def check_theorem1(
    scheme: QheScheme,
    psi_in: np.ndarray,
    tol: float = EQUALITY_TOL,
    security_report: Report | None = None,
    completeness_report: Report | None = None,
) -> Report:
    """Must distinct evaluations leave Bob's messages on orthogonal supports?

    Preconditions: the scheme must pass the security and completeness checks
    (reports may be supplied to avoid recomputation); failures yield an
    inapplicable verdict, never a silent skip.  Stage 1 tests the product
    hypothesis the orthogonality argument rests on: at t2 Alice's retained
    registers must be in a product with the message for every circuit, else
    the verdict is inapplicable with the deviations reported.  Stage 2 reads
    the message overlap Tr(rho_a rho_b) of each pair of circuits whose
    targets differ beyond a global phase, all from one Gram product of the
    flattened states; pass iff each is at most tol.  It is zero iff the
    supports are orthogonal and, bilinear in the states, continuous, so no
    rank cut moves the verdict; and Tr rho_a rho_b = ||√rho_a √rho_b||_2^2
    <= ||√rho_a √rho_b||_1^2 = F(rho_a, rho_b), the fidelity.  Both stages
    compare against tol, named "product-form" and "message-overlap", and
    read every circuit's t2 ket from one encrypt_and_evaluate call on psi_in.
    """
    tol_names = ("product-form", "message-overlap")
    tolerances = dict.fromkeys(tol_names, positive_tolerance("theorem1", tol))

    def inapplicable(worst: float, cases: Sequence[tuple[str, float]], reason: str) -> Report:
        return Report("theorem1", INAPPLICABLE, worst, tuple(cases), tolerances, reason)

    # A failed precondition's own metric is a case row; no theorem 1
    # quantity was measured, so worst_metric is 0.0.
    security = security_report or check_security(scheme)
    if security.verdict != PASS:
        row = ("precondition/security", security.worst_metric)
        return inapplicable(0.0, (row,), REASON_SECURITY_FAILED)
    completeness = completeness_report or check_completeness(scheme)
    if completeness.verdict != PASS:
        row = ("precondition/completeness", completeness.worst_metric)
        return inapplicable(0.0, (row,), REASON_COMPLETENESS_FAILED)

    psi_in = np.asarray(psi_in, dtype=complex).reshape(-1)  # evolve validates it
    circuit_ids = scheme.circuit_ids
    _, kets = encrypt_and_evaluate(scheme, circuit_ids, psi_in)  # (dim, circuits)

    retained = scheme.alice_t1
    if retained:
        deviations = product_deviation_from_ket(
            kets, scheme.layout, retained, scheme.return_to_alice
        ).tolist()
    else:
        deviations = [0.0] * len(circuit_ids)
    products = [(f"product-form/{cid}", dev) for cid, dev in zip(circuit_ids, deviations)]
    product_worst = max(0.0, *deviations)
    if product_worst > tol:
        return inapplicable(product_worst, products, REASON_MESSAGE_CORRELATED)

    flat = reduced_from_ket(kets, scheme.layout, scheme.return_to_alice).reshape(kets.shape[1], -1)
    gram = (flat.conj() @ flat.T).real  # F's rows are the message states; G_ab = Tr(rho_a rho_b)
    pairs = _distinct_pairs(enumerate(ev.target for ev in scheme.evaluations))
    overlaps = [(f"overlap/{circuit_ids[i]}|{circuit_ids[j]}", float(gram[i, j])) for i, j in pairs]
    return _verdict("theorem1", overlaps, tol, tol_names, context=products)


def run_checks(
    scheme: QheScheme,
    which: Sequence[str] = CHECK_NAMES,
    tols: Mapping[str, float] | None = None,
) -> dict[str, Report]:
    """The named scheme checks, keyed in the order given.

    The one place that orders the checks: theorem 1 runs on basis_ket(d, 0)
    with this run's security and completeness reports as its preconditions,
    so each check runs at most once.  tols maps check names to verdict
    thresholds; a check it does not name uses EQUALITY_TOL.  A tolerance that
    is not positive, or of a check that does not run, as itself or as theorem
    1's precondition, raises ValueError before any check runs.
    """
    tols = {name: positive_tolerance(name, tol) for name, tol in (tols or {}).items()}
    unknown = [name for name in (*which, *tols) if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; known: {', '.join(CHECK_NAMES)}")
    runs = CHECK_NAMES if "theorem1" in which else which
    unread = [name for name in tols if name not in runs]
    if unread:
        raise ValueError(f"tolerances {unread} are not read by checks {list(which)}")
    reports = {}
    if "security" in runs:
        reports["security"] = check_security(scheme, tols.get("security", EQUALITY_TOL))
    if "completeness" in runs:
        reports["completeness"] = check_completeness(scheme, tols.get("completeness", EQUALITY_TOL))
    if "theorem1" in runs:
        reports["theorem1"] = check_theorem1(
            scheme,
            basis_ket(scheme.input_dim, 0),
            tols.get("theorem1", EQUALITY_TOL),
            security_report=reports["security"],
            completeness_report=reports["completeness"],
        )
    return {name: reports[name] for name in which}


def check_no_programming(
    gate: np.ndarray, layout: Layout, programs: Sequence[np.ndarray]
) -> Report:
    """Programs selecting distinct operations must be orthogonal.

    The layout must hold exactly a (program, data) register pair.  For each
    program the gate must act deterministically: every data input psi must
    leave as (fixed program remnant) ⊗ (unitary applied to psi).  Programs
    failing that are flagged non-deterministic and excluded from the
    pairwise orthogonality assertion; for the rest, any two whose extracted
    unitaries differ beyond a global phase must have overlap
    |<p_i|p_j>| <= tol, with tol = EQUALITY_TOL.

    The output is linear in the data input, so one contraction per program
    decides it for every input: X[p, o, j] = sum_q G[(p, o), (q, j)]
    program[q] is the isometry from data inputs to outputs, and
    ||X psi|| = 1 for every unit psi, as G is unitary.  The remnant r is the
    dominant left singular vector of X[:, :, 0], the output for data input
    |0>, and W = (r† ⊗ I) X is the extracted map.  An input psi keeps weight
    ||W psi||^2 on the remnant, so case "program-<i>/determinism" is
    1 - sigma_min(W)^2, the exact worst case over all unit inputs; the
    program is non-deterministic when it exceeds tol.  Since
    ||W psi|| <= ||X psi|| = 1, passing gives (1 - tol) I <= W†W <= I, so
    every entry of W†W - I is within tol and W needs no separate
    unitarity test.
    """
    if len(layout.registers) != 2:
        raise ValueError(f"layout must hold (program, data) registers, got {layout.labels}")
    d_prog, d_data = layout.dims
    gate = as_square(gate, "gate array")
    if gate.shape[0] != layout.dim:
        raise ValueError(f"gate dimension {gate.shape[0]} != layout dimension {layout.dim}")
    if not is_unitary(gate):
        raise ValueError("gate array is not unitary within tolerance")

    blocks = gate.reshape(d_prog, d_data, d_prog, d_data)
    cases = []
    extracted: dict[int, np.ndarray] = {}
    kets = [as_ket(p, f"program {i}") for i, p in enumerate(programs)]
    for i, program in enumerate(kets):
        if program.size != d_prog:
            raise ValueError(f"program {i} has dimension {program.size}, register has {d_prog}")
        x = np.einsum("poqj,q->poj", blocks, program)
        u, _, _ = np.linalg.svd(x[:, :, 0])
        w = np.einsum("p,poj->oj", u[:, 0].conj(), x)
        leak = float(1.0 - np.linalg.svd(w, compute_uv=False)[-1] ** 2)
        kind = "determinism" if leak <= EQUALITY_TOL else "non-deterministic"
        cases.append((f"program-{i}/{kind}", leak))
        if leak <= EQUALITY_TOL:
            extracted[i] = w

    overlaps = [
        (f"overlap/program-{i}|program-{j}", float(abs(np.vdot(kets[i], kets[j]))))
        for i, j in _distinct_pairs(extracted.items())
    ]
    return _verdict("no-programming", overlaps, EQUALITY_TOL, ("support-overlap",), context=cases)


@dataclass(frozen=True)
class DimensionAudit:
    """Exact integer accounting of the message size an evaluation set forces.

    qubits_required is the exact ceiling of log2(set_size).  The reversible-
    classical variant additionally records the bit count n, the basis-state
    count 2^n, exact floor/ceil of log2((2^n)!), and whether
    log2((2^n)!) >= 2^n holds (exact big-integer comparison).
    """

    verdict: str
    set_size: int
    qubits_required: int
    classical_bits: int | None = None
    state_count: int | None = None
    log2_floor: int | None = None
    log2_ceil: int | None = None
    exponential_bound_holds: bool | None = None


def qubits_for_set(set_size: int) -> int:
    """Exact ceil(log2(set_size)) via big-integer bit structure; 2.5 is refused, not truncated."""
    try:
        set_size = operator.index(set_size)
    except TypeError:
        raise TypeError(f"set size {set_size!r} is not an integer") from None
    if set_size < 1:
        raise ValueError(f"set size must be >= 1, got {set_size}")
    return (set_size - 1).bit_length()


def audit_dimension(set_size: int) -> DimensionAudit:
    """Minimum qubits able to carry one orthogonal message state per circuit."""
    qubits = qubits_for_set(set_size)  # refuses a non-integer set_size
    return DimensionAudit(verdict=PASS, set_size=operator.index(set_size), qubits_required=qubits)


def audit_reversible_classical(n: int) -> DimensionAudit:
    """Audit the evaluation set of all reversible classical operations on n bits.

    There are (2^n)! permutations of the n-bit states; the audit reports the
    exact qubit requirement and checks log2((2^n)!) >= 2^n exactly.  The
    bound fails at n = 1 (log2 2 = 1 < 2) and holds for 2 <= n <= 6.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"classical bit count must be in 1..6 for exact audit, got {n}")
    states = 2**n
    set_size = math.factorial(states)
    return DimensionAudit(
        verdict=PASS,
        set_size=set_size,
        qubits_required=qubits_for_set(set_size),
        classical_bits=n,
        state_count=states,
        log2_floor=set_size.bit_length() - 1,
        log2_ceil=qubits_for_set(set_size),
        exponential_bound_holds=set_size >= 2**states,
    )
