"""qhekit: numerics for the limits of non-interactive quantum homomorphic encryption.

Dense, desk-scale simulation of encrypt/evaluate/decrypt schemes on named
registers, with checkers for plaintext secrecy, deterministic completeness
and message-support orthogonality, a constructive data-localisation
procedure, and exact dimension audits for evaluation sets.
"""

from ._version import __version__
from .catalog import (
    CatalogEntry,
    build_constructed_secure_problem,
    build_controlled_flip_gate,
    build_identity_scheme,
    build_leaky_problem,
    build_qotp_scheme,
    build_tag_evaluate_scheme,
    catalog,
    pauli_word_matrix,
    pauli_words,
    verify_catalog,
)
from .checks import (
    DimensionAudit,
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
from .layout import (
    Layout,
    apply_operator,
    assemble_ket,
    embed_operator,
    reduced_from_ket,
)
from .linalg import (
    basis_ket,
    eig_hermitian,
    fidelity_pure,
    is_unitary,
    kron,
    random_ket,
    random_unitary,
    trace_distance,
    unitaries_equal_up_to_phase,
)
from .localiser import (
    ExtractionError,
    GramCheckFailed,
    LeakageDetected,
    LocalisationError,
    LocalisationProblem,
    LocalisationResult,
    RetainedState,
    check_zero_leakage,
    extract_plaintext,
    localise,
)
from .qinfo import (
    DensityOp,
    orthogonal_support,
)
from .scheme import (
    Evaluation,
    FootprintOp,
    PipelineTrace,
    QheScheme,
    RegisterState,
    localisation_problem_at_t1,
    run_pipeline,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "__version__",
    "CatalogEntry",
    "DEFAULT_TOLERANCES",
    "DensityOp",
    "DimensionAudit",
    "Evaluation",
    "ExtractionError",
    "FootprintOp",
    "GramCheckFailed",
    "Layout",
    "LeakageDetected",
    "LocalisationError",
    "LocalisationProblem",
    "LocalisationResult",
    "PipelineTrace",
    "QheScheme",
    "RegisterState",
    "Report",
    "RetainedState",
    "Tolerances",
    "apply_operator",
    "assemble_ket",
    "audit_dimension",
    "audit_reversible_classical",
    "basis_ket",
    "build_constructed_secure_problem",
    "build_controlled_flip_gate",
    "build_identity_scheme",
    "build_leaky_problem",
    "build_qotp_scheme",
    "build_tag_evaluate_scheme",
    "catalog",
    "check_completeness",
    "check_no_programming",
    "check_security",
    "check_theorem1",
    "check_zero_leakage",
    "eig_hermitian",
    "embed_operator",
    "extract_plaintext",
    "fidelity_pure",
    "is_unitary",
    "kron",
    "localisation_problem_at_t1",
    "localise",
    "orthogonal_support",
    "pauli_word_matrix",
    "pauli_words",
    "qubits_for_set",
    "random_ket",
    "random_unitary",
    "reduced_from_ket",
    "run_checks",
    "run_pipeline",
    "trace_distance",
    "unitaries_equal_up_to_phase",
    "verify_catalog",
]
