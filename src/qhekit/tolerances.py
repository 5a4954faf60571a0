"""The one threshold policy: every threshold value of the toolkit is written here."""

# Fixed thresholds: they refuse malformed input or a broken premise, so no run varies them.
UNITARITY_TOL = 1e-10  # max-entry norm of U†U - I (W†W - I) an operator (isometry) may have
NORM_TOL = 1e-10  # |norm - 1| of an input ket or plaintext, |trace - 1| of a density operator
HERMITICITY_TOL = 1e-10  # max-entry norm of H - H† of a matrix taken as Hermitian
GRAM_REFUSAL = 1e-6  # localise builds no unitary beyond this max-entry branch Gram residual
EXTRACTION_PURITY = 0.99  # extract_plaintext reads no plaintext from a data factor less pure

# Defaults a run may override, each through a keyword of the one function that reads it.
RANK_TOL = 1e-10  # eigenvalues at or below this count as zero; localise's rank_tol
EQUALITY_TOL = 1e-9  # verdict threshold; the checks' tol, localise's leakage_tol
