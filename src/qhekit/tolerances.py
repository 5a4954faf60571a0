"""The one threshold policy: every threshold value of the toolkit is written here."""

import dataclasses
from dataclasses import dataclass

# Fixed thresholds: they refuse malformed input or a broken premise, so no run varies them.
UNITARITY_TOL = 1e-10  # max-entry norm of U†U - I (W†W - I) an operator (isometry) may have
NORM_TOL = 1e-10  # |norm - 1| of an input ket or plaintext, |trace - 1| of a density operator
HERMITICITY_TOL = 1e-10  # max-entry norm of H - H† of a matrix taken as Hermitian
GRAM_REFUSAL = 1e-6  # localise builds no unitary beyond this max-entry branch Gram residual
EXTRACTION_PURITY = 0.99  # extract_plaintext reads no plaintext from a data factor less pure


@dataclass(frozen=True)
class Tolerances:
    """The thresholds a run may override; every module reads its defaults from here.

    rank        -- eigenvalues at or below this count as zero
    equality    -- default tolerance for value comparisons and verdicts
    """

    rank: float = 1e-10
    equality: float = 1e-9

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if not value > 0:
                raise ValueError(f"tolerance {name!r} must be positive, got {value}")


DEFAULT_TOLERANCES = Tolerances()
