"""Exception types shared across the package.

Plain ``ValueError`` is used for invalid arguments; everything numeric that
can fail at runtime gets its own class so the CLI can map failures to exit
codes (0 ok, 2 config, 3 numeric, 4 io).
"""


class NumericError(RuntimeError):
    """A computation produced non-finite or meaningless values."""


class DivergenceError(NumericError):
    """The requested quantity diverges (no finite limit exists)."""


class NoSolutionError(NumericError):
    """A root-finding bracket contains no sign change."""


class AssumptionViolatedError(ValueError):
    """Inputs do not satisfy the translation-invariance assumption."""


class ResolutionError(ValueError):
    """Requested spectral degree exceeds what the quadrature resolves."""


class InvalidDatasetError(ValueError):
    """Dataset violates a structural invariant (duplicates, colinearity)."""
