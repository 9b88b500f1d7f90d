"""Exception types shared across the package.

The CLI maps these onto exit codes: CapacityError becomes exit 3, every
other subclass of K3FMError becomes exit 2 (invalid input).
"""


class K3FMError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(K3FMError):
    """A numeric argument violates a precondition (t < 1, k not a unit, ...)."""


class InvalidLatticeError(K3FMError):
    """A Gram matrix is not symmetric, not even, or degenerate."""


class InvalidElementError(K3FMError):
    """A vector or coordinate tuple does not describe an element where one
    is required (not in the dual, wrong order, mismatched groups)."""


class InvalidSubgroupError(K3FMError):
    """A purported isotropic subgroup fails isotropy or pairing integrality."""


class InvalidIsometryError(K3FMError):
    """A generator matrix does not define a form-preserving automorphism."""


class InvalidMukaiVectorError(K3FMError):
    """A Mukai vector is imprimitive or has nonzero self-intersection."""


class NotApplicableError(K3FMError):
    """The question only makes sense under hypotheses the input violates."""


class OutOfScopeError(K3FMError):
    """The input is outside the range the theory covers (e.g. t <= 2)."""


class CapacityError(K3FMError):
    """An enumeration would exceed the configured budget, or a number
    cannot be factored within the factoriser's bounds.

    The offending budget is kept on the exception so callers (and the CLI)
    can name it in diagnostics.
    """

    def __init__(self, message: str, budget: int | None = None):
        # budget stays optional so the exception survives pickling across
        # multiprocessing workers (unpickling re-calls __init__ with args).
        super().__init__(message)
        self.budget = budget
