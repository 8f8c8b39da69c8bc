"""Exception types shared across the package."""


class CpfsimError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CpfsimError, ValueError):
    """Invalid parameters or malformed input data."""


class KernelRangeError(CpfsimError, ValueError):
    """Tabulated kernel evaluated outside its sampled time range."""


class ConditioningImpossibleError(CpfsimError, ValueError):
    """The conditioning outcome has (numerically) zero probability."""


class InternalConsistencyError(CpfsimError, RuntimeError):
    """A quantity that is analytically guaranteed (e.g. a probability
    bound) was violated beyond numerical tolerance."""
