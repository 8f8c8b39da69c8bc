"""Exception types shared across the package."""


class CpfsimError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CpfsimError, ValueError):
    """Invalid parameters or malformed input data."""


class KernelRangeError(CpfsimError, ValueError):
    """Tabulated kernel evaluated outside its sampled time range."""


class ConditioningImpossibleError(CpfsimError, ValueError):
    """The conditioning outcome has (numerically) zero probability."""


class PropagatorZeroCrossingError(CpfsimError, ValueError):
    """The propagator crosses zero on the grid; decay rates diverge there."""

    def __init__(self, index: int, t: float):
        self.index = index
        self.t = t
        super().__init__(
            f"propagator crosses zero near grid index {index} (t = {t:g}); "
            "rates are undefined from there on, restrict t_max"
        )


class InternalConsistencyError(CpfsimError, RuntimeError):
    """A quantity that is analytically guaranteed (e.g. a probability
    bound) was violated beyond numerical tolerance."""
