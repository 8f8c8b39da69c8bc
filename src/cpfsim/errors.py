"""Exception types shared across the package."""


class CpfsimError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CpfsimError, ValueError):
    """Invalid parameters or malformed input data."""


class KernelRangeError(CpfsimError, ValueError):
    """Tabulated kernel evaluated outside its sampled time range."""


class GridMismatchError(ValidationError):
    """Requested time grid is incompatible with an existing sampled grid."""


class ConditioningImpossibleError(CpfsimError, ValueError):
    """The conditioning outcome has (numerically) zero probability."""


class ZeroProbabilityBranchError(CpfsimError, ValueError):
    """Collapse requested onto a projector branch of ~zero probability."""


class NonUnitaryMapError(CpfsimError, ValueError):
    """Second-interval channel angles do not form a unitary on a state
    populating both sectors of the single-excitation block."""


class PropagatorZeroCrossingError(CpfsimError, ValueError):
    """The propagator crosses zero on the grid; decay rates diverge there."""

    def __init__(self, index: int, t: float):
        self.index = index
        self.t = t
        super().__init__(
            f"propagator crosses zero near grid index {index} (t = {t:g}); "
            "rates are undefined from there on, restrict t_max"
        )


class UnsupportedRegimeError(CpfsimError, ValueError):
    """Operation called outside its supported regime (e.g. complex
    propagator values fed to the real-valued channel-map construction)."""


class InternalConsistencyError(CpfsimError, RuntimeError):
    """A quantity that is analytically guaranteed (e.g. a probability
    bound) was violated beyond numerical tolerance."""


class CoarseStepWarning(UserWarning):
    """Integration step too coarse to resolve the kernel correlation time."""
