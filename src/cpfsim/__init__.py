"""cpfsim: conditional past-future correlations for qubit decay into a
bosonic bath.

The conditional past-future (CPF) correlation of three successive
projective measurements witnesses quantum memory through the two-time
convolution G2(t, tau) of the propagator with the bath correlation, and
can therefore stay nonzero even where every propagator-based witness
(positive decay rate, monotonic survival) declares the dynamics
Markovian. This package computes it exactly (Volterra solutions and
Lorentzian closed forms), operationally (channel-map enumeration), and
experimentally (finite-count and visibility noise simulation).
"""
from .bath import (
    BathKernel,
    LorentzianKernel,
    TabulatedKernel,
    eval_kernel_grid,
    load_kernel_csv,
)
from .cpf import (
    CpfResult,
    InitialState,
    MeasurementScheme,
    cpf_closed_form,
    cpf_from_table,
)
from .experiment import ExperimentConfig, run_noise_study
from .propagator import (
    backflow_probabilities,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
    rates_from_G,
)

__version__ = "0.1.0"

# The channel-map oracle is imported on first use (PEP 562): only `validate`
# and the tests need it, so the other subcommands start without it.
_CHANNEL_NAMES = frozenset({
    "ChannelAngles",
    "JointState",
    "angles_from_propagator",
    "apply_U_t",
    "apply_U_tau",
    "conditional_table",
    "prepare_joint",
    "project",
    "simulate_sequence",
})


def __getattr__(name):
    if name in _CHANNEL_NAMES:
        from . import channel

        return getattr(channel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BathKernel",
    "ChannelAngles",
    "CpfResult",
    "ExperimentConfig",
    "InitialState",
    "JointState",
    "LorentzianKernel",
    "MeasurementScheme",
    "TabulatedKernel",
    "angles_from_propagator",
    "apply_U_t",
    "apply_U_tau",
    "backflow_probabilities",
    "conditional_table",
    "cpf_closed_form",
    "cpf_from_table",
    "eval_kernel_grid",
    "load_kernel_csv",
    "lorentzian_G",
    "lorentzian_G_two_time",
    "prepare_joint",
    "project",
    "propagators",
    "rates_from_G",
    "run_noise_study",
    "simulate_sequence",
]
