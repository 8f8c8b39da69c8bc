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
from .bath import LorentzianKernel, TabulatedKernel, eval_kernel_grid, load_kernel_csv
from .channel import angles_from_propagator, conditional_table, simulate_sequence
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
    decay_rates,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
)

__version__ = "0.1.0"

__all__ = [
    "CpfResult",
    "ExperimentConfig",
    "InitialState",
    "LorentzianKernel",
    "MeasurementScheme",
    "TabulatedKernel",
    "angles_from_propagator",
    "backflow_probabilities",
    "conditional_table",
    "cpf_closed_form",
    "cpf_from_table",
    "decay_rates",
    "eval_kernel_grid",
    "load_kernel_csv",
    "lorentzian_G",
    "lorentzian_G_two_time",
    "propagators",
    "run_noise_study",
    "simulate_sequence",
]
