"""Finite-count and visibility noise model of the photonic estimator.

The experiment estimates P(z, x | y) from coincidence counts N_{z,x}
registered in the detector pair selected by the intermediate outcome y.
Two imperfections are modeled, and only these two:

* Reduced interferometer visibility V scales the coherent interference
  term of the conditional probabilities. The z-z-z scheme is incoherent
  between measurements and is untouched by V; for x-z-x and y-z-y the
  degraded table is the convex combination V * P + (1 - V) * P_x x uniform,
  which preserves normalization and the past marginal exactly and scales
  the ideal correlation by exactly V.
* Finite statistics: each cell count is an independent Poisson draw around
  its ideal mean. The expected total refers to all coincidences of one
  (t, tau) setting, so the budget reaching the y-conditioned table is
  total_counts * P(y); as the excited-state probability dies out the
  y = +1 tables starve and their estimates degrade, which is the observed
  growth of the error bars.

All randomness flows from a single recorded seed through spawned
per-point / per-replica streams, so studies are exactly reproducible and
safely parallelizable.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .bath import BathKernel, LorentzianKernel
from .cpf import (
    _CELLS,
    _OUTCOMES,
    CpfResult,
    InitialState,
    MeasurementScheme,
    ProbabilityTable,
    build_table,
    cpf_from_table,
)
from .errors import ConditioningImpossibleError, NoDataError, ValidationError
from .propagator import lorentzian_G, lorentzian_G_two_time, solve_two_time_rows


@dataclass(frozen=True)
class ExperimentConfig:
    """Noise-model parameters: count budget, visibility, replication, seed."""

    total_counts: float
    visibility: float = 1.0
    replicas: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (self.total_counts > 0):
            raise ValidationError(f"total_counts must be > 0, got {self.total_counts}")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValidationError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {self.replicas}")


@dataclass(frozen=True)
class CountsTable:
    """Integer coincidence counts per (z, x) cell for one conditioning outcome."""

    scheme: MeasurementScheme
    y: int
    counts: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if set(self.counts.keys()) != set(_CELLS):
            raise ValidationError("counts must cover exactly the four (z, x) cells")
        counts = {k: int(v) for k, v in self.counts.items()}
        if any(v < 0 for v in counts.values()):
            raise ValidationError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def apply_visibility(
    tbl: ProbabilityTable, visibility: float, scheme: MeasurementScheme
) -> ProbabilityTable:
    """Degrade the coherent interference term of a conditional table by V."""
    if not (0.0 <= visibility <= 1.0):
        raise ValidationError(f"visibility must lie in [0, 1], got {visibility}")
    if scheme is not tbl.scheme:
        raise ValidationError(f"table is for {tbl.scheme}, not {scheme}")
    if scheme is MeasurementScheme.ZZZ or visibility == 1.0:
        return tbl
    entries = {
        (z, x): visibility * tbl.p(z, x) + (1.0 - visibility) * tbl.p_x(x) / 2.0
        for z in _OUTCOMES
        for x in _OUTCOMES
    }
    return ProbabilityTable(scheme=tbl.scheme, y=tbl.y, entries=entries)


def sample_counts(
    tbl: ProbabilityTable,
    cfg: ExperimentConfig,
    rng: Optional[np.random.Generator] = None,
) -> CountsTable:
    """Draw one counts table: independent Poisson cells with means
    total_counts * P(z, x | y), in a fixed cell order for reproducibility."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    counts = {
        cell: int(rng.poisson(cfg.total_counts * tbl.p(*cell))) for cell in _CELLS
    }
    return CountsTable(scheme=tbl.scheme, y=tbl.y, counts=counts)


def estimate_cpf(
    counts: CountsTable, t: Optional[float] = None, tau: Optional[float] = None
) -> CpfResult:
    """The experimental estimator: normalize counts to a probability table
    and evaluate the correlation on it."""
    total = counts.total
    if total == 0:
        raise NoDataError("no coincidences registered; cannot estimate")
    entries = {cell: counts.counts[cell] / total for cell in _CELLS}
    tbl = ProbabilityTable(scheme=counts.scheme, y=counts.y, entries=entries)
    return cpf_from_table(tbl, t=t, tau=tau)


@dataclass(frozen=True)
class NoisePoint:
    """Per-(t, tau) outcome of a noise study."""

    t: float
    tau: float
    ideal: float
    degraded_ideal: float
    mc_mean: float
    mc_std: float
    n_replicas: int
    flagged: bool  # no replica produced data (count starvation)


def _condition_probability(
    scheme: MeasurementScheme, state: InitialState, G_t: complex, y: int
) -> float:
    """P(y) for the budget split across the two detector pairs."""
    g_t2 = abs(complex(G_t)) ** 2
    if scheme is MeasurementScheme.ZZZ:
        p_plus = g_t2 * abs(state.a) ** 2
    else:
        p_plus = g_t2 / 2.0
    return p_plus if y == +1 else 1.0 - p_plus


def _propagator_values(
    kernel: BathKernel, times: np.ndarray, t_step: Optional[float]
) -> tuple[np.ndarray, np.ndarray]:
    """G(t_i) and the equal-times diagonal G2(t_i, t_i) for the study grid."""
    if isinstance(kernel, LorentzianKernel):
        g = np.asarray(lorentzian_G(kernel.gamma, kernel.tau_c, times), dtype=complex)
        g2 = np.asarray(
            lorentzian_G_two_time(kernel.gamma, kernel.tau_c, times, times),
            dtype=complex,
        )
        return g, g2
    if t_step is None:
        raise ValidationError("tabulated kernels need an explicit t_step")
    t_max = float(np.max(times))
    idx = np.asarray(np.rint(times / t_step), dtype=int)
    if np.min(idx) < 0 or np.max(np.abs(idx * t_step - times)) > 1e-9 * max(1.0, t_max):
        raise ValidationError("study times must be >= 0 and lie on the integration grid")
    grid, g2_rows = solve_two_time_rows(kernel, t_max, t_step, idx)
    return grid.values[idx], g2_rows[np.arange(idx.size), idx]


def run_noise_study(
    state: InitialState,
    scheme: MeasurementScheme,
    kernel: BathKernel,
    times: Sequence[float],
    cfg: ExperimentConfig,
    y: int = -1,
    t_step: Optional[float] = None,
) -> list[NoisePoint]:
    """Monte Carlo study of the estimator along the equal-times diagonal.

    For each t in ``times``: the ideal correlation, the visibility-degraded
    ideal, and mean/stddev of the finite-count estimates over
    ``cfg.replicas`` independent replicas. Points where conditioning is
    impossible or every replica starves are flagged (NaN statistics).
    """
    times = np.asarray(times, dtype=float)
    g_vals, g2_vals = _propagator_values(kernel, times, t_step)
    root = np.random.SeedSequence(cfg.seed)
    point_seeds = root.spawn(len(times))
    points: list[NoisePoint] = []
    for k, t in enumerate(times):
        g_t, g2_t = complex(g_vals[k]), complex(g2_vals[k])
        try:
            table = build_table(scheme, state, g_t, g_t, g2_t, y)
        except ConditioningImpossibleError:
            points.append(
                NoisePoint(t, t, np.nan, np.nan, np.nan, np.nan, 0, flagged=True)
            )
            continue
        ideal = 0.0 if y == +1 else cpf_from_table(table).value
        degraded_table = apply_visibility(table, cfg.visibility, scheme)
        degraded_ideal = 0.0 if y == +1 else cpf_from_table(degraded_table).value
        budget = cfg.total_counts * _condition_probability(scheme, state, g_t, y)
        estimates: list[float] = []
        if budget > 0.0:
            replica_cfg = dataclasses.replace(cfg, total_counts=budget)
            for seed in point_seeds[k].spawn(cfg.replicas):
                rng = np.random.default_rng(seed)
                sampled = sample_counts(degraded_table, replica_cfg, rng=rng)
                try:
                    estimates.append(estimate_cpf(sampled).value)
                except NoDataError:
                    continue
        if estimates:
            arr = np.asarray(estimates)
            mc_mean = float(np.mean(arr))
            mc_std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            points.append(
                NoisePoint(t, t, ideal, degraded_ideal, mc_mean, mc_std, arr.size, False)
            )
        else:
            points.append(
                NoisePoint(t, t, ideal, degraded_ideal, np.nan, np.nan, 0, flagged=True)
            )
    return points
