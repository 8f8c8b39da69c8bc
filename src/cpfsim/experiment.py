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
  growth of the error bars. To first order the estimator's stddev is
  sqrt(Var_P[(z - <z>)(x - <x>)] / budget) (:func:`predicted_std`).

All randomness flows from a single recorded seed under the RNG contract
``rng v2 per-point-block`` (:data:`RNG_CONTRACT`): a study of n points
spawns n children of ``SeedSequence(seed)``, and point k draws all its
replicas as one (replicas, 4) Poisson block from one ``Generator`` built
on child k, cells in ``_CELLS`` order. A point's counts depend only on the
seed, n and k, so studies are exactly reproducible.

The model is array code over tables of shape (..., 4) in ``_CELLS`` order:
:func:`degrade_probs`, :func:`draw_counts`, :func:`estimate_block` and
:func:`predicted_std`. :func:`run_noise_study` ties them together and
returns its statistics as a record array, one record per time. It takes
the per-point blocks of the stream in chunks of points and estimates and
reduces the replicas of a whole chunk per NumPy call; the stream, and so
every statistic, is the same as drawing and reducing point by point.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .bath import BathKernel
from .cpf import (
    _CELLS,
    InitialState,
    MeasurementScheme,
    closed_values,
    conditioning_probability,
    table_correlation,
    table_probs,
)
from .errors import ValidationError
from .propagator import propagators

RNG_CONTRACT = "rng v2 per-point-block"
# the outcomes z and x of each cell, in _CELLS order
_Z = np.array([z for z, _ in _CELLS], dtype=float)
_X = np.array([x for _, x in _CELLS], dtype=float)
# Cell counts per chunk of run_noise_study (about 20 points at 200 replicas):
# large enough that the per-call overhead of the chunk's NumPy calls
# vanishes, small enough that its stacked counts stay a few hundred kB
# (stacking a whole 101-point, 200-replica study at once raises the
# appendix-d CLI's peak RSS by 2 MB, 5.6%).
_CHUNK_COUNTS = 2**14
# the largest count budget: below NumPy's largest Poisson mean (~9.2e18)
_MAX_COUNTS = 1e18


@dataclass(frozen=True)
class ExperimentConfig:
    """Noise-model parameters: count budget, visibility, replication, seed."""

    total_counts: float
    visibility: float = 1.0
    replicas: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.total_counts <= _MAX_COUNTS):
            raise ValidationError(
                f"total_counts must be a finite number in (0, {_MAX_COUNTS:g}], "
                f"got {self.total_counts}"
            )
        if not (0.0 <= self.visibility <= 1.0):
            raise ValidationError(f"visibility must lie in [0, 1], got {self.visibility}")
        if not _is_int(self.replicas) or self.replicas < 1:
            raise ValidationError(f"replicas must be an integer >= 1, got {self.replicas!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def degrade_probs(
    probs: np.ndarray, visibility: float, scheme: MeasurementScheme
) -> np.ndarray:
    """V * P + (1 - V) * P(x) / 2 over tables of shape (..., 4) in _CELLS
    order; z-z-z tables are returned unchanged."""
    if scheme is MeasurementScheme.ZZZ or visibility == 1.0:
        return probs
    p_x = probs[..., :2] + probs[..., 2:]  # P(x = +1), P(x = -1)
    return visibility * probs + (1.0 - visibility) * np.concatenate([p_x, p_x], axis=-1) / 2.0


def draw_counts(
    probs: np.ndarray, budgets: np.ndarray, replicas: int, seed: int
) -> Iterator[np.ndarray]:
    """Counts of a study of n points under ``rng v2 per-point-block``: yields
    one (replicas, 4) block per point, in order. Point k draws
    Poisson(budgets[k] * probs[k]) in one call from a Generator on child k
    of ``SeedSequence(seed).spawn(n)``; a point whose budget is not > 0
    (NaN included) draws nothing and yields zero counts.
    """
    children = np.random.SeedSequence(seed).spawn(len(probs))
    for p, budget, child in zip(probs, budgets, children):
        if budget > 0.0:
            yield np.random.default_rng(child).poisson(budget * p, size=(replicas, 4))
        else:
            yield np.zeros((replicas, 4), dtype=np.int64)


def estimate_block(counts) -> np.ndarray:
    """The experimental estimator over counts of shape (..., 4): normalize
    each table to its total and evaluate the correlation on it. Tables
    without a coincidence give no estimate: NaN."""
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return table_correlation(counts / total)


def predicted_std(probs: np.ndarray, budget) -> np.ndarray:
    """First-order stddev of the estimator for tables of shape (..., 4) at an
    expected conditioned total ``budget``: the estimator is a sample
    covariance over ~budget coincidences, so its variance is
    Var_P[(z - <z>)(x - <x>)] / budget. NaN where the budget is not > 0."""
    dev = (_Z - (probs @ _Z)[..., None]) * (_X - (probs @ _X)[..., None])
    var = np.sum(probs * dev**2, axis=-1) - np.sum(probs * dev, axis=-1) ** 2
    budget = np.asarray(budget, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.maximum(var, 0.0) / np.where(budget > 0.0, budget, np.nan))


def run_noise_study(
    state: InitialState,
    scheme: MeasurementScheme,
    kernel: BathKernel,
    times: Sequence[float],
    cfg: ExperimentConfig,
    y: int = -1,
    t_step: Optional[float] = None,
) -> np.recarray:
    """Monte Carlo study of the estimator along the equal-times diagonal.

    Returns a record array with one record per t in ``times``: ``t``, the
    ``ideal`` correlation, the visibility-``degraded_ideal``, ``mc_mean``
    and ``mc_std`` of the finite-count estimates over ``cfg.replicas``
    replicas drawn by :func:`draw_counts`, the first-order
    ``predicted_std`` (:func:`predicted_std`), ``n_replicas``, the number
    of replicas with data, and ``flagged``. Replicas without a coincidence
    are dropped; points where conditioning is impossible or every replica
    starves are flagged (NaN statistics).

    The statistics are computed per chunk of points (:data:`_CHUNK_COUNTS`
    cell counts, at least one point): one :func:`estimate_block` call per
    chunk, then one mean and one stddev call per distinct number of
    replicas with data. The counts come from the unchanged per-point
    stream, and each reduction runs over a contiguous row, as a per-point
    reduction does, so the results are the same to the bit.
    """
    times = np.asarray(times, dtype=float)
    g_vals, _, g2_vals = propagators(kernel, times, times, t_step)
    probs = table_probs(scheme, state, y, g_vals, g_vals, g2_vals)
    degraded = degrade_probs(probs, cfg.visibility, scheme)
    ideal, degraded_ideal = table_correlation(probs), table_correlation(degraded)
    if y == +1:  # the past decouples from the future exactly
        ideal = degraded_ideal = closed_values(scheme, state, g_vals, g2_vals, y=y)
    budget = cfg.total_counts * conditioning_probability(scheme, state, y, g_vals)
    mc_mean, mc_std = np.full(times.size, np.nan), np.full(times.size, np.nan)
    n_replicas = np.zeros(times.size, dtype=int)
    draws = draw_counts(degraded, budget, cfg.replicas, cfg.seed)
    chunk = max(1, _CHUNK_COUNTS // (4 * cfg.replicas))
    for start in range(0, times.size, chunk):
        estimates = estimate_block(np.stack(list(islice(draws, chunk))))
        valid = ~np.isnan(estimates)
        counts = valid.sum(axis=1)
        n_replicas[start:start + counts.size] = counts
        # not np.unique: it raises the appendix-d CLI's peak RSS by 1.5 MB
        for c in set(counts.tolist()) - {0}:
            rows = np.flatnonzero(counts == c)
            sample = estimates[rows][valid[rows]].reshape(-1, c)
            mc_mean[start + rows] = sample.mean(axis=1)
            mc_std[start + rows] = sample.std(axis=1, ddof=1) if c > 1 else 0.0
    columns = (
        times, ideal, degraded_ideal, mc_mean, mc_std,
        predicted_std(degraded, budget), n_replicas, n_replicas == 0,
    )
    return np.rec.fromarrays(
        columns,
        names="t,ideal,degraded_ideal,mc_mean,mc_std,predicted_std,n_replicas,flagged",
    )
