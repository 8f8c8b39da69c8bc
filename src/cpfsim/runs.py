"""Sweep orchestration: reproduce the reference datasets as CSV.

Each runner takes a :class:`RunConfig` and an output directory and emits
one or more CSV files (see :mod:`cpfsim.io` for the deterministic dialect).
Equal-times correlation curves carry both computation routes side by side:
``cpf_closed`` from the reduced closed forms and ``cpf_table`` from the
eight-entry probability tables; they must agree to 1e-9 in every row.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

import numpy as np

from .bath import LorentzianKernel
from .config import RunConfig
from .cpf import (
    InitialState,
    MeasurementScheme,
    closed_values,
    cpf_closed_form,
    cpf_from_table,
    table_correlation,
    table_probs,
)
from .errors import PropagatorZeroCrossingError, ValidationError
from .experiment import RNG_CONTRACT, run_noise_study
from .io import write_dataset
from .propagator import (
    PropagatorGrid,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
    rates_from_G,
    solve_two_time_pairs,
    solve_volterra,
)

CURVE_FIELDS = ["scheme", "y", "p", "gamma_tau_c", "t", "tau", "cpf_closed", "cpf_table"]
NOISE_FIELDS = [
    "scheme", "y", "p", "gamma_tau_c", "N", "V", "t",
    "ideal", "degraded_ideal", "mc_mean", "mc_std", "predicted_std", "n_replicas", "seed",
]
WITNESS_FIELDS = ["t", "rate_gamma", "g_abs2", "cpf_zzz", "cpf_xzx", "warning"]


def _appendix_d_blocks(cfg: RunConfig):
    """Noise-study blocks: (scheme, gamma tau_c, p, y, visibility): the
    visibility matrix for x-z-x, the incoherent z-z-z reference, the
    weak-memory case, and the count-starved y = +1 case."""
    blocks = [(MeasurementScheme.XZX, 1.0, 1.0, -1, v) for v in cfg.visibilities]
    blocks += [
        (MeasurementScheme.ZZZ, 1.0, 0.8, -1, 1.0),
        (MeasurementScheme.ZZZ, 0.1, 0.8, -1, 1.0),
        (MeasurementScheme.XZX, 1.0, 1.0, +1, 1.0),
    ]
    return blocks


def _cpf_columns(
    scheme: MeasurementScheme, state: InitialState, y: int, g_t, g_tau, g2
) -> tuple[np.ndarray, np.ndarray]:
    """(closed-form, table) CPF of one scheme over broadcast propagator
    arrays; NaN in both where the conditioning outcome y has zero probability."""
    table = table_correlation(table_probs(scheme, state, y, g_t, g_tau, g2))
    if y == +1:  # the past decouples from the future exactly (cpf_y_plus)
        return np.where(np.isnan(table), np.nan, 0.0), table
    return closed_values(scheme, state, g_t, g2), table


def run_figure2(cfg: RunConfig, out_dir: Path) -> Path:
    """Equal-times correlation curves for the reference (scheme, bath, state)
    combinations, conditioned on y = -1, over gamma*t in [0, t_max_gamma]."""
    gamma_t = np.linspace(0.0, cfg.t_max_gamma, cfg.points)
    blocks = []
    for scheme, ratio, p in cfg.combos:
        tau_c = 1.0
        gamma = ratio / tau_c
        t = gamma_t / gamma
        g_t, _, g2 = propagators(LorentzianKernel(gamma, tau_c), t, t)
        state = InitialState.from_population(p)
        closed, table = _cpf_columns(scheme, state, cfg.y, g_t, g_t, g2)
        blocks.append((scheme.value, cfg.y, p, ratio, t * gamma, t * gamma, closed, table))
    return write_dataset(out_dir / "figure2.csv", CURVE_FIELDS, blocks, cfg.raw)


def run_appendix_d(cfg: RunConfig, out_dir: Path) -> Path:
    """Noise-study datasets: visibility matrix, the weak-memory case, and
    the y = +1 starvation case, all with Monte Carlo statistics next to
    the first-order stddev; the header names the RNG contract."""
    if cfg.noise is None:
        raise ValidationError("config: noise: block required for appendix-d runs")
    gamma_t = np.linspace(0.0, cfg.t_max_gamma, cfg.points)
    blocks = []
    for scheme, ratio, p, y, visibility in _appendix_d_blocks(cfg):
        tau_c = 1.0
        gamma = ratio / tau_c
        state = InitialState.from_population(p)
        noise = dataclasses.replace(cfg.noise, visibility=visibility)
        study = run_noise_study(
            state, scheme, LorentzianKernel(gamma, tau_c), gamma_t / gamma, noise, y=y
        )
        blocks.append((
            scheme.value, y, p, ratio, noise.total_counts, visibility, study.t * gamma,
            study.ideal, study.degraded_ideal, study.mc_mean, study.mc_std,
            study.predicted_std, study.n_replicas, noise.seed,
        ))
    return write_dataset(
        out_dir / "appendix_d.csv", NOISE_FIELDS, blocks, cfg.raw, comments=[RNG_CONTRACT]
    )


def run_witness_comparison(cfg: RunConfig, out_dir: Path) -> Path:
    """The central contrast in one table: per t, the non-operational
    witnesses (decay rate gamma(t), survival |G(t)|^2) next to the
    operational CPF(t, t) of both schemes.

    If G crosses zero inside the grid the rate stencils are undefined
    beyond it; the grid is truncated there and the last emitted row says so
    in the warning column.
    """
    if not cfg.bath.is_analytic:
        raise ValidationError("config: bath: witness comparison needs an analytic bath")
    gamma = cfg.bath.gamma
    n = cfg.points - 1
    h = cfg.t_max_gamma / gamma / n
    times = np.arange(n + 1) * h
    g_vals, _, g2 = propagators(cfg.bath.make_kernel(), times, times)
    warning = ""
    try:
        rates = rates_from_G(PropagatorGrid(t_step=h, values=g_vals))
        keep = n + 1
    except PropagatorZeroCrossingError as exc:
        keep = max(exc.index, 3)
        rates = rates_from_G(PropagatorGrid(t_step=h, values=g_vals[:keep]))
        warning = f"truncated: G(t) crosses zero near gamma*t = {exc.t * gamma:.6g}"
    t = times[:keep]
    g_t = g_vals[:keep]
    cpf = [
        _cpf_columns(scheme, cfg.state, -1, g_t, g_t, g2[:keep])[0]
        for scheme in (MeasurementScheme.ZZZ, MeasurementScheme.XZX)
    ]
    warnings = [""] * (keep - 1) + [warning]
    block = (cfg.report_time(t), rates.gamma_t[:keep], np.abs(g_t) ** 2, *cpf, warnings)
    return write_dataset(out_dir / "witness.csv", WITNESS_FIELDS, [block], cfg.raw)


def run_validation(writer: Callable[[str], None] = print) -> bool:
    """Quick invariant suite behind the ``validate`` subcommand.

    A curated subset of the package's property checks, one pass/fail line
    each; returns True when everything holds. The full acceptance suite
    lives in the test tree.
    """
    from .channel import angles_from_propagator, conditional_table, simulate_sequence

    checks: list[tuple[str, bool]] = []
    tau_c = 1.0

    # Volterra solver against the closed form at the reference step
    worst = 0.0
    for ratio in (0.1, 0.5, 1.0, 2.0):
        gamma = ratio / tau_c
        grid = solve_volterra(LorentzianKernel(gamma, tau_c), 5.0 / gamma, tau_c / 100)
        worst = max(
            worst,
            float(np.max(np.abs(grid.values - lorentzian_G(gamma, tau_c, grid.times)))),
        )
    checks.append((f"volterra vs closed form (max err {worst:.2e} <= 1e-5)", worst <= 1e-5))

    # Two-time quadrature against the closed form, on the whole surface
    gamma = 1.0 / tau_c
    idx = np.arange(501)  # the grid points of [0, 5 tau_c]
    grid, surface = solve_two_time_pairs(
        LorentzianKernel(gamma, tau_c), 5.0 * tau_c, tau_c / 100, idx[:, None], idx
    )
    ref = lorentzian_G_two_time(
        gamma, tau_c, grid.times[:, None], grid.times[None, :]
    )
    err = float(np.max(np.abs(surface - ref)))
    checks.append((f"two-time quadrature vs closed form (max err {err:.2e} <= 1e-5)", err <= 1e-5))

    # Channel-map oracle vs closed forms and y = +1 nullity
    ts = np.linspace(0.4 * np.pi, 2.0 * np.pi, 3) * tau_c
    worst = 0.0
    worst_plus = 0.0
    for p in (1.0, 0.8, 0.5):
        state = InitialState.from_population(p)
        for t in ts:
            for tau in ts:
                g_t = complex(lorentzian_G(gamma, tau_c, t))
                g_tau = complex(lorentzian_G(gamma, tau_c, tau))
                g2 = complex(lorentzian_G_two_time(gamma, tau_c, t, tau))
                angles = angles_from_propagator(g_t, g_tau, g2)
                for scheme in MeasurementScheme:
                    joint = simulate_sequence(state, scheme, angles)
                    oracle = cpf_from_table(conditional_table(joint, scheme, -1)).value
                    closed = cpf_closed_form(scheme, state, g_t, g2).value
                    worst = max(worst, abs(oracle - closed))
                    plus = cpf_from_table(conditional_table(joint, scheme, +1)).value
                    worst_plus = max(worst_plus, abs(plus))
    checks.append((f"channel-map oracle vs closed forms (max diff {worst:.2e} <= 1e-9)", worst <= 1e-9))
    checks.append((f"y=+1 correlation nullity (max |CPF| {worst_plus:.2e} <= 1e-12)", worst_plus <= 1e-12))

    # Probability bound on the numerical grids
    viol = float(
        np.max(np.abs(surface) ** 2 - (1.0 - np.abs(grid.values[:, None]) ** 2))
    )
    checks.append((f"probability bound |G2|^2 <= 1 - |G|^2 (excess {viol:.2e} <= 1e-9)", viol <= 1e-9))

    ok = True
    for label, passed in checks:
        writer(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    return ok


def run_sweep(cfg: RunConfig, out_dir: Path) -> Path:
    """Generic sweep over the configured schemes and grid, for analytic or
    tabulated baths. Tabulated baths run through the numerical pipeline
    (Volterra solve plus two-time quadrature) on the same grid."""
    gamma = cfg.bath.gamma
    n = cfg.points - 1
    h = cfg.t_max_gamma / gamma / n
    times = np.arange(n + 1) * h
    # (t, tau) index pairs of the output rows, tau fastest
    if cfg.equal_times:
        i = j = np.arange(n + 1)
    else:
        i, j = np.indices((n + 1, n + 1)).reshape(2, -1)
    ratio_label = cfg.bath.tau_c * gamma if cfg.bath.is_analytic else None
    # a tabulated kernel is integrated on a substep of the output grid no
    # coarser than the default 1/(100 gamma)
    refine = max(1, int(np.ceil(h * 100.0 * gamma)))
    g_t, g_tau, g2 = propagators(cfg.bath.make_kernel(), times[i], times[j], h / refine)
    p_label = abs(cfg.state.a) ** 2
    t = cfg.report_time(times)
    blocks = [
        (
            scheme.value, cfg.y, p_label, ratio_label, t[i], t[j],
            *_cpf_columns(scheme, cfg.state, cfg.y, g_t, g_tau, g2),
        )
        for scheme in cfg.schemes
    ]
    return write_dataset(out_dir / "sweep.csv", CURVE_FIELDS, blocks, cfg.raw)
