"""Sweep orchestration: reproduce the reference datasets as CSV.

Each runner takes a :class:`RunConfig` and an output directory and writes
one CSV file (see :mod:`cpfsim.io` for the deterministic dialect). Every
runner takes its times from :func:`_grid`; ``figure2`` and ``appendix-d``
run each parameter set as cfg restricted to it (:func:`_preset`).
:func:`_curves` builds the correlation blocks of ``figure2``, ``sweep`` and
``witness`` from one :func:`~cpfsim.propagator.propagators` call, with both
routes side by side: ``cpf_closed`` from the reduced closed forms and
``cpf_table`` from the eight-entry probability tables; they must agree to
1e-9 in every row.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

import numpy as np

from .bath import LorentzianKernel, TabulatedKernel, eval_kernel_grid
from .config import BathConfig, RunConfig
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
from .propagator import lorentzian_G, lorentzian_G_two_time, propagators, rates_from_G

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


def _grid(cfg: RunConfig) -> tuple[np.ndarray, float, float]:
    """The output times of every runner (``cfg.points`` of them up to
    t_max_gamma / gamma), their step h, and the integration step of a
    tabulated kernel: a substep of h no coarser than the default
    1/(100 gamma). No other code makes output times."""
    gamma = cfg.bath.gamma
    n = cfg.points - 1
    h = cfg.t_max_gamma / gamma / n
    substeps = h * 100.0 * gamma
    if not np.isfinite(substeps):
        raise ValidationError(
            f"config: grid.t_max_gamma: time step beyond the float range at gamma = {gamma:g}"
        )
    refine = max(1, int(np.ceil(substeps)))
    return np.arange(n + 1) * h, h, h / refine


def _preset(cfg: RunConfig, scheme: MeasurementScheme, ratio, p, y) -> RunConfig:
    """cfg restricted to one parameter set of figure2 or appendix-d: a
    tau_c = 1 Lorentzian bath at gamma tau_c = ratio, the state of excited
    population p, one scheme conditioned on y, equal times in gamma t."""
    return dataclasses.replace(
        cfg, bath=BathConfig(gamma=ratio, tau_c=1.0), state=InitialState.from_population(p),
        schemes=(scheme,), y=y, equal_times=True,
    )


def _curves(cfg: RunConfig) -> tuple[np.ndarray, float, np.ndarray, list]:
    """G and G2 from one propagators call on the (t, tau) pairs of the grid,
    tau fastest (the diagonal if ``cfg.equal_times``, else the plane), and
    one ``CURVE_FIELDS`` block per scheme of cfg, conditioned on ``cfg.y``.
    Returns the output times, their step h, G at those times and the blocks."""
    times, h, step = _grid(cfg)
    if cfg.equal_times:
        i = j = np.arange(times.size)
    else:
        i, j = np.indices((times.size, times.size)).reshape(2, -1)
    g_t, g_tau, g2 = propagators(cfg.bath.make_kernel(), times[i], times[j], step)
    p_label = abs(cfg.state.a) ** 2
    ratio_label = cfg.bath.tau_c * cfg.bath.gamma if cfg.bath.is_analytic else None
    t = times * cfg.bath.gamma
    t_col, tau_col = t[i], t[j]
    blocks = [
        (
            scheme.value, cfg.y, p_label, ratio_label, t_col, tau_col,
            closed_values(scheme, cfg.state, g_t, g2, y=cfg.y),
            table_correlation(table_probs(scheme, cfg.state, cfg.y, g_t, g_tau, g2)),
        )
        for scheme in cfg.schemes
    ]
    # the first times.size pairs are (0, tau) for every output tau
    return times, h, g_tau[: times.size], blocks


def run_figure2(cfg: RunConfig, out_dir: Path) -> Path:
    """Equal-times correlation curves for the reference (scheme, bath, state)
    combinations, conditioned on ``cfg.y``, over gamma*t in [0, t_max_gamma]."""
    blocks = [b for combo in cfg.combos for b in _curves(_preset(cfg, *combo, cfg.y))[-1]]
    return write_dataset(out_dir / "figure2.csv", CURVE_FIELDS, blocks, cfg.echo())


def run_appendix_d(cfg: RunConfig, out_dir: Path) -> Path:
    """Noise-study datasets: visibility matrix, the weak-memory case, and
    the y = +1 starvation case, all with Monte Carlo statistics next to
    the first-order stddev; the header names the RNG contract."""
    if cfg.noise is None:
        raise ValidationError("config: noise: block required for appendix-d runs")
    blocks = []
    for scheme, ratio, p, y, visibility in _appendix_d_blocks(cfg):
        preset = _preset(cfg, scheme, ratio, p, y)
        times, _, step = _grid(preset)
        noise = dataclasses.replace(cfg.noise, visibility=visibility)
        study = run_noise_study(
            preset.state, scheme, preset.bath.make_kernel(), times, noise, y=y, t_step=step
        )
        blocks.append((
            scheme.value, y, p, ratio, noise.total_counts, visibility, study.t * preset.bath.gamma,
            study.ideal, study.degraded_ideal, study.mc_mean, study.mc_std,
            study.predicted_std, study.n_replicas, noise.seed,
        ))
    return write_dataset(
        out_dir / "appendix_d.csv", NOISE_FIELDS, blocks, cfg.echo(), comments=[RNG_CONTRACT]
    )


def run_witness_comparison(cfg: RunConfig, out_dir: Path) -> Path:
    """The central contrast in one table: per t, the non-operational
    witnesses (decay rate gamma(t), survival |G(t)|^2) next to the
    operational CPF(t, t) of z-z-z and x-z-x conditioned on y = -1, for
    analytic or tabulated baths.

    If G crosses zero inside the grid the rate stencils are undefined
    beyond it; the grid is truncated there and the last emitted row says so
    in the warning column.
    """
    both = (MeasurementScheme.ZZZ, MeasurementScheme.XZX)
    times, h, g, blocks = _curves(dataclasses.replace(cfg, schemes=both, y=-1, equal_times=True))
    warning = ""
    try:
        gamma_t, _ = rates_from_G(g, h)
        keep = times.size
    except PropagatorZeroCrossingError as exc:
        keep = max(exc.index, 3)
        gamma_t, _ = rates_from_G(g[:keep], h)
        warning = f"truncated: G(t) crosses zero near gamma*t = {exc.t * cfg.bath.gamma:.6g}"
    cpf = [closed[:keep] for *_, closed, _ in blocks]
    columns = (times[:keep] * cfg.bath.gamma, gamma_t, np.abs(g[:keep]) ** 2, *cpf)
    # the warning is a scalar: "" in a block of every row but the last, and
    # a one-row block of the last row
    blocks = [(*(c[: keep - 1] for c in columns), ""), (*(c[keep - 1 :] for c in columns), warning)]
    return write_dataset(out_dir / "witness.csv", WITNESS_FIELDS, blocks, cfg.echo())


def run_validation(writer: Callable[[str], None] = print) -> bool:
    """Quick invariant suite behind the ``validate`` subcommand.

    A curated subset of the package's property checks, one pass/fail line
    each; returns True when everything holds. The full acceptance suite
    lives in the test tree.
    """
    from .channel import angles_from_propagator, conditional_table, simulate_sequence

    checks: list[tuple[str, bool]] = []
    tau_c = 1.0

    # the quadrature route of propagators (one Volterra solve, G2 from G),
    # which tabulated baths take, on samples of the Lorentzian kernel against
    # the closed forms: G over [0, 5 / gamma] at the reference step h
    h = tau_c / 100
    worst = 0.0
    for ratio in (0.1, 0.5, 1.0, 2.0):
        gamma = ratio / tau_c
        ts = np.arange(int(round(5.0 / gamma / h)) + 1) * h
        samples = TabulatedKernel(ts, eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts))
        g, _, _ = propagators(samples, ts, 0.0, h)
        worst = max(worst, float(np.max(np.abs(g - lorentzian_G(gamma, tau_c, ts)))))
    checks.append((f"volterra vs closed form (max err {worst:.2e} <= 1e-5)", worst <= 1e-5))

    # G2 on the whole surface [0, 5 tau_c]^2, which needs the kernel up to
    # t + tau = 10 tau_c
    gamma = 1.0 / tau_c
    ts = np.arange(1001) * h
    samples = TabulatedKernel(ts, eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts))
    ts = ts[:501]
    g, _, surface = propagators(samples, ts[:, None], ts[None, :], h)
    ref = lorentzian_G_two_time(gamma, tau_c, ts[:, None], ts[None, :])
    err = float(np.max(np.abs(surface - ref)))
    label = "G2 identity on the Volterra solution vs closed form"
    checks.append((f"{label} (max err {err:.2e} <= 1e-5)", err <= 1e-5))

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
    viol = float(np.max(np.abs(surface) ** 2 - (1.0 - np.abs(g) ** 2)))
    checks.append((f"probability bound |G2|^2 <= 1 - |G|^2 (excess {viol:.2e} <= 1e-9)", viol <= 1e-9))

    ok = True
    for label, passed in checks:
        writer(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    return ok


def run_sweep(cfg: RunConfig, out_dir: Path) -> Path:
    """Generic sweep over the configured schemes and grid, for analytic or
    tabulated baths. Tabulated baths run through the numerical pipeline
    (one Volterra solve, G2 from G) on the same grid."""
    return write_dataset(out_dir / "sweep.csv", CURVE_FIELDS, _curves(cfg)[-1], cfg.echo())
