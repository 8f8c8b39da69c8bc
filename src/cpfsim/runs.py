"""Sweep orchestration: reproduce the reference datasets as CSV.

Each runner takes a :class:`RunConfig` and an output directory and writes
one CSV file (see :mod:`cpfsim.io` for the deterministic dialect). Every
runner takes its times, G and G2 from one builder, :func:`_curves`, the
only runner code that chooses the integration step and calls
:func:`~cpfsim.propagator.solve`, and builds from them only the columns it
writes; ``figure2`` and ``appendix-d`` run each parameter set as cfg
restricted to it (:func:`_preset`). The ``figure2`` and ``sweep``
blocks (:func:`_cpf_blocks`) hold ``cpf_closed`` from the reduced closed
forms and ``cpf_table`` from the eight-entry probability tables, both from
the same G and G2. A table cell is a numerator over P(y), the probability
of the conditioning outcome, and each numerator is formed to within
eps = 2.2e-16 absolute: the z-z-z y = -1 cell (1 - |G2|^2 - |G|^2) |a|^2
loses the part of |G2|^2 below eps in 1 - |G2|^2. So a cell is off by up
to eps / P(y), and the cells' sum from 1 by as much, while the covariance
moves by at most 3 per unit of a cell (|zx - z<x> - <z>x| <= 3). With the
rounding of the covariance and of the closed form, the two columns agree
within eps (3 / P(y) + 20) in every row before each is printed to 12
significant digits, an absolute bound: 5e-15 where P(y) is near 1, as in
every coherent scheme (P(y = -1) >= 1/2), but 6.7e-4 at P(y) = 1e-12,
below which a row is NaN. Only z-z-z with |a|^2 near 1 reaches such a
P(y): at p = 1 and y = -1, where P(y) = 1 - |G(t)|^2 and the CPF is
exactly 0, ``cpf_table`` reads 5.0e-9 at P(y) = 5e-9. No package code
checks the bound: the tests do (``tests/test_cli.py`` and
``tests/test_fuzz.py`` on written rows, ``tests/test_routes.py`` on the
functions), and so does the benchmark's output check, to 1e-9 on its
configs, whose P(y = -1) is at least 0.2. ``appendix-d`` hands each
block's one table to :func:`~cpfsim.experiment.run_noise_study` instead,
and ``witness`` writes the closed forms next to the decay rate from the
``rates`` lookup of the solved propagator that :func:`_curves` returns.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .bath import LorentzianKernel, TabulatedKernel, eval_kernel_grid
from .channel import angles_from_propagator, conditional_table, simulate_sequence
from .config import BathConfig, RunConfig
from .cpf import (
    InitialState,
    MeasurementScheme,
    closed_values,
    conditioning_probability,
    cpf_closed_form,
    cpf_from_table,
    table_correlation,
    table_probs,
)
from .errors import KernelRangeError, ValidationError
from .experiment import RNG_CONTRACT, run_noise_study
from .io import write_dataset
from .propagator import _MAX_STEPS, lorentzian_G, lorentzian_G_two_time, propagators, solve

CURVE_FIELDS = ["scheme", "y", "p", "gamma_tau_c", "t", "tau", "cpf_closed", "cpf_table"]
NOISE_FIELDS = [
    "scheme", "y", "p", "gamma_tau_c", "N", "V", "t",
    "ideal", "degraded_ideal", "mc_mean", "mc_std", "predicted_std", "n_replicas", "seed",
]
WITNESS_FIELDS = ["t", "rate_gamma", "g_abs2", "cpf_zzz", "cpf_xzx", "warning"]
_MAX_PAIRS = 2**22  # (t, tau) pairs of a run: ~244 B each, a 2048^2 plane of ~1 GB


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


def _preset(cfg: RunConfig, scheme: MeasurementScheme, ratio, p, y) -> RunConfig:
    """cfg restricted to one parameter set of figure2 or appendix-d: a
    tau_c = 1 Lorentzian bath at gamma tau_c = ratio, the state of excited
    population p, one scheme conditioned on y, equal times in gamma t."""
    return dataclasses.replace(
        cfg, bath=BathConfig(ratio, "tau_c", 1.0), state=InitialState.from_population(p),
        schemes=(scheme,), y=y, equal_times=True,
    )


def _curves(cfg: RunConfig) -> tuple:
    """G and G2 from one :func:`~cpfsim.propagator.solve`, up to 2 t_max, on
    the (t, tau) pairs of the grid, tau fastest (the diagonal if
    ``cfg.equal_times``, else the plane): ``cfg.points`` output times up to
    t_max = t_max_gamma / gamma, at a step h refused if h in units of
    1/(100 gamma) is beyond the float range. The integration step is
    h / refine, an integer refine: no coarser than 1/(100 gamma) nor than the
    kernel's ``decay_time()`` / 25, unless that takes a refine above 2**22,
    where a solve is refused anyway. Returns the times, the solved propagator,
    the pairs' grid indices (i, j) and its (G(t), G(tau), G2) on them. A run
    of more than ``_MAX_PAIRS`` pairs is refused before anything is allocated."""
    pairs = cfg.points if cfg.equal_times else cfg.points**2
    if pairs > _MAX_PAIRS:
        raise ValidationError(
            f"config: grid.points: {cfg.points} points make more than {_MAX_PAIRS} (t, tau) pairs"
        )
    gamma = cfg.bath.gamma
    n = cfg.points - 1
    h = cfg.t_max_gamma / gamma / n
    if not np.isfinite(h * 100.0 * gamma):
        raise ValidationError(
            f"config: grid.t_max_gamma: time step beyond the float range at gamma = {gamma:g}"
        )
    times = np.arange(n + 1) * h
    kernel = cfg.bath.make_kernel()
    refine = max(1.0, np.ceil(h * 100.0 * gamma))  # a float, never an int overflow
    decay = kernel.decay_time()
    if decay is not None:
        refine = max(refine, np.ceil(25.0 * h / decay))
    refine = min(refine, _MAX_STEPS)  # a solve of more steps is refused anyway
    if cfg.equal_times:
        i = j = np.arange(times.size)
    else:
        i, j = np.indices((times.size, times.size)).reshape(2, -1)
    try:
        solved = solve(kernel, 2.0 * times[-1], h / refine)
        g = solved.G(times[i]), solved.G(times[j]), solved.G2(times[i], times[j])
    except (KernelRangeError, ValidationError) as exc:  # this kernel refused on this grid
        raise type(exc)(f"config: bath.{cfg.bath.form}: {cfg.bath.value}: {exc}") from None
    return times, solved, (i, j), g


def _cpf_blocks(cfg: RunConfig) -> list:
    """The ``CURVE_FIELDS`` blocks of cfg, one per scheme, conditioned on
    ``cfg.y``, with the t and tau columns as (output times, grid index)
    pairs; each scheme's table is built and reduced before the next one."""
    times, _, (i, j), (g_t, g_tau, g2) = _curves(cfg)
    p_label = abs(cfg.state.a) ** 2
    t = times * cfg.bath.gamma
    return [
        (
            scheme.value, cfg.y, p_label, cfg.bath.gamma_tau_c, (t, i), (t, j),
            closed_values(scheme, cfg.state, g_t, g2, y=cfg.y),
            table_correlation(table_probs(scheme, cfg.state, cfg.y, g_t, g_tau, g2)),
        )
        for scheme in cfg.schemes
    ]


def run_figure2(cfg: RunConfig, out_dir: Path) -> Path:
    """Equal-times correlation curves for the reference (scheme, bath, state)
    combinations, conditioned on ``cfg.y``, over gamma*t in [0, t_max_gamma]."""
    blocks = [b for combo in cfg.combos for b in _cpf_blocks(_preset(cfg, *combo, cfg.y))]
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
        times, _, _, (g_t, g_tau, g2) = _curves(preset)
        probs = table_probs(scheme, preset.state, y, g_t, g_tau, g2)
        p_y = conditioning_probability(scheme, preset.state, y, g_t)
        noise = dataclasses.replace(cfg.noise, visibility=visibility)
        study = run_noise_study(scheme, probs, p_y, times, noise, y)
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

    The rate is the ``rates`` lookup of the solved propagator that gives
    the other columns, exact for a Lorentzian bath and second order in the
    integration step for a kernel file. It diverges where G crosses zero,
    so the grid stops at the first output time where |G| <= 1e-12 or, for a
    real G, where G changes sign; the last emitted row says so in the
    warning column.
    """
    times, solved, _, (g, _, g2) = _curves(dataclasses.replace(cfg, equal_times=True))
    stop = np.abs(g) <= 1e-12
    if np.max(np.abs(np.imag(g))) <= 1e-12:
        stop[1:] |= np.real(g[:-1]) * np.real(g[1:]) < 0
    keep = int(np.argmax(stop)) if np.any(stop) else times.size
    warning = ""
    if keep < times.size:
        near = times[keep] * cfg.bath.gamma
        warning = f"truncated: G(t) crosses zero near gamma*t = {near:.6g}"
    gamma_t, _ = solved.rates(times[:keep])
    both = (MeasurementScheme.ZZZ, MeasurementScheme.XZX)
    cpf = [closed_values(scheme, cfg.state, g[:keep], g2[:keep], y=-1) for scheme in both]
    columns = (times[:keep] * cfg.bath.gamma, gamma_t, np.abs(g[:keep]) ** 2, *cpf)
    # the warning is a scalar: "" in a block of every row but the last, and
    # a one-row block of the last row
    blocks = [(*(c[: keep - 1] for c in columns), ""), (*(c[keep - 1 :] for c in columns), warning)]
    return write_dataset(out_dir / "witness.csv", WITNESS_FIELDS, blocks, cfg.echo())


def run_validation() -> bool:
    """Quick invariant suite behind the ``validate`` subcommand.

    A curated subset of the package's property checks, one pass/fail line
    each; returns True when everything holds. The full acceptance suite
    lives in the test tree.
    """
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

    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return all(passed for _, passed in checks)


def run_sweep(cfg: RunConfig, out_dir: Path) -> Path:
    """Generic sweep over the configured schemes and grid, for analytic or
    tabulated baths. Tabulated baths run through the numerical pipeline
    (one Volterra solve, G2 from G) on the same grid."""
    return write_dataset(out_dir / "sweep.csv", CURVE_FIELDS, _cpf_blocks(cfg), cfg.echo())
